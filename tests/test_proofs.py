from __future__ import annotations

import contextlib
import copy
import functools
import gzip
import itertools
import json
import pickle
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrykit.errors import CheckFailedError, InputError
from berrykit.proofs import (
    Derivation,
    ProofCheckError,
    SCHEMA_NAMES,
    Step,
    Theory,
    check,
    from_json_lines,
    is_valid,
    robinson_arithmetic,
    to_json_lines,
)
from berrykit.syntax import (
    Add,
    And,
    BForall,
    Eq,
    Exists,
    Forall,
    Iff,
    Imp,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Var,
    Zero,
    expand_bounded,
    numeral,
    render,
)
from berrykit import proofs as proofs_module
from berrykit import syntax as syntax_module
from berrykit import tactics as T
from berrykit.generators import LemmaBank, names_provable, prove_ne_numerals
from berrykit.parser import parse_formula
import oracles
import strategies as gen
from oracles import pattern_match

Q = robinson_arithmetic()


def single(f, name):
    return Derivation((Step(f, "schema", name=name),))


class TestTheory:
    def test_eight_axioms(self):
        assert Q.labels() == ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")

    def test_axioms_are_closed_sentences(self):
        from berrykit.syntax import free_vars

        for label in Q.labels():
            assert free_vars(Q.axiom(label)) == frozenset()

    def test_unknown_label(self):
        with pytest.raises(InputError):
            Q.axiom("q9")

    def test_duplicate_label_rejected(self):
        ax = Not(Eq(Zero(), Succ(Zero())))
        with pytest.raises(InputError):
            Theory("bad", (("a", ax), ("a", ax)))

    def test_open_axiom_rejected(self):
        with pytest.raises(InputError):
            Theory("bad", (("a", Eq(Var(0), Zero())),))


class TestSchemas:
    x, y = Var(0), Var(1)
    a = Eq(Var(0), Zero())
    b = Le(Zero(), Var(1))
    c = Not(Eq(Var(2), Var(2)))

    POSITIVE = [
        ("imp_k", Imp(a, Imp(b, a))),
        ("imp_s", Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))),
        ("and_intro", Imp(a, Imp(b, And(a, b)))),
        ("and_left", Imp(And(a, b), a)),
        ("and_right", Imp(And(a, b), b)),
        ("or_left", Imp(a, Or(a, b))),
        ("or_right", Imp(b, Or(a, b))),
        ("or_elim", Imp(Imp(a, c), Imp(Imp(b, c), Imp(Or(a, b), c)))),
        ("neg_intro", Imp(Imp(a, b), Imp(Imp(a, Not(b)), Not(a)))),
        ("neg_elim", Imp(Not(Not(a)), a)),
        ("iff_intro", Imp(Imp(a, b), Imp(Imp(b, a), Iff(a, b)))),
        ("iff_left", Imp(Iff(a, b), Imp(a, b))),
        ("iff_right", Imp(Iff(a, b), Imp(b, a))),
        ("eq_refl", Eq(Add(x, y), Add(x, y))),
        ("eq_succ", Imp(Eq(x, y), Eq(Succ(x), Succ(y)))),
        ("eq_add", Imp(Eq(x, y), Imp(Eq(y, x), Eq(Add(x, y), Add(y, x))))),
        ("eq_mul", Imp(Eq(x, y), Imp(Eq(y, x), Eq(Mul(x, y), Mul(y, x))))),
        ("eq_eq", Imp(Eq(x, y), Imp(Eq(x, x), Imp(Eq(x, x), Eq(y, x))))),
        ("eq_le", Imp(Eq(x, y), Imp(Eq(x, x), Imp(Le(x, x), Le(y, x))))),
        ("all_inst", Imp(Forall(0, Eq(Var(0), Var(0))), Eq(numeral(3), numeral(3)))),
        ("ex_intro", Imp(Eq(numeral(2), numeral(2)), Exists(0, Eq(Var(0), Var(0))))),
        (
            "all_shift",
            Imp(
                Forall(0, Imp(Le(Zero(), Var(1)), Eq(Var(0), Var(0)))),
                Imp(Le(Zero(), Var(1)), Forall(0, Eq(Var(0), Var(0)))),
            ),
        ),
        (
            "ex_shift",
            Imp(
                Forall(0, Imp(Eq(Var(0), Var(0)), Le(Zero(), Var(1)))),
                Imp(Exists(0, Eq(Var(0), Var(0))), Le(Zero(), Var(1))),
            ),
        ),
    ]

    @pytest.mark.parametrize("name,f", POSITIVE, ids=[n for n, _ in POSITIVE])
    def test_positive_instance(self, name, f):
        assert is_valid(single(f, name), Q)

    def test_every_schema_name_exercised(self):
        assert {n for n, _ in self.POSITIVE} == set(SCHEMA_NAMES)

    NEGATIVE = [
        ("imp_k", Imp(Eq(Zero(), Zero()), Imp(Le(Zero(), Zero()), Le(Zero(), Zero())))),
        ("and_left", Imp(And(Eq(Zero(), Zero()), Le(Zero(), Zero())), Le(Zero(), Zero()))),
        ("eq_refl", Eq(Var(0), Var(1))),
        ("eq_succ", Imp(Eq(Var(0), Var(1)), Eq(Succ(Var(0)), Succ(Var(0))))),
        ("all_inst", Imp(Forall(0, Eq(Var(0), Zero())), Eq(numeral(1), numeral(1)))),
        ("ex_intro", Imp(Eq(Zero(), numeral(1)), Exists(0, Eq(Var(0), Var(0))))),
        ("nonsense", Eq(Zero(), Zero())),
    ]

    @pytest.mark.parametrize("name,f", NEGATIVE, ids=[n for n, _ in NEGATIVE])
    def test_negative_instance(self, name, f):
        with pytest.raises(ProofCheckError):
            check(single(f, name), Q)

    def test_all_shift_respects_freeness(self):
        # the antecedent mentions the shifted variable: must be rejected
        bad = Imp(
            Forall(0, Imp(Le(Zero(), Var(0)), Eq(Var(0), Var(0)))),
            Imp(Le(Zero(), Var(0)), Forall(0, Eq(Var(0), Var(0)))),
        )
        with pytest.raises(ProofCheckError):
            check(single(bad, "all_shift"), Q)

    def test_ex_shift_respects_freeness(self):
        bad = Imp(
            Forall(0, Imp(Eq(Var(0), Var(0)), Le(Zero(), Var(0)))),
            Imp(Exists(0, Eq(Var(0), Var(0))), Le(Zero(), Var(0))),
        )
        with pytest.raises(ProofCheckError):
            check(single(bad, "ex_shift"), Q)

    def test_bounded_sugar_expanded_before_matching(self):
        inst = Imp(
            BForall(0, numeral(2), Le(Var(0), numeral(2))),
            Imp(Le(Succ(Zero()), numeral(2)), Le(Zero(), numeral(2))),
        )
        assert is_valid(single(inst, "all_inst"), Q)


def _preorder(pattern):
    """Every sub-pattern of a schema pattern, parents first."""
    yield pattern
    if pattern[0] not in ("F", "T"):
        for sub in pattern[1:]:
            yield from _preorder(sub)


# a node type with the same fields, or a constructor of another shape
_OTHER = {Imp: And, And: Or, Or: Iff, Iff: Imp, Eq: Le, Le: Eq, Add: Mul, Mul: Add,
          Not: lambda body: Forall(0, body), Succ: lambda t: Add(t, t)}


def _instance(pattern, fill, swap_at: int = -1):
    """The expression a pattern describes.  The sub-pattern at preorder
    position k is fill(metavariable, k) when it is a metavariable; the node
    at position swap_at is built by its _OTHER constructor instead."""
    position = itertools.count()

    def build(p):
        k = next(position)
        if p[0] in ("F", "T"):
            return fill(p, k)
        kind = proofs_module._PATTERN_NODES[p[0]][0]
        return (_OTHER[kind] if k == swap_at else kind)(*map(build, p[1:]))

    return build(pattern)


class TestStagedMatcher:
    """The staged pattern matcher gives the recursive interpreter's verdict
    on instances of every pattern schema and on their near misses."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(gen.formulas(3), min_size=6, max_size=6),
           st.lists(gen.terms(3), min_size=8, max_size=8))
    def test_same_verdict_as_the_interpreter(self, fs, ts):
        for name, pattern in proofs_module._PATTERN_SCHEMAS.items():
            subs = list(_preorder(pattern))
            metas = sorted({p for p in subs if p[0] in ("F", "T")})
            # the i-th metavariable of a sort: a value, another of its sort,
            # and one of the other sort (3 formula and 4 term metavariables at most)
            value, other, swapped = {}, {}, {}
            for i, m in enumerate(x for x in metas if x[0] == "F"):
                value[m], other[m], swapped[m] = fs[i], fs[i + 3], ts[i]
            for i, m in enumerate(x for x in metas if x[0] == "T"):
                value[m], other[m], swapped[m] = ts[i], ts[i + 4], fs[i]
            instance = _instance(pattern, lambda m, k: value[m])
            # occurrences alternate between a formula and its expansion
            unsugared = _instance(
                pattern, lambda m, k: expand_bounded(value[m]) if k % 2 else value[m])
            candidates = [instance, unsugared]
            for j in range(len(subs)):
                candidates += [
                    _instance(pattern, lambda m, k: other[m] if k == j else value[m]),
                    _instance(pattern, lambda m, k: swapped[m] if k == j else value[m]),
                    _instance(pattern, lambda m, k: value[m], swap_at=j),
                ]
            for m in metas:  # every occurrence of one metavariable of the other sort
                candidates.append(
                    _instance(pattern, lambda n, k: swapped[n] if n == m else value[n]))
            verdicts = [proofs_module._check_schema(name, f) is None for f in candidates]
            assert verdicts == [pattern_match(pattern, f, {}) for f in candidates], name
            assert verdicts[:2] == [True, True], name


def _subterms(e) -> set:
    """Every term node of e, at any depth."""
    out, stack = set(), [e]
    while stack:
        node = stack.pop()
        if syntax_module.is_term(node):
            out.add(node)
        stack += [getattr(node, n) for n in syntax_module.CHILDREN[type(node)]]
    return out


class TestWitness:
    """`all_inst` and `ex_intro` accept a target exactly when some term among
    Zero and the target's subterms makes it an alpha-variant of the body
    with that term substituted, by the reference substitution and alpha
    equality of tests/oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(gen.formulas(), gen.binder_formulas(8)), st.integers(0, 3), gen.terms(3),
           st.integers(0, 3), st.integers(0, 3))
    def test_accepts_exactly_the_instances(self, f, v, t, k, w):
        body = expand_bounded(f)
        inst = oracles.substitute(body, v, t)
        targets = [
            inst,
            syntax_module._rebuild(inst, {}, first=k),
            oracles.substitute(inst, w, Var((w + 1) % 4)),  # a near miss
        ]
        for target in targets:
            expected = any(oracles.alpha_equal(oracles.substitute(body, v, u), target)
                           for u in {Zero()} | _subterms(target))
            for name, g in (("all_inst", Imp(Forall(v, body), target)),
                            ("ex_intro", Imp(target, Exists(v, body)))):
                assert (proofs_module._check_schema(name, g) is None) == expected, name
        assert proofs_module._check_schema("all_inst", Imp(Forall(v, body), inst)) is None


class TestStepRecord:
    """Step keeps a frozen dataclass's behaviour under its hand-written
    __init__."""

    f = Eq(Zero(), Zero())

    def test_fields_and_replace(self):
        s = Step(self.f, "mp", (0, 1))
        assert [x.name for x in fields(Step)] == ["formula", "rule", "premises", "name", "var"]
        assert (s.formula, s.rule, s.premises, s.name, s.var) == (self.f, "mp", (0, 1), None, None)
        assert replace(s, rule="gen", premises=(2,), var=3) == Step(self.f, "gen", (2,), var=3)
        assert repr(s) == ("Step(formula=Eq(left=Zero(), right=Zero()), rule='mp',"
                           " premises=(0, 1), name=None, var=None)")

    def test_value_equality_and_hash(self):
        s = Step(self.f, "schema", name="eq_refl")
        same = Step(formula=Eq(Zero(), Zero()), rule="schema", premises=(), name="eq_refl")
        assert s == same and hash(s) == hash(same)
        assert s != replace(s, name="imp_k") and s != replace(s, var=0)

    def test_frozen_and_slotted(self):
        s = Step(self.f, "gen", (0,), var=0)
        assert not hasattr(s, "__dict__")
        for x in fields(Step):
            with pytest.raises(FrozenInstanceError):
                setattr(s, x.name, getattr(s, x.name))
        with pytest.raises(FrozenInstanceError):
            del s.rule

    def test_copy_and_pickle_round_trip(self):
        s = Step(self.f, "gen", (0,), var=0)
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and hash(twin) == hash(s) and twin.formula is s.formula

    @pytest.mark.parametrize("build", [
        lambda f: Step(f, "mp", premise=(0, 1)),
        lambda f: Step(f, "axiom", name="q1", label="q1"),
        lambda f: Step(f),
        lambda f: Step(f, "gen", (0,), None, 0, 1),
    ], ids=["unknown keyword", "extra keyword", "missing rule", "extra field"])
    def test_constructor_arguments_checked(self, build):
        with pytest.raises(TypeError):
            build(self.f)


class TestRules:
    a = Eq(Zero(), Zero())
    b = Le(Zero(), Zero())

    def test_axiom_step(self):
        d = Derivation((Step(Q.axiom("q2"), "axiom", name="q2"),))
        assert is_valid(d, Q)

    def test_axiom_step_tampered(self):
        d = Derivation((Step(Q.axiom("q2"), "axiom", name="q4"),))
        assert not is_valid(d, Q)

    def test_axiom_step_needs_name(self):
        with pytest.raises(ProofCheckError):
            check(Derivation((Step(Q.axiom("q2"), "axiom"),)), Q)

    def test_mp(self):
        d = Derivation(
            (
                Step(Imp(self.a, Imp(self.b, self.a)), "schema", name="imp_k"),
                Step(self.a, "schema", name="eq_refl"),
                Step(Imp(self.b, self.a), "mp", premises=(0, 1)),
            )
        )
        assert is_valid(d, Q)

    def test_mp_premise_order_is_imp_then_arg(self):
        d = Derivation(
            (
                Step(Imp(self.a, Imp(self.b, self.a)), "schema", name="imp_k"),
                Step(self.a, "schema", name="eq_refl"),
                Step(Imp(self.b, self.a), "mp", premises=(1, 0)),
            )
        )
        assert not is_valid(d, Q)

    def test_mp_conclusion_mismatch(self):
        d = Derivation(
            (
                Step(Imp(self.a, Imp(self.b, self.a)), "schema", name="imp_k"),
                Step(self.a, "schema", name="eq_refl"),
                Step(self.a, "mp", premises=(0, 1)),
            )
        )
        assert not is_valid(d, Q)

    def test_premise_must_be_earlier(self):
        d = Derivation(
            (
                Step(self.a, "schema", name="eq_refl"),
                Step(self.a, "mp", premises=(1, 0)),
            )
        )
        with pytest.raises(ProofCheckError):
            check(d, Q)

    def test_gen(self):
        d = Derivation(
            (
                Step(Eq(Var(3), Var(3)), "schema", name="eq_refl"),
                Step(Forall(3, Eq(Var(3), Var(3))), "gen", premises=(0,), var=3),
            )
        )
        assert is_valid(d, Q)

    def test_gen_variable_mismatch(self):
        d = Derivation(
            (
                Step(Eq(Var(3), Var(3)), "schema", name="eq_refl"),
                Step(Forall(3, Eq(Var(3), Var(3))), "gen", premises=(0,), var=2),
            )
        )
        assert not is_valid(d, Q)

    def test_gen_must_conclude_universal(self):
        d = Derivation(
            (
                Step(self.a, "schema", name="eq_refl"),
                Step(Exists(0, Eq(Var(0), Var(0))), "gen", premises=(0,), var=0),
            )
        )
        assert not is_valid(d, Q)

    def test_non_ast_node_rejected(self):
        # a formula cannot hold a foreign node, and a foreign step is refused
        with pytest.raises(TypeError, match="not a term or formula node"):
            Imp(Not(Not("x")), "x")
        for foreign in ("x", Zero()):
            d = Derivation((Step(foreign, "schema", name="neg_elim"),))
            with pytest.raises(ProofCheckError, match="step formula is not a formula"):
                check(d, Q)

    def test_unknown_rule(self):
        with pytest.raises(ProofCheckError):
            check(Derivation((Step(self.a, "guess"),)), Q)

    def test_empty_derivation_rejected(self):
        with pytest.raises(InputError):
            Derivation(())

    def test_error_carries_step_index(self):
        d = Derivation(
            (
                Step(self.a, "schema", name="eq_refl"),
                Step(self.b, "schema", name="eq_refl"),
            )
        )
        with pytest.raises(ProofCheckError) as exc:
            check(d, Q)
        assert exc.value.index == 1
        assert isinstance(exc.value, CheckFailedError)


class TestTamper:
    def test_generated_proof_resists_tampering(self):
        d = prove_ne_numerals(2, 5)
        assert is_valid(d, Q)
        mid = len(d) // 2
        forged = Step(Eq(Zero(), Zero()), d.steps[mid].rule,
                      d.steps[mid].premises, d.steps[mid].name, d.steps[mid].var)
        mutated = Derivation(d.steps[:mid] + (forged,) + d.steps[mid + 1:])
        assert not is_valid(mutated, Q)

    def test_dropping_a_step_breaks_references(self):
        d = prove_ne_numerals(1, 3)
        mutated = Derivation(d.steps[1:])
        assert not is_valid(mutated, Q)


# JSON the decoder gives up on: nested past the recursion limit, and an
# integer past the int/str digit limit
_DEEP_JSON = "[" * 100_000
_LONG_NUMBER_JSON = '{"i": 0, "f": "0 = 0", "rule": "axiom", "prem": [' + "9" * 5000 + "]}"


@contextlib.contextmanager
def _digit_limit(digits):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestJsonLines:
    def test_round_trip_preserves_validity(self):
        d = prove_ne_numerals(0, 4)
        text = "\n".join(to_json_lines(d))
        d2 = from_json_lines(text.splitlines())
        assert is_valid(d2, Q)
        assert render(d2.conclusion) == render(d.conclusion)

    def test_round_trip_with_successor_over_sum(self):
        # canonical text must keep s ( x + y ) grouped, or the reload drifts
        bank = LemmaBank()
        d = T.compile_proof(bank.eval_closed(Succ(Add(numeral(2), numeral(1)))))
        assert is_valid(d, Q)
        d2 = from_json_lines(to_json_lines(d))
        assert is_valid(d2, Q)
        assert render(d2.conclusion) == render(d.conclusion)

    def test_step_shape(self):
        d = prove_ne_numerals(0, 1)
        objs = [json.loads(line) for line in to_json_lines(d)]
        assert [o["i"] for o in objs] == list(range(len(objs)))
        assert all({"f", "rule"} <= o.keys() for o in objs)

    def test_blank_lines_skipped(self):
        d = prove_ne_numerals(0, 1)
        lines = list(to_json_lines(d))
        padded = ["", lines[0], "   "] + lines[1:] + [""]
        assert is_valid(from_json_lines(padded), Q)

    def test_out_of_order_index_rejected(self):
        d = prove_ne_numerals(0, 1)
        lines = list(to_json_lines(d))
        with pytest.raises(InputError):
            from_json_lines([lines[1], lines[0]])

    def test_bad_json_rejected(self):
        with pytest.raises(InputError):
            from_json_lines(["{not json"])

    def test_missing_keys_rejected(self):
        with pytest.raises(InputError):
            from_json_lines(['{"i": 0, "f": "0 = 0"}'])

    @pytest.mark.parametrize("line", [_DEEP_JSON, _LONG_NUMBER_JSON],
                             ids=["deep-nesting", "long-number"])
    def test_json_past_the_decoder_is_bad_input(self, line):
        # both once escaped as RecursionError and ValueError
        good = '{"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}'
        with _digit_limit(4300), pytest.raises(InputError, match=r"^line 2: bad JSON: "):
            from_json_lines([good, line])


FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
_JSON_VALUES = [None, True, False, 0, 1, -1, 2.5, "x", "", [], [0], [True], [1, "a"],
                {}, {"f": "0 = 0"}]


@functools.cache
def _fixture_lines() -> tuple[str, ...]:
    with gzip.open(FIXTURES / "naming_v0_5.jsonl.gz", "rt", encoding="utf-8") as fh:
        return tuple(fh)


@st.composite
def _reader_cases(draw):
    """(kind, lines, number of the changed line): lines 1 to k + 3 of the
    v0 = 5 fixture with line k + 1 changed once, in one field or as a
    whole, or preceded by a blank line.  Its first 400 lines hold every
    rule, `gen` from line 273."""
    lines = _fixture_lines()
    k = draw(st.integers(0, 399))
    line, obj = lines[k], json.loads(lines[k])
    kind = draw(st.sampled_from([
        "retype", "drop", "null", "true-premise", "reindex", "trailing", "bom",
        "blank", "not-an-object", "truncated", "deep", "long-number",
    ]))
    field = draw(st.sampled_from(["i", "f", "rule", "name", "prem", "var"]))
    new = [line]
    match kind:
        case "retype":
            obj[field] = draw(st.sampled_from(_JSON_VALUES))
        case "drop":
            obj.pop(field, None)
        case "null":
            obj[draw(st.sampled_from(["i", "name", "var"]))] = None
        case "true-premise":
            prem = obj.get("prem", [])
            obj["prem"] = prem[:-1] + [True] if prem else [True]
        case "reindex":
            obj["i"] = k + draw(st.sampled_from([-1, 1, 2]))
        case "trailing":
            new = [line.rstrip("\n") + draw(st.sampled_from([" x", " {}", "]", ",", " 1"]))]
        case "bom":
            new = ["\ufeff" + line]
        case "blank":
            new = [draw(st.sampled_from(["\n", "   \n", "\t\r\n", "\u2003\n"])), line]
        case "not-an-object":
            new = [json.dumps(draw(st.sampled_from([v for v in _JSON_VALUES
                                                    if type(v) is not dict])))]
        case "truncated":
            new = [line[:draw(st.integers(0, len(line) - 2))]]
        case "deep":
            new = [_DEEP_JSON]
        case "long-number":
            new = [_LONG_NUMBER_JSON]
    if kind in ("retype", "drop", "null", "true-premise", "reindex"):
        new = [json.dumps(obj)]
    return kind, list(lines[:k]) + new + list(lines[k + 1:k + 3]), k + len(new)


def _read_outcome(read, lines):
    try:
        return read(lines).steps
    except InputError as err:
        return str(err)


@settings(max_examples=250, deadline=None)
@given(_reader_cases())
def test_reader_agrees_with_the_reference(case):
    kind, lines, lineno = case
    with _digit_limit(4300):
        got = _read_outcome(from_json_lines, lines)
        if kind in ("deep", "long-number"):
            with pytest.raises((RecursionError, ValueError)) as ref:
                oracles.from_json_lines_reference(lines)
            assert not isinstance(ref.value, InputError)
            assert got.startswith(f"line {lineno}: bad JSON: ")
        else:
            assert got == _read_outcome(oracles.from_json_lines_reference, lines)


class TestSharedReading:
    """from_json_lines shares repeated subformulas; check compares them by
    structure.  The checker must judge a shared derivation exactly as one
    whose steps were parsed one by one, with nothing shared."""

    @pytest.fixture(scope="class")
    def lines(self):
        ev = names_provable(Eq(Var(0), numeral(1)), 1)
        assert ev.kind == "names"
        return list(to_json_lines(ev.derivation))

    @staticmethod
    def unshared(lines):
        steps = []
        for line in lines:
            obj = json.loads(line)
            steps.append(Step(parse_formula(obj["f"]), obj["rule"],
                              tuple(obj.get("prem", ())), obj.get("name"),
                              obj.get("var")))
        return Derivation(tuple(steps))

    def test_mp_antecedent_is_the_premise_node(self, lines):
        d = from_json_lines(lines)
        mps = [s for s in d.steps if s.rule == "mp"]
        assert mps
        for s in mps:
            pi, pj = s.premises
            assert d.steps[pi].formula.left is d.steps[pj].formula

    def test_no_render_in_the_kernel(self, lines, monkeypatch):
        calls = []

        def counting(e):
            calls.append(1)
            return render(e)

        monkeypatch.setattr(proofs_module, "render", counting)
        monkeypatch.setattr(syntax_module, "render", counting)
        d = from_json_lines(lines)
        check(d, Q)
        check(self.unshared(lines), Q)
        assert calls == []

    @staticmethod
    def mutants(lines):
        objs = [json.loads(line) for line in lines]
        mp = next(k for k, o in enumerate(objs) if o["rule"] == "mp")
        gen = next(k for k, o in enumerate(objs) if o["rule"] == "gen")
        out = {}
        swapped = [dict(o) for o in objs]
        swapped[mp]["prem"] = swapped[mp]["prem"][::-1]
        out["swapped premises"] = swapped
        pi, pj = objs[mp]["prem"]
        other = next(k for k in range(mp) if objs[k]["f"] != objs[pj]["f"])
        moved = [dict(o) for o in objs]
        moved[mp]["prem"] = [pi, other]
        out["antecedent index"] = moved
        moved_gen = [dict(o) for o in objs]
        moved_gen[gen]["prem"] = [0]
        out["gen premise index"] = moved_gen
        zero = re.compile(r"(?:^| )0(?= |$)")
        for start in (mp - 1, mp, gen - 1, len(objs) // 2):
            k = next(k for k in range(start, len(objs)) if zero.search(objs[k]["f"]))
            changed = [dict(o) for o in objs]
            changed[k]["f"] = zero.sub(lambda m: m.group().replace("0", "s 0"),
                                       objs[k]["f"], count=1)
            out[f"numeral changed at {k}"] = changed
        wrong_var = [dict(o) for o in objs]
        wrong_var[gen]["var"] += 1
        out["gen variable"] = wrong_var
        false_end = [dict(o) for o in objs]
        false_end[-1]["f"] = "0 = s 0"
        out["false conclusion"] = false_end
        return {name: [json.dumps(o) for o in m] for name, m in out.items()}

    def test_mutants_fail_alike(self, lines):
        for name, mutant in self.mutants(lines).items():
            with pytest.raises(ProofCheckError) as shared:
                check(from_json_lines(mutant), Q)
            with pytest.raises(ProofCheckError) as plain:
                check(self.unshared(mutant), Q)
            assert (shared.value.index, str(shared.value)) == (
                plain.value.index, str(plain.value)), name

    def test_non_string_formula_rejected(self):
        with pytest.raises(InputError, match="line 1:"):
            from_json_lines(['{"i": 0, "f": 5, "rule": "axiom"}'])


class TestQuantifierSchemaReasons:
    """Every reason the four quantifier schemas give, by its text."""

    a = Eq(Var(0), Var(0))
    side = Le(Zero(), Var(1))
    shifted_all = Imp(Forall(0, Imp(side, a)), Imp(side, Forall(0, a)))
    shifted_ex = Imp(Forall(0, Imp(a, side)), Imp(Exists(0, a), side))

    CASES = [
        ("all_inst", Eq(Zero(), Zero()), "expected (A x) B -> B[x := t]"),
        ("all_inst", Imp(Exists(0, a), Eq(Zero(), Zero())), "expected (A x) B -> B[x := t]"),
        ("all_inst", Imp(Forall(0, Eq(Var(0), Zero())), Eq(numeral(1), numeral(1))),
         "conclusion is not a substitution instance"),
        ("ex_intro", Eq(Zero(), Zero()), "expected B[x := t] -> ( E x ) B"),
        ("ex_intro", Imp(Forall(0, a), Eq(Zero(), Zero())), "expected B[x := t] -> ( E x ) B"),
        ("ex_intro", Imp(Eq(Zero(), numeral(1)), Exists(0, a)),
         "premise is not a substitution instance"),
        ("all_shift", shifted_ex, "expected (A x)(A -> B) -> (A -> (A x) B)"),
        ("all_shift", Imp(Forall(0, Imp(side, a)), Imp(side, Forall(1, a))),
         "quantified variables differ"),
        ("all_shift", Imp(Forall(0, Imp(side, a)), Imp(a, Forall(0, a))), "components differ"),
        ("all_shift", Imp(Forall(0, Imp(side, a)), Imp(side, Forall(0, side))),
         "components differ"),
        ("all_shift", Imp(Forall(2, Imp(Eq(Var(2), Zero()), a)),
                          Imp(Eq(Var(2), Zero()), Forall(2, a))),
         "v2 occurs free in the antecedent"),
        ("ex_shift", shifted_all, "expected (A x)(A -> B) -> ((E x) A -> B)"),
        ("ex_shift", Imp(Forall(0, Imp(a, side)), Imp(Exists(1, a), side)),
         "quantified variables differ"),
        ("ex_shift", Imp(Forall(0, Imp(a, side)), Imp(Exists(0, side), side)),
         "components differ"),
        ("ex_shift", Imp(Forall(0, Imp(a, side)), Imp(Exists(0, a), a)), "components differ"),
        ("ex_shift", Imp(Forall(1, Imp(a, side)), Imp(Exists(1, a), side)),
         "v1 occurs free in the conclusion"),
        ("x", Eq(Zero(), Zero()), "unknown schema 'x'"),
    ]

    @pytest.mark.parametrize("name,f,reason", CASES)
    def test_reason_text(self, name, f, reason):
        with pytest.raises(ProofCheckError) as err:
            check(single(f, name), Q)
        assert str(err.value) == f"step 0: {reason}"

    def test_the_shifts_accept_their_own_shape(self):
        assert is_valid(single(self.shifted_all, "all_shift"), Q)
        assert is_valid(single(self.shifted_ex, "ex_shift"), Q)


def test_a_read_derivation_shares_its_rule_and_name_strings():
    d = from_json_lines(_fixture_lines())
    for field in ("rule", "name"):
        values = [getattr(s, field) for s in d.steps if getattr(s, field) is not None]
        assert len(values) > 100, field
        assert len({id(v) for v in values}) == len(set(values)), field
