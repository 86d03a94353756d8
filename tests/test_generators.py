from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrykit.errors import BerrykitError, BudgetExhaustedError, InputError, RefusedError
from berrykit.generators import (
    LemmaBank,
    names_provable,
    naming_statement,
    prove_le_numerals,
    prove_least_unique,
    prove_ne_numerals,
    prove_order_totality,
    prove_sigma,
    refute_delta0,
)
from berrykit.proofs import is_valid, robinson_arithmetic, to_json_lines
from berrykit.semantics import Truth, decide
from berrykit.syntax import (
    Add,
    And,
    BExists,
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
    free_vars,
    numeral,
    render,
    substitute,
)
from berrykit import tactics as T

import oracles
import strategies

Q = robinson_arithmetic()


def checked(d, expected=None):
    assert is_valid(d, Q)
    if expected is not None:
        assert render(d.conclusion) == render(expected)
    return d


class TestLemmaBank:
    bank = LemmaBank()

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 3), (3, 0), (2, 5), (7, 7)])
    def test_add_eq(self, i, j):
        p = self.bank.add_eq(i, j)
        checked(T.compile_proof(p), Eq(Add(numeral(i), numeral(j)), numeral(i + j)))

    @pytest.mark.parametrize("i,j", [(0, 0), (1, 4), (3, 3), (5, 2)])
    def test_mul_eq(self, i, j):
        p = self.bank.mul_eq(i, j)
        checked(T.compile_proof(p), Eq(Mul(numeral(i), numeral(j)), numeral(i * j)))

    def test_eval_closed_nested(self):
        t = Succ(Add(Mul(numeral(2), numeral(3)), Succ(Zero())))
        p = self.bank.eval_closed(t)
        checked(T.compile_proof(p), Eq(t, numeral(oracles.naive_term_value(t))))

    def test_eval_closed_random_terms(self):
        rng = random.Random(11)
        for _ in range(15):
            t = strategies.random_term(rng, depth=2)
            for v in range(4):
                t = substitute_term(t, v)
            value = oracles.naive_term_value(t)
            if value > 40:
                continue
            checked(T.compile_proof(self.bank.eval_closed(t)), Eq(t, numeral(value)))

    CACHED = {
        "add_eq": (3, 4),
        "mul_eq": (2, 3),
        "eval_closed": (Add(numeral(2), Mul(numeral(1), numeral(3))),),
        "ne": (3, 1),
        "le": (1, 4),
        "nle": (4, 1),
        "g1": (),
        "m2": (),
        "l5": (2,),
        "u_lemma": (3,),
        "l7": (2,),
        "tot": (2,),
    }

    @pytest.mark.parametrize("lemma", CACHED)
    def test_cache_is_shared(self, lemma):
        bank = LemmaBank()
        first = getattr(bank, lemma)(*self.CACHED[lemma])
        assert getattr(bank, lemma)(*self.CACHED[lemma]) is first

    def test_ladder_rungs_are_built_once(self):
        bank = LemmaBank()
        add0, mul0 = bank.add_eq(3, 0), bank.mul_eq(2, 0)
        bank.add_eq(3, 5)
        bank.mul_eq(2, 4)
        assert bank.add_eq(3, 0) is add0 and bank.mul_eq(2, 0) is mul0


def substitute_term(t, v):
    # ground a term variable with a tiny numeral, keeping values small
    return substitute(Eq(t, Zero()), v, numeral(v % 2)).left


class TestOrderLemmas:
    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (2, 5), (5, 2), (0, 7)])
    def test_ne(self, i, j):
        checked(prove_ne_numerals(i, j), Not(Eq(numeral(i), numeral(j))))

    def test_ne_rejects_equal(self):
        with pytest.raises(InputError):
            prove_ne_numerals(4, 4)

    @pytest.mark.parametrize("i,j", [(0, 0), (0, 5), (2, 2), (3, 8)])
    def test_le(self, i, j):
        checked(prove_le_numerals(i, j), Le(numeral(i), numeral(j)))

    def test_le_rejects_descending(self):
        with pytest.raises(InputError):
            prove_le_numerals(3, 1)

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_totality(self, n):
        expected = Forall(0, Or(Le(Var(0), numeral(n)), Le(numeral(n), Var(0))))
        checked(prove_order_totality(n), expected)


class TestLeastUnique:
    def test_instances_are_valid(self):
        for mu, i in [
            (Le(Var(0), numeral(2)), 1),
            (Eq(Var(0), Zero()), 0),
            (Not(Eq(Var(0), numeral(1))), 2),
        ]:
            d = prove_least_unique(mu, i)
            checked(d)
            got = render(d.conclusion)
            assert render(Eq(Var(0), numeral(i))) in got

    def test_conclusion_shape(self):
        mu = Le(Var(0), numeral(1))
        d = prove_least_unique(mu, 1)
        mu_v2 = substitute(mu, 0, Var(2))
        outer = And(
            Not(substitute(mu, 0, numeral(1))),
            Forall(2, Imp(Le(Succ(Var(2)), numeral(1)), mu_v2)),
        )
        inner = And(Not(mu), Forall(2, Imp(Le(Succ(Var(2)), Var(0)), mu_v2)))
        expected = Imp(outer, Forall(0, Imp(inner, Eq(Var(0), numeral(1)))))
        assert render(d.conclusion) == render(expected)

    def test_rejects_extra_free_variable(self):
        with pytest.raises(InputError):
            prove_least_unique(Eq(Var(0), Var(1)), 0)

    def test_rejects_reserved_variable(self):
        with pytest.raises(InputError):
            prove_least_unique(Exists(2, Eq(Var(0), Var(2))), 0)

    def test_rejects_negative_index(self):
        with pytest.raises(InputError):
            prove_least_unique(Eq(Var(0), Zero()), -1)


TRUE_SENTENCES = [
    Eq(numeral(3), numeral(3)),
    Le(numeral(2), numeral(6)),
    Not(Eq(Zero(), numeral(1))),
    And(Eq(Zero(), Zero()), Le(Zero(), numeral(1))),
    Or(Eq(Zero(), numeral(1)), Le(numeral(1), numeral(1))),
    Imp(Eq(Zero(), numeral(1)), Eq(Zero(), numeral(2))),
    Iff(Eq(Zero(), Zero()), Le(Zero(), Zero())),
    BForall(0, numeral(3), Le(Var(0), numeral(3))),
    BExists(0, numeral(4), Eq(Var(0), numeral(2))),
    Exists(0, Eq(Mul(Var(0), Var(0)), numeral(4))),
    Exists(0, Exists(1, Eq(Add(Var(0), Var(1)), numeral(3)))),
]

FALSE_DELTA0 = [
    Eq(numeral(2), numeral(3)),
    Le(numeral(6), numeral(2)),
    Not(Le(Zero(), Zero())),
    And(Eq(Zero(), Zero()), Eq(Zero(), numeral(1))),
    BForall(0, numeral(4), Eq(Var(0), Zero())),
    BExists(0, numeral(3), Le(numeral(5), Var(0))),
]


class TestProveSigma:
    @pytest.mark.parametrize(
        "f", TRUE_SENTENCES, ids=[render(f)[:40] for f in TRUE_SENTENCES]
    )
    def test_true_sentences_derivable(self, f):
        checked(prove_sigma(f), f)

    @pytest.mark.parametrize(
        "f", FALSE_DELTA0, ids=[render(f)[:40] for f in FALSE_DELTA0]
    )
    def test_false_sentences_refused(self, f):
        with pytest.raises(RefusedError):
            prove_sigma(f)

    def test_open_formula_rejected(self):
        with pytest.raises(InputError):
            prove_sigma(Eq(Var(0), Zero()))

    def test_outside_fragment_rejected(self):
        with pytest.raises(InputError):
            prove_sigma(Forall(0, Le(Zero(), Var(0))))

    def test_budget_exhaustion_is_honest(self):
        needle = Exists(0, Eq(Var(0), numeral(30)))
        with pytest.raises(BudgetExhaustedError) as exc:
            prove_sigma(needle, budget=5)
        assert exc.value.budget == 5
        checked(prove_sigma(needle, budget=40), needle)


class TestRefuteDelta0:
    @pytest.mark.parametrize(
        "f", FALSE_DELTA0, ids=[render(f)[:40] for f in FALSE_DELTA0]
    )
    def test_false_sentences_refuted(self, f):
        checked(refute_delta0(f), Not(f))

    def test_true_sentence_refused(self):
        with pytest.raises(RefusedError):
            refute_delta0(Eq(Zero(), Zero()))

    def test_unbounded_sentence_rejected(self):
        with pytest.raises(InputError):
            refute_delta0(Exists(0, Eq(Var(0), numeral(1))))


def _built(fn, sentence, bank):
    """The derivation's JSON lines, or the type and text of the error."""
    try:
        return list(to_json_lines(fn(sentence, 16, bank)))
    except BerrykitError as err:
        return type(err).__name__, str(err)


_SMALL = st.integers(min_value=0, max_value=3).map(numeral)
_BOUND_VARS = st.integers(min_value=0, max_value=2)


def _closed(body_and_kinds):
    """The body closed by a bounded quantifier over each free variable."""
    f, universal = body_and_kinds
    for v in sorted(free_vars(f)):
        f = (BForall if universal else BExists)(v, numeral(2), f)
        universal = not universal
    return f


def nested_bounded_sentences() -> st.SearchStrategy:
    """Closed sentences with bounded quantifiers nested under connectives,
    negations and each other; an inner bound may be an outer variable."""
    var = st.builds(Var, _BOUND_VARS)
    term = st.one_of(_SMALL, var, st.builds(Add, var, _SMALL))
    bound = st.one_of(_SMALL, var)
    atom = st.one_of(st.builds(Eq, term, term), st.builds(Le, term, term))

    def bounded(ctor, inner):
        return (
            st.tuples(_BOUND_VARS, bound, inner)
            .filter(lambda t: t[0] not in free_vars(t[1]))
            .map(lambda t: ctor(*t))
        )

    body = st.recursive(
        atom,
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Imp, inner, inner),
            st.builds(Iff, inner, inner),
            bounded(BForall, inner),
            bounded(BExists, inner),
        ),
        max_leaves=4,
    )
    return st.tuples(body, st.booleans()).map(_closed)


class TestBoundedSugar:
    """A bounded quantifier is proved or refuted as the guarded quantifier it
    stands for: the same lines, or the same error."""

    @settings(max_examples=30, deadline=None)
    @given(nested_bounded_sentences())
    def test_nested_sentences_build_as_their_expansion(self, f):
        bank = LemmaBank()
        for fn in (prove_sigma, refute_delta0):
            assert _built(fn, f, bank) == _built(fn, expand_bounded(f), bank)


def _steps_both_ways(f, budget=16):
    """The derivation of f or of its negation built from the verdict, and
    the one built by asking the evaluator at each choice."""
    bank = LemmaBank()
    verdict = decide(f, budget)
    got = bank.prove(f, verdict)
    if verdict[0] is Truth.TRUE:
        want = oracles.prove_true(bank, f, budget)
    else:
        assert verdict[0] is Truth.FALSE
        want = oracles.prove_false(bank, f, budget)
    return T.compile_proof(got).steps, T.compile_proof(want).steps


class TestBuildersFollowTheVerdict:
    """Following the verdict makes the choices asking again made: the left
    disjunct first, a false antecedent first, the least witness."""

    @settings(max_examples=60, deadline=None)
    @given(strategies.closed_delta0())
    def test_closed_bounded_sentences(self, f):
        got, want = _steps_both_ways(f)
        assert got == want

    # every connective and quantifier, the four sugared sentences included
    @pytest.mark.parametrize(
        "f", TRUE_SENTENCES + FALSE_DELTA0,
        ids=[render(f)[:40] for f in TRUE_SENTENCES + FALSE_DELTA0],
    )
    def test_module_sentences(self, f):
        got, want = _steps_both_ways(f)
        assert got == want


class TestNamesProvable:
    def test_positive_naming(self):
        mu = Le(Var(0), Zero())
        ev = names_provable(mu, 0)
        assert ev.kind == "names"
        checked(ev.derivation, naming_statement(mu, 0))

    def test_refuted_by_other_witness(self):
        mu = Le(Var(0), numeral(1))  # true at 0 and 1
        ev = names_provable(mu, 1)
        assert ev.kind == "refuted" and ev.witness == 0
        checked(ev.derivation, Not(naming_statement(mu, 1)))

    def test_refuted_at_the_number_itself(self):
        mu = Eq(Var(0), numeral(2))
        ev = names_provable(mu, 3)
        assert ev.kind == "refuted"
        checked(ev.derivation, Not(naming_statement(mu, 3)))

    def test_unknown_without_syntactic_bound(self):
        ev = names_provable(Not(Le(numeral(1), Var(0))), 0, budget=16)
        assert ev.kind == "unknown" and ev.derivation is None
        assert "bound" in ev.reason

    def test_unknown_when_bound_exceeds_budget(self):
        ev = names_provable(Le(Var(0), numeral(100)), 0, budget=10)
        assert ev.kind == "unknown"

    def test_unknown_outside_bounded_fragment(self):
        ev = names_provable(Exists(1, Eq(Var(0), Var(1))), 0)
        assert ev.kind == "unknown"

    def test_rejects_extra_free_variables(self):
        with pytest.raises(InputError):
            names_provable(Eq(Var(0), Var(1)), 0)

    def test_rejects_a_negative_budget(self):
        with pytest.raises(InputError, match="^budget must be nonnegative$"):
            names_provable(Eq(Var(0), Zero()), 0, -1)
