"""The evaluator against the substitute-and-recurse oracle and the two
interpreters it replaced, plus budget laws and the shape of its verdicts."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from berrykit.berry import enumerate_formulas
from berrykit.errors import InputError, NotDelta0Error
from berrykit.parser import parse_formula
from berrykit.semantics import (
    FormulaClass,
    Truth,
    classify,
    decide,
    eval_budgeted,
    eval_delta0,
    eval_term,
    names_semantic,
)
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
    numeral,
    substitute,
)
import oracles
from oracles import naive_eval, naive_term_value


class TestTerms:
    @settings(max_examples=80, deadline=None)
    @given(gen.terms())
    def test_matches_naive_oracle(self, t):
        env = {0: 3, 1: 1, 2: 4, 3: 1}
        closed = t
        for i, value in env.items():
            closed = substitute(closed, i, numeral(value))
        assert eval_term(t, env) == naive_term_value(closed)

    def test_numerals_denote_their_value(self):
        assert eval_term(numeral(12)) == 12

    def test_open_term_without_env_rejected(self):
        with pytest.raises(InputError):
            eval_term(Var(0))

    def test_deep_chain_iterative(self):
        assert eval_term(numeral(100_000)) == 100_000


class TestDelta0:
    @settings(max_examples=100, deadline=None)
    @given(gen.closed_delta0())
    def test_matches_naive_oracle(self, f):
        assert eval_delta0(f) == naive_eval(f)

    def test_seeded_bulk_against_oracle(self):
        rng = random.Random(414)
        hits = 0
        for _ in range(300):
            f = gen.random_formula(rng, depth=2)
            env = {i: rng.randrange(4) for i in range(4)}
            try:
                got = eval_delta0(f, env)
            except NotDelta0Error:
                continue
            closed = f
            for i, value in env.items():
                closed = oracles.substitute(closed, i, numeral(value))
            assert got == naive_eval(closed), f
            hits += 1
        assert hits > 50

    @pytest.mark.parametrize("text", [
        "( 0 = 0 ) | ( ( E v1 ) ( v1 = v1 ) )",
        "( ( E v1 ) ( v1 = v1 ) ) | ( 0 = 0 )",
        "( 0 = s 0 ) & ( ( E v1 ) ( v1 = v1 ) )",
        "( ( E v1 ) ( v1 = v1 ) ) & ( 0 = s 0 )",
    ])
    def test_unbounded_quantifier_rejected_in_either_operand(self, text):
        # the operand that settles the connective used to hide the other
        with pytest.raises(NotDelta0Error):
            eval_delta0(parse_formula(text))

    def test_bounded_quantifier_semantics(self):
        f = BForall(0, numeral(4), Le(Var(0), numeral(3)))
        assert eval_delta0(f)

    def test_empty_range_universal_is_true(self):
        f = BForall(0, Zero(), Eq(Var(0), numeral(9)))
        assert eval_delta0(f)

    def test_unbounded_quantifier_rejected(self):
        with pytest.raises(NotDelta0Error):
            eval_delta0(Exists(0, Eq(Var(0), Zero())))


class TestBudgeted:
    def test_true_existential_found_within_budget(self):
        f = Exists(0, Eq(Mul(Var(0), Var(0)), numeral(49)))
        assert eval_budgeted(f, 8) is Truth.TRUE

    def test_beyond_budget_is_unknown_not_false(self):
        f = Exists(0, Eq(Var(0), numeral(40)))
        assert eval_budgeted(f, 8) is Truth.UNKNOWN

    def test_false_universal_counterexample_found(self):
        f = Forall(0, Le(Var(0), numeral(2)))
        assert eval_budgeted(f, 8) is Truth.FALSE

    def test_true_universal_is_unknown_at_any_budget(self):
        f = Forall(0, Le(Var(0), Add(Var(0), Zero())))
        assert eval_budgeted(f, 64) is Truth.UNKNOWN

    def test_delta0_always_decided(self):
        f = BForall(0, numeral(60), Le(Var(0), numeral(60)))
        assert eval_budgeted(f, 1) is Truth.TRUE

    def test_monotone_in_budget_seeded(self):
        rng = random.Random(99)
        decided_small = decided_large = 0
        for _ in range(200):
            f = Exists(0, Eq(Var(0), numeral(rng.randrange(40))))
            small = eval_budgeted(f, 4)
            large = eval_budgeted(f, 64)
            if small is not Truth.UNKNOWN:
                decided_small += 1
                assert small is large
            if large is not Truth.UNKNOWN:
                decided_large += 1
        assert decided_small <= decided_large

    def test_negation_flips_through_unknown(self):
        f = Exists(0, Eq(Var(0), numeral(40)))
        assert eval_budgeted(Not(f), 8) is Truth.UNKNOWN


class TestNamesSemantic:
    def test_names_unique_satisfier(self):
        mu = Eq(Var(0), numeral(3))
        v = names_semantic(mu, 3, 16)
        assert v.kind == "names" and v.number == 3

    def test_refuted_by_foreign_satisfier(self):
        mu = Eq(Var(0), Var(0))
        v = names_semantic(mu, 2, 16)
        assert v.kind == "refuted"
        assert v.witness is not None and v.witness != 2

    def test_refuted_when_false_at_the_number(self):
        mu = Eq(Var(0), numeral(5))
        v = names_semantic(mu, 3, 16)
        assert v.kind == "refuted"

    def test_unknown_when_budget_cannot_decide(self):
        mu = Exists(1, Eq(Var(1), Add(Var(0), numeral(90))))
        v = names_semantic(mu, 0, 4)
        assert v.kind == "unknown"

    def test_verdict_records_budget(self):
        v = names_semantic(Eq(Var(0), Zero()), 0, 9)
        assert v.budget == 9


class TestAgainstTwoInterpreters:
    """The one evaluator against the two it replaced (tests/oracles.py)."""

    FORMULAS = list(enumerate_formulas(8, 8))

    @pytest.mark.parametrize("budget", [0, 3, 32])
    def test_truth_at_a_number_matches_the_substituted_instance(self, budget):
        assert len(self.FORMULAS) == 912
        for mu in self.FORMULAS:
            delta0 = classify(mu) is FormulaClass.DELTA0
            for j in range(budget + 1):
                inst = oracles.substitute(mu, 0, numeral(j))
                want = oracles.eval_budgeted(inst, budget)
                assert eval_budgeted(mu, budget, {0: j}) is want, (mu, j)
                if delta0:
                    assert eval_delta0(mu, {0: j}) is oracles.eval_delta0(inst), (mu, j)
            if not delta0:
                with pytest.raises(NotDelta0Error):
                    eval_delta0(mu, {0: 0})

    @pytest.mark.parametrize("budget", [0, 3, 5])
    def test_closures_match_the_reference(self, budget):
        # unbounded scans end at the budget, and an unsettled instance
        # leaves a bounded scan that nothing stops unsettled
        for mu in self.FORMULAS:
            for f in (
                Exists(0, mu),
                Forall(0, mu),
                BForall(1, numeral(2), Exists(0, mu)),
                BExists(1, numeral(2), Forall(0, mu)),
            ):
                assert eval_budgeted(f, budget) is oracles.eval_budgeted(f, budget), f

    @settings(max_examples=150, deadline=None)
    @given(
        gen.formulas(),
        st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
        st.integers(min_value=0, max_value=4),
    )
    def test_surface_formulas_under_an_env(self, f, values, budget):
        env = dict(enumerate(values))
        assert eval_budgeted(f, budget, env) is oracles.eval_budgeted(f, budget, env)
        check_verdict(f, decide(f, budget, env), budget, env)
        if classify(f) is FormulaClass.DELTA0:
            assert eval_delta0(f, env) is oracles.eval_delta0(f, env)
        else:
            with pytest.raises(NotDelta0Error):
                eval_delta0(f, env)


def check_verdict(f, verdict, budget, env):
    """Every node's truth is the reference's, a connective's parts are its
    operands' verdicts, and a scan holds its body's verdicts at 0, 1, ...,
    ending at the least instance that settles it, or at the end of its range."""
    f = expand_bounded(f)
    truth, parts = verdict
    assert truth is oracles.eval_budgeted(f, budget, env), f
    match f:
        case Eq() | Le():
            assert parts == ()
        case Not(b):
            (vb,) = parts
            check_verdict(b, vb, budget, env)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            vl, vr = parts
            check_verdict(l, vl, budget, env)
            check_verdict(r, vr, budget, env)
        case Forall(v, body) | Exists(v, body):
            stop = Truth.FALSE if type(f) is Forall else Truth.TRUE
            g = oracles.guarded_forall(f) if type(f) is Forall else oracles.guarded_exists(f)
            if g is not None:
                v, bound, body = g
                scan = eval_term(bound, env)
            elif v not in oracles.free_vars(body):  # padding: the body alone
                (vb,) = parts
                check_verdict(body, vb, budget, env)
                return
            else:
                scan = budget + 1
            for j, part in enumerate(parts):
                check_verdict(body, part, budget, {**env, v: j})
            truths = [t for t, _ in parts]
            if stop in truths:
                assert truths.index(stop) == len(parts) - 1 and truth is stop
            else:
                assert len(parts) == scan


class TestVerdicts:
    """``decide`` returns what it read: the parts the proof builders follow."""

    @settings(max_examples=80, deadline=None)
    @given(gen.closed_delta0())
    def test_closed_bounded_sentences(self, f):
        check_verdict(f, decide(f, 0), 0, {})

    def test_seeded_sentences(self):
        rng = random.Random(11)
        for _ in range(300):
            f = gen.random_sentence(rng, 3)
            check_verdict(f, decide(f, 6), 6, {})

    def test_padding_has_the_body_as_its_one_part(self):
        body = Eq(Zero(), Zero())
        for f in (Exists(1, body), Forall(1, body)):
            assert decide(f, 0) == (Truth.TRUE, ((Truth.TRUE, ()),))

    def test_bounded_scan_reaches_above_the_budget(self):
        f = BExists(1, numeral(12), Eq(Var(1), numeral(10)))
        truth, parts = decide(f, 8)
        assert truth is Truth.TRUE and len(parts) == 11
        assert [t for t, _ in parts] == [Truth.FALSE] * 10 + [Truth.TRUE]
        f = BForall(1, numeral(12), Not(Eq(Var(1), numeral(10))))
        truth, parts = decide(f, 8)
        assert truth is Truth.FALSE and len(parts) == 11

    def test_unsettled_scan_runs_to_the_budget(self):
        truth, parts = decide(Exists(0, Eq(Var(0), numeral(30))), 5)
        assert truth is Truth.UNKNOWN and len(parts) == 6

    def test_env_reading_is_the_substituted_instance(self):
        # NamingTable proves mu's instance at k from decide(mu, b, {0: k})
        formulas = list(enumerate_formulas(10, 10))
        assert len(formulas) == 5596
        for mu in formulas:
            for j in range(4):
                want = decide(substitute(mu, 0, numeral(j)), 8)
                assert decide(mu, 8, {0: j}) == want, (mu, j)

    def test_negative_budget_rejected(self):
        with pytest.raises(InputError):
            decide(Eq(Zero(), Zero()), -1)
