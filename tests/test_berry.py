from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings

from berrykit.berry import (
    _binder_indices,
    _formulas_up_to,
    BerryReport,
    BoundCertificate,
    ConcretePhi,
    MockPhi,
    berry_number,
    boolos_schematic,
    boolos_sentence,
    build_psi,
    certify_bounds,
    enumerate_formulas,
    refute_witnesses,
)
from berrykit.errors import (
    BudgetExhaustedError,
    CapExceededError,
    InputError,
    RefusedError,
)
from berrykit.proofs import is_valid, robinson_arithmetic
from berrykit.semantics import SemanticNaming, eval_delta0
from berrykit.syntax import (
    Add,
    And,
    BForall,
    Eq,
    Exists,
    Forall,
    Le,
    Mul,
    Not,
    Succ,
    Var,
    Zero,
    fold,
    free_vars,
    is_closed,
    length,
    numeral,
    render,
    rename_to_first,
    substitute,
    tokens,
)

import oracles
import strategies as gen

Q = robinson_arithmetic()

PINNED_COUNTS = {4: 8, 5: 24, 6: 112, 7: 344, 8: 912, 9: 2264}


class TestEnumeration:
    def test_empty_below_shortest(self):
        for L in (0, 1, 2, 3):
            assert list(enumerate_formulas(L)) == []

    @pytest.mark.parametrize("L", sorted(PINNED_COUNTS))
    def test_counts_match_recurrence_oracle(self, L):
        got = len(list(enumerate_formulas(L, cap=9)))
        assert got == PINNED_COUNTS[L]
        assert got == oracles.count_canonical_formulas(L)

    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_members_match_brute_oracle(self, L):
        ours = {render(f) for f in enumerate_formulas(L)}
        assert ours == set(oracles.brute_canonical_formulas(L))

    def test_free_variables_confined_to_first(self):
        for f in enumerate_formulas(7):
            assert free_vars(f) <= {0}

    def test_lengths_strictly_below_limit(self):
        L = 8
        for f in enumerate_formulas(L):
            assert length(f) < L

    def test_sorted_shortest_first_then_token_order(self):
        fs = list(enumerate_formulas(7))
        keys = [(length(f), tuple(tokens(f))) for f in fs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_members_are_renaming_normal(self):
        L = 7
        for f in enumerate_formulas(L):
            assert render(rename_to_first(f, L + 1)) == render(f)

    @pytest.mark.parametrize("L", range(12))
    def test_equals_the_generate_then_filter_reference(self, L):
        got = list(enumerate_formulas(L, L))
        want = oracles.enumerate_formulas_reference(L)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))

    @settings(max_examples=300, deadline=None)
    @given(gen.binder_formulas())
    def test_binder_test_holds_everywhere_exactly_at_renaming_fixed_points(self, f):
        for v in sorted(free_vars(f) - {0}):
            f = Forall(v, f)
        j = length(f) + 1
        renamed = rename_to_first(f, j)
        for g in (f, renamed):
            assert _binders_pass(g) == (rename_to_first(g, j) is g)
        assert _binders_pass(renamed)

    @pytest.mark.parametrize("max_len, pool", [(8, (0,)), (10, (0, 1)), (10, (0, 1, 2))])
    def test_no_open_formula_where_no_binder_fits(self, max_len, pool):
        buckets = _formulas_up_to(max_len, pool)
        for w, (closable, opened) in enumerate(buckets):
            assert all(free_vars(f) <= {0} for f in closable)
            assert all(free_vars(f) - {0} for f in opened)
            if w > max_len - 6:
                assert opened == []

    def test_cap_guards_infeasible_limits(self):
        with pytest.raises(CapExceededError):
            list(enumerate_formulas(16))
        with pytest.raises(CapExceededError):
            list(enumerate_formulas(9))  # default cap is 8

    def test_negative_limit_rejected(self):
        with pytest.raises(InputError):
            list(enumerate_formulas(-1))


def _binders_pass(f) -> bool:
    """Every unbounded binder of f takes an index `_binder_indices` allows."""

    def alg(node, kids: tuple) -> bool:
        ok = all(kids)
        if type(node) in (Forall, Exists):
            ok = ok and node.var in _binder_indices(free_vars(node.body), range(length(f)))
        return ok

    return fold(f, alg)


class TestBerryNumber:
    @pytest.mark.parametrize("L,expected", [(2, 0), (4, 1), (6, 3)])
    def test_semantic_matches_brute_oracle(self, L, expected):
        rpt = berry_number(L, backend="semantic", budget=32)
        assert rpt.n_value == expected
        assert rpt.n_value == oracles.brute_least_unnamed(L, 40)

    def test_prover_backend_agrees(self):
        rpt = berry_number(6, backend="prover", budget=32)
        assert rpt.n_value == 3
        for rec in rpt.records:
            if rec.named:
                ev = rec.evidence
                assert ev.kind == "names" and ev.derivation is not None
                assert is_valid(ev.derivation, Q)

    def test_semantic_and_prover_reports_align(self):
        a = berry_number(4, backend="semantic", budget=32)
        b = berry_number(4, backend="prover", budget=32)
        assert a.n_value == b.n_value
        assert a.formula_count == b.formula_count

    def test_pigeonhole_bound(self):
        rpt = berry_number(6, backend="semantic", budget=32)
        assert rpt.n_value <= rpt.formula_count + 1

    def test_named_numbers_recorded_with_witnesses(self):
        rpt = berry_number(6, backend="semantic", budget=32)
        for rec in rpt.records[:-1]:
            assert rec.named and rec.witnesses
        last = rpt.records[-1]
        assert last.number == rpt.n_value and not last.named

    def test_witnesses_actually_name(self):
        rpt = berry_number(6, backend="semantic", budget=32)
        for rec in rpt.records:
            if rec.named:
                assert rec.witnesses
                assert rec.evidence is not None and rec.evidence.kind == "names"

    def test_budget_too_small_is_honest(self):
        # a starved scan makes naming non-unique; the overrun must say so
        with pytest.raises(BudgetExhaustedError) as exc:
            berry_number(6, backend="semantic", budget=1)
        assert exc.value.budget == 1

    def test_prover_budget_too_small_is_honest(self):
        with pytest.raises(BudgetExhaustedError):
            berry_number(6, backend="prover", budget=1)

    def test_unknown_backend_rejected(self):
        # also below the shortest formula, where nothing is ever probed
        for max_len in (0, 3, 4):
            with pytest.raises(InputError):
                berry_number(max_len, backend="oracle")

    def test_cap_applies(self):
        with pytest.raises(CapExceededError):
            berry_number(12)

    def test_semantic_backend_decides_each_verdict_once(self):
        # counted by code object, so a call through an alias of verdict counts
        codes = {SemanticNaming.verdict.__code__: "verdict",
                 SemanticNaming.kind.__code__: "kind"}
        calls = {"verdict": 0, "kind": 0}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls[codes[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            rpt = berry_number(7, backend="semantic", budget=32)
        finally:
            sys.setprofile(previous)
        named = sum(rec.named for rec in rpt.records)
        assert calls["kind"] > 0 and named > 0
        assert calls["verdict"] == calls["kind"] + named

    def test_report_json_shape(self):
        rpt = berry_number(4, backend="semantic", budget=32)
        obj = rpt.to_json_obj()
        assert obj["v"] == 1
        assert obj["n"] == 1 and obj["backend"] == "semantic"
        assert len(obj["table"]) == len(rpt.records)
        json.dumps(obj)


class TestProviders:
    def test_concrete_accepts_two_variables(self):
        ConcretePhi(Eq(Var(0), Var(1)))
        ConcretePhi(Le(Var(0), Zero()))

    def test_concrete_rejects_stray_variables(self):
        with pytest.raises(InputError):
            ConcretePhi(Eq(Var(0), Var(2)))

    def test_mock_validates_size(self):
        MockPhi(length=200, v1_occurrences=20)
        with pytest.raises(InputError):
            MockPhi(length=3, v1_occurrences=1)
        with pytest.raises(InputError):
            MockPhi(length=10, v1_occurrences=0)


class TestPsiTemplate:
    def test_concrete_constants(self):
        psi, c = build_psi(ConcretePhi(Eq(Var(0), Var(1))))
        assert (c.k1, c.k2, c.k) == (29, 3, 87)
        assert length(psi) == c.k1
        assert c.t_value == 10 * c.k * c.k

    def test_budget_term_length_identity(self):
        for prov in (ConcretePhi(Eq(Var(0), Var(1))), MockPhi(50, 4)):
            _, c = build_psi(prov)
            assert length(c.t_term) == 17 + 2 * c.k

    def test_budget_term_value(self):
        _, c = build_psi(ConcretePhi(Le(Var(0), Var(1))))
        assert oracles.naive_term_value(c.t_term) == c.t_value

    def test_mock_constants(self):
        psi, c = build_psi(MockPhi(length=120, v1_occurrences=7))
        assert psi is None
        assert (c.k1, c.k2, c.k) == (120, 8, 960)

    def test_template_keeps_number_slot_free(self):
        psi, _ = build_psi(ConcretePhi(Eq(Var(0), Var(1))))
        assert free_vars(psi) == {0, 1}


class TestCertificates:
    def test_concrete_certificate_holds(self):
        cert = certify_bounds(ConcretePhi(Eq(Var(0), Var(1))))
        assert cert.holds
        assert len(cert.verdicts) == 5

    def test_grid_of_mock_sizes(self):
        for ln in (4, 10, 50, 200):
            for occ in (1, 3, 20):
                if occ + 1 > ln:
                    continue
                cert = certify_bounds(MockPhi(ln, occ))
                assert cert.holds, (ln, occ)

    def test_substituted_length_is_exact_for_concrete(self):
        prov = ConcretePhi(Le(Add(Var(0), Var(1)), Mul(Var(1), Var(1))))
        psi, c = build_psi(prov)
        cert = certify_bounds(prov)
        assert cert.psi_at_t_len == length(substitute(psi, 1, c.t_term))
        assert cert.psi_at_t_len < cert.t_value

    def test_json_shape(self):
        obj = certify_bounds(MockPhi(40, 2)).to_json_obj()
        assert obj["v"] == 1 and obj["holds"] is True
        assert set(obj["verdicts"]) == {
            "18k < 8k^2",
            "subst_len <= k1 + k2*t_len",
            "k1 + k2*(17+2k) <= 18k + 2k^2",
            "18k + 2k^2 < 10k^2",
            "subst_len < t_value",
        }


class TestSentence:
    prov = ConcretePhi(Eq(Var(0), Var(1)))

    def test_open_form_keeps_number_slot(self):
        f = boolos_sentence(self.prov)
        assert free_vars(f) == {0}

    def test_closed_form(self):
        f = boolos_sentence(self.prov, n=2)
        assert is_closed(f)
        # false for this toy base: 2 differs from the huge budget value
        assert eval_delta0(f) is not None

    def test_negative_number_rejected(self):
        with pytest.raises(InputError):
            boolos_sentence(self.prov, n=-1)

    def test_mock_provider_cannot_emit_formula(self):
        with pytest.raises(InputError):
            boolos_sentence(MockPhi(40, 2), n=0)

    def test_mock_schematic_summary(self):
        obj = boolos_schematic(MockPhi(40, 2), n=5)
        assert obj["schematic"] is True and obj["n"] == 5
        assert obj["constants"]["k"] == 40 * 3


class TestRefuteWitnesses:
    mu = And(Eq(Succ(Var(2)), Var(0)), Le(Var(1), Var(1)))

    def test_eleven_valid_refutations(self):
        ds = refute_witnesses(self.mu, 0, numeral(7), 10)
        assert len(ds) == 11
        for j, d in enumerate(ds):
            assert is_valid(d, Q)
            inst = substitute(
                substitute(substitute(self.mu, 0, numeral(0)), 1, numeral(7)),
                2,
                numeral(j),
            )
            assert render(d.conclusion) == render(Not(inst))

    def test_true_instance_refused_with_location(self):
        # s v2 = v0 holds at v2 = 1 when v0 = 2
        with pytest.raises(RefusedError, match="witness 1"):
            refute_witnesses(self.mu, 2, numeral(7), 10)

    def test_requires_bounded_formula(self):
        with pytest.raises(InputError):
            refute_witnesses(Exists(2, Eq(Var(2), Var(0))), 0, Zero(), 3)

    def test_requires_exactly_one_witness_slot(self):
        with pytest.raises(InputError):
            refute_witnesses(Eq(Var(0), Var(1)), 0, Zero(), 3)

    def test_requires_closed_budget_term(self):
        with pytest.raises(InputError):
            refute_witnesses(self.mu, 0, Var(3), 3)
