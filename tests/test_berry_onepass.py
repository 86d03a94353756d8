"""The one-pass least-unnamed search against the per-pair probe loop.

``berry_number`` decides each formula once, from a per-formula table, and
builds evidence only for what its report claims.  These tests hold it to
the reports of ``oracles.berry_number_reference``, hold each table's
``kind`` to the one-shot deciders, and count the derivations it compiles.
"""

from __future__ import annotations

import json

import pytest

import oracles
from berrykit import tactics
from berrykit.berry import berry_number, enumerate_formulas
from berrykit.errors import BudgetExhaustedError, InputError
from berrykit.generators import LemmaBank, NamingTable, names_provable
from berrykit.relations import b_rel
from berrykit.semantics import SemanticNaming, names_semantic
from berrykit.syntax import And, Eq, Le, Not, Var, numeral


def _report_json(report) -> str:
    return json.dumps(report.to_json_obj(), sort_keys=True)


class TestDifferential:
    @pytest.mark.parametrize("max_len", [4, 5, 6])
    def test_prover_reports_identical(self, max_len):
        new = berry_number(max_len, "prover", 32)
        old = oracles.berry_number_reference(max_len, "prover", 32)
        assert _report_json(new) == _report_json(old)
        assert any("derivation_steps" in r for r in new.to_json_obj()["table"])

    @pytest.mark.parametrize("max_len", [4, 5, 6, 7, 8, 9])
    def test_semantic_reports_identical(self, max_len):
        new = berry_number(max_len, "semantic", 32, cap=9)
        old = oracles.berry_number_reference(max_len, "semantic", 32, cap=9)
        assert _report_json(new) == _report_json(old)
        assert new.records == old.records

    @pytest.mark.parametrize("backend", ["semantic", "prover"])
    def test_budget_exhaustion_identical(self, backend):
        with pytest.raises(BudgetExhaustedError) as new:
            berry_number(6, backend, budget=1)
        with pytest.raises(BudgetExhaustedError) as old:
            oracles.berry_number_reference(6, backend, budget=1)
        assert str(new.value) == str(old.value)
        assert new.value.budget == old.value.budget == 1


def _short_formulas() -> list:
    return list(enumerate_formulas(6))


class TestKindMatchesDeciders:
    BUDGET = 32

    def _numbers(self) -> range:
        n = berry_number(6, "semantic", self.BUDGET).n_value
        return range(n + 2)

    def test_prover_tables(self):
        bank = LemmaBank()
        numbers = self._numbers()
        for mu in _short_formulas():
            table = NamingTable(mu, self.BUDGET, bank)
            for i in reversed(numbers):
                assert table.kind(i) == names_provable(mu, i, self.BUDGET).kind, (mu, i)

    def test_semantic_tables(self):
        numbers = self._numbers()
        for mu in _short_formulas():
            table = SemanticNaming(mu, self.BUDGET)
            for i in reversed(numbers):
                assert table.kind(i) == names_semantic(mu, i, self.BUDGET).kind, (mu, i)

    @pytest.mark.parametrize(
        "mu,i,budget,kind",
        [
            # the bound (1) lies below the number
            (Le(Var(0), numeral(1)), 3, 32, "refuted"),
            # ... with no true instance under it: a lazy lookup refutes it
            (And(Le(Var(0), numeral(1)), Not(Eq(Var(0), Var(0)))), 3, 32, "refuted"),
            # no bound, false up to the budget, true at the number
            (Le(numeral(5), Var(0)), 6, 3, "unknown"),
            (Le(numeral(5), Var(0)), 2, 3, "refuted"),
            # the bound (5) lies above the budget: nothing is decided
            (Le(Var(0), numeral(5)), 2, 3, "unknown"),
            (Eq(Var(0), numeral(2)), 2, 32, "names"),
        ],
    )
    def test_prover_edges(self, mu, i, budget, kind):
        table = NamingTable(mu, budget, LemmaBank())
        assert table.kind(i) == names_provable(mu, i, budget).kind == kind

    @pytest.mark.parametrize(
        "mu,i,budget,kind",
        [
            # above the budget, the number itself joins the scan
            (Eq(Var(0), numeral(5)), 5, 3, "names"),
            (Eq(Var(0), numeral(5)), 6, 3, "refuted"),
            (Eq(Var(0), Var(0)), 5, 3, "refuted"),
            (Le(Var(0), numeral(1)), 3, 32, "refuted"),
        ],
    )
    def test_semantic_edges(self, mu, i, budget, kind):
        table = SemanticNaming(mu, budget)
        assert table.kind(i) == names_semantic(mu, i, budget).kind == kind

    def test_negative_number_rejected(self):
        with pytest.raises(InputError):
            NamingTable(Eq(Var(0), numeral(1)), 8, LemmaBank()).kind(-1)
        with pytest.raises(InputError):
            SemanticNaming(Eq(Var(0), numeral(1)), 8).kind(-1)


class TestWork:
    def test_compiles_only_the_claimed_evidence(self, monkeypatch):
        calls = []
        compile_proof = tactics.compile_proof

        def counting(*args, **kwargs):
            calls.append(1)
            return compile_proof(*args, **kwargs)

        monkeypatch.setattr(tactics, "compile_proof", counting)
        report = berry_number(6, "prover", 32)
        listed = sum(len(r.witnesses) for r in report.records)
        # a names derivation per listed witness, a refutation per formula
        # at the unnamed number
        assert len(calls) == listed + report.formula_count


    def test_b_rel_compiles_nothing_when_every_candidate_is_refuted(self, monkeypatch):
        calls = []
        compile_proof = tactics.compile_proof

        def counting(*args, **kwargs):
            calls.append(1)
            return compile_proof(*args, **kwargs)

        monkeypatch.setattr(tactics, "compile_proof", counting)
        v = b_rel(5, 6, budget=32)
        assert (v.holds, v.reason) == (False, "every candidate refuted")
        assert calls == []
        # a positive still carries the witness's derivation, and only it
        v = b_rel(2, 6, budget=32)
        assert v.holds is True and v.derivation is not None
        assert len(calls) == 1
