"""The one-pass least-unnamed search against the per-pair probe loop.

``berry_number`` decides each formula once, from a per-formula table, and
builds evidence only for what its report claims.  These tests hold it to
the reports of ``oracles.berry_number_reference``, hold each table's
``kind`` to the one-shot deciders, and count the proofs it builds and the
derivations it compiles and checks.
"""

from __future__ import annotations

import json

import pytest

import oracles
from berrykit import proofs, tactics
from berrykit.berry import berry_number, enumerate_formulas
from berrykit.errors import BudgetExhaustedError, InputError
from berrykit.generators import LemmaBank, NamingProof, NamingTable, names_provable
from berrykit.parser import parse_formula
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


class TestNamingScan:
    """A NamingTable stops its instance scan at the second true instance;
    its verdicts and witnesses must be those of the full scan."""

    @pytest.mark.parametrize("budget", [4, 32])
    def test_verdicts_match_the_full_scan(self, budget):
        n = berry_number(7, "prover", 32, 8).n_value
        bank = LemmaBank()
        for mu in enumerate_formulas(7, 8):
            table = NamingTable(mu, budget, bank)
            for i in range(n + 2):
                want = oracles.naming_reference(mu, budget, bank, i)
                assert table.kind(i) == want[0], (mu, i)
                got = table.proof(i)
                assert (got.kind, got.witness) == want, (mu, i)

    @pytest.mark.parametrize("budget", [4, 32])
    def test_no_instance_past_the_second_true_one(self, budget):
        bank = LemmaBank()
        stopped = 0
        for mu in enumerate_formulas(7, 8):
            table = NamingTable(mu, budget, bank)
            true_at = table._true_at
            if len(true_at) < 2:
                continue
            stopped += 1
            scanned = list(range(true_at[1] + 1))
            assert sorted(table.table._truths) == scanned, mu
            # two true instances refute every number without asking again
            for i in (0, true_at[1] + 1, budget + 5):
                assert table.kind(i) == "refuted"
            assert sorted(table.table._truths) == scanned, mu
        assert stopped

    def test_scan_runs_its_range_below_two_true_instances(self):
        table = NamingTable(Le(Var(0), numeral(3)), 32, LemmaBank())
        assert table._true_at == [0, 1] and sorted(table.table._truths) == [0, 1]
        table = NamingTable(Eq(Var(0), numeral(2)), 32, LemmaBank())
        assert table._true_at == [2] and sorted(table.table._truths) == [0, 1, 2]
        # no bound and no true instance up to the budget: kind asks past it
        table = NamingTable(Le(numeral(5), Var(0)), 3, LemmaBank())
        assert table._true_at == [] and sorted(table.table._truths) == [0, 1, 2, 3]
        assert table.kind(6) == "unknown" and sorted(table.table._truths) == [0, 1, 2, 3, 6]


def _counting(monkeypatch, owner, name: str) -> list[tuple]:
    """Replace owner.name with a wrapper recording each call's arguments."""
    calls: list[tuple] = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestWork:
    def test_compiles_only_the_claimed_evidence(self, monkeypatch):
        built = _counting(monkeypatch, NamingTable, "proof")
        compiled = _counting(monkeypatch, tactics, "compile_proof")
        checked = _counting(monkeypatch, proofs, "check")
        report = berry_number(6, "prover", 32)
        named = [r for r in report.records if r.named]
        # every claim's tree is built: a names proof per listed witness, and
        # a refutation per formula at the unnamed number
        expected = [r.number for r in named for _ in r.witnesses]
        expected += [report.n_value] * report.formula_count
        assert [i for _, i in built] == expected
        # only each named row's first witness is flattened and kernel-checked
        assert len(compiled) == len(checked) == len(named)
        assert [len(d) for d, _ in checked] == [
            r.to_json_obj()["derivation_steps"] for r in named
        ]

    def test_derivation_steps_are_the_first_witness_derivation(self):
        report = berry_number(7, "prover", 32)
        named = [r for r in report.records if r.named]
        assert named
        for r in named:
            alone = names_provable(parse_formula(r.witnesses[0]), r.number, 32)
            assert r.to_json_obj()["derivation_steps"] == len(alone.derivation)

    def test_evidence_is_the_compiled_proof(self):
        bank = LemmaBank()
        for mu in enumerate_formulas(7):
            table = NamingTable(mu, 32, bank)
            for i in range(7):
                p, e = table.proof(i), table.evidence(i)
                assert (p.kind, p.number, p.witness, p.reason) == (
                    e.kind, e.number, e.witness, e.reason)
                if p.tree is None:
                    assert e.derivation is None
                    continue
                # equal steps (formulas compare as interned nodes) write
                # equal JSON lines, and compare without rendering 387k steps
                compiled = tactics.compile_proof(p.tree)
                assert compiled.steps == e.derivation.steps, (mu, i)

    def test_open_tree_is_refused(self):
        h = tactics.hyp(Eq(Var(0), Var(0)))
        with pytest.raises(tactics.TacticError) as built:
            NamingProof("names", 0, None, h)
        with pytest.raises(tactics.TacticError) as compiled:
            tactics.compile_proof(h)
        assert str(built.value) == str(compiled.value) == (
            "open hypothesis 'v0 = v0': discharge before compiling")

    def test_b_rel_compiles_nothing_when_every_candidate_is_refuted(self, monkeypatch):
        calls = _counting(monkeypatch, tactics, "compile_proof")
        v = b_rel(5, 6, budget=32)
        assert (v.holds, v.reason) == (False, "every candidate refuted")
        assert calls == []
        # a positive still carries the witness's derivation, and only it
        v = b_rel(2, 6, budget=32)
        assert v.holds is True and v.derivation is not None
        assert len(calls) == 1
