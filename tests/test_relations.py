from __future__ import annotations

import random

import pytest

from berrykit.berry import enumerate_formulas
from berrykit.coding import DEFAULT_TABLE, decode, encode
from berrykit.errors import CapExceededError, InputError
from berrykit.generators import LemmaBank
from berrykit.proofs import is_valid, robinson_arithmetic
from berrykit.relations import RelationVerdict, b_rel, fm, lh, neg, nm, prc, snt
from berrykit.syntax import (
    Eq,
    Exists,
    Forall,
    Le,
    Mul,
    Not,
    Var,
    Zero,
    free_vars,
    is_closed,
    is_formula,
    length,
    numeral,
    render,
)

import strategies

Q = robinson_arithmetic()

GARBAGE_CODES = [0, -4, 7, 17, 225, 2**40 + 1]


def sample_formulas():
    rng = random.Random(23)
    return [strategies.random_formula(rng, depth=2) for _ in range(40)]


class TestShapePredicates:
    @pytest.mark.parametrize("i", GARBAGE_CODES)
    def test_garbage_codes_fail_quietly(self, i):
        assert fm(i) is False
        assert snt(i) is False
        assert lh(i, 10**6) is False
        assert neg(i, i) is False

    def test_fm_tracks_free_variables(self):
        for f in sample_formulas():
            expected = not (free_vars(f) - {0})
            assert fm(encode(f)) is expected

    def test_term_codes_are_not_formulas(self):
        assert fm(encode(numeral(3))) is False
        assert snt(encode(Mul(Var(0), Var(1)))) is False

    def test_lh_tracks_length(self):
        for f in sample_formulas()[:20]:
            i = encode(f)
            assert lh(i, length(f) + 1) is True
            assert lh(i, length(f)) is False

    def test_snt_tracks_closedness(self):
        for f in sample_formulas():
            assert snt(encode(f)) is is_closed(f)

    def test_neg_recognizes_negation_pairs(self):
        f = Eq(Zero(), numeral(2))
        assert neg(encode(f), encode(Not(f))) is True
        assert neg(encode(Not(f)), encode(f)) is False
        assert neg(encode(f), encode(f)) is False

    def test_neg_requires_a_sentence_on_the_left(self):
        open_f = Eq(Var(0), Zero())
        assert neg(encode(open_f), encode(Not(open_f))) is False


class TestNm:
    def test_positive_with_derivation(self):
        j = encode(Eq(Var(0), Zero()))
        v = nm(0, j)
        assert v.holds is True
        assert v.witness == "v0 = 0"
        assert is_valid(v.derivation, Q)

    def test_negative_carries_refutation(self):
        j = encode(Eq(Var(0), Zero()))
        v = nm(1, j)
        assert v.holds is False
        assert is_valid(v.derivation, Q)

    def test_non_formula_code_fails_without_search(self):
        v = nm(0, 17)
        assert v.holds is False and v.derivation is None
        assert "naming candidate" in v.reason

    def test_two_variable_code_is_not_a_candidate(self):
        v = nm(0, encode(Eq(Var(0), Var(1))))
        assert v.holds is False

    def test_undecided_under_budget(self):
        j = encode(Not(Le(numeral(1), Var(0))))
        v = nm(0, j, budget=16)
        assert v.holds is None and v.derivation is None

    def test_json_shapes(self):
        j = encode(Eq(Var(0), Zero()))
        obj = nm(0, j).to_json_obj()
        assert obj["v"] == 1 and obj["holds"] is True
        assert obj["derivation_steps"] > 0
        undecided = nm(0, encode(Not(Le(numeral(1), Var(0)))), budget=16)
        obj2 = undecided.to_json_obj()
        assert obj2["holds"] is None and "derivation_steps" not in obj2


class TestBRel:
    def test_first_canonical_witness(self):
        v = b_rel(0, 4)
        assert v.holds is True and v.witness == "0 = v0"
        assert is_valid(v.derivation, Q)

    def test_named_number_inside_longer_window(self):
        v = b_rel(2, 6)
        assert v.holds is True
        assert is_valid(v.derivation, Q)

    def test_definitive_negative_by_exhaustion(self):
        v = b_rel(3, 6, budget=32)
        assert v.holds is False
        assert v.reason == "every candidate refuted"

    def test_unnamed_above_the_least(self):
        assert b_rel(5, 6, budget=32).holds is False

    def test_starved_budget_stays_undecided(self):
        v = b_rel(5, 6, budget=1)
        assert v.holds is None
        assert "undecided" in v.reason

    def test_cap_guards_window(self):
        with pytest.raises(CapExceededError):
            b_rel(0, 16)


class TestPrc:
    def test_non_sentence_codes_hold_trivially(self):
        for i in (17, encode(numeral(2)), encode(Eq(Var(0), Zero()))):
            v = prc(i)
            assert v.holds is True
            assert v.reason == "not a sentence code"
            assert v.derivation is None

    def test_false_bounded_sentence_is_refuted(self):
        f = Eq(Zero(), numeral(1))
        v = prc(encode(f))
        assert v.holds is True
        assert is_valid(v.derivation, Q)
        assert render(v.derivation.conclusion) == render(Not(f))
        assert render(decode(v.witness)) == render(Not(f))

    def test_negated_true_existential_is_refuted(self):
        f = Not(Exists(0, Eq(Mul(Var(0), Var(0)), numeral(4))))
        v = prc(encode(f))
        assert v.holds is True
        assert is_valid(v.derivation, Q)
        assert render(v.derivation.conclusion) == render(Not(f))

    def test_true_sentence_never_definitively_negative(self):
        for f in (Eq(Zero(), Zero()), Le(Zero(), numeral(2))):
            v = prc(encode(f))
            assert v.holds is None
            assert "budget" in v.reason

    def test_hard_sentence_stays_undecided(self):
        f = Forall(0, Le(Var(0), Var(0)))
        assert prc(encode(f)).holds is None


class TestSharedBank:
    """b_rel and prc take the caller's LemmaBank, as the demos pass theirs;
    a bank that already holds lemmas changes no verdict and no derivation."""

    def test_prc_over_a_fragment(self):
        bank = LemmaBank()
        for f in enumerate_formulas(7, cap=7):
            if is_closed(f):
                assert prc(encode(f), budget=32, bank=bank) == prc(encode(f), budget=32), f

    def test_b_rel_after_prc(self):
        bank = LemmaBank()
        prc(encode(Not(Eq(numeral(2), numeral(2)))), budget=32, bank=bank)
        for i in (0, 2, 3):
            assert b_rel(i, 6, budget=32, bank=bank) == b_rel(i, 6, budget=32), i


class TestVerdictJson:
    def test_minimal_shape(self):
        obj = RelationVerdict(False, reason="because").to_json_obj()
        assert obj == {"v": 1, "holds": False, "reason": "because"}

    def test_serializable_fields_only(self):
        import json

        v = prc(encode(Eq(Zero(), numeral(1))))
        json.dumps(v.to_json_obj())
