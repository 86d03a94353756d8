"""Kernel invariants: lengths, equality, substitution, renaming."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies as gen
from berrykit.syntax import (
    Add,
    And,
    BExists,
    BForall,
    Eq,
    Exists,
    Forall,
    FormulaClass,
    Iff,
    Imp,
    Le,
    Mul,
    Not,
    Or,
    StructureKeys,
    Succ,
    Var,
    Zero,
    all_var_indices,
    alpha_equal,
    classify,
    expand_bounded,
    expr_equal,
    free_vars,
    from_json_obj,
    is_closed,
    length,
    numeral,
    numeral_value,
    render,
    rename_to_first,
    substitute,
    to_json_obj,
    tokens,
)


class TestLength:
    def test_numeral_length_is_value_plus_one(self):
        for n in (0, 1, 2, 17, 300):
            assert length(numeral(n)) == n + 1

    def test_atom_length_is_sum_plus_one(self):
        assert length(Eq(Zero(), Zero())) == 3
        assert length(Le(numeral(2), Var(0))) == 5

    def test_composite_operands_carry_parens(self):
        t = Add(Mul(Zero(), Zero()), Var(1))
        assert tokens(t) == ["(", "0", "*", "0", ")", "+", "v1"]

    def test_successor_over_composite_carries_parens(self):
        # a bare core would hand the successors to the left operand on re-parse
        t = Succ(Add(Zero(), Var(0)))
        assert render(t) == "s ( 0 + v0 )"
        assert length(t) == 6

    def test_quantifier_prefix_costs_six(self):
        body = Eq(Var(0), Zero())
        assert length(Forall(0, body)) == length(body) + 6

    def test_budget_term_shape(self):
        for k in (1, 2, 50):
            t = Mul(numeral(10), Mul(numeral(k), numeral(k)))
            assert length(t) == 17 + 2 * k


class TestBoundedSugar:
    def test_bforall_expands_to_guarded_forall(self):
        f = BForall(0, numeral(3), Eq(Var(0), Zero()))
        e = expand_bounded(f)
        assert isinstance(e, Forall)
        assert render(e) == render(f)

    def test_bexists_expands_to_guarded_exists(self):
        f = BExists(1, Var(0), Le(Var(1), Zero()))
        e = expand_bounded(f)
        assert isinstance(e, Exists)
        assert expr_equal(f, e)

    def test_bound_may_not_mention_binder(self):
        with pytest.raises(ValueError):
            BForall(0, Var(0), Eq(Var(0), Zero()))

    def test_sugar_equal_to_expansion(self):
        f = BForall(2, Var(0), Eq(Var(2), Var(1)))
        assert expr_equal(f, expand_bounded(f))
        assert length(f) == length(expand_bounded(f))

    def test_sugar_free_subtrees_are_not_copied(self):
        plain = Imp(Forall(0, Eq(Var(0), Zero())), Not(Le(Zero(), Var(1))))
        assert expand_bounded(plain) is plain
        e = expand_bounded(And(BExists(1, Var(0), Le(Var(1), Zero())), plain))
        assert e.right is plain

    @settings(max_examples=60, deadline=None)
    @given(gen.formulas())
    def test_expansion_is_a_fixed_point(self, f):
        e = expand_bounded(f)
        assert expand_bounded(e) is e


class TestExprEqual:
    def test_deep_chains_compare_without_recursion(self):
        a, b = numeral(60_000), numeral(60_000)
        assert expr_equal(a, b)
        assert not expr_equal(a, Succ(a))

    def test_distinguishes_structure(self):
        assert not expr_equal(Eq(Zero(), Zero()), Le(Zero(), Zero()))
        assert not expr_equal(Var(0), Var(1))

    @settings(max_examples=60, deadline=None)
    @given(gen.formulas())
    def test_reflexive(self, f):
        assert expr_equal(f, f)


def _copy_changing_leaf(e, k: int):
    """A fresh copy of e (no node shared) whose k-th Zero/Var leaf, in
    pre-order, is replaced by a different leaf; k < 0 changes nothing.
    Returns the copy and the number of leaves."""
    seen = [0]

    def go(x):
        if type(x) is Zero or type(x) is Var:
            seen[0] += 1
            if seen[0] - 1 == k:
                return Var(0) if type(x) is Zero else Var(x.index + 1)
            return Zero() if type(x) is Zero else Var(x.index)
        return type(x)(*(v if type(v) is int else go(v) for v in vars(x).values()))

    return go(e), seen[0]


class TestRenderedEqualityIsStructural:
    """The kernel compares formulas with expr_equal where it once compared
    rendered strings; on expanded formulas the two must agree."""

    @settings(max_examples=200, deadline=None)
    @given(gen.formulas(), gen.formulas(), st.sampled_from(["copy", "leaf", "other"]),
           st.integers(min_value=0, max_value=10_000))
    def test_render_equal_iff_expr_equal(self, f, g, how, k):
        a = expand_bounded(f)
        b, leaves = _copy_changing_leaf(a, -1)
        if how == "leaf":
            b, _ = _copy_changing_leaf(a, k % leaves)
        elif how == "other":
            b = expand_bounded(g)
        assert (render(a) == render(b)) == expr_equal(a, b)
        if how == "copy":
            assert a is not b and expr_equal(a, b)
        if how == "leaf":
            assert not expr_equal(a, b)


def _copy_changing_binder(e, k: int):
    """A fresh copy of the expanded formula e whose k-th quantifier binder,
    in pre-order, is renumbered; returns the copy and the binder count."""
    seen = [0]

    def go(x):
        if type(x) is Zero or type(x) is Var:
            return type(x)(*vars(x).values())
        fields = list(vars(x).values())
        if type(x) is Forall or type(x) is Exists:
            seen[0] += 1
            if seen[0] - 1 == k:
                fields[0] += 1
        return type(x)(*(v if type(v) is int else go(v) for v in fields))

    return go(e), seen[0]


def _fresh_chain(n: int, core):
    for _ in range(n):
        core = Succ(core)
    return core


class TestStructureKeys:
    """One table's numbers agree exactly with rendered-string equality."""

    @settings(max_examples=300, deadline=None)
    @given(gen.formulas(), gen.formulas(),
           st.sampled_from(["same", "copy", "expanded", "leaf", "binder", "other"]),
           st.integers(min_value=0, max_value=10_000))
    def test_keys_equal_iff_renders_equal(self, f, g, how, k):
        expanded, leaves = _copy_changing_leaf(expand_bounded(f), -1)
        match how:
            case "same":
                b = f
            case "copy":
                b = _copy_changing_leaf(f, -1)[0]
            case "expanded":
                b = expanded
            case "leaf":
                b = _copy_changing_leaf(expanded, k % leaves)[0]
            case "binder":
                _, binders = _copy_changing_binder(expanded, -1)
                b = _copy_changing_binder(expanded, k % binders)[0] if binders else f
            case _:
                b = g
        keys = StructureKeys()
        assert (keys(f) == keys(b)) == (render(f) == render(b))
        if how in ("same", "copy", "expanded"):
            assert keys(f) == keys(b)
        if how == "leaf" or (how == "binder" and b is not f):
            assert keys(f) != keys(b)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=3), gen.terms(3), gen.formulas(3))
    def test_bounded_quantifiers_key_as_their_expansion(self, v, t, body):
        if v in all_var_indices(t):
            return
        guard = Le(Succ(Var(v)), t)
        keys = StructureKeys()
        forall, exists = BForall(v, t, body), BExists(v, t, body)
        assert keys(forall) == keys(Forall(v, Imp(guard, body)))
        assert keys(exists) == keys(Exists(v, And(guard, body)))
        assert keys(forall) != keys(exists)
        assert keys(forall) != keys(Forall(v, And(guard, body)))
        assert keys(exists) != keys(Exists(v, Imp(guard, body)))
        wrapped = Not(And(forall, exists))
        assert keys(wrapped) == keys(expand_bounded(wrapped))

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_variables(self, i, j):
        keys = StructureKeys()
        assert (keys(Var(i)) == keys(Var(j))) == (i == j)
        assert (keys(Forall(i, Eq(Var(0), Zero()))) == keys(Forall(j, Eq(Var(0), Zero())))) == (i == j)

    @settings(max_examples=100, deadline=None)
    @given(gen.terms(3), gen.terms(3))
    def test_successor_around_sums(self, a, b):
        shapes = [
            Succ(Add(a, b)), Add(Succ(a), b), Add(a, Succ(b)),
            Succ(Mul(a, b)), Mul(Succ(a), b), Succ(Succ(Add(a, b))),
        ]
        keys = StructureKeys()
        for x in shapes:
            for y in shapes:
                assert (keys(x) == keys(y)) == (render(x) == render(y))

    def test_deep_successor_chain(self):
        keys = StructureKeys()
        a = _fresh_chain(50_000, Zero())
        assert keys(a) == keys(_fresh_chain(50_000, Zero()))
        assert keys(a) != keys(Succ(a))
        assert keys(a) != keys(_fresh_chain(50_000, Var(0)))

    def test_deep_negation_nest(self):
        def nest(n):
            f = Eq(Zero(), Zero())
            for _ in range(n):
                f = Not(f)
            return f

        keys = StructureKeys()
        assert keys(nest(5_000)) == keys(nest(5_000))
        assert keys(nest(5_000)) != keys(nest(5_001))

    def test_numbers_survive_dropped_inputs(self):
        # numbered nodes are kept alive, so a recycled id cannot alias
        keys = StructureKeys()
        got = {}
        for n in range(300):
            f = Eq(_fresh_chain(n % 7, Var(n % 3)), Zero())
            got.setdefault(render(f), set()).add(keys(f))
        assert all(len(v) == 1 for v in got.values())
        assert len({next(iter(v)) for v in got.values()}) == len(got)

    @pytest.mark.parametrize("bad", [
        "x", Not("x"), And(Eq(Zero(), Zero()), None), Succ(3.5),
        BForall(1, Zero(), Not(object)),
    ])
    def test_rejects_non_ast_like_render(self, bad):
        with pytest.raises(TypeError) as rendered:
            render(bad)
        with pytest.raises(TypeError) as keyed:
            StructureKeys()(bad)
        assert str(keyed.value) == str(rendered.value)


class TestSubstitution:
    def test_replaces_free_occurrences(self):
        f = Eq(Var(0), Add(Var(0), Var(1)))
        g = substitute(f, 0, numeral(2))
        assert render(g) == "s s 0 = s s 0 + v1"

    def test_bound_occurrences_untouched(self):
        f = Forall(0, Eq(Var(0), Var(1)))
        assert render(substitute(f, 0, Zero())) == render(f)

    def test_capture_renames_binder(self):
        f = Exists(1, Eq(Var(0), Succ(Var(1))))
        g = substitute(f, 0, Var(1))
        assert 1 in free_vars(g)
        assert isinstance(g, Exists)
        assert g.var != 1

    def test_shares_whole_numeral_spines(self):
        big = numeral(50_000)
        out = substitute(Eq(Var(0), big), 0, Zero())
        assert out.right is big

    @settings(max_examples=60, deadline=None)
    @given(gen.formulas(), st.integers(min_value=0, max_value=3))
    def test_substituting_absent_variable_changes_nothing(self, f, v):
        if v not in free_vars(f):
            assert render(substitute(f, v, numeral(7))) == render(f)


class TestRenaming:
    def test_fixpoint_on_well_named(self):
        f = Forall(1, Eq(Var(1), Var(0)))
        assert render(rename_to_first(f, 10)) == render(f)

    def test_renames_high_binders_down(self):
        f = Forall(3, Eq(Var(3), Var(0)))
        assert render(rename_to_first(f, 10)) == render(Forall(1, Eq(Var(1), Var(0))))

    def test_alpha_equal_after_rename(self):
        f = Exists(2, Le(Var(2), Var(0)))
        assert alpha_equal(f, rename_to_first(f, 10))

    def test_rejects_open_beyond_v0(self):
        with pytest.raises(ValueError):
            rename_to_first(Eq(Var(1), Zero()), 9)

    def test_preserves_length(self):
        f = Forall(2, Exists(3, Eq(Var(2), Var(3))))
        assert length(rename_to_first(f, 19)) == length(f)


class TestClassify:
    def test_atoms_are_bounded(self):
        assert classify(Eq(Var(0), Zero())) is FormulaClass.DELTA0

    def test_bounded_quantifiers_stay_bounded(self):
        f = BForall(0, numeral(5), BExists(1, Var(0), Eq(Var(1), Zero())))
        assert classify(f) is FormulaClass.DELTA0

    def test_existential_prefix_is_sigma1(self):
        assert classify(Exists(0, Eq(Var(0), Zero()))) is FormulaClass.SIGMA1

    def test_sigma_closure_includes_conjunction(self):
        f = And(Exists(0, Eq(Var(0), Zero())), Eq(Zero(), Zero()))
        assert classify(f) in (FormulaClass.SIGMA, FormulaClass.SIGMA1)

    def test_negated_existential_is_other(self):
        assert classify(Not(Exists(0, Eq(Var(0), Zero())))) is FormulaClass.OTHER


class TestJson:
    @settings(max_examples=80, deadline=None)
    @given(gen.formulas())
    def test_round_trip(self, f):
        assert render(from_json_obj(to_json_obj(f))) == render(f)

    def test_tagged_shape(self):
        obj = to_json_obj(Mul(Var(2), Zero()))
        assert obj == {"k": "mul", "l": {"k": "var", "i": 2}, "r": {"k": "zero"}}


class TestMisc:
    def test_free_vars_sees_through_binders(self):
        f = Forall(1, Eq(Var(1), Var(0)))
        assert free_vars(f) == {0}

    def test_bounded_quantifier_bound_is_free_context(self):
        f = BForall(1, Var(2), Eq(Var(1), Zero()))
        assert free_vars(f) == {2}

    def test_is_closed(self):
        assert is_closed(numeral(5))
        assert not is_closed(Var(0))

    def test_numeral_value(self):
        assert numeral_value(numeral(9)) == 9
        assert numeral_value(Add(Zero(), Zero())) is None

    def test_all_var_indices_includes_binders(self):
        f = Forall(2, Eq(Var(2), Var(0)))
        assert all_var_indices(f) == {0, 2}
