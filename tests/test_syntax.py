"""Kernel invariants: lengths, equality, substitution, renaming."""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies as gen
from oracles import from_json_obj
from berrykit import syntax as syntax_module
from berrykit.berry import enumerate_formulas
from berrykit.cli import to_json_obj
from berrykit.parser import parse_formula
from berrykit.semantics import FormulaClass, classify
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
    all_var_indices,
    alpha_equal,
    expand_bounded,
    free_vars,
    is_closed,
    length,
    numeral,
    numeral_value,
    render,
    rename_to_first,
    substitute,
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
        assert e is Exists(1, And(Le(Succ(Var(1)), Var(0)), Le(Var(1), Zero())))

    def test_bound_may_not_mention_binder(self):
        with pytest.raises(ValueError):
            BForall(0, Var(0), Eq(Var(0), Zero()))

    def test_sugar_equal_to_expansion(self):
        f = BForall(2, Var(0), Eq(Var(2), Var(1)))
        assert expand_bounded(expand_bounded(f)) is expand_bounded(f)
        assert render(f) == render(expand_bounded(f))
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


def _fields(x) -> list:
    return [getattr(x, name) for name in x.__match_args__]


def _copy_changing_leaf(e, k: int):
    """A copy of e rebuilt node by node whose k-th Zero/Var leaf, in
    pre-order, is replaced by a different leaf; k < 0 changes nothing.
    Returns the copy and the number of leaves."""
    seen = [0]

    def go(x):
        if type(x) is Zero or type(x) is Var:
            seen[0] += 1
            if seen[0] - 1 == k:
                return Var(0) if type(x) is Zero else Var(x.index + 1)
            return Zero() if type(x) is Zero else Var(x.index)
        return type(x)(*(v if type(v) is int else go(v) for v in _fields(x)))

    return go(e), seen[0]


def _nest(n: int, f=None):
    f = Eq(Zero(), Zero()) if f is None else f
    for _ in range(n):
        f = Not(f)
    return f


class TestExprEqual:
    """Equality modulo expansion is the identity of the expansions, and
    equal trees built apart are one object: == and hash are identity."""

    def test_deep_chains_compare_without_recursion(self):
        a, b = _fresh_chain(60_000, Zero()), _fresh_chain(60_000, Zero())
        assert a is b and a == b and hash(a) == hash(b)
        assert a is numeral(60_000)
        assert a != Succ(a) and expand_bounded(a) is not expand_bounded(Succ(a))
        assert render(a).count("s") == 60_000

    def test_distinguishes_structure(self):
        assert Eq(Zero(), Zero()) is not Le(Zero(), Zero())
        assert Var(0) != Var(1)

    @settings(max_examples=60, deadline=None)
    @given(gen.formulas())
    def test_reflexive(self, f):
        # two trees built independently are the same object
        assert _copy_changing_leaf(f, -1)[0] is f
        assert copy.deepcopy(f) is f and pickle.loads(pickle.dumps(f)) is f
        assert expand_bounded(f) is expand_bounded(f)


class TestRenderedEqualityIsStructural:
    """The kernel compares formulas by the identity of their expansions
    where it once compared rendered strings; the two must agree."""

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
        assert (render(a) == render(b)) == (expand_bounded(a) is expand_bounded(b))
        if how == "copy":
            assert a is b
        if how == "leaf":
            assert a is not b


def _copy_changing_binder(e, k: int):
    """A copy of the expanded formula e rebuilt node by node whose k-th
    quantifier binder, in pre-order, is renumbered; returns the copy and the
    binder count."""
    seen = [0]

    def go(x):
        if type(x) is Zero or type(x) is Var:
            return type(x)(*_fields(x))
        fields = _fields(x)
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
    """An expression's structure key is its interned expansion: two keys
    are one object exactly when the expressions render alike."""

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
                assert b is f
            case "expanded":
                b = expanded
            case "leaf":
                b = _copy_changing_leaf(expanded, k % leaves)[0]
            case "binder":
                _, binders = _copy_changing_binder(expanded, -1)
                b = _copy_changing_binder(expanded, k % binders)[0] if binders else f
            case _:
                b = g
        same = expand_bounded(f) is expand_bounded(b)
        assert same == (render(f) == render(b))
        if how in ("same", "copy", "expanded"):
            assert same
        if how == "leaf" or (how == "binder" and b is not f):
            assert not same

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=3), gen.terms(3), gen.formulas(3))
    def test_bounded_quantifiers_key_as_their_expansion(self, v, t, body):
        if v in all_var_indices(t):
            return
        key = expand_bounded
        guard = Le(Succ(Var(v)), t)
        forall, exists = BForall(v, t, body), BExists(v, t, body)
        assert key(forall) is key(Forall(v, Imp(guard, body)))
        assert key(exists) is key(Exists(v, And(guard, body)))
        assert key(forall) is not key(exists)
        assert key(forall) is not key(Forall(v, And(guard, body)))
        assert key(exists) is not key(Exists(v, Imp(guard, body)))
        wrapped = Not(And(forall, exists))
        assert key(wrapped) is key(expand_bounded(wrapped))
        assert key(wrapped) is Not(And(key(forall), key(exists)))

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=40))
    def test_variables(self, i, j):
        assert (Var(i) is Var(j)) == (i == j)
        assert (Forall(i, Eq(Var(0), Zero())) is Forall(j, Eq(Var(0), Zero()))) == (i == j)

    @settings(max_examples=100, deadline=None)
    @given(gen.terms(3), gen.terms(3))
    def test_successor_around_sums(self, a, b):
        shapes = [
            Succ(Add(a, b)), Add(Succ(a), b), Add(a, Succ(b)),
            Succ(Mul(a, b)), Mul(Succ(a), b), Succ(Succ(Add(a, b))),
        ]
        for x in shapes:
            for y in shapes:
                assert (expand_bounded(x) is expand_bounded(y)) == (render(x) == render(y))

    def test_deep_successor_chain(self):
        a = _fresh_chain(50_000, Zero())
        assert a is _fresh_chain(50_000, Zero()) and a == _fresh_chain(50_000, Zero())
        assert hash(a) == hash(_fresh_chain(50_000, Zero()))
        assert expand_bounded(a) is a
        assert a is not Succ(a)
        assert a is not _fresh_chain(50_000, Var(0))
        assert render(a) == "s " * 50_000 + "0"
        # every bottom-up question and both rebuilds, on an atom over it
        f = Eq(numeral(50_000), Var(0))
        assert free_vars(f) == {0} and not is_closed(f) and is_closed(f.left)
        assert all_var_indices(f) == {0}
        assert length(f) == 50_003 and length(f.left) == 50_001
        assert classify(f) is FormulaClass.DELTA0
        assert substitute(f, 0, Zero()) is Eq(f.left, Zero())
        assert substitute(Eq(_fresh_chain(50_000, Var(0)), Zero()), 0, Zero()) is Eq(
            numeral(50_000), Zero())
        assert rename_to_first(f, 50_004) is f
        assert render(f) == "s " * 50_000 + "0 = v0"

    def test_deep_negation_nest(self):
        a = _nest(50_000)
        assert a is _nest(50_000) and a == _nest(50_000) and hash(a) == hash(_nest(50_000))
        assert a is not _nest(50_001)
        assert expand_bounded(a) is a
        assert render(a).count("~") == 50_000
        # every bottom-up question and both rebuilds, on a nest over v0
        f = _nest(50_000, Eq(Var(0), Zero()))
        assert free_vars(f) == {0} and not is_closed(f) and is_closed(a)
        assert all_var_indices(f) == {0}
        assert length(f) == 3 + 3 * 50_000
        assert classify(f) is FormulaClass.DELTA0
        assert substitute(f, 0, Zero()) is a
        assert substitute(f, 1, Zero()) is f
        assert rename_to_first(f, 200_000) is f
        renamed = rename_to_first(_nest(50_000, Exists(7, Eq(Var(7), Var(0)))), 200_000)
        assert renamed is _nest(50_000, Exists(1, Eq(Var(1), Var(0))))
        assert render(f).count("~") == 50_000

    def test_dead_nodes_leave_the_table(self):
        # the table holds nodes weakly: a dropped tree leaves it, and an
        # equal tree built later is a fresh, correct node
        table = syntax_module._TABLE
        gc.collect()
        before = len(table)
        f = Eq(_fresh_chain(3, Var(10_007)), Zero())
        refs = [weakref.ref(f), weakref.ref(f.left), weakref.ref(f.left.arg.arg.arg)]
        assert len(table) == before + 5  # Var, three Succ, Eq
        del f
        gc.collect()
        assert [r() for r in refs] == [None, None, None]
        assert len(table) == before
        assert render(Eq(_fresh_chain(3, Var(10_007)), Zero())) == "s s s v10007 = 0"

    def test_stale_removal_callback_keeps_the_live_entry(self):
        # a dead node's callback that runs late (as the cyclic collector's
        # can), after an equal node was rebuilt, leaves the new entry alone
        table = syntax_module._TABLE
        body = Eq(Var(10_009), Zero())
        key = (Not, body)
        f = Not(body)
        stale = table[key]
        callback = stale.__callback__  # a dead ref forgets its callback
        del f
        gc.collect()
        assert key not in table and stale() is None
        g = Not(body)
        callback(stale)
        assert table[key]() is g and Not(body) is g

    def test_copy_and_pickle_return_the_interned_node(self):
        f = BForall(1, Var(10_011), Eq(Var(1), Var(0)))
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert twin is f and expand_bounded(twin) is expand_bounded(f)

    @pytest.mark.parametrize("ctor, args", [
        (Not, ("x",)), (And, (Eq(Zero(), Zero()), None)), (Succ, (3.5,)),
        (Not, (object,)), (BForall, (1, Zero(), [1])),
    ], ids=["x", "bad1", "bad2", "bad3", "bad4"])
    def test_rejects_non_ast_like_render(self, ctor, args):
        # a foreign child is refused when the node is built, so no finished
        # tree holds one
        with pytest.raises(TypeError) as rendered:
            render(args[-1])
        with pytest.raises(TypeError) as built:
            ctor(*args)
        assert str(built.value) == str(rendered.value)
        assert str(built.value).startswith("not a term or formula node: ")


# valid fields for each node type, with a child that has an expansion of
# its own wherever a formula may go
_SUGARED = BExists(1, Var(0), Eq(Var(1), Zero()))
_SUM = Add(Var(0), Succ(Zero()))
_SAMPLE_FIELDS = {
    Zero: (), Var: (3,), Succ: (_SUM,), Add: (_SUM, Var(1)), Mul: (Var(1), _SUM),
    Eq: (_SUM, Zero()), Le: (Zero(), _SUM), Not: (_SUGARED,),
    And: (_SUGARED, Eq(Zero(), Zero())), Or: (Eq(Zero(), Zero()), _SUGARED),
    Imp: (_SUGARED, _SUGARED), Iff: (Not(_SUGARED), _SUGARED),
    Forall: (2, _SUGARED), Exists: (0, _SUGARED),
    BForall: (2, Var(0), _SUGARED), BExists: (3, _SUM, _SUGARED),
}
_FOREIGN = ["x", None, 3.5, object, [1]]


def _rebuilt(e):
    """e rebuilt bottom-up from its fields through the public constructors."""
    built = {}
    for x in reversed(_nodes(e)):  # every node comes after its children
        built[x] = type(x)(*(v if type(v) is int else built[v] for v in _fields(x)))
    return built[e]


@pytest.mark.parametrize("cls", list(_SAMPLE_FIELDS), ids=lambda cls: cls.__name__)
class TestConstructors:
    """Every node type's constructor keeps one contract, whichever path
    builds it."""

    def test_equal_fields_give_one_node(self, cls):
        fields = _SAMPLE_FIELDS[cls]
        node = cls(*fields)
        assert type(node) is cls and _fields(node) == list(fields)
        assert cls(*fields) is node
        assert from_json_obj(to_json_obj(node)) is node  # every level rebuilt

    def test_foreign_child_is_named_as_render_names_it(self, cls):
        fields = _SAMPLE_FIELDS[cls]
        children = range(len(fields) - len(syntax_module.CHILDREN[cls]), len(fields))
        for at in children:
            for bad in _FOREIGN:
                with pytest.raises(TypeError) as rendered:
                    render(bad)
                with pytest.raises(TypeError) as built:
                    cls(*fields[:at], bad, *fields[at + 1:])
                assert str(built.value) == str(rendered.value)
                assert str(built.value).startswith("not a term or formula node: ")

    def test_wrong_field_count(self, cls):
        fields = _SAMPLE_FIELDS[cls]
        n = len(fields)
        for args in (fields + (Zero(),), fields + (Zero(), 1), fields[:-1], ()):
            if len(args) != n:
                with pytest.raises(TypeError, match=f"^{cls.__name__} takes {n} fields, got {len(args)}$"):
                    cls(*args)

    def test_expansion_is_built_from_the_expanded_children(self, cls):
        fields = _SAMPLE_FIELDS[cls]
        plain = [v if type(v) is int else expand_bounded(v) for v in fields]
        assert expand_bounded(cls(*fields)) is expand_bounded(cls(*plain))


class TestRebuilding:
    @settings(max_examples=150, deadline=None)
    @given(gen.formulas())
    def test_fields_rebuild_the_identical_node(self, f):
        assert _rebuilt(f) is f
        e = expand_bounded(f)
        assert not any(type(x) in (BForall, BExists) for x in _nodes(e))
        assert expand_bounded(e) is e and _rebuilt(e) is e


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

    def test_bound_counts_as_body_when_renaming(self):
        # a renamed bounded binder avoids its bound's variables, as its
        # expansion's binder does; the one-variable-at-a-time reference
        # picks v1 here and cannot build the node
        f = BForall(0, Var(1), Eq(Var(0), Var(2)))
        assert substitute(f, 2, Var(0)) is BForall(3, Var(1), Eq(Var(3), Var(0)))
        with pytest.raises(ValueError):
            oracles.substitute(f, 2, Var(0))
        # a replaced variable free only in the bound still renames the binder
        g = BExists(0, Var(1), Eq(Var(0), Var(0)))
        assert substitute(g, 1, Var(0)) is BExists(2, Var(0), Eq(Var(2), Var(2)))
        for h, i in ((f, 2), (g, 1)):
            assert oracles.alpha_equal(substitute(h, i, Var(0)),
                                       oracles.substitute(expand_bounded(h), i, Var(0)))


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

    @pytest.mark.parametrize("text, want", [
        ("( A v2 ) ( ( A v1 ) ( v1 + v2 = 0 ) )", "( A v1 ) ( ( A v2 ) ( v2 + v1 = 0 ) )"),
        ("( A v2 ) ( ( E v1 ) ( v2 * v1 <= s v1 ) )",
         "( A v1 ) ( ( E v2 ) ( v1 * v2 <= s v2 ) )"),
    ], ids=["swap", "swap-under-exists"])
    def test_swapped_binders_keep_their_meaning(self, text, want):
        # the renaming is one simultaneous map: two binders trading indices
        # must not collapse into one variable
        f = parse_formula(text)
        r = rename_to_first(f, 30)
        assert render(r) == want
        assert alpha_equal(f, r) and rename_to_first(r, 30) is r

    @settings(max_examples=150, deadline=None)
    @given(gen.formulas(), st.integers(min_value=1, max_value=20))
    def test_renaming_is_a_meaning_preserving_projection(self, f, extra):
        f = _close_beyond_v0(f)
        j = length(f) + extra
        r = rename_to_first(f, j)
        assert alpha_equal(f, r)
        assert rename_to_first(r, j) is r


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

    def test_every_short_formula_classifies_as_the_reference_does(self):
        formulas = list(enumerate_formulas(8, 8))
        assert len(formulas) == 912
        for f in formulas:
            assert classify(f) is oracles.classify(f)


class TestAgainstReference:
    """The fold and the rebuild give what one walker per question gives
    (`tests/oracles.py`), node for node."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(gen.formulas(), gen.terms()))
    def test_bottom_up_questions(self, e):
        assert free_vars(e) == oracles.free_vars(e)
        assert free_vars(e) is free_vars(e)
        assert is_closed(e) == (not oracles.free_vars(e))
        assert all_var_indices(e) == oracles.all_var_indices(e)
        reference = list(oracles.render_reference(e))
        assert render(e) == " ".join(reference) and tokens(e) == reference
        assert length(e) == len(reference)
        assert classify(e) is oracles.classify(e)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(gen.formulas(), gen.terms()), st.randoms(use_true_random=False))
    def test_text_through_a_shared_memo(self, e, rng):
        # a memo shared by calls on e's nodes in any order: ropes left by
        # one call are joined by a later one
        nodes = list(dict.fromkeys(_nodes(e)))
        rng.shuffle(nodes)
        memo = {}
        for x in nodes + [e] + nodes:
            assert render(x, memo) == " ".join(oracles.render_reference(x))

    def test_text_of_the_enumeration(self):
        formulas = list(enumerate_formulas(10, 10))
        assert len(formulas) == 5_596
        memo = {}
        for f in formulas:
            want = " ".join(oracles.render_reference(f))
            assert render(f) == want and render(f, memo) == want

    def test_text_of_deep_inputs(self):
        atom = Eq(Zero(), Zero())
        chain = atom
        for _ in range(50_000):
            chain = And(chain, atom)
        for e in (_nest(50_000), chain, numeral(50_000)):
            assert render(e) == " ".join(oracles.render_reference(e))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(gen.formulas(), gen.terms()), st.integers(min_value=0, max_value=3),
           gen.terms(3))
    def test_substitute(self, e, i, repl):
        # replacements over v0..v3 make binders capture, so renaming runs
        got = substitute(e, i, repl)
        try:
            want = oracles.substitute(e, i, repl)
        except ValueError:
            # the reference cannot build a renamed bounded binder its bound
            # mentions; the expansion has no such binder
            assert any(type(x) in (BForall, BExists) for x in _nodes(e))
            want = oracles.substitute(expand_bounded(e), i, repl)
            assert oracles.alpha_equal(got, want)
            return
        assert got is want

    @settings(max_examples=300, deadline=None)
    @given(gen.formulas(), gen.formulas(), st.sampled_from(["binder", "renamed", "other"]),
           st.integers(min_value=0, max_value=10_000))
    def test_alpha_equal(self, f, g, how, k):
        # a renumbered binder may or may not capture; a canonical renaming
        # never changes the meaning
        if how == "binder":
            _, binders = _copy_changing_binder(expand_bounded(f), -1)
            g = _copy_changing_binder(expand_bounded(f), k % binders)[0] if binders else f
        elif how == "renamed":
            f = _close_beyond_v0(f)
            g = rename_to_first(f, length(f) + 1)
        assert alpha_equal(f, g) == oracles.alpha_equal(f, g)
        assert alpha_equal(g, f) == alpha_equal(f, g)
        if how == "renamed":
            assert alpha_equal(f, g)

    @settings(max_examples=200, deadline=None)
    @given(gen.formulas(), st.integers(min_value=1, max_value=20))
    def test_rename_to_first(self, f, extra):
        f = _close_beyond_v0(f)
        j = length(f) + extra
        assert rename_to_first(f, j) is oracles.rename_to_first(f, j)


def _close_beyond_v0(f):
    """f under a quantifier for each of its free variables but v0."""
    for v in sorted(free_vars(f) - {0}):
        f = Forall(v, f) if v % 2 else Exists(v, f)
    return f


def _nodes(e) -> list:
    out, stack = [], [e]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(v for v in _fields(x) if type(v) is not int)
    return out


class TestJson:
    @settings(max_examples=80, deadline=None)
    @given(gen.formulas())
    def test_round_trip(self, f):
        assert render(from_json_obj(to_json_obj(f))) == render(f)

    def test_tagged_shape(self):
        obj = to_json_obj(Mul(Var(2), Zero()))
        assert obj == {"k": "mul", "l": {"k": "var", "i": 2}, "r": {"k": "zero"}}

    def test_deep_round_trip(self):
        for e in (numeral(50_000), _nest(5_000), Eq(_fresh_chain(50_000, Var(3)), Zero())):
            assert from_json_obj(to_json_obj(e)) is e


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
