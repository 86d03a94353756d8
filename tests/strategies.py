"""Shared generators for the test suite.

Two families: hypothesis strategies for property tests, and a plain
seeded random builder for the bulk round-trip counts, where hypothesis
example management would only slow things down.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

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
    numeral,
)

_VARS = st.integers(min_value=0, max_value=3)


def terms(max_leaves: int = 6) -> st.SearchStrategy:
    return st.recursive(
        st.one_of(
            st.builds(Zero),
            st.builds(Var, _VARS),
            st.builds(numeral, st.integers(min_value=0, max_value=6)),
        ),
        lambda inner: st.one_of(
            st.builds(Succ, inner),
            st.builds(Add, inner, inner),
            st.builds(Mul, inner, inner),
        ),
        max_leaves=max_leaves,
    )


def atoms(max_leaves: int = 4) -> st.SearchStrategy:
    t = terms(max_leaves)
    return st.one_of(st.builds(Eq, t, t), st.builds(Le, t, t))


def formulas(max_leaves: int = 5) -> st.SearchStrategy:
    t = terms(3)

    def bounded(ctor, inner):
        # the constructor rejects a bound mentioning the binder, so the
        # triple is filtered before building
        return (
            st.tuples(_VARS, t, inner)
            .filter(_bound_ok)
            .map(lambda triple: ctor(*triple))
        )

    return st.recursive(
        atoms(3),
        lambda inner: st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Imp, inner, inner),
            st.builds(Iff, inner, inner),
            st.builds(Forall, _VARS, inner),
            st.builds(Exists, _VARS, inner),
            bounded(BForall, inner),
            bounded(BExists, inner),
        ),
        max_leaves=max_leaves,
    )


def binder_formulas(max_leaves: int = 12) -> st.SearchStrategy:
    """Formulas whose only quantifiers are unbounded, over indices 0 to 3,
    binders nested several deep: mostly longer than the enumeration reaches."""
    return st.recursive(
        atoms(2),
        lambda inner: st.one_of(
            st.builds(Forall, _VARS, inner),
            st.builds(Exists, _VARS, inner),
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Imp, inner, inner),
        ),
        max_leaves=max_leaves,
    )


def _bound_ok(triple) -> bool:
    from berrykit.syntax import all_var_indices

    var, bound, _ = triple
    return var not in all_var_indices(bound)


def closed_delta0(max_leaves: int = 4) -> st.SearchStrategy:
    """Sentences the exact evaluator must decide."""
    t = st.builds(numeral, st.integers(min_value=0, max_value=5))
    closed_terms = st.recursive(
        t,
        lambda inner: st.one_of(
            st.builds(Succ, inner),
            st.builds(Add, inner, inner),
            st.builds(Mul, inner, inner),
        ),
        max_leaves=3,
    )
    closed_atoms = st.one_of(
        st.builds(Eq, closed_terms, closed_terms),
        st.builds(Le, closed_terms, closed_terms),
    )

    def bounded(inner):
        # a bound with only v-free terms; the binder may appear in the body
        return st.one_of(
            st.builds(Not, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Imp, inner, inner),
            st.builds(Iff, inner, inner),
        )

    base = st.recursive(closed_atoms, bounded, max_leaves=max_leaves)
    open_atoms = st.one_of(
        st.builds(Eq, st.builds(Var, st.just(0)), closed_terms),
        st.builds(Le, st.builds(Var, st.just(0)), closed_terms),
        st.builds(
            Eq,
            st.builds(Mul, st.builds(Var, st.just(0)), st.builds(Var, st.just(0))),
            closed_terms,
        ),
    )
    body = st.one_of(open_atoms, st.builds(Not, open_atoms))
    quantified = st.one_of(
        st.builds(BForall, st.just(0), closed_terms, body),
        st.builds(BExists, st.just(0), closed_terms, body),
    )
    return st.one_of(base, quantified, st.builds(And, base, quantified))


# ------------------------------------------------------- seeded bulk builder

_RAND_TOKENS = ("eq", "le", "not", "and", "or", "imp", "iff", "forall", "exists")


def random_term(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Zero(), Var(rng.randrange(4)), numeral(rng.randrange(5))])
    match rng.randrange(3):
        case 0:
            return Succ(random_term(rng, depth - 1))
        case 1:
            return Add(random_term(rng, depth - 1), random_term(rng, depth - 1))
    return Mul(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_closed_term(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        return numeral(rng.randrange(5))
    match rng.randrange(3):
        case 0:
            return Succ(random_closed_term(rng, depth - 1))
        case 1:
            return Add(random_closed_term(rng, depth - 1), random_closed_term(rng, depth - 1))
    return Mul(random_closed_term(rng, depth - 1), random_closed_term(rng, depth - 1))


def _open_atom(rng: random.Random):
    ct = random_closed_term(rng, 1)
    match rng.randrange(5):
        case 0:
            atom = Eq(Var(0), ct)
        case 1:
            atom = Le(Var(0), ct)
        case 2:
            atom = Le(ct, Var(0))
        case 3:
            atom = Eq(Add(Var(0), random_closed_term(rng, 1)), ct)
        case _:
            atom = Eq(Mul(Var(0), Var(0)), ct)
    return Not(atom) if rng.random() < 0.25 else atom


def _open_body(rng: random.Random, depth: int = 1):
    if depth == 0 or rng.random() < 0.5:
        return _open_atom(rng)
    match rng.randrange(3):
        case 0:
            return And(_open_body(rng, depth - 1), _open_body(rng, depth - 1))
        case 1:
            return Or(_open_body(rng, depth - 1), _open_body(rng, depth - 1))
    return Imp(_open_body(rng, depth - 1), _open_body(rng, depth - 1))


def random_closed_delta0(rng: random.Random, depth: int = 2):
    """Closed bounded sentence: every quantifier carries a numeral bound."""
    if depth == 0 or rng.random() < 0.35:
        l, r = random_closed_term(rng, 2), random_closed_term(rng, 2)
        return Eq(l, r) if rng.random() < 0.5 else Le(l, r)
    match rng.randrange(6):
        case 0:
            return Not(random_closed_delta0(rng, depth - 1))
        case 1:
            return And(random_closed_delta0(rng, depth - 1), random_closed_delta0(rng, depth - 1))
        case 2:
            return Or(random_closed_delta0(rng, depth - 1), random_closed_delta0(rng, depth - 1))
        case 3:
            return Imp(random_closed_delta0(rng, depth - 1), random_closed_delta0(rng, depth - 1))
        case 4:
            return BForall(0, random_closed_term(rng, 1), _open_body(rng))
    return BExists(0, random_closed_term(rng, 1), _open_body(rng))


def random_sentence(rng: random.Random, depth: int = 2):
    """Closed sentence for the budgeted evaluator: bounded core plus
    occasional unbounded quantifiers."""
    match rng.randrange(4):
        case 0 | 1:
            return random_closed_delta0(rng, depth)
        case 2:
            q = Exists(0, _open_body(rng))
        case _:
            q = Forall(0, _open_body(rng))
    return Not(q) if rng.random() < 0.3 else q


def random_formula(rng: random.Random, depth: int = 3):
    if depth == 0 or rng.random() < 0.3:
        l, r = random_term(rng, 2), random_term(rng, 2)
        return Eq(l, r) if rng.random() < 0.5 else Le(l, r)
    match rng.choice(_RAND_TOKENS):
        case "eq":
            return Eq(random_term(rng, 2), random_term(rng, 2))
        case "le":
            return Le(random_term(rng, 2), random_term(rng, 2))
        case "not":
            return Not(random_formula(rng, depth - 1))
        case "and":
            return And(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        case "or":
            return Or(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        case "imp":
            return Imp(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        case "iff":
            return Iff(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        case "forall":
            return Forall(rng.randrange(4), random_formula(rng, depth - 1))
    return Exists(rng.randrange(4), random_formula(rng, depth - 1))
