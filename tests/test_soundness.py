"""Soundness oracle for the kernel: no derivation `check` accepts concludes
something false.

`check` validates steps in order, so when it rejects step i it has accepted
the derivation made of steps 0..i-1, and every accepted prefix concludes
its last step.  The property: no step of an accepted prefix has a universal
closure that `oracles.closure_refuted` shows false.  Derivations come from
`names_provable`, `prove_sigma`, `refute_delta0` and the `LemmaBank`, and
from mutants of them that change a premise index, a numeral, a schema name,
a `gen` variable or a quantifier's capture.  A changed subformula is
changed in every later step too, so a mutant stays consistent past the
step it alters: a kernel that wrongly accepts that step then derives from
it, and a false conclusion shows up downstream.  Three hand-built
derivations attack one side condition each (`ex_shift`, `all_shift`, and
`imp_k`'s repeated metavariable), so a kernel missing one is caught on
every run, not only when a random mutant happens to exploit it.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from berrykit import tactics as T
from berrykit.generators import (
    LemmaBank,
    names_provable,
    prove_sigma,
    refute_delta0,
)
from berrykit.proofs import (
    SCHEMA_NAMES,
    Derivation,
    ProofCheckError,
    Step,
    check,
    robinson_arithmetic,
)
from berrykit.syntax import (
    Add,
    BExists,
    BForall,
    Eq,
    Exists,
    Forall,
    Imp,
    Le,
    Mul,
    Not,
    Succ,
    Var,
    Zero,
    numeral,
    numeral_value,
    render,
)
from oracles import closure_refuted

Q = robinson_arithmetic()


@cache
def _pool() -> tuple[Derivation, ...]:
    bank = LemmaBank()
    return (
        names_provable(Le(Var(0), Zero()), 0, 32, bank).derivation,
        names_provable(Eq(Var(0), numeral(1)), 2, 32, bank).derivation,
        names_provable(BExists(1, numeral(2), Eq(Var(0), Add(Var(1), Var(1)))), 2, 32,
                       bank).derivation,
        prove_sigma(Exists(0, Eq(Add(Var(0), Var(0)), numeral(4))), 16, bank),
        prove_sigma(BForall(0, numeral(2), Le(Var(0), numeral(1))), 16, bank),
        refute_delta0(Eq(Mul(numeral(2), numeral(2)), numeral(3)), 16, bank),
        T.compile_proof(bank.ne(1, 3)),
        T.compile_proof(bank.le(1, 3)),
        T.compile_proof(bank.tot(1)),
    )


def _nodes(f) -> list:
    """The distinct nodes of f, in pre-order."""
    seen: dict = {}
    stack = [f]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen[x] = None
            fields = [getattr(x, name) for name in x.__match_args__]
            stack.extend(reversed([v for v in fields if type(v) is not int]))
    return list(seen)


def _numeral_paths(f) -> list[list]:
    """Root-to-node paths to every numeral occurrence in f that is not
    inside a larger numeral."""
    out = []
    stack = [[f]]
    while stack:
        path = stack.pop()
        x = path[-1]
        if numeral_value(x) is not None:
            out.append(path)
            continue
        fields = [getattr(x, name) for name in x.__match_args__]
        stack.extend(path + [v] for v in reversed(fields) if type(v) is not int)
    return out


def _replace(f, old, new, memo: dict):
    """f with every occurrence of the node old (one object, since nodes are
    interned) replaced by new."""
    if f is old:
        return new
    got = memo.get(f)
    if got is None:
        fields = [getattr(f, name) for name in f.__match_args__]
        kids = [v if type(v) is int else _replace(v, old, new, memo) for v in fields]
        got = memo[f] = type(f)(*kids)
    return got


def _rebind(f, v: int, w: int, memo: dict):
    """f with every quantifier binding v made to bind w; bodies unchanged."""
    got = memo.get(f)
    if got is None:
        fields = [getattr(f, name) for name in f.__match_args__]
        kids = [x if type(x) is int else _rebind(x, v, w, memo) for x in fields]
        if type(f) in (Forall, Exists) and f.var == v:
            kids[0] = w
        got = memo[f] = type(f)(*kids)
    return got


def _rewrite(steps: list[Step], k: int, change) -> list[Step]:
    """Steps k onwards with `change` applied to every formula; a gen step
    whose formula became a universal over another variable follows it."""
    out = steps[:k]
    for step in steps[k:]:
        f = change(step.formula)
        if step.rule == "gen" and type(f) is Forall and f is not step.formula:
            step = replace(step, var=f.var)
        out.append(replace(step, formula=f))
    return out


def _first(steps: list[Step], k: int, ok) -> int | None:
    """The first index from k on, wrapping round, whose step passes ok."""
    for i in list(range(k, len(steps))) + list(range(k)):
        if ok(steps[i]):
            return i
    return None


@st.composite
def _mutants(draw) -> tuple[Derivation, list[Step]]:
    original = draw(st.sampled_from(_pool()))
    steps = list(original.steps)
    k = draw(st.integers(min_value=0, max_value=len(steps) - 1))
    op = draw(st.sampled_from(("premise", "numeral", "schema", "gen", "capture")))
    w = draw(st.integers(min_value=0, max_value=3))
    pick = draw(st.integers(min_value=0, max_value=10_000))
    if op == "premise":
        k = _first(steps, k, lambda s: s.premises)
        step = steps[k]
        if step.rule == "mp" and draw(st.booleans()):
            # aim the implication at another one and conclude its consequent
            imps = [i for i in range(k) if type(steps[i].formula) is Imp]
            i = imps[pick % len(imps)]
            steps[k] = replace(step, premises=(i, step.premises[1]),
                               formula=steps[i].formula.right)
        else:
            prem = list(step.premises)
            prem[pick % len(prem)] = draw(st.sampled_from((-1, k, k + 1, pick % max(k, 1))))
            steps[k] = replace(step, premises=tuple(prem))
        return original, steps
    if op == "numeral":
        kind = draw(st.sampled_from(("axiom", "schema", "all_inst", "ex_intro", "mp", "gen")))
        k = _first(steps, k, lambda s: kind in (s.rule, s.name) and _numeral_paths(s.formula))
        if k is None:
            return original, steps
        paths = _numeral_paths(steps[k].formula)
        path = paths[pick % len(paths)]
        value = numeral_value(path[-1])
        m = numeral(value + 1 if w % 2 or value == 0 else value - 1)
        # the changed unit: a node on the path, with this numeral occurrence
        # changed in it; every occurrence of the unit changes from here on
        depth = draw(st.integers(min_value=0, max_value=len(path) - 2))
        unit, changed = path[depth], m
        for parent, child in zip(reversed(path[depth:-1]), reversed(path[depth + 1:])):
            fields = [getattr(parent, name) for name in parent.__match_args__]
            at = max(i for i, x in enumerate(fields) if x is child)
            fields[at] = changed
            changed = type(parent)(*fields)
        memo: dict = {}
        return original, _rewrite(steps, k, lambda f: _replace(f, unit, changed, memo))
    if op == "schema":
        k = _first(steps, k, lambda s: s.rule == "schema")
        steps[k] = replace(steps[k], name=SCHEMA_NAMES[pick % len(SCHEMA_NAMES)])
        return original, steps
    if op == "gen":
        k = _first(steps, k, lambda s: s.rule == "gen")
        if k is None:
            return original, steps
        step = steps[k]
        if draw(st.booleans()):
            steps[k] = replace(step, var=w)
            return original, steps
        # rebind the generalized variable consistently from here on
        old, new = step.formula, Forall(w, step.formula.body)
        memo = {}
        return original, _rewrite(steps, k, lambda f: _replace(f, old, new, memo))

    def binders(s: Step) -> list:
        return [x for x in _nodes(s.formula) if type(x) in (Forall, Exists)]

    k = _first(steps, k, binders)
    if k is None:
        return original, steps
    q = binders(steps[k])[pick % len(binders(steps[k]))]
    memo = {}
    if draw(st.booleans()):
        # this one quantifier binds w instead, its body unchanged
        moved = type(q)(w, q.body)
        return original, _rewrite(steps, k, lambda f: _replace(f, q, moved, memo))
    # every quantifier binding the same variable binds w instead
    return original, _rewrite(steps, k, lambda f: _rebind(f, q.var, w, memo))


def _accepted(steps: list[Step]) -> int:
    """How many leading steps `check` accepts."""
    try:
        check(Derivation(tuple(steps)), Q)
    except ProofCheckError as err:
        return err.index
    return len(steps)


def test_generated_derivations_are_accepted_and_true():
    for d in _pool():
        assert _accepted(list(d.steps)) == len(d)
        for step in d.steps:
            assert not closure_refuted(step.formula), render(step.formula)


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_mutants())
def test_accepted_mutants_conclude_nothing_false(mutant):
    original, steps = mutant
    # the original's steps are judged above; only what a mutant changed is new
    known = {step.formula for step in original.steps}
    for step in steps[:_accepted(steps)]:
        if step.formula not in known:
            assert not closure_refuted(step.formula), render(step.formula)


# --------------------------------------------- attacks on each side condition

def _imp_refl(a) -> list[Step]:
    """Steps 0..4: a -> a, from imp_k and imp_s."""
    aa = Imp(a, a)
    return [
        Step(Imp(a, Imp(aa, a)), "schema", name="imp_k"),
        Step(Imp(Imp(a, Imp(aa, a)), Imp(Imp(a, aa), aa)), "schema", name="imp_s"),
        Step(Imp(Imp(a, aa), aa), "mp", premises=(1, 0)),
        Step(Imp(a, aa), "schema", name="imp_k"),
        Step(aa, "mp", premises=(2, 3)),
    ]


def _ex_shift_attack() -> tuple[list[Step], int]:
    # (E v0)(v0 = 0) -> v0 = 0 by ex_shift, though v0 is free in v0 = 0
    a = Eq(Var(0), Zero())
    some = Exists(0, a)
    return _imp_refl(a) + [
        Step(Forall(0, Imp(a, a)), "gen", premises=(4,), var=0),
        Step(Imp(Forall(0, Imp(a, a)), Imp(some, a)), "schema", name="ex_shift"),
        Step(Imp(some, a), "mp", premises=(6, 5)),
        Step(Imp(Eq(Zero(), Zero()), some), "schema", name="ex_intro"),
        Step(Eq(Zero(), Zero()), "schema", name="eq_refl"),
        Step(some, "mp", premises=(8, 9)),
        Step(a, "mp", premises=(7, 10)),
    ], 6


def _shift_attack(name: str, a, v: int, tail) -> tuple[list[Step], int]:
    """(A v)(a -> a) by gen, then the named shift schema's instance
    (A v)(a -> a) -> tail, the one unsound step, and tail by mp."""
    every = Forall(v, Imp(a, a))
    return _imp_refl(a) + [
        Step(every, "gen", premises=(4,), var=v),
        Step(Imp(every, tail), "schema", name=name),
        Step(tail, "mp", premises=(6, 5)),
    ], 6


_V0_IS_0, _TRUE, _FALSE = Eq(Var(0), Zero()), Eq(Zero(), Zero()), Eq(Zero(), Succ(Zero()))


def _all_shift_attack() -> tuple[list[Step], int]:
    # v0 = 0 -> (A v0) v0 = 0 by all_shift, though v0 is free in v0 = 0
    return _shift_attack("all_shift", _V0_IS_0, 0, Imp(_V0_IS_0, Forall(0, _V0_IS_0)))


def _all_shift_variables_attack() -> tuple[list[Step], int]:
    # the same conclusion from (A v1), which binds nothing in v0 = 0
    return _shift_attack("all_shift", _V0_IS_0, 1, Imp(_V0_IS_0, Forall(0, _V0_IS_0)))


def _all_shift_components_attack() -> tuple[list[Step], int]:
    # 0 = 0 -> (A v1) 0 = s 0 from (A v1)(0 = 0 -> 0 = 0)
    return _shift_attack("all_shift", _TRUE, 1, Imp(_TRUE, Forall(1, _FALSE)))


def _ex_shift_variables_attack() -> tuple[list[Step], int]:
    # (E v0)(v0 = 0) -> v0 = 0 from (A v1), which binds nothing in v0 = 0
    return _shift_attack("ex_shift", _V0_IS_0, 1, Imp(Exists(0, _V0_IS_0), _V0_IS_0))


def _ex_shift_components_attack() -> tuple[list[Step], int]:
    # (E v0)(0 = 0) -> 0 = s 0 from (A v0)(0 = 0 -> 0 = 0)
    return _shift_attack("ex_shift", _TRUE, 0, Imp(Exists(0, _TRUE), _FALSE))


def _imp_k_attack() -> tuple[list[Step], int]:
    # an imp_k instance whose second A is not its first
    true, false = Eq(Zero(), Zero()), Eq(Zero(), Succ(Zero()))
    return [
        Step(true, "schema", name="eq_refl"),
        Step(Imp(true, Imp(true, false)), "schema", name="imp_k"),
        Step(Imp(true, false), "mp", premises=(1, 0)),
        Step(false, "mp", premises=(2, 0)),
    ], 1


@pytest.mark.parametrize("attack", [
    _ex_shift_attack, _all_shift_attack, _imp_k_attack,
    _all_shift_variables_attack, _all_shift_components_attack,
    _ex_shift_variables_attack, _ex_shift_components_attack,
], ids=["ex_shift", "all_shift", "imp_k", "all_shift-variables", "all_shift-components",
        "ex_shift-variables", "ex_shift-components"])
def test_side_condition_attacks_are_rejected(attack):
    # each derivation is sound but for one step, which a kernel missing
    # that step's check would accept; the last step is false
    steps, bad = attack()
    assert closure_refuted(steps[-1].formula), render(steps[-1].formula)
    assert _accepted(steps) == bad
    assert _accepted(steps[:bad]) == bad
    for step in steps[:bad]:
        assert not closure_refuted(step.formula), render(step.formula)


def test_seeded_false_conclusions_are_refuted():
    # the judge itself: false closures are caught, true or unsettled are not
    x = Var(0)
    assert closure_refuted(Eq(Add(x, Zero()), Succ(x)))
    assert closure_refuted(Forall(0, Not(Eq(Succ(x), Succ(Zero())))))
    assert closure_refuted(Imp(Eq(x, numeral(2)), Forall(1, Eq(x, Var(1)))))
    assert not closure_refuted(Forall(0, Eq(Add(x, Zero()), x)))
    assert not closure_refuted(Exists(1, Eq(Var(1), numeral(50))))
    assert not closure_refuted(Imp(Forall(1, Eq(Var(1), Var(1))), Eq(x, x)))
