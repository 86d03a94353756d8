"""Evaluation over the standard naturals.

Two evaluators share the term core.  ``eval_delta0`` is exact and refuses
unbounded quantifiers.  ``eval_budgeted`` handles the full language but may
answer UNKNOWN: unbounded quantifier witnesses are only scanned up to the
budget, and connectives combine verdicts with strong Kleene tables so a
decided answer is always sound.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Literal

from .errors import InputError, NotDelta0Error
from .syntax import (
    Add,
    And,
    BExists,
    BForall,
    Eq,
    Exists,
    Forall,
    Formula,
    Iff,
    Imp,
    Le,
    Mul,
    Not,
    Or,
    Succ,
    Term,
    Var,
    Zero,
    free_vars,
    guarded_exists,
    guarded_forall,
)

Env = dict[int, int]


class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __invert__(self) -> Truth:
        match self:
            case Truth.TRUE:
                return Truth.FALSE
            case Truth.FALSE:
                return Truth.TRUE
            case _:
                return Truth.UNKNOWN


def _of_bool(b: bool) -> Truth:
    return Truth.TRUE if b else Truth.FALSE


def _t_and(a: Truth, b: Truth) -> Truth:
    if Truth.FALSE in (a, b):
        return Truth.FALSE
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return Truth.TRUE


def _t_or(a: Truth, b: Truth) -> Truth:
    if Truth.TRUE in (a, b):
        return Truth.TRUE
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return Truth.FALSE


def _t_iff(a: Truth, b: Truth) -> Truth:
    if Truth.UNKNOWN in (a, b):
        return Truth.UNKNOWN
    return _of_bool(a is b)


def eval_term(t: Term, env: Env | None = None) -> int:
    env = env or {}
    # shunt into an explicit machine so deep successor chains cannot overflow
    out: list[object] = []
    work: list[object] = [t]
    while work:
        node = work.pop()
        if type(node) is str:
            out.append(node)
            continue
        n = 0
        while type(node) is Succ:
            n += 1
            node = node.arg
        if n:
            out.append(("s", n))
        match node:
            case Zero():
                out.append(("n", 0))
            case Var(i):
                if i not in env:
                    raise InputError(f"unbound variable v{i}")
                out.append(("n", env[i]))
            case Add(l, r):
                out.append("+")
                work.append(r)
                work.append(l)
            case Mul(l, r):
                out.append("*")
                work.append(r)
                work.append(l)
            case _:
                raise InputError(f"not a term: {node!r}")
    # out is reverse Polish read back to front
    vstack: list[int] = []
    for item in reversed(out):
        match item:
            case ("n", v):
                vstack.append(v)
            case ("s", n):
                vstack.append(vstack.pop() + n)
            case "+":
                vstack.append(vstack.pop() + vstack.pop())
            case "*":
                vstack.append(vstack.pop() * vstack.pop())
    (result,) = vstack
    return result


def _bounded_range(bound: Term, env: Env) -> range:
    return range(eval_term(bound, env))


def eval_delta0(f: Formula, env: Env | None = None) -> bool:
    """Exact truth value; raises NotDelta0Error on an unbounded quantifier."""
    env = dict(env or {})

    def go(f: Formula, env: Env) -> bool:
        match f:
            case Eq(l, r):
                return eval_term(l, env) == eval_term(r, env)
            case Le(l, r):
                return eval_term(l, env) <= eval_term(r, env)
            case Not(b):
                return not go(b, env)
            case And(l, r):
                return go(l, env) and go(r, env)
            case Or(l, r):
                return go(l, env) or go(r, env)
            case Imp(l, r):
                return (not go(l, env)) or go(r, env)
            case Iff(l, r):
                return go(l, env) is go(r, env)
            case BForall(v, b, body):
                return all(go(body, {**env, v: j}) for j in _bounded_range(b, env))
            case BExists(v, b, body):
                return any(go(body, {**env, v: j}) for j in _bounded_range(b, env))
            case Forall(v, _) | Exists(v, _):
                if (g := guarded_forall(f)) is not None:
                    w, bound, body = g
                    return all(
                        go(body, {**env, w: j}) for j in _bounded_range(bound, env)
                    )
                if (g := guarded_exists(f)) is not None:
                    w, bound, body = g
                    return any(
                        go(body, {**env, w: j}) for j in _bounded_range(bound, env)
                    )
                raise NotDelta0Error(f"unbounded quantifier on v{v}")
        raise InputError(f"not a formula: {f!r}")

    return go(f, env)


def eval_budgeted(f: Formula, budget: int, env: Env | None = None) -> Truth:
    """Three-valued truth with unbounded witness search capped at budget.

    Decided answers are sound for the standard model.  A quantifier whose
    variable does not occur free in its body is evaluated as the body, so
    padding never costs budget.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")
    env = dict(env or {})

    def go(f: Formula, env: Env) -> Truth:
        match f:
            case Eq() | Le():
                return _of_bool(eval_delta0(f, env))
            case Not(b):
                return ~go(b, env)
            case And(l, r):
                return _t_and(go(l, env), go(r, env))
            case Or(l, r):
                return _t_or(go(l, env), go(r, env))
            case Imp(l, r):
                return _t_or(~go(l, env), go(r, env))
            case Iff(l, r):
                return _t_iff(go(l, env), go(r, env))
            case BForall(v, b, body):
                out = Truth.TRUE
                for j in _bounded_range(b, env):
                    out = _t_and(out, go(body, {**env, v: j}))
                    if out is Truth.FALSE:
                        break
                return out
            case BExists(v, b, body):
                out = Truth.FALSE
                for j in _bounded_range(b, env):
                    out = _t_or(out, go(body, {**env, v: j}))
                    if out is Truth.TRUE:
                        break
                return out
            case Forall(v, body):
                if (g := guarded_forall(f)) is not None:
                    w, bound, inner = g
                    out = Truth.TRUE
                    for j in _bounded_range(bound, env):
                        out = _t_and(out, go(inner, {**env, w: j}))
                        if out is Truth.FALSE:
                            break
                    return out
                if v not in free_vars(body):
                    return go(body, env)
                for j in range(budget + 1):
                    if go(body, {**env, v: j}) is Truth.FALSE:
                        return Truth.FALSE
                return Truth.UNKNOWN
            case Exists(v, body):
                if (g := guarded_exists(f)) is not None:
                    w, bound, inner = g
                    out = Truth.FALSE
                    for j in _bounded_range(bound, env):
                        out = _t_or(out, go(inner, {**env, w: j}))
                        if out is Truth.TRUE:
                            break
                    return out
                if v not in free_vars(body):
                    return go(body, env)
                for j in range(budget + 1):
                    if go(body, {**env, v: j}) is Truth.TRUE:
                        return Truth.TRUE
                return Truth.UNKNOWN
        raise InputError(f"not a formula: {f!r}")

    return go(f, env)


@dataclass(frozen=True)
class NamingVerdict:
    """Outcome of asking whether a one-variable formula pins down a number.

    kind "names": the formula held at ``number`` and failed everywhere else
    in the scanned range.  kind "refuted": ``witness`` is a counterexample
    (either the formula failed at ``number`` itself, or held elsewhere).
    kind "unknown": the budget could not decide.  All verdicts are relative
    to the budget used for the scan and for instance evaluation.
    """

    kind: Literal["names", "refuted", "unknown"]
    number: int
    budget: int
    witness: int | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind, "number": self.number, "budget": self.budget}
        if self.witness is not None:
            obj["witness"] = self.witness
        return obj


class SemanticNaming:
    """One formula's budget-relative naming verdicts for every number.

    The truth table over candidates 0..budget (plus any larger number asked
    about) is shared by all numbers and filled in scan order, on demand, so
    no instance is evaluated twice and none is evaluated that a single
    number's scan would not reach.
    """

    def __init__(self, mu: Formula, budget: int):
        fv = free_vars(mu)
        if not fv <= {0}:
            extra = ", ".join(f"v{j}" for j in sorted(fv - {0}))
            raise InputError(f"naming formula must use only v0 free (has {extra})")
        self.mu = mu
        self.budget = budget
        self._truth: dict[int, Truth] = {}

    def _value(self, j: int) -> Truth:
        got = self._truth.get(j)
        if got is None:
            got = self._truth[j] = eval_budgeted(self.mu, self.budget, {0: j})
        return got

    def verdict(self, i: int) -> NamingVerdict:
        """Does mu hold at i and only at i, as far as the budget can tell."""
        if i < 0:
            raise InputError("named number must be nonnegative")
        budget = self.budget
        candidates = range(budget + 1) if i <= budget else [*range(budget + 1), i]
        undecided = False
        for j in candidates:
            value = self._value(j)
            if value is (Truth.FALSE if j == i else Truth.TRUE):
                return NamingVerdict("refuted", i, budget, witness=j)
            if value is Truth.UNKNOWN:
                undecided = True
        if undecided:
            return NamingVerdict("unknown", i, budget)
        return NamingVerdict("names", i, budget)

    # the per-formula table interface berry_number shares with NamingTable
    evidence = verdict

    def kind(self, i: int) -> str:
        return self.verdict(i).kind


def names_semantic(mu: Formula, i: int, budget: int) -> NamingVerdict:
    """Budget-relative check that mu holds at i and only at i.

    mu may use only v0 free.  Candidates 0..budget (plus i itself) are
    scanned; each instance is evaluated with the same budget.
    """
    return SemanticNaming(mu, budget).verdict(i)
