"""Evaluation over the standard naturals.

One evaluator, ``decide``, walks a formula over an environment of
variable values and returns its verdict: a three-valued truth with the
verdicts it was read from.  Guarded quantifiers are scanned below their
bounds, unbounded quantifier witnesses only up to the budget, and
connectives combine verdicts with strong Kleene tables, so a decided
answer is always sound and a Δ0 formula is always decided.  The verdict
certifies the truth: it names the disjunct, the false antecedent, the
witness or the failing instance, and the proof builders follow it instead
of asking again.  ``eval_budgeted`` is its truth alone, and
``eval_delta0`` the exact two-valued reading for Δ0 formulas, refusing any
other.  A formula's truth at a number is read under ``{v: j}``, never by
substituting a numeral first.  A bounded quantifier is built as the
guarded quantifier it abbreviates, so the walk meets no sugar, and two
formulas are the same formula exactly when they are one node.

Classification lives here too: ``classify`` folds a formula to its most
specific class (Δ0, Σ1, Σ or neither), reading guarded quantifiers with
``guarded``, as the evaluator does, and ``SIGMA_CLASSES`` names the
fragment Q proves every truth of.  The proof checker never asks it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import add, mul
from typing import Literal

from .errors import InputError, NotDelta0Error
from .syntax import (
    _KIDS,
    Add,
    And,
    Eq,
    Exists,
    Expr,
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
    fold,
    free_vars,
    succ_spine,
)

Env = dict[int, int]
# a formula's verdict: its truth and the verdicts it was read from
Verdict = tuple["Truth", tuple["Verdict", ...]]
# the default witness budget, and the smaller one of the Berry search and
# the demos, which decide every enumerated formula
DEFAULT_BUDGET = 64
SEARCH_BUDGET = 32
# the enumeration feasibility cap, and the naming backends of the Berry search
DEFAULT_CAP = 8
BACKENDS = ("semantic", "prover")


# ------------------------------------------------------------ classification

class FormulaClass(enum.Enum):
    DELTA0 = "delta0"
    SIGMA1 = "sigma1"
    SIGMA = "sigma"
    OTHER = "other"


# the classes whose true sentences Q proves: bounded and existential
SIGMA_CLASSES = (FormulaClass.DELTA0, FormulaClass.SIGMA1, FormulaClass.SIGMA)


def guarded(f: Formula) -> tuple[int, Term, Formula] | None:
    """Match forall v ((s v <= b) -> body) or exists v ((s v <= b) & body),
    with v not free in b; which of the two is ``type(f)``."""
    match f:
        case (
            Forall(v, Imp(Le(Succ(Var(w)), b), body))
            | Exists(v, And(Le(Succ(Var(w)), b), body))
        ) if w == v and v not in free_vars(b):
            return v, b, body
    return None


# class ranks in the fold: Δ0, Σ, neither, and an implication from a Δ0
# formula to a Σ one, no Σ formula itself but one under a guarded ∀
_D0, _SIG, _OTH, _D0_TO_SIG = range(4)


def _rank_of(node: Expr, kids: tuple) -> int:
    kind = type(node)
    if kind is Eq or kind is Le:
        return _D0
    if kind is Imp and kids == (_D0, _SIG):
        return _D0_TO_SIG
    if kind is Not or kind is Iff or kind is Imp:
        return _D0 if max(kids) == _D0 else _OTH
    if kind is And or kind is Or:
        return min(max(kids), _OTH)
    if kind is Exists:
        if guarded(node) is not None:
            return kids[0]
        return _SIG if kids[0] <= _SIG else _OTH
    if kind is Forall and guarded(node) is not None:
        return {_D0: _D0, _D0_TO_SIG: _SIG}.get(kids[0], _OTH)
    return _OTH  # terms and unguarded universals


# a rank ignores terms, so the fold stops at atoms
_RANK_KIDS = {**_KIDS, Eq: _KIDS[Zero], Le: _KIDS[Zero]}
_CLASS_OF_RANK = (FormulaClass.DELTA0, FormulaClass.SIGMA, FormulaClass.OTHER, FormulaClass.OTHER)


def classify(f: Formula) -> FormulaClass:
    """Most specific syntactic class of the formula."""
    ranks: dict[Expr, int] = {}
    rank = fold(f, _rank_of, ranks, _RANK_KIDS)
    if rank == _SIG and type(f) is Exists and ranks[f.body] == _D0:
        return FormulaClass.SIGMA1
    return _CLASS_OF_RANK[rank]


# -------------------------------------------------------------- evaluation

class Truth(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __invert__(self) -> Truth:
        return _NEGATION[self]


_NEGATION = {
    Truth.TRUE: Truth.FALSE, Truth.FALSE: Truth.TRUE, Truth.UNKNOWN: Truth.UNKNOWN,
}


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


def _t_imp(a: Truth, b: Truth) -> Truth:
    return _t_or(~a, b)


_CONNECTIVES = {And: _t_and, Or: _t_or, Imp: _t_imp, Iff: _t_iff}
# an atom's verdict has no parts; the two are shared, so a scan over atoms
# keeps one pointer per instance
_ATOM = {True: (Truth.TRUE, ()), False: (Truth.FALSE, ())}


def eval_term(t: Term, env: Env | None = None) -> int:
    env = env or {}
    # an explicit machine, so deep terms cannot overflow: under each node's
    # operands `work` keeps what combines their values, a successor spine's
    # height or the operator of an Add or Mul
    values: list[int] = []
    work: list = [t]
    while work:
        node = work.pop()
        kind = type(node)
        if kind is int:
            values[-1] += node
        elif node is add or node is mul:
            values.append(node(values.pop(), values.pop()))
        elif kind is Zero:
            values.append(0)
        elif kind is Var:
            if node.index not in env:
                raise InputError(f"unbound variable v{node.index}")
            values.append(env[node.index])
        elif kind is Succ:
            work += succ_spine(node)
        elif kind is Add or kind is Mul:
            work += (add if kind is Add else mul, node.right, node.left)
        else:
            raise InputError(f"not a term: {node!r}")
    return values[0]


def eval_delta0(f: Formula, env: Env | None = None) -> bool:
    """Exact truth value of a bounded (Δ0) formula.

    Refuses any formula with an unbounded quantifier,
    wherever it sits, with NotDelta0Error; the truth itself is the
    three-valued evaluator's, which never needs its budget on Δ0.
    """
    if classify(f) is not FormulaClass.DELTA0:
        raise NotDelta0Error("not a formula whose quantifiers are all bounded")
    return eval_budgeted(f, 0, env) is Truth.TRUE


def eval_budgeted(f: Formula, budget: int, env: Env | None = None) -> Truth:
    """Three-valued truth with unbounded witness search capped at budget:
    the truth of ``decide(f, budget, env)``."""
    return decide(f, budget, env)[0]


def decide(f: Formula, budget: int, env: Env | None = None) -> Verdict:
    """The verdict of f: its three-valued truth and the verdicts it read.

    A guarded quantifier is scanned below its bound; unbounded witnesses
    are sought up to the budget.  Decided answers are sound for the
    standard model.  A connective's parts are its operands' verdicts.  A
    quantifier's parts are its body's verdicts at 0, 1, ... in scan order,
    so a settled scan ends at its least witness or counterexample.  A
    quantifier whose variable does not occur free in its body has the
    body's verdict as its one part, so padding never costs budget.  The
    parts at v = j are the parts of the instance with the numeral j
    substituted for v, so a proof builder can follow them down the
    instances it proves.
    """
    if budget < 0:
        raise InputError("budget must be nonnegative")

    def go(f: Formula, env: Env) -> Verdict:
        match f:
            case Eq(l, r):
                return _ATOM[eval_term(l, env) == eval_term(r, env)]
            case Le(l, r):
                return _ATOM[eval_term(l, env) <= eval_term(r, env)]
            case Not(b):
                vb = go(b, env)
                return ~vb[0], (vb,)
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                vl, vr = go(l, env), go(r, env)
                return _CONNECTIVES[type(f)](vl[0], vr[0]), (vl, vr)
            case Forall(v, body) | Exists(v, body):
                # a universal is settled by a false instance, an existential
                # by a true one
                stop = Truth.FALSE if type(f) is Forall else Truth.TRUE
                g = guarded(f)
                if g is not None:  # every value below the bound is scanned
                    v, bound, body = g
                    values = range(eval_term(bound, env))
                    out = ~stop
                elif v not in free_vars(body):
                    vb = go(body, env)
                    return vb[0], (vb,)
                else:  # a scan up to the budget settles only by stopping
                    values = range(budget + 1)
                    out = Truth.UNKNOWN
                parts = []
                for j in values:
                    got = go(body, {**env, v: j})
                    parts.append(got)
                    if got[0] is stop:
                        return stop, tuple(parts)
                    if got[0] is Truth.UNKNOWN:
                        out = Truth.UNKNOWN
                return out, tuple(parts)
        raise InputError(f"not a formula: {f!r}")

    return go(f, env or {})


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


class SemanticNaming:
    """One formula's budget-relative naming verdicts for every number.

    The truth table over candidates 0..budget (plus any larger number asked
    about) is shared by all numbers and filled in scan order, on demand, so
    no instance is evaluated twice and none is evaluated that a single
    number's scan would not reach.  ``truth(j)`` reads it; a NamingTable
    reads its instance truths from the same table.
    """

    def __init__(self, mu: Formula, budget: int):
        fv = free_vars(mu)
        if not fv <= {0}:
            extra = ", ".join(f"v{j}" for j in sorted(fv - {0}))
            raise InputError(f"naming formula must use only v0 free (has {extra})")
        if budget < 0:
            raise InputError("budget must be nonnegative")
        self.mu = mu
        self.budget = budget
        self._truths: dict[int, Truth] = {}

    def truth(self, j: int) -> Truth:
        """mu's truth at v0 = j under the budget, evaluated once."""
        got = self._truths.get(j)
        if got is None:
            got = self._truths[j] = eval_budgeted(self.mu, self.budget, {0: j})
        return got

    def verdict(self, i: int) -> NamingVerdict:
        """Does mu hold at i and only at i, as far as the budget can tell."""
        if i < 0:
            raise InputError("named number must be nonnegative")
        budget = self.budget
        candidates = range(budget + 1) if i <= budget else [*range(budget + 1), i]
        undecided = False
        for j in candidates:
            value = self.truth(j)
            if value is (Truth.FALSE if j == i else Truth.TRUE):
                return NamingVerdict("refuted", i, budget, witness=j)
            if value is Truth.UNKNOWN:
                undecided = True
        if undecided:
            return NamingVerdict("unknown", i, budget)
        return NamingVerdict("names", i, budget)

    # the per-formula table interface berry_number shares with NamingTable:
    # the verdict is all the evidence a semantic table has
    evidence = verdict

    def kind(self, i: int) -> str:
        return self.verdict(i).kind


def names_semantic(mu: Formula, i: int, budget: int) -> NamingVerdict:
    """Budget-relative check that mu holds at i and only at i.

    mu may use only v0 free.  Candidates 0..budget (plus i itself) are
    scanned; each instance is evaluated with the same budget.
    """
    return SemanticNaming(mu, budget).verdict(i)
