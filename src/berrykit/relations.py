"""Executable meta-level relations on code numbers.

Decidable shape checks (being a one-variable formula, a length bound, a
sentence, a negation pair) come back as plain booleans.  The relations
that quantify over derivations come back as verdicts: holds, fails, or
undecided under the given budget, always with evidence attached to a
positive and never a silent truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .berry import enumerate_formulas
from .coding import decode, encode
from .errors import InputError
from .generators import LemmaBank, NamingTable, names_provable
from .proofs import Derivation
from .semantics import (
    DEFAULT_BUDGET, DEFAULT_CAP, SIGMA_CLASSES, FormulaClass, Truth, classify, decide,
)
from . import tactics as T
from .syntax import (
    Formula,
    Not,
    free_vars,
    is_closed,
    is_formula,
    length,
    render,
)


@dataclass(frozen=True)
class RelationVerdict:
    """Budget-aware truth value with its supporting evidence.

    holds is None exactly when the budget ran out before a decision.
    """

    holds: bool | None
    budget: int | None = None
    witness: str | int | None = None
    derivation: Derivation | None = field(default=None, repr=False)
    reason: str | None = None

    def to_json_obj(self) -> dict:
        out: dict = {"v": 1, "holds": self.holds}
        if self.budget is not None:
            out["budget"] = self.budget
        if self.witness is not None:
            out["witness"] = self.witness
        if self.derivation is not None:
            out["derivation_steps"] = len(self.derivation)
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _decoded(i: int) -> Formula | None:
    try:
        e = decode(i)
    except InputError:
        return None
    return e if is_formula(e) else None


def fm(i: int) -> bool:
    """i codes a formula whose one permitted free variable is v0."""
    f = _decoded(i)
    return f is not None and not (free_vars(f) - {0})


def lh(i: int, j: int) -> bool:
    """i codes a formula shorter than j."""
    f = _decoded(i)
    return f is not None and length(f) < j


def snt(i: int) -> bool:
    """i codes a sentence."""
    f = _decoded(i)
    return f is not None and is_closed(f)


def neg(i: int, j: int) -> bool:
    """j codes the negation of the sentence coded by i."""
    f = _decoded(i)
    g = _decoded(j)
    if f is None or g is None or not is_closed(f):
        return False
    return type(g) is Not and g.body is f


def nm(
    i: int,
    j: int,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> RelationVerdict:
    """The formula coded by j provably names i.

    A negative on a genuine one-variable formula carries the refutation;
    a non-formula code fails outright with no search.
    """
    mu = _decoded(j)  # fm(j), reading the code once
    if mu is None or free_vars(mu) - {0}:
        return RelationVerdict(False, budget, reason="code is not a naming candidate")
    bank = bank or LemmaBank()
    got = names_provable(mu, i, budget, bank)
    match got.kind:
        case "names":
            return RelationVerdict(True, budget, render(mu), got.derivation)
        case "refuted":
            return RelationVerdict(
                False, budget, got.witness, got.derivation, got.reason
            )
    return RelationVerdict(None, budget, reason=got.reason)


def b_rel(
    i: int,
    j: int,
    budget: int = DEFAULT_BUDGET,
    cap: int = DEFAULT_CAP,
    bank: LemmaBank | None = None,
) -> RelationVerdict:
    """Some formula shorter than j provably names i.

    Searches renaming normal forms only; any short namer has a variant
    there of the same length, so nothing is missed.  The first witness in
    canonical order is reported.  With no witness, undecided candidates
    make the verdict undecided rather than negative.
    """
    bank = bank or LemmaBank()
    unknowns = 0
    for mu in enumerate_formulas(j, cap):
        # decide first; only the witness reported needs its derivation
        naming = NamingTable(mu, budget, bank)
        kind = naming.kind(i)
        if kind == "names":
            return RelationVerdict(
                True, budget, render(mu), naming.evidence(i).derivation
            )
        if kind == "unknown":
            unknowns += 1
    if unknowns:
        return RelationVerdict(
            None, budget, reason=f"{unknowns} candidates undecided under the budget"
        )
    return RelationVerdict(False, budget, reason="every candidate refuted")


def prc(
    i: int,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> RelationVerdict:
    """i fails to code a sentence, or Q refutes the one it codes.

    A sentence is refuted when it is Δ0, or ~g with g in the Σ fragment,
    and its verdict under the budget is false: the refutation is the proof
    its verdict gives, which for ~g is a proof of ~~g from one of g.  Every
    other sentence is undecided: unrefutability is never concluded from a
    budget.
    """
    f = _decoded(i)
    if f is None or not is_closed(f):
        return RelationVerdict(True, reason="not a sentence code")
    if classify(f) is FormulaClass.DELTA0 or (
        type(f) is Not and classify(f.body) in SIGMA_CLASSES
    ):
        verdict = decide(f, budget)
        if verdict[0] is Truth.FALSE:
            d = T.compile_proof((bank or LemmaBank()).prove(f, verdict))
            return RelationVerdict(True, budget, encode(Not(f)), d)
    return RelationVerdict(
        None, budget, reason="no refutation found within the budget"
    )
