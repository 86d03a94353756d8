"""Short-formula enumeration, least-unnamed numbers, and the size-bound
certificate for the self-limiting sentence construction.

The enumeration builds every one-free-variable formula below a length
cutoff once, already in renaming normal form, and lists them in a canonical
order.  On top of it sit desk-scale "least number no short formula names"
searches with per-number evidence, the psi-template builder with its
derived constants, the exact integer certification of the inequality chain
those constants satisfy, and the substitution step that turns the template
into a closed sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, count, product
from typing import Iterable, Iterator

from . import proofs
from .errors import BudgetExhaustedError, CapExceededError, InputError, RefusedError
from .generators import LemmaBank, NamingEvidence, NamingTable, refute_delta0
from .proofs import Derivation
from .semantics import (
    BACKENDS,
    DEFAULT_BUDGET,
    DEFAULT_CAP,
    SEARCH_BUDGET,
    FormulaClass,
    NamingVerdict,
    SemanticNaming,
    classify,
)
from .syntax import (
    Add,
    And,
    BForall,
    BINDERS,
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
    expand_bounded,
    fold,
    free_vars,
    is_closed,
    length,
    numeral,
    render,
    substitute,
)


# ------------------------------------------------------------- enumeration

def _terms_up_to(max_len: int, pool: tuple[int, ...]) -> list[list[Term]]:
    """Terms over the variable pool, bucketed by exact canonical length."""
    buckets: list[list[Term]] = [[] for _ in range(max_len + 1)]
    if max_len >= 1:
        buckets[1].append(Zero())
        buckets[1].extend(Var(i) for i in pool)
    for w in range(2, max_len + 1):
        for t in buckets[w - 1]:
            if not isinstance(t, (Add, Mul)):
                buckets[w].append(Succ(t))
        if w - 3 >= 1:
            for t in buckets[w - 3]:
                if isinstance(t, (Add, Mul)):
                    buckets[w].append(Succ(t))
        for wl in range(1, w - 1):
            for l in buckets[wl]:
                lw = wl + 2 if isinstance(l, (Add, Mul)) else wl
                if lw >= w - 1:
                    continue
                wr = w - 1 - lw
                need_plain = [r for r in buckets[wr] if not isinstance(r, (Add, Mul))]
                need_paren = (
                    [r for r in buckets[wr - 2] if isinstance(r, (Add, Mul))]
                    if wr - 2 >= 1
                    else []
                )
                for r in need_plain + need_paren:
                    buckets[w].append(Add(l, r))
                    buckets[w].append(Mul(l, r))
    return buckets


_V0 = frozenset((0,))


def _binder_indices(fv: frozenset[int], pool: tuple[int, ...]) -> range:
    """The indices v of the pool 0..k that are the least index >= 1 outside
    fv - {v}: from 1 up to the least index >= 1 outside fv."""
    return range(1, min(next(v for v in count(1) if v not in fv), max(pool)) + 1)


def _pairs(a: tuple, b: tuple, grow: bool) -> tuple[Iterable, Iterable]:
    """The pairs of two split buckets with at most v0 free, then the others
    (none unless grow)."""
    (ac, ao), (bc, bo) = a, b
    return product(ac, bc), chain(product(ac, bo), product(ao, bc + bo)) if grow else ()


def _formulas_up_to(max_len: int, pool: tuple[int, ...]) -> list[tuple[list, list]]:
    """Formulas over the pool in renaming normal form, by exact length, each
    bucket split in two: the formulas with at most v0 free, then the others.

    A binder ( Q v ) g is built only for v in `_binder_indices` of g's free
    variables.  That holds at every binder exactly when rename_to_first
    fixes the formula, and it reads nothing above the binder.  A formula
    with a free variable other than v0 is built only where a binder still
    fits around it, at most max_len - 6 long.
    """
    terms: list[tuple[list, list]] = [([], []) for _ in range(max_len - 1)]
    for w, bucket in enumerate(_terms_up_to(max_len - 2, pool)):
        for t in bucket:
            terms[w][not free_vars(t) <= _V0].append(t)
    buckets: list[tuple[list, list]] = [([], []) for _ in range(max_len + 1)]
    for w in range(3, max_len + 1):
        grow, split = w <= max_len - 6, buckets[w]
        for wl in range(1, w - 1):
            for out, pairs in zip(split, _pairs(terms[wl], terms[w - 1 - wl], grow)):
                for l, r in pairs:
                    out += (Eq(l, r), Le(l, r))
        if w >= 6:  # negating an open formula only while a binder fits
            for out, part in zip(split, buckets[w - 3][: 1 + grow]):
                out += map(Not, part)
        for wl in range(3, w - 7):
            for out, pairs in zip(split, _pairs(buckets[wl], buckets[w - 5 - wl], grow)):
                for l, r in pairs:
                    out += (And(l, r), Or(l, r), Imp(l, r), Iff(l, r))
        for g in chain(*buckets[w - 6]) if w >= 9 else ():
            fv = free_vars(g)
            for v in _binder_indices(fv, pool):
                opened = not fv - {v} <= _V0
                if grow or not opened:
                    split[opened].extend((Forall(v, g), Exists(v, g)))
    return buckets


def enumerate_formulas(max_len: int, cap: int = DEFAULT_CAP) -> Iterator[Formula]:
    """Every formula of length below max_len whose only free variable can
    be v0, in renaming normal form, each exactly once, shortest first and
    token-lexicographic within a length.

    Normal form comes from construction (`_formulas_up_to`): no formula is
    built and then renamed or filtered."""
    if max_len < 0:
        raise InputError("the length cutoff must be a natural number")
    if max_len > cap:
        raise CapExceededError(f"enumeration up to length {max_len} exceeds the cap {cap}")
    if max_len <= 3:
        return iter(())
    # nesting depth bounds the variable pool in normal form
    depth = max(0, (max_len - 4) // 6)
    pool = tuple(range(depth + 1))
    out: list[Formula] = []
    for closable, _ in _formulas_up_to(max_len - 1, pool):
        # one length per bucket, and every token character sorts above the space, so
        # text order is token order; one memo renders the bucket's shared operands once
        out += sorted(closable, key=partial(render, memo={}))
    return iter(out)


# ------------------------------------------------------- least unnamed number

@dataclass(frozen=True)
class NumberRecord:
    """Evidence row for one number in a least-unnamed search."""

    number: int
    named: bool
    witnesses: tuple[str, ...]
    evidence: NamingVerdict | NamingEvidence | None

    def to_json_obj(self) -> dict:
        out: dict = {
            "number": self.number,
            "named": self.named,
            "witnesses": list(self.witnesses),
        }
        ev = self.evidence
        if isinstance(ev, NamingEvidence) and ev.derivation is not None:
            out["derivation_steps"] = len(ev.derivation)
        return out


@dataclass(frozen=True)
class BerryReport:
    max_len: int
    backend: str
    budget: int
    n_value: int
    formula_count: int
    records: tuple[NumberRecord, ...]

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "max_len": self.max_len,
            "backend": self.backend,
            "budget": self.budget,
            "n": self.n_value,
            "formula_count": self.formula_count,
            "table": [r.to_json_obj() for r in self.records],
        }



def berry_number(
    max_len: int,
    backend: str = "semantic",
    budget: int = SEARCH_BUDGET,
    cap: int = DEFAULT_CAP,
) -> BerryReport:
    """The least number no enumerated formula names, with evidence.

    Each formula is decided once, for every number, by its own truth table
    (a SemanticNaming or a NamingTable); the scan over numbers only reads
    verdicts off the tables.

    Evidence is built for exactly what the report claims: the naming
    evidence of every listed witness of a named number, and at the answer
    the refutation of every formula, which is the exhaustion that row
    asserts.  Refutations at smaller numbers back no row and are not built.

    With the prover backend every claim's proof tree is built, and each
    tactic checks the inference it adds, so a claim the prover cannot back
    raises here instead of being reported.  Only what the report prints is
    flattened: a named row's first witness is compiled into the derivation
    whose size the row records, and the kernel (``proofs.check``) checks
    it before the row is recorded, so a rejection prints no report.  The
    other witnesses' trees and the exhaustion's are dropped once built, as
    flattening or holding them all would multiply time and peak memory.

    An undecided entry anywhere before a number is certified unnamed aborts
    with a budget diagnostic rather than guessing.
    """
    if backend not in BACKENDS:
        raise InputError(f"unknown backend {backend!r}")
    mus = list(enumerate_formulas(max_len, cap))
    bank: LemmaBank | None = None
    if backend == "prover":
        bank = LemmaBank()
        tables: list[SemanticNaming | NamingTable] = [
            NamingTable(mu, budget, bank) for mu in mus
        ]
    else:
        tables = [SemanticNaming(mu, budget) for mu in mus]

    records: list[NumberRecord] = []
    # each formula names at most one number, so the scan always stops
    for m in range(len(mus) + 2):
        kinds = [t.kind(m) for t in tables]
        named = [t for t, kind in zip(tables, kinds) if kind == "names"]
        if named:
            evidence = named[0].evidence(m)
            if bank is not None:
                proofs.check(evidence.derivation, bank.theory)
                for t in named[1:]:
                    t.proof(m)
            witnesses = tuple(render(t.mu) for t in named)
            records.append(NumberRecord(m, True, witnesses, evidence))
            continue
        unknowns = kinds.count("unknown")
        if unknowns:
            raise BudgetExhaustedError(
                f"{unknowns} formulas undecided at {m} under budget {budget};"
                " the least unnamed number cannot be certified",
                budget=budget,
            )
        if bank is not None:
            for t in tables:
                t.proof(m)
        records.append(NumberRecord(m, False, (), None))
        return BerryReport(
            max_len, backend, budget, m, len(mus), tuple(records)
        )
    raise BudgetExhaustedError(
        f"scan overran the pigeonhole bound; budget {budget} cannot keep"
        " naming verdicts unique",
        budget=budget,
    )


# ------------------------------------------------- psi template and constants

@dataclass(frozen=True)
class ConcretePhi:
    """A two-variable formula standing in for the naming relation."""

    phi: Formula

    def __post_init__(self) -> None:
        if free_vars(self.phi) - {0, 1}:
            raise InputError("the formula may only use v0 and v1 free")


@dataclass(frozen=True)
class MockPhi:
    """Declared size data for the template, with no concrete formula."""

    length: int
    v1_occurrences: int

    def __post_init__(self) -> None:
        if self.length <= 3:
            raise InputError("the declared length must exceed 3")
        if self.v1_occurrences < 1:
            raise InputError("at least one occurrence is required")


PhiProvider = ConcretePhi | MockPhi

# .. the template wraps the base formula in a negation plus a bounded
#    universal copy, adding this many tokens on top of the two copies
TEMPLATE_OVERHEAD = 23


@dataclass(frozen=True)
class PsiConstants:
    k1: int
    k2: int
    k: int
    t_term: Term
    t_value: int

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "k1": self.k1,
            "k2": self.k2,
            "k": self.k,
            "t_len": length(self.t_term),
            "t_value": self.t_value,
        }


def _count_free(f: Formula, i: int) -> int:
    """Free occurrences of v_i, binder-aware."""

    def count(node, kids: tuple) -> int:
        if type(node) is Var:
            return int(node.index == i)
        if type(node) in BINDERS and node.var == i:
            return kids[0] if len(kids) == 2 else 0  # only a bound is outside
        return sum(kids)

    return fold(f, count)


def budget_term(k: int) -> Term:
    """The closed term 10*(k*k), whose value caps the search budget.

    Its rendered length is 17 + 2k no matter which k is supplied, which
    is what lets a short name pin down a number that needs a longer one.
    """
    if k < 1:
        raise InputError("k must be positive")
    return Mul(numeral(10), Mul(numeral(k), numeral(k)))


def build_psi(provider: PhiProvider) -> tuple[Formula | None, PsiConstants]:
    """The template formula (when concrete) and its size constants.

    The template says: the base relation fails here, yet holds for every
    smaller first argument.  Its length is k1; k2 exceeds the free
    occurrences of v1 by one; k = k1*k2 drives the budget term 10*k*k.
    """
    match provider:
        case ConcretePhi(phi):
            shifted = substitute(phi, 0, Var(2))
            psi = expand_bounded(And(Not(phi), BForall(2, Var(0), shifted)))
            k1 = length(psi)
            k2 = _count_free(psi, 1) + 1
        case MockPhi(k1_decl, occ):
            psi = None
            k1 = k1_decl
            k2 = occ + 1
        case _:
            raise InputError("unrecognized provider")
    k = k1 * k2
    return psi, PsiConstants(k1, k2, k, budget_term(k), 10 * k * k)


@dataclass(frozen=True)
class BoundCertificate:
    k1: int
    k2: int
    k: int
    t_len: int
    psi_at_t_len: int
    t_value: int
    verdicts: tuple[tuple[str, bool], ...]

    @property
    def holds(self) -> bool:
        return all(ok for _, ok in self.verdicts)

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "k1": self.k1,
            "k2": self.k2,
            "k": self.k,
            "t_len": self.t_len,
            "psi_at_t_len": self.psi_at_t_len,
            "t_value": self.t_value,
            "verdicts": {name: ok for name, ok in self.verdicts},
            "holds": self.holds,
        }


def certify_bounds(provider: PhiProvider) -> BoundCertificate:
    """Exact integer check of the whole inequality chain.

    The chain closes with: the template instantiated at its own budget
    term stays strictly shorter than the budget value.
    """
    psi, c = build_psi(provider)
    t_len = length(c.t_term)
    if psi is not None:
        psi_at_t = length(substitute(psi, 1, c.t_term))
    else:
        # worst case: each occurrence swaps one token for the
        # parenthesized budget term
        psi_at_t = c.k1 + provider.v1_occurrences * (t_len + 1)
    k, k1, k2 = c.k, c.k1, c.k2
    verdicts = (
        ("18k < 8k^2", 18 * k < 8 * k * k),
        ("subst_len <= k1 + k2*t_len", psi_at_t <= k1 + k2 * t_len),
        ("k1 + k2*(17+2k) <= 18k + 2k^2", k1 + k2 * (17 + 2 * k) <= 18 * k + 2 * k * k),
        ("18k + 2k^2 < 10k^2", 18 * k + 2 * k * k < 10 * k * k),
        ("subst_len < t_value", psi_at_t < c.t_value),
    )
    return BoundCertificate(k1, k2, k, t_len, psi_at_t, c.t_value, verdicts)


def boolos_sentence(provider: PhiProvider, n: int | None = None) -> Formula:
    """The template at the budget term, closed at n when given.

    Leaving n out keeps v0 free: the template with the number slot open.
    Only a concrete provider yields a formula.
    """
    psi, c = build_psi(provider)
    if psi is None:
        raise InputError("a concrete base formula is required to emit a sentence")
    out = substitute(psi, 1, c.t_term)
    if n is not None:
        if n < 0:
            raise InputError("the number must be natural")
        out = substitute(out, 0, numeral(n))
    return out


def boolos_schematic(provider: MockPhi, n: int | None = None) -> dict:
    """Size-level description of the sentence for declared-size providers."""
    if n is not None and n < 0:
        raise InputError("the number must be natural")
    _, c = build_psi(provider)
    return {
        "v": 1,
        "schematic": True,
        "template": "~phi(n, t) & (A v2)((s v2 <= n) -> phi(v2, t))",
        "n": "placeholder" if n is None else n,
        "constants": c.to_json_obj(),
    }


# ---------------------------------------------------- per-witness refutations

def refute_witnesses(
    mu: Formula,
    n: int,
    t: Term,
    upto: int,
    budget: int = DEFAULT_BUDGET,
    bank: LemmaBank | None = None,
) -> list[Derivation]:
    """Derivations refuting every witness instance 0..upto.

    mu must be a bounded formula over v0, v1 and one further variable, the
    witness slot.  Each instance fixes v0 = n, v1 = t and the witness slot
    to a numeral; all instances must actually be false, else the refusal
    names the witness that holds.
    """
    if classify(mu) is not FormulaClass.DELTA0:
        raise InputError("only bounded formulas are refuted")
    extras = free_vars(mu) - {0, 1}
    if len(extras) != 1:
        raise InputError("exactly one witness variable is required")
    if upto < 0:
        raise InputError("the witness range must be nonempty")
    (w,) = extras
    if not is_closed(t):
        raise InputError("the second argument must be closed")
    bank = bank or LemmaBank()
    base = substitute(substitute(mu, 0, numeral(n)), 1, t)
    out: list[Derivation] = []
    for j in range(upto + 1):
        inst = substitute(base, w, numeral(j))
        try:
            out.append(refute_delta0(inst, budget, bank))
        except RefusedError:
            raise RefusedError(
                f"instance at witness {j} is true; nothing to refute there"
            )
    return out
