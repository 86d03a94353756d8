"""Independent oracles the engine modules are checked against.

Each oracle deliberately takes a different route than the code under test:
truth by textual substitution instead of environments, formula counting by
a length recurrence instead of generation, the least-unnamed-number search
by grammar-blind brute force over raw token strings (and, for whole
reports, by re-probing every formula at every number), tokens by a
match-at-a-time loop instead of one findall, derivations by deduplicating
proof steps on rendered strings instead of structure numbers, and primes by
a plain sieve.  Expected values frozen in tests come from here.
"""

from __future__ import annotations

import re
from itertools import product

from berrykit.berry import BerryReport, NumberRecord, enumerate_formulas
from berrykit.errors import BudgetExhaustedError, InputError
from berrykit.generators import LemmaBank, names_provable
from berrykit.parser import ParseError, parse_formula
from berrykit.proofs import Derivation, Step
from berrykit.semantics import names_semantic
from berrykit.tactics import MP, Ax, Gen, Hyp, Proof, Sch, TacticError, _postorder
from berrykit.syntax import (
    Add, And, BExists, BForall, Eq, Exists, Forall, Formula, Iff, Imp, Le,
    Mul, Not, Or, Succ, Term, Var, Zero, free_vars, numeral, render,
    substitute,
)


# ------------------------------------------------ substitution-based truth

def naive_term_value(t: Term) -> int:
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.arg
    match t:
        case Zero():
            return n
        case Add(l, r):
            return n + naive_term_value(l) + naive_term_value(r)
        case Mul(l, r):
            return n + naive_term_value(l) * naive_term_value(r)
    raise ValueError(f"open term: {t!r}")


def naive_eval(f: Formula) -> bool:
    """Truth of a closed bounded-quantifier sentence, substitute-and-recurse."""
    match f:
        case Eq(l, r):
            return naive_term_value(l) == naive_term_value(r)
        case Le(l, r):
            return naive_term_value(l) <= naive_term_value(r)
        case Not(b):
            return not naive_eval(b)
        case And(l, r):
            return naive_eval(l) and naive_eval(r)
        case Or(l, r):
            return naive_eval(l) or naive_eval(r)
        case Imp(l, r):
            return (not naive_eval(l)) or naive_eval(r)
        case Iff(l, r):
            return naive_eval(l) == naive_eval(r)
        case BForall(v, bound, body):
            m = naive_term_value(bound)
            return all(naive_eval(substitute(body, v, numeral(x))) for x in range(m))
        case BExists(v, bound, body):
            m = naive_term_value(bound)
            return any(naive_eval(substitute(body, v, numeral(x))) for x in range(m))
        case Forall(v, Imp(Le(Succ(Var(w)), bound), body)) if w == v and v not in free_vars(bound):
            m = naive_term_value(bound)
            return all(naive_eval(substitute(body, v, numeral(x))) for x in range(m))
        case Exists(v, And(Le(Succ(Var(w)), bound), body)) if w == v and v not in free_vars(bound):
            m = naive_term_value(bound)
            return any(naive_eval(substitute(body, v, numeral(x))) for x in range(m))
    raise ValueError(f"not a decidable bounded sentence: {f!r}")


# --------------------------------------------------- counting by recurrence

def count_canonical_formulas(max_len_exclusive: int) -> int:
    """Number of well-formed formulas, free variables within {v0}, of
    length < max_len_exclusive, counted by a pure length recurrence.

    Valid below the shortest quantified formula (9 tokens), where the
    variable pool is just v0 and alpha-renaming is vacuous.
    """
    L = max_len_exclusive
    if L > 9:
        raise ValueError("recurrence only counts the quantifier-free range")
    N = max(L, 1)
    atomic_headed = [0] * N   # zero/var/succ-headed terms by length
    composite = [0] * N       # add/mul-headed terms by length
    for n in range(1, N):
        a = 2 if n == 1 else 0
        a += atomic_headed[n - 1] if n - 1 >= 1 else 0
        a += composite[n - 3] if n - 3 >= 1 else 0   # s ( t op u )
        atomic_headed[n] = a
        c = 0
        for wl in range(1, n - 1):
            wr = n - 1 - wl
            left = _operand_count(atomic_headed, composite, wl)
            right = _operand_count(atomic_headed, composite, wr)
            c += 2 * left * right
        composite[n] = c
    terms = [atomic_headed[n] + composite[n] for n in range(N)]
    formulas = [0] * N
    for n in range(3, N):
        at = 0
        for i in range(1, n - 1):
            j = n - 1 - i
            if 1 <= j < N:
                at += 2 * terms[i] * terms[j]
        f = at
        if n - 3 >= 3:
            f += formulas[n - 3]                      # ~ ( g )
        for i in range(3, n - 5 + 1):                 # ( g ) op ( h )
            j = n - 5 - i
            if 3 <= j < N:
                f += 4 * formulas[i] * formulas[j]
        formulas[n] = f
    return sum(formulas[3:L])


def _operand_count(atomic_headed: list[int], composite: list[int], width: int) -> int:
    out = atomic_headed[width] if width >= 1 else 0
    if width - 2 >= 1:
        out += composite[width - 2]
    return out


# ------------------------------------------- brute force over token strings

_ALPHABET = ["0", "s", "+", "*", "=", "<=", "~", "(", ")", "v0", "v1"]
_STARTERS = {"0", "s", "v0", "(", "~"}
_ENDERS = {"0", "v0", "v1", ")"}


def brute_canonical_formulas(max_len_exclusive: int) -> list[str]:
    """All canonical formula renderings of length < max_len_exclusive with
    free variables within {v0}, found by filtering raw token sequences.

    A sequence counts iff it parses and renders back to itself verbatim.
    Tractable for max_len_exclusive <= 6 (the alphabet suffices there: any
    connective or quantifier needs 6+ tokens, binders 9+).
    """
    found: list[str] = []
    for n in range(3, max_len_exclusive):
        for seq in product(_ALPHABET, repeat=n):
            if seq[0] not in _STARTERS or seq[-1] not in _ENDERS:
                continue
            if (seq.count("=") + seq.count("<=")) != 1:
                continue
            if seq.count("(") != seq.count(")"):
                continue
            text = " ".join(seq)
            try:
                f = parse_formula(text)
            except ParseError:
                continue
            if render(f) != text:
                continue
            if free_vars(f) - {0}:
                continue
            found.append(text)
    return found


def brute_names(mu: Formula, m: int, scan: int) -> bool:
    """mu defines {m} as far as the scan goes: true at m, false elsewhere."""
    if not naive_eval(substitute(mu, 0, numeral(m))):
        return False
    return all(
        not naive_eval(substitute(mu, 0, numeral(j)))
        for j in range(scan + 1) if j != m
    )


def brute_least_unnamed(max_len_exclusive: int, scan: int) -> int:
    """Least number no enumerated formula names; grammar-blind route."""
    mus = [parse_formula(s) for s in brute_canonical_formulas(max_len_exclusive)]
    m = 0
    while True:
        if not any(brute_names(mu, m, scan) for mu in mus):
            return m
        m += 1


def berry_number_reference(
    max_len: int,
    backend: str = "semantic",
    budget: int = 32,
    cap: int = 8,
    theory=None,
):
    """The least-unnamed search as a per-pair probe loop: every formula is
    asked afresh about every number up to the answer, through the public
    one-shot deciders.  Slow, (n+1)*|mu| probes, each building its own
    evidence; kept as the differential oracle for ``berry_number``."""
    mus = list(enumerate_formulas(max_len, cap))
    bank = LemmaBank(theory) if backend == "prover" else None

    def probe(mu: Formula, m: int):
        match backend:
            case "semantic":
                return names_semantic(mu, m, budget)
            case "prover":
                return names_provable(mu, m, budget, bank)
        raise InputError(f"unknown backend {backend!r}")

    records: list[NumberRecord] = []
    m = 0
    while m <= len(mus) + 1:
        witnesses: list[str] = []
        first_evidence = None
        unknowns = 0
        for mu in mus:
            got = probe(mu, m)
            if got.kind == "names":
                witnesses.append(render(mu))
                if first_evidence is None:
                    first_evidence = got
            elif got.kind == "unknown":
                unknowns += 1
        if witnesses:
            records.append(
                NumberRecord(m, True, tuple(witnesses), first_evidence)
            )
            m += 1
            continue
        if unknowns:
            raise BudgetExhaustedError(
                f"{unknowns} formulas undecided at {m} under budget {budget};"
                " the least unnamed number cannot be certified",
                budget=budget,
            )
        records.append(NumberRecord(m, False, (), None))
        return BerryReport(
            max_len, backend, budget, m, len(mus), tuple(records)
        )
    raise BudgetExhaustedError(
        f"scan overran the pigeonhole bound; budget {budget} cannot keep"
        " naming verdicts unique",
        budget=budget,
    )


# -------------------------------------------------- render-keyed compiling

def compile_proof_reference(p: Proof, dedup: bool = True) -> Derivation:
    """Flatten a closed proof tree, keying each step by the rendered text of
    its formula: the compiler as it was before steps were keyed by
    structure numbers."""
    order = _postorder(p)
    index: dict[int, int] = {}
    by_formula: dict[str, int] = {}
    steps: list[Step] = []

    def emit(step: Step, node: Proof, key: str) -> None:
        if dedup and key in by_formula:
            index[id(node)] = by_formula[key]
            return
        steps.append(step)
        index[id(node)] = len(steps) - 1
        if dedup:
            by_formula[key] = len(steps) - 1

    for node in order:
        key = render(node.formula)
        match node:
            case Hyp():
                raise TacticError(
                    f"open hypothesis {key!r}: discharge before compiling"
                )
            case Ax(label=label, formula=f):
                emit(Step(f, "axiom", name=label), node, key)
            case Sch(name=name, formula=f):
                emit(Step(f, "schema", name=name), node, key)
            case MP(imp=pi, arg=pa, formula=f):
                emit(
                    Step(f, "mp", premises=(index[id(pi)], index[id(pa)])),
                    node,
                    key,
                )
            case Gen(var=v, arg=pa, formula=f):
                emit(Step(f, "gen", premises=(index[id(pa)],), var=v), node, key)
    root_line = index[id(p)]
    if root_line != len(steps) - 1:
        steps.append(steps[root_line])
    return Derivation(tuple(steps))


# ------------------------------------------------------- character-loop scan

_SCAN_RE = re.compile(r"\s+|v\d+|<->|->|<=|[0s+*=~&|()AE]")


def scan_tokens(text: str) -> list[str]:
    """The parser's tokens, read one match at a time from the left."""
    toks: list[str] = []
    i = 0
    while i < len(text):
        m = _SCAN_RE.match(text, i)
        if m is None:
            rest = text[i:].split()
            snippet = rest[0][:12] if rest else text[i]
            raise ParseError(len(toks) + 1, f"unknown token {snippet!r}")
        if not m.group().isspace():
            toks.append(m.group())
        i = m.end()
    return toks


# ------------------------------------------------------------------- primes

def sieve_primes(count: int) -> list[int]:
    bound = 120_000 if count <= 10_000 else None
    if bound is None:
        raise ValueError("sieve bound tuned for <= 10000 primes")
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for p in range(2, int(bound ** 0.5) + 1):
        if flags[p]:
            flags[p * p:: p] = bytearray(len(flags[p * p:: p]))
    primes = [i for i in range(bound + 1) if flags[i]]
    if len(primes) < count:
        raise ValueError("sieve bound too small")
    return primes[:count]
