"""Independent oracles the engine modules are checked against.

Each oracle deliberately takes a different route than the code under test:
free variables, indices, classes, substitution and alpha-equality by one
walker per question instead of one fold and one rebuild, guarded
quantifiers field by field instead of by one pattern, renaming by
recursion,
truth by textual substitution instead of environments (three-valued and
budgeted for the soundness judge, which shows an accepted step false
without the kernel or the evaluators), formula counting by
a length recurrence instead of generation, the enumeration by building
every formula and keeping the ``rename_to_first`` fixed points instead of
building only those, the least-unnamed-number search
by grammar-blind brute force over raw token strings (and, for whole
reports, by re-probing every formula at every number), a naming table's
verdicts by scanning every instance instead of stopping at the second true
one, tokens by a match-at-a-time loop instead of one findall, the split
of `( X ) c ( Y )` by trying each connective in turn instead of skipping
balanced runs, derivation lines by `json.loads` and generator field checks
instead of one `raw_decode` and type tests, canonical
text by a token walk instead of the text fold, derivations by deduplicating
proof steps on rendered strings instead of interned expansions, the deduction
theorem by walking the whole proof tree instead of its open part, schema
instances by a recursive pattern interpreter instead of staged flat tests,
true sentences proved and false ones refuted by asking the evaluator at
each choice instead of following the verdict it returned, and primes by a
plain sieve.  The evaluator is checked against the two
interpreters it replaced, one match ladder per question over the surface
syntax.  The AST's JSON form is read back here, as the reference inverse
of the CLI's writer.  Expected values frozen in tests come from here.
"""

from __future__ import annotations

import json
import re
from itertools import product
from typing import Iterator

from berrykit import syntax
from berrykit.berry import BerryReport, NumberRecord, _terms_up_to, enumerate_formulas
from berrykit.errors import BudgetExhaustedError, InputError, NotDelta0Error, RefusedError
from berrykit.generators import _C0, LemmaBank, names_provable
from berrykit.parser import ParseError, parse_formula
from berrykit.proofs import _PATTERN_NODES, Derivation, Step
from berrykit.semantics import (
    Env, FormulaClass, Truth, _of_bool, _t_and, _t_iff, _t_or, eval_term, names_semantic,
)
from berrykit import tactics as T
from berrykit.tactics import MP, Ax, Gen, Hyp, Proof, Sch, TacticError
from berrykit.syntax import (
    Add, And, BExists, BForall, Eq, Exists, Forall, Formula, Iff, Imp, Le,
    Mul, Not, Or, Succ, Term, Var, Zero, expand_bounded, is_formula, is_term,
    numeral, render,
)


# ------------------------------------------------- one walker per question

def free_vars(e) -> frozenset[int]:
    out: set[int] = set()
    # (node, bound-set) pairs; successor chains unrolled to keep the stack flat
    stack: list[tuple[object, frozenset[int]]] = [(e, frozenset())]
    while stack:
        node, bound = stack.pop()
        while type(node) is Succ:
            node = node.arg
        match node:
            case Zero():
                pass
            case Var(i):
                if i not in bound:
                    out.add(i)
            case Add(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r):
                stack.append((l, bound))
                stack.append((r, bound))
            case Not(b):
                stack.append((b, bound))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.append((l, bound))
                stack.append((r, bound))
            case Forall(v, b) | Exists(v, b):
                stack.append((b, bound | {v}))
            case BForall(v, t, b) | BExists(v, t, b):
                stack.append((t, bound))
                stack.append((b, bound | {v}))
    return frozenset(out)


def all_var_indices(e) -> frozenset[int]:
    """Every variable index occurring at all, free or bound or as binder."""
    out: set[int] = set()
    stack: list = [e]
    while stack:
        node = stack.pop()
        while type(node) is Succ:
            node = node.arg
        match node:
            case Zero():
                pass
            case Var(i):
                out.add(i)
            case Add(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r):
                stack.extend((l, r))
            case Not(b):
                stack.append(b)
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.extend((l, r))
            case Forall(v, b) | Exists(v, b):
                out.add(v)
                stack.append(b)
            case BForall(v, t, b) | BExists(v, t, b):
                out.add(v)
                stack.extend((t, b))
    return frozenset(out)


def alpha_equal(a, b) -> bool:
    """Equality up to consistent renaming of bound variables, by walking
    both expansions in step with a renaming map each way."""
    a = expand_bounded(a)
    b = expand_bounded(b)
    stack: list[tuple[object, object, dict[int, int], dict[int, int]]] = [(a, b, {}, {})]
    while stack:
        x, y, fwd, rev = stack.pop()
        nx = ny = 0
        while type(x) is Succ:
            nx += 1
            x = x.arg
        while type(y) is Succ:
            ny += 1
            y = y.arg
        if nx != ny or type(x) is not type(y):
            return False
        match x:
            case Zero():
                pass
            case Var(i):
                j = y.index
                if i in fwd or j in rev:
                    if fwd.get(i) != j or rev.get(j) != i:
                        return False
                elif i != j:
                    return False
            case Add(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r):
                stack.append((l, y.left, fwd, rev))
                stack.append((r, y.right, fwd, rev))
            case Not(body):
                stack.append((body, y.body, fwd, rev))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.append((l, y.left, fwd, rev))
                stack.append((r, y.right, fwd, rev))
            case Forall(v, body) | Exists(v, body):
                w = y.var
                stack.append((body, y.body, {**fwd, v: w}, {**rev, w: v}))
            case _:
                raise TypeError(f"not a term or formula node: {x!r}")
    return True


def _guarded_body(f: Formula) -> Formula | None:
    """The body of (A v)((s v <= b) -> body) or (E v)((s v <= b) & body)."""
    match f:
        case Forall(v, Imp(Le(Succ(Var(w)), b), body)) | Exists(
            v, And(Le(Succ(Var(w)), b), body)
        ) if w == v and v not in free_vars(b):
            return body
    return None


def _guarded(f: Formula, quantifier: type, connective: type):
    """(v, b, body) when f is quantifier v (connective (s v <= b) body),
    read field by field, with v not free in b."""
    if type(f) is not quantifier or type(f.body) is not connective:
        return None
    guard, body = f.body.left, f.body.right
    if type(guard) is not Le or guard.left != Succ(Var(f.var)):
        return None
    if f.var in free_vars(guard.right):
        return None
    return f.var, guard.right, body


def guarded_forall(f: Formula) -> tuple[int, Term, Formula] | None:
    """The textbook bounded universal (A v)((s v <= b) -> body)."""
    return _guarded(f, Forall, Imp)


def guarded_exists(f: Formula) -> tuple[int, Term, Formula] | None:
    """The textbook bounded existential (E v)((s v <= b) & body)."""
    return _guarded(f, Exists, And)


def _guard_parts(f: Formula) -> tuple[str, int, Term, Formula] | None:
    """("ball", v, b, body) or ("bex", v, b, body) for a guarded quantifier."""
    if (g := guarded_forall(f)) is not None:
        return ("ball", *g)
    if (g := guarded_exists(f)) is not None:
        return ("bex", *g)
    return None


def _is_delta0(f: Formula) -> bool:
    match f:
        case Eq(_, _) | Le(_, _):
            return True
        case Not(b):
            return _is_delta0(b)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            return _is_delta0(l) and _is_delta0(r)
        case Forall(_, _):
            g = _guarded_body(f)
            return g is not None and _is_delta0(g)
        case Exists(_, _):
            g = _guarded_body(f)
            return g is not None and _is_delta0(g)
    return False


def _is_sigma(f: Formula) -> bool:
    if _is_delta0(f):
        return True
    match f:
        case And(l, r) | Or(l, r):
            return _is_sigma(l) and _is_sigma(r)
        case Exists(_, b):
            g = _guarded_body(f)
            if g is not None:
                return _is_sigma(g)
            return _is_sigma(b)
        case Forall(_, _):
            g = _guarded_body(f)
            return g is not None and _is_sigma(g)
    return False


def classify(f: Formula) -> FormulaClass:
    """Most specific syntactic class of the expanded formula."""
    f = expand_bounded(f)
    if _is_delta0(f):
        return FormulaClass.DELTA0
    if type(f) is Exists and _is_delta0(f.body):
        return FormulaClass.SIGMA1
    if _is_sigma(f):
        return FormulaClass.SIGMA
    return FormulaClass.OTHER


def _subst_term(t: Term, i: int, repl: Term) -> Term:
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.arg
    match t:
        case Var(j) if j == i:
            out = repl
        case Add(l, r) | Mul(l, r):
            out = type(t)(_subst_term(l, i, repl), _subst_term(r, i, repl))
        case _:
            out = t
    for _ in range(n):
        out = Succ(out)
    return out


def _fresh_index(avoid: set[int]) -> int:
    k = 0
    while k in avoid:
        k += 1
    return k


def substitute(e, i: int, repl: Term):
    """Replace free occurrences of v_i by `repl`, one variable at a time,
    renaming a binder on capture by a nested substitution.  A bounded
    quantifier's bound is rebuilt but not consulted for the new index, so a
    renamed binder that the bound mentions raises ValueError."""
    if is_term(e):
        return _subst_term(e, i, repl)
    repl_free = free_vars(repl)

    def go(f: Formula) -> Formula:
        match f:
            case Eq(l, r):
                return Eq(_subst_term(l, i, repl), _subst_term(r, i, repl))
            case Le(l, r):
                return Le(_subst_term(l, i, repl), _subst_term(r, i, repl))
            case Not(b):
                return Not(go(b))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                return type(f)(go(l), go(r))
            case Forall(v, b) | Exists(v, b):
                if v == i or i not in free_vars(b):
                    return f
                if v in repl_free:
                    w = _fresh_index(set(repl_free) | set(free_vars(b)) | {i})
                    return type(f)(w, go(substitute(b, v, Var(w))))
                return type(f)(v, go(b))
            case BForall(v, t, b) | BExists(v, t, b):
                t2 = _subst_term(t, i, repl)
                if v == i or i not in free_vars(b):
                    return type(f)(v, t2, b)
                if v in repl_free:
                    w = _fresh_index(set(repl_free) | set(free_vars(b)) | {i})
                    return type(f)(w, t2, go(substitute(b, v, Var(w))))
                return type(f)(v, t2, go(b))
        raise TypeError(f"not a formula node: {f!r}")

    return go(e)


def rename_to_first(f: Formula, j: int) -> Formula:
    """The canonical alpha-variant by direct recursion with one renaming
    map: each binder takes the least index >= 1 that no free variable of
    its body (a bounded quantifier's bound included) takes once renamed."""
    fv = free_vars(f)
    if fv - {0}:
        raise ValueError(f"free variables beyond v0: {sorted(fv - {0})}")
    if len(list(render_reference(f))) >= j:
        raise ValueError("formula too long for the requested variable window")

    def term(t: Term, rho: dict[int, int]) -> Term:
        match t:
            case Var(i):
                return Var(rho.get(i, i))
            case Succ(a):
                return Succ(term(a, rho))
            case Add(l, r) | Mul(l, r):
                return type(t)(term(l, rho), term(r, rho))
        return t

    def binder(v: int, parts, rho: dict[int, int]) -> tuple[int, dict[int, int]]:
        taken = {rho.get(y, y) for p in parts for y in free_vars(p) - {v}}
        idx = 1
        while idx in taken:
            idx += 1
        return idx, {**rho, v: idx}

    def go(g: Formula, rho: dict[int, int]) -> Formula:
        match g:
            case Eq(l, r) | Le(l, r):
                return type(g)(term(l, rho), term(r, rho))
            case Not(b):
                return Not(go(b, rho))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                return type(g)(go(l, rho), go(r, rho))
            case Forall(v, b) | Exists(v, b):
                idx, inner = binder(v, (b,), rho)
                return type(g)(idx, go(b, inner))
            case BForall(v, t, b) | BExists(v, t, b):
                idx, inner = binder(v, (t, b), rho)
                return type(g)(idx, term(t, rho), go(b, inner))
        raise TypeError(f"not a formula node: {g!r}")

    return go(f, {})


# ------------------------------------------------ the two-interpreter truth

# The evaluators as they stood before one walker served both questions: an
# exact one over the surface syntax and a budgeted one that sends atoms to
# it, each with its own bounded-quantifier loops.  Kept verbatim (free
# variables come from the reference walker above) as references for
# berrykit.semantics.


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


def _all3(values) -> bool | None:
    """Kleene conjunction: False wins, then None (unsettled), then True."""
    out: bool | None = True
    for v in values:
        if v is False:
            return False
        if v is None:
            out = None
    return out


def _any3(values) -> bool | None:
    out: bool | None = False
    for v in values:
        if v is True:
            return True
        if v is None:
            out = None
    return out


def _instantiate(f: Formula, env: dict[int, Term], memo: dict) -> Formula:
    """f with each free v_i in env replaced by the closed term env[i]; the
    terms are closed, so nothing is captured.  Kept apart from the
    kernel's substitute, whose renaming it does not need."""
    got = memo.get(f)
    if got is None:
        if type(f) is Var:
            got = env.get(f.index, f)
        elif type(f) in (Forall, Exists, BForall, BExists) and f.var in env:
            inner = {k: t for k, t in env.items() if k != f.var}
            body = _instantiate(f.body, inner, {})
            if type(f) in (Forall, Exists):
                got = type(f)(f.var, body)
            else:  # the bound is outside the binder
                got = type(f)(f.var, _instantiate(f.bound, env, memo), body)
        else:
            fields = [getattr(f, name) for name in f.__match_args__]
            got = type(f)(*(x if type(x) is int else _instantiate(x, env, memo)
                            for x in fields))
        memo[f] = got
    return got


def _truth3(f: Formula, budget: int, left: list[int], memo: dict) -> bool | None:
    """Truth of a closed formula, substitute-and-recurse like naive_eval,
    with None for unsettled: an unbounded quantifier is settled only by a
    counterexample or witness among 0..budget, and every evaluation spends
    one unit of the shared allowance `left`.  Nodes are interned, so `memo`
    settles each closed subformula once."""
    if f in memo:
        return memo[f]
    left[0] -= 1
    if left[0] < 0:
        return None

    def go(g: Formula) -> bool | None:
        return _truth3(g, budget, left, memo)

    def over(v: int, body: Formula, values):
        return (go(_instantiate(body, {v: numeral(x)}, {})) for x in values)

    match f:
        case Eq(l, r):
            out = naive_term_value(l) == naive_term_value(r)
        case Le(l, r):
            out = naive_term_value(l) <= naive_term_value(r)
        case Not(b):
            got = go(b)
            out = None if got is None else not got
        case And(l, r):
            out = _all3(go(g) for g in (l, r))
        case Or(l, r):
            out = _any3(go(g) for g in (l, r))
        case Imp(l, r):
            out = go(Or(Not(l), r))
        case Iff(l, r):
            out = go(And(Imp(l, r), Imp(r, l)))
        case BForall(v, bound, body):
            out = _all3(over(v, body, range(naive_term_value(bound))))
        case BExists(v, bound, body):
            out = _any3(over(v, body, range(naive_term_value(bound))))
        case Forall(v, Imp(Le(Succ(Var(w)), bound), body)) if w == v and v not in free_vars(bound):
            out = _all3(over(v, body, range(naive_term_value(bound))))
        case Exists(v, And(Le(Succ(Var(w)), bound), body)) if w == v and v not in free_vars(bound):
            out = _any3(over(v, body, range(naive_term_value(bound))))
        case Forall(v, body) if v not in free_vars(body):
            out = go(body)
        case Exists(v, body) if v not in free_vars(body):
            out = go(body)
        case Forall(v, body):
            out = False if _all3(over(v, body, range(budget + 1))) is False else None
        case Exists(v, body):
            out = True if _any3(over(v, body, range(budget + 1))) else None
        case _:
            raise ValueError(f"not a formula: {f!r}")
    memo[f] = out
    return out


def closure_refuted(f: Formula, budget: int = 3, work: int = 20_000) -> bool:
    """Whether the universal closure of f is shown false: some assignment
    of 0..budget to its free variables makes f false.  Three-valued and
    budgeted, so an unsettled instance never counts as false, and it works
    by substitution without the engine's evaluators."""
    fv = sorted(free_vars(f))
    left = [work]
    memo: dict = {}
    for values in product(range(budget + 1), repeat=len(fv)):
        g = _instantiate(f, {v: numeral(x) for v, x in zip(fv, values)}, {})
        if _truth3(g, budget, left, memo) is False:
            return True
    return False


# ------------------------------------------------------ naming by full scan

def naming_reference(
    mu: Formula, budget: int, bank: LemmaBank, i: int
) -> tuple[str, int | None]:
    """NamingTable's verdict at i and the witness its proof refutes with,
    from the scan it made before it stopped at the second true instance:
    every instance over 0..scan_hi, asked of the reference evaluator."""
    if classify(mu) is not FormulaClass.DELTA0:
        return "unknown", None
    got = bank.find_bound(mu)
    if got is not None and got[0] > budget:
        return "unknown", None
    scan_hi = budget if got is None else got[0]

    def truth(j: int) -> Truth:
        return eval_budgeted(mu, budget, {0: j})

    true_at = [j for j in range(scan_hi + 1) if truth(j) is Truth.TRUE][:2]
    bad = next((j for j in true_at if j != i), None)
    if bad is not None:
        return "refuted", bad
    if truth(i) is not Truth.TRUE:
        return "refuted", i
    return ("unknown" if got is None else "names"), None


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


# ------------------------------------------- generation, then a normal filter

def all_formulas_up_to(max_len: int, pool: tuple[int, ...]) -> list[list[Formula]]:
    """Every formula over the pool by exact length, each once: every binder
    index in the pool but v0, every free variable."""
    terms = _terms_up_to(max_len - 2, pool)
    buckets: list[list[Formula]] = [[] for _ in range(max_len + 1)]
    for w in range(3, max_len + 1):
        for wl in range(1, w - 1):
            wr = w - 1 - wl
            if 1 <= wr <= max_len - 2:
                buckets[w] += [k(l, r) for l in terms[wl] for r in terms[wr] for k in (Eq, Le)]
        if w - 3 >= 3:
            buckets[w] += [Not(g) for g in buckets[w - 3]]
        for wl in range(3, w - 7):
            wr = w - 5 - wl
            if wr >= 3:
                buckets[w] += [
                    k(l, r) for l in buckets[wl] for r in buckets[wr] for k in (And, Or, Imp, Iff)
                ]
        if w - 6 >= 3:
            buckets[w] += [
                k(v, g) for g in buckets[w - 6] for v in pool if v != 0 for k in (Forall, Exists)
            ]
    return buckets


def enumerate_formulas_reference(max_len: int) -> list[Formula]:
    """What ``enumerate_formulas(max_len, max_len)`` lists, found by building
    every formula over the variable pool and keeping those with only v0 free
    that ``rename_to_first`` fixes, sorted by length, then tokens."""
    if max_len <= 3:
        return []
    pool = tuple(range(max(0, (max_len - 4) // 6) + 1))
    kept = [
        f
        for bucket in all_formulas_up_to(max_len - 1, pool)
        for f in bucket
        if free_vars(f) <= {0} and syntax.rename_to_first(f, max_len) is f
    ]
    keys = {f: tuple(render_reference(f)) for f in kept}
    return sorted(kept, key=lambda f: (len(keys[f]), keys[f]))


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
):
    """The least-unnamed search as a per-pair probe loop: every formula is
    asked afresh about every number up to the answer, through the public
    one-shot deciders.  Slow, (n+1)*|mu| probes, each building its own
    evidence; kept as the differential oracle for ``berry_number``."""
    mus = list(enumerate_formulas(max_len, cap))
    bank = LemmaBank() if backend == "prover" else None

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


# ------------------------------------- proofs that ask the evaluator again

# The proof builders as they were before they followed the evaluator's
# verdict: at each choice (the disjunct, the false antecedent, the witness,
# the failing instance) they ask the evaluator, here the reference one.

def prove_true(bank: LemmaBank, f: Formula, budget: int) -> T.Proof:
    """A proof of the true closed sentence f.

    f is read as its expansion, so a bounded quantifier is the guarded
    quantifier it stands for.  Each choice (the disjunct, the witness,
    a false antecedent before a true consequent) is the evaluator's at
    the budget; a false sentence is refused and an unsettled one raises
    the budget error.
    """
    f = expand_bounded(f)
    gp = _guard_parts(f)
    if gp is not None:
        kind, v, bound, body = gp
        if free_vars(bound):
            raise InputError("quantifier bound is not closed here")
        m = eval_term(bound, {})
        if kind == "ball":
            guard = Le(Succ(Var(v)), bound)

            def branch(k: int, hek: T.Proof) -> T.Proof:
                pk = prove_true(bank, substitute(body, v, numeral(k)), budget)
                lb = bank.leib(body, v, numeral(k), Var(v))
                return T.mp(T.mp(lb, T.eq_sym(hek)), pk)

            c = bank._below(v, bound, m, T.hyp(guard), body, branch)
            return T.gen(v, T.discharge(c, guard))
        # bounded existential: first true instance is the witness
        for k in range(m):
            if eval_budgeted(body, budget, {v: k}) is Truth.TRUE:
                pk = prove_true(bank, substitute(body, v, numeral(k)), budget)
                pair = T.and_intro(bank._lt(k, bound, m), pk)
                return T.exists_intro(v, f.body, numeral(k), pair)
        raise RefusedError("no witness below the bound; the sentence is false")
    match f:
        case Not(g):
            return prove_false(bank, g, budget)
        case And(l, r):
            return T.and_intro(
                prove_true(bank, l, budget), prove_true(bank, r, budget)
            )
        case Or(l, r):
            if eval_budgeted(l, budget) is Truth.TRUE:
                return T.or_left(prove_true(bank, l, budget), r)
            if eval_budgeted(r, budget) is Truth.TRUE:
                return T.or_right(l, prove_true(bank, r, budget))
            raise BudgetExhaustedError(
                "neither disjunct settles as true", budget=budget
            )
        case Imp(l, r):
            if eval_budgeted(l, budget) is Truth.FALSE:
                nl = prove_false(bank, l, budget)
                return T.discharge(T.contradiction_to(T.hyp(l), nl, r), l)
            if eval_budgeted(r, budget) is Truth.TRUE:
                return T.k_lift(prove_true(bank, r, budget), l)
            raise BudgetExhaustedError(
                "antecedent and consequent both unsettled", budget=budget
            )
        case Iff(l, r):
            tl = eval_budgeted(l, budget)
            if tl is Truth.TRUE:
                pl, pr = prove_true(bank, l, budget), prove_true(bank, r, budget)
                return T.iff_intro(T.k_lift(pr, l), T.k_lift(pl, r))
            if tl is Truth.FALSE:
                nl, nr = prove_false(bank, l, budget), prove_false(bank, r, budget)
                fwd = T.discharge(T.contradiction_to(T.hyp(l), nl, r), l)
                back = T.discharge(T.contradiction_to(T.hyp(r), nr, l), r)
                return T.iff_intro(fwd, back)
            raise BudgetExhaustedError("biconditional unsettled", budget=budget)
        case Eq(t, u):
            vt, vu = eval_term(t, {}), eval_term(u, {})
            if vt != vu:
                raise RefusedError("the sides differ; the equation is false")
            return T.eq_trans(
                bank.eval_closed(t), T.eq_sym(bank.eval_closed(u))
            )
        case Le(t, u):
            vt, vu = eval_term(t, {}), eval_term(u, {})
            if vt > vu:
                raise RefusedError("the comparison fails; the sentence is false")
            return T.le_transport(
                T.eq_sym(bank.eval_closed(t)),
                T.eq_sym(bank.eval_closed(u)),
                bank.le(vt, vu),
            )
        case Exists(v, body):
            for k in range(budget + 1):
                if eval_budgeted(body, budget, {v: k}) is Truth.TRUE:
                    inst = substitute(body, v, numeral(k))
                    return T.exists_intro(
                        v, body, numeral(k), prove_true(bank, inst, budget)
                    )
            raise BudgetExhaustedError(
                f"no witness at or below {budget}", budget=budget
            )
        case Forall(_, _):
            raise InputError("unbounded universal outside the supported fragment")
    raise InputError(f"cannot establish {render(f)!r}")

def prove_false(bank: LemmaBank, f: Formula, budget: int) -> T.Proof:
    """A proof of the negation of the false closed sentence f.

    f is read as its expansion, as in `prove_true`; the failing
    instance, conjunct or side is the evaluator's first.
    """
    f = expand_bounded(f)
    gp = _guard_parts(f)
    if gp is not None:
        kind, v, bound, body = gp
        if free_vars(bound):
            raise InputError("quantifier bound is not closed here")
        m = eval_term(bound, {})
        if kind == "ball":
            failing = next(
                (k for k in range(m)
                 if eval_budgeted(body, budget, {v: k}) is Truth.FALSE),
                None,
            )
            if failing is None:
                raise RefusedError("no failing instance; the sentence is true")
            inst = T.forall_elim(T.hyp(f), numeral(failing))
            pos = T.mp(inst, bank._lt(failing, bound, m))
            neg = prove_false(bank, 
                substitute(body, v, numeral(failing)), budget
            )
            return bank._refute(f, T.contradiction_to(pos, neg, _C0))
        conj = f.body
        hc = T.hyp(conj)

        def branch(k: int, hek: T.Proof) -> T.Proof:
            nk = prove_false(bank, substitute(body, v, numeral(k)), budget)
            lb = bank.leib(body, v, Var(v), numeral(k))
            pos = T.mp(T.mp(lb, hek), T.and_right(hc))
            return T.contradiction_to(pos, nk, _C0)

        c = bank._below(v, bound, m, T.and_left(hc), _C0, branch)
        shifted = T.gen(v, T.discharge(c, conj))
        exs = T.mp(T.s_ex_shift(v, conj, _C0), shifted)
        return T.contrapose(exs, bank.ne(0, 1))
    match f:
        case Not(g):
            return T.dn_intro(prove_true(bank, g, budget))
        case And(l, r):
            hc = T.hyp(f)
            if eval_budgeted(l, budget) is Truth.FALSE:
                c = T.contradiction_to(
                    T.and_left(hc), prove_false(bank, l, budget), _C0
                )
            elif eval_budgeted(r, budget) is Truth.FALSE:
                c = T.contradiction_to(
                    T.and_right(hc), prove_false(bank, r, budget), _C0
                )
            else:
                raise BudgetExhaustedError(
                    "neither conjunct settles as false", budget=budget
                )
            return bank._refute(f, c)
        case Or(l, r):
            nl = prove_false(bank, l, budget)
            nr = prove_false(bank, r, budget)
            bl = T.discharge(T.contradiction_to(T.hyp(l), nl, _C0), l)
            br = T.discharge(T.contradiction_to(T.hyp(r), nr, _C0), r)
            return bank._refute(f, T.or_elim(T.hyp(f), bl, br))
        case Imp(l, r):
            pos = T.mp(T.hyp(f), prove_true(bank, l, budget))
            c = T.contradiction_to(pos, prove_false(bank, r, budget), _C0)
            return bank._refute(f, c)
        case Iff(l, r):
            hc = T.hyp(f)
            if eval_budgeted(l, budget) is Truth.TRUE:
                pos = T.mp(T.iff_left(hc), prove_true(bank, l, budget))
                c = T.contradiction_to(
                    pos, prove_false(bank, r, budget), _C0
                )
            elif eval_budgeted(r, budget) is Truth.TRUE:
                pos = T.mp(T.iff_right(hc), prove_true(bank, r, budget))
                c = T.contradiction_to(
                    pos, prove_false(bank, l, budget), _C0
                )
            else:
                raise BudgetExhaustedError(
                    "biconditional unsettled", budget=budget
                )
            return bank._refute(f, c)
        case Eq(t, u):
            vt, vu = eval_term(t, {}), eval_term(u, {})
            if vt == vu:
                raise RefusedError("the sides agree; the equation is true")
            chain = T.eq_chain(
                T.eq_sym(bank.eval_closed(t)), T.hyp(f), bank.eval_closed(u)
            )
            c = T.contradiction_to(chain, bank.ne(vt, vu), _C0)
            return bank._refute(f, c)
        case Le(t, u):
            vt, vu = eval_term(t, {}), eval_term(u, {})
            if vt <= vu:
                raise RefusedError("the comparison holds; the sentence is true")
            moved = T.le_transport(
                bank.eval_closed(t), bank.eval_closed(u), T.hyp(f)
            )
            c = T.contradiction_to(moved, bank.nle(vt, vu), _C0)
            return bank._refute(f, c)
        case Exists(_, _):
            raise RefusedError("cannot refute an unbounded existential")
        case Forall(_, _):
            raise InputError("unbounded universal outside the supported fragment")
    raise InputError(f"cannot refute {render(f)!r}")


# --------------------------------------------------- whole-tree proof walks

def proof_children(p: Proof) -> tuple[Proof, ...]:
    match p:
        case MP(imp=a, arg=b):
            return (a, b)
        case Gen(arg=a):
            return (a,)
    return ()


def full_postorder(root: Proof) -> list[Proof]:
    """Every distinct node of a proof tree, children first (arg before imp):
    the walk the compiler and the deduction theorem made before proof nodes
    knew whether they were closed."""
    seen: set[int] = set()
    order: list[Proof] = []
    stack: list[tuple[Proof, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in proof_children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def discharge_reference(p: Proof, h: Formula) -> Proof:
    """The deduction theorem over the full postorder: every node gets a
    uses-h flag, then the nodes using h are rebuilt."""
    order = full_postorder(p)
    uses: dict[int, bool] = {}
    for node in order:
        flag = type(node) is Hyp and render(node.formula) == render(h)
        for child in proof_children(node):
            flag = flag or uses[id(child)]
        uses[id(node)] = flag

    if not uses[id(p)]:
        return T.k_lift(p, h)

    h_free = free_vars(h)
    result: dict[int, Proof] = {}

    def lifted(node: Proof) -> Proof:
        if uses[id(node)]:
            return result[id(node)]
        return T.k_lift(node, h)

    for node in order:
        if not uses[id(node)]:
            continue
        match node:
            case Hyp():
                result[id(node)] = T.imp_refl(h)
            case MP(imp=pi, arg=pa, formula=f):
                di = lifted(pi)
                da = lifted(pa)
                s = T.s_imp_s(h, pa.formula, f)
                result[id(node)] = T.mp(T.mp(s, di), da)
            case Gen(var=v, arg=pa):
                if v in h_free:
                    raise TacticError(
                        f"cannot discharge over generalization of v{v},"
                        f" free in hypothesis {render(h)!r}"
                    )
                da = lifted(pa)
                shifted = T.s_all_shift(v, h, pa.formula)
                result[id(node)] = T.mp(shifted, T.gen(v, da))
    return result[id(p)]


def compile_proof_reference(p: Proof, dedup: bool = True) -> Derivation:
    """Flatten a closed proof tree, keying each step by the rendered text of
    its formula: the compiler as it was before steps were keyed by
    structure.  Without dedup every proof node gets its own line."""
    order = full_postorder(p)
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


# ------------------------------------------------ schema pattern interpreter

def pattern_match(pattern, expr, binding: dict) -> bool:
    """Whether expr matches a `proofs._PATTERN_SCHEMAS` pattern under
    binding, walking the pattern recursively: the kernel's matcher before
    each pattern was staged into flat tests."""
    tag = pattern[0]
    if tag in ("F", "T") and len(pattern) == 2:
        if not (is_formula(expr) if tag == "F" else is_term(expr)):
            return False
        prev = binding.setdefault(pattern[1], expr)
        return prev is expr or expand_bounded(prev) is expand_bounded(expr)
    node = _PATTERN_NODES.get(tag)
    if node is None or len(pattern) != len(node[1]) + 1:
        raise InputError(f"bad pattern {pattern!r}")
    if type(expr) is not node[0]:
        return False
    for sub, field in zip(pattern[1:], node[1]):
        if not pattern_match(sub, getattr(expr, field), binding):
            return False
    return True


# ------------------------------------------------------- reference renderer

def _is_composite(t: Term) -> bool:
    return type(t) is Add or type(t) is Mul


_SYMBOLS = {Add: "+", Mul: "*", Eq: "=", Le: "<=", And: "&", Or: "|", Imp: "->", Iff: "<->",
            Forall: "A", Exists: "E"}


def render_reference(e) -> Iterator[str]:
    """The canonical tokens of e's expansion, one at a time, by a walk with
    a parenthesis flag per node instead of the text fold's ropes."""
    e = expand_bounded(e)
    stack: list[object] = [(e, False)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            yield item
            continue
        node, paren = item  # type: ignore[misc]
        if paren:
            yield "("
            stack.append(")")
        # successor chains emitted without growing the stack
        n = 0
        while type(node) is Succ:
            n += 1
            node = node.arg
        for _ in range(n):
            yield "s"
        if n and _is_composite(node):
            # a bare core would re-parse with the successors on its left operand
            yield "("
            stack.append(")")
        match node:
            case Zero():
                yield "0"
            case Var(i):
                yield f"v{i}"
            case Add(l, r) | Mul(l, r):
                stack.append((r, _is_composite(r)))
                stack.append(_SYMBOLS[type(node)])
                stack.append((l, _is_composite(l)))
            case Eq(l, r) | Le(l, r):
                stack.append((r, False))
                stack.append(_SYMBOLS[type(node)])
                stack.append((l, False))
            case Not(b):
                yield "~"
                stack.append((b, True))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.append((r, True))
                stack.append(_SYMBOLS[type(node)])
                stack.append((l, True))
            case Forall(v, b) | Exists(v, b):
                yield from ("(", _SYMBOLS[type(node)], f"v{v}", ")")
                stack.append((b, True))
            case _:
                raise TypeError(f"not a term or formula node: {node!r}")


# ------------------------------------------------------ the AST's JSON form

_JSON_TYPES = {t.__name__.lower(): t for t in syntax.CHILDREN}
_JSON_FIELD_KEY = {"index": "i", "var": "i", "arg": "t", "body": "f", "bound": "b",
                   "left": "l", "right": "r"}


def from_json_obj(obj: dict):
    """The node of a tagged JSON object, the inverse of `cli.to_json_obj`:
    a postorder over the objects that builds each from its fields' values
    once every child object is built.  Iterative, so deep objects are safe."""
    built: dict[int, object] = {}  # id(JSON object) -> its node
    stack = [obj]
    while stack:
        o = stack[-1]
        if id(o) in built:
            stack.pop()
            continue
        if not isinstance(o, dict) or o.get("k") not in _JSON_TYPES:
            raise ValueError(f"not a tagged AST object: {o!r}")
        kind = _JSON_TYPES[o["k"]]
        values = [o[_JSON_FIELD_KEY[name]] for name in kind.__match_args__]
        n_ints = len(values) - len(syntax.CHILDREN[kind])
        pending = [v for v in values[n_ints:] if id(v) not in built]
        if pending:
            stack += pending
            continue
        stack.pop()
        built[id(o)] = kind(*values[:n_ints], *(built[id(v)] for v in values[n_ints:]))
    return built[id(obj)]


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


# ---------------------------------------------- reading derivations, per line

_SPLIT_RE = re.compile(r" \) (<->|->|&|\|) \( ")


def split_reference(text: str) -> re.Match | None:
    """For a text `( X ) c ( Y )`, the ` ) c ( ` match that ends X: the
    first candidate, tried left to right, before which the parentheses
    after `( ` balance."""
    if not (text.startswith("( ") and text.endswith(" )")):
        return None
    depth, i = 0, 2
    for m in _SPLIT_RE.finditer(text, 2, len(text) - 2):
        j = m.start()
        depth += text.count("(", i, j) - text.count(")", i, j)
        if depth == 0:
            return m
        i = m.end()
    return None


def from_json_lines_reference(lines) -> Derivation:
    """A derivation read by `json.loads` per line, with generator field
    checks.  A line nested too deeply for the decoder, or holding a number
    past the int/str digit limit, raises RecursionError or ValueError."""
    steps: list[Step] = []
    memo: dict = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as err:
            raise InputError(f"line {lineno}: bad JSON: {err}") from err
        if not isinstance(obj, dict) or "f" not in obj or "rule" not in obj:
            raise InputError(f"line {lineno}: step needs 'f' and 'rule'")
        if not isinstance(obj["f"], str):
            raise InputError(f"line {lineno}: 'f' must be a formula text")
        rule, name, premises = obj["rule"], obj.get("name"), obj.get("prem", [])
        if type(rule) is not str or name is not None and type(name) is not str:
            raise InputError(f"line {lineno}: 'rule' and 'name' must be strings")
        if type(premises) is not list or any(type(p) is not int for p in premises):
            raise InputError(f"line {lineno}: 'prem' must be a list of step indices")
        expected, var = obj.get("i"), obj.get("var")
        if any(x is not None and type(x) is not int for x in (expected, var)):
            raise InputError(f"line {lineno}: 'i' and 'var' must be integers")
        if expected is not None and expected != len(steps):
            raise InputError(f"line {lineno}: index {expected} out of order")
        try:
            formula = parse_formula(obj["f"], memo)
        except ParseError as err:
            raise InputError(f"line {lineno}: {err}") from err
        except RecursionError as err:
            raise InputError(f"line {lineno}: formula nested too deeply to read") from err
        steps.append(Step(formula, rule, tuple(premises), name, var))
    return Derivation(tuple(steps))


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
