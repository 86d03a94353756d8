"""AST for first-order arithmetic: terms, formulas, and the core syntactic ops.

The concrete syntax is whitespace-separated tokens, one token per length
unit: `0 s + * = <= ~ & | -> <-> A E ( ) v<digits>`.  Rendering is
canonical: every proper subformula is wrapped in one parenthesis pair, a
quantifier prefix renders as `( A vi )`, and a term operand gets a pair
exactly when it is Add/Mul-headed.  Bounded quantifiers are surface
abbreviations; length and rendering always go through the expanded form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Succ:
    arg: "Term"


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Eq:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Le:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Imp:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: int
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: int
    body: "Formula"


@dataclass(frozen=True)
class BForall:
    """Bounded universal: holds for all values of `var` strictly below `bound`."""

    var: int
    bound: "Term"
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in free_vars(self.bound):
            raise ValueError("bound term may not mention the bound variable")


@dataclass(frozen=True)
class BExists:
    """Bounded existential: some value of `var` strictly below `bound`."""

    var: int
    bound: "Term"
    body: "Formula"

    def __post_init__(self) -> None:
        if self.var in free_vars(self.bound):
            raise ValueError("bound term may not mention the bound variable")


Term = Union[Zero, Var, Succ, Add, Mul]
Formula = Union[Eq, Le, Not, And, Or, Imp, Iff, Forall, Exists, BForall, BExists]
Expr = Union[Term, Formula]

_TERM_TYPES = (Zero, Var, Succ, Add, Mul)
_BINARY_CONNECTIVES = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def is_term(e: Expr) -> bool:
    return isinstance(e, _TERM_TYPES)


def is_formula(e: Expr) -> bool:
    return not isinstance(e, _TERM_TYPES)


# numerals share tails, so the cache never holds more nodes than the
# largest value requested so far
_NUMERALS: list[Term] = [Zero()]


def numeral(n: int) -> Term:
    if n < 0:
        raise ValueError("numerals are naturals")
    while len(_NUMERALS) <= n:
        _NUMERALS.append(Succ(_NUMERALS[-1]))
    return _NUMERALS[n]


def numeral_value(t: Term) -> int | None:
    """Value of a pure successor-chain term, None if it is not one."""
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.arg
    return n if type(t) is Zero else None


# ---------------------------------------------------------------- traversal

def free_vars(e: Expr) -> frozenset[int]:
    out: set[int] = set()
    # (node, bound-set) pairs; successor chains unrolled to keep the stack flat
    stack: list[tuple[Expr, frozenset[int]]] = [(e, frozenset())]
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


def all_var_indices(e: Expr) -> frozenset[int]:
    """Every variable index occurring at all, free or bound or as binder."""
    out: set[int] = set()
    stack: list[Expr] = [e]
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


def is_closed(e: Expr) -> bool:
    return not free_vars(e)


# ---------------------------------------------------------------- rendering

def _is_composite(t: Term) -> bool:
    return type(t) is Add or type(t) is Mul


def expand_bounded(e: Expr) -> Expr:
    """Replace every bounded quantifier by its guarded unbounded form.

    (forall v < b) f  becomes  forall v ((s v <= b) -> f)
    (exists v < b) f  becomes  exists v ((s v <= b) & f)

    A subtree with no bounded quantifier is returned as it is, not copied.
    """
    if type(e) is Eq or type(e) is Le:  # the commonest node, and a leaf here
        return e
    match e:
        case BForall(v, t, b):
            return Forall(v, Imp(Le(Succ(Var(v)), t), expand_bounded(b)))
        case BExists(v, t, b):
            return Exists(v, And(Le(Succ(Var(v)), t), expand_bounded(b)))
        case Not(b):
            b2 = expand_bounded(b)
            return e if b2 is b else Not(b2)
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            l2, r2 = expand_bounded(l), expand_bounded(r)
            return e if l2 is l and r2 is r else type(e)(l2, r2)
        case Forall(v, b) | Exists(v, b):
            b2 = expand_bounded(b)
            return e if b2 is b else type(e)(v, b2)
        case _:
            return e


def token_stream(e: Expr) -> Iterator[str]:
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
            case Add(l, r):
                stack.append((r, _is_composite(r)))
                stack.append("+")
                stack.append((l, _is_composite(l)))
            case Mul(l, r):
                stack.append((r, _is_composite(r)))
                stack.append("*")
                stack.append((l, _is_composite(l)))
            case Eq(l, r):
                stack.append((r, False))
                stack.append("=")
                stack.append((l, False))
            case Le(l, r):
                stack.append((r, False))
                stack.append("<=")
                stack.append((l, False))
            case Not(b):
                yield "~"
                stack.append((b, True))
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.append((r, True))
                stack.append(_BINARY_CONNECTIVES[type(node)])
                stack.append((l, True))
            case Forall(v, b):
                yield "("
                yield "A"
                yield f"v{v}"
                yield ")"
                stack.append((b, True))
            case Exists(v, b):
                yield "("
                yield "E"
                yield f"v{v}"
                yield ")"
                stack.append((b, True))
            case _:
                raise TypeError(f"not a term or formula node: {node!r}")


def tokens(e: Expr) -> list[str]:
    return list(token_stream(e))


def render(e: Expr) -> str:
    return " ".join(token_stream(e))


def length(e: Expr) -> int:
    """Token count of the canonical rendering of the expanded form."""
    n = 0
    for _ in token_stream(e):
        n += 1
    return n


def _token_equal(a: Expr, b: Expr) -> bool:
    sentinel = object()
    ia, ib = token_stream(a), token_stream(b)
    while True:
        ta = next(ia, sentinel)
        tb = next(ib, sentinel)
        if ta is not tb and ta != tb:
            return False
        if ta is sentinel:
            return True


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality modulo bounded-quantifier expansion.

    Safe on arbitrarily deep terms, unlike ==, which recurses.  Shared
    subtrees compare in constant time, so proof machinery that rebuilds
    wrappers around existing nodes stays cheap.
    """
    stack: list[tuple[Expr, Expr]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        tx = type(x)
        if tx is not type(y):
            # one side may carry sugar the other has expanded
            if not _token_equal(x, y):
                return False
            continue
        if tx is Zero:
            continue
        if tx is Var:
            if x.index != y.index:
                return False
        elif tx is Succ:
            while type(x) is Succ and type(y) is Succ and x is not y:
                x, y = x.arg, y.arg
            stack.append((x, y))
        elif tx is Not:
            stack.append((x.body, y.body))
        elif tx in (Add, Mul, Eq, Le, And, Or, Imp, Iff):
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
        elif tx in (Forall, Exists):
            if x.var != y.var:
                return False
            stack.append((x.body, y.body))
        elif tx in (BForall, BExists):
            if x.var != y.var:
                return False
            stack.append((x.bound, y.bound))
            stack.append((x.body, y.body))
        else:
            raise TypeError(f"not a term or formula node: {x!r}")
    return True


_CODES = {t: i for i, t in enumerate(
    (Zero, Var, Succ, Add, Mul, Eq, Le, Not, And, Or, Imp, Iff, Forall, Exists))}

# per node type: its int field and its children, in rendering order
_PARTS = {
    Zero: lambda n: (0, ()),
    Var: lambda n: (n.index, ()),
    Succ: lambda n: (0, (n.arg,)),
    Not: lambda n: (0, (n.body,)),
    **dict.fromkeys(
        (Forall, Exists), lambda n: (n.var, (n.body,))),
    **dict.fromkeys(
        (BForall, BExists), lambda n: (n.var, (n.bound, n.body))),
    **dict.fromkeys(
        (Add, Mul, Eq, Le, And, Or, Imp, Iff), lambda n: (0, (n.left, n.right))),
}


class StructureKeys:
    """Numbers expressions: two get the same int exactly when they render
    alike, i.e. structural equality modulo bounded-quantifier expansion.

    Hash-consing scoped to the table's owner (Filliatre & Conchon, Type-Safe
    Modular Hash-Consing, 2006): each node object is numbered once, by id(),
    and kept alive beside its number so the id stays valid.  A node's shape
    is (type, int field, child numbers) and each distinct shape gets the
    next int.  Iterative, so deep terms are safe.
    """

    __slots__ = ("_known", "_alive", "_shapes")

    def __init__(self) -> None:
        self._known: dict[int, int] = {}  # id(node) -> number
        self._alive: list[Expr] = []  # the numbered nodes, so ids stay valid
        self._shapes: dict[int, int] = {}

    def _number(self, kind: type, field: int, *nums: int) -> int:
        # the shape packed into one int, not a tuple: a table frees all its
        # shapes at once, and freed tuples would stay in the tuple free lists.
        # A table never holds 2**32 shapes, so 32 bits per child suffice.
        shape = field
        for n in nums:
            shape = shape << 32 | n
        shape = shape << 4 | _CODES[kind]
        return self._shapes.setdefault(shape, len(self._shapes))

    def __call__(self, e: Expr) -> int:
        known = self._known
        hit = known.get(id(e))
        if hit is not None:
            return hit
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in known:
                stack.pop()
                continue
            kind = type(node)
            parts = _PARTS.get(kind)
            if parts is None:
                raise TypeError(f"not a term or formula node: {node!r}")
            field, kids = parts(node)
            nums = [known.get(id(k)) for k in kids]
            if None in nums:
                stack.extend(k for k in reversed(kids) if id(k) not in known)
                continue
            stack.pop()
            if kind is BForall or kind is BExists:
                # numbered as its expansion (A|E v)((s v <= b) ->|& f)
                succ_v = self._number(Succ, 0, self._number(Var, field))
                guard = self._number(Le, 0, succ_v, nums[0])
                if kind is BForall:
                    n = self._number(Forall, field, self._number(Imp, 0, guard, nums[1]))
                else:
                    n = self._number(Exists, field, self._number(And, 0, guard, nums[1]))
            else:
                n = self._number(kind, field, *nums)
            known[id(node)] = n
            self._alive.append(node)
        return known[id(e)]


def alpha_equal(a: Expr, b: Expr) -> bool:
    """Equality up to consistent renaming of bound variables."""
    a = expand_bounded(a)
    b = expand_bounded(b)
    stack: list[tuple[Expr, Expr, dict[int, int], dict[int, int]]] = [(a, b, {}, {})]
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
                j = y.index  # type: ignore[union-attr]
                if i in fwd or j in rev:
                    if fwd.get(i) != j or rev.get(j) != i:
                        return False
                elif i != j:
                    return False
            case Add(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r):
                stack.append((l, y.left, fwd, rev))  # type: ignore[union-attr]
                stack.append((r, y.right, fwd, rev))  # type: ignore[union-attr]
            case Not(body):
                stack.append((body, y.body, fwd, rev))  # type: ignore[union-attr]
            case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
                stack.append((l, y.left, fwd, rev))  # type: ignore[union-attr]
                stack.append((r, y.right, fwd, rev))  # type: ignore[union-attr]
            case Forall(v, body) | Exists(v, body):
                w = y.var  # type: ignore[union-attr]
                stack.append(
                    (body, y.body, {**fwd, v: w}, {**rev, w: v})  # type: ignore[union-attr]
                )
            case _:
                raise TypeError(f"not a term or formula node: {x!r}")
    return True


# ------------------------------------------------------------- substitution

def _subst_term(t: Term, i: int, repl: Term) -> Term:
    # iterative rebuild; replacement subtrees are inserted without traversal
    if i not in free_vars(t):
        return t
    done: dict[int, Term] = {}
    stack: list[tuple[Term, bool]] = [(t, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in done:
            continue
        match node:
            case Zero():
                done[id(node)] = node
            case Var(j):
                done[id(node)] = repl if j == i else node
            case Succ(a):
                # whole successor spines are shared or rewrapped in one go
                n, core = 1, a
                while type(core) is Succ:
                    n += 1
                    core = core.arg
                match core:
                    case Zero():
                        done[id(node)] = node
                        continue
                    case Var(j):
                        if j != i:
                            done[id(node)] = node
                            continue
                        out = repl
                        for _ in range(n):
                            out = Succ(out)
                        done[id(node)] = out
                        continue
                if ready:
                    out = done[id(core)]
                    for _ in range(n):
                        out = Succ(out)
                    done[id(node)] = out
                else:
                    stack.append((node, True))
                    stack.append((core, False))
            case Add(l, r) | Mul(l, r):
                if ready:
                    done[id(node)] = type(node)(done[id(l)], done[id(r)])
                else:
                    stack.append((node, True))
                    stack.append((l, False))
                    stack.append((r, False))
    return done[id(t)]


def _fresh_index(avoid: set[int]) -> int:
    k = 0
    while k in avoid:
        k += 1
    return k


def substitute(e: Expr, i: int, repl: Term) -> Expr:
    """Replace free occurrences of v_i by `repl`, renaming binders on capture."""
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
            case And(l, r):
                return And(go(l), go(r))
            case Or(l, r):
                return Or(go(l), go(r))
            case Imp(l, r):
                return Imp(go(l), go(r))
            case Iff(l, r):
                return Iff(go(l), go(r))
            case Forall(v, b) | Exists(v, b):
                kind = type(f)
                if v == i or i not in free_vars(b):
                    return f
                if v in repl_free:
                    w = _fresh_index(set(repl_free) | set(free_vars(b)) | {i})
                    b = substitute(b, v, Var(w))  # type: ignore[assignment]
                    return kind(w, go(b))  # type: ignore[arg-type]
                return kind(v, go(b))  # type: ignore[arg-type]
            case BForall(v, t, b) | BExists(v, t, b):
                kind = type(f)
                t2 = _subst_term(t, i, repl)
                if v == i or i not in free_vars(b):
                    return kind(v, t2, b)  # type: ignore[arg-type]
                if v in repl_free:
                    w = _fresh_index(set(repl_free) | set(free_vars(b)) | {i})
                    b = substitute(b, v, Var(w))
                    return kind(w, t2, go(b))  # type: ignore[arg-type]
                return kind(v, t2, go(b))  # type: ignore[arg-type]
        raise TypeError(f"not a formula node: {f!r}")

    return go(e)


# ------------------------------------------------------------ normalization

def rename_to_first(f: Formula, j: int) -> Formula:
    """Canonically rename bound variables so all indices stay below j.

    Each binder takes the smallest index >= 1 whose variable is not free in
    that binder's body (with enclosing binders already mapped).  The result
    is the canonical alpha-variant; formulas already in that shape are fixed
    points.  Requires free variables within {v0} and length(f) < j.
    """
    fv = free_vars(f)
    if fv - {0}:
        raise ValueError(f"free variables beyond v0: {sorted(fv - {0})}")
    if length(f) >= j:
        raise ValueError("formula too long for the requested variable window")

    def go(g: Formula, rho: dict[int, int]) -> Formula:
        match g:
            case Eq(_, _) | Le(_, _):
                return _apply_rho(g, rho)
            case Not(b):
                return Not(go(b, rho))
            case And(l, r):
                return And(go(l, rho), go(r, rho))
            case Or(l, r):
                return Or(go(l, rho), go(r, rho))
            case Imp(l, r):
                return Imp(go(l, rho), go(r, rho))
            case Iff(l, r):
                return Iff(go(l, rho), go(r, rho))
            case Forall(v, b) | Exists(v, b):
                kind = type(g)
                other = {rho.get(y, y) for y in free_vars(b) - {v}}
                idx = 1
                while idx in other:
                    idx += 1
                return kind(idx, go(b, {**rho, v: idx}))  # type: ignore[arg-type]
            case BForall(v, t, b) | BExists(v, t, b):
                kind = type(g)
                t2 = _apply_rho_term(t, rho)
                other = {rho.get(y, y) for y in free_vars(b) - {v}}
                idx = 1
                while idx in other:
                    idx += 1
                return kind(idx, t2, go(b, {**rho, v: idx}))  # type: ignore[arg-type]
        raise TypeError(f"not a formula node: {g!r}")

    out = go(f, {0: 0})
    assert all(v < j for v in all_var_indices(out))
    return out


def _apply_rho_term(t: Term, rho: dict[int, int]) -> Term:
    out = t
    for src in sorted(free_vars(t), reverse=True):
        dst = rho.get(src, src)
        if dst != src:
            out = _subst_term(out, src, Var(dst))
    return out


def _apply_rho(g: Formula, rho: dict[int, int]) -> Formula:
    match g:
        case Eq(l, r):
            return Eq(_apply_rho_term(l, rho), _apply_rho_term(r, rho))
        case Le(l, r):
            return Le(_apply_rho_term(l, rho), _apply_rho_term(r, rho))
    raise TypeError(f"expected an atomic formula: {g!r}")


# ------------------------------------------------------------ classification

class FormulaClass(Enum):
    DELTA0 = "delta0"
    SIGMA1 = "sigma1"
    SIGMA = "sigma"
    OTHER = "other"


def guarded_forall(f: Formula) -> tuple[int, Term, Formula] | None:
    """Match forall v ((s v <= b) -> body) with v not free in b."""
    match f:
        case Forall(v, Imp(Le(Succ(Var(w)), b), body)) if w == v and v not in free_vars(b):
            return v, b, body
    return None


def guarded_exists(f: Formula) -> tuple[int, Term, Formula] | None:
    """Match exists v ((s v <= b) & body) with v not free in b."""
    match f:
        case Exists(v, And(Le(Succ(Var(w)), b), body)) if w == v and v not in free_vars(b):
            return v, b, body
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
            g = guarded_forall(f)
            return g is not None and _is_delta0(g[2])
        case Exists(_, _):
            g = guarded_exists(f)
            return g is not None and _is_delta0(g[2])
    return False


def _is_sigma(f: Formula) -> bool:
    if _is_delta0(f):
        return True
    match f:
        case And(l, r) | Or(l, r):
            return _is_sigma(l) and _is_sigma(r)
        case Exists(_, b):
            g = guarded_exists(f)
            if g is not None:
                return _is_sigma(g[2])
            return _is_sigma(b)
        case Forall(_, _):
            g = guarded_forall(f)
            return g is not None and _is_sigma(g[2])
    return False


def classify(f: Formula) -> FormulaClass:
    """Most specific syntactic class of the expanded formula."""
    f = expand_bounded(f)  # type: ignore[assignment]
    if _is_delta0(f):
        return FormulaClass.DELTA0
    if type(f) is Exists and _is_delta0(f.body):
        return FormulaClass.SIGMA1
    if _is_sigma(f):
        return FormulaClass.SIGMA
    return FormulaClass.OTHER


# ----------------------------------------------------------------- JSON AST

_JSON_KINDS: dict[type, str] = {
    Zero: "zero", Var: "var", Succ: "succ", Add: "add", Mul: "mul",
    Eq: "eq", Le: "le", Not: "not", And: "and", Or: "or", Imp: "imp",
    Iff: "iff", Forall: "forall", Exists: "exists",
    BForall: "bforall", BExists: "bexists",
}


def to_json_obj(e: Expr) -> dict:
    k = _JSON_KINDS[type(e)]
    match e:
        case Zero():
            return {"k": k}
        case Var(i):
            return {"k": k, "i": i}
        case Succ(a):
            return {"k": k, "t": to_json_obj(a)}
        case Add(l, r) | Mul(l, r) | Eq(l, r) | Le(l, r):
            return {"k": k, "l": to_json_obj(l), "r": to_json_obj(r)}
        case Not(b):
            return {"k": k, "f": to_json_obj(b)}
        case And(l, r) | Or(l, r) | Imp(l, r) | Iff(l, r):
            return {"k": k, "l": to_json_obj(l), "r": to_json_obj(r)}
        case Forall(v, b) | Exists(v, b):
            return {"k": k, "i": v, "f": to_json_obj(b)}
        case BForall(v, t, b) | BExists(v, t, b):
            return {"k": k, "i": v, "b": to_json_obj(t), "f": to_json_obj(b)}
    raise TypeError(f"unknown node: {e!r}")


def from_json_obj(obj: dict) -> Expr:
    if not isinstance(obj, dict) or "k" not in obj:
        raise ValueError(f"not a tagged AST object: {obj!r}")
    k = obj["k"]
    try:
        match k:
            case "zero":
                return Zero()
            case "var":
                return Var(int(obj["i"]))
            case "succ":
                return Succ(from_json_obj(obj["t"]))
            case "add" | "mul" | "eq" | "le" | "and" | "or" | "imp" | "iff":
                ctor = {"add": Add, "mul": Mul, "eq": Eq, "le": Le,
                        "and": And, "or": Or, "imp": Imp, "iff": Iff}[k]
                return ctor(from_json_obj(obj["l"]), from_json_obj(obj["r"]))
            case "not":
                return Not(from_json_obj(obj["f"]))
            case "forall":
                return Forall(int(obj["i"]), from_json_obj(obj["f"]))
            case "exists":
                return Exists(int(obj["i"]), from_json_obj(obj["f"]))
            case "bforall":
                return BForall(int(obj["i"]), from_json_obj(obj["b"]), from_json_obj(obj["f"]))
            case "bexists":
                return BExists(int(obj["i"]), from_json_obj(obj["b"]), from_json_obj(obj["f"]))
    except KeyError as exc:
        raise ValueError(f"AST object {k!r} missing field {exc}") from exc
    raise ValueError(f"unknown AST kind {k!r}")
