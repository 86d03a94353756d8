"""AST for first-order arithmetic: terms, formulas, and the core syntactic ops.

The concrete syntax is whitespace-separated tokens, one token per length
unit: `0 s + * = <= ~ & | -> <-> A E ( ) v<digits>`.  Rendering is
canonical: every proper subformula is wrapped in one parenthesis pair, a
quantifier prefix renders as `( A vi )`, and a term operand gets a pair
exactly when it is Add/Mul-headed.  Bounded quantifiers are surface
abbreviations; length and rendering always go through the expanded form.

Nodes are hash-consed (Filliatre & Conchon, Type-Safe Modular Hash-Consing,
2006): structurally equal nodes are one object, so identity is the only
notion of equality, and `==` and `hash` are O(1) at any depth.  Each node
stores its expansion, so two expressions render alike exactly when
`expand_bounded` gives the same object for both.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError
from enum import Enum
from typing import Iterator, Union


# ---------------------------------------------------------------- AST nodes

# the live node of each (type, int fields, children) key; children hash and
# compare by identity, so a lookup is O(1) at any depth.  Not locked: nodes
# are built from one thread.
_TABLE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Node:
    """Base of every AST node: immutable, slotted and interned.

    Constructing a node returns the live node with the same type, int
    fields and children when there is one.  `_expanded` holds the node's
    bounded-quantifier expansion, or None when the node is its own (a
    self-reference would be a cycle only the cyclic collector frees).
    """

    __slots__ = ("__weakref__", "_expanded")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        try:
            node = _TABLE.get(key)
        except TypeError:  # an unhashable child; _build names it
            node = None
        if node is None:
            node = _build(cls, args)
            _TABLE[key] = node
        return node

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle rebuild through the table
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class Zero(_Node):
    __slots__ = ()


class Var(_Node):
    __slots__ = __match_args__ = ("index",)


class Succ(_Node):
    __slots__ = __match_args__ = ("arg",)


class Add(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Mul(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Eq(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Le(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Not(_Node):
    __slots__ = __match_args__ = ("body",)


class And(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Or(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Imp(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Iff(_Node):
    __slots__ = __match_args__ = ("left", "right")


class Forall(_Node):
    __slots__ = __match_args__ = ("var", "body")


class Exists(_Node):
    __slots__ = __match_args__ = ("var", "body")


class BForall(_Node):
    """Bounded universal: holds for all values of `var` strictly below `bound`."""

    __slots__ = __match_args__ = ("var", "bound", "body")


class BExists(_Node):
    """Bounded existential: some value of `var` strictly below `bound`."""

    __slots__ = __match_args__ = ("var", "bound", "body")


Term = Union[Zero, Var, Succ, Add, Mul]
Formula = Union[Eq, Le, Not, And, Or, Imp, Iff, Forall, Exists, BForall, BExists]
Expr = Union[Term, Formula]

# the child fields of each node type, in order; a node's int field, if it
# has one, comes first
CHILDREN: dict[type, tuple[str, ...]] = {
    Zero: (), Var: (), Succ: ("arg",), Not: ("body",),
    Forall: ("body",), Exists: ("body",),
    BForall: ("bound", "body"), BExists: ("bound", "body"),
    **{t: ("left", "right") for t in (Add, Mul, Eq, Le, And, Or, Imp, Iff)},
}
_TERM_TYPES = frozenset((Zero, Var, Succ, Add, Mul))
_FORMULA_TYPES = frozenset(CHILDREN) - _TERM_TYPES
_BINARY_CONNECTIVES = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


def _build(cls: type, args: tuple) -> Expr:
    """A new node of type cls, validated, with its expansion stored."""
    names = cls.__match_args__
    if len(args) != len(names):
        raise TypeError(f"{cls.__name__} takes {len(names)} fields, got {len(args)}")
    n_ints = len(names) - len(CHILDREN[cls])
    ints, kids = args[:n_ints], args[n_ints:]
    for kid in kids:
        if type(kid) not in CHILDREN:
            raise TypeError(f"not a term or formula node: {kid!r}")
    node = object.__new__(cls)
    for name, value in zip(names, args):
        object.__setattr__(node, name, value)
    if cls is BForall or cls is BExists:
        v, bound, body = args
        if v in free_vars(bound):
            raise ValueError("bound term may not mention the bound variable")
        body = body._expanded or body
        guard = Le(Succ(Var(v)), bound)
        expanded = Forall(v, Imp(guard, body)) if cls is BForall else Exists(v, And(guard, body))
    elif any(kid._expanded is not None for kid in kids):
        expanded = cls(*ints, *(k._expanded or k for k in kids))
    else:
        expanded = None
    object.__setattr__(node, "_expanded", expanded)
    return node


def is_term(e: Expr) -> bool:
    return type(e) in _TERM_TYPES


def is_formula(e: Expr) -> bool:
    return type(e) in _FORMULA_TYPES


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
    """Every bounded quantifier replaced by its guarded unbounded form.

    (forall v < b) f  becomes  forall v ((s v <= b) -> f)
    (exists v < b) f  becomes  exists v ((s v <= b) & f)

    Stored on each node when it is built, so this is a read.  A node with
    no bounded quantifier is its own expansion, and two expressions render
    alike exactly when their expansions are the same object.
    """
    expanded = getattr(e, "_expanded", None)
    return e if expanded is None else expanded


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
_JSON_TYPES = {k: t for t, k in _JSON_KINDS.items()}
# the JSON key of each field of each node type, in field order
_JSON_KEYS: dict[type, tuple[str, ...]] = {
    Zero: (), Var: ("i",), Succ: ("t",), Not: ("f",),
    Forall: ("i", "f"), Exists: ("i", "f"),
    BForall: ("i", "b", "f"), BExists: ("i", "b", "f"),
    **{t: ("l", "r") for t in (Add, Mul, Eq, Le, And, Or, Imp, Iff)},
}


def to_json_obj(e: Expr) -> dict:
    """The tagged JSON object of e; iterative, so deep terms are safe."""
    done: dict[Expr, dict] = {}
    stack = [e]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        kind = type(node)
        values = [getattr(node, name) for name in kind.__match_args__]
        n_ints = len(values) - len(CHILDREN[kind])
        kids = [v for v in values[n_ints:] if v not in done]
        if kids:
            stack.extend(kids)
            continue
        stack.pop()
        obj = {"k": _JSON_KINDS[kind]}
        for key, value in zip(_JSON_KEYS[kind], values):
            obj[key] = done.get(value, value)  # an int field is no key of done
        done[node] = obj
    return done[e]


def from_json_obj(obj: dict) -> Expr:
    """Inverse of to_json_obj; iterative, so deep objects are safe."""
    built: dict[int, Expr] = {}  # id(JSON object) -> its node
    stack = [obj]
    while stack:
        o = stack[-1]
        if id(o) in built:
            stack.pop()
            continue
        if not isinstance(o, dict) or "k" not in o:
            raise ValueError(f"not a tagged AST object: {o!r}")
        k = o["k"]
        kind = _JSON_TYPES.get(k)
        if kind is None:
            raise ValueError(f"unknown AST kind {k!r}")
        try:
            values = [o[key] for key in _JSON_KEYS[kind]]
        except KeyError as exc:
            raise ValueError(f"AST object {k!r} missing field {exc}") from exc
        n_ints = len(values) - len(CHILDREN[kind])
        kids = [v for v in values[n_ints:] if id(v) not in built]
        if kids:
            stack.extend(kids)
            continue
        stack.pop()
        built[id(o)] = kind(*map(int, values[:n_ints]), *(built[id(v)] for v in values[n_ints:]))
    return built[id(obj)]
