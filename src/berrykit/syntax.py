"""AST for first-order arithmetic: terms, formulas, and the core syntactic ops.

The concrete syntax is whitespace-separated tokens, one token per length
unit: `0 s + * = <= ~ & | -> <-> A E ( ) v<digits>`.  Rendering is
canonical: every proper subformula is wrapped in one parenthesis pair, a
quantifier prefix renders as `( A vi )`, and a term operand gets a pair
exactly when it is Add/Mul-headed.  Bounded quantifiers are surface
abbreviations; length and rendering always go through the expanded form.

Nodes are hash-consed (Filliatre & Conchon, Type-Safe Modular Hash-Consing,
2006): structurally equal nodes are one object, so identity is the only
notion of equality, and `==` and `hash` are O(1) at any depth.  The
intern table is a plain dict holding each node weakly, through a slotted
`weakref.ref` subclass that carries its key, so a node that dies removes
its own entry.  Every fixed-shape type has its own constructor, made from
its layout; Zero, Var and the bounded quantifiers take the generic one,
which also raises every constructor's errors.  Each node stores its
expansion, so two expressions render alike exactly when `expand_bounded`
gives the same object for both.

Every bottom-up question (free variables, variable indices, canonical
text) is an algebra for one iterative postorder `fold` over
`CHILDREN` (Meijer, Fokkinga & Paterson, Functional Programming with
Bananas, Lenses, Envelopes and Barbed Wire, 1991): a function from a node
and its children's values to the node's value.  The fold memoizes by
identity within a call, or across the calls that share a memo, as
`render`'s callers do.  Tokens and length are read off the text.  Only
free variables persist on the nodes: a node never changes, so the fold
fills its `_free` slot the first time they are asked for, with one shared
frozenset per distinct set.  Substitution and canonical renaming are one
iterative, capture-avoiding rebuild (`_rebuild`) that skips subtrees whose
stored free variables miss its map; two expressions are alpha-equal when
their canonical variants are one node.
"""

from __future__ import annotations

import weakref
from dataclasses import FrozenInstanceError
from functools import partial
from operator import attrgetter
from typing import Callable, TypeVar, Union


# ---------------------------------------------------------------- AST nodes

# a weak reference to the live node of each (type, int fields, children)
# key; children hash and compare by identity, so a lookup is O(1) at any
# depth.  Not locked: nodes are built from one thread.
_TABLE: dict[tuple, _Ref] = {}
_MISSING = type(None)  # what a lookup that misses calls: it returns None


class _Ref(weakref.ref):  # built by C slots alone: no Python __new__/__init__
    __slots__ = ("key",)


def _drop(ref: _Ref, table: dict = _TABLE) -> None:
    """A dead node's callback: delete its entry unless an equal node's replaced it."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class _Node:
    """Base of every AST node: immutable, slotted and interned.

    Constructing a node returns the live node with the same type, int
    fields and children when there is one, else makes it.  Zero, Var,
    BForall and BExists build through this `__new__` and `_build`; the rest
    have their own from `_shape_new`.  `_expanded` holds the node's
    bounded-quantifier expansion, or None when the node is its own (a
    self-reference would be a cycle only the cyclic collector frees).
    `_free` holds the node's free variables once `free_vars` has been asked
    for them, else None.
    """

    __slots__ = ("__weakref__", "_expanded", "_free")
    __match_args__: tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls, *args)
        try:
            node = _TABLE.get(key, _MISSING)()
        except TypeError:  # an unhashable child; _build names it
            node = None
        if node is None:
            node = _build(cls, args)
            ref = _TABLE[key] = _Ref(node, _drop)
            ref.key = key
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
R = TypeVar("R")

# the child fields of each node type, in order; a node's int field, if it
# has one, comes first
CHILDREN: dict[type, tuple[str, ...]] = {
    Zero: (), Var: (), Succ: ("arg",), Not: ("body",),
    Forall: ("body",), Exists: ("body",),
    BForall: ("bound", "body"), BExists: ("bound", "body"),
    **{t: ("left", "right") for t in (Add, Mul, Eq, Le, And, Or, Imp, Iff)},
}
BINDERS = frozenset((Forall, Exists, BForall, BExists))
_TERM_TYPES = frozenset((Zero, Var, Succ, Add, Mul))
_FORMULA_TYPES = frozenset(CHILDREN) - _TERM_TYPES
# the token each node type writes between its operands or after its `(`
_SYMBOLS = {Add: "+", Mul: "*", Eq: "=", Le: "<=", And: "&", Or: "|", Imp: "->", Iff: "<->",
            Forall: "A", Exists: "E"}


# each node type's layout, computed once: the setters its field slots are
# written through, in field order, and its number of int fields
_LAYOUT: dict[type, tuple[tuple, int]] = {
    cls: (tuple(cls.__dict__[n].__set__ for n in cls.__match_args__),
          len(cls.__match_args__) - len(kids))
    for cls, kids in CHILDREN.items()
}
_SET_EXPANDED = _Node.__dict__["_expanded"].__set__
_SET_FREE = _Node.__dict__["_free"].__set__


def _build(cls: type, args: tuple) -> Expr:
    """A new validated node of type cls, written through its layout, with a
    bounded quantifier's expansion stored; every constructor's errors come from here."""
    writers, n_ints = _LAYOUT[cls]
    if len(args) != len(writers):
        raise TypeError(f"{cls.__name__} takes {len(writers)} fields, got {len(args)}")
    for kid in args[n_ints:]:
        if type(kid) not in CHILDREN:
            raise TypeError(f"not a term or formula node: {kid!r}")
    node = object.__new__(cls)
    for write, value in zip(writers, args):
        write(node, value)
    expanded = None
    if cls is BForall or cls is BExists:
        v, bound, body = args
        if v in free_vars(bound):
            raise ValueError("bound term may not mention the bound variable")
        body = body._expanded or body
        guard = Le(Succ(Var(v)), bound)
        expanded = Forall(v, Imp(guard, body)) if cls is BForall else Exists(v, And(guard, body))
    _SET_EXPANDED(node, expanded)
    _SET_FREE(node, None)
    return node


_NO = object()  # a field left out; `_build` counts only the fields given


def _shape_new(cls: type) -> Callable:
    """cls's own `__new__`: a hit is one key tuple, one lookup and one weakref
    call; a miss writes the slots and the expansion (None, or the node over
    its children's expansions) directly; anything invalid goes to `_build`."""
    writers, n_ints = _LAYOUT[cls]
    if len(writers) == 1:
        (write,) = writers

        def new(cls, kid=_NO, /, *more):
            key = (cls, kid)
            try:
                node = _TABLE.get(key, _MISSING)()
            except TypeError:  # an unhashable child; _build names it
                node = None
            if node is not None and not more:
                return node
            if more or type(kid) not in CHILDREN:
                _build(cls, tuple(a for a in (kid, *more) if a is not _NO))  # raises
            node = object.__new__(cls)
            write(node, kid)
            _SET_EXPANDED(node, kid._expanded and cls(kid._expanded))
            _SET_FREE(node, None)
            ref = _TABLE[key] = _Ref(node, _drop)
            ref.key = key
            return node
        return new
    write_a, write_b = writers

    def new(cls, a=_NO, b=_NO, /, *more):  # two children, or a binder's int and body
        key = (cls, a, b)
        try:
            node = _TABLE.get(key, _MISSING)()
        except TypeError:
            node = None
        if node is not None and not more:
            return node
        if more or type(b) not in CHILDREN or not (n_ints or type(a) in CHILDREN):
            _build(cls, tuple(x for x in (a, b, *more) if x is not _NO))  # raises
        node = object.__new__(cls)
        write_a(node, a)
        write_b(node, b)
        ax, bx = None if n_ints else a._expanded, b._expanded
        _SET_EXPANDED(node, None if ax is bx is None else cls(ax or a, bx or b))
        _SET_FREE(node, None)
        ref = _TABLE[key] = _Ref(node, _drop)
        ref.key = key
        return node
    return new


for _cls in (Succ, Not, Add, Mul, Eq, Le, And, Or, Imp, Iff, Forall, Exists):
    _cls.__new__ = staticmethod(_shape_new(_cls))
del _cls


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


def succ_spine(t: Expr) -> tuple[int, Expr]:
    """How many successors sit on top of t, and the node below them."""
    n = 0
    while type(t) is Succ:
        n += 1
        t = t.arg
    return n, t


def numeral_value(t: Term) -> int | None:
    """Value of a pure successor-chain term, None if it is not one."""
    n, core = succ_spine(t)
    return n if type(core) is Zero else None


# ---------------------------------------------------------------- traversal

def _children_getter(names: tuple[str, ...]) -> Callable[[Expr], tuple]:
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        one = attrgetter(*names)
        return lambda node: (one(node),)
    return lambda node: ()


# each node type's children as a tuple, in CHILDREN order
_KIDS = {kind: _children_getter(names) for kind, names in CHILDREN.items()}


def fold(e: Expr, alg: Callable[[Expr, tuple], R], memo=None, _kids=_KIDS) -> R:
    """The value alg gives e, bottom-up: alg(node, values of its children).

    Iterative postorder over CHILDREN, so depth costs heap, not stack: a
    node is expanded once, pushing itself, its children's tuple as its exit
    entry, and then only those children without a value, and its value is
    computed at the exit.  A successor spine is one node to the fold: alg
    sees its top Succ with the value of the first non-successor below.  `memo` (a fresh dict when
    None; anything with `get` and item assignment) maps nodes to values:
    the fold reads a node's value there instead of descending, and writes
    every value it computes.  alg never returns None.  `_kids` gives each
    type's children; an algebra may pass one that leaves some out.
    """
    if type(e) not in CHILDREN:
        raise TypeError(f"not a term or formula node: {e!r}")
    done = {} if memo is None else memo
    get = done.get
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # an expanded node's children, the node below them
            kids, node = node, stack.pop()
            done[node] = alg(node, tuple(map(get, kids)))
            continue
        if get(node) is not None:  # reached again through a shared child
            continue
        if type(node) is Succ:
            kids = (succ_spine(node)[1],)
        else:
            kids = _kids[type(node)](node)
        stack += (node, kids)
        for kid in kids:
            if get(kid) is None:
                stack.append(kid)
    return get(e)


class _FreeSlots:
    """The memo of the free-variables fold: each node's `_free` slot, so a
    value found once is kept for the node's life."""

    def get(self, node: Expr) -> frozenset[int] | None:
        return node._free

    def __setitem__(self, node: Expr, value: frozenset[int]) -> None:
        value = _VAR_SETS.setdefault(value, value)
        _SET_FREE(node, value)
        # the fold sees a spine at its top only; its lower Succs share the value
        while type(node) is Succ and node.arg._free is None:
            node = node.arg
            _SET_FREE(node, value)


# one object per distinct set, so every node sharing a set shares the object
_VAR_SETS: dict[frozenset[int], frozenset[int]] = {}


def _free_of(node: Expr, kids: tuple) -> frozenset[int]:
    if type(node) is Var:
        return frozenset((node.index,))
    if type(node) in BINDERS:  # a bound, if any, is outside the binder
        return kids[-1].difference((node.var,)).union(*kids[:-1])
    return frozenset().union(*kids)


def free_vars(e: Expr) -> frozenset[int]:
    """Variables with a free occurrence; kept on each node once asked for."""
    got = getattr(e, "_free", None)
    return got if got is not None else fold(e, _free_of, _FreeSlots())


def _indices_of(node: Expr, kids: tuple) -> frozenset[int]:
    if type(node) is Var:
        return frozenset((node.index,))
    out = frozenset().union(*kids)
    return out | {node.var} if type(node) in BINDERS else out


def all_var_indices(e: Expr) -> frozenset[int]:
    """Every variable index occurring at all, free or bound or as binder."""
    return fold(e, _indices_of)


def is_closed(e: Expr) -> bool:
    return not free_vars(e)


# ---------------------------------------------------------------- rendering

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


def _join(rope: tuple) -> str:
    """The text a rope spells: its pieces in order, nested ropes flattened."""
    out, stack = [], [rope]
    while stack:
        piece = stack.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            stack += piece[::-1]
    return "".join(out)


_COMPOUND = frozenset((Add, Mul))  # the terms parenthesized as operands


def _text_of(parents: dict, node: Expr, kids: tuple) -> str | tuple:
    """node's canonical text: a rope when parents counts one parent for it,
    else joined.  A node's parentheses are its parent's to write."""
    kind = type(node)
    if kind is Zero or kind is Var:
        return "0" if kind is Zero else f"v{node.index}"
    if kind is Succ:  # a whole spine; a bare sum would re-parse with the s's on its left
        n, core = succ_spine(node)
        rope = ("s " * n + "( ", kids[0], " )") if type(core) in _COMPOUND else ("s " * n, kids[0])
    elif kind in _COMPOUND:
        left, right = (("( ", text, " )") if type(kid) in _COMPOUND else text
                       for kid, text in zip((node.left, node.right), kids))
        rope = (left, f" {_SYMBOLS[kind]} ", right)
    elif kind is Eq or kind is Le:
        rope = (kids[0], f" {_SYMBOLS[kind]} ", kids[1])
    elif kind is Not:
        rope = ("~ ( ", kids[0], " )")
    elif kind is Forall or kind is Exists:
        rope = (f"( {_SYMBOLS[kind]} v{node.var} ) ( ", kids[0], " )")
    else:  # a binary connective
        rope = ("( ", kids[0], f" ) {_SYMBOLS[kind]} ( ", kids[1], " )")
    return rope if parents.get(node) == 1 else _join(rope)


def render(e: Expr, memo: dict | None = None) -> str:
    """The canonical text of e's expansion: its tokens joined by spaces.

    One fold, whose value is a rope (a tuple of strings and ropes) at a
    node with one parent and a joined string at the root and at shared
    nodes, found by counting parents first.  `memo` (a fresh dict when
    None) maps nodes to these values; one that only render has filled may
    be shared by many calls, a derivation's steps say, and a rope it holds
    is joined when its node is reached again.  A call's time and memory
    are then linear in the nodes memo lacks plus the text it returns.
    """
    e = expand_bounded(e)
    if type(e) not in CHILDREN:
        raise TypeError(f"not a term or formula node: {e!r}")
    memo = {} if memo is None else memo
    parents: dict = {}  # of each node reached, among the nodes memo lacks
    stack = [e]
    while stack:
        node = stack.pop()
        text = memo.get(node)
        if type(text) is tuple:  # a rope from an earlier call: now shared
            memo[node] = _join(text)
        if text is not None:
            continue
        for kid in (succ_spine(node)[1],) if type(node) is Succ else _KIDS[type(node)](node):
            parents[kid] = parents.get(kid, 0) + 1
            if parents[kid] == 1:
                stack.append(kid)
    return fold(e, partial(_text_of, parents), memo)


def tokens(e: Expr) -> list[str]:
    return render(e).split(" ")


def length(e: Expr) -> int:
    """Token count of the canonical rendering of the expanded form."""
    return render(e).count(" ") + 1


# ---------------------------------------------------------------- rebuilding

def _rebuild(e: Expr, env: dict[int, Term], first: int | None = None) -> Expr:
    """e with each free v_k in env replaced by env[k], all at once.

    first=None (substitution): a binder keeps its index unless it would
    capture a variable of a replacement.  Then it takes the least index free
    in neither its body, the replacements nor the replaced variables, and
    its body is rebuilt twice: renaming the old index to the new, then under
    env.  Subtrees whose free variables miss env are kept as they are.
    first=j (canonical renaming): every binder takes the least index >= j
    that no free variable of its body takes once renamed, and its body is
    rebuilt once, under env and that renaming together.

    A bounded quantifier's bound counts as part of its body, as it does in
    the expansion; it never mentions the binder, so only the choice of a
    new index sees it.  Iterative, each node rebuilt once per environment.
    """
    if type(e) not in CHILDREN:
        raise TypeError(f"not a term or formula node: {e!r}")
    done: dict[tuple[Expr, int], Expr] = {}
    envs = [env]  # every environment stays alive, so its id names it

    def settled(node: Expr, env: dict) -> bool:
        """Whether node's result under env is known, recording it when it
        needs no rebuilding: a subtree env misses, or a replaced variable."""
        key = (node, id(env))
        if key in done:
            return True
        if (first is None or type(node) in _TERM_TYPES) and (
                node._free or free_vars(node)).isdisjoint(env):
            done[key] = node
        elif type(node) is Var:
            done[key] = env[node.index]
        else:
            return False
        return True

    # (node, env, None) on the way down; on the way up (node, env, (int
    # fields, (child, env) pairs, environments the last child goes through
    # after its own))
    stack: list[tuple[Expr, dict, tuple | None]] = []
    if not settled(e, env):
        stack.append((e, env, None))
    while stack:
        node, env, plan = stack.pop()
        kind = type(node)
        if plan is None:
            if (node, id(env)) in done:
                continue
            scope = _KIDS[kind](node)
            ints, pairs, then = (), [(kid, env) for kid in scope], ()
            if kind in BINDERS:
                v = node.var
                scope_free = frozenset().union(*map(free_vars, scope))
                inner = {k: t for k, t in env.items() if k != v and k in scope_free}
                taken = frozenset().union(*map(free_vars, inner.values()))
                w, body_env = v, inner
                if first is not None:
                    w = first
                    taken |= scope_free - inner.keys() - {v}
                elif v in taken:  # captured: rename first, then substitute
                    w, body_env, then = 0, {}, (inner,)
                    taken |= scope_free | inner.keys()
                while w in taken:
                    w += 1
                if w != v:
                    body_env[v] = Var(w)
                envs += (inner, body_env)
                ints, pairs = (w,), [(kid, inner) for kid in scope[:-1]] + [(scope[-1], body_env)]
        else:
            ints, pairs, then = plan
            if not then:
                done[node, id(env)] = kind(*ints, *[done[k, id(k_env)] for k, k_env in pairs])
                continue
            # the last child's result is rebuilt again, under the next env
            last, last_env = pairs[-1]
            pairs = [*pairs[:-1], (done[last, id(last_env)], then[0])]
            then = then[1:]
        stack.append((node, env, (ints, pairs, then)))
        stack += [(kid, kid_env, None) for kid, kid_env in pairs if not settled(kid, kid_env)]
    return done[e, id(envs[0])]


def alpha_equal(a: Expr, b: Expr) -> bool:
    """Equality up to consistent renaming of bound variables: the canonical
    alpha-variants of the expansions are one node."""
    a, b = expand_bounded(a), expand_bounded(b)
    return a is b or _rebuild(a, {}, first=0) is _rebuild(b, {}, first=0)


def substitute(e: Expr, i: int, repl: Term) -> Expr:
    """Replace free occurrences of v_i by `repl`, renaming binders on capture."""
    return _rebuild(e, {i: repl})


# ------------------------------------------------------------ normalization

def rename_to_first(f: Formula, j: int) -> Formula:
    """Canonically rename bound variables so all indices stay below j.

    Each binder takes the smallest index >= 1 whose variable is not free in
    that binder's body (with enclosing binders already mapped).  The map is
    applied all at once, so binders that trade indices keep their meaning.
    The result is the canonical alpha-variant; formulas already in that
    shape are fixed points.  Requires free variables within {v0} and
    length(f) < j.
    """
    if not is_formula(f):
        raise TypeError(f"not a formula node: {f!r}")
    fv = free_vars(f)
    if fv - {0}:
        raise ValueError(f"free variables beyond v0: {sorted(fv - {0})}")
    if length(f) >= j:
        raise ValueError("formula too long for the requested variable window")
    out = _rebuild(f, {}, first=1)
    assert all(v < j for v in all_var_indices(out))
    return out  # type: ignore[return-value]
