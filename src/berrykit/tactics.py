"""Proof construction on top of the flat checker.

Proofs are built as trees (really DAGs: sublemmas are shared) whose leaves
are axioms, schema instances, and open hypotheses, and whose inner nodes
are modus ponens and generalization.  Every node carries `closed`: true
when its subtree holds no open hypothesis, set once by the node's `__init__`
(as in Edinburgh LCF, where a theorem carries its hypotheses), which writes
each field through its slot's setter, collected once per type.
The derived rules are small trees of schema instances: introduction and
elimination for the connectives, universal instantiation, existential
introduction, existential elimination (from B under hypothesis A conclude
(E v) A -> B) and the equality toolkit.  `discharge` is the deduction
theorem: it compiles away one open hypothesis, producing a proof of the
implication, and walks and rebuilds only the open part of the tree;
closed subtrees are lifted whole.
`compile_proof` flattens a closed tree into a checkable Derivation in one
walk: nodes whose formulas render alike hold one interned node (a bounded
quantifier is built as its expansion, so node identity is the only
identity) and share one line, whose step is built once.

Every constructor validates its shape, so a finished tree cannot encode an
incorrect inference; the flat checker re-validates everything anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import BerrykitError
from .proofs import Derivation, Step, Theory, _MATCHERS, _check_schema, _slot_writers
from .syntax import (
    Add,
    And,
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
    free_vars,
    render,
    substitute,
)


class TacticError(BerrykitError):
    pass


# ----------------------------------------------------------------- the nodes

@dataclass(frozen=True, eq=False, slots=True)
class Ax:
    label: str
    formula: Formula
    closed = True

    def __init__(self, label: str, formula: Formula) -> None:
        set_label, set_formula = _AX_SLOTS
        set_label(self, label)
        set_formula(self, formula)


@dataclass(frozen=True, eq=False, slots=True)
class Sch:
    name: str
    formula: Formula
    closed = True

    def __init__(self, name: str, formula: Formula) -> None:
        set_name, set_formula = _SCH_SLOTS
        set_name(self, name)
        set_formula(self, formula)


@dataclass(frozen=True, eq=False, slots=True)
class Hyp:
    formula: Formula
    closed = False

    def __init__(self, formula: Formula) -> None:
        _HYP_SLOTS[0](self, formula)


@dataclass(frozen=True, eq=False, slots=True)
class MP:
    imp: "Proof"
    arg: "Proof"
    formula: Formula
    closed: bool = field(init=False, repr=False)

    def __init__(self, imp: "Proof", arg: "Proof", formula: Formula) -> None:
        set_imp, set_arg, set_formula, set_closed = _MP_SLOTS
        set_imp(self, imp)
        set_arg(self, arg)
        set_formula(self, formula)
        set_closed(self, imp.closed and arg.closed)


@dataclass(frozen=True, eq=False, slots=True)
class Gen:
    var: int
    arg: "Proof"
    formula: Formula
    closed: bool = field(init=False, repr=False)

    def __init__(self, var: int, arg: "Proof", formula: Formula) -> None:
        set_var, set_arg, set_formula, set_closed = _GEN_SLOTS
        set_var(self, var)
        set_arg(self, arg)
        set_formula(self, formula)
        set_closed(self, arg.closed)


_AX_SLOTS, _SCH_SLOTS, _HYP_SLOTS, _MP_SLOTS, _GEN_SLOTS = map(
    _slot_writers, (Ax, Sch, Hyp, MP, Gen))

Proof = Union[Ax, Sch, Hyp, MP, Gen]


def ax(theory: Theory, label: str) -> Ax:
    return Ax(label, theory.axiom(label))


def sch(name: str, formula: Formula) -> Sch:
    reason = _check_schema(name, formula)
    if reason is not None:
        raise TacticError(f"bad {name} instance {render(formula)!r}: {reason}")
    return Sch(name, formula)


def hyp(formula: Formula) -> Hyp:
    return Hyp(formula)


def mp(p: Proof, q: Proof) -> MP:
    f, a = p.formula, q.formula
    if type(f) is not Imp:
        raise TacticError(f"mp on non-implication {render(f)!r}")
    if f.left is not a:
        raise TacticError(
            f"mp mismatch: antecedent {render(f.left)!r} vs argument {render(a)!r}"
        )
    return MP(p, q, f.right)


def gen(var: int, p: Proof) -> Gen:
    return Gen(var, p, Forall(var, p.formula))


def _children(p: Proof) -> tuple[Proof, ...]:
    match p:
        case MP(imp=a, arg=b):
            return (a, b)
        case Gen(arg=a):
            return (a,)
    return ()


def _open_postorder(root: Proof) -> list[Proof]:
    """The nodes of root that hold a Hyp leaf, children first.  Closed
    subtrees are never entered; the open nodes come in the order a full
    postorder would give them."""
    seen: set[int] = set()
    order: list[Proof] = []
    stack: list[tuple[Proof, bool]] = [] if root.closed else [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in _children(node):
            if not child.closed and id(child) not in seen:
                stack.append((child, False))
    return order


def open_hypotheses(p: Proof) -> list[Formula]:
    """Distinct open hypotheses, by first appearance."""
    return list(dict.fromkeys(node.formula for node in _open_postorder(p) if type(node) is Hyp))


def require_closed(p: Proof) -> None:
    """Raise, naming the first open hypothesis, unless p is closed."""
    if not p.closed:
        raise TacticError(
            f"open hypothesis {render(open_hypotheses(p)[0])!r}:"
            " discharge before compiling"
        )


# ------------------------------------------------------------ schema helpers

# the deduction theorem's K and S go straight to the staged matchers; sch
# checks a rejected instance again only to raise its error
_IMP_K, _IMP_S = _MATCHERS["imp_k"], _MATCHERS["imp_s"]


def s_imp_k(a: Formula, b: Formula) -> Sch:
    f = Imp(a, Imp(b, a))
    return Sch("imp_k", f) if _IMP_K(f) else sch("imp_k", f)


def s_imp_s(a: Formula, b: Formula, c: Formula) -> Sch:
    f = Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    return Sch("imp_s", f) if _IMP_S(f) else sch("imp_s", f)


def s_neg_intro(a: Formula, b: Formula) -> Sch:
    return sch("neg_intro", Imp(Imp(a, b), Imp(Imp(a, Not(b)), Not(a))))


def s_neg_elim(a: Formula) -> Sch:
    return sch("neg_elim", Imp(Not(Not(a)), a))


def s_all_inst(var: int, body: Formula, t: Term) -> Sch:
    # an instance by construction; the flat checker still validates it
    return Sch("all_inst", Imp(Forall(var, body), substitute(body, var, t)))


def s_ex_intro(var: int, body: Formula, t: Term) -> Sch:
    # an instance by construction; the flat checker still validates it
    return Sch("ex_intro", Imp(substitute(body, var, t), Exists(var, body)))


def s_all_shift(var: int, a: Formula, b: Formula) -> Sch:
    return sch(
        "all_shift",
        Imp(Forall(var, Imp(a, b)), Imp(a, Forall(var, b))),
    )


def s_ex_shift(var: int, a: Formula, b: Formula) -> Sch:
    return sch(
        "ex_shift",
        Imp(Forall(var, Imp(a, b)), Imp(Exists(var, a), b)),
    )


# --------------------------------------------------------- derived rules

def imp_refl(a: Formula) -> Proof:
    aa = Imp(a, a)
    return mp(mp(s_imp_s(a, aa, a), s_imp_k(a, aa)), s_imp_k(a, a))


def k_lift(p: Proof, a: Formula) -> Proof:
    """From X conclude a -> X."""
    return mp(s_imp_k(p.formula, a), p)


def and_intro(p: Proof, q: Proof) -> Proof:
    return mp(
        mp(sch("and_intro", Imp(p.formula, Imp(q.formula, And(p.formula, q.formula)))), p),
        q,
    )


def and_left(p: Proof) -> Proof:
    match p.formula:
        case And(a, b):
            return mp(sch("and_left", Imp(p.formula, a)), p)
    raise TacticError("and_left needs a conjunction")


def and_right(p: Proof) -> Proof:
    match p.formula:
        case And(a, b):
            return mp(sch("and_right", Imp(p.formula, b)), p)
    raise TacticError("and_right needs a conjunction")


def or_left(p: Proof, b: Formula) -> Proof:
    return mp(sch("or_left", Imp(p.formula, Or(p.formula, b))), p)


def or_right(a: Formula, p: Proof) -> Proof:
    return mp(sch("or_right", Imp(p.formula, Or(a, p.formula))), p)


def or_elim(p_or: Proof, p_ac: Proof, p_bc: Proof) -> Proof:
    match (p_or.formula, p_ac.formula, p_bc.formula):
        case (Or(a, b), Imp(_, c), Imp(_, _)):
            schema = sch(
                "or_elim",
                Imp(p_ac.formula, Imp(p_bc.formula, Imp(Or(a, b), c))),
            )
            return mp(mp(mp(schema, p_ac), p_bc), p_or)
    raise TacticError("or_elim shape mismatch")


def iff_intro(p_ab: Proof, p_ba: Proof) -> Proof:
    match p_ab.formula:
        case Imp(a, b):
            schema = sch(
                "iff_intro", Imp(p_ab.formula, Imp(p_ba.formula, Iff(a, b)))
            )
            return mp(mp(schema, p_ab), p_ba)
    raise TacticError("iff_intro needs implications")


def iff_left(p: Proof) -> Proof:
    match p.formula:
        case Iff(a, b):
            return mp(sch("iff_left", Imp(p.formula, Imp(a, b))), p)
    raise TacticError("iff_left needs a biconditional")


def iff_right(p: Proof) -> Proof:
    match p.formula:
        case Iff(a, b):
            return mp(sch("iff_right", Imp(p.formula, Imp(b, a))), p)
    raise TacticError("iff_right needs a biconditional")


def absurd(p1: Proof, p2: Proof) -> Proof:
    """From (~A -> B) and (~A -> ~B) conclude A."""
    match (p1.formula, p2.formula):
        case (Imp(Not(a), b), Imp(Not(a2), Not(b2))):
            if a is a2 and b is b2:
                nn = mp(mp(s_neg_intro(Not(a), b), p1), p2)
                return mp(s_neg_elim(a), nn)
    raise TacticError("absurd shape mismatch")


def contradiction_to(p_pos: Proof, p_neg: Proof, target: Formula) -> Proof:
    """From X and ~X conclude anything."""
    match p_neg.formula:
        case Not(x):
            if x is not p_pos.formula:
                raise TacticError("contradiction pair mismatch")
            nt = Not(target)
            return absurd(k_lift(p_pos, nt), k_lift(p_neg, nt))
    raise TacticError("second argument must be a negation")


def contrapose(p_imp: Proof, p_neg: Proof) -> Proof:
    """From A -> B and ~B conclude ~A."""
    match (p_imp.formula, p_neg.formula):
        case (Imp(a, b), Not(b2)):
            if b is b2:
                return mp(mp(s_neg_intro(a, b), p_imp), k_lift(p_neg, a))
    raise TacticError("contrapose shape mismatch")


def dn_intro(p: Proof) -> Proof:
    a = p.formula
    na = Not(a)
    return mp(mp(s_neg_intro(na, a), k_lift(p, na)), imp_refl(na))


def excluded_middle(a: Formula) -> Proof:
    """A | ~A with no hypotheses."""
    disj = Or(a, Not(a))
    x = Not(disj)
    under_x = hyp(x)
    na = mp(
        mp(s_neg_intro(a, disj), sch("or_left", Imp(a, disj))),
        k_lift(under_x, a),
    )
    both = mp(sch("or_right", Imp(Not(a), disj)), na)
    d_pos = discharge(both, x)
    nn = mp(mp(s_neg_intro(x, disj), d_pos), imp_refl(x))
    return mp(s_neg_elim(disj), nn)


def forall_elim(p: Proof, *ts: Term) -> Proof:
    """Instantiate p's quantifiers with ts, the outermost first."""
    for t in ts:
        match p.formula:
            case Forall(v, body):
                p = mp(s_all_inst(v, body, t), p)
            case _:
                raise TacticError("forall_elim needs a universal")
    return p


def exists_elim(var: int, a: Formula, p: Proof) -> Proof:
    """From p proving B under hypothesis a conclude (E var) a -> B; var may
    not be free in B, nor in the hypotheses p keeps open."""
    return mp(s_ex_shift(var, a, p.formula), gen(var, discharge(p, a)))


def exists_intro(var: int, body: Formula, t: Term, p: Proof) -> Proof:
    return mp(s_ex_intro(var, body, t), p)


# ------------------------------------------------------- equality toolkit

def eq_refl(t: Term) -> Proof:
    return sch("eq_refl", Eq(t, t))


def eq_succ(p: Proof) -> Proof:
    match p.formula:
        case Eq(t, u):
            return mp(sch("eq_succ", Imp(p.formula, Eq(Succ(t), Succ(u)))), p)
    raise TacticError("eq_succ needs an equation")


def eq_add_cong(p: Proof, q: Proof) -> Proof:
    """From t1=u1 and t2=u2 conclude t1+t2=u1+u2."""
    match (p.formula, q.formula):
        case (Eq(t1, u1), Eq(t2, u2)):
            schema = sch(
                "eq_add",
                Imp(p.formula, Imp(q.formula, Eq(Add(t1, t2), Add(u1, u2)))),
            )
            return mp(mp(schema, p), q)
    raise TacticError("eq_add_cong needs two equations")


def eq_mul_cong(p: Proof, q: Proof) -> Proof:
    """From t1=u1 and t2=u2 conclude t1*t2=u1*u2."""
    match (p.formula, q.formula):
        case (Eq(t1, u1), Eq(t2, u2)):
            schema = sch(
                "eq_mul",
                Imp(p.formula, Imp(q.formula, Eq(Mul(t1, t2), Mul(u1, u2)))),
            )
            return mp(mp(schema, p), q)
    raise TacticError("eq_mul_cong needs two equations")


def eq_sym(p: Proof) -> Proof:
    match p.formula:
        case Eq(t, u):
            schema = sch(
                "eq_eq",
                Imp(Eq(t, u), Imp(Eq(t, t), Imp(Eq(t, t), Eq(u, t)))),
            )
            r = eq_refl(t)
            return mp(mp(mp(schema, p), r), r)
    raise TacticError("eq_sym needs an equation")


def eq_trans(p: Proof, q: Proof) -> Proof:
    match (p.formula, q.formula):
        case (Eq(a, b), Eq(b2, c)):
            if b is not b2:
                raise TacticError(
                    f"transitivity mismatch: {render(b)!r} vs {render(b2)!r}"
                )
            schema = sch(
                "eq_eq",
                Imp(Eq(a, a), Imp(Eq(b, c), Imp(Eq(a, b), Eq(a, c)))),
            )
            return mp(mp(mp(schema, eq_refl(a)), q), p)
    raise TacticError("eq_trans needs two equations")


def eq_chain(first: Proof, *rest: Proof) -> Proof:
    out = first
    for p in rest:
        out = eq_trans(out, p)
    return out


def le_transport(p_l: Proof, p_r: Proof, p_le: Proof) -> Proof:
    """From t1=u1, t2=u2 and t1<=t2 conclude u1<=u2."""
    match (p_l.formula, p_r.formula):
        case (Eq(t1, u1), Eq(t2, u2)):
            schema = sch(
                "eq_le",
                Imp(
                    p_l.formula,
                    Imp(p_r.formula, Imp(Le(t1, t2), Le(u1, u2))),
                ),
            )
            return mp(mp(mp(schema, p_l), p_r), p_le)
    raise TacticError("le_transport needs equations")


# ------------------------------------------------------ deduction theorem

def discharge(p: Proof, h: Formula) -> Proof:
    """Compile away hypothesis h: a proof of h -> conclusion.

    Only the open part of p is walked and rebuilt; every subtree not
    mentioning h, closed ones included, is kept whole and lifted with one
    K step.  Generalization steps over variables free in h cannot be
    discharged and raise; tactics arrange their variable use so this never
    happens.
    """
    h_free = free_vars(h)
    result: dict[int, Proof] = {}  # id(node) -> proof of h -> node, for nodes using h

    def lifted(node: Proof) -> Proof:
        got = result.get(id(node))
        return k_lift(node, h) if got is None else got

    for node in _open_postorder(p):
        match node:
            case Hyp(formula=f):
                if f is h:
                    result[id(node)] = imp_refl(h)
            case MP(imp=pi, arg=pa, formula=f):
                if id(pi) in result or id(pa) in result:
                    di = lifted(pi)  # h -> (A -> B)
                    da = lifted(pa)  # h -> A
                    s = s_imp_s(h, pa.formula, f)
                    result[id(node)] = mp(mp(s, di), da)
            case Gen(var=v, arg=pa):
                if id(pa) in result:
                    if v in h_free:
                        raise TacticError(
                            f"cannot discharge over generalization of v{v},"
                            f" free in hypothesis {render(h)!r}"
                        )
                    shifted = s_all_shift(v, h, pa.formula)
                    result[id(node)] = mp(shifted, gen(v, result[id(pa)]))
    return lifted(p)


# ----------------------------------------------------------- flattening

def compile_proof(p: Proof) -> Derivation:
    """Flatten a closed proof tree into a checkable Derivation.

    One iterative postorder walk gives every proof node its line.  A node
    whose formula renders like an earlier line's holds that line's formula
    node, and reuses that line.  An open tree raises before the walk.
    """
    require_closed(p)
    line: dict[Proof, int] = {}  # proof node (hashed by identity) -> its line
    line_of_formula: dict[Formula, int] = {}  # formula -> its line
    steps: list[Step] = []
    stack: list[Proof] = [p]
    while stack:
        node = stack[-1]
        if node in line:
            stack.pop()
            continue
        kind = type(node)
        if kind is MP:
            a = line.get(node.imp)
            b = line.get(node.arg)
            if a is None or b is None:
                # arg on top: its subtree gets the earlier lines
                if a is None:
                    stack.append(node.imp)
                if b is None:
                    stack.append(node.arg)
                continue
            justification = ("mp", (a, b))
        elif kind is Gen:
            a = line.get(node.arg)
            if a is None:
                stack.append(node.arg)
                continue
            justification = ("gen", (a,), None, node.var)
        elif kind is Ax:
            justification = ("axiom", (), node.label)
        else:  # Sch: a closed tree holds no Hyp
            justification = ("schema", (), node.name)
        stack.pop()
        f = node.formula
        at = line_of_formula.get(f)
        if at is None:  # a new line: only now is its step built
            at = line_of_formula[f] = len(steps)
            steps.append(Step(f, *justification))
        line[node] = at
    # dedup can leave the root's line in the middle; the conclusion must be last
    root_line = line[p]
    if root_line != len(steps) - 1:
        steps.append(steps[root_line])
    return Derivation(tuple(steps))
