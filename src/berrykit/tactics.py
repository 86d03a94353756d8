"""Proof construction on top of the flat checker.

Proofs are built as trees (really DAGs: sublemmas are shared) whose leaves
are axioms, schema instances, and open hypotheses, and whose inner nodes
are modus ponens and generalization.  `discharge` is the deduction theorem:
it compiles away one open hypothesis, producing a proof of the implication.
`compile_proof` flattens a closed tree into a checkable Derivation,
deduplicating steps by structure: nodes whose formulas render alike share
one line, found through a `StructureKeys` table that lives for one call.

Every constructor validates its shape, so a finished tree cannot encode an
incorrect inference; the flat checker re-validates everything anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import BerrykitError
from .proofs import Derivation, Step, Theory, _check_schema
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
    StructureKeys,
    Succ,
    Term,
    expr_equal,
    free_vars,
    render,
    substitute,
)


class TacticError(BerrykitError):
    pass


# ----------------------------------------------------------------- the nodes

@dataclass(frozen=True, eq=False)
class Ax:
    label: str
    formula: Formula


@dataclass(frozen=True, eq=False)
class Sch:
    name: str
    formula: Formula


@dataclass(frozen=True, eq=False)
class Hyp:
    formula: Formula


@dataclass(frozen=True, eq=False)
class MP:
    imp: "Proof"
    arg: "Proof"
    formula: Formula


@dataclass(frozen=True, eq=False)
class Gen:
    var: int
    arg: "Proof"
    formula: Formula


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
    match p.formula:
        case Imp(a, b):
            if not expr_equal(a, q.formula):
                raise TacticError(
                    f"mp mismatch: antecedent {render(a)!r}"
                    f" vs argument {render(q.formula)!r}"
                )
            return MP(p, q, b)
    raise TacticError(f"mp on non-implication {render(p.formula)!r}")


def gen(var: int, p: Proof) -> Gen:
    return Gen(var, p, Forall(var, p.formula))


def _children(p: Proof) -> tuple[Proof, ...]:
    match p:
        case MP(imp=a, arg=b):
            return (a, b)
        case Gen(arg=a):
            return (a,)
    return ()


def _postorder(root: Proof) -> list[Proof]:
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
        for child in _children(node):
            if id(child) not in seen:
                stack.append((child, False))
    return order


def open_hypotheses(p: Proof) -> list[Formula]:
    """Distinct open hypotheses, by first appearance."""
    out: list[Formula] = []
    keys = StructureKeys()
    seen: set[int] = set()
    for node in _postorder(p):
        if type(node) is Hyp:
            key = keys(node.formula)
            if key not in seen:
                seen.add(key)
                out.append(node.formula)
    return out


# ------------------------------------------------------------ schema helpers

def s_imp_k(a: Formula, b: Formula) -> Sch:
    return sch("imp_k", Imp(a, Imp(b, a)))


def s_imp_s(a: Formula, b: Formula, c: Formula) -> Sch:
    return sch(
        "imp_s", Imp(Imp(a, Imp(b, c)), Imp(Imp(a, b), Imp(a, c)))
    )


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


def syllogism(p: Proof, q: Proof) -> Proof:
    """From A -> B and B -> C conclude A -> C."""
    match p.formula:
        case Imp(a, _):
            return discharge(mp(q, mp(p, hyp(a))), a)
    raise TacticError("syllogism needs implications")


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
            if expr_equal(a, a2) and expr_equal(b, b2):
                nn = mp(mp(s_neg_intro(Not(a), b), p1), p2)
                return mp(s_neg_elim(a), nn)
    raise TacticError("absurd shape mismatch")


def contradiction_to(p_pos: Proof, p_neg: Proof, target: Formula) -> Proof:
    """From X and ~X conclude anything."""
    match p_neg.formula:
        case Not(x):
            if not expr_equal(x, p_pos.formula):
                raise TacticError("contradiction pair mismatch")
            nt = Not(target)
            return absurd(k_lift(p_pos, nt), k_lift(p_neg, nt))
    raise TacticError("second argument must be a negation")


def contrapose(p_imp: Proof, p_neg: Proof) -> Proof:
    """From A -> B and ~B conclude ~A."""
    match (p_imp.formula, p_neg.formula):
        case (Imp(a, b), Not(b2)):
            if expr_equal(b, b2):
                return mp(mp(s_neg_intro(a, b), p_imp), k_lift(p_neg, a))
    raise TacticError("contrapose shape mismatch")


def dn_intro(p: Proof) -> Proof:
    a = p.formula
    na = Not(a)
    return mp(mp(s_neg_intro(na, a), k_lift(p, na)), imp_refl(na))


def dn_elim(p: Proof) -> Proof:
    match p.formula:
        case Not(Not(a)):
            return mp(s_neg_elim(a), p)
    raise TacticError("dn_elim needs a double negation")


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


def forall_elim(p: Proof, t: Term) -> Proof:
    match p.formula:
        case Forall(v, body):
            return mp(s_all_inst(v, body, t), p)
    raise TacticError("forall_elim needs a universal")


def exists_intro(var: int, body: Formula, t: Term, p: Proof) -> Proof:
    return mp(s_ex_intro(var, body, t), p)


def exists_elim(p_ex: Proof, p_all: Proof) -> Proof:
    """From (E x) A and (A x)(A -> C) with x not free in C, conclude C."""
    match (p_ex.formula, p_all.formula):
        case (Exists(v, a), Forall(w, Imp(a2, c))):
            if v != w:
                raise TacticError("variable mismatch in exists_elim")
            if not expr_equal(a, a2):
                raise TacticError("body mismatch in exists_elim")
            return mp(mp(s_ex_shift(v, a, c), p_all), p_ex)
    raise TacticError("exists_elim shape mismatch")


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
            if not expr_equal(b, b2):
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


def eq_transport_eq(p_l: Proof, p_r: Proof, p_eq: Proof) -> Proof:
    """From t1=u1, t2=u2 and t1=t2 conclude u1=u2."""
    match (p_l.formula, p_r.formula):
        case (Eq(t1, u1), Eq(t2, u2)):
            schema = sch(
                "eq_eq",
                Imp(
                    p_l.formula,
                    Imp(p_r.formula, Imp(Eq(t1, t2), Eq(u1, u2))),
                ),
            )
            return mp(mp(mp(schema, p_l), p_r), p_eq)
    raise TacticError("eq_transport_eq needs equations")


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

    Subtrees not mentioning h are kept whole and lifted with one K step.
    Generalization steps over variables free in h cannot be discharged and
    raise; tactics arrange their variable use so this never happens.
    """
    order = _postorder(p)
    uses: dict[int, bool] = {}
    for node in order:
        flag = type(node) is Hyp and expr_equal(node.formula, h)
        for child in _children(node):
            flag = flag or uses[id(child)]
        uses[id(node)] = flag

    if not uses[id(p)]:
        return k_lift(p, h)

    h_free = free_vars(h)
    result: dict[int, Proof] = {}

    def lifted(node: Proof) -> Proof:
        if uses[id(node)]:
            return result[id(node)]
        return k_lift(node, h)

    for node in order:
        if not uses[id(node)]:
            continue
        match node:
            case Hyp():
                result[id(node)] = imp_refl(h)
            case MP(imp=pi, arg=pa, formula=f):
                di = lifted(pi)  # h -> (A -> B)
                da = lifted(pa)  # h -> A
                a = pa.formula
                s = s_imp_s(h, a, f)
                result[id(node)] = mp(mp(s, di), da)
            case Gen(var=v, arg=pa):
                if v in h_free:
                    raise TacticError(
                        f"cannot discharge over generalization of v{v},"
                        f" free in hypothesis {render(h)!r}"
                    )
                da = lifted(pa)
                shifted = s_all_shift(v, h, pa.formula)
                result[id(node)] = mp(shifted, gen(v, da))
            case _:
                raise TacticError("unreachable: leaf marked as using hypothesis")
    return result[id(p)]


# ----------------------------------------------------------- flattening

def compile_proof(p: Proof, dedup: bool = True) -> Derivation:
    """Flatten a closed proof tree into a checkable Derivation.

    With dedup, a node whose formula renders like an earlier line's reuses
    that line: lines are keyed by structure, through a table that lives for
    this call only.  Without it, every node gets its own line.
    """
    order = _postorder(p)
    if dedup:
        keys = StructureKeys()
        key_of = lambda node: keys(node.formula)  # noqa: E731
    else:
        key_of = id
    line_of: dict[int, int] = {}
    steps: list[Step] = []
    for node in order:
        if type(node) is Hyp:
            raise TacticError(
                f"open hypothesis {render(node.formula)!r}: discharge before compiling"
            )
        key = key_of(node)
        if key in line_of:
            continue
        match node:
            case Ax(label=label, formula=f):
                step = Step(f, "axiom", name=label)
            case Sch(name=name, formula=f):
                step = Step(f, "schema", name=name)
            case MP(imp=pi, arg=pa, formula=f):
                step = Step(f, "mp", premises=(line_of[key_of(pi)], line_of[key_of(pa)]))
            case Gen(var=v, arg=pa, formula=f):
                step = Step(f, "gen", premises=(line_of[key_of(pa)],), var=v)
        line_of[key] = len(steps)
        steps.append(step)
    # dedup can leave the root's line in the middle; the conclusion must be last
    root_line = line_of[key_of(p)]
    if root_line != len(steps) - 1:
        steps.append(steps[root_line])
    return Derivation(tuple(steps))
