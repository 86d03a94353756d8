"""Hilbert-style derivations and their checker.

A derivation is a flat list of steps.  Every step carries its formula and a
justification: a named theory axiom, a logical axiom schema instance, modus
ponens, or generalization.  The checker validates each step independently,
so a checked derivation is trustworthy no matter how it was produced.
AST nodes are interned, so a formula is compared by the identity of its
bounded-quantifier expansion, never through its rendered text, and every
comparison is one identity test.

Generalization is unrestricted.  That is sound here because theories are
required to have closed axioms: every derivable formula then holds in the
standard model under all assignments to its free variables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .errors import CheckFailedError, InputError
from .parser import parse_formula
from .syntax import (
    CHILDREN,
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
    Var,
    Zero,
    alpha_equal,
    expand_bounded,
    free_vars,
    is_formula,
    is_term,
    render,
    substitute,
)

_decode = json.JSONDecoder().raw_decode  # json.loads less its BOM and trailing tests


class ProofCheckError(CheckFailedError):
    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


# ------------------------------------------------------------------ theories

@dataclass(frozen=True)
class Theory:
    """A named finite set of closed axioms."""

    name: str
    axioms: tuple[tuple[str, Formula], ...]

    def __post_init__(self) -> None:
        seen = set()
        for label, ax in self.axioms:
            if label in seen:
                raise InputError(f"duplicate axiom label {label!r}")
            seen.add(label)
            if free_vars(ax):
                raise InputError(f"axiom {label!r} is not closed")

    def axiom(self, label: str) -> Formula:
        for name, ax in self.axioms:
            if name == label:
                return ax
        raise InputError(f"theory {self.name!r} has no axiom {label!r}")

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axioms)


def _fa(*vars_then_body) -> Formula:
    *vs, body = vars_then_body
    for v in reversed(vs):
        body = Forall(v, body)
    return body


def robinson_arithmetic() -> Theory:
    """The eight-axiom base theory for successor, addition, multiplication
    and the ordering, each stated as a closed universal sentence."""
    x, y, z = Var(0), Var(1), Var(2)
    axioms = (
        ("q1", _fa(0, 1, Imp(Eq(Succ(x), Succ(y)), Eq(x, y)))),
        ("q2", _fa(0, Not(Eq(Succ(x), Zero())))),
        ("q3", _fa(0, Imp(Not(Eq(x, Zero())), Exists(1, Eq(x, Succ(y)))))),
        ("q4", _fa(0, Eq(Add(x, Zero()), x))),
        ("q5", _fa(0, 1, Eq(Add(x, Succ(y)), Succ(Add(x, y))))),
        ("q6", _fa(0, Eq(Mul(x, Zero()), Zero()))),
        ("q7", _fa(0, 1, Eq(Mul(x, Succ(y)), Add(Mul(x, y), x)))),
        ("q8", _fa(0, 1, Iff(Le(x, y), Exists(2, Eq(Add(z, x), y))))),
    )
    return Theory("Q", axioms)


# ------------------------------------------------------- schema pattern match

# Patterns are tiny tuple trees.  ("F", name) binds a formula metavariable,
# ("T", name) a term metavariable; bindings must agree across occurrences.
# `_stage` unrolls each pattern once, at import, into flat tests.

_F = lambda n: ("F", n)  # noqa: E731
_T = lambda n: ("T", n)  # noqa: E731


def _imp(a, b):
    return ("imp", a, b)


# pattern tag -> (node type, the fields its sub-patterns match, in order)
_PATTERN_NODES: dict[str, tuple[type, tuple[str, ...]]] = {
    tag: (t, CHILDREN[t]) for tag, t in (
        ("imp", Imp), ("and", And), ("or", Or), ("iff", Iff), ("not", Not),
        ("eq", Eq), ("le", Le), ("succ", Succ), ("add", Add), ("mul", Mul),
    )
}


def _stage(pattern) -> Callable[[Formula], bool]:
    """The matcher of one pattern, staged once (Feeley & Lapalme, Using
    Closures for Code Generation, 1987): the node type at each path below
    the root, parents first, then each metavariable's sort test and the
    paths of its occurrences, which must share the first one's expansion."""
    root = _PATTERN_NODES[pattern[0]][0]
    shape: list[tuple[Callable, type]] = []
    occurrences: dict[tuple, list[Callable]] = {}
    todo = [(pattern, "")]
    for pat, path in todo:  # grows while read: breadth-first, parents first
        if pat[0] in ("F", "T"):
            occurrences.setdefault(pat, []).append(attrgetter(path))
            continue
        kind, names = _PATTERN_NODES[pat[0]]
        if path:
            shape.append((attrgetter(path), kind))
        todo += [(sub, f"{path}.{name}" if path else name) for sub, name in zip(pat[1:], names)]
    metas = [(is_formula if sort == "F" else is_term, first, rest)
             for (sort, _), (first, *rest) in occurrences.items()]

    def matches(f: Formula) -> bool:
        if type(f) is not root:
            return False
        for get, kind in shape:
            if type(get(f)) is not kind:
                return False
        for sort, first, rest in metas:
            a = first(f)
            if not sort(a):
                return False
            for get in rest:
                b = get(f)
                if b is not a and (b._expanded or b) is not (a._expanded or a):
                    return False
        return True

    return matches


_A, _B, _C = _F("A"), _F("B"), _F("C")
_t1, _t2, _u1, _u2 = _T("t1"), _T("t2"), _T("u1"), _T("u2")

_PATTERN_SCHEMAS: dict[str, tuple] = {
    # propositional
    "imp_k": _imp(_A, _imp(_B, _A)),
    "imp_s": _imp(_imp(_A, _imp(_B, _C)), _imp(_imp(_A, _B), _imp(_A, _C))),
    "and_intro": _imp(_A, _imp(_B, ("and", _A, _B))),
    "and_left": _imp(("and", _A, _B), _A),
    "and_right": _imp(("and", _A, _B), _B),
    "or_left": _imp(_A, ("or", _A, _B)),
    "or_right": _imp(_B, ("or", _A, _B)),
    "or_elim": _imp(
        _imp(_A, _C), _imp(_imp(_B, _C), _imp(("or", _A, _B), _C))
    ),
    "neg_intro": _imp(_imp(_A, _B), _imp(_imp(_A, ("not", _B)), ("not", _A))),
    "neg_elim": _imp(("not", ("not", _A)), _A),
    "iff_intro": _imp(_imp(_A, _B), _imp(_imp(_B, _A), ("iff", _A, _B))),
    "iff_left": _imp(("iff", _A, _B), _imp(_A, _B)),
    "iff_right": _imp(("iff", _A, _B), _imp(_B, _A)),
    # equality
    "eq_refl": ("eq", _t1, _t1),
    "eq_succ": _imp(("eq", _t1, _u1), ("eq", ("succ", _t1), ("succ", _u1))),
    "eq_add": _imp(
        ("eq", _t1, _u1),
        _imp(("eq", _t2, _u2), ("eq", ("add", _t1, _t2), ("add", _u1, _u2))),
    ),
    "eq_mul": _imp(
        ("eq", _t1, _u1),
        _imp(("eq", _t2, _u2), ("eq", ("mul", _t1, _t2), ("mul", _u1, _u2))),
    ),
    "eq_eq": _imp(
        ("eq", _t1, _u1),
        _imp(("eq", _t2, _u2), _imp(("eq", _t1, _t2), ("eq", _u1, _u2))),
    ),
    "eq_le": _imp(
        ("eq", _t1, _u1),
        _imp(("eq", _t2, _u2), _imp(("le", _t1, _t2), ("le", _u1, _u2))),
    ),
}

_MATCHERS = {name: _stage(pattern) for name, pattern in _PATTERN_SCHEMAS.items()}


def _find_witness(body: Formula, var: int, target: Formula) -> Term | None:
    """A term t for which target may be body[var := t]: target's subterm at
    the place of var's first free occurrence in body; Zero when var is not
    free in body; None when the two differ in type on the way there.

    The descent goes through body and target together, at each node into
    the first child in which var is free.  An alpha-variant of
    body[var := t] has body's shape and holds t where var was free, so no
    witness is missed.  Only a candidate: the caller re-runs the
    substitution and compares.
    """
    if var not in free_vars(body):
        return Zero()
    occurrence = Var(var)
    while body is not occurrence:
        if type(body) is not type(target):
            return None
        name = next(n for n in CHILDREN[type(body)] if var in free_vars(getattr(body, n)))
        body, target = getattr(body, name), getattr(target, name)
    return target


def _is_substitution_instance(body: Formula, var: int, target: Formula) -> bool:
    witness = _find_witness(body, var, target)
    if witness is None:
        return False
    return alpha_equal(substitute(body, var, witness), target)


# the quantifier schemas: the shape each expects, and the part of it that
# must be a substitution instance, or must not have the variable free
_QUANTIFIER_SCHEMAS = {
    "all_inst": ("(A x) B -> B[x := t]", "conclusion"),
    "ex_intro": ("B[x := t] -> ( E x ) B", "premise"),
    "all_shift": ("(A x)(A -> B) -> (A -> (A x) B)", "antecedent"),
    "ex_shift": ("(A x)(A -> B) -> ((E x) A -> B)", "conclusion"),
}


def _check_schema(name: str, f: Formula) -> str | None:
    """None when f is an instance of the named schema, else a reason."""
    matches = _MATCHERS.get(name)
    if matches is not None:
        return None if matches(f) else f"not an instance of {name}"
    match name, f:
        case (("all_inst", Imp(Forall(v, body), target))
              | ("ex_intro", Imp(target, Exists(v, body)))):
            if _is_substitution_instance(body, v, target):
                return None
            return f"{_QUANTIFIER_SCHEMAS[name][1]} is not a substitution instance"
        case (("all_shift", Imp(Forall(v, Imp(side, rest)), Imp(side2, Forall(w, rest2))))
              | ("ex_shift", Imp(Forall(v, Imp(rest, side)), Imp(Exists(w, rest2), side2)))):
            if w != v:
                return "quantified variables differ"
            if not (expand_bounded(side) is expand_bounded(side2)
                    and expand_bounded(rest) is expand_bounded(rest2)):
                return "components differ"
            if v in free_vars(side):
                return f"v{v} occurs free in the {_QUANTIFIER_SCHEMAS[name][1]}"
            return None
    if name in _QUANTIFIER_SCHEMAS:
        return f"expected {_QUANTIFIER_SCHEMAS[name][0]}"
    return f"unknown schema {name!r}"


SCHEMA_NAMES: tuple[str, ...] = tuple(_PATTERN_SCHEMAS) + tuple(_QUANTIFIER_SCHEMAS)


# ---------------------------------------------------------------- derivations

def _slot_writers(cls: type) -> tuple:
    """The setters of a slotted dataclass's field slots, in field order, for
    an `__init__` that skips the frozen `__setattr__` a generated one calls."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True)
class Step:
    formula: Formula
    rule: str  # "axiom" | "schema" | "mp" | "gen"
    premises: tuple[int, ...] = ()
    name: str | None = None
    var: int | None = None

    def __init__(self, formula: Formula, rule: str, premises: tuple[int, ...] = (),
                 name: str | None = None, var: int | None = None) -> None:
        set_formula, set_rule, set_premises, set_name, set_var = _STEP_SLOTS
        set_formula(self, formula)
        set_rule(self, rule)
        set_premises(self, premises)
        set_name(self, name)
        set_var(self, var)


_STEP_SLOTS = _slot_writers(Step)


@dataclass(frozen=True)
class Derivation:
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise InputError("derivation has no steps")

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def __len__(self) -> int:
        return len(self.steps)


def check(derivation: Derivation, theory: Theory) -> None:
    """Validate every step; raises ProofCheckError at the first bad one."""
    expanded: list[Formula] = []
    for i, step in enumerate(derivation.steps):
        if not is_formula(step.formula):
            raise ProofCheckError(i, "step formula is not a formula")
        f = expand_bounded(step.formula)
        for p in step.premises:
            if not 0 <= p < i:
                raise ProofCheckError(i, f"premise {p} out of range")
        match step.rule:
            case "axiom":
                if step.name is None:
                    raise ProofCheckError(i, "axiom step needs a name")
                try:
                    ax = theory.axiom(step.name)
                except InputError as err:
                    raise ProofCheckError(i, str(err)) from err
                if f is not expand_bounded(ax):
                    raise ProofCheckError(
                        i, f"formula differs from axiom {step.name!r}"
                    )
            case "schema":
                if step.name is None:
                    raise ProofCheckError(i, "schema step needs a name")
                reason = _check_schema(step.name, f)
                if reason is not None:
                    raise ProofCheckError(i, reason)
            case "mp":
                if len(step.premises) != 2:
                    raise ProofCheckError(i, "mp needs [implication, antecedent]")
                pi, pj = step.premises
                imp = expanded[pi]
                if type(imp) is not Imp:
                    raise ProofCheckError(i, f"step {pi} is not an implication")
                if expanded[pj] is not imp.left:
                    raise ProofCheckError(
                        i, f"step {pj} does not match the antecedent of step {pi}"
                    )
                if f is not imp.right:
                    raise ProofCheckError(
                        i, f"formula does not match the consequent of step {pi}"
                    )
            case "gen":
                if len(step.premises) != 1 or step.var is None:
                    raise ProofCheckError(i, "gen needs one premise and a variable")
                match f:
                    case Forall(v, body):
                        if v != step.var:
                            raise ProofCheckError(i, "generalized variable differs")
                        if expanded[step.premises[0]] is not body:
                            raise ProofCheckError(
                                i, "body does not match the premise"
                            )
                    case _:
                        raise ProofCheckError(i, "gen must conclude a universal")
            case other:
                raise ProofCheckError(i, f"unknown rule {other!r}")
        expanded.append(f)


def is_valid(derivation: Derivation, theory: Theory) -> bool:
    try:
        check(derivation, theory)
    except CheckFailedError:
        return False
    return True


# ------------------------------------------------------------- serialization

def to_json_lines(derivation: Derivation) -> Iterator[str]:
    """One JSON object per step: index, canonical text, and justification."""
    memo: dict = {}  # shared by the steps, so each node is rendered once
    for i, step in enumerate(derivation.steps):
        obj: dict = {"i": i, "f": render(step.formula, memo), "rule": step.rule}
        if step.name is not None:
            obj["name"] = step.name
        if step.premises:
            obj["prem"] = list(step.premises)
        if step.var is not None:
            obj["var"] = step.var
        yield json.dumps(obj)


def from_json_lines(lines: Iterable[str]) -> Derivation:
    """Read a derivation, one JSON object per line: `f` (formula text) and
    `rule` (string); optional `i` (index, from 0), `name` (string), `var`
    (integer), each may be null, and `prem` (list of step indices).  Blank
    lines are skipped.  A malformed line, or one whose `f` does not parse,
    raises InputError with its number, from 1.  Equal texts share nodes,
    and the steps share one string per distinct rule or name."""
    steps: list[Step] = []
    memo: dict[str, Formula] = {}
    shared: dict[str | None, str | None] = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _decode(line)
            if end != len(line):
                raise ValueError("trailing data")
        except (ValueError, RecursionError):
            try:  # again, for the error text `json.loads` gives
                obj = json.loads(line)
            except (ValueError, RecursionError) as err:
                raise InputError(f"line {lineno}: bad JSON: {err}") from err
        if type(obj) is not dict or "f" not in obj or "rule" not in obj:
            raise InputError(f"line {lineno}: step needs 'f' and 'rule'")
        if type(obj["f"]) is not str:
            raise InputError(f"line {lineno}: 'f' must be a formula text")
        rule, name, premises = obj["rule"], obj.get("name"), obj.get("prem", [])
        if type(rule) is not str or name is not None and type(name) is not str:
            raise InputError(f"line {lineno}: 'rule' and 'name' must be strings")
        if type(premises) is not list or not {int}.issuperset(map(type, premises)):
            raise InputError(f"line {lineno}: 'prem' must be a list of step indices")
        expected, var = obj.get("i"), obj.get("var")
        if type(expected) not in (int, type(None)) or type(var) not in (int, type(None)):
            raise InputError(f"line {lineno}: 'i' and 'var' must be integers")
        if expected is not None and expected != len(steps):
            raise InputError(f"line {lineno}: index {expected} out of order")
        try:
            formula = parse_formula(obj["f"], memo)
        except (InputError, RecursionError) as err:
            why = "formula nested too deeply to read" if type(err) is RecursionError else err
            raise InputError(f"line {lineno}: {why}") from err
        steps.append(Step(formula, shared.setdefault(rule, rule), tuple(premises),
                          shared.setdefault(name, name), var))
    return Derivation(tuple(steps))
