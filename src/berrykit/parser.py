"""Parser for the canonical token syntax.

Accepts everything `render` produces (and harmless redundant outer
parentheses).  Errors carry the 1-based token position and the tokens that
would have been acceptable there.

A parenthesized group is parsed as a formula once, whichever of its three
readings holds; only the atom reading reads it again, as a term, in time
linear in its length.  Parsing takes time at most quadratic in the text's.

`parse_formula` with a memo reads the lines of a derivation: it looks a
text up whole, then splits `( X ) c ( Y )` where its first parenthesis
closes (a regex skips balanced runs), walks the right spine in a loop,
and tokenizes only what is left.  The memo holds raw texts only; equal
subformulas inside a tokenized text are one node because nodes are
interned.  The parse is the one without the memo, error texts included.
"""

from __future__ import annotations

import re
from typing import Callable

from .errors import InputError
from .syntax import (
    Add, And, Eq, Exists, Expr, Forall, Formula, Iff, Imp, Le, Mul, Not, Or,
    Succ, Term, Var, Zero,
)

_VAR_RE = re.compile(r"^v(\d+)$")
_CONNECTIVES = {"&": And, "|": Or, "->": Imp, "<->": Iff}


class ParseError(InputError, ValueError):
    def __init__(self, position: int, message: str, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"syntax error at token {position}: {message}"
        if expected:
            detail += f" (expected one of: {', '.join(expected)})"
        super().__init__(detail)


class _Fail(Exception):
    pass


class _Parser:
    def __init__(self, toks: list[str]):
        self.toks = toks
        self.pos = 0
        self.far_pos = 0
        self.far_expected: set[str] = set()

    # -- cursor helpers

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def fail(self, *expected: str) -> None:
        if self.pos > self.far_pos:
            self.far_pos = self.pos
            self.far_expected = set(expected)
        elif self.pos == self.far_pos:
            self.far_expected.update(expected)
        raise _Fail()

    def eat(self, tok: str) -> None:
        if self.peek() != tok:
            self.fail(tok)
        self.pos += 1

    def error(self) -> ParseError:
        pos = self.far_pos
        got = self.toks[pos] if pos < len(self.toks) else "end of input"
        return ParseError(pos + 1, f"unexpected {got!r}",
                          tuple(sorted(self.far_expected)))

    # -- terms

    def operand(self) -> Term:
        succs = 0
        while self.peek() == "s":
            self.pos += 1
            succs += 1
        tok = self.peek()
        base: Term
        if tok == "0":
            self.pos += 1
            base = Zero()
        elif tok is not None and (m := _VAR_RE.match(tok)):
            self.pos += 1
            base = Var(int(m.group(1)))
        elif tok == "(":
            self.pos += 1
            base = self.term()
            self.eat(")")
        else:
            self.fail("0", "s", "v<i>", "(")
            raise AssertionError
        for _ in range(succs):
            base = Succ(base)
        return base

    def term(self) -> Term:
        left = self.operand()
        tok = self.peek()
        # only commit to the operator when an operand can follow, so a stray
        # trailing op is flagged at its own position
        if tok in ("+", "*") and self._starts_operand(self.peek(1)):
            self.pos += 1
            right = self.operand()
            return (Add if tok == "+" else Mul)(left, right)
        return left

    @staticmethod
    def _starts_operand(tok: str | None) -> bool:
        return tok is not None and (tok in ("0", "s", "(") or _VAR_RE.match(tok) is not None)

    # -- formulas

    def atomic(self) -> Formula:
        left = self.term()
        tok = self.peek()
        if tok == "=":
            self.pos += 1
            return Eq(left, self.term())
        if tok == "<=":
            self.pos += 1
            return Le(left, self.term())
        self.fail("=", "<=")
        raise AssertionError

    def subformula(self) -> Formula:
        self.eat("(")
        f = self.formula()
        self.eat(")")
        return f

    def negation(self) -> Formula:
        # `~ ( ~ ( ... ) )` is read in a loop, so its depth is not bounded by
        # the interpreter's stack; each `~ ( ... )` is `~` and a subformula
        opened = 0
        while True:
            self.pos += 1
            self.eat("(")
            opened += 1
            if self.peek() != "~":
                f = self.formula()
                break
        for _ in range(opened):
            self.eat(")")
            f = Not(f)
        return f

    def formula(self) -> Formula:
        tok = self.peek()
        if tok == "~":
            return self.negation()
        if tok == "(" and self.peek(1) in ("A", "E"):
            self.pos += 1
            kind = Forall if self.peek() == "A" else Exists
            self.pos += 1
            vtok = self.peek()
            if vtok is None or not (m := _VAR_RE.match(vtok)):
                self.fail("v<i>")
                raise AssertionError
            self.pos += 1
            self.eat(")")
            return kind(int(m.group(1)), self.subformula())
        if tok == "(":
            # parenthesized-operand connective, atomic with a parenthesized
            # term, or redundant outer parentheses; in that order.  The
            # third reading is the first one's subformula, kept with its end;
            # when that failed, parsing it again would only repeat `fail`
            # calls, which add nothing to the farthest position's record
            saved, left = self.pos, None
            try:
                left = self.subformula()
                end, ctok = self.pos, self.peek()
                if ctok not in _CONNECTIVES:
                    self.fail("&", "|", "->", "<->")
                self.pos += 1
                return _CONNECTIVES[ctok](left, self.subformula())
            except _Fail:
                self.pos = saved
            try:
                return self.atomic()
            except _Fail:
                if left is None:
                    raise
            self.pos = end
            return left
        return self.atomic()


_TOKEN = r"v\d+|<->|->|<=|[0s+*=~&|()AE]"
_TOKEN_RE = re.compile(_TOKEN)
# the longest prefix made of tokens and whitespace; tokens are taken left to
# right, each the first alternative that matches, as findall takes them
_PREFIX_RE = re.compile(rf"(?:\s+|{_TOKEN})*")


def _tokenize(text: str) -> list[str]:
    i = _PREFIX_RE.match(text).end()
    if i < len(text):
        raise ParseError(len(_TOKEN_RE.findall(text, 0, i)) + 1,
                         f"unknown token {text[i:].split()[0][:12]!r}")
    return _TOKEN_RE.findall(text)


def _whole(toks: list[str], rule: Callable[[_Parser], Expr]) -> tuple[Expr | None, _Parser]:
    """rule's parse of all of toks, or None, with the parser that ran."""
    p = _Parser(toks)
    try:
        e = rule(p)
        if p.pos != len(toks):
            p.fail("end of input")
    except _Fail:
        return None, p
    return e, p


def _parse_tokens(text: str, rule: Callable[[_Parser], Expr] = _Parser.formula) -> Expr:
    e, p = _whole(_tokenize(text), rule)
    if e is None:
        raise p.error()
    return e


# a binary connective between parenthesized operands, spaced as `render`
# spaces it
_SPLIT_RE = re.compile(r" \) (<->|->|&|\|) \( ")
# a balanced run, groups nested at most 8 deep; possessive, never backtracks
_RUN_RE = re.compile(r"[^()]*+(?:\(" * 8 + r"[^()]*+" + r"\)[^()]*+)*+" * 8)


def _split(text: str) -> re.Match | None:
    """For a text `( X ) c ( Y )`, the ` ) c ( ` match that ends X.

    X ends where the first parenthesis closes.  `_RUN_RE` skips balanced
    runs; each parenthesis a run stops at (closing, or deeper than the
    pattern) moves `depth` by one.  No character is read by more than nine
    runs: linear time at any depth.  X and Y are still only likely operands.
    """
    if not (text.startswith("( ") and text.endswith(" )")):
        return None
    depth, i = 1, 1
    while depth:
        i = _RUN_RE.match(text, i).end()
        if i == len(text):
            return None
        depth += 1 if text[i] == "(" else -1
        i += 1
    return _SPLIT_RE.match(text, i - 2, len(text) - 2)


def _read(text: str, memo: dict[str, Formula]) -> Formula:
    """Parse `text` through raw slices of it that are memo keys.

    The right spine of `( X ) c ( Y )` texts is walked in a loop: each X
    is looked up (or tokenized alone), and the walk goes on into Y until a
    text is a memo key or has no such split.  When X and Y both parse,
    they are properly nested, so the split is the line's only top-level
    one and the result is the token parse of the whole text.  Every text
    of the spine, each tokenized X and the tokenized rest become keys.
    """
    spine: list[tuple[str, type, Formula]] = []
    while (f := memo.get(text)) is None:
        m = _split(text)
        if m is None:
            f = memo[text] = _parse_tokens(text)
            break
        x = text[2:m.start()]
        left = memo.get(x)
        if left is None:
            left = memo[x] = _parse_tokens(x)
        spine.append((text, _CONNECTIVES[m.group(1)], left))
        text = text[m.end():-2]
    for t, conn, left in reversed(spine):
        f = memo[t] = conn(left, f)
    return f


def parse_formula(text: str, memo: dict[str, Formula] | None = None) -> Formula:
    """Parse one formula.

    With `memo`, a dict kept across calls that maps raw texts to their
    parses, the text is read through its raw slices (`_read`) first.  The
    result is the node the text parses to without the memo, since nodes
    are interned; a text that fails is parsed again without the memo, so
    the error is the one reported without it.
    """
    if memo is None:
        return _parse_tokens(text)
    try:
        return _read(text, memo)
    except ParseError:
        return _parse_tokens(text)


def parse_term(text: str) -> Term:
    return _parse_tokens(text, _Parser.term)


def parse(text: str) -> Expr:
    """Parse a formula or, failing that, a term.

    A failure reports the formula parser's error, which never stops short
    of the term parser's: a text starting with `~` or a quantifier prefix
    fails as a term at its first or second token, and any other is tried
    as an atom, which starts with the same term.
    """
    toks = _tokenize(text)
    if not toks:
        raise ParseError(1, "empty input")
    f, p = _whole(toks, _Parser.formula)
    if f is None:
        f = _whole(toks, _Parser.term)[0]
    if f is None:
        raise p.error()
    return f
