"""Numeric codes for token sequences.

A term or formula is coded through its canonical token spelling: token number
i (zero-based) contributes the i-th prime raised to that token's symbol code,
and the code of the whole sequence is the product.  Everything here is exact
integer arithmetic; codes get astronomically large very quickly, which is
fine because they are objects of study, not storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import InputError, NotACodeError, NotWellFormedError
from .parser import parse
from .syntax import Eq, Expr, Forall, Formula, Iff, Var, numeral, render, tokens

_DEFAULT_CODES = {
    "0": 1,
    "s": 2,
    "+": 3,
    "*": 4,
    "=": 5,
    "<=": 6,
    "~": 7,
    "&": 8,
    "|": 9,
    "->": 10,
    "<->": 11,
    "A": 12,
    "E": 13,
    "(": 14,
    ")": 15,
}

_prime_cache: list[int] = [2, 3, 5, 7, 11, 13]


def _extend_primes(upto_index: int) -> None:
    candidate = _prime_cache[-1]
    while len(_prime_cache) <= upto_index:
        candidate += 2
        for p in _prime_cache:
            if p * p > candidate:
                _prime_cache.append(candidate)
                break
            if candidate % p == 0:
                break


def nth_prime(i: int) -> int:
    """Zero-based: nth_prime(0) == 2."""
    if i < 0:
        raise InputError("prime index must be nonnegative")
    if i >= len(_prime_cache):
        _extend_primes(i)
    return _prime_cache[i]


@dataclass(frozen=True)
class SymbolTable:
    """Assignment of positive integer codes to the fixed symbols.

    ``var_base`` is the offset for variables: v_i gets code var_base + i.
    Fixed-symbol codes must be distinct and stay below ``var_base`` so no
    variable code can collide with them.
    """

    codes: dict[str, int] = field(default_factory=lambda: dict(_DEFAULT_CODES))
    var_base: int = 16

    def __post_init__(self) -> None:
        if set(self.codes) != set(_DEFAULT_CODES):
            missing = set(_DEFAULT_CODES) - set(self.codes)
            extra = set(self.codes) - set(_DEFAULT_CODES)
            raise InputError(
                f"symbol table must cover exactly the fixed symbols"
                f" (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        values = list(self.codes.values())
        if any(v < 1 for v in values):
            raise InputError("symbol codes must be positive")
        if len(set(values)) != len(values):
            raise InputError("symbol codes must be distinct")
        if self.var_base <= max(values):
            raise InputError("var_base must exceed every fixed symbol code")

    def token_code(self, token: str) -> int:
        code = self.codes.get(token)
        if code is not None:
            return code
        if token.startswith("v") and token[1:].isdigit():
            return self.var_base + int(token[1:])
        raise InputError(f"unknown token {token!r}")

    def code_token(self, code: int) -> str | None:
        """Inverse lookup; None when the code denotes nothing."""
        if code >= self.var_base:
            return f"v{code - self.var_base}"
        for token, c in self.codes.items():
            if c == code:
                return token
        return None

    def variable_code(self, i: int) -> int:
        if i < 0:
            raise InputError("variable index must be nonnegative")
        return self.var_base + i


DEFAULT_TABLE = SymbolTable()


def encode(expr: Expr, table: SymbolTable = DEFAULT_TABLE) -> int:
    n = 1
    for i, tok in enumerate(tokens(expr)):
        n *= nth_prime(i) ** table.token_code(tok)
    return n


def _factor_exponents(n: int) -> Iterator[int]:
    """Prime exponents of n in order, stopping at the first gap.

    Raises NotACodeError if a gap is followed by more factors, or if n has
    no factorization of the contiguous form at all.
    """
    i = 0
    while n > 1:
        p = nth_prime(i)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e == 0:
            raise NotACodeError(f"missing factor {p} before remainder {n}")
        yield e
        i += 1


def decode(n: int, table: SymbolTable = DEFAULT_TABLE) -> Expr:
    """Partial inverse of encode: the Expr whose canonical code is n."""
    if n < 2:
        raise NotACodeError(f"{n} codes no token sequence")
    toks = []
    for e in _factor_exponents(n):
        tok = table.code_token(e)
        if tok is None:
            raise NotACodeError(f"exponent {e} is not a symbol code")
        toks.append(tok)
    text = " ".join(toks)
    try:
        expr = parse(text)
    except InputError as err:
        raise NotWellFormedError(f"token sequence {text!r}: {err}") from err
    if render(expr) != text:
        raise NotWellFormedError(f"token sequence {text!r} is not canonical")
    return expr


def peak_symbol_code(j: int, table: SymbolTable = DEFAULT_TABLE) -> int:
    """Largest symbol code in play once variables up to v_j are allowed.

    Variables dominate the fixed symbols, so this is var_base + j.
    """
    if j < 1:
        raise InputError("index must be at least 1")
    return table.variable_code(j)


def code_growth_bound(j: int, table: SymbolTable = DEFAULT_TABLE) -> int:
    """A bound dominating the code of any formula shorter than j whose
    variables are all among the first j.

    Such a formula has at most j-1 tokens, each coded below
    peak_symbol_code(j), on primes below the j-th, so its code is strictly
    below prime(j) ** (peak_symbol_code(j) * j).
    """
    if j < 1:
        raise InputError("index must be at least 1")
    return nth_prime(j) ** (peak_symbol_code(j, table) * j)


def naming_equivalence_code(
    i: int, m: int, table: SymbolTable = DEFAULT_TABLE
) -> int:
    """Code of the sentence forcing the formula coded by m to name i.

    m must decode to a formula; the result codes
    (A v0) ( decoded(m) <-> ( v0 = numeral(i) ) ).
    """
    if i < 0:
        raise InputError("named number must be nonnegative")
    mu = decode(m, table)
    if not isinstance(mu, Formula):
        raise NotWellFormedError(f"{m} decodes to a term, not a formula")
    sentence = Forall(0, Iff(mu, Eq(Var(0), numeral(i))))
    return encode(sentence, table)
