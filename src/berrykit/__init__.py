"""Arithmetic syntax, proof checking, and a naming-paradox engine.

The names below are exported lazily (PEP 562): each one is its home
module's own object, and its first use loads that module, so importing
one layer loads only the layers it imports itself.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it, in the order of __all__
_HOME = {
    "Truth": "semantics",
    "berry_number": "berry",
    "boolos_sentence": "berry",
    "budget_term": "berry",
    "certify_bounds": "berry",
    "decode": "coding",
    "encode": "coding",
    "enumerate_formulas": "berry",
    "eval_budgeted": "semantics",
    "eval_delta0": "semantics",
    "eval_term": "semantics",
    "length": "syntax",
    "numeral": "syntax",
    "parse": "parser",
    "parse_formula": "parser",
    "parse_term": "parser",
    "render": "syntax",
    "run_demo": "demos",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str) -> object:
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
