"""Per-layer spans recorded from outside the package.

`install()` replaces every binding of each traced function, in every
loaded `berrykit` module, with a wrapper that records a span: call count,
inclusive time and self time (inclusive time minus the time of traced
calls made inside it).  A call made while the same function is already on
the span stack is not a new span, so recursion through a module-level name
neither double counts nor inflates the count.

Nothing in the package is edited.  The untraced benchmark child never
installs the wrappers, and `assert_untraced()` proves it runs the original
function objects.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import sys
import time
import types

PACKAGE = "berrykit"

# (module, function) pairs, one per layer boundary the benchmark reports
TRACED = (
    ("berry", "enumerate_formulas"),
    ("berry", "berry_number"),
    ("berry", "certify_bounds"),
    ("semantics", "eval_budgeted"),
    ("semantics", "names_semantic"),
    ("generators", "names_provable"),
    ("generators", "prove_sigma"),
    ("generators", "refute_delta0"),
    ("tactics", "discharge"),
    ("tactics", "compile_proof"),
    ("proofs", "check"),
    ("proofs", "from_json_lines"),
    ("proofs", "to_json_lines"),
    ("parser", "parse_formula"),
    ("syntax", "render"),
    ("syntax", "expand_bounded"),
    ("syntax", "substitute"),
    ("syntax", "rename_to_first"),
    ("coding", "encode"),
    ("coding", "decode"),
    ("relations", "b_rel"),
    ("relations", "nm"),
    ("relations", "prc"),
    ("demos", "run_demo"),
)

LAYERS = (
    "syntax", "parser", "coding", "semantics", "proofs", "tactics",
    "generators", "relations", "berry", "demos", "cli",
)


class TracerError(RuntimeError):
    pass


def load_layers() -> dict[str, types.ModuleType]:
    """Import every layer module; a missing one is an error, not 0 calls."""
    out = {}
    for layer in LAYERS:
        try:
            out[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError as err:
            raise TracerError(f"layer module {PACKAGE}.{layer} is missing: {err}") from err
    return out


def originals(layers: dict[str, types.ModuleType]) -> dict[str, types.FunctionType]:
    out = {}
    for mod, name in TRACED:
        fn = getattr(layers[mod], name, None)
        if not isinstance(fn, types.FunctionType):
            raise TracerError(f"traced function {mod}.{name} is missing")
        out[f"{mod}.{name}"] = fn
    return out


def package_modules() -> list[types.ModuleType]:
    return [
        m for key, m in sorted(sys.modules.items())
        if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]


def assert_untraced() -> None:
    """Every binding of a traced name is the package's own function."""
    fns = originals(load_layers())
    for key, fn in fns.items():
        mod = sys.modules[f"{PACKAGE}.{key.rsplit('.', 1)[0]}"]
        if fn.__code__.co_filename != mod.__file__ or hasattr(fn, "__wrapped__"):
            raise TracerError(f"{key} is not the original function object")
    for m in package_modules():
        for attr, value in vars(m).items():
            if isinstance(value, types.FunctionType) and hasattr(value, "__wrapped__"):
                raise TracerError(f"{m.__name__}.{attr} is wrapped in an untraced run")


class Span:
    __slots__ = ("calls", "s", "self_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.active = False


class Tracer:
    """Aggregated spans keyed by "module.function", plus outcome counters."""

    def __init__(self) -> None:
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {
            "berry.enumerate_formulas.formulas": 0,
            "probes": 0,
            "probes.names": 0,
            "tactics.compile_proof.steps": 0,
            "proofs.check.steps": 0,
            "proofs.from_json_lines.bytes": 0,
        }
        # child time of each open span, innermost last
        self._stack: list[list[float]] = []

    def wrap(self, key: str, fn):
        span = self.spans.setdefault(key, Span())
        stack = self._stack
        clock = time.perf_counter
        before, after = _HOOKS.get(key, (None, None))
        counters = self.counters
        materialise = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            if span.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(counters, args)
            span.active = True
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if materialise:
                    result = list(result)
            finally:
                dur = clock() - t0
                stack.pop()
                span.active = False
                span.calls += 1
                span.s += dur
                span.self_s += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if materialise:
                result = iter(result)
            if after is not None:
                result = after(counters, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        """Rebind every module-level reference to each traced function."""
        fns = originals(load_layers())
        by_id = {id(fn): (key, self.wrap(key, fn)) for key, fn in fns.items()}
        bound = {key: 0 for key in fns}
        for m in package_modules():
            ns = vars(m)
            for attr, value in list(ns.items()):
                hit = by_id.get(id(value))
                if hit is not None:
                    ns[attr] = hit[1]
                    bound[hit[0]] += 1
        for key in fns:
            fn = fns[key]
            if bound[key] == 0:
                raise TracerError(f"no binding of {key} was wrapped")
            stray = [
                r for r in gc.get_referrers(fn)
                if not isinstance(r, (types.FrameType, types.CellType))
                and r is not fns
                and not (isinstance(r, dict) and r.get("__wrapped__") is fn)
            ]
            if stray:
                kinds = ", ".join(sorted({type(r).__name__ for r in stray}))
                raise TracerError(f"{key} is still reachable unwrapped from: {kinds}")

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for mod, name in TRACED:
            key = f"{mod}.{name}"
            sp = self.spans[key]
            out[f"{key}.calls"] = sp.calls
            out[f"{key}.s"] = sp.s
            out[f"{key}.self_s"] = sp.self_s
        c = self.counters
        out["berry.enumerate_formulas.formulas"] = c["berry.enumerate_formulas.formulas"]
        out["berry.probe_names_ratio"] = _ratio(c["probes.names"], c["probes"])
        out["tactics.compile_proof.steps"] = c["tactics.compile_proof.steps"]
        out["proofs.check.steps"] = c["proofs.check.steps"]
        out["proofs.check.steps_per_s"] = _ratio(
            c["proofs.check.steps"], self.spans["proofs.check"].s
        )
        out["proofs.from_json_lines.bytes_per_s"] = _ratio(
            c["proofs.from_json_lines.bytes"], self.spans["proofs.from_json_lines"].s
        )
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------- outcome hooks

def _count_formulas(counters, result):
    items = list(result)
    counters["berry.enumerate_formulas.formulas"] += len(items)
    return iter(items)


def _count_probe(counters, result):
    counters["probes"] += 1
    if result.kind == "names":
        counters["probes.names"] += 1
    return result


def _count_compiled(counters, result):
    counters["tactics.compile_proof.steps"] += len(result)
    return result


def _count_checked(counters, args):
    counters["proofs.check.steps"] += len(args[0])


def _count_loaded(counters, args):
    lines = args[0]
    if isinstance(lines, (list, tuple)):
        counters["proofs.from_json_lines.bytes"] += sum(len(x) for x in lines)


# key -> (before(counters, args), after(counters, result) -> result)
_HOOKS = {
    "berry.enumerate_formulas": (None, _count_formulas),
    "semantics.names_semantic": (None, _count_probe),
    "generators.names_provable": (None, _count_probe),
    "tactics.compile_proof": (None, _count_compiled),
    "proofs.check": (_count_checked, None),
    "proofs.from_json_lines": (_count_loaded, None),
}
