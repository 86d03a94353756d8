"""Command-line surface.

Configuration precedence, lowest to highest: built-in defaults, config
file (key=value lines), BERRYKIT_* environment variables, explicit
flags.  Exit codes: 0 success, 1 a check or verdict came out negative,
2 malformed input or infeasible request, 3 budget exhausted, 141 standard
output closed by its reader (the shell's code for SIGPIPE).

Each command imports its own layers when it runs: this module loads only
the kernel (errors, syntax, parser, proofs) and semantics, so `parse` or
`check-proof` never loads the tactics, generators or the Berry search.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import BerrykitError, BudgetExhaustedError, CheckFailedError, InputError
from .parser import parse, parse_formula
from .proofs import check, from_json_lines, robinson_arithmetic, to_json_lines
from .semantics import BACKENDS, DEFAULT_BUDGET, DEFAULT_CAP, Truth, classify, decide
from .syntax import (
    CHILDREN,
    Exists,
    Expr,
    Forall,
    Succ,
    fold,
    is_closed,
    is_formula,
    length,
    render,
    succ_spine,
)

if TYPE_CHECKING:
    from .berry import ConcretePhi, MockPhi

ENV_PREFIX = "BERRYKIT_"
_DEFAULTS = {"budget": DEFAULT_BUDGET, "cap": DEFAULT_CAP}


@dataclass(frozen=True)
class Settings:
    budget: int
    cap: int
    as_json: bool


def _utf8(data: bytes, name: str) -> str:
    """UTF-8 bytes as text; undecodable bytes are bad input, named."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputError(f"{name}: not UTF-8 text at byte {err.start}") from err


def _read_text(path: str, what: str = "") -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded is
    bad input, named in the error."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {what}{path}: {err}") from err
    return _utf8(data, f"{what}{path}")


def _write_text(path: str, text: str) -> None:
    """Write text to a UTF-8 file; a path that cannot be written is bad
    input, named in the error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def _utf8_lines(path: str, fh) -> Iterator[str]:
    """The lines of a binary file, each decoded alone, so an undecodable one
    is named by its number (counted from 1, as `from_json_lines` counts)."""
    for lineno, raw in enumerate(fh, 1):
        try:
            yield raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise InputError(
                f"{path}: line {lineno}: not UTF-8 text at byte {err.start} of the line"
            ) from err


def _load_config(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for lineno, raw in enumerate(_read_text(path, "config ").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or key not in _DEFAULTS:
            raise InputError(f"config {path}:{lineno}: expected budget|cap = N")
        try:
            out[key] = int(value.strip())
        except ValueError as err:
            raise InputError(f"config {path}:{lineno}: {err}") from err
    return out


def _settings(args: argparse.Namespace) -> Settings:
    merged = dict(_DEFAULTS)
    if args.config:
        merged.update(_load_config(args.config))
    for key in _DEFAULTS:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is not None:
            try:
                merged[key] = int(raw)
            except ValueError as err:
                raise InputError(f"{ENV_PREFIX}{key.upper()}: {err}") from err
    for key in ("budget", "cap"):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    for key in _DEFAULTS:
        if merged[key] < 0:
            raise InputError(f"{key} must be nonnegative")
    return Settings(merged["budget"], merged["cap"], args.json)


def _dumps(obj: object) -> str:
    """`json.dumps(obj)`, with dicts and lists walked on an explicit stack.

    The stdlib encoder recurses once per nesting level, and an AST in JSON
    nests once per node.  Scalars and keys go through `json.dumps` itself.
    """
    out: list[str] = []
    stack: list[tuple[bool, object]] = [(False, obj)]
    while stack:
        literal, item = stack.pop()
        if literal:
            out.append(item)  # type: ignore[arg-type]
            continue
        if isinstance(item, dict):
            seq: list[tuple[bool, object]] = [(True, "{")]
            for i, (k, v) in enumerate(item.items()):
                key = json.dumps({k: 0})[1:-4]  # a key as json.dumps writes keys
                seq += [(True, (", " if i else "") + key + ": "), (False, v)]
            seq.append((True, "}"))
        elif isinstance(item, (list, tuple)):
            seq = [(True, "[")]
            for i, v in enumerate(item):
                if i:
                    seq.append((True, ", "))
                seq.append((False, v))
            seq.append((True, "]"))
        else:
            out.append(json.dumps(item))
            continue
        stack.extend(reversed(seq))
    return "".join(out)


# the JSON kind of each node type, and the JSON key of each of its fields
_JSON_KINDS: dict[type, str] = {t: t.__name__.lower() for t in CHILDREN}
_JSON_KEY = {"index": "i", "var": "i", "arg": "t", "body": "f", "left": "l", "right": "r"}
_JSON_KEYS = {t: tuple(_JSON_KEY[n] for n in t.__match_args__) for t in CHILDREN}


def _json_of(node: Expr, kids: tuple) -> dict:
    if type(node) is Succ:  # a whole spine, wrapped from its core outwards
        obj = kids[0]
        for _ in range(succ_spine(node)[0]):
            obj = {"k": "succ", "t": obj}
        return obj
    names = node.__match_args__
    ints = [getattr(node, name) for name in names[:len(names) - len(kids)]]
    return {"k": _JSON_KINDS[type(node)], **dict(zip(_JSON_KEYS[type(node)], ints + [*kids]))}


def to_json_obj(e: Expr) -> dict:
    """The tagged JSON object of e, as `parse --json` writes its `ast`;
    iterative, so deep terms are safe."""
    return fold(e, _json_of)


def _emit(obj: dict, text: str, st: Settings) -> None:
    print(_dumps(obj) if st.as_json else text)


def _read_arg_or_stdin(value: str | None) -> str:
    if value is not None:
        return value
    return _utf8(sys.stdin.buffer.read(), "<stdin>")


# --------------------------------------------------------------- handlers

def _cmd_parse(args, st: Settings) -> int:
    e = parse(_read_arg_or_stdin(args.expr))
    kind = "formula" if is_formula(e) else "term"
    text, n = render(e), length(e)
    obj = {"v": 1, "kind": kind, "text": text, "length": n, "ast": to_json_obj(e)}
    summary = f"kind: {kind}  length: {n}"
    if kind == "formula":
        obj["class"] = classify(e).value
        summary += f"  class: {obj['class']}"
    _emit(obj, f"{text}\n{summary}", st)
    return 0


def _cmd_gn(args, st: Settings) -> int:
    from .coding import decode, encode

    if args.direction == "encode":
        e = parse(_read_arg_or_stdin(args.value))
        n = encode(e)
        text = format(n, "x") if args.hex else str(n)
        _emit({"v": 1, "code": text, "hex": args.hex}, text, st)
        return 0
    raw = _read_arg_or_stdin(args.value).strip()
    try:
        n = int(raw, 16 if args.hex else 10)
    except ValueError as err:
        raise InputError(f"not a {'hexadecimal' if args.hex else 'decimal'} integer: {err}")
    e = decode(n)
    _emit(
        {"v": 1, "text": render(e), "length": length(e)},
        render(e),
        st,
    )
    return 0


def _cmd_eval(args, st: Settings) -> int:
    f = parse_formula(_read_arg_or_stdin(args.sentence))
    if not is_closed(f):
        raise InputError("only sentences are evaluated; the formula has free variables")
    truth, parts = decide(f, st.budget)
    label = truth.value
    obj: dict = {"v": 1, "verdict": label, "budget": st.budget}
    text = label
    if (type(f), truth) in ((Exists, Truth.TRUE), (Forall, Truth.FALSE)):
        # a settled scan stops at its least witness or counterexample
        role = "witness" if truth is Truth.TRUE else "counterexample"
        obj[role] = len(parts) - 1
        text += f"  ({role}: {obj[role]})"
    _emit(obj, text, st)
    return 3 if truth is Truth.UNKNOWN else 0


def _cmd_classify(args, st: Settings) -> int:
    f = parse_formula(_read_arg_or_stdin(args.formula))
    c = classify(f)
    _emit({"v": 1, "class": c.value}, c.value, st)
    return 0


def _cmd_rel(args, st: Settings) -> int:
    from .relations import b_rel, fm, lh, neg, nm, prc, snt

    if args.relation in ("lh", "neg", "nm", "b") and args.j is None:
        raise InputError(f"rel {args.relation} takes two numbers")
    if args.relation in ("fm", "snt", "prc") and args.j is not None:
        raise InputError(f"rel {args.relation} takes one argument")
    match args.relation:
        case "fm":
            value = fm(args.i)
        case "snt":
            value = snt(args.i)
        case "lh":
            value = lh(args.i, args.j)
        case "neg":
            value = neg(args.i, args.j)
        case "nm":
            v = nm(args.i, args.j, st.budget)
            return _emit_verdict(v, st)
        case "b":
            v = b_rel(args.i, args.j, st.budget, st.cap)
            return _emit_verdict(v, st)
        case "prc":
            v = prc(args.i, st.budget)
            return _emit_verdict(v, st)
    _emit({"v": 1, "holds": value}, "true" if value else "false", st)
    return 0 if value else 1


def _emit_verdict(v, st: Settings) -> int:
    obj = v.to_json_obj()
    text = {True: "holds", False: "fails", None: "unknown"}[v.holds]
    if v.witness is not None:
        text += f"  witness: {v.witness}"
    if v.derivation is not None:
        text += f"  derivation: {len(v.derivation)} steps"
    if v.reason:
        text += f"  ({v.reason})"
    _emit(obj, text, st)
    match v.holds:
        case True:
            return 0
        case False:
            return 1
    return 3


def _cmd_check_proof(args, st: Settings) -> int:
    if args.file == "-":
        d = from_json_lines(_utf8_lines("<stdin>", sys.stdin.buffer))
    else:
        try:
            with open(args.file, "rb") as fh:
                d = from_json_lines(_utf8_lines(args.file, fh))
        except OSError as err:
            raise InputError(f"cannot read {args.file}: {err}") from err
    check(d, robinson_arithmetic())
    _emit(
        {"v": 1, "valid": True, "steps": len(d), "conclusion": render(d.conclusion)},
        f"valid  ({len(d)} steps, conclusion: {render(d.conclusion)})",
        st,
    )
    return 0


def _cmd_prove_sigma(args, st: Settings) -> int:
    from .generators import prove_sigma

    f = parse_formula(_read_arg_or_stdin(args.sentence))
    d = prove_sigma(f, st.budget)
    payload = "\n".join(to_json_lines(d)) + "\n"
    if args.out:
        _write_text(args.out, payload)
        _emit(
            {"v": 1, "steps": len(d), "file": args.out},
            f"derivation: {len(d)} steps -> {args.out}",
            st,
        )
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_berry(args, st: Settings) -> int:
    from .berry import berry_number

    report = berry_number(args.max_len, args.backend, st.budget, st.cap)
    obj = report.to_json_obj()
    lines = [
        f"least unnamed number below length {report.max_len}: {report.n_value}"
        f"  ({report.formula_count} formulas, backend {report.backend},"
        f" budget {report.budget})"
    ]
    for r in report.records:
        if r.named:
            shown = ", ".join(r.witnesses[:3])
            more = f" (+{len(r.witnesses) - 3} more)" if len(r.witnesses) > 3 else ""
            lines.append(f"  {r.number}: named by {shown}{more}")
        else:
            lines.append(f"  {r.number}: unnamed")
    _emit(obj, "\n".join(lines), st)
    return 0


def _provider(args) -> ConcretePhi | MockPhi:
    from .berry import ConcretePhi, MockPhi

    if getattr(args, "phi_file", None):
        return ConcretePhi(parse_formula(_read_text(args.phi_file)))
    if getattr(args, "phi_mock", None):
        ln, sep, occ = args.phi_mock.partition(":")
        if not sep:
            raise InputError("expected LEN:OCC, e.g. 50:2")
        try:
            return MockPhi(length=int(ln), v1_occurrences=int(occ))
        except ValueError as err:
            raise InputError(f"expected LEN:OCC integers: {err}") from err
    raise InputError("one of --phi-file or --phi-mock is required")


def _cmd_bounds(args, st: Settings) -> int:
    from .berry import certify_bounds

    cert = certify_bounds(_provider(args))
    lines = [
        f"k1={cert.k1} k2={cert.k2} k={cert.k} t_len={cert.t_len}"
        f" subst_len={cert.psi_at_t_len} t_value={cert.t_value}"
    ]
    for name, ok in cert.verdicts:
        lines.append(f"  {'ok ' if ok else 'BAD'} {name}")
    lines.append("certificate holds" if cert.holds else "certificate FAILS")
    _emit(cert.to_json_obj(), "\n".join(lines), st)
    return 0 if cert.holds else 1


def _cmd_boolos(args, st: Settings) -> int:
    from .berry import MockPhi, boolos_schematic, boolos_sentence

    p = _provider(args)
    if isinstance(p, MockPhi):
        obj = boolos_schematic(p, args.n)
        text = (
            f"schematic: {obj['template']}  n={obj['n']}"
            f"  constants {json.dumps(obj['constants'])}"
        )
        _emit(obj, text, st)
        return 0
    f = boolos_sentence(p, args.n)
    obj = {
        "v": 1,
        "text": render(f),
        "length": length(f),
        "closed": is_closed(f),
    }
    _emit(obj, render(f), st)
    return 0


def _cmd_demo(args, st: Settings) -> int:
    from .demos import replay_demo, run_demo

    if args.replay:
        try:
            obj = json.loads(_read_text(args.replay))
        except json.JSONDecodeError as err:
            raise InputError(f"{args.replay}: bad JSON: {err}") from err
        ok, diffs = replay_demo(obj, st.cap)
        if ok:
            _emit({"v": 1, "replay": "ok"}, "replay ok", st)
            return 0
        _emit(
            {"v": 1, "replay": "mismatch", "diffs": diffs},
            "replay MISMATCH:\n  " + "\n  ".join(diffs),
            st,
        )
        return 1
    if args.corollary is None:
        raise InputError("a corollary number 1..5 (or --replay FILE) is required")
    report = run_demo(args.corollary, args.backend, st.budget, args.scale, st.cap)
    obj = report.to_json_obj()
    if args.out:
        _write_text(args.out, json.dumps(obj, indent=2) + "\n")
    lines = [f"[{report.corollary}] {report.title}"]
    for c in report.claims:
        lines.append(f"  [{c.status}] {c.statement}")
        if c.citation:
            lines.append(f"            ({c.citation})")
    lines.append(report.summary)
    if args.out:
        lines.append(f"report -> {args.out}")
    _emit(obj, "\n".join(lines), st)
    return 0


# ----------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="berrykit",
        description="arithmetic kernel, coding, proofs, and least-unnamed-number reports",
    )
    top.add_argument("--json", action="store_true", help="machine-readable output")
    top.add_argument("--budget", type=int, help="witness and verdict budget")
    top.add_argument("--cap", type=int, help="enumeration feasibility cap")
    top.add_argument("--config", help="key=value config file")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="canonicalize a term or formula")
    p.add_argument("expr", nargs="?", help="expression (stdin when omitted)")
    p.set_defaults(fn=_cmd_parse)

    p = sub.add_parser("gn", help="prime-power code of an expression")
    p.add_argument("direction", choices=("encode", "decode"))
    p.add_argument("value", nargs="?", help="expression or code (stdin when omitted)")
    p.add_argument("--hex", action="store_true", help="hexadecimal codes")
    p.set_defaults(fn=_cmd_gn)

    p = sub.add_parser("eval", help="budgeted three-valued truth of a sentence")
    p.add_argument("sentence", nargs="?")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("classify", help="quantifier complexity class")
    p.add_argument("formula", nargs="?")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("rel", help="meta-level relations on code numbers")
    p.add_argument("relation", choices=("fm", "lh", "nm", "b", "snt", "neg", "prc"))
    p.add_argument("i", type=int)
    p.add_argument("j", type=int, nargs="?")
    p.set_defaults(fn=_cmd_rel)

    p = sub.add_parser("check-proof", help="validate a JSON-lines derivation")
    p.add_argument("file", help="path, or - for stdin")
    p.add_argument("--theory", default="q", choices=("q",))
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser("prove-sigma", help="derive a true bounded-or-existential sentence")
    p.add_argument("sentence", nargs="?")
    p.add_argument("-o", "--out", help="write the derivation here")
    p.set_defaults(fn=_cmd_prove_sigma)

    p = sub.add_parser("berry", help="least number no short formula names")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--backend", default="semantic", choices=BACKENDS)
    p.set_defaults(fn=_cmd_berry)

    p = sub.add_parser("bounds", help="certify the size-inequality chain")
    p.add_argument("--phi-file", help="file with a two-variable formula")
    p.add_argument("--phi-mock", help="LEN:OCC declared sizes")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("boolos", help="the template at its own budget term")
    p.add_argument("--phi-file", help="file with a two-variable formula")
    p.add_argument("--phi-mock", help="LEN:OCC declared sizes")
    p.add_argument("--n", type=int, help="close the number slot at n")
    p.set_defaults(fn=_cmd_boolos)

    p = sub.add_parser("demo", help="argument-skeleton reports, checked where possible")
    p.add_argument("corollary", type=int, nargs="?", help="1..5")
    p.add_argument(
        "--backend", default="semantic", choices=BACKENDS,
        help="the Berry search backend of demo 1; demos 2-5 only record it",
    )
    p.add_argument("--scale", type=int, default=6, help="length cutoff for fragments")
    p.add_argument("-o", "--out", help="write the JSON report here")
    p.add_argument("--replay", help="re-run a saved report and diff it")
    p.set_defaults(fn=_cmd_demo)

    return top


def main(argv: list[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # builds without the guard
        return _main(argv)
    # codes are prime-power products: lift the int/str conversion guard for
    # this call, arguments included, and give the caller back its own limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv: list[str] | None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args, _settings(args))
        sys.stdout.flush()  # a reader that left shows here, not at exit
        return code
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the last flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExhaustedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except CheckFailedError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BerrykitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    # recursive walkers give out on deeply nested or huge input: bad input
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to process", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
