"""Identity digest: one sha256 per part of the program's observable output.

Run it from any checkout, on two trees, and compare the lines:

    python tests/digest.py

Parts:
- ``berry``: the report JSON of ``berry --max-len L`` for L = 4..7 on both
  backends (budget 32, cap 8), with exit code and stderr;
- ``demo``: the report JSON of demos 1 to 5 on both backends at scale 6;
- ``corpus-derivations`` and ``corpus-errors``: ``prove_sigma`` and
  ``refute_delta0`` at budget 16 with one shared LemmaBank over 1,500
  ``random_sentence`` and 1,500 ``random_closed_delta0`` sentences (seed 7,
  depth 3) and over the closed instances at v0 = 0, 1, 2 of every 9th
  formula of ``enumerate_formulas(11, 11)``, plus ``names_provable`` at
  i = 0, 1, 3 for the first 400 of those formulas.  Each derivation is
  hashed as its JSON lines, each refusal as its error type and text;
- ``relations``: ``prc`` at budget 16 with one shared LemmaBank on the code
  of every 4th of those sentences and of its negation, hashed as the
  verdict's JSON object and its derivation's JSON lines.

Not a test: pytest collects only ``test_*.py``.  It takes minutes; each
part's wall time goes to stderr, so stdout holds only the five lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from berrykit.berry import enumerate_formulas  # noqa: E402
from berrykit.cli import main  # noqa: E402
from berrykit.coding import encode  # noqa: E402
from berrykit.errors import BerrykitError  # noqa: E402
from berrykit.generators import (  # noqa: E402
    LemmaBank, NamingEvidence, names_provable, prove_sigma, refute_delta0,
)
from berrykit.proofs import to_json_lines  # noqa: E402
from berrykit.relations import prc  # noqa: E402
from berrykit.syntax import Not, numeral, render, substitute  # noqa: E402
from strategies import random_closed_delta0, random_sentence  # noqa: E402

BUDGET = 16


def _cli(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"$ {' '.join(argv)}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n".encode()


_SETTINGS = ["--json", "--budget", "32", "--cap", "8"]
_BACKENDS = ("semantic", "prover")
# (part, argv) for every report command, in the order each part hashes them;
# tests/test_output_identity.py runs the same list one command at a time
REPORT_COMMANDS = [
    ("berry", _SETTINGS + ["berry", "--max-len", str(n), "--backend", b])
    for b in _BACKENDS for n in range(4, 8)
] + [
    ("demo", _SETTINGS + ["demo", str(c), "--backend", b, "--scale", "6"])
    for b in _BACKENDS for c in range(1, 6)
]


def reports() -> dict[str, str]:
    digests = {"berry": hashlib.sha256(), "demo": hashlib.sha256()}
    for part, argv in REPORT_COMMANDS:
        digests[part].update(_cli(argv))
    return {part: h.hexdigest() for part, h in digests.items()}


def _corpus_sentences() -> tuple[list, list]:
    """The corpus sentences, and the formulas whose instances are among them."""
    rng = random.Random(7)
    sentences = [random_sentence(rng, 3) for _ in range(1500)]
    sentences += [random_closed_delta0(rng, 3) for _ in range(1500)]
    formulas = list(enumerate_formulas(11, 11))[::9]
    sentences += [substitute(mu, 0, numeral(k)) for mu in formulas for k in range(3)]
    return sentences, formulas


def corpus() -> dict[str, str]:
    sentences, formulas = _corpus_sentences()
    bank = LemmaBank()
    derivations, errors = hashlib.sha256(), hashlib.sha256()
    counts = {"derivations": 0, "steps": 0, "errors": 0}

    def record(head: str, build) -> None:
        try:
            got = build()
        except BerrykitError as err:
            errors.update(f"{head}\n{type(err).__name__}: {err}\n".encode())
            counts["errors"] += 1
            return
        d = got
        if isinstance(got, NamingEvidence):
            head += f"\n{got.kind} {got.witness} {got.reason}"
            d = got.derivation
        derivations.update(f"{head}\n".encode())
        if d is not None:
            counts["derivations"] += 1
            counts["steps"] += len(d)
            for line in to_json_lines(d):
                derivations.update(f"{line}\n".encode())

    for s in sentences:
        text = render(s)
        record(f"prove_sigma {text}", lambda: prove_sigma(s, BUDGET, bank))
        record(f"refute_delta0 {text}", lambda: refute_delta0(s, BUDGET, bank))
    for mu in formulas[:400]:
        for i in (0, 1, 3):
            record(f"names_provable {render(mu)} {i}",
                   lambda: names_provable(mu, i, BUDGET, bank))
    print(f"# corpus: {len(sentences)} sentences, {counts['derivations']} derivations,"
          f" {counts['steps']} steps, {counts['errors']} errors", file=sys.stderr)
    return {"corpus-derivations": derivations.hexdigest(),
            "corpus-errors": errors.hexdigest()}


def relations() -> dict[str, str]:
    bank = LemmaBank()
    digest = hashlib.sha256()
    verdicts = {True: 0, False: 0, None: 0}
    for s in _corpus_sentences()[0][::4]:
        for f in (s, Not(s)):
            v = prc(encode(f), budget=BUDGET, bank=bank)
            verdicts[v.holds] += 1
            digest.update(f"prc {render(f)}\n{json.dumps(v.to_json_obj())}\n".encode())
            if v.derivation is not None:
                for line in to_json_lines(v.derivation):
                    digest.update(f"{line}\n".encode())
    print(f"# relations: prc holds {verdicts[True]}, unknown {verdicts[None]}",
          file=sys.stderr)
    return {"relations": digest.hexdigest()}


if __name__ == "__main__":
    digests: dict[str, str] = {}
    for part in (reports, corpus, relations):
        start = time.perf_counter()
        digests.update(part())
        print(f"# {part.__name__}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
    for name, digest in digests.items():
        print(f"{digest}  {name}")
