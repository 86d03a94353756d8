"""The benchmark's workloads: fixed CLI commands and how outputs are judged.

Every command passes each setting it depends on explicitly (`--budget`,
`--cap`, and per subcommand `--backend`, `--scale` or `--theory`) so that a
change of a built-in default cannot silently change a workload.  No command
passes `--seed`.  Output is requested as JSON (`--json`) and compared with
the values recorded in `expected.json`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

# Derivation-size fields: they feed the proof_steps count and are not
# compared, so a change that shortens proofs is not a wrong answer.
PROOF_SIZE_KEYS = ("derivation_steps", "steps")

# The check-proof fixtures under fixtures/, by name (see manifest.json).
FIXTURES = ("naming_v0_5", "naming_v0_10")
MUTANT_OF = "naming_v0_5"


@dataclass(frozen=True)
class Command:
    key: str              # names the expected output in expected.json
    argv: tuple[str, ...]  # "{name}" stands for a file the harness provides
    limit_s: float         # per-command time limit


def _settings(budget: int, cap: int) -> tuple[str, ...]:
    return ("--json", "--budget", str(budget), "--cap", str(cap))


WORKLOADS: dict[str, tuple[Command, ...]] = {
    # enumeration and the three-valued evaluator only; no proof is built or
    # checked, so proof-layer changes should move nothing here
    "berry-semantic": (
        Command("berry-semantic-9", _settings(64, 9) + (
            "berry", "--max-len", "9", "--backend", "semantic"), 60),
        # unbounded quantifiers appear: budget scans and the honest unknown
        Command("berry-semantic-10", _settings(64, 10) + (
            "berry", "--max-len", "10", "--backend", "semantic"), 60),
    ),
    # the derivation-writing path: LemmaBank, discharge, compile_proof
    "berry-prover": (
        Command("berry-prover-7", _settings(32, 8) + (
            "berry", "--max-len", "7", "--backend", "prover"), 100),
    ),
    # the derivation-reading path: parser plus kernel, at two sizes
    "check-proof": tuple(
        Command(f"check-proof-{name}", _settings(64, 8) + (
            "check-proof", "--theory", "q", "{" + name + "}"), 60)
        for name in FIXTURES + ("mutant",)
    ),
    # every layer in small amounts; the only one reaching relations/coding
    "demo-suite": tuple(
        Command(f"demo-{c}-{backend}", _settings(32, 8) + (
            "demo", str(c), "--backend", backend, "--scale", "6"), 60)
        for c in range(1, 6)
        for backend in ("semantic", "prover")
    ),
}


def mutant_sentence(seed: int) -> str:
    """A false closed sentence picked by the seed: s^a 0 = s^b 0, a != b."""
    a = seed % 7
    b = a + 1 + (seed // 7) % 5
    return f"{_numeral(a)} = {_numeral(b)}"


def _numeral(n: int) -> str:
    return " ".join(["s"] * n + ["0"])


def mutate_conclusion(lines: list[str], sentence: str) -> list[str]:
    """Replace the formula of the last step; every other line is kept."""
    last = json.loads(lines[-1])
    last["f"] = sentence
    return lines[:-1] + [json.dumps(last) + "\n"]


def proof_sizes(obj) -> list[int]:
    """Every derivation size in a report, in document order."""
    out: list[int] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k in PROOF_SIZE_KEYS:
                out.extend(v if isinstance(v, list) else [v])
            else:
                out.extend(proof_sizes(v))
    elif isinstance(obj, list):
        for v in obj:
            out.extend(proof_sizes(v))
    return out


def normalise(obj, top: bool = True):
    """Drop the top-level meta block and every derivation-size field."""
    if isinstance(obj, dict):
        return {
            k: normalise(v, False) for k, v in obj.items()
            if k not in PROOF_SIZE_KEYS and not (top and k == "meta")
        }
    if isinstance(obj, list):
        return [normalise(v, False) for v in obj]
    return obj


def judge(expected: dict, code: int, out: str, err: str) -> str | None:
    """None when the outcome matches, otherwise what differs."""
    if "Traceback (most recent call last)" in err:
        return "printed a traceback"
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    if "stdout" in expected:
        try:
            got = json.loads(out)
        except json.JSONDecodeError:
            return "stdout is not JSON"
        if normalise(got) != expected["stdout"]:
            return "stdout differs from the recorded report"
    elif out.strip():
        return "unexpected stdout"
    if "stderr" in expected:
        if err != expected["stderr"]:
            return f"stderr {err[:80]!r} differs from the recorded one"
    elif not err.startswith(expected["stderr_prefix"]):
        return f"stderr {err[:80]!r} does not start with {expected['stderr_prefix']!r}"
    return None
