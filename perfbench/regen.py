"""Regenerate the benchmark's recorded inputs and expected outputs.

    python3 perfbench/regen.py fixtures   # fixtures/*.jsonl.gz + manifest.json
    python3 perfbench/regen.py expected   # expected.json

Run from the root of a git checkout of the commit the recordings should
describe.  Both files are frozen once recorded: the benchmark refuses a
fixture whose digest differs from the manifest, and every later commit is
judged against these outputs.  Re-running either command re-baselines the
benchmark and belongs in a change of its own.

`expected` cross-checks the berry reports against the independent oracles
in tests/oracles.py (read only): formula counts against the length
recurrence, and the least unnamed number against substitution-based truth.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from berrykit import cli  # noqa: E402
from berrykit.generators import names_provable  # noqa: E402
from berrykit.parser import parse_formula  # noqa: E402
from berrykit.proofs import to_json_lines  # noqa: E402
from berrykit.syntax import numeral, render  # noqa: E402

from child import _on_alarm, run_command  # noqa: E402
from workloads import FIXTURES, MUTANT_OF, WORKLOADS, mutant_sentence, mutate_conclusion, normalise  # noqa: E402

FIXTURE_DIR = os.path.join(HERE, "fixtures")
# fixture name -> n: the naming derivation of (A v0)(v0 = n <-> v0 = n)
NAMING = {"naming_v0_5": 5, "naming_v0_10": 10}
NAMING_BUDGET = 32


def git_sha() -> str:
    return subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        check=True,
    ).stdout.strip()


def regen_fixtures() -> None:
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    manifest = {}
    for name in FIXTURES:
        n = NAMING[name]
        mu = parse_formula(f"v0 = {render(numeral(n))}")
        ev = names_provable(mu, n, NAMING_BUDGET)
        if ev.kind != "names":
            raise SystemExit(f"{name}: expected a naming derivation, got {ev.kind}")
        data = "".join(line + "\n" for line in to_json_lines(ev.derivation)).encode()
        fname = name + ".jsonl.gz"
        with open(os.path.join(FIXTURE_DIR, fname), "wb") as fh:
            fh.write(gzip.compress(data, 9, mtime=0))
        manifest[name] = {
            "file": fname,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "steps": len(ev.derivation),
            "made_by": f"names_provable(v0 = {render(numeral(n))}, {n}, budget={NAMING_BUDGET})",
            "commit": git_sha(),
        }
        print(f"{fname}: {len(ev.derivation)} steps, {len(data)} bytes")
    with open(os.path.join(FIXTURE_DIR, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def oracle_checks(reports: dict[str, dict]) -> list[str]:
    """Cross-check berry n and formula_count; returns what was checked."""
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles
    from berrykit.berry import enumerate_formulas

    done = []
    for key, rpt in reports.items():
        L, budget = rpt["max_len"], rpt["budget"]
        count = oracles.count_canonical_formulas(L)
        if count != rpt["formula_count"]:
            raise SystemExit(f"{key}: formula_count {rpt['formula_count']} != oracle {count}")
        # substitution-based truth over the enumerated formulas, whose number
        # the recurrence has just confirmed
        mus = [parse_formula(render(f)) for f in enumerate_formulas(L, L)]
        m = 0
        while any(oracles.brute_names(mu, m, budget) for mu in mus):
            m += 1
        if m != rpt["n"]:
            raise SystemExit(f"{key}: n {rpt['n']} != oracle {m}")
        done.append(
            f"{key}: formula_count {count} = oracles.count_canonical_formulas({L});"
            f" n {m} = least m no formula names under oracles.brute_names(scan={budget})"
        )
    return done


def regen_expected() -> None:
    with open(os.path.join(FIXTURE_DIR, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    tmp = os.path.join(ROOT, ".perfbench-regen")
    os.makedirs(tmp, exist_ok=True)
    files = {}
    for name in FIXTURES:
        files[name] = os.path.join(tmp, name + ".jsonl")
        with open(os.path.join(FIXTURE_DIR, manifest[name]["file"]), "rb") as fh:
            data = gzip.decompress(fh.read())
        with open(files[name], "wb") as fh:
            fh.write(data)
    with open(files[MUTANT_OF], encoding="utf-8") as fh:
        lines = mutate_conclusion(fh.readlines(), mutant_sentence(0))
    files["mutant"] = os.path.join(tmp, "mutant.jsonl")
    with open(files["mutant"], "w", encoding="utf-8") as fh:
        fh.writelines(lines)

    commands: dict[str, dict] = {}
    berry_reports: dict[str, dict] = {}
    for workload, cmds in WORKLOADS.items():
        for cmd in cmds:
            argv = [a.format(**files) if a.startswith("{") else a for a in cmd.argv]
            code, out, err, dt = run_command(cli, argv, 600)
            entry: dict = {"argv": list(cmd.argv), "exit": code}
            if out.strip():
                obj = json.loads(out)
                entry["stdout"] = normalise(obj)
                if "max_len" in obj:
                    berry_reports[cmd.key] = obj
            if cmd.key == "check-proof-mutant":
                # the message names the sentence, which the seed picks
                entry["stderr_prefix"] = f"error: step {manifest[MUTANT_OF]['steps'] - 1}: "
                if not err.startswith(entry["stderr_prefix"]):
                    raise SystemExit(f"mutant failed elsewhere: {err!r}")
            else:
                entry["stderr"] = err
            commands[cmd.key] = entry
            print(f"{cmd.key}: exit {code} in {dt:.2f} s")
    for path in files.values():
        os.remove(path)
    os.rmdir(tmp)
    doc = {
        "provenance": {
            "commit": git_sha(),
            "python": platform.python_version(),
            "recorded_by": "python3 perfbench/regen.py expected",
            "compared_with": "top-level meta and derivation-size fields removed",
            "oracle_checks": oracle_checks(berry_reports),
            "unchecked_by_oracle": [
                "berry-semantic-10: quantified formulas are past the count recurrence",
                "check-proof and demo outputs: recorded from this commit",
            ],
        },
        "commands": commands,
    }
    with open(os.path.join(HERE, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _on_alarm)
    match sys.argv[1:]:
        case ["fixtures"]:
            regen_fixtures()
        case ["expected"]:
            regen_expected()
        case _:
            raise SystemExit(__doc__)
