"""berrykit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from its
`src/`.  A closed loop with one caller: each workload runs in one fresh
child interpreter, which sends the workload's CLI commands through
`berrykit.cli.main(argv)` one after another and checks every output
against `expected.json`.  One child at a time, so the numbers do not
depend on how many cores the host has.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median over fresh interpreters of importing `berrykit.cli`,
               building Q and running a trivial command
  wall_s       sum over the workload's commands of each one's fastest time
               over as many whole passes as fit in --seconds (at least 2 while
               one pass takes less than --seconds)
  peak_rss_mb  the child's peak resident set
and also prints failed_ops_frac, proof_steps and, on check-proof,
checked_steps_per_s.  --trace 1 runs one untraced pass and one traced pass
in separate children and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exit status 2, with no
result line, when the checkout or the fixtures are not as expected.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import FIXTURES, MUTANT_OF, WORKLOADS, mutant_sentence, mutate_conclusion  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters before the workload child, and again after
# a single pass leaves berry-prover's one 15 s command with one sample
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # the whole invocation, children included


class BenchError(Exception):
    pass


def prepare_inputs(workdir: str, seed: int) -> tuple[str, dict]:
    """Unpack the digest-checked fixtures and the seeded mutant into workdir."""
    fixtures = os.path.join(HERE, "fixtures")
    with open(os.path.join(fixtures, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    files: dict[str, str] = {}
    steps: dict[str, int] = {}
    for name in FIXTURES:
        entry = manifest[name]
        with open(os.path.join(fixtures, entry["file"]), "rb") as fh:
            data = gzip.decompress(fh.read())
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise BenchError(f"fixture {entry['file']} does not match its recorded sha256")
        files[name] = os.path.join(workdir, name + ".jsonl")
        steps[name] = entry["steps"]
        with open(files[name], "wb") as fh:
            fh.write(data)
    with open(files[MUTANT_OF], encoding="utf-8") as fh:
        lines = mutate_conclusion(fh.readlines(), mutant_sentence(seed))
    files["mutant"] = os.path.join(workdir, "mutant.jsonl")
    steps["mutant"] = steps[MUTANT_OF]
    with open(files["mutant"], "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    files_json = os.path.join(workdir, "files.json")
    with open(files_json, "w", encoding="utf-8") as fh:
        json.dump(files, fh)
    return files_json, steps


def _child_env() -> dict:
    # BERRYKIT_* variables would change settings; a fixed hash seed makes
    # set iteration, and so the traced counts, repeat exactly
    env = {k: v for k, v in os.environ.items() if not k.startswith("BERRYKIT_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py to completion and return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"child {args[0]} passed the run time limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise BenchError(f"child {args[0]} exited {proc.returncode}: {tail[0]}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def command_times(timings: list[dict[str, float]], pick) -> float:
    """Sum over commands of pick(that command's times over the passes)."""
    return sum(pick([t[key] for t in timings]) for key in timings[0])


def measure(workload: str, files_json: str, steps: dict, seconds: int, deadline: float) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    setups = [spawn(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    r = spawn(["run", workload, files_json, str(seconds), str(MIN_PASSES)], deadline)
    setups += [spawn(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    # On a shared 2-vCPU VM, stalls come in bursts and only ever add time, so
    # a command's fastest pass is its least disturbed cost.  Over five
    # check-proof runs the quartile spread was 9% with the median, 5% with
    # the minimum.
    wall = command_times(r["timings"], min)
    metrics = _with_units({
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": r["peak_rss_kb"] / 1024,
    }, declared()[0])
    extra = {
        "wall_s_median": (command_times(r["timings"], statistics.median), "s"),
        "failed_ops_frac": (len(r["failures"]) / r["attempted"], "ratio"),
        "proof_steps": (r["proof_steps"], "count"),
    }
    if workload == "check-proof":
        extra["checked_steps_per_s"] = (sum(steps.values()) / wall, "1/s")
    passes = ", ".join(f"{sum(t.values()):.3f}" for t in r["timings"])
    print(f"  setup_s per probe: {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"  wall_s per pass: {passes}")
    return {"metrics": metrics, "extra": extra, "attempted": r["attempted"],
            "failures": r["failures"]}


def measure_traced(workload: str, files_json: str, deadline: float) -> dict:
    """Per-layer metrics from one traced pass, plus the tracing overhead."""
    ref = spawn(["run", workload, files_json, "0", "1"], deadline)
    tr = spawn(["trace", workload, files_json], deadline)
    overhead = tr["wall_s"] - command_times(ref["timings"], min)
    values = dict(tr["metrics"], **{"trace.overhead_s": overhead})
    metrics = _with_units(values, declared()[1])
    return {"metrics": metrics, "extra": {}, "attempted": ref["attempted"] + tr["attempted"],
            "failures": ref["failures"] + tr["failures"]}


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """name -> unit of the end-to-end and the per-layer metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in doc[k]} for k in ("end_to_end", "per_layer"))


def _with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {odd}")
    return {name: (values[name], units[name]) for name in units}


def report(workload: str, res: dict) -> None:
    for name, (value, unit) in {**res["metrics"], **res["extra"]}.items():
        print(f"  {workload:15} {name:45} {value:>16.6g} {unit}")
    for f in res["failures"]:
        print(f"  FAILED {f}")


def result_line(results: dict[str, dict], prefix: bool) -> str:
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    metrics = {
        (f"{w}.{name}" if prefix else name): {"value": value, "unit": unit}
        for w, r in results.items()
        for name, (value, unit) in r["metrics"].items()
    }
    return json.dumps({"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally: subprocess.run kills and reaps the running
    # child, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "berrykit", "cli.py")):
        print(f"error: no berrykit sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        deadline = time.monotonic() + RUN_LIMIT_S * len(names)
        files_json, steps = prepare_inputs(workdir, args.seed)
        print(f"provenance {json.dumps(provenance(args.seed))}")
        results = {}
        for w in names:
            print(f"workload {w}: seconds {args.seconds}, trace {args.trace}")
            if args.trace:
                results[w] = measure_traced(w, files_json, deadline)
            else:
                results[w] = measure(w, files_json, steps, args.seconds, deadline)
            report(w, results[w])
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(result_line(results, prefix=len(names) > 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
