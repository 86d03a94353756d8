"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run    WORKLOAD FILES_JSON SECONDS MIN_PASSES
    python3 perfbench/child.py trace  WORKLOAD FILES_JSON

`run.py` starts this with `src/` first on the path and reads the JSON
object it prints as its last line.  Commands go through
`berrykit.cli.main(argv)` in this process, one after another.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

import tracer
from workloads import WORKLOADS, judge, proof_sizes

_T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# stop starting commands this long after the interpreter started
DEADLINE_S = 140.0


def setup() -> dict:
    """Time to import the CLI, build its parser and the theory Q."""
    t0 = time.perf_counter()
    from berrykit import cli
    from berrykit.proofs import robinson_arithmetic

    robinson_arithmetic()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--json", "parse", "0 = 0"])
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return {"setup_s": time.perf_counter() - t0}


class CommandTimeout(BaseException):
    """Raised by the alarm; BaseException so no handler in the CLI eats it."""


def _on_alarm(signum, frame):
    raise CommandTimeout


def run_command(cli, argv: list[str], limit_s: float) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and seconds of one `cli.main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except CommandTimeout:
        code = -1
        err.write(f"timed out after {limit_s} s\n")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the harness must keep running; the outcome is a failure
        code = -2
        err.write(traceback.format_exc())
    finally:
        dt = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return code, out.getvalue(), err.getvalue(), dt


def run_pass(cli, commands, files: dict, expected: dict, limit_scale: float = 1.0) -> dict:
    total = 0.0
    failures: list[str] = []
    sizes: list[int] = []
    timings: dict[str, float] = {}
    for cmd in commands:
        argv = [a.format(**files) if a.startswith("{") else a for a in cmd.argv]
        code, out, err, dt = run_command(cli, argv, cmd.limit_s * limit_scale)
        total += dt
        timings[cmd.key] = dt
        why = judge(expected[cmd.key], code, out, err)
        if why is not None:
            failures.append(f"{cmd.key}: {why}")
        elif out.strip():
            sizes.extend(proof_sizes(json.loads(out)))
        if time.perf_counter() - _T0 > DEADLINE_S:
            for c in commands[commands.index(cmd) + 1:]:
                failures.append(f"{c.key}: not started, run deadline passed")
                timings[c.key] = 0.0
            break
    return {
        "wall_s": total,
        "attempted": len(commands),
        "failures": failures,
        "proof_sizes": sizes,
        "timings": timings,
    }


def _load(workload: str, files_json: str):
    from berrykit import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"berrykit imported from {cli.__file__}, not {SRC}")
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["commands"]
    with open(files_json, encoding="utf-8") as fh:
        files = json.load(fh)
    return cli, WORKLOADS[workload], files, expected


def peak_rss_kb() -> int:
    """This interpreter's own high-water mark.

    ru_maxrss is not used: Linux keeps it across fork and exec, so a child
    smaller than its parent would report the parent's peak.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run(workload: str, files_json: str, seconds: float, min_passes: int) -> dict:
    """Whole passes over the workload for about `seconds`."""
    cli, commands, files, expected = _load(workload, files_json)
    tracer.assert_untraced()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, commands, files, expected))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if time.perf_counter() - _T0 + per_pass > DEADLINE_S:
            break
        # stop at the pass count nearest to the requested time; below
        # min_passes, only when one pass already took all of it
        if elapsed + per_pass / 2 > seconds and (
            len(passes) >= min_passes or elapsed >= seconds
        ):
            break
    tracer.assert_untraced()
    return {
        "timings": [p["timings"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
        "proof_steps": sum(passes[0]["proof_sizes"]),
        "peak_rss_kb": peak_rss_kb(),
    }


def trace(workload: str, files_json: str) -> dict:
    """One pass with every traced function wrapped."""
    cli, commands, files, expected = _load(workload, files_json)
    t = tracer.Tracer()
    t.install()
    p = run_pass(cli, commands, files, expected, limit_scale=3.0)
    metrics = t.metrics()
    calls = metrics["tactics.compile_proof.calls"]
    metrics["tactics.compile_proof.reported_ratio"] = (
        len(p["proof_sizes"]) / calls if calls else 0.0
    )
    return {
        "wall_s": p["wall_s"],
        "attempted": p["attempted"],
        "failures": p["failures"],
        "metrics": metrics,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGALRM, _on_alarm)
    match argv:
        case ["setup"]:
            result = setup()
        case ["run", workload, files_json, seconds, min_passes]:
            result = run(workload, files_json, float(seconds), int(min_passes))
        case ["trace", workload, files_json]:
            result = trace(workload, files_json)
        case _:
            print(__doc__, file=sys.stderr)
            return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
