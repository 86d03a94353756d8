"""The package's layering: which modules each entry point loads.

The kernel (errors, syntax, parser, proofs) loads on its own and holds
only what the checker reads, the CLI adds only semantics, and the reading
commands load none of the tactics, the generators or the Berry search.
Each check runs in a fresh interpreter, so nothing another test imported
counts.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import berrykit

SRC = str(Path(__file__).resolve().parent.parent / "src")
KERNEL = {"berrykit", "errors", "syntax", "parser", "proofs"}
OUTSIDE_READERS = {"tactics", "generators", "berry", "demos", "relations"}

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "berrykit")))
"""


def loaded(body: str, *args: str) -> set[str]:
    """The berrykit modules a fresh interpreter holds after running body."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body), *args],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return {m.rpartition(".")[2] for m in json.loads(proc.stdout.splitlines()[-1])}


def test_kernel_loads_alone():
    assert loaded("import berrykit.proofs") == KERNEL


def test_cli_adds_only_semantics():
    assert loaded("import berrykit.cli") == KERNEL | {"semantics", "cli"}


def test_semantics_adds_itself_to_the_syntax_layer():
    # classification lives in semantics, which reads the AST and nothing
    # of the checker
    assert loaded("import berrykit.semantics") == {"berrykit", "errors", "syntax", "semantics"}


def test_syntax_holds_no_classification_or_json():
    from berrykit import syntax

    for name in ("classify", "FormulaClass", "to_json_obj"):
        assert not hasattr(syntax, name), name


def test_kernel_is_at_most_1470_lines():
    files = [Path(SRC) / "berrykit" / f"{m}.py" for m in sorted(KERNEL - {"berrykit"})]
    assert sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files) <= 1470


def test_submodule_import_through_the_root():
    assert loaded("from berrykit import syntax; assert syntax.__name__ == 'berrykit.syntax'") == {
        "berrykit", "syntax"
    }


@pytest.mark.parametrize("argv", [
    ["parse", "s 0 + 0"],
    ["classify", "( A v0 ) ( v0 = v0 )"],
    ["eval", "( E v0 ) ( v0 + v0 = s s 0 )"],
    ["gn", "encode", "v0 = 0"],
    ["check-proof", "{proof}"],
], ids=lambda argv: argv[0])
def test_reading_commands_load_no_tactics(argv, tmp_path):
    proof = tmp_path / "d.jsonl"
    proof.write_text(
        '{"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n', encoding="utf-8"
    )
    argv = [a.format(proof=proof) for a in argv]
    body = "from berrykit.cli import main\nassert main(sys.argv[1:]) == 0"
    assert loaded(body, *argv) & OUTSIDE_READERS == set()


class TestLazyExports:
    def test_each_name_is_its_home_modules_object(self):
        for name in berrykit.__all__:
            if name == "__version__":
                continue
            home = importlib.import_module(f"berrykit.{berrykit._HOME[name]}")
            assert getattr(berrykit, name) is getattr(home, name)

    def test_dir_lists_every_export(self):
        assert {"__all__", *berrykit.__all__} <= set(dir(berrykit))

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from berrykit import *", ns)
        for name in berrykit.__all__:
            assert ns[name] is getattr(berrykit, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'berrykit' has no attribute 'nope'$"):
            berrykit.nope
