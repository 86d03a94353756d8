from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from berrykit import cli
from berrykit.cli import main
from berrykit.coding import encode
from berrykit.syntax import Eq, Not, Var, Zero, numeral, render

NAMER = encode(Eq(Var(0), Zero()))


def set_stdin(monkeypatch, data: bytes) -> None:
    """Standard input as a process gets it: text over a byte buffer."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))


@pytest.fixture(autouse=True)
def dumps_matches_stdlib(monkeypatch):
    """Every --json output here is checked against the stdlib encoder."""
    dumps = cli._dumps

    def checked(obj):
        out = dumps(obj)
        try:
            expected = json.dumps(obj)
        except RecursionError:
            return out
        assert out == expected
        return out

    monkeypatch.setattr(cli, "_dumps", checked)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_canonicalizes(self, capsys):
        code, out, _ = run(capsys, "parse", "s(s 0)+0")
        assert code == 0
        assert "s s 0 + 0" in out

    def test_json_mode_carries_ast(self, capsys):
        code, out, _ = run(capsys, "--json", "parse", "v0 = 0")
        obj = json.loads(out)
        assert code == 0 and obj["v"] == 1
        assert obj["kind"] == "formula" and obj["length"] == 3

    def test_malformed_input(self, capsys):
        code, _, err = run(capsys, "parse", "( 0 +")
        assert code == 2 and "error" in err

    def test_stdin_fallback(self, capsys, monkeypatch):
        set_stdin(monkeypatch, b"s 0 = s 0")
        code, out, _ = run(capsys, "parse")
        assert code == 0 and "s 0 = s 0" in out

    @pytest.mark.parametrize("command", ["parse", "eval", "classify"])
    def test_deep_successor_chain_is_valid_input(self, capsys, command):
        code, out, err = run(capsys, command, "s " * 1000 + "0 = 0")
        assert code == 0 and err == ""
        assert out.startswith("s s s ") if command == "parse" else out

    @pytest.mark.parametrize(
        "flags, text",
        [
            (("--json",), "s " * 1000 + "0 = 0"),
            (("--json",), "~ ( " * 2000 + "0 = 0" + " )" * 2000),
            ((), "~ ( " * 2000 + "0 = 0" + " )" * 2000),
        ],
        ids=["json-successors", "json-negations", "negations"],
    )
    def test_deep_input_parses(self, capsys, flags, text):
        code, out, err = run(capsys, *flags, "parse", text)
        assert code == 0 and err == ""
        if flags:
            assert out.startswith('{"v": 1, "kind": "formula", "text": "' + text + '"')
            assert out.count("{") == out.count("}") and out.endswith("}\n")
        else:
            assert out.startswith(text + "\n")

    def test_deep_nesting_is_bad_input(self, capsys):
        text = "( A v0 ) ( " * 3000 + "0 = 0" + " )" * 3000
        code, out, err = run(capsys, "parse", text)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestGn:
    def test_round_trip(self, capsys):
        code, out, _ = run(capsys, "gn", "encode", "v0 = 0")
        assert code == 0
        n = out.strip()
        code2, out2, _ = run(capsys, "gn", "decode", n)
        assert code2 == 0 and out2.strip() == "v0 = 0"

    def test_hex_round_trip(self, capsys):
        code, out, _ = run(capsys, "gn", "encode", "0 = 0", "--hex")
        assert code == 0
        code2, out2, _ = run(capsys, "--json", "gn", "decode", out.strip(), "--hex")
        obj = json.loads(out2)
        assert code2 == 0 and obj["text"] == "0 = 0"

    def test_decode_garbage_code(self, capsys):
        code, _, err = run(capsys, "gn", "decode", "17")
        assert code == 2 and "error" in err

    def test_decode_non_integer(self, capsys):
        code, _, _ = run(capsys, "gn", "decode", "xyz")
        assert code == 2

    def test_stdin(self, capsys, monkeypatch):
        set_stdin(monkeypatch, b"s 0")
        code, out, _ = run(capsys, "gn", "encode")
        assert code == 0 and out.strip().isdigit()


class TestEval:
    def test_true_sentence(self, capsys):
        code, out, _ = run(capsys, "eval", "s 0 <= s s 0")
        assert code == 0 and "true" in out.lower()

    def test_false_sentence(self, capsys):
        code, out, _ = run(capsys, "eval", "s 0 = 0")
        assert code == 0 and "false" in out.lower()

    def test_unknown_exhausts_budget(self, capsys):
        code, out, _ = run(
            capsys, "--budget", "3", "eval", "( E v0 ) ( v0 = s s s s s 0 )"
        )
        assert code == 3

    def test_witness_reported_for_existential(self, capsys):
        code, out, _ = run(
            capsys, "--json", "eval", "( E v0 ) ( v0 * v0 = s s s s 0 )"
        )
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "true"
        assert obj["witness"] == 2

    def test_open_formula_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "v0 = 0")
        assert code == 2

    # a bounded scan runs to its bound whatever the budget, and its witness
    # or counterexample is reported wherever it lies
    def test_bounded_witness_above_the_budget(self, capsys):
        code, out, _ = run(
            capsys, "--budget", "8", "eval",
            "( E v1 ) ( ( s v1 <= s s s s s s s s s s s s 0 )"
            " & ( v1 = s s s s s s s s s s 0 ) )",
        )
        assert code == 0 and out.strip() == "true  (witness: 10)"

    def test_bounded_counterexample_above_the_budget(self, capsys):
        code, out, _ = run(
            capsys, "--budget", "8", "--json", "eval",
            "( A v1 ) ( ( s v1 <= s s s s s s s s s s s s 0 )"
            " -> ( ~ ( v1 = s s s s s s s s s s 0 ) ) )",
        )
        obj = json.loads(out)
        assert code == 0 and obj["verdict"] == "false"
        assert obj["counterexample"] == 10

    def test_padded_quantifier_reports_zero(self, capsys):
        code, out, _ = run(capsys, "--json", "eval", "( E v1 ) ( 0 = 0 )")
        assert code == 0 and json.loads(out)["witness"] == 0


class TestClassify:
    @pytest.mark.parametrize(
        "text,label",
        [
            ("0 = 0", "delta0"),
            ("( E v0 ) ( v0 = 0 )", "sigma1"),
            ("( A v0 ) ( v0 = 0 )", "other"),
        ],
    )
    def test_labels(self, capsys, text, label):
        code, out, _ = run(capsys, "classify", text)
        assert code == 0 and label in out


class TestRel:
    def test_fm_true(self, capsys):
        code, out, _ = run(capsys, "rel", "fm", str(NAMER))
        assert code == 0

    def test_fm_false_exits_one(self, capsys):
        code, _, _ = run(capsys, "rel", "fm", "17")
        assert code == 1

    def test_lh_needs_second_argument(self, capsys):
        code, _, err = run(capsys, "rel", "lh", str(NAMER))
        assert code == 2 and "two numbers" in err

    def test_nm_positive(self, capsys):
        code, out, _ = run(capsys, "--json", "rel", "nm", "0", str(NAMER))
        obj = json.loads(out)
        assert code == 0 and obj["holds"] is True

    def test_nm_negative(self, capsys):
        code, _, _ = run(capsys, "rel", "nm", "2", str(NAMER))
        assert code == 1

    def test_b_undecided_exits_three(self, capsys):
        code, _, _ = run(capsys, "--budget", "1", "rel", "b", "5", "6")
        assert code == 3

    def test_prc_trivial_positive(self, capsys):
        code, _, _ = run(capsys, "rel", "prc", "17")
        assert code == 0

    def test_prc_undecided(self, capsys):
        code, _, _ = run(capsys, "rel", "prc", str(encode(Eq(Zero(), Zero()))))
        assert code == 3

    def test_snt_takes_one_argument(self, capsys):
        code, _, err = run(capsys, "rel", "snt", str(NAMER), "4")
        assert code == 2 and "one argument" in err

    def test_nm_negative_budget_is_bad_input(self, capsys):
        code, out, err = run(capsys, "--budget", "-1", "rel", "nm", "0", str(NAMER))
        assert (code, out, err) == (2, "", "error: budget must be nonnegative\n")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)
class TestDigitLimit:
    """Codes of a few thousand digits pass in and out at any caller limit,
    and the caller gets its own limit back."""

    LONG = "v0 = " + "s " * 800 + "0"  # its code has 5,273 digits

    @pytest.fixture(autouse=True)
    def default_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    def test_long_code_accepted_as_an_argument(self, capsys):
        code, out, _ = run(capsys, "gn", "encode", self.LONG)
        assert code == 0 and len(out.strip()) == 5273
        sys.set_int_max_str_digits(4300)
        assert run(capsys, "rel", "fm", out.strip()) == (0, "true\n", "")

    def test_caller_limit_restored(self, capsys):
        assert run(capsys, "gn", "encode", self.LONG)[0] == 0
        assert sys.get_int_max_str_digits() == 4300


class TestProofPipeline:
    def test_prove_then_check(self, capsys, tmp_path):
        out_file = tmp_path / "d.jsonl"
        code, _, _ = run(capsys, "prove-sigma", "s 0 + s 0 = s s 0", "-o", str(out_file))
        assert code == 0
        code2, out2, _ = run(capsys, "check-proof", str(out_file))
        assert code2 == 0 and "valid" in out2

    def test_tampered_file_fails(self, capsys, tmp_path):
        out_file = tmp_path / "d.jsonl"
        run(capsys, "prove-sigma", "s 0 <= s s 0", "-o", str(out_file))
        lines = out_file.read_text().splitlines()
        obj = json.loads(lines[-1])
        obj["f"] = "0 = s 0"
        lines[-1] = json.dumps(obj)
        out_file.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "check-proof", str(out_file))
        assert code == 1 and "error" in err

    def test_check_proof_stdin(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "d.jsonl"
        run(capsys, "prove-sigma", "0 = 0", "-o", str(out_file))
        set_stdin(monkeypatch, out_file.read_bytes())
        code, _, _ = run(capsys, "check-proof", "-")
        assert code == 0

    def test_false_sentence_refused(self, capsys):
        code, _, err = run(capsys, "prove-sigma", "0 = s 0")
        assert code == 1

    def test_budget_exhaustion(self, capsys):
        code, _, _ = run(
            capsys, "--budget", "2", "prove-sigma", "( E v0 ) ( v0 = s s s s 0 )"
        )
        assert code == 3

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "check-proof", "/nonexistent/d.jsonl")
        assert code == 2

    def test_undecodable_bytes(self, capsys, tmp_path):
        good = b'{"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n'
        path = tmp_path / "d.jsonl"
        path.write_bytes(good + b'{"f": "\xff"}\n')
        code, out, err = run(capsys, "check-proof", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {path}: line 2: not UTF-8 text at byte 7 of the line\n"

    def test_bad_json_before_undecodable_bytes(self, capsys, tmp_path):
        # the file is read as it is checked: a bad line in the first block
        # is reported before undecodable bytes further on
        good = b'{"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n'
        path = tmp_path / "d.jsonl"
        path.write_bytes(b"{nope}\n" + good * 200 + b"\xff\n")
        code, _, err = run(capsys, "check-proof", str(path))
        assert code == 2 and err.startswith("error: line 1: bad JSON: ")

    def test_json_nested_too_deeply_names_its_line(self, capsys, tmp_path):
        # once the catch-all's "input nested too deeply", with no line
        path = tmp_path / "d.jsonl"
        path.write_text("[" * 100_000 + "\n")
        code, out, err = run(capsys, "check-proof", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: bad JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("formula, message", [
        ("0 = = 0", "syntax error at token 3: unexpected '=' (expected one of: (, 0, s, v<i>)"),
        ("( " * 3000 + "v0 = 0" + " ) -> ( v0 = 0 )" * 3000, "formula nested too deeply to read"),
    ], ids=["syntax-error", "left-nested"])
    def test_unreadable_formula_names_its_line(self, capsys, tmp_path, formula, message):
        # once the parser's error alone, or the catch-all's "input nested
        # too deeply", with no line
        good = {"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "i": 1, "f": formula}) + "\n")
        code, out, err = run(capsys, "check-proof", str(path))
        assert (code, out, err) == (2, "", f"error: line 2: {message}\n")


    @pytest.mark.parametrize("field, value, message", [
        ("prem", [True, 0], "'prem' must be a list of step indices"),
        ("prem", [1, 0.0], "'prem' must be a list of step indices"),
        ("prem", ["a", 1], "'prem' must be a list of step indices"),
        ("prem", 1, "'prem' must be a list of step indices"),
        ("name", {"a": 1}, "'rule' and 'name' must be strings"),
        ("rule", 3, "'rule' and 'name' must be strings"),
        ("var", "0", "'i' and 'var' must be integers"),
        ("i", True, "'i' and 'var' must be integers"),
    ], ids=["true-premise", "float-premise", "string-premise", "premise-not-a-list",
            "dict-name", "int-rule", "string-var", "true-index"])
    def test_malformed_step_field_is_bad_input(self, capsys, tmp_path, field, value, message):
        # JSON true once read as premise 1, and the others leaked Python errors
        lines = [
            {"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"},
            {"i": 1, "f": "( 0 = 0 ) -> ( ( 0 = 0 ) -> ( 0 = 0 ) )", "rule": "schema",
             "name": "imp_k"},
            {"i": 2, "f": "( 0 = 0 ) -> ( 0 = 0 )", "rule": "mp", "prem": [1, 0]},
        ]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        assert run(capsys, "check-proof", str(path))[0] == 0
        lines[2][field] = value
        path.write_text("".join(json.dumps(o) + "\n" for o in lines))
        code, out, err = run(capsys, "check-proof", str(path))
        assert (code, out, err) == (2, "", f"error: line 3: {message}\n")


class TestBerry:
    def test_reports_least_unnamed(self, capsys):
        code, out, _ = run(capsys, "--json", "berry", "--max-len", "6")
        obj = json.loads(out)
        assert code == 0 and obj["n"] == 3

    def test_budget_starvation(self, capsys):
        code, _, _ = run(capsys, "--budget", "1", "berry", "--max-len", "6")
        assert code == 3

    def test_cap(self, capsys):
        code, _, err = run(capsys, "berry", "--max-len", "16")
        assert code == 2 and "cap" in err


class TestBoundsAndSentence:
    def test_mock_bounds_hold(self, capsys):
        code, out, _ = run(capsys, "--json", "bounds", "--phi-mock", "40:3")
        obj = json.loads(out)
        assert code == 0 and obj["holds"] is True

    def test_concrete_bounds(self, capsys, tmp_path):
        phi = tmp_path / "phi.txt"
        phi.write_text("v0 = v1\n")
        code, out, _ = run(capsys, "--json", "bounds", "--phi-file", str(phi))
        obj = json.loads(out)
        assert code == 0 and obj["k1"] == 29

    def test_bad_mock_spec(self, capsys):
        code, _, _ = run(capsys, "bounds", "--phi-mock", "nonsense")
        assert code == 2

    def test_requires_a_provider(self, capsys):
        code, _, _ = run(capsys, "bounds")
        assert code == 2

    def test_sentence_from_concrete_base(self, capsys, tmp_path):
        phi = tmp_path / "phi.txt"
        phi.write_text("v0 = v1\n")
        code, out, _ = run(capsys, "boolos", "--phi-file", str(phi), "--n", "0")
        assert code == 0 and "<=" in out

    def test_mock_gets_schematic_json(self, capsys):
        code, out, _ = run(capsys, "--json", "boolos", "--phi-mock", "40:3")
        obj = json.loads(out)
        assert code == 0 and obj["schematic"] is True

    def test_mock_rejects_a_negative_number(self, capsys):
        code, out, err = run(capsys, "boolos", "--phi-mock", "50:2", "--n", "-1")
        assert (code, out, err) == (2, "", "error: the number must be natural\n")


class TestDemo:
    def test_run_and_replay(self, capsys, tmp_path):
        report = tmp_path / "demo.json"
        code, _, _ = run(capsys, "demo", "2", "-o", str(report))
        assert code == 0
        code2, out2, _ = run(capsys, "demo", "--replay", str(report))
        assert code2 == 0 and "ok" in out2.lower()

    def test_replay_detects_tampering(self, capsys, tmp_path):
        report = tmp_path / "demo.json"
        run(capsys, "demo", "2", "-o", str(report))
        obj = json.loads(report.read_text())
        obj["summary"] = "rewritten"
        report.write_text(json.dumps(obj))
        code, _, err = run(capsys, "demo", "--replay", str(report))
        assert code == 1

    def test_demo_needs_a_corollary_or_replay(self, capsys):
        code, _, _ = run(capsys, "demo")
        assert code == 2

    @pytest.mark.parametrize("corollary", ["1", "2", "3", "4", "5"])
    def test_negative_scale_is_bad_input_for_every_demo(self, capsys, corollary):
        code, out, err = run(capsys, "demo", corollary, "--scale", "-1")
        assert (code, out) == (2, "")
        assert err == "error: scale -1 is negative; it must be a natural number\n"
        code, _, _ = run(capsys, "demo", corollary, "--scale", "0")
        assert code == 0

    @pytest.mark.parametrize(
        "field,value",
        [
            ("claims", [1, 2, 3]),
            ("claims", 5),
            ("params", []),
            ("scale", "6"),
            ("scale", 2.5),
            ("budget", None),
            ("backend", 1),
            ("corollary", [1]),
            ("corollary", True),
            ("v", True),
        ],
        ids=[
            "claims-not-objects", "claims-not-a-list", "params-not-an-object",
            "scale-string", "scale-float", "budget-null", "backend-number",
            "corollary-list", "corollary-bool", "version-bool",
        ],
    )
    def test_replay_of_a_malformed_field_is_bad_input(self, capsys, tmp_path, field, value):
        obj = {
            "v": 1,
            "corollary": 2,
            "params": {"backend": "semantic", "budget": 32, "scale": 0},
            "claims": [],
            "summary": "",
        }
        if field in obj:
            obj[field] = value
        else:
            obj["params"][field] = value
        report = tmp_path / "demo.json"
        report.write_text(json.dumps(obj))
        code, out, err = run(capsys, "demo", "--replay", str(report))
        assert (code, out) == (2, "")
        if field == "v":  # a JSON true equals 1 in Python, yet is no version
            assert err == "error: not a version-1 report object\n"
            return
        assert err.startswith("error: report field ") and err.count("\n") == 1
        assert repr(field) in err

    def test_replay_of_a_negative_scale_is_bad_input(self, capsys, tmp_path):
        report = tmp_path / "demo.json"
        run(capsys, "demo", "2", "--scale", "0", "-o", str(report))
        obj = json.loads(report.read_text())
        obj["params"]["scale"] = -1
        report.write_text(json.dumps(obj))
        code, _, err = run(capsys, "demo", "--replay", str(report))
        assert (code, err) == (2, "error: scale -1 is negative; it must be a natural number\n")

    @pytest.mark.parametrize("cap,scale", [("0", "2"), ("3", "6")])
    def test_scale_past_the_cap_is_bad_input(self, capsys, cap, scale):
        code, out, err = run(capsys, "--cap", cap, "demo", "1", "--scale", scale)
        assert (code, out) == (2, "")
        assert err == (f"error: scale {scale} is past the feasibility cap; the fragment"
                       f" explodes combinatorially, stay at {cap} or below\n")

    @pytest.mark.parametrize("corollary", ["2", "5"])
    def test_fragment_is_enumerated_under_the_cap(self, capsys, corollary):
        # the fragment holds the sentences up to the scale, so it is
        # enumerated up to scale + 1, which the cap must admit
        code, out, err = run(capsys, "--cap", "4", "demo", corollary, "--scale", "4")
        assert (code, out) == (2, "")
        assert err == "error: enumeration up to length 5 exceeds the cap 4\n"

    def test_scale_at_the_cap_runs(self, capsys):
        code, out, _ = run(capsys, "--cap", "3", "demo", "1", "--scale", "3")
        assert code == 0 and out.startswith("[1] ")

    def test_replay_runs_under_the_replaying_cap(self, capsys, tmp_path):
        report = tmp_path / "demo.json"
        run(capsys, "demo", "1", "--scale", "4", "-o", str(report))
        code, out, _ = run(capsys, "--cap", "4", "demo", "--replay", str(report))
        assert code == 0 and "ok" in out
        code, out, err = run(capsys, "--cap", "3", "demo", "--replay", str(report))
        assert (code, out) == (2, "")
        assert err.endswith("stay at 3 or below\n")


class TestUnwritableOutput:
    """An -o path that cannot be written is bad input on one stderr line,
    for both commands that write one."""

    @pytest.mark.parametrize("command", [["prove-sigma", "0 = 0"], ["demo", "2"]],
                             ids=["prove-sigma", "demo"])
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_bad_input(self, capsys, tmp_path, command, target):
        path = tmp_path / "absent" / "x" if target == "missing-directory" else tmp_path
        code, out, err = run(capsys, *command, "-o", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
        assert not (tmp_path / "absent").exists()


class TestConfig:
    def test_env_overrides_default(self, capsys, monkeypatch):
        monkeypatch.setenv("BERRYKIT_BUDGET", "2")
        code, _, _ = run(capsys, "prove-sigma", "( E v0 ) ( v0 = s s s s 0 )")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("BERRYKIT_BUDGET", "2")
        code, _, _ = run(
            capsys, "--budget", "16", "prove-sigma", "( E v0 ) ( v0 = s s s s 0 )"
        )
        assert code == 0

    def test_config_file_between_defaults_and_env(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("# comment\nbudget=2\n")
        code, _, _ = run(
            capsys, "--config", str(cfg), "prove-sigma", "( E v0 ) ( v0 = s s s s 0 )"
        )
        assert code == 3

    # commands that decide nothing reject a negative setting as those that do;
    # the budget cases have bare ids, which recorded test lists name
    @pytest.mark.parametrize("key, source", [
        pytest.param(key, source, id=source if key == "budget" else f"{key}-{source}")
        for key in ("budget", "cap") for source in ("flag", "env", "config")
    ])
    def test_negative_budget_is_bad_input_from_every_source(
        self, capsys, tmp_path, monkeypatch, key, source
    ):
        argv = ["berry", "--max-len", "3"]
        if source == "flag":
            argv = [f"--{key}", "-1", *argv]
        elif source == "env":
            monkeypatch.setenv(f"BERRYKIT_{key.upper()}", "-4")
            argv = ["demo", "1", "--scale", "2"]
        else:
            cfg = tmp_path / "cfg"
            cfg.write_text(f"{key}=-2\n")
            argv = ["--config", str(cfg), *argv]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {key} must be nonnegative\n")

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("volume=11\n")
        code, _, _ = run(capsys, "--config", str(cfg), "parse", "0 = 0")
        assert code == 2

    def test_seed_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "7", "parse", "0 = 0"])
        assert exc.value.code == 2

    def test_seed_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=7\n")
        code, _, err = run(capsys, "--config", str(cfg), "parse", "0 = 0")
        assert code == 2 and err.endswith("expected budget|cap = N\n")
        monkeypatch.setenv("BERRYKIT_SEED", "not a number")
        assert run(capsys, "parse", "0 = 0")[0] == 0

    def test_depth_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg"
        cfg.write_text("depth = 6\n")
        code, _, err = run(capsys, "--config", str(cfg), "parse", "0 = 0")
        assert code == 2 and err.endswith("expected budget|cap = N\n")
        monkeypatch.setenv("BERRYKIT_DEPTH", "not-a-number")
        assert run(capsys, "parse", "0 = 0")[0] == 0


class TestUndecodableFiles:
    """A file that is not UTF-8 is bad input named by its path, whichever
    option reads it; no codec text reaches the catch-all."""

    def _file(self, tmp_path, data: bytes):
        path = tmp_path / "input"
        path.write_bytes(data)
        return str(path)

    def test_check_proof_names_the_line(self, capsys, tmp_path):
        good = b'{"f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n'
        path = self._file(tmp_path, good * 3 + b'{"f": "0 = 0 \xc3"}\n' + good)
        code, out, err = run(capsys, "check-proof", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: line 4: not UTF-8 text at byte 13 of the line\n"

    def test_config(self, capsys, tmp_path):
        path = self._file(tmp_path, b"budget=2\n# \xff\n")
        code, out, err = run(capsys, "--config", path, "parse", "0 = 0")
        assert (code, out, err) == (2, "", f"error: config {path}: not UTF-8 text at byte 11\n")

    def test_phi_file(self, capsys, tmp_path):
        path = self._file(tmp_path, b"v0 = v1 \xfe\n")
        code, out, err = run(capsys, "bounds", "--phi-file", path)
        assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text at byte 8\n")

    def test_demo_replay(self, capsys, tmp_path):
        path = self._file(tmp_path, b'{"corollary": 2, "title": "\x80"}')
        code, out, err = run(capsys, "demo", "--replay", path)
        assert (code, out, err) == (2, "", f"error: {path}: not UTF-8 text at byte 27\n")

    @pytest.mark.parametrize("command", ["parse", "eval", "classify", "prove-sigma"])
    def test_stdin(self, capsys, monkeypatch, command):
        set_stdin(monkeypatch, b"s 0 = \xff 0\n")
        code, out, err = run(capsys, command)
        assert (code, out, err) == (2, "", "error: <stdin>: not UTF-8 text at byte 6\n")

    def test_gn_stdin(self, capsys, monkeypatch):
        set_stdin(monkeypatch, b"12\xe9")
        code, out, err = run(capsys, "gn", "decode")
        assert (code, out, err) == (2, "", "error: <stdin>: not UTF-8 text at byte 2\n")

    def test_check_proof_stdin_names_the_line(self, capsys, monkeypatch):
        good = b'{"f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n'
        set_stdin(monkeypatch, good * 2 + b'{"f": "\xff"}\n')
        code, out, err = run(capsys, "check-proof", "-")
        assert (code, out) == (2, "")
        assert err == "error: <stdin>: line 3: not UTF-8 text at byte 7 of the line\n"


class TestKernelGate:
    """The prover-backed reports print only what the kernel accepted."""

    @pytest.fixture
    def rejecting_kernel(self, monkeypatch):
        from berrykit import proofs
        calls = []

        def reject(derivation, theory):
            calls.append(len(derivation))
            raise proofs.ProofCheckError(0, "rejected for the test")

        monkeypatch.setattr(proofs, "check", reject)
        return calls

    def test_berry_prints_nothing(self, capsys, rejecting_kernel):
        code, out, err = run(capsys, "berry", "--max-len", "5", "--backend", "prover")
        assert (code, out) == (1, "")
        assert "rejected for the test" in err
        assert len(rejecting_kernel) == 1

    def test_demo_fails(self, capsys, rejecting_kernel):
        code, out, err = run(capsys, "demo", "1", "--backend", "prover")
        assert code != 0 and out == ""
        assert "rejected for the test" in err

    def test_semantic_backend_calls_no_kernel(self, capsys, rejecting_kernel):
        code, _, _ = run(capsys, "berry", "--max-len", "5")
        assert code == 0 and rejecting_kernel == []


class TestArgparseErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["berry"])
        assert exc.value.code == 2


class TestJsonWriter:
    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            {"v": 1, "a": [], "b": {}, "c": [1, [2, [3]], {"d": None}]},
            {"s": "é\n\t\"\\   \U0001f600", "t": True, "f": False, "n": None, "x": -0.5},
            {1: "int key", True: "bool key", None: "none key", 2.5: "float key"},
            ("a", ("b",)),
            {"deep": [[[[[[[[[[0]]]]]]]]]]},
        ],
    )
    def test_matches_stdlib(self, obj):
        assert cli._dumps(obj) == json.dumps(obj)

    def test_depth_beyond_the_stdlib(self):
        obj: object = 0
        for _ in range(20_000):
            obj = {"a": [obj]}
        out = cli._dumps(obj)
        assert out == '{"a": [' * 20_000 + "0" + "]}" * 20_000


class TestClosedStdout:
    """A reader that is gone before anything is written: exit 141, the
    shell's code for SIGPIPE, with nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["--json", "berry", "--max-len", "7"],
        ["parse", "0 = 0"],
    ], ids=["berry", "parse"])
    def test_exits_141_without_a_traceback(self, argv):
        src = str(Path(__file__).resolve().parent.parent / "src")
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "berrykit.cli", *argv],
                env={**os.environ, "PYTHONPATH": src},
                stdout=write, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (141, "")


class TestParserCache:
    def test_alternating_commands_match_fresh_processes(self, capsys, tmp_path):
        proof = tmp_path / "d.jsonl"
        proof.write_text(
            '{"i": 0, "f": "0 = 0", "rule": "schema", "name": "eq_refl"}\n', encoding="utf-8"
        )
        commands = [
            ["parse", "s 0 + 0"],
            ["--json", "eval", "( E v0 ) ( v0 + v0 = s s 0 )"],
            ["--budget", "1", "eval", "( E v0 ) ( v0 = s s s 0 )"],
            ["berry", "--max-len", "5"],
            ["check-proof", str(proof)],
            ["parse", "( 0 +"],
        ]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        fresh = []
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "berrykit.cli", *argv],
                env=env, capture_output=True, text=True,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        assert [c for c, _, _ in fresh] == [0, 0, 3, 0, 0, 2]
        for _ in range(2):
            assert [run(capsys, *argv) for argv in commands] == fresh
        assert cli._build_parser() is cli._build_parser()
