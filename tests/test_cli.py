"""Tests for the command-line interface: commands, exit codes, formats."""

import argparse
import json
import os
import pathlib
import random
import re
import resource
import runpy
import subprocess
import sys

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from cuspline import clear_caches, cli, dsl
from cuspline.cli import (
    ContextFileError,
    load_context,
    main,
    parse_context,
)
from cuspline.core import Line, jsonable, seg
from cuspline.glhopf import delta_key, twisted_comult
from cuspline.halfint import hi
from cuspline.sampling import random_multisegment
from cuspline.subquotients import (
    EXTREMES,
    SubqDatum,
    check_length_ge5,
    check_mult_le4,
    check_prop41,
    classify,
)


def run(capsys, *argv):
    """Run the CLI in-process; return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _child(*argv, timeout=5):
    """Run the CLI in a child process under a timeout, so that an unbounded
    computation fails the test instead of hanging the suite; return the
    finished process and its CPU seconds, which a busy machine does not
    stretch."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "cuspline", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


class TestContextFiles:
    def test_full_example(self):
        ctx = parse_context(
            """
            # comment line
            sigma = sig0
            line.rho.selfdual = true
            line.rho.alpha = 1/2   # trailing comment
            line.tau.selfdual = false
            line.ups.alpha = none
            """
        )
        assert ctx.sigma == "sig0"
        assert ctx.line("rho") == Line("rho", True, hi("1/2"))
        assert ctx.line("tau") == Line("tau", False, None)
        assert ctx.line("ups") == Line("ups", True, None)

    def test_unknown_key_rejected(self):
        with pytest.raises(ContextFileError):
            parse_context("line.rho.colour = blue")

    def test_missing_equals_rejected(self):
        with pytest.raises(ContextFileError):
            parse_context("sigma sigma")

    def test_bad_boolean_rejected(self):
        with pytest.raises(ContextFileError):
            parse_context("line.rho.selfdual = maybe")

    def test_bad_alpha_rejected(self):
        with pytest.raises(ContextFileError):
            parse_context("line.rho.alpha = 1/3")

    @pytest.mark.parametrize(
        "alpha, message",
        [(str(cli.MAX_ALPHA + 1), f"alpha must be at most {cli.MAX_ALPHA}"),
         ("9" * 4300, f"number of 4300 digits, more than {dsl.MAX_DIGITS}")],
        ids=["cap-plus-one", "4300-digits"],
    )
    def test_alpha_past_a_cap_rejected(self, alpha, message):
        with pytest.raises(ContextFileError, match=f"line 2: {message}"):
            parse_context(f"sigma = s\nline.rho.alpha = {alpha}")

    def test_alpha_at_the_cap_accepted(self):
        ctx = parse_context(f"line.rho.alpha = {cli.MAX_ALPHA}")
        assert ctx.lines["rho"].alpha == hi(cli.MAX_ALPHA)

    def test_none_path_gives_default(self):
        ctx = load_context(None)
        assert ctx.sigma == "sigma"
        assert ctx.lines == {}


class TestEval:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "eval", "d[0,1]@rho")
        assert code == 0
        assert "[0,1]@rho" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "eval", "z[1/2]@rho", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["result"]["basis"] == "zeta"
        assert doc["result"]["terms"][0]["key"]["segments"][0]["b"] == {
            "num2": 1
        }

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "d[0")
        assert code == 2
        assert "position" in err

    def test_type_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "d[0,1]@rho * z[0]@rho")
        assert code == 2
        assert "basis" in err

    def test_context_file_changes_sigma(self, capsys, tmp_path):
        ctx_file = tmp_path / "ctx.txt"
        ctx_file.write_text("sigma = mypoint\n")
        code, out, _ = run(
            capsys, "eval", "sigma", "--ctx", str(ctx_file)
        )
        assert code == 0
        assert "mypoint" in out

    def test_missing_context_file_exit_2(self, capsys):
        code, _, err = run(
            capsys, "eval", "sigma", "--ctx", "/nonexistent/ctx.txt"
        )
        assert code == 2
        assert "error" in err


class TestEnumerateClassify:
    def test_enumerate_counts(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--alpha", "1/2", "--n", "2")
        assert code == 0
        assert "total: 8" in out

    def test_enumerate_json(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--alpha", "1", "--n", "1", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 4
        cases = sorted(s["case"] for s in doc["subquotients"])
        assert cases == [
            "case-a",
            "case-c",
            "co-gen-steinberg",
            "gen-steinberg",
        ]

    def test_classify_single(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--alpha", "1/2", "--n", "2", "--cuts", "10"
        )
        assert code == 0
        assert out.strip() == "case-b"

    def test_classify_bottom_flag(self, capsys):
        code, out, _ = run(
            capsys,
            "classify",
            "--alpha", "1/2", "--n", "2", "--cuts", "10", "--bottom",
        )
        assert code == 0
        assert out.strip() == "case-c"

    def test_classify_wrong_cut_count_exit_2(self, capsys):
        code, _, err = run(
            capsys, "classify", "--alpha", "1/2", "--n", "2", "--cuts", "1"
        )
        assert code == 2
        assert "bits" in err

    @pytest.mark.parametrize("n", ["-1", "x", str(cli.MAX_CHAIN_LENGTH + 1)])
    @pytest.mark.parametrize(
        "command", [["enumerate"], ["check-prop41", "--all"]]
    )
    def test_chain_length_out_of_range_is_a_usage_error(self, capsys, command, n):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--alpha", "1", "--n", n])
        assert exc.value.code == 2
        assert "--n must be an integer from 0 to" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, message",
        [(str(cli.MAX_ALPHA + 1), f"alpha must be at most {cli.MAX_ALPHA}"),
         ("9" * 4300, f"number of 4300 digits, more than {dsl.MAX_DIGITS}"),
         ("9" * 5000 + "/2", f"number of 5000 digits, more than {dsl.MAX_DIGITS}")],
        ids=["cap-plus-one", "4300-digits", "5000-digits"],
    )
    @pytest.mark.parametrize(
        "command", [["enumerate"], ["classify", "--cuts", "0"], ["check-prop41", "--all"]]
    )
    def test_alpha_past_a_cap_is_a_usage_error(self, capsys, command, alpha, message):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--alpha", alpha, "--n", "1", "--json"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --alpha: {message}" in err and len(err) < 1000

    def test_alpha_at_the_cap_is_accepted(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--alpha", str(cli.MAX_ALPHA), "--n", "1", "--cuts", "0"
        )
        assert code == 0 and out == "case-a\n"


class TestChecks:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "check-prop41",
            "--alpha", "1/2", "--n", "1", "--cuts", "0",
        )
        assert code == 0
        assert "result: PASS" in out
        assert "length >= 5" in out
        assert "jacquet multiplicity <= 4" in out

    def test_single_check_json(self, capsys):
        code, out, _ = run(
            capsys,
            "check-length",
            "--alpha", "1", "--n", "1", "--cuts", "0", "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "ok"
        assert doc["report"]["length_bound"] == 5
        assert len(doc["report"]["certificates"]) == 5

    def test_extreme_datum_exit_2(self, capsys):
        code, _, err = run(
            capsys,
            "check-prop41",
            "--alpha", "1/2", "--n", "1", "--cuts", "0", "--bottom",
        )
        assert code == 2
        assert "unsupported" in err

    def test_missing_cuts_and_all_exit_2(self, capsys):
        code, _, err = run(
            capsys, "check-prop41", "--alpha", "1/2", "--n", "1"
        )
        assert code == 2
        assert "--cuts" in err or "--all" in err

    @pytest.mark.parametrize("command", ["check-length", "check-mult", "check-prop41"])
    @pytest.mark.parametrize(
        "flags,named",
        [(["--cuts", "01"], "--cuts"), (["--bottom"], "--bottom"),
         (["--cuts", "01", "--bottom"], "--cuts"), (["--cuts", ""], "--cuts")],
    )
    def test_all_with_one_datum_flag_exit_2(self, capsys, command, flags, named):
        # a sweep would silently ignore the single datum asked for
        for json_flag in ([], ["--json"]):
            code, out, err = run(
                capsys, command, "--alpha", "1/2", "--n", "2", "--all", *flags, *json_flag
            )
            assert code == 2 and out == ""
            assert named in err and "--all" in err

    def test_sweep_all(self, capsys):
        code, out, _ = run(
            capsys, "check-prop41", "--alpha", "1/2", "--n", "2", "--all"
        )
        assert code == 0
        assert out.count("PASS") == 6
        assert out.count("SKIP") == 2
        assert "all passed" in out

    def test_sweep_json(self, capsys):
        code, out, _ = run(
            capsys,
            "check-mult",
            "--alpha", "3/2", "--n", "1", "--all", "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["checked"] == 2
        assert len(doc["skipped"]) == 2
        assert all(r["mult_bound"] == 4 for r in doc["reports"])


class TestJantzenSplit:
    CTX = (
        "line.rho.selfdual = true\n"
        "line.rho.alpha = 1/2\n"
        "line.tau.selfdual = true\n"
        "line.tau.alpha = 1/2\n"
    )

    @pytest.fixture()
    def ctx_file(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text(self.CTX)
        return str(path)

    def test_module_split_both_sides(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "jantzen-split",
            "d[1/2]@rho * d[1]@tau |x| sigma",
            "--part1", "rho", "--part2", "tau",
            "--ctx", ctx_file,
        )
        assert code == 0
        assert "side 1" in out and "side 2" in out

    def test_single_side_json(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "jantzen-split",
            "d[1/2]@rho * d[1]@tau |x| sigma",
            "--part1", "rho", "--part2", "tau", "--side", "1",
            "--ctx", ctx_file, "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert set(doc["filtered"]) == {"1"}
        # Left tensor factors live on rho only: +-1/2 exponents.
        for term in doc["filtered"]["1"]["terms"]:
            for seg in term["key"][0]["segments"]:
                assert seg["line"] == "rho"

    def test_ring_element_split(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "jantzen-split",
            "d[1/2]@rho * d[1]@tau",
            "--part1", "rho", "--part2", "tau",
            "--ctx", ctx_file,
        )
        assert code == 0
        assert "side 1" in out

    def test_unsupported_line_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "jantzen-split",
            "d[0]@ups |x| sigma",
            "--part1", "rho", "--part2", "tau",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "ups" in err

    def test_tensor_argument_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "jantzen-split",
            "mstar(d[0,1]@rho)",
            "--part1", "rho", "--part2", "tau",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "tensor" in err

    def test_overlapping_partition_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "jantzen-split",
            "d[1/2]@rho |x| sigma",
            "--part1", "rho", "--part2", "rho",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "overlap" in err


class TestTransport:
    CTX = TestJantzenSplit.CTX

    @pytest.fixture()
    def ctx_file(self, tmp_path):
        path = tmp_path / "ctx.txt"
        path.write_text(self.CTX)
        return str(path)

    def test_module_element(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "transport",
            "d[1/2,3/2]@rho |x| St(1/2,1)@rho",
            "--from-line", "rho", "--to-line", "tau",
            "--ctx", ctx_file,
        )
        assert code == 0
        assert "@tau" in out and "@rho" not in out

    def test_ring_element(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "transport",
            "z[0,1]@rho * z[1]@rho",
            "--from-line", "rho", "--to-line", "tau",
            "--ctx", ctx_file,
        )
        assert code == 0
        assert "@tau" in out and "@rho" not in out

    def test_sigma_rename(self, capsys, ctx_file):
        code, out, _ = run(
            capsys,
            "transport",
            "d[1/2]@rho |x| sigma",
            "--from-line", "rho", "--to-line", "tau",
            "--sigma-to", "sig2",
            "--ctx", ctx_file,
        )
        assert code == 0
        assert "sig2" in out

    def test_sigma_rename_of_a_ring_element_exit_2(self, capsys, ctx_file):
        code, out, err = run(
            capsys,
            "transport",
            "z[0,1]@rho",
            "--from-line", "rho", "--to-line", "tau",
            "--sigma-to", "sig2",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --sigma-to only applies to module elements\n"

    def test_same_line_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "transport",
            "d[0]@rho",
            "--from-line", "rho", "--to-line", "rho",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "differ" in err

    def test_undeclared_point_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "transport",
            "d[0]@ups",
            "--from-line", "ups", "--to-line", "rho",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "reducibility" in err

    def test_wrong_support_exit_2(self, capsys, ctx_file):
        code, _, err = run(
            capsys,
            "transport",
            "d[0]@tau",
            "--from-line", "rho", "--to-line", "tau",
            "--ctx", ctx_file,
        )
        assert code == 2
        assert "supported" in err


class TestGenericCheck:
    def write(self, tmp_path, doc):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_unitarizable_exit_0(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            [{"label": "a", "exponents": ["1/4", "3/5"], "selfdual": True}],
        )
        code, out, _ = run(capsys, "generic-check", path)
        assert code == 0
        assert "verdict: unitarizable" in out

    def test_not_unitarizable_exit_1(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            {"data": [{"label": "a", "exponents": ["2/5", "3/5"]}]},
        )
        code, out, _ = run(capsys, "generic-check", path)
        assert code == 1
        assert "verdict: not unitarizable" in out

    def test_json_report(self, capsys, tmp_path):
        path = self.write(
            tmp_path, [{"label": "a", "exponents": ["1/2", "3/5"]}]
        )
        code, out, _ = run(capsys, "generic-check", path, "--json")
        doc = json.loads(out)
        assert code == 1
        assert doc["result"]["unitarizable"] is False
        failing = [
            s for s in doc["result"]["steps"] if s["status"] == "FAIL"
        ]
        assert failing[0]["condition"] == "top-parity"

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json")
        code, _, err = run(capsys, "generic-check", str(path))
        assert code == 2
        assert "JSON" in err

    def test_nonpositive_exponent_exit_2(self, capsys, tmp_path):
        path = self.write(
            tmp_path, [{"label": "a", "exponents": ["0"]}]
        )
        code, _, err = run(capsys, "generic-check", path)
        assert code == 2

    def test_missing_label_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, [{"exponents": ["1/4"]}])
        code, _, err = run(capsys, "generic-check", path)
        assert code == 2

    @pytest.mark.parametrize("name, entry", [
        ("label", {"label": 1}),
        ("label", {"label": None}),
        ("label", {"label": ["a"]}),
        ("partner", {"label": "a", "selfdual": False, "partner": ["b"]}),
        ("partner", {"label": "a", "selfdual": False, "partner": 2}),
        ("line", {"label": "a", "line": {"id": "rho"}}),
    ])
    def test_names_must_be_json_strings(self, capsys, tmp_path, name, entry):
        # a second, well-formed entry: sorting the labels of both compared
        # an int with a str
        path = self.write(tmp_path, [entry, {"label": "b"}])
        code, out, err = run(capsys, "generic-check", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: entry 0: {name} must be a JSON string")

    def test_optional_names_may_be_null(self, capsys, tmp_path):
        path = self.write(
            tmp_path, [{"label": "a", "exponents": ["1/4"], "partner": None, "line": None}]
        )
        code, _, _ = run(capsys, "generic-check", path)
        assert code == 0

    def test_float_exponents_exit_2(self, capsys, tmp_path):
        # the binary floats 0.3 and 0.7 are not 3/10 and 7/10
        path = self.write(tmp_path, [{"label": "a", "exponents": [0.3, 0.7]}])
        code, out, err = run(capsys, "generic-check", path)
        assert code == 2 and out == ""
        assert err.startswith("error: not an exponent: 0.3")
        assert "Traceback" not in err

    @pytest.mark.parametrize("exponents", [["3/10", "7/10"], ["0.3", "0.7"]])
    def test_string_exponents_are_exact(self, capsys, tmp_path, exponents):
        path = self.write(tmp_path, [{"label": "a", "exponents": exponents}])
        code, out, _ = run(capsys, "generic-check", path)
        assert code == 1
        assert "verdict: not unitarizable" in out

    def test_exponent_notation_exits_2_within_a_second(self, tmp_path):
        # Fraction("1e30000000") builds 10**30000000: this ran for 32 s
        path = self.write(tmp_path, [{"label": "a", "exponents": ["1e30000000"]}])
        proc, cpu = _child("generic-check", path)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert proc.stderr.startswith("error: not an exponent: '1e30000000'")
        assert "Traceback" not in proc.stderr
        assert cpu < 1.0

    def test_number_past_the_digit_limit_exit_2(self, capsys, tmp_path):
        path = tmp_path / "data.json"
        path.write_text('[{"label": "a", "exponents": [%s]}]' % ("1" * 4301))
        code, out, err = run(capsys, "generic-check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad JSON input: ") and "4300 digits" in err


class TestInputGuards:
    """Inputs just past a limit exit 2 with a typed error, not a traceback."""

    def test_deep_expression_exit_2(self, capsys):
        k = dsl.MAX_NESTING + 1
        code, _, err = run(capsys, "eval", "(" * k + "sigma" + ")" * k)
        assert code == 2
        assert "nested deeper than" in err

    def test_long_expression_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "sigma".ljust(dsl.MAX_LENGTH + 1))
        assert code == 2
        assert "longer than" in err

    def test_deeply_nested_json_exit_2(self, capsys, tmp_path):
        depth = sys.getrecursionlimit() + 1
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth)
        code, _, err = run(capsys, "generic-check", str(path))
        assert code == 2
        assert "nested too deeply" in err

    @pytest.mark.parametrize("flag", ["selfdual", "halfred", "tau_red"])
    @pytest.mark.parametrize("value", ["false", 1, None])
    def test_flags_must_be_json_booleans(self, capsys, tmp_path, flag, value):
        path = tmp_path / "data.json"
        path.write_text(
            json.dumps([{"label": "a", "exponents": ["1/4"], flag: value}])
        )
        code, _, err = run(capsys, "generic-check", str(path))
        assert code == 2
        assert f"{flag} must be true or false" in err

    @pytest.mark.parametrize("value", ["12", "13/40", 5, {}])
    def test_exponents_must_be_a_json_array(self, capsys, tmp_path, value):
        path = tmp_path / "data.json"
        path.write_text(json.dumps([{"label": "a", "exponents": value}]))
        code, out, err = run(capsys, "generic-check", str(path))
        assert code == 2 and out == ""
        assert "entry 0: exponents must be a JSON array" in err

    @pytest.mark.parametrize("text", ['"1/0"', "1e400"])
    def test_unrepresentable_exponent_exit_2(self, capsys, tmp_path, text):
        # 1e400 parses to a float infinity
        path = tmp_path / "data.json"
        path.write_text('[{"label": "a", "exponents": [%s]}]' % text)
        code, out, err = run(capsys, "generic-check", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "not an exponent" in err

    @pytest.mark.parametrize("kind", ["directory", "latin-1"])
    @pytest.mark.parametrize("command", ["eval", "generic-check"])
    def test_unreadable_input_file_exit_2(self, capsys, tmp_path, kind, command):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes("sigma = \xe9\n".encode("latin-1"))
        argv = {
            "eval": ("eval", "sigma", "--ctx", str(path)),
            "generic-check": ("generic-check", str(path)),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("command", ["eval", "generic-check"])
    def test_input_file_past_the_cap_exit_2(self, capsys, tmp_path, command):
        path = tmp_path / "input"
        path.write_text("#" * (cli.MAX_INPUT_CHARS + 1))
        argv = {
            "eval": ("eval", "sigma", "--ctx", str(path)),
            "generic-check": ("generic-check", str(path)),
        }[command]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f"longer than {cli.MAX_INPUT_CHARS} characters" in err

    def test_input_file_at_the_cap_is_read(self, capsys, tmp_path):
        path = tmp_path / "ctx"
        path.write_text("#" * cli.MAX_INPUT_CHARS)
        code, out, _ = run(capsys, "eval", "sigma", "--ctx", str(path))
        assert code == 0 and out == "sigma\n"

    def test_expansion_past_the_term_budget_exit_2(self, capsys):
        # D of 17 two-point segments has 2^17 = 131072 > MAX_TERMS terms
        factors = "*".join(f"z[{2 * i},{2 * i + 1}]@rho" for i in range(17))
        code, out, err = run(capsys, "eval", f"D({factors})")
        assert code == 2 and out == ""
        assert f"up to 131072 terms, more than {dsl.MAX_TERMS}" in err

    @pytest.mark.parametrize(
        "text",
        ["d[0,1" + "0" * 5000 + "]@rho", "Mstar(z[0,1" + "0" * 3000 + "]@rho)",
         "St(1/2," + "1" * (dsl.MAX_DIGITS + 1) + ")@rho"],
        ids=["5001-digits", "3001-digits", "cap-plus-one"],
    )
    def test_number_past_the_digit_cap_exit_2(self, capsys, text):
        code, out, err = run(capsys, "eval", text)
        assert code == 2 and out == ""
        assert f"digits, more than {dsl.MAX_DIGITS}" in err and len(err) < 100

    def test_number_at_the_digit_cap_prints_as_json(self, capsys):
        big = "9" * dsl.MAX_DIGITS
        code, out, _ = run(capsys, "eval", "--json", f"d[-{big},{big}]@rho")
        assert code == 0
        [term] = json.loads(out)["result"]["terms"]
        [segment] = term["key"]["segments"]
        assert segment["e"] == {"num2": 2 * int(big)}

    def test_bound_too_long_to_print_exit_2(self, capsys):
        # three segments of about 10^1000 points: a bound of about 10^6000
        big = "9" * dsl.MAX_DIGITS
        text = "Mstar(" + " * ".join([f"z[0,{big}]@rho"] * 3) + ")"
        code, out, err = run(capsys, "eval", text)
        assert code == 2 and out == ""
        assert f"Mstar could make over 10^40 terms, more than {dsl.MAX_TERMS}" in err

    @pytest.mark.parametrize(
        "text",
        [
            "mustar( " + " * ".join(["d[0,3]@rho"] * 8) + " |x| sigma )",
            "mustar( " + " * ".join(["d[0,3]@rho"] * 9) + " |x| sigma )",
            " * ".join(f"D(z[{2 * i},{2 * i + 1}]@rho)" for i in range(20)),
            "mustar(CoSt(1/2,24)@rho)",
            "mustar(St(1/2,200000)@rho)",
            "mw(d[0,100000]@rho)",
        ],
        ids=["mustar-8", "mustar-9", "product-20", "mustar-CoSt", "mustar-St", "mw"],
    )
    def test_short_input_past_a_bound_exits_2_within_a_second(self, text):
        proc, cpu = _child("eval", text)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert f"more than {dsl.MAX_TERMS}" in proc.stderr
        assert cpu < 1.0

    @pytest.mark.parametrize(
        "alpha", [str(cli.MAX_ALPHA + 1), f"{2 * cli.MAX_ALPHA + 1}/2", "1000"]
    )
    def test_alpha_past_the_cap_exits_2_within_a_second(self, alpha):
        # at alpha = 1000 this check ran for more than a minute before the cap
        proc, cpu = _child("check-prop41", "--alpha", alpha, "--n", "1", "--cuts", "0")
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        assert f"alpha must be at most {cli.MAX_ALPHA}" in proc.stderr
        assert cpu < 1.0

    def test_slowest_datum_at_the_alpha_cap_certifies_within_two_seconds(self):
        # the widest witness of the longest chain: nine singleton blocks
        # under the pivot, so the witness is [-(alpha + 9), alpha + 9]
        n = cli.MAX_CHAIN_LENGTH
        cuts = "1" * (n - 1) + "0"
        proc, cpu = _child(
            "check-prop41", "--alpha", str(cli.MAX_ALPHA), "--n", str(n), "--cuts", cuts
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("  result: PASS\n")
        assert cpu < 2.0

    def test_context_alpha_of_4300_digits_exit_2(self, tmp_path):
        path = tmp_path / "ctx"
        path.write_text("line.rho.alpha = " + "9" * 4300 + "\n")
        proc, _cpu = _child("eval", "d[0]@rho", "--json", "--ctx", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert f"number of 4300 digits, more than {dsl.MAX_DIGITS}" in proc.stderr

    def test_sweep_rejects_chain_length_past_the_cap(self, capsys):
        path = pathlib.Path(__file__).parent.parent / "scripts" / "sweep_counting.py"
        parse_args = runpy.run_path(str(path), run_name="sweep")["parse_args"]
        with pytest.raises(SystemExit) as exc:
            parse_args(["--n", f"1,{cli.MAX_CHAIN_LENGTH + 1}"])
        assert exc.value.code == 2
        assert f"0 to {cli.MAX_CHAIN_LENGTH}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha, message",
        [(str(cli.MAX_ALPHA + 1), f"alpha must be at most {cli.MAX_ALPHA}"),
         ("9" * 4300, f"number of 4300 digits, more than {dsl.MAX_DIGITS}")],
        ids=["cap-plus-one", "4300-digits"],
    )
    def test_sweep_rejects_alpha_past_a_cap(self, capsys, alpha, message):
        path = pathlib.Path(__file__).parent.parent / "scripts" / "sweep_counting.py"
        parse_args = runpy.run_path(str(path), run_name="sweep")["parse_args"]
        with pytest.raises(SystemExit) as exc:
            parse_args(["--alphas", f"1/2,{alpha}", "--n", "1"])
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_sweep_rejects_an_unreadable_context(self, capsys, tmp_path):
        path = pathlib.Path(__file__).parent.parent / "scripts" / "sweep_counting.py"
        parse_args = runpy.run_path(str(path), run_name="sweep")["parse_args"]
        with pytest.raises(SystemExit) as exc:
            parse_args(["--ctx", str(tmp_path), "--n", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --ctx:" in err and str(tmp_path) in err


def test_reused_parser_leaks_no_state(capsys, monkeypatch):
    """``main`` reuses one parser per process; a sequence of calls mixing
    JSON, a refused argument and another command must print exactly what a
    freshly built parser gives for each."""
    calls = [
        ("check-prop41", "--alpha", "1/2", "--n", "2", "--cuts", "10", "--json"),
        ("check-prop41", "--alpha", "1/2", "--n", str(cli.MAX_CHAIN_LENGTH + 1)),
        ("check-prop41", "--alpha", "1/2", "--n", "2", "--all", "--jobs", "2"),
        ("eval", "d[0,1]@rho"),
        ("check-prop41", "--alpha", "1/2", "--n", "2", "--cuts", "10"),
    ]

    def outcomes():
        out = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            out.append((code, captured.out, captured.err))
        return out

    cli._parser.cache_clear()
    reused = outcomes()
    assert cli._parser.cache_info().misses == 1
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = outcomes()
    assert [code for code, _out, _err in reused] == [0, 2, 2, 0, 0]
    assert "unrecognized arguments: --jobs 2" in reused[2][2]
    assert reused == fresh


def test_readme_command_table_matches_the_parser():
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Command line", 1)[1]
    listed = re.findall(r"^\| `([a-z0-9-]+)` +\|", section, flags=re.M)
    (sub,) = [
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(listed) == sorted(sub.choices)
    assert len(listed) == len(set(listed))


def test_readme_library_tour_results():
    """Run the README's library tour; every ``# -> result`` comment must
    start with the repr of the value on its left."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    claims = [
        [part.strip() for part in line.split("# ->")]
        for line in code.splitlines() if "# ->" in line
    ]
    assert [c for _, c in claims] == [
        "6 tensor terms", "8 terms", "'case-c'", "(True, 5, 4)",
    ]
    for expr, claim in claims:
        assert claim.startswith(repr(eval(expr, namespace))), expr


# Nested JSON payloads: strings with non-ASCII and control characters, bools,
# None, negative ints, and empty or nested containers.
JSON_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
JSON_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(10**20), max_value=10**20)
    | JSON_TEXT | st.sampled_from(["", "\x00\x1f\\\"", "é→𝔤", "\u2028"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=10,
)


class TestJsonText:
    """``--json`` output is indented by hand, with strings escaped in C; the
    text must be exactly what ``json.dumps`` with ``indent=2`` gives."""

    @given(st.dictionaries(JSON_TEXT, JSON_PAYLOADS, max_size=4) | JSON_PAYLOADS)
    @settings(max_examples=100, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            cli._json_text({"x": [{1, 2}]})


@st.composite
def library_values(draw):
    """A certificate report, a ring, tensor or module element, or a context."""
    kind = draw(st.sampled_from(["report", "ring", "tensor", "module", "context"]))
    if kind == "report":
        n = draw(st.integers(1, 4))
        d = SubqDatum(
            "rho", "sigma", hi(draw(st.sampled_from(["1/2", "1", "3/2", "2", "5/2"]))),
            n, tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
            draw(st.booleans()),
        )
        assume(classify(d) not in EXTREMES)
        check = draw(st.sampled_from([check_prop41, check_length_ge5, check_mult_le4]))
        return check(d)
    if kind == "context":
        return parse_context("sigma = s\nline.rho.alpha = 1/2\nline.tau.selfdual = no")
    if kind == "module":
        return dsl.evaluate(draw(st.sampled_from([
            "mustar( d[1/2,3/2]@rho |x| St(1/2,1)@rho )",
            "d[1,2]@rho |x| CoSt(1/2,1)@rho",
            "St(1/2,2)@rho",
        ])))
    rng = random.Random(draw(st.integers(0, 2**32)))
    x = delta_key(random_multisegment(rng, max_segments=3))
    x = x + 2 * delta_key(random_multisegment(rng, max_segments=3))
    return twisted_comult(x) if kind == "tensor" else x


def _nested(value, depth):
    """``value`` under ``depth`` levels of alternating lists and dicts."""
    for level in range(depth):
        value = {"v": value, "w": True} if level % 2 else [None, value]
    return value


class TestJsonTextOfLibraryValues:
    """``_json_text`` writes a library value from its shallow fields, and a
    segment, multisegment, exponent or certificate step from the memo of its
    depth-0 text: the result must be ``json.dumps`` of the deep form, at any
    depth, with the memo cold, warm, or filled at another depth."""

    @given(
        value=library_values(),
        depths=st.lists(st.integers(0, 4), min_size=2, max_size=3),
        cold=st.booleans(),
    )
    # no shrinking: each example may rebuild cold restrictions, and the
    # drawn example is small already
    @settings(max_examples=60, deadline=None, phases=[Phase.generate])
    def test_matches_json_dumps_of_the_deep_form(self, value, depths, cold):
        if cold:
            clear_caches()
        for depth in depths:
            payload = _nested(value, depth)
            want = json.dumps(jsonable(payload), sort_keys=True, indent=2)
            assert cli._json_text(payload) == want, depth

    @pytest.mark.parametrize("fill, hit", [(0, 3), (3, 0), (1, 4)])
    def test_a_memo_hit_at_another_depth_than_its_fill(self, fill, hit):
        clear_caches()
        report = check_prop41(SubqDatum("rho", "sigma", hi("1/2"), 2, (True, False), True))
        for depth in (fill, hit):
            payload = _nested(report, depth)
            want = json.dumps(jsonable(payload), sort_keys=True, indent=2)
            assert cli._json_text(payload) == want, depth
        assert cli._repeated_text.cache_info().hits > 0

    def test_the_memo_is_bounded_and_cleared(self):
        clear_caches()
        cli._json_text([seg(0, 1), hi(3), check_prop41(SubqDatum(
            "rho", "sigma", hi(1), 1, (False,), False))])
        info = cli._repeated_text.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize
        clear_caches()
        assert cli._repeated_text.cache_info().currsize == 0
