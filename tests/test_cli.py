"""Tests for the command-line interface: commands, exit codes, formats."""

import json

import pytest

from cuspline import cli
from cuspline.cli import (
    ContextFileError,
    load_context,
    main,
    parse_context,
)
from cuspline.core import Line
from cuspline.halfint import hi


def run(capsys, *argv):
    """Run the CLI in-process; return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


class TestSelftest:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "all passed" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "selftest", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["status"] == "ok"
        assert all(c["ok"] for c in doc["checks"])
        assert len(doc["checks"]) >= 5


class TestParallelSweep:
    def test_jobs_flag_matches_sequential(self, capsys):
        code1, out1, _ = run(
            capsys,
            "check-prop41",
            "--alpha", "1/2", "--n", "2", "--all", "--json",
        )
        code2, out2, _ = run(
            capsys,
            "check-prop41",
            "--alpha", "1/2", "--n", "2", "--all", "--json",
            "--jobs", "2",
        )
        assert code1 == code2 == 0
        assert json.loads(out1) == json.loads(out2)

    @pytest.mark.parametrize("jobs", ["0", "-1", "x"])
    def test_jobs_below_one_is_a_usage_error(self, capsys, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["check-prop41", "--alpha", "1/2", "--n", "2", "--all",
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs must be an integer of at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "jobs,cpus,want",
        [
            ("10000", 4, [4]),  # capped by the CPU count
            ("10000", 64, [6]),  # capped by the 6 eligible data
            ("2", 64, [2]),
            ("10000", None, []),  # unknown CPU count: sequential, no pool
            ("1", 64, []),
        ],
    )
    def test_pool_size_is_bounded(self, capsys, monkeypatch, jobs, cpus, want):
        sizes = []

        class RecordingPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        argv = ["check-prop41", "--alpha", "1/2", "--n", "2", "--all", "--json"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv, "--jobs", jobs)
        assert code1 == code2 == 0
        assert json.loads(out1)["checked"] == 6
        assert out1 == out2
        assert sizes == want
