"""Byte-for-byte regression net for the command line.

Each entry of ``golden/cli_golden.json`` holds an argument list, the exit
code and the exact stdout of one in-process ``cuspline`` call.  Paths in
the argument lists are relative to the repository root, because some
commands echo them.  Regenerate the file only for an intended output
change, and say so in the change log::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from cuspline.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "golden" / "cli_golden.json"
CTX = "tests/golden/two_lines.ctx"

EVAL_EXPRESSIONS = (
    "sigma",
    "d[0,2]@rho * z[1]@rho",
    "d[0,2]@rho * d[1]@rho |x| CoSt(1,0)@rho",
    "mstar(d[0,1]@rho * d[1]@rho)",
    "mstar(z[0,1]@rho)",
    "Mstar(d[-1,1]@rho)",
    "Mstar(z[1/2,3/2]@rho)",
    "mustar(d[1/2,3/2]@rho |x| St(1/2,1)@rho)",
    "mustar(d[1]@rho |x| CoSt(1/2,1)@rho)",
    "mw(d[0,2]@rho * d[1]@rho)",
    "dual(z[1/2,3/2]@rho)",
    "D(z[0,2]@rho * z[1]@rho)",
    "hd(z[0,2]@rho * z[1,2]@rho)",
)


def _cases():
    cases = []
    for alpha in ("1/2", "1", "3/2"):
        for n in range(4):
            sweep = ["check-prop41", "--alpha", alpha, "--n", str(n), "--all"]
            cases += [sweep, sweep + ["--verbose"], sweep + ["--json"]]
    for extra in ([], ["--json"]):
        cases += [
            ["check-length", "--alpha", "1", "--n", "2", "--cuts", "01"] + extra,
            ["check-mult", "--alpha", "1/2", "--n", "3", "--cuts", "110",
             "--bottom"] + extra,
            ["classify", "--alpha", "3/2", "--n", "3", "--cuts", "100"] + extra,
            ["enumerate", "--alpha", "1/2", "--n", "2"] + extra,
            ["generic-check", "tests/golden/generic_pass.json"] + extra,
            ["generic-check", "tests/golden/generic_fail.json"] + extra,
        ]
    for expr in EVAL_EXPRESSIONS:
        cases += [["eval", expr], ["eval", expr, "--json"]]
    split = ["jantzen-split", "--part1", "rho", "--part2", "tau", "--ctx", CTX]
    cases += [
        split + ["d[1/2]@rho * d[1]@tau |x| sigma"],
        split + ["d[1/2]@rho * d[1]@tau |x| sigma", "--side", "1", "--json"],
        split + ["d[1/2]@rho * d[1]@tau"],
    ]
    move = ["transport", "--from-line", "rho", "--to-line", "tau", "--ctx", CTX]
    cases += [
        move + ["z[0,1]@rho * z[1]@rho"],
        move + ["d[1/2,3/2]@rho |x| St(1/2,1)@rho"],
        move + ["d[1/2,3/2]@rho |x| CoSt(1/2,1)@rho"],
        move + ["d[1/2]@rho |x| CoSt(1/2,2)@rho", "--sigma-to", "sig2", "--json"],
    ]
    return cases


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _entry(argv, code, out):
    """A ``--json`` document is stored parsed, and compared in the one
    serialization the command line prints; other output as its lines."""
    entry = {"argv": argv, "exit": code}
    if "--json" in argv and code == 0:
        entry["json"] = json.loads(out)
    else:
        entry["stdout"] = out.splitlines()
    assert _stdout(entry) == out
    return entry


def _stdout(entry):
    if "json" in entry:
        return json.dumps(entry["json"], sort_keys=True, indent=2) + "\n"
    return "".join(line + "\n" for line in entry["stdout"])


@pytest.fixture(scope="module")
def expected():
    entries = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {tuple(e["argv"]): e for e in entries}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_output_is_unchanged(argv, expected, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = _run(argv)
    entry = expected[tuple(argv)]
    assert out == _stdout(entry)
    assert code == entry["exit"]


def test_expected_file_lists_every_case(expected):
    assert list(expected) == [tuple(argv) for argv in _cases()]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    entries = [_entry(argv, *_run(argv)) for argv in _cases()]
    EXPECTED.write_text(
        "[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} cases to {EXPECTED}")
