"""Failure paths of the counting certificates, pinned byte for byte.

Each scenario replaces names that ``cuspline.subquotients`` imports from
other modules with a faulty but deterministic version (a pure function of
its arguments), runs certificate checks, and compares every report's
``render_lines()`` and ``to_jsonable()`` with ``golden/cert_failures.json``.
Together they pin the step policy: a refuted length step is recorded and
the later length steps still run; the first refuted multiplicity step ends
the multiplicity steps; a failed report has no bounds and no counting
conclusion.

No patch of an imported name reaches these FAILED branches, because they
test the tiling's own geometry (segment arithmetic and supports only):

* top-merge exclusion: the marker shape, the merged block's reach, and the
  side factors;
* double-point exclusion: the marker count and the branch list's support;
* down-merge exclusion: the stretched tail's support and the upper list's
  support;
* derivative identification: the degenerate trim and the support
  comparison;
* regularity: the candidate set equals the expected pair by then, and both
  members are multiplicity-free.

Some certificate steps read restrictions through per-key memos, so a patched
function is called only on a memo miss: every patch context empties all
caches on entering and on leaving (``_patched``), and
``test_pinned_reports_survive_warm_memos`` warms the memos first.

Regenerate the golden file only for an intended output change, and say so
in the change log::

    PYTHONPATH=src python tests/test_cert_failures.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from cuspline import clear_caches, cli
from cuspline import subquotients as S
from cuspline.classical import (
    CoStGenSymbol,
    CuspSymbol,
    InducedSymbol,
    StGenSymbol,
    TauPM,
    TensorClass,
)
from cuspline.core import EMPTY_MS, FormalSum, Segment, ms
from cuspline.glhopf import DELTA, TensorGL, delta_key, zeta_key
from cuspline.halfint import hi

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "golden" / "cert_failures.json"


def seg(b, e):
    return Segment(hi(b), hi(e), "rho")


def datum(alpha, n, cuts, bottom=False):
    return S.SubqDatum("rho", "sigma", hi(alpha), n, tuple(cuts), bottom)


# case A with an upper block: [5/2,7/2],[1/2,3/2]; witness delta[-1/2,1/2]
A_TOP = datum("1/2", 3, (False, True, False))
# case B with upper and lower blocks: [7/2],[3/2,5/2],[1/2]; witness
# delta[-3/2,3/2], tail atom CoSt(1/2,1)
B_RICH = datum("1/2", 3, (True, False, True))
C_OF_A = S.aubert_pair(A_TOP)
C_OF_B = S.aubert_pair(B_RICH)

A_SYM = ms(seg("-1/2", "1/2"))
B_SYM = ms(seg("-3/2", "3/2"))


def tensor(left, right, coeff=1):
    return TensorGL(DELTA, FormalSum.lift((left, right), coeff))


def module_term(left, coeff=1):
    return TensorClass(
        FormalSum.lift((left, InducedSymbol(EMPTY_MS, CuspSymbol("sigma"))), coeff)
    )


def adds(name, when, extra):
    """Patch ``name`` so that its value at the argument ``when`` gains
    ``extra`` (a negative coefficient removes a term)."""
    real = getattr(S, name)

    def patched(x, *rest):
        out = real(x, *rest)
        return out + extra if x == when else out

    return name, patched


def _drop_singleton_tail_left(real=S.module_comult_base):
    atom = CoStGenSymbol("rho", hi("1/2"), 1, "sigma")
    point = ms(seg("-3/2", "-3/2"))

    def patched(base):
        out = real(base)
        return out.filter(lambda k: k[0] != point) if base == atom else out

    return "module_comult_base", patched


def _tau_ignores_sign(line, half, sign, sigma="sigma"):
    return TauPM(line, half, +1, sigma)


SCENARIOS = {
    "witness leaves window": (
        [adds("delta_key", A_SYM, delta_key(ms(seg("-9/2", "9/2"))))],
        [("check_prop41", A_TOP)],
    ),
    "witness not selfdual": (
        [adds("delta_key", A_SYM, delta_key(ms(seg("1/2", "3/2"))))],
        [("check_prop41", A_TOP)],
    ),
    "dominance always holds": (
        [("dominates", lambda v, w: True)],
        [("check_prop41", A_TOP), ("check_length_ge5", B_RICH),
         ("check_prop41", C_OF_A)],
    ),
    "top-merge term": (
        [adds("gl_twisted_part", delta_key(ms(seg("1/2", "7/2"))),
              delta_key(ms(seg("3/2", "3/2"))))],
        [("check_prop41", A_TOP)],
    ),
    "doubled point in witness restriction": (
        [adds("twisted_comult", delta_key(A_SYM),
              tensor(ms(seg("-1/2", "-1/2"), seg("-1/2", "-1/2")), EMPTY_MS))],
        [("check_prop41", A_TOP)],
    ),
    "doubled point in bottom atom": (
        [adds("module_comult_base", StGenSymbol("rho", hi("1/2"), 1, "sigma"),
              module_term(ms(seg("-1/2", "-1/2"))))],
        [("check_length_ge5", A_TOP)],
    ),
    "down-merge witness end": (
        [adds("gl_twisted_part", delta_key(B_SYM),
              delta_key(ms(seg("-3/2", "-3/2"))))],
        [("check_prop41", B_RICH)],
    ),
    "down-merge merged-low end": (
        [adds("gl_twisted_part", delta_key(ms(seg("1/2", "5/2"))),
              delta_key(ms(seg("-5/2", "-3/2"))))],
        [("check_prop41", B_RICH)],
    ),
    "derivative routes disagree": (
        [("highest_derivative", lambda x: zeta_key(EMPTY_MS))],
        [("check_prop41", B_RICH), ("check_prop41", C_OF_B)],
    ),
    "derivative union missing": (
        [("linked_union", lambda s1, s2: None)],
        [("check_length_ge5", B_RICH)],
    ),
    "derivative candidate mismatch": (
        [adds("trim_key",
              ms(seg("7/2", "7/2"), seg("-3/2", "5/2"), seg("3/2", "3/2"),
                 seg("1/2", "1/2")),
              ms(seg(0, 0)))],
        [("check_length_ge5", B_RICH)],
    ),
    "signed tau certificates collide": (
        [("TauPM", _tau_ignores_sign)],
        [("check_prop41", A_TOP)],
    ),
    "unit pairing coefficient 3": (
        [adds("twisted_comult", delta_key(A_SYM), tensor(A_SYM, EMPTY_MS))],
        [("check_prop41", A_TOP), ("check_mult_le4", A_TOP)],
    ),
    "unit pairing on the dual partner": (
        [adds("twisted_comult", delta_key(B_SYM), tensor(B_SYM, EMPTY_MS))],
        [("check_mult_le4", C_OF_B)],
    ),
    "candidate coefficient 2": (
        [adds("twisted_comult", delta_key(A_SYM),
              tensor(ms(seg("1/2", "1/2")), ms(seg("-1/2", "-1/2"))))],
        [("check_prop41", A_TOP)],
    ),
    "candidate missing": (
        [adds("twisted_comult", delta_key(A_SYM),
              tensor(ms(seg("1/2", "1/2")), ms(seg("1/2", "1/2")), -1))],
        [("check_prop41", A_TOP)],
    ),
    "multi-point pivot term carries both endpoints": (
        [adds("gl_twisted_part", delta_key(ms(seg("1/2", "3/2"))),
              delta_key(ms(seg("-1/2", "1/2"))))],
        [("check_mult_le4", A_TOP)],
    ),
    "tail singleton left factor missing": (
        [_drop_singleton_tail_left()],
        [("check_prop41", B_RICH)],
    ),
}

CLI_CASES = (
    ["check-prop41", "--alpha", "1/2", "--n", "2", "--all"],
    ["check-prop41", "--alpha", "1/2", "--n", "2", "--all", "--json"],
    ["check-length", "--alpha", "1", "--n", "2", "--all", "--verbose"],
)


@contextlib.contextmanager
def _patched(patches):
    """``patches`` applied to ``cuspline.subquotients``, with every cache
    emptied on entering, so that the memos call the patched functions, and
    on leaving, so that no value computed under a patch outlives it."""
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            for name, value in patches:
                mp.setattr(S, name, value)
            yield
    finally:
        clear_caches()


def _reports(scenario):
    patches, runs = SCENARIOS[scenario]
    with _patched(patches):
        out = []
        for check, d in runs:
            rep = getattr(S, check)(d)
            out.append({
                "check": check,
                "datum": str(d),
                "lines": rep.render_lines(),
                "json": rep.to_jsonable(),
            })
    return out


def _cli(argv):
    out = io.StringIO()
    with _patched([("dominates", lambda v, w: True)]):
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue().splitlines()}


def _entries():
    """One golden entry per scenario, then one per command line."""
    return [{"scenario": name, "reports": _reports(name)} for name in SCENARIOS] + [
        _cli(argv) for argv in CLI_CASES
    ]


@pytest.fixture(scope="module")
def expected():
    entries = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return {
        "scenarios": {e["scenario"]: e["reports"] for e in entries if "scenario" in e},
        "cli": {" ".join(e["argv"]): e for e in entries if "argv" in e},
    }


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_failed_reports_are_unchanged(scenario, expected):
    got = _reports(scenario)
    assert got == expected["scenarios"][scenario]
    for rep in got:
        assert rep["lines"][-1] == "  result: FAIL"
        assert any("[FAILED]" in line for line in rep["lines"])
        assert not {"length_bound", "mult_bound"} & set(rep["json"])


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_failed_sweep_output_is_unchanged(argv, expected):
    entry = _cli(argv)
    assert entry == expected["cli"][" ".join(argv)]
    assert entry["exit"] == cli.EXIT_FAIL
    if "--json" in argv:
        assert json.loads("\n".join(entry["stdout"]))["status"] == "fail"
    else:
        assert entry["stdout"][-1].endswith("FAILURES above")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_failed_single_check_exits_1(as_json):
    """A single-datum check that fails, through the CLI, under the patch of
    the "dominance always holds" scenario."""
    argv = ["check-prop41", "--alpha", "1/2", "--n", "3", "--cuts", "010"]
    out = io.StringIO()
    with _patched(SCENARIOS["dominance always holds"][0]):
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--json"] * as_json)
    assert code == cli.EXIT_FAIL
    if as_json:
        doc = json.loads(out.getvalue())
        assert doc["status"] == "fail"
        assert doc["report"]["datum"] == A_TOP.to_jsonable()
    else:
        lines = out.getvalue().splitlines()
        assert lines[0] == f"case-a: {A_TOP}"
        assert lines[-1] == "  result: FAIL"


def _warm_memos():
    """A clean sweep over every chain the scenarios and command lines use,
    which fills each per-key memo a patched scenario reads; every datum
    must pass, so a value computed under an earlier patch that outlived it
    shows here."""
    for alpha, n in (("1/2", 2), ("1/2", 3), ("1", 2)):
        for d in S.enumerate_subquotients(hi(alpha), n):
            if S.classify(d) not in S.EXTREMES:
                assert S.check_prop41(d).ok


def test_pinned_reports_survive_warm_memos(expected):
    """With every memo warm from a clean sweep, each patch still reaches its
    pinned FAILED report (a memo filled before the patch would hide it)."""
    for scenario in SCENARIOS:
        _warm_memos()
        assert _reports(scenario) == expected["scenarios"][scenario], scenario
    for argv in CLI_CASES:
        _warm_memos()
        assert _cli(argv) == expected["cli"][" ".join(argv)]


def test_expected_file_lists_every_case(expected):
    assert list(expected["scenarios"]) == list(SCENARIOS)
    assert list(expected["cli"]) == [" ".join(a) for a in CLI_CASES]


if __name__ == "__main__":
    entries = _entries()
    EXPECTED.write_text(
        "[\n" + ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
        + "\n]\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} entries to {EXPECTED}")
