"""Tests for the generic-unitarizability decision procedure."""
import hashlib
import itertools
import json
from decimal import Decimal
from fractions import Fraction as F

import pytest

from cuspline import dsl
from cuspline.core import EMPTY_MS, Context, Line, Segment
from cuspline.classical import (
    CuspSymbol,
    IndTemp,
    LanglandsDatum,
    StGenSymbol,
    TempBase,
)
from cuspline.halfint import hi
from cuspline.criteria import (
    GenericDatum,
    MalformedDatumError,
    PASS,
    SKIP,
    generic_unitarizable,
    half_point_reducible,
)
from cuspline.jantzen import LinePartition, project_datum

CTX = Context(
    lines={
        "rho": Line("rho", True, hi("1/2")),
        "tau": Line("tau", True, hi(1)),
    }
)


def D(label, exps, sd=True, hr=False, tr=False, partner=None, line=None):
    return GenericDatum(
        label, tuple(F(e) for e in exps), sd, hr, tr, partner, line
    )


# (name, data, expected verdict, condition expected to fail first or None)
TRUTH_TABLE = [
    ("empty-collection", [], True, None),
    ("tempered", [D("a", [])], True, None),
    ("hermitian-missing-partner", [D("a", ["1/4"], sd=False)], False, "hermitian"),
    (
        "hermitian-matched-pair",
        [
            D("a", ["1/4"], sd=False, partner="b"),
            D("b", ["1/4"], sd=False, partner="a"),
        ],
        True,
        None,
    ),
    (
        "hermitian-mismatched-pair",
        [
            D("a", ["1/4"], sd=False, partner="b"),
            D("b", ["1/3"], sd=False, partner="a"),
        ],
        False,
        "hermitian",
    ),
    ("strict-window-violation", [D("a", ["3/4"], hr=True)], False, "strict-window"),
    ("strict-window-ok", [D("a", ["1/4", "2/5"], hr=True)], True, None),
    ("two-window-ok", [D("a", ["1/4", "3/5"])], True, None),
    ("complementary-sum", [D("a", ["2/5", "3/5"])], False, "pair-sum"),
    ("doubled-half", [D("a", ["1/2", "1/2"])], False, "half-multiplicity"),
    ("top-parity-odd", [D("a", ["1/2", "3/5"])], False, "top-parity"),
    ("interval-parity-ok", [D("a", ["1/4", "3/5", "4/5"])], True, None),
    (
        "interval-parity-even",
        [D("a", ["1/4", "3/10", "3/5", "4/5"])],
        False,
        "interval-parity",
    ),
    ("length-parity-odd", [D("a", ["1/4"], tr=True)], False, "length-parity"),
    ("length-parity-even", [D("a", ["1/4", "1/3"], tr=True)], True, None),
    ("exponent-at-one", [D("a", ["5/4"])], False, "normal-form"),
    ("repeated-high-exponent", [D("a", ["3/5", "3/5"])], False, "normal-form"),
]


class TestTruthTable:
    @pytest.mark.parametrize(
        "name,data,expected,failing",
        TRUTH_TABLE,
        ids=[row[0] for row in TRUTH_TABLE],
    )
    def test_case(self, name, data, expected, failing):
        result = generic_unitarizable(data)
        assert result.unitarizable is expected
        if failing is None:
            assert result.first_failure is None
        else:
            assert result.first_failure is not None
            assert result.first_failure.condition == failing

    def test_trace_is_deterministic(self):
        data = [D("b", ["1/4"]), D("a", ["1/3"], hr=True)]
        r1 = generic_unitarizable(data)
        r2 = generic_unitarizable(list(reversed(data)))
        assert r1 == r2
        assert [s.label for s in r1.steps][:2] == ["a", "a"]

    def test_skip_statuses_present(self):
        result = generic_unitarizable([D("a", ["1/4", "3/5"])])
        by_condition = {s.condition: s.status for s in result.steps}
        assert by_condition["interval-parity"] == SKIP
        assert by_condition["length-parity"] == SKIP
        assert by_condition["top-parity"] == PASS

    def test_render_lines(self):
        lines = generic_unitarizable([D("a", [])]).render_lines()
        assert lines[-1] == "verdict: unitarizable"

    def test_jsonable(self):
        data = generic_unitarizable([D("a", ["1/4"])]).to_jsonable()
        assert data["unitarizable"] is True
        assert all("condition" in s for s in data["steps"])

    def test_every_trace_on_a_grid_is_pinned(self):
        # every multiset of 0-3 exponents p/q (2 <= q <= 6, p < 2q): a
        # selfdual label under each flag setting, then a non-selfdual pair
        # whose partner carries the same exponents, then one whose partner
        # carries all but the smallest; a changed status, detail, condition
        # name or step order changes the digest
        pool = sorted({F(p, q) for q in range(2, 7) for p in range(1, 2 * q)})
        digest, count = hashlib.sha256(), 0
        for k in range(4):
            for exps in itertools.combinations_with_replacement(pool, k):
                bundles = [
                    [D("a", exps, hr=hr, tr=tr)]
                    for hr in (False, True) for tr in (False, True)
                ]
                for other in (exps, exps[1:]):
                    bundles.append([
                        D("a", exps, sd=False, partner="b"),
                        D("b", other, sd=False, partner="a"),
                    ])
                for data in bundles:
                    doc = generic_unitarizable(data).to_jsonable()
                    digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
                    count += 1
        assert count == 15600
        assert digest.hexdigest().startswith("1f1db9c5489b3cb3")


class TestValidation:
    def test_nonpositive_exponent(self):
        with pytest.raises(MalformedDatumError):
            D("a", ["-1/4"])
        with pytest.raises(MalformedDatumError):
            D("a", [0])

    @pytest.mark.parametrize("value", ["1/0", float("inf"), float("nan")])
    def test_unrepresentable_exponent(self, value):
        with pytest.raises(MalformedDatumError, match="not an exponent"):
            GenericDatum("a", (value,), True, False)

    @pytest.mark.parametrize("value", [0.5, 0.3, Decimal("0.3"), None, True])
    def test_inexact_or_foreign_exponent(self, value):
        with pytest.raises(MalformedDatumError, match="not an exponent"):
            GenericDatum("a", (value,), True, False)

    @pytest.mark.parametrize(
        "value, message",
        [("1e30000000", "exponent notation"), ("1E3", "exponent notation"),
         ("3e-1", "exponent notation"), ("1/2e1", "exponent notation"),
         ("1" * 1001, "1001 digits, more than 1000"),
         ("0." + "0" * 1000 + "1", "1002 digits, more than 1000")],
        ids=["e30000000", "E3", "e-1", "fraction-e1", "1001-digits", "decimal-1002-digits"],
    )
    def test_costly_exponent_string(self, value, message):
        # Fraction would build 10**30000000 exactly from the first one
        with pytest.raises(MalformedDatumError, match="not an exponent") as exc:
            GenericDatum("a", (value,), True, False)
        assert message in str(exc.value) and len(str(exc.value)) < 100

    def test_longest_exponent_strings_still_parse(self):
        big = "9" * dsl.MAX_DIGITS
        exps = (big, "0." + "0" * 998 + "3", f"{big[:-1]}/9")
        d = GenericDatum("a", exps, True, False)
        assert d.exponents == (F(3, 10 ** 999), F(int(big[:-1]), 9), F(int(big)))

    def test_exact_exponent_types(self):
        d = GenericDatum("a", (1, "0.3", F(2, 5), hi("1/2")), True, False)
        assert d.exponents == (F(3, 10), F(2, 5), F(1, 2), F(1))

    def test_selfdual_with_partner(self):
        with pytest.raises(MalformedDatumError):
            D("a", [], sd=True, partner="b")

    def test_nonselfdual_self_partner(self):
        with pytest.raises(MalformedDatumError):
            D("a", [], sd=False, partner="a")

    def test_duplicate_labels(self):
        with pytest.raises(MalformedDatumError):
            generic_unitarizable([D("a", []), D("a", [])])

    def test_inconsistent_partner_links(self):
        with pytest.raises(MalformedDatumError):
            generic_unitarizable(
                [
                    D("a", [], sd=False, partner="b"),
                    D("b", [], sd=False, partner="c"),
                    D("c", [], sd=False, partner="b"),
                ]
            )

    def test_exponents_sorted_on_construction(self):
        d = D("a", ["3/5", "1/4"])
        assert d.exponents == (F(1, 4), F(3, 5))


class TestLineIndependence:
    def test_verdict_ignores_line_and_label_names(self):
        base = [D("a", ["1/4", "3/5"], line="rho")]
        moved = [D("zz", ["1/4", "3/5"], line="tau")]
        v1 = generic_unitarizable(base)
        v2 = generic_unitarizable(moved)
        assert v1.unitarizable == v2.unitarizable
        assert [s.status for s in v1.steps] == [s.status for s in v2.steps]

    def test_half_point_parity_rule(self):
        a_half, a_int = hi("1/2"), hi(1)
        assert half_point_reducible(1, a_half) is True
        assert half_point_reducible(2, a_half) is False
        assert half_point_reducible(3, a_half) is True
        assert half_point_reducible(1, a_int) is False
        assert half_point_reducible(2, a_int) is True
        assert half_point_reducible(4, hi(0)) is True

    def test_half_point_on_line(self):
        # the rule reads the line's declared reducibility point
        assert half_point_reducible(3, CTX.line("rho").alpha) is True
        assert half_point_reducible(3, CTX.line("tau").alpha) is False
        with pytest.raises(MalformedDatumError):
            half_point_reducible(0, hi("1/2"))


def by_line(data):
    """The data grouped by cuspidal line, each group in input order."""
    groups = {}
    for d in data:
        groups.setdefault(d.line, []).append(d)
    return {line: tuple(group) for line, group in groups.items()}


def unitarizable(data):
    return generic_unitarizable(data).unitarizable


class TestLineFactor:
    """A generic description is unitarizable if and only if its factor on
    every cuspidal line is."""

    def test_groups_and_biconditional(self):
        data = (
            D("a", ["1/4"], line="rho"),
            D("b", ["1/3", "1/4"], hr=True, line="tau"),
            D("c", ["2/5"], line="rho"),
        )
        groups = by_line(data)
        assert [d.label for d in groups["rho"]] == ["a", "c"]
        whole = unitarizable(data)
        parts = all(unitarizable(g) for g in groups.values())
        assert whole is parts is True

    def test_one_line_failing_fails_whole(self):
        data = (
            D("a", ["1/4"], line="rho"),
            D("b", ["3/4"], hr=True, line="tau"),
        )
        groups = by_line(data)
        assert unitarizable(data) is False
        assert unitarizable(groups["rho"]) is True
        assert unitarizable(groups["tau"]) is False

    def test_tempered_part_projected(self):
        # the tempered part's factor on a line keeps that line's induction
        # segments and base atom, and replaces the others by sigma
        temp = IndTemp(
            (Segment(hi(-1), hi(1), "tau"),),
            TempBase(StGenSymbol("rho", hi("1/2"), 1)),
        )
        wrapper = LanglandsDatum(EMPTY_MS, temp)
        on_rho = LinePartition(frozenset({"rho"}), frozenset({"tau"}))
        on_tau = LinePartition(frozenset({"tau"}), frozenset({"rho"}))
        assert project_datum(wrapper, on_rho, 1).temp == TempBase(
            StGenSymbol("rho", hi("1/2"), 1)
        )
        assert project_datum(wrapper, on_tau, 1).temp == IndTemp(
            (Segment(hi(-1), hi(1), "tau"),), TempBase(CuspSymbol())
        )


class TestFactorDecideCommutes:
    @pytest.mark.parametrize("case", range(6))
    def test_random_bundles(self, case):
        import random

        rng = random.Random(500 + case)
        data = []
        for i in range(rng.randint(1, 4)):
            line = rng.choice(["rho", "tau"])
            exps = [
                F(rng.randint(1, 9), 10) for _ in range(rng.randint(0, 3))
            ]
            data.append(
                GenericDatum(
                    f"d{i}",
                    tuple(exps),
                    True,
                    rng.random() < 0.5,
                    rng.random() < 0.5,
                    None,
                    line,
                )
            )
        whole = unitarizable(data)
        parts = all(unitarizable(g) for g in by_line(data).values())
        assert whole == parts
