"""Tests for line partitions, filtered restrictions, and split/recombine maps."""
import random

import pytest

from cuspline.core import Context, EMPTY_MS, Line, Segment, ms
from cuspline.classical import (
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    DeltaPM,
    IndTemp,
    InducedSymbol,
    LanglandsDatum,
    StGenSymbol,
    TauPM,
    TempBase,
    contragredient_datum,
    dual_sigma,
    induced,
    module_comult,
    temp_sigma,
)
from cuspline.glhopf import delta_key, gl_twisted_part
from cuspline.halfint import hi
from cuspline.jantzen import (
    LinePartition,
    PartitionError,
    SplitDatum,
    TemperedCombineError,
    TemperedProjectionError,
    TransportError,
    combine_data,
    filtered_identity_sides,
    module_comult_filtered,
    project_datum,
    split_datum,
    support_lines,
    transport_line,
    twisted_comult_filtered,
)
from cuspline.sampling import random_langlands_datum, random_multisegment

CTX = Context(
    lines={
        "rho": Line("rho", True, hi("1/2")),
        "tau": Line("tau", True, hi("1/2")),
        "ups": Line("ups", True, hi(1)),
    }
)
P = LinePartition(frozenset({"rho"}), frozenset({"tau"}))
P3 = LinePartition(frozenset({"rho"}), frozenset({"tau", "ups"}))


def seg(b, e, line="rho"):
    return Segment(hi(b), hi(e), line)


def unit_temp(sigma="sigma"):
    return TempBase(CuspSymbol(sigma))


class TestLinePartition:
    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            LinePartition(frozenset({"rho"}), frozenset({"rho", "tau"}))

    def test_sides(self):
        assert P.lines(1) == frozenset({"rho"})
        assert P.lines(2) == frozenset({"tau"})
        assert P.other(1) == 2 and P.other(2) == 1
        with pytest.raises(PartitionError):
            P.lines(3)

    def test_around(self):
        q = LinePartition.around("tau", CTX)
        assert q.part1 == frozenset({"tau"})
        assert q.part2 == frozenset({"rho", "ups"})
        with pytest.raises(PartitionError):
            LinePartition.around("nope", CTX)

    def test_support_check(self):
        y = induced(ms(seg(0, 1, "ups")), CuspSymbol())
        with pytest.raises(PartitionError):
            module_comult_filtered(y, P, 1, CTX)


class TestFilteredModuleRestriction:
    def test_unit_symbol(self):
        y = ClassElt.cusp()
        out = module_comult_filtered(y, P, 1, CTX)
        key = (EMPTY_MS, InducedSymbol(EMPTY_MS, CuspSymbol()))
        assert out.terms.coeffs == {key: 1}

    def test_split_product_identity_frozen(self):
        beta = delta_key(ms(seg(0, 1, "rho")))
        gamma = induced(ms(seg(1, 2, "tau")), CuspSymbol())
        lhs, rhs = filtered_identity_sides(beta, gamma, P, CTX)
        assert lhs.terms == rhs.terms
        # the product side is the full GL twisted part of beta against gamma
        assert len(rhs.terms.coeffs) == len(
            gl_twisted_part(beta, CTX).terms.coeffs
        )

    @pytest.mark.parametrize("i", range(12))
    def test_split_product_identity_random(self, i):
        rng = random.Random(1000 + i)
        beta = delta_key(
            random_multisegment(rng, ["rho"], max_segments=2, window=2)
        )
        gamma = induced(
            random_multisegment(rng, ["tau"], max_segments=2, window=2),
            StGenSymbol("tau", hi("1/2"), rng.randint(0, 1)),
        )
        lhs, rhs = filtered_identity_sides(beta, gamma, P, CTX)
        assert lhs.terms == rhs.terms

    def test_wrong_sides_rejected(self):
        beta = delta_key(ms(seg(0, 1, "tau")))
        gamma = induced(ms(seg(1, 2, "tau")), CuspSymbol())
        with pytest.raises(PartitionError):
            filtered_identity_sides(beta, gamma, P, CTX)

    def test_nonzero_on_symbols(self):
        # Every induced-symbol class has nonzero filtered restriction on
        # both sides, whatever the support distribution.
        y = induced(
            ms(seg(0, 1, "rho"), seg("1/2", "1/2", "tau")),
            StGenSymbol("rho", hi("1/2"), 1),
        )
        for side in (1, 2):
            assert module_comult_filtered(y, P, side, CTX).terms.coeffs

    def test_filtered_terms_are_a_sub_sum(self):
        y = induced(
            ms(seg(0, 1, "rho"), seg("1/2", "1/2", "tau")), CuspSymbol()
        )
        full = module_comult(y, CTX).terms
        for side in (1, 2):
            part = module_comult_filtered(y, P, side, CTX).terms
            # coefficientwise part <= full, a positivity statement
            keys = set(part.coeffs) | set(full.coeffs)
            assert all(part[k] <= full[k] for k in keys)


class TestFilteredRingRestriction:
    def test_fully_on_side_one(self):
        x = delta_key(ms(seg(0, 1, "rho")))
        out = twisted_comult_filtered(x, P, 1, CTX)
        collapsed = {}
        for (left, right), c in out.terms.coeffs.items():
            assert right == EMPTY_MS
            collapsed[left] = collapsed.get(left, 0) + c
        assert collapsed == dict(gl_twisted_part(x, CTX).terms.coeffs)

    def test_fully_on_side_two(self):
        x = delta_key(ms(seg(0, 1, "tau")))
        out = twisted_comult_filtered(x, P, 1, CTX)
        assert out.terms.coeffs
        for (left, _right), _c in out.terms.coeffs.items():
            assert left == EMPTY_MS

    def test_product_multiplicativity(self):
        x1 = delta_key(ms(seg("1/2", "3/2", "rho")))
        x2 = delta_key(ms(seg(-1, 0, "tau")))
        lhs = twisted_comult_filtered(x1 * x2, P, 1, CTX)
        rhs = twisted_comult_filtered(x1, P, 1, CTX) * twisted_comult_filtered(
            x2, P, 1, CTX
        )
        assert lhs.terms == rhs.terms


class TestTemperedProjection:
    def test_atoms(self):
        t = TauPM("rho", hi("3/2"), -1)
        d = LanglandsDatum(ms(seg(1, 1, "rho")), t)
        assert project_datum(d, P, 1) == d
        assert project_datum(d, P, 2) == LanglandsDatum(EMPTY_MS, unit_temp())

    def test_induction_label_splits(self):
        temp = IndTemp(
            (seg("-1/2", "1/2", "rho"), seg(-1, 1, "tau")),
            DeltaPM(seg(-2, 2, "tau"), +1),
        )
        d = LanglandsDatum(ms(seg(1, 2, "rho"), seg("1/2", "1/2", "tau")), temp)
        d1, d2 = split_datum(d, P)
        assert d1 == LanglandsDatum(
            ms(seg(1, 2, "rho")),
            IndTemp((seg("-1/2", "1/2", "rho"),), unit_temp()),
        )
        assert d2 == LanglandsDatum(
            ms(seg("1/2", "1/2", "tau")),
            IndTemp((seg(-1, 1, "tau"),), DeltaPM(seg(-2, 2, "tau"), +1)),
        )

    def test_co_steinberg_not_projectable(self):
        d = LanglandsDatum(
            EMPTY_MS, TempBase(CoStGenSymbol("rho", hi("1/2"), 1))
        )
        with pytest.raises(TemperedProjectionError):
            project_datum(d, P, 1)

    def test_canonical_tempered_flattens(self):
        # keeping every line leaves the canonical tempered symbol: nested
        # induction labels flattened, empty ones dropped
        nested = IndTemp(
            (seg(-1, 1, "rho"),),
            IndTemp((seg("-1/2", "1/2", "tau"),), unit_temp()),
        )
        every = LinePartition(frozenset({"rho", "tau"}), frozenset())
        flat = project_datum(LanglandsDatum(EMPTY_MS, nested), every, 1).temp
        assert flat == IndTemp(
            (seg(-1, 1, "rho"), seg("-1/2", "1/2", "tau")), unit_temp()
        )
        empty = LanglandsDatum(EMPTY_MS, IndTemp((), unit_temp()))
        assert project_datum(empty, every, 1).temp == unit_temp()


class TestCombine:
    def test_merge_single_points(self):
        d1 = LanglandsDatum(ms(seg("1/2", "1/2", "rho")), unit_temp())
        d2 = LanglandsDatum(ms(seg("1/2", "1/2", "tau")), unit_temp())
        out = combine_data(d1, d2, P)
        assert out == LanglandsDatum(
            ms(seg("1/2", "1/2", "rho"), seg("1/2", "1/2", "tau")), unit_temp()
        )

    def test_unit_identity(self):
        d = random_langlands_datum(random.Random(5), ["rho"])
        unit = LanglandsDatum(EMPTY_MS, unit_temp())
        assert combine_data(d, unit) == d
        assert combine_data(unit, d) == d

    def test_degree_adds(self):
        rng = random.Random(11)
        for _ in range(25):
            d1 = random_langlands_datum(rng, ["rho"])
            d2 = random_langlands_datum(rng, ["tau"], allow_core=False)
            assert combine_data(d1, d2).degree == d1.degree + d2.degree

    def test_two_cores_rejected(self):
        d1 = LanglandsDatum(EMPTY_MS, TauPM("rho", hi("1/2"), +1))
        d2 = LanglandsDatum(EMPTY_MS, TauPM("tau", hi("1/2"), +1))
        with pytest.raises(TemperedCombineError):
            combine_data(d1, d2, P)

    def test_sigma_mismatch_rejected(self):
        d1 = LanglandsDatum(EMPTY_MS, unit_temp("sigma"))
        d2 = LanglandsDatum(EMPTY_MS, unit_temp("sigma~"))
        with pytest.raises(TemperedCombineError):
            combine_data(d1, d2)

    def test_dualized_mismatch_rejected(self):
        d1 = LanglandsDatum(EMPTY_MS, unit_temp(), dualized=True)
        d2 = LanglandsDatum(ms(seg(1, 1, "tau")), unit_temp())
        with pytest.raises(TemperedCombineError):
            combine_data(d1, d2)

    def test_shared_support_rejected(self):
        d = LanglandsDatum(ms(seg(1, 1, "rho")), unit_temp())
        with pytest.raises(PartitionError):
            combine_data(d, d)


class TestRoundTrips:
    def test_combine_then_split(self):
        rng = random.Random(20260823)
        for _ in range(50):
            d1 = random_langlands_datum(rng, ["rho"])
            d2 = random_langlands_datum(rng, ["tau"], allow_core=False)
            assert split_datum(combine_data(d1, d2, P), P) == (d1, d2)

    def test_split_then_combine(self):
        rng = random.Random(20260824)
        for _ in range(50):
            d = random_langlands_datum(rng, ["rho", "tau"])
            a, b = split_datum(d, P)
            assert combine_data(a, b, P) == d

    def test_contragredient_commutes(self):
        rng = random.Random(99)
        for _ in range(25):
            d1 = random_langlands_datum(rng, ["rho"])
            d2 = random_langlands_datum(rng, ["tau"], allow_core=False)
            lhs = contragredient_datum(combine_data(d1, d2, P), CTX)
            rhs = combine_data(
                contragredient_datum(d1, CTX), contragredient_datum(d2, CTX), P
            )
            assert lhs == rhs

    def test_three_part_associativity(self):
        rng = random.Random(31)
        for _ in range(25):
            d1 = random_langlands_datum(rng, ["rho"])
            d2 = random_langlands_datum(rng, ["tau"], allow_core=False)
            d3 = random_langlands_datum(rng, ["ups"], allow_core=False)
            left = combine_data(combine_data(d1, d2), d3)
            right = combine_data(d1, combine_data(d2, d3))
            assert left == right

    def test_nested_projection_agrees(self):
        # Projecting to {rho, tau} then to {rho} equals projecting to
        # {rho, ups} then to {rho}: both recover the rho coordinate.
        rng = random.Random(47)
        for _ in range(25):
            d = random_langlands_datum(
                rng, ["rho", "tau", "ups"], core_line="rho"
            )
            via_tau = project_datum(
                project_datum(d, LinePartition({"rho", "tau"}, {"ups"}), 1),
                LinePartition({"rho"}, {"tau"}),
                1,
            )
            via_ups = project_datum(
                project_datum(d, LinePartition({"rho", "ups"}, {"tau"}), 1),
                LinePartition({"rho"}, {"ups"}),
                1,
            )
            assert via_tau == via_ups

    def test_restriction_of_merged_induced_symbols(self):
        # Restriction of a merged cuspidal-base symbol is the pairwise
        # product of the restrictions of its one-line pieces.
        m1 = ms(seg("1/2", "3/2", "rho"))
        m2 = ms(seg(0, 0, "tau"), seg(1, 1, "tau"))
        merged = induced(m1 + m2, CuspSymbol())
        lhs = module_comult(merged, CTX).terms
        rhs = module_comult(induced(m1, CuspSymbol()), CTX).terms.combine(
            module_comult(induced(m2, CuspSymbol()), CTX).terms,
            lambda a, b: (
                a[0] + b[0],
                InducedSymbol(a[1].gl + b[1].gl, CuspSymbol()),
            ),
        )
        assert lhs == rhs


class TestSplitDatum:
    def test_per_line_bundle(self):
        rng = random.Random(63)
        for _ in range(10):
            d = random_langlands_datum(rng, ["rho", "tau", "ups"])
            sd = SplitDatum.split(d, CTX)
            assert [lid for lid, _ in sd.parts] == ["rho", "tau", "ups"]
            assert sd.combine() == d
            for lid, part in sd.parts:
                assert part.lines() <= frozenset({lid})

    def test_part_lookup(self):
        d = LanglandsDatum(ms(seg(1, 1, "rho")), unit_temp())
        sd = SplitDatum.split(d, CTX)
        assert sd.part("rho") == d
        assert sd.part("tau") == LanglandsDatum(EMPTY_MS, unit_temp())
        with pytest.raises(PartitionError):
            sd.part("nope")

    def test_unknown_line_rejected(self):
        d = LanglandsDatum(ms(seg(1, 1, "zzz")), unit_temp())
        with pytest.raises(PartitionError):
            SplitDatum.split(d, CTX)

    def test_jsonable(self):
        d = LanglandsDatum(ms(seg(1, 1, "rho")), unit_temp())
        data = SplitDatum.split(d, CTX).to_jsonable()
        assert set(data["parts"]) == {"rho", "tau", "ups"}


class TestTransport:
    DATUM = LanglandsDatum(
        ms(seg("1/2", "3/2", "rho")),
        TempBase(StGenSymbol("rho", hi("1/2"), 1)),
    )

    def test_relabels_everything(self):
        out = transport_line(self.DATUM, "rho", "tau", CTX)
        assert out == LanglandsDatum(
            ms(seg("1/2", "3/2", "tau")),
            TempBase(StGenSymbol("tau", hi("1/2"), 1)),
        )

    def test_round_trip(self):
        out = transport_line(self.DATUM, "rho", "tau", CTX)
        assert transport_line(out, "tau", "rho", CTX) == self.DATUM

    def test_sigma_relabel(self):
        out = transport_line(self.DATUM, "rho", "tau", CTX, sigma_to="sigma2")
        assert temp_sigma(out.temp) == "sigma2"

    def test_alpha_mismatch_rejected(self):
        with pytest.raises(TransportError):
            transport_line(self.DATUM, "rho", "ups", CTX)

    def test_alpha_zero_rejected(self):
        ctx = Context(
            lines={
                "a": Line("a", True, hi(0)),
                "b": Line("b", True, hi(0)),
            }
        )
        d = LanglandsDatum(ms(seg(1, 1, "a")), unit_temp())
        with pytest.raises(TransportError):
            transport_line(d, "a", "b", ctx)

    def test_missing_alpha_rejected(self):
        ctx = Context(lines={"a": Line("a"), "b": Line("b")})
        d = LanglandsDatum(ms(seg(1, 1, "a")), unit_temp())
        with pytest.raises(TransportError):
            transport_line(d, "a", "b", ctx)

    def test_non_selfdual_rejected(self):
        ctx = Context(
            lines={
                "a": Line("a", False, hi("1/2")),
                "b": Line("b", True, hi("1/2")),
            }
        )
        d = LanglandsDatum(ms(seg(1, 1, "a")), unit_temp())
        with pytest.raises(TransportError):
            transport_line(d, "a", "b", ctx)

    def test_wrong_support_rejected(self):
        d = LanglandsDatum(ms(seg(1, 1, "tau")), unit_temp())
        with pytest.raises(TransportError):
            transport_line(d, "rho", "tau", CTX)

    def test_same_line_rejected(self):
        with pytest.raises(TransportError):
            transport_line(self.DATUM, "rho", "rho", CTX)

    def test_commutes_with_split_combine(self):
        ctx = Context(
            lines={
                "rho": Line("rho", True, hi("1/2")),
                "rho2": Line("rho2", True, hi("1/2")),
                "tau": Line("tau", True, hi("1/2")),
            }
        )
        rng = random.Random(77)
        for _ in range(10):
            d1 = random_langlands_datum(rng, ["rho"])
            d2 = random_langlands_datum(rng, ["tau"], allow_core=False)
            moved = transport_line(d1, "rho", "rho2", ctx)
            combined = combine_data(moved, d2)
            q = LinePartition({"rho2"}, {"tau"})
            assert split_datum(combined, q) == (moved, d2)


class TestSupportHelpers:
    def test_gl_support(self):
        x = delta_key(ms(seg(0, 1, "rho"), seg(2, 2, "tau")))
        assert support_lines(x) == frozenset({"rho", "tau"})

    def test_class_support(self):
        y = induced(ms(seg(0, 0, "tau")), StGenSymbol("rho", hi("1/2"), 0))
        assert support_lines(y) == frozenset({"rho", "tau"})


class TestDegrees:
    def test_frozen_values(self):
        assert TauPM("rho", hi("3/2"), +1).degree == 4
        assert DeltaPM(seg(-2, 2), -1).degree == 5
        assert TempBase(StGenSymbol("rho", hi("1/2"), 2)).degree == 3
        assert TempBase(CuspSymbol()).degree == 0
        t = IndTemp((seg(-1, 1),), TauPM("rho", hi("1/2"), +1))
        assert t.degree == 3 + 2
        d = LanglandsDatum(ms(seg(1, 2)), t)
        assert d.degree == 2 + 5


def _rewrite(doc, key, f):
    """``doc`` with every value stored under ``key`` replaced by ``f(value)``."""
    if isinstance(doc, dict):
        return {
            k: f(v) if k == key else _rewrite(v, key, f) for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_rewrite(v, key, f) for v in doc]
    return doc


def _kinds(doc):
    if isinstance(doc, dict):
        own = {doc["kind"]} if "kind" in doc else set()
        return own.union(*(_kinds(v) for v in doc.values()))
    if isinstance(doc, list):
        return set().union(*(_kinds(v) for v in doc))
    return set()


class TestLabelRewrites:
    """The contragredient and line transport rewrite exactly one label kind
    and leave every other field of the datum alone."""

    COST = TempBase(CoStGenSymbol("rho", hi("1/2"), 1))
    EXTRA = (
        LanglandsDatum(ms(seg(1, 2)), COST),
        LanglandsDatum(EMPTY_MS, IndTemp((seg(-1, 1),), COST)),
    )

    def data(self, lines):
        rng = random.Random(29)
        out = [random_langlands_datum(rng, lines) for _ in range(150)]
        out += list(self.EXTRA)
        kinds = set().union(*(_kinds(d.to_jsonable()) for d in out))
        assert {"cusp", "stgen", "costgen", "tau-pm", "delta-pm", "ind-temp"} <= kinds
        return out

    def test_contragredient_flips_only_sigma(self):
        for d in self.data(("rho", "tau")):
            flipped = contragredient_datum(d, CTX).to_jsonable()
            assert flipped == _rewrite(d.to_jsonable(), "sigma", dual_sigma)

    def test_transport_moves_only_the_line(self):
        for d in self.data(("rho",)):
            moved = transport_line(d, "rho", "tau", CTX).to_jsonable()
            assert moved == _rewrite(d.to_jsonable(), "line", lambda _: "tau")

    def test_transport_with_sigma_rename(self):
        for d in self.data(("rho",)):
            moved = transport_line(d, "rho", "tau", CTX, sigma_to="s2")
            expected = _rewrite(d.to_jsonable(), "line", lambda _: "tau")
            assert moved.to_jsonable() == _rewrite(expected, "sigma", lambda _: "s2")
