"""Tests for subquotient labels, classification, and the counting checks."""
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cuspline.core import Context, Line, LineError, Segment, ms
from cuspline.classical import (
    CuspSymbol,
    DeltaPM,
    LanglandsDatum,
    StGenSymbol,
    TauPM,
    TempBase,
)
from cuspline.glhopf import DELTA, ZETA, mw_dual
from cuspline.halfint import hi
from cuspline.sampling import random_multisegment
from cuspline.subquotients import (
    _supp,
    AXIOM,
    CaseTag,
    FAILED,
    MAX_CHAIN_LENGTH,
    SubqDatum,
    UnsupportedDatumError,
    VERIFIED,
    aubert_pair,
    chain_product,
    check_length_ge5,
    check_mult_le4,
    check_prop41,
    classify,
    enumerate_subquotients,
    induced_split,
    verify_hd_identity,
    witness,
)


def seg(b, e, line="rho"):
    return Segment(hi(b), hi(e), line)


def datum(alpha, n, cuts, bottom, line="rho", sigma="sigma"):
    return SubqDatum(line, sigma, hi(alpha), n, tuple(cuts), bottom)


CASE_A_1 = datum("1/2", 1, (False,), False)           # single long block
CASE_B_1 = datum("1/2", 2, (True, False), False)      # [3/2,5/2],[1/2]
CASE_B_RICH = datum("1/2", 3, (True, False, True), False)  # [7/2],[3/2,5/2],[1/2]
CASE_C_1 = aubert_pair(CASE_B_1)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(6))
    def test_count(self, n):
        assert len(enumerate_subquotients(1, n)) == 2 ** (n + 1)

    def test_all_distinct(self):
        data = enumerate_subquotients("1/2", 4)
        assert len(set(data)) == len(data)

    def test_blocks_partition_interval(self):
        for d in enumerate_subquotients(1, 3):
            exps = sorted(
                (x.num2 for b in d.blocks() for x in b.exponents())
            )
            assert exps == [2 * (1 + i) for i in range(4)]

    def test_rejects_nonpositive_alpha(self):
        from cuspline.classical import DatumError

        with pytest.raises(DatumError):
            datum(0, 1, (False,), False)
        with pytest.raises(DatumError):
            datum(-1, 1, (False,), False)

    @pytest.mark.parametrize("n", [-1, MAX_CHAIN_LENGTH + 1])
    def test_rejects_chain_length_outside_the_cap(self, n):
        from cuspline.classical import DatumError

        with pytest.raises(DatumError, match=f"from 0 to {MAX_CHAIN_LENGTH}"):
            enumerate_subquotients(1, n)


class TestClassification:
    def test_table_n2(self):
        tags = Counter(classify(d).value for d in enumerate_subquotients("1/2", 2))
        assert tags == {
            "gen-steinberg": 1,
            "co-gen-steinberg": 1,
            "case-a": 2,
            "case-b": 1,
            "case-c": 3,
        }

    def test_examples(self):
        assert classify(datum(1, 2, (False, False), True)) is CaseTag.GEN_STEINBERG
        assert classify(datum(1, 2, (True, True), False)) is CaseTag.CO_GEN_STEINBERG
        assert classify(CASE_A_1) is CaseTag.CASE_A
        assert classify(CASE_B_1) is CaseTag.CASE_B
        assert classify(CASE_C_1) is CaseTag.CASE_C

    @pytest.mark.parametrize("n", range(7))
    def test_cuts_agree_with_the_tiling(self, n):
        """The cut-based rule against the definition on the blocks."""
        for d in enumerate_subquotients("3/2", n):
            blocks = d.blocks()
            if d.bottom:
                want = CaseTag.GEN_STEINBERG if len(blocks) == 1 else CaseTag.CASE_C
            elif all(b.length == 1 for b in blocks):
                want = CaseTag.CO_GEN_STEINBERG
            else:
                want = CaseTag.CASE_A if blocks[-1].length > 1 else CaseTag.CASE_B
            assert classify(d) is want, d

    def test_langlands_datum_of_bottom_attached(self):
        d = datum(1, 2, (True, False), True)  # blocks [2,3],[1] with bottom [1]
        ld = d.langlands_datum()
        assert ld.gl == ms(seg(2, 3))
        assert ld.temp == TempBase(StGenSymbol("rho", hi(1), 0))

    def test_langlands_datum_of_list_only(self):
        ld = CASE_A_1.langlands_datum()
        assert ld.gl == ms(seg("1/2", "3/2"))
        assert ld.temp == TempBase(CuspSymbol())


class TestAubertPair:
    def test_involution(self):
        for d in enumerate_subquotients("3/2", 3):
            assert aubert_pair(aubert_pair(d)) == d

    def test_exchanges_flag_halves(self):
        data = enumerate_subquotients(1, 3)
        on = [d for d in data if d.bottom]
        off = [d for d in data if not d.bottom]
        assert sorted(map(str, (aubert_pair(d) for d in on))) == sorted(map(str, off))

    def test_matches_interval_dual(self):
        # On interval tilings the involution label rule agrees with the
        # combinatorial dual of the full tiling key.
        for d in enumerate_subquotients(2, 4):
            assert mw_dual(d.full_key()) == aubert_pair(d).full_key()

    def test_extremes_swap(self):
        gen = datum(1, 2, (False, False), True)
        assert classify(aubert_pair(gen)) is CaseTag.CO_GEN_STEINBERG


class TestSplitAndChain:
    def test_induced_split_states(self):
        off, on = induced_split(CASE_B_1)
        assert off.bottom is False and on.bottom is True
        assert off.cuts == on.cuts == CASE_B_1.cuts

    def test_chain_product_key(self):
        y = chain_product("1/2", 2)
        (sym,) = y.terms.coeffs
        assert sym.gl == ms(seg("1/2", "1/2"), seg("3/2", "3/2"), seg("5/2", "5/2"))
        assert isinstance(sym.base, CuspSymbol)


class TestWitness:
    def test_bottom_empty_witness_is_delta(self):
        w = witness(CASE_A_1)
        assert w.basis == DELTA
        assert w.terms.coeffs == {ms(seg("-1/2", "1/2")): 1}
        wb = witness(CASE_B_1)
        assert wb.terms.coeffs == {ms(seg("-3/2", "3/2")): 1}

    def test_dualized_witness_is_zeta(self):
        w = witness(CASE_C_1)
        assert w.basis == ZETA
        assert w.terms.coeffs == {ms(seg("-3/2", "3/2")): 1}

    def test_extremes_refused(self):
        with pytest.raises(UnsupportedDatumError):
            witness(datum(1, 2, (False, False), True))
        with pytest.raises(UnsupportedDatumError):
            witness(datum(1, 2, (True, True), False))


class TestCaseAReport:
    def test_certificates_frozen(self):
        rep = check_length_ge5(CASE_A_1)
        assert rep.ok
        assert rep.length_bound == 5
        expected = (
            LanglandsDatum(ms(seg("1/2", "3/2")), TauPM("rho", hi("1/2"), +1)),
            LanglandsDatum(ms(seg("1/2", "3/2")), TauPM("rho", hi("1/2"), -1)),
            LanglandsDatum(
                ms(seg("-1/2", "3/2"), seg("1/2", "1/2")), TempBase(CuspSymbol())
            ),
            LanglandsDatum(
                ms(seg("1/2", "1/2")), DeltaPM(seg("-1/2", "3/2"), +1)
            ),
            LanglandsDatum(
                ms(seg("1/2", "1/2")), DeltaPM(seg("-1/2", "3/2"), -1)
            ),
        )
        assert rep.certificates == expected

    def test_statuses(self):
        rep = check_prop41(CASE_A_1)
        statuses = {s.status for s in rep.steps}
        assert statuses <= {VERIFIED, AXIOM}
        assert rep.ok and rep.length_bound == 5 and rep.mult_bound == 4

    def test_mult_only(self):
        rep = check_mult_le4(CASE_A_1)
        assert rep.ok and rep.mult_bound == 4 and rep.length_bound is None
        labels = [s.label for s in rep.steps]
        assert "unit pairing" in labels and "candidate enumeration" in labels

    def test_upper_list_engages_merge_exclusion(self):
        # alpha=1, n=3, blocks [3,4],[1,2]: pivot [1,2], upper [3,4]
        d = datum(1, 3, (False, True, False), False)
        assert classify(d) is CaseTag.CASE_A
        rep = check_length_ge5(d)
        assert rep.ok
        step = next(s for s in rep.steps if s.label == "top-merge exclusion")
        assert step.status == VERIFIED
        assert "marker" in step.detail


class TestCaseBReport:
    def test_rich_datum_engages_all_exclusions(self):
        rep = check_prop41(CASE_B_RICH)
        assert rep.ok
        labels = [s.label for s in rep.steps]
        for needed in (
            "derivative identification",
            "top-merge exclusion",
            "down-merge exclusion",
            "double-point exclusion",
            "tail restriction bound",
            "multi-point exclusion",
        ):
            assert needed in labels
        merge = next(s for s in rep.steps if s.label == "top-merge exclusion")
        assert merge.status == VERIFIED and "marker" in merge.detail

    def test_hd_identity(self):
        step = verify_hd_identity(CASE_B_1)
        assert step.status == VERIFIED
        with pytest.raises(UnsupportedDatumError):
            verify_hd_identity(CASE_A_1)

    def test_hd_identity_refuses_every_other_case(self):
        for d in enumerate_subquotients(1, 2):
            if classify(d) is CaseTag.CASE_B:
                continue
            with pytest.raises(UnsupportedDatumError) as exc:
                verify_hd_identity(d)
            assert str(exc.value) == (
                "derivative identification is for the singleton-bottom case"
            )

    def test_certificates_use_shifted_point(self):
        rep = check_length_ge5(CASE_B_1)
        # the singleton added to the merged list is the shifted point 3/2
        merged_cert = rep.certificates[2]
        assert ms(seg("3/2", "3/2")) + ms(seg("-3/2", "5/2"), seg("1/2", "1/2")) == merged_cert.gl


class TestCaseCReport:
    def test_transport(self):
        rep = check_prop41(CASE_C_1)
        assert rep.ok and rep.length_bound == 5 and rep.mult_bound == 4
        assert rep.transported_from == CASE_B_1
        assert all(c.dualized for c in rep.certificates)
        assert rep.witness.basis == ZETA
        assert any(s.citation == "[Au] Cor. 3.9" for s in rep.steps)

    def test_dual_steps_embedded(self):
        rep = check_length_ge5(CASE_C_1)
        assert any(s.label.startswith("dual·") for s in rep.steps)


class TestSweep:
    @pytest.mark.parametrize("alpha", ["1/2", 1])
    @pytest.mark.parametrize("n", [1, 2])
    def test_all_eligible_pass(self, alpha, n):
        for d in enumerate_subquotients(alpha, n):
            tag = classify(d)
            if tag in (CaseTag.GEN_STEINBERG, CaseTag.CO_GEN_STEINBERG):
                with pytest.raises(UnsupportedDatumError):
                    check_prop41(d)
                continue
            rep = check_prop41(d)
            assert rep.ok, f"{d}: " + "; ".join(
                s.render() for s in rep.steps if s.status == FAILED
            )
            assert len(rep.certificates) == 5
            assert len(set(rep.certificates)) == 5


class TestSupportCounting:
    """``_supp`` counts exponents as doubled ints; the independent route is
    ``Multisegment.support()``, which walks ``Segment.exponents()``."""

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_halfint_support(self, seed):
        m = random_multisegment(random.Random(seed), max_segments=5, max_length=4)
        slow = Counter({x.num2: k for (_line, x), k in m.support().items()})
        assert _supp(*m) == slow
        assert _supp(*m, None) == slow

    def test_point_and_long_segment(self):
        assert _supp(seg("1/2", "1/2")) == Counter({1: 1})
        assert _supp(seg(-1, 2), seg(0, 0)) == Counter({-2: 1, 0: 2, 2: 1, 4: 1})


class TestContextValidation:
    def test_alpha_mismatch_rejected(self):
        ctx = Context(lines={"rho": Line("rho", selfdual=True, alpha=hi(1))})
        with pytest.raises(LineError):
            check_prop41(CASE_A_1, ctx)

    def test_matching_alpha_accepted(self):
        ctx = Context(lines={"rho": Line("rho", selfdual=True, alpha=hi("1/2"))})
        assert check_prop41(CASE_A_1, ctx).ok

    def test_non_selfdual_line_rejected(self):
        ctx = Context(lines={"rho": Line("rho", selfdual=False)})
        with pytest.raises(LineError):
            check_prop41(CASE_A_1, ctx)


class TestReportSerialization:
    def test_jsonable(self):
        rep = check_prop41(CASE_A_1)
        data = rep.to_jsonable()
        assert data["case"] == "case-a"
        assert data["ok"] is True
        assert data["length_bound"] == 5
        assert data["mult_bound"] == 4
        assert len(data["certificates"]) == 5
        assert all("status" in s for s in data["steps"])

    def test_render_lines(self):
        lines = check_prop41(CASE_A_1).render_lines()
        assert lines[-1] == "  result: PASS"
