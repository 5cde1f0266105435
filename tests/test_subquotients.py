"""Tests for subquotient labels, classification, and the counting checks."""
import pickle
import random
from collections import Counter
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from cuspline import clear_caches, subquotients
from cuspline.core import (
    DEFAULT_CONTEXT, EMPTY_MS, Context, Line, LineError, Multisegment, Segment, ms
)
from cuspline.classical import (
    CoStGenSymbol,
    CuspSymbol,
    DatumError,
    DeltaPM,
    LanglandsDatum,
    StGenSymbol,
    TauPM,
    TempBase,
    module_comult_base,
)
from cuspline.glhopf import (
    DELTA,
    ZETA,
    delta_key,
    derivative,
    gl_twisted_part,
    mw_dual,
    twisted_comult,
    zeta_key,
)
from cuspline.halfint import hi
from cuspline.sampling import random_multisegment
from cuspline.glhopf import _lowest_derivative_segment
from cuspline.subquotients import (
    _Refuted,
    _carrying,
    _key_supp,
    _langlands_datum,
    _left_factors,
    _report,
    _resolve,
    _segment_ending,
    _supp,
    _top_merge_term,
    _witness_segment,
    _witness_terms,
    _witness_window,
    AXIOM,
    CaseTag,
    CertReport,
    CertStep,
    EXTREMES,
    FAILED,
    MAX_ALPHA,
    MAX_CHAIN_LENGTH,
    SubqDatum,
    UnsupportedDatumError,
    VERIFIED,
    aubert_pair,
    check_length_ge5,
    check_mult_le4,
    check_prop41,
    classify,
    enumerate_subquotients,
    verify_hd_identity,
)


def seg(b, e, line="rho"):
    return Segment(hi(b), hi(e), line)


def datum(alpha, n, cuts, bottom, line="rho", sigma="sigma"):
    return SubqDatum(line, sigma, hi(alpha), n, tuple(cuts), bottom)


def langlands_datum(d):
    return _langlands_datum(d, d.blocks(), d.bottom)


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

    def test_blocks_are_built_once_and_stay_out_of_the_value(self):
        for d in enumerate_subquotients("3/2", 3):
            fresh = replace(d)
            before = pickle.dumps(d)
            text = str(d)  # rendering builds the tiling
            assert d.blocks() is d.blocks()
            assert d.blocks() == fresh.blocks() and str(fresh) == text
            assert d == fresh and hash(d) == hash(fresh)
            assert pickle.dumps(d) == before
            back = pickle.loads(before)
            assert back == d and back.blocks() == d.blocks()
            assert d.to_jsonable() == fresh.to_jsonable()
            assert set(d.to_jsonable()) == {f.name for f in fields(d)}
            other = replace(d, bottom=not d.bottom)
            assert other != d and other.blocks() == d.blocks()
            assert other.blocks() is not d.blocks()

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
        ld = langlands_datum(d)
        assert ld.gl == ms(seg(2, 3))
        assert ld.temp == TempBase(StGenSymbol("rho", hi(1), 0))

    def test_langlands_datum_of_list_only(self):
        ld = langlands_datum(CASE_A_1)
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
            full = Multisegment(d.blocks())
            assert mw_dual(full) == Multisegment(aubert_pair(d).blocks())

    def test_extremes_swap(self):
        gen = datum(1, 2, (False, False), True)
        assert classify(aubert_pair(gen)) is CaseTag.CO_GEN_STEINBERG


class TestSplitAndChain:
    def test_induced_split_states(self):
        # (full Langlands list) |x| sigma has exactly two constituents: the
        # two flag states of the same tiling, of the same degree
        off, on = (replace(CASE_B_1, bottom=flag) for flag in (False, True))
        assert off.bottom is False and on.bottom is True
        assert off.cuts == on.cuts == CASE_B_1.cuts
        assert langlands_datum(off).degree == langlands_datum(on).degree == 3


class TestWitness:
    """The witness each check's report carries."""

    def test_bottom_empty_witness_is_delta(self):
        for check in _CHECKS:
            w = check(CASE_A_1).witness
            assert w.basis == DELTA
            assert w.terms.coeffs == {ms(seg("-1/2", "1/2")): 1}
            wb = check(CASE_B_1).witness
            assert wb.basis == DELTA
            assert wb.terms.coeffs == {ms(seg("-3/2", "3/2")): 1}

    def test_dualized_witness_is_zeta(self):
        for check in _CHECKS:
            w = check(CASE_C_1).witness
            assert w.basis == ZETA
            assert w.terms.coeffs == {ms(seg("-3/2", "3/2")): 1}

    def test_extremes_refused(self):
        for check in _CHECKS:
            with pytest.raises(UnsupportedDatumError):
                check(datum(1, 2, (False, False), True))
            with pytest.raises(UnsupportedDatumError):
                check(datum(1, 2, (True, True), False))


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

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_per_key_support_is_the_segment_count(self, seed):
        rng = random.Random(seed)
        m = random_multisegment(rng, lines=("rho", "tau"), max_segments=5)
        if m.segments:  # a repeated segment
            m = m + ms(rng.choice(m.segments))
        assert _key_supp(m) == _supp(*m)
        assert _key_supp(m) is _key_supp(m)  # counted once, then shared

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_carrying_counts_the_support_of_each_exponent(self, seed):
        m = random_multisegment(random.Random(seed), max_segments=5, max_length=4)
        slow = Counter({x.num2: k for (_line, x), k in m.support().items()})
        top2 = max((abs(x2) for x2 in slow), default=0) + 2
        for x2 in range(-top2, top2 + 1):  # both parities, and past each end
            assert _carrying(x2, *m) == slow[x2], (m, x2)

    def test_point_and_long_segment(self):
        assert _supp(seg("1/2", "1/2")) == Counter({1: 1})
        assert _supp(seg(-1, 2), seg(0, 0)) == Counter({-2: 1, 0: 2, 2: 1, 4: 1})


def _supp2(m) -> Counter:
    """Doubled exponents of a key, through ``Multisegment.support()``."""
    return Counter({x.num2: k for (_line, x), k in m.support().items()})


def _eligible_data():
    """Every eligible datum with n <= 6 at five alphas, in one pass, so that
    a memo which forgets part of its key meets a key it has already seen
    under another alpha."""
    for alpha in ("1/2", "1", "3/2", "2", "5/2"):
        for n in range(7):
            for d in enumerate_subquotients(alpha, n):
                if classify(d) not in EXTREMES:
                    yield d


def _eligible_frames():
    """The frame of the bottom-empty datum behind every eligible datum:
    itself in case A or B, its partner in case C."""
    for d in _eligible_data():
        yield _resolve(aubert_pair(d) if classify(d) is CaseTag.CASE_C else d)


class TestPerKeyMemos:
    """Every per-key memo against its direct computation from the unmemoized
    restriction, on the keys of every eligible datum with n <= 6 at five
    alphas; the exponent arguments also run over the key's whole range, so
    that the memos' positive answers are checked too."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_caches()
        yield
        clear_caches()

    def test_witness_terms(self):
        seen = 0
        for f in _eligible_frames():
            alpha2 = f.d.alpha.num2
            tw = twisted_comult(f.witness).terms
            unit = (ms(f.sym), EMPTY_MS)
            target = _supp2(ms(f.sym))
            single, multi, odd = [], [], None
            for (left, right), coeff in tw.coeffs.items():
                have = _supp2(left)
                if (left, right) == unit or any(have[x] > target[x] for x in have):
                    continue
                need = target - have
                if need and min(abs(x) for x in need) >= alpha2:
                    if coeff != 1 and odd is None:
                        odd = (left, right, coeff)
                    (single if sum(need.values()) == 1 else multi).append(
                        (left, right, need)
                    )
            assert _witness_terms(f.sym, alpha2) == (
                tuple(single), tuple(multi), odd, None
            ), f.d
            seen += bool(multi)
        assert seen > 0

    def test_doubled_witness_term(self):
        found, swept = 0, set()
        for f in _eligible_frames():
            if f.sym in swept:
                continue
            swept.add(f.sym)
            supps = [
                (left, _supp2(left))
                for left, _right in twisted_comult(f.witness).terms.coeffs
            ]
            # a left factor can carry a positive exponent twice, never a
            # negative one: the sweep passes -x2 for both signs
            for x2 in range(-f.sym.e.num2, f.sym.e.num2 + 1, 2):
                want = next((l for l, s in supps if s[-x2] > 1), None)
                assert _witness_terms(f.sym, x2).doubled == want, (f.d, x2)
                found += want is not None
        assert found > 0

    def test_left_factors(self):
        for f in _eligible_frames():
            atoms = [f.branch.temp.base]
            if f.tag is CaseTag.CASE_B:
                tail_n = (f.aa - f.d.alpha).num2 // 2
                atoms.append(CoStGenSymbol(f.d.line, f.d.alpha, tail_n, f.d.sigma))
            for atom in atoms:
                want = {left for left, _right in module_comult_base(atom).terms.coeffs}
                assert _left_factors(atom) == want, (f.d, atom)

    def test_lowest_derivative_segment(self):
        for f in _eligible_frames():
            if f.tag is not CaseTag.CASE_B:
                continue
            for s in ms(f.sym) + f.full:
                terms = derivative(zeta_key(ms(s))).terms
                low = min(key.size for key in terms.coeffs)
                lowest = terms.filter(lambda key: key.size == low)
                assert _lowest_derivative_segment(s) == lowest, s


def _window_segments(lo2: int, hi2: int):
    """Every segment on rho with doubled ends in [lo2, hi2], by begin."""
    for b2 in range(lo2, hi2 + 1):
        for e2 in range(b2, hi2 + 1, 2):
            yield Segment(hi(f"{b2}/2"), hi(f"{e2}/2"), "rho")


class TestCheckMemos:
    """The memoized scans of the top-merge and down-merge exclusions and of
    the witness window, each against its direct scan of the unmemoized
    restriction, over every segment of a window.  The memo stays warm
    across the sweep, so a memo that forgets part of its key meets a key it
    has already seen with another value of the forgotten part."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_caches()
        yield
        clear_caches()

    def test_top_merge_term(self):
        found = 0
        for block in _window_segments(-5, 7):
            keys = list(gl_twisted_part(delta_key(ms(block))).terms.coeffs)
            for c2 in range(block.b.num2 - 2, block.e.num2 + 3, 2):
                want = next(
                    (k for k in keys if _supp2(k)[c2] > 0 and _supp2(k)[c2 + 2] == 0),
                    None,
                )
                assert _top_merge_term(block, c2) is want, (block, c2)
                found += want is not None
        assert 0 < found

    def test_segment_ending(self):
        found = 0
        for block in _window_segments(-5, 7):
            keys = list(gl_twisted_part(delta_key(ms(block))).terms.coeffs)
            for end2 in range(-block.e.num2 - 2, block.e.num2 + 3, 2):
                want = next(
                    (s for k in keys for s in k if s.e == hi(f"{end2}/2")), None
                )
                assert _segment_ending(block, end2) is want, (block, end2)
                found += want is not None
        assert 0 < found

    def test_witness_window(self):
        outcomes = Counter()
        for sym in _window_segments(-7, 7):
            for keys in ((ms(sym),), (ms(sym), ms(sym.dual()))):
                for alpha2 in range(1, 5):
                    for n in range(4):
                        top = hi(f"{alpha2}/2") + n
                        inside = all(
                            -top <= x <= top
                            for k in keys for (_line, x) in k.support()
                        )
                        selfdual = {k.map_segments(Segment.dual) for k in keys} == set(keys)
                        if not inside:
                            want = f"witness support leaves [{-top}, {top}]"
                        elif not selfdual:
                            want = "witness is not selfdual"
                        else:
                            want = f"witness is selfdual with support inside [{-top}, {top}]"
                        try:
                            got = _witness_window(keys, alpha2, n)
                        except _Refuted as exc:
                            got = str(exc)
                        assert got == want, (keys, alpha2, n)
                        outcomes[want.split()[2]] += 1
        assert len(outcomes) == 3, outcomes

    def test_each_bottom_empty_frame_is_resolved_once(self, monkeypatch):
        calls = Counter()

        def counting(d, _real=_resolve):
            calls[d] += 1
            return _real(d)

        monkeypatch.setattr(subquotients, "_resolve", counting)
        for d in (CASE_A_1, CASE_B_RICH):
            clear_caches()
            calls.clear()
            check_prop41(d)  # the report's miss resolves the frame
            check_prop41(aubert_pair(d))  # the partner's check hits the report
            assert calls == {d: 1}, (d, calls)

    def test_memos_are_bounded_and_cleared(self):
        memos = (_report, _top_merge_term, _segment_ending, _witness_window)
        for d in _eligible_data():
            check_prop41(d)
        for memo in memos:
            info = memo.cache_info()
            assert info.maxsize is not None and 0 < info.currsize <= info.maxsize, memo
        clear_caches()
        assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)


def test_marker_counts_the_support_of_its_segments():
    """The frame's marker, counted in doubled ints, against the support of
    dual(upper), the point -aa, dual(lower) and [-aa, c] as a multisegment,
    at every exponent of the chain's window and one step past it."""
    for f in _eligible_frames():
        segments = [s.dual() for s in f.upper + f.lower]
        segments += [Segment(-f.aa, -f.aa, f.d.line), f.merged]
        support = _supp2(Multisegment(segments))
        top2 = f.d.alpha.num2 + 2 * f.d.n + 2
        for x2 in range(-top2, top2 + 1):
            assert f.marker(x2) == support[x2], (f.d, x2)


class TestAlphaCap:
    PAST_CAP = (hi(MAX_ALPHA) + hi("1/2"), hi(100), hi(10**6))

    def test_enumeration_refuses_alpha_past_the_cap(self):
        assert len(enumerate_subquotients(hi(MAX_ALPHA), 1)) == 4
        for alpha in self.PAST_CAP:
            with pytest.raises(DatumError, match=f"at most {MAX_ALPHA}"):
                enumerate_subquotients(alpha, 1)

    def test_no_datum_past_the_cap_reaches_a_check(self):
        """The cap is the datum's own rule, so neither the constructor nor a
        copy through ``dataclasses.replace`` can hand a check such a datum."""
        for alpha in self.PAST_CAP:
            with pytest.raises(DatumError, match=f"at most {MAX_ALPHA}"):
                SubqDatum("rho", "sigma", alpha, 10, (True,) * 9 + (False,), False)
            for d in (CASE_A_1, CASE_B_1, CASE_C_1):
                with pytest.raises(DatumError, match=f"at most {MAX_ALPHA}"):
                    replace(d, alpha=alpha)

    def test_a_datum_at_the_cap_certifies(self):
        d = datum(MAX_ALPHA, 2, (True, False), False)
        assert classify(d) is CaseTag.CASE_B
        assert verify_hd_identity(d).status == VERIFIED
        for check in _CHECKS:
            for x in (d, aubert_pair(d)):
                assert check(x).ok, (check.__name__, str(x))


_CHECKS = (check_prop41, check_length_ge5, check_mult_le4)


def _transport_by_replace(d, inner):
    """The case-C report of ``d`` from its partner's report ``inner``,
    copied field by field through ``dataclasses.replace``; the witness is
    the zeta class of the symmetric segment [-aa, aa] of the partner's
    delta witness."""
    ((key, _coeff),) = inner.witness.terms.coeffs.items()
    (sym,) = key
    aa = sym.e
    assert inner.witness.basis == DELTA and sym.b == -aa
    steps = (
        CertStep(
            "dual partner",
            VERIFIED,
            f"the involution partner {inner.datum} is bottom-empty with a "
            "long block, so the bottom-empty machinery applies to it",
        ),
        CertStep(
            "involution transport",
            AXIOM,
            "the duality involution preserves lengths and Jacquet "
            "multiplicities, and carries the partner's witness product to "
            "the witness product of this datum",
            citation="[Au] Cor. 3.9",
        ),
    ) + tuple(replace(s, label="dual·" + s.label) for s in inner.steps)
    return replace(
        inner,
        case=CaseTag.CASE_C,
        datum=d,
        witness=zeta_key(ms(Segment(-aa, aa, d.line))),
        certificates=tuple(replace(c, dualized=True) for c in inner.certificates),
        steps=steps,
        transported_from=inner.datum,
    )


def _assert_same_report(got, want, where):
    for fld in fields(CertReport):
        assert getattr(got, fld.name) == getattr(want, fld.name), (where, fld.name)


class TestReportMemo:
    """The bottom-empty report memo (``_report``) against reports made with
    every cache cleared, and its case-C transport against the
    ``dataclasses.replace`` route."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_caches()
        yield
        clear_caches()

    def test_warm_reports_equal_cold_reports(self):
        data = list(_eligible_data())
        cold = {}
        for d in data:
            clear_caches()
            for check in _CHECKS:
                cold[d, check] = check(d)
        calls = [(d, check) for d in data for check in _CHECKS]
        random.Random(16).shuffle(calls)
        clear_caches()
        for d, check in calls:
            got = check(d)
            where = (str(d), check.__name__)
            _assert_same_report(got, cold[d, check], where)
            if classify(d) is CaseTag.CASE_C:
                want = _transport_by_replace(d, cold[aubert_pair(d), check])
                _assert_same_report(got, want, where)
        assert _report.cache_info().hits > 0

    def test_a_case_c_check_resolves_its_datum_once(self, monkeypatch):
        """A warm case-C check validates the line once, looks its partner's
        report up and resolves no frame."""
        data = [d for d in _eligible_data() if classify(d) is CaseTag.CASE_C][::5]
        for d in data:
            check_prop41(d)  # memoizes the partner's report
        calls = Counter()
        for name in ("_resolve", "_validate_line"):
            def counting(*args, _real=getattr(subquotients, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(subquotients, name, counting)
        for d in data:
            calls.clear()
            rep = check_prop41(d)
            assert calls == {"_validate_line": 1}, str(d)
            sym = _resolve(aubert_pair(d)).sym  # the unpatched function
            assert rep.ok and rep.witness == zeta_key(ms(sym)), str(d)

    def test_context_is_enforced_on_a_memo_hit(self):
        for d in (CASE_B_1, CASE_C_1):
            assert check_prop41(d).ok
        hits = _report.cache_info().hits
        for ctx in (
            Context(lines={"rho": Line("rho", selfdual=False)}),
            Context(lines={"rho": Line("rho", selfdual=True, alpha=hi(1))}),
        ):
            for d in (CASE_B_1, CASE_C_1):
                with pytest.raises(LineError):
                    check_prop41(d, ctx)
        assert _report.cache_info().hits == hits

    def test_warm_check_reads_the_unit_in_the_callers_context(self, monkeypatch):
        seen = []

        def counting(x, ctx=DEFAULT_CONTEXT):
            seen.append(ctx)
            return twisted_comult(x, ctx)

        monkeypatch.setattr(subquotients, "twisted_comult", counting)
        ctx = Context(lines={"rho": Line("rho", selfdual=True, alpha=hi("1/2"))})
        for check in _CHECKS:
            for d in (CASE_B_1, CASE_C_1):
                check(d)
                seen.clear()
                hits = _report.cache_info().hits
                assert check(d, ctx).ok
                assert _report.cache_info().hits == hits + 1
                assert len(seen) == 1 and seen[0] is ctx

    def test_a_changed_unit_misses_the_memo(self, monkeypatch):
        for d in (CASE_B_1, CASE_C_1):
            assert check_mult_le4(d).ok
        # every coefficient of the witness restriction now reads 0
        monkeypatch.setattr(
            subquotients,
            "twisted_comult",
            lambda x, ctx=DEFAULT_CONTEXT: SimpleNamespace(terms=Counter()),
        )
        for d in (CASE_B_1, CASE_C_1):
            rep = check_mult_le4(d)
            assert not rep.ok and rep.mult_bound is None
            (step,) = [s for s in rep.steps if s.label.endswith("unit pairing")]
            assert step.status == FAILED

    def test_the_unit_is_read_off_the_frames_witness(self):
        """The witness segment a check reads off the cuts is its frame's."""
        for f in _eligible_frames():
            assert _witness_segment(f.d) == f.sym, str(f.d)


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

    @pytest.mark.parametrize("ctx", [
        Context(lines={"rho": Line("rho", selfdual=False)}),
        Context(lines={"rho": Line("rho", selfdual=True, alpha=hi(1))}),
    ], ids=["non-selfdual", "alpha-mismatch"])
    def test_witness_and_hd_identity_check_the_line(self, ctx):
        for check in _CHECKS:
            for d in (CASE_A_1, CASE_B_1, CASE_C_1):
                with pytest.raises(LineError):
                    check(d, ctx)
        with pytest.raises(LineError):
            verify_hd_identity(CASE_B_1, ctx)
        good = Context(lines={"rho": Line("rho", selfdual=True, alpha=hi("1/2"))})
        assert check_prop41(CASE_C_1, good).witness == check_prop41(CASE_C_1).witness
        assert verify_hd_identity(CASE_B_1, good) == verify_hd_identity(CASE_B_1)


def _refute(*_args):
    raise subquotients._Refuted("refuted here")


class TestStepProtocol:
    """``_check`` makes each step, and the report stops at the first failed
    multiplicity step only: the step generators are lazy, so no check after
    it runs."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_caches()
        yield
        clear_caches()

    def test_check_statuses(self):
        def passing(x, y):
            return f"{x} and {y}"

        assert subquotients._check("s", passing, 1, 2) == CertStep(
            "s", VERIFIED, "1 and 2"
        )
        assert subquotients._check("s", passing, 1, 2, citation="[X]") == CertStep(
            "s", AXIOM, "1 and 2", "[X]"
        )
        for citation in (None, "[X]"):
            step = subquotients._check("s", _refute, 1, citation=citation)
            assert step == CertStep("s", FAILED, "refuted here")
            assert step.citation is None

    @pytest.mark.parametrize("d", [CASE_A_1, CASE_B_RICH, aubert_pair(CASE_B_RICH)])
    def test_refuted_unit_pairing_runs_no_later_check(self, monkeypatch, d):
        calls = Counter()
        for name in (
            "_check_candidates",
            "_check_multi_need_case_a",
            "_check_tail_left_factors",
            "_check_regularity",
        ):
            def counting(*args, _name=name, _fn=getattr(subquotients, name)):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(subquotients, name, counting)
        assert check_prop41(d).ok and calls["_check_regularity"] == 1
        clear_caches()
        calls.clear()
        monkeypatch.setattr(subquotients, "_check_unit_pairing", _refute)
        rep = check_prop41(d)
        assert not calls, calls
        assert rep.steps[-1].label.endswith("unit pairing")
        assert rep.steps[-1].status == FAILED
        assert not rep.ok and rep.length_bound is None and rep.mult_bound is None

    @pytest.mark.parametrize("d", [CASE_A_1, CASE_B_RICH, aubert_pair(CASE_B_RICH)])
    def test_refuted_length_step_runs_every_later_step(self, monkeypatch, d):
        want = check_prop41(d)
        clear_caches()
        monkeypatch.setattr(subquotients, "_check_exponent_sum_exclusion", _refute)
        rep = check_prop41(d)
        failed = [s for s in rep.steps if s.status == FAILED]
        assert [s.label.rsplit("·")[-1] for s in failed] == [
            "exponent-dominance exclusion"
        ]
        assert [s.label for s in rep.steps] == [s.label for s in want.steps[:-1]]
        assert rep.steps[-1].label.endswith("multiplicity bound")
        assert not rep.ok and rep.length_bound is None and rep.mult_bound is None


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
