"""Tests for the graded ring: coproducts, twisted coproduct, derivative, involution."""
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from cuspline import clear_caches, sampling, subquotients
from cuspline.classical import CuspSymbol, induced, module_comult
from cuspline.core import (
    Context,
    EMPTY_MS,
    FormalSum,
    Line,
    LineError,
    MixedBasisError,
    Multisegment,
    ms,
    seg,
)
from cuspline.glhopf import (
    DELTA,
    ZETA,
    GLElt,
    TensorGL,
    _segmentwise_tensor,
    _twisted_comult_prefix,
    comult,
    comult_key,
    comult_segment,
    contragredient,
    contragredient_key,
    delta_as_zeta,
    delta_key,
    derivative,
    gl_twisted_part,
    highest_derivative,
    mw_dual,
    segment_tilings,
    trim_key,
    twisted_comult,
    twisted_comult_compositional,
    twisted_comult_segment,
    twisted_comult_segment_closed,
    zeta_as_delta,
    zeta_key,
    zeta_segment_delta_expansion,
)
from cuspline.halfint import hi
from cuspline.subquotients import CaseTag, classify, enumerate_subquotients


def pair_sum(pairs):
    """Build the expected FormalSum over (left, right) multisegment pairs."""
    return FormalSum.from_terms([((l, r), c) for l, r, c in pairs])


class TestProduct:
    def test_product_concatenates_keys(self):
        x = delta_key(ms(seg(0, 1)))
        y = delta_key(ms(seg(2, 2)))
        assert (x * y).terms == FormalSum.lift(ms(seg(0, 1), seg(2, 2)))

    def test_mixed_basis_forbidden(self):
        with pytest.raises(MixedBasisError):
            delta_key(ms(seg(0, 0))) * zeta_key(ms(seg(0, 0)))
        with pytest.raises(MixedBasisError):
            delta_key(ms(seg(0, 0))) + zeta_key(ms(seg(0, 0)))


class TestComult:
    def test_delta_segment_top_parts_left(self):
        got = comult(delta_key(ms(seg(0, 1))))
        want = pair_sum([
            (ms(seg(0, 1)), EMPTY_MS, 1),
            (ms(seg(1, 1)), ms(seg(0, 0)), 1),
            (EMPTY_MS, ms(seg(0, 1)), 1),
        ])
        assert got.terms == want

    def test_zeta_segment_bottom_parts_left(self):
        got = comult(zeta_key(ms(seg(0, 1))))
        want = pair_sum([
            (EMPTY_MS, ms(seg(0, 1)), 1),
            (ms(seg(0, 0)), ms(seg(1, 1)), 1),
            (ms(seg(0, 1)), EMPTY_MS, 1),
        ])
        assert got.terms == want

    def test_multiplicative_on_keys(self):
        m = ms(seg(0, 0), seg(2, 2))
        got = comult(delta_key(m))
        # product of the two length-1 coproducts: 4 terms
        assert sum(abs(c) for c in got.terms.coeffs.values()) == 4
        assert got.coefficient(m, EMPTY_MS) == 1
        assert got.coefficient(EMPTY_MS, m) == 1
        assert got.coefficient(ms(seg(0, 0)), ms(seg(2, 2))) == 1
        assert got.coefficient(ms(seg(2, 2)), ms(seg(0, 0))) == 1

    def test_unit_part_is_identity(self):
        # the 1 (x) * part of the coproduct of a key is 1 (x) key
        m = ms(seg(0, 2), seg(1, 1))
        got = comult(delta_key(m))
        ones = got.terms.filter(lambda k: k[0] == EMPTY_MS)
        assert ones == FormalSum.lift((EMPTY_MS, m))

    def test_linear_on_multi_key_and_scaled_elements(self):
        # against the sum of the per-key memoized pieces, built with
        # FormalSum arithmetic only
        a = ms(seg(0, 1))
        b = ms(seg(0, 0), seg(1, 1))
        c = ms(seg("-1/2", "1/2", "tau"), seg(2, 2))
        for basis in (DELTA, ZETA):
            for combo in ({a: 3}, {a: -1}, {a: 1, b: 1}, {a: 2, b: -5, c: 1},
                          {a: 1, b: -1}):
                x = GLElt(basis, FormalSum(combo))
                want = FormalSum.zero()
                for key, k in combo.items():
                    want = want + k * comult_key(key, basis).terms
                got = comult(x)
                assert got.basis == basis
                assert got.terms == want
                assert 0 not in got.terms.coeffs.values()

    def test_cancelling_terms_are_dropped(self):
        # [0,1] and [0,0]+[1,1] share the term [1,1] (x) [0,0] in the delta
        # basis; it cancels in their difference
        a = ms(seg(0, 1))
        b = ms(seg(0, 0), seg(1, 1))
        shared = (ms(seg(1, 1)), ms(seg(0, 0)))
        assert comult(delta_key(a)).terms[shared] == 1
        assert comult(delta_key(b)).terms[shared] == 1
        got = comult(GLElt(DELTA, FormalSum({a: 1, b: -1})))
        assert shared not in got.terms.coeffs
        assert len(got.terms) == 5
        assert 0 not in got.terms.coeffs.values()

    def test_zero_element(self):
        for basis in (DELTA, ZETA):
            got = comult(GLElt.zero(basis))
            assert got.basis == basis
            assert not got.terms

    def test_coassociativity_small_sample(self):
        for key in [ms(seg(0, 2)), ms(seg(0, 1), seg(1, 1)), ms(seg("1/2", "3/2"))]:
            for basis in (DELTA, ZETA):
                assert _coassoc_holds(key, basis)


def _coassoc_holds(key: Multisegment, basis: str) -> bool:
    first = comult_key(key, basis)
    left_then = FormalSum.zero()
    for (l, r), c in first.terms.coeffs.items():
        inner = comult_key(l, basis)
        left_then = left_then + FormalSum.from_terms(
            [((u, v, r), c * c2) for (u, v), c2 in inner.terms.coeffs.items()]
        )
    right_then = FormalSum.zero()
    for (l, r), c in first.terms.coeffs.items():
        inner = comult_key(r, basis)
        right_then = right_then + FormalSum.from_terms(
            [((l, u, v), c * c2) for (u, v), c2 in inner.terms.coeffs.items()]
        )
    return left_then == right_then


@st.composite
def key_with_repeats(draw, max_segments=4):
    """A key on two lines from the package's sampler, seeded by hypothesis,
    with one of its segments repeated about half of the time."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = sampling.random_multisegment(rng, ("rho", "tau"), max_segments)
    if m.segments and draw(st.booleans()):
        m = m + ms(rng.choice(m.segments))
    return m


def _concat_pairs(a, b):
    return (a[0] + b[0], a[1] + b[1])


class TestComultAgainstSlowRoutes:
    """The prefix-cached coproduct, the inline tensor product and the
    trusted key constructors against the generic routes."""

    @given(key_with_repeats(), st.sampled_from([DELTA, ZETA]))
    @settings(max_examples=150, deadline=None)
    def test_comult_key_is_the_fold_of_its_segments(self, m, basis):
        # FormalSum.combine over the one-segment tensors, last segment first
        want = FormalSum.lift((EMPTY_MS, EMPTY_MS))
        for s in reversed(m.segments):
            want = want.combine(comult_segment(s, basis).terms, _concat_pairs)
        got = comult_key(m, basis)
        assert got.basis == basis
        assert got.terms == want
        # the cached prefix keeps the association, so the term order too
        order = _segmentwise_tensor(m, basis, comult_segment).terms.coeffs
        assert list(got.terms.coeffs) == list(order)

    @given(
        key_with_repeats(max_segments=2),
        key_with_repeats(max_segments=2),
        key_with_repeats(max_segments=2),
        st.sampled_from([3, -1, 1, -2]),
        st.sampled_from([DELTA, ZETA]),
    )
    @settings(max_examples=100, deadline=None)
    def test_tensor_product_is_the_pairwise_combine(self, a, b, c, k, basis):
        x = k * comult_key(a, basis) - comult_key(b, basis)
        y = comult_key(c, basis)
        want = x.terms.combine(y.terms, _concat_pairs)
        got = x * y
        assert got.basis == basis
        assert got.terms == want
        assert list(got.terms.coeffs) == list(want.coeffs)
        assert 0 not in got.terms.coeffs.values()

    @given(key_with_repeats(), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_single_keys_match_the_validating_constructors(self, m, c):
        want = FormalSum({m: c})
        assert FormalSum.lift(m, c) == want
        for basis, make in ((DELTA, delta_key), (ZETA, zeta_key)):
            assert make(m, c) == GLElt(basis, want)
            assert GLElt.key(basis, m, c) == GLElt(basis, want)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0])
    def test_single_keys_refuse_non_int_coefficients(self, bad):
        m = ms(seg(0, 1))
        with pytest.raises(TypeError):
            FormalSum.lift(m, bad)
        for make in (delta_key, zeta_key, lambda m, c: GLElt.key(ZETA, m, c)):
            with pytest.raises(TypeError):
                make(m, bad)

    def test_zero_coefficient_gives_zero(self):
        m = ms(seg(0, 1))
        assert FormalSum.lift(m, 0).coeffs == {}
        assert delta_key(m, 0) == GLElt.zero(DELTA)
        assert GLElt.key(ZETA, m, 0) == GLElt.zero(ZETA)

    @pytest.mark.parametrize("basis", ["gamma", None, "Delta"])
    def test_unknown_basis_refused(self, basis):
        with pytest.raises(ValueError):
            GLElt.key(basis, ms(seg(0, 1)))


class TestSingleKeyRestrictions:
    """On one key with coefficient 1, ``comult`` and ``twisted_comult``
    return the key's tensor itself; any other element is extended
    linearly."""

    @given(key_with_repeats(), st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_single_key_restrictions_match_the_linear_route(self, m, c):
        # a coefficient-1 key shares the memoized tensor; any other
        # coefficient takes the linear extension
        for basis, make in ((DELTA, delta_key), (ZETA, zeta_key)):
            assert comult(make(m)) is comult_key(m, basis)
            assert comult(make(m, c)) == c * comult_key(m, basis)
            assert twisted_comult(make(m, c)) == c * twisted_comult(make(m))
        tw = twisted_comult(delta_key(m))
        assert tw == _segmentwise_tensor(m, DELTA, twisted_comult_segment)
        assert twisted_comult(delta_key(m) + delta_key(m)) == 2 * tw


class TestContragredient:
    def test_involution(self):
        x = delta_key(ms(seg("-1/2", "3/2"), seg(0, 0)))
        assert contragredient(contragredient(x)) == x

    def test_requires_selfdual_line(self):
        ctx = Context(lines={"w": Line("w", selfdual=False)})
        with pytest.raises(LineError):
            contragredient(delta_key(ms(seg(0, 0, "w"))), ctx)


class TestTwistedComult:
    def test_cuspidal_point(self):
        a = hi("1/2")
        got = twisted_comult(delta_key(ms(seg(a, a))))
        want = pair_sum([
            (ms(seg(a, a)), EMPTY_MS, 1),
            (ms(seg(-a, -a)), EMPTY_MS, 1),
            (EMPTY_MS, ms(seg(a, a)), 1),
        ])
        assert got.terms == want

    @pytest.mark.parametrize("b,e", [("-1/2", "1/2"), (0, 2), ("-3/2", "1/2"), (1, 3)])
    def test_closed_form_matches_composite(self, b, e):
        s = seg(b, e)
        assert twisted_comult_segment_closed(s).terms == twisted_comult(delta_key(ms(s))).terms

    @pytest.mark.parametrize("alpha", ["1/2", 1, "3/2", 2])
    def test_symmetric_segment_full_left_coefficient_is_two(self, alpha):
        a = hi(alpha)
        du = ms(seg(-a, a))
        got = twisted_comult(delta_key(du))
        assert got.coefficient(du, EMPTY_MS) == 2

    def test_gl_part_equals_right_unit_part(self):
        x = delta_key(ms(seg("-1/2", "3/2")))
        tw = twisted_comult(x)
        assert tw.left_part(EMPTY_MS) == gl_twisted_part(x).terms

    def test_gl_part_of_cuspidal(self):
        a = hi(1)
        got = gl_twisted_part(delta_key(ms(seg(a, a))))
        assert got.terms == FormalSum.from_terms(
            [(ms(seg(a, a)), 1), (ms(seg(-a, -a)), 1)]
        )

    def test_symmetric_segment_closed_structure(self):
        # for [-a, a], single-segment left keys of the form [-a+1, a] come with
        # exactly the two middle factors [-a] and [a]
        a = hi(1)
        got = twisted_comult(delta_key(ms(seg(-a, a))))
        shaved = ms(seg(-a + 1, a))
        picked = {
            r: c for (l, r), c in got.terms.coeffs.items() if l == shaved
        }
        assert picked == {ms(seg(-a, -a)): 1, ms(seg(a, a)): 1}


@st.composite
def sampled_multisegment(draw):
    """A key on two lines from the package's sampler, seeded by hypothesis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return sampling.random_multisegment(rng, lines=("rho", "tau"))


class TestTwistedMultiplicative:
    """The segment-by-segment twisted restriction against the compositional
    definition, its reference."""

    @staticmethod
    def assert_matches_reference(x):
        reference = twisted_comult_compositional(x)
        assert twisted_comult(x) == reference
        assert gl_twisted_part(x).terms == reference.left_part(EMPTY_MS)

    @given(sampled_multisegment(), st.sampled_from([DELTA, ZETA]))
    @settings(max_examples=100, deadline=None)
    def test_keys(self, m, basis):
        self.assert_matches_reference(GLElt.key(basis, m))

    @given(sampled_multisegment())
    @settings(max_examples=100, deadline=None)
    def test_delta_keys_against_the_closed_form(self, m):
        # an independent route: the product of the one-segment closed forms
        want = TensorGL.unit(DELTA)
        for s in m:
            want = want * twisted_comult_segment_closed(s)
        assert twisted_comult(delta_key(m)) == want

    @given(
        st.lists(
            st.tuples(sampled_multisegment(), st.sampled_from([3, -1, 1, -2])),
            min_size=1,
            max_size=3,
        ),
        sampled_multisegment(),
        st.sampled_from([DELTA, ZETA]),
    )
    @settings(max_examples=40, deadline=None)
    def test_combinations(self, terms, cancelled, basis):
        # the cancelling pair leaves no trace in the element
        x = GLElt(basis, FormalSum.from_terms(terms + [(cancelled, 5), (cancelled, -5)]))
        self.assert_matches_reference(x)

    @pytest.mark.parametrize("basis", [DELTA, ZETA])
    def test_keys_of_one_support_with_cancelling_images(self, basis):
        a = GLElt.key(basis, ms(seg(0, 1), seg(1, 1, "tau")))
        b = GLElt.key(basis, ms(seg(0, 0), seg(1, 1), seg(1, 1, "tau")))
        x = a - b
        # terms the two images share cancel in the difference
        assert len(twisted_comult(x).terms) < (
            len(twisted_comult(a).terms) + len(twisted_comult(b).terms)
        )
        self.assert_matches_reference(x)

    @pytest.mark.parametrize("basis", [DELTA, ZETA])
    def test_one_segment_key_shares_the_memoized_tensor(self, basis):
        x = GLElt.key(basis, ms(seg(0, 2)))
        assert twisted_comult(x) is twisted_comult_segment(seg(0, 2), basis)

    @pytest.mark.parametrize(
        # in the second key the w segment sorts after the rho segment
        "key", [ms(seg(0, 1, "w")), ms(seg(1, 1), seg("-3/2", "-1/2", "w"))]
    )
    def test_selfduality_is_checked_past_the_caches(self, key):
        # fill the one-segment caches for line w under the default context
        for s in key:
            twisted_comult(delta_key(ms(s)))
            gl_twisted_part(delta_key(ms(s)))
            module_comult(induced(ms(s), CuspSymbol()))
            assert twisted_comult_segment.cache_info().currsize > 0
        ctx = Context(lines={"w": Line("w", selfdual=False)})
        with pytest.raises(LineError):
            twisted_comult(delta_key(key), ctx)
        with pytest.raises(LineError):
            gl_twisted_part(delta_key(key), ctx)
        with pytest.raises(LineError):
            module_comult(induced(key, CuspSymbol()), ctx)


@st.composite
def key_of_one_to_five_segments(draw):
    """A key of 1-5 segments on the selfdual lines rho and tau, its last
    segment a repeat about half of the time."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(min_value=1, max_value=5))
    segments = [sampling.random_segment(rng, rng.choice(("rho", "tau"))) for _ in range(count)]
    if count > 1 and draw(st.booleans()):
        segments[-1] = rng.choice(segments[:-1])
    return Multisegment(segments)


class TestTwistedPrefixCache:
    """A key's twisted coproduct is its cached prefix's value times its last
    segment's; the key's own value is not cached."""

    @given(key_of_one_to_five_segments(), st.sampled_from([DELTA, ZETA]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_cold_and_warm_values_match_the_uncached_routes(self, m, basis, cold):
        if cold:
            _twisted_comult_prefix.cache_clear()
        x = GLElt.key(basis, m)
        reference = twisted_comult_compositional(x)
        product = _segmentwise_tensor(m, basis, twisted_comult_segment)
        for _ in range(2):  # the second call finds every prefix cached
            got = twisted_comult(x)
            assert got == reference
            assert list(got.terms.coeffs.items()) == list(product.terms.coeffs.items())

    @given(key_of_one_to_five_segments(), st.sampled_from([DELTA, ZETA]))
    @settings(max_examples=60, deadline=None)
    def test_a_new_key_caches_its_prefixes_only(self, m, basis):
        _twisted_comult_prefix.cache_clear()
        twisted_comult(GLElt.key(basis, m))
        prefixes = len(m) - 1  # one per length from len(m) - 1 down to 1
        info = _twisted_comult_prefix.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, prefixes, prefixes)
        twisted_comult(GLElt.key(basis, m))
        info = _twisted_comult_prefix.cache_info()
        assert (info.hits, info.misses) == (min(prefixes, 1), prefixes)

    def test_selfduality_is_checked_before_the_prefix_cache(self):
        # the w segment sorts first, so it lies in every prefix of either key
        key = ms(seg(2, 3, "w"), seg(0, 1), seg(-1, -1))
        longer = key + ms(seg(-2, -2))
        assert longer.segments[:-1] == key.segments
        _twisted_comult_prefix.cache_clear()
        twisted_comult(delta_key(longer))  # the default context: w is selfdual
        assert _twisted_comult_prefix.cache_info().currsize == 3  # key among them
        ctx = Context(lines={"w": Line("w", selfdual=False)})
        for m in (key, longer):
            with pytest.raises(LineError):
                twisted_comult(delta_key(m), ctx)
            with pytest.raises(LineError):
                module_comult(induced(m, CuspSymbol()), ctx)

    def test_clear_caches_empties_the_prefix_cache(self):
        twisted_comult(delta_key(ms(seg(0, 1), seg(1, 1), seg(2, 3))))
        assert _twisted_comult_prefix.cache_info().currsize > 0
        clear_caches()
        assert _twisted_comult_prefix.cache_info().currsize == 0


class TestBaseChange:
    def test_tiling_count(self):
        assert len(list(segment_tilings(seg(0, 3)))) == 8
        assert len(list(segment_tilings(seg(2, 2)))) == 1

    def test_singleton_unchanged(self):
        out = zeta_as_delta(zeta_key(ms(seg(1, 1))))
        assert out == delta_key(ms(seg(1, 1)))

    def test_length_two_segment(self):
        out = zeta_segment_delta_expansion(seg(0, 1))
        assert out == FormalSum.from_terms(
            [(ms(seg(0, 0), seg(1, 1)), 1), (ms(seg(0, 1)), -1)]
        )

    def test_length_three_segment(self):
        out = zeta_segment_delta_expansion(seg(0, 2))
        expected = FormalSum.from_terms(
            [
                (ms(seg(0, 0), seg(1, 1), seg(2, 2)), 1),
                (ms(seg(0, 0), seg(1, 2)), -1),
                (ms(seg(0, 1), seg(2, 2)), -1),
                (ms(seg(0, 2)), 1),
            ]
        )
        assert out == expected

    def test_wrong_basis_rejected(self):
        with pytest.raises(MixedBasisError):
            zeta_as_delta(delta_key(ms(seg(0, 0))))
        with pytest.raises(MixedBasisError):
            delta_as_zeta(zeta_key(ms(seg(0, 0))))

    def test_round_trip_identity(self):
        # The two triangular base-change matrices must invert each other.
        keys = [
            ms(seg(0, 2)),
            ms(seg(0, 1), seg(1, 2)),
            ms(seg("-1/2", "1/2"), seg("1/2", "1/2")),
            ms(seg(-1, 2)),
        ]
        for m in keys:
            assert delta_as_zeta(zeta_as_delta(zeta_key(m))) == zeta_key(m)
            assert zeta_as_delta(delta_as_zeta(delta_key(m))) == delta_key(m)

    def test_comult_commutes_with_base_change(self):
        # Convert-then-comultiply equals comultiply-then-convert on a segment.
        z = zeta_key(ms(seg(0, 2)))
        lhs = FormalSum.zero()
        for (l, r), c in comult(zeta_as_delta(z)).terms.coeffs.items():
            lhs = lhs + FormalSum.lift((l, r), c)
        rhs = FormalSum.zero()
        for (l, r), c in comult(z).terms.coeffs.items():
            conv = zeta_as_delta(zeta_key(l)).terms.combine(
                zeta_as_delta(zeta_key(r)).terms, lambda a, b: (a, b)
            )
            rhs = rhs + c * conv
        assert lhs == rhs


class TestDerivative:
    def test_zeta_generator(self):
        got = derivative(zeta_key(ms(seg(0, 1))))
        assert got.terms == FormalSum.from_terms([(ms(seg(0, 1)), 1), (ms(seg(0, 0)), 1)])

    def test_delta_basis_rejected(self):
        with pytest.raises(MixedBasisError):
            derivative(delta_key(ms(seg(0, 1))))

    def test_highest_derivative_of_key_is_trimmed_key(self):
        key = ms(seg(0, 2), seg(0, 0))
        got = highest_derivative(zeta_key(key))
        assert got.terms == FormalSum.lift(ms(seg(0, 1)))
        assert got.terms == FormalSum.lift(trim_key(key))

    def test_highest_derivative_multiplicative(self):
        x = zeta_key(ms(seg(0, 1)))
        y = zeta_key(ms(seg(2, 3), seg(1, 1)))
        lhs = highest_derivative(x * y)
        rhs = highest_derivative(x) * highest_derivative(y)
        assert lhs == rhs

    def test_trim_rule_exhaustive_small(self):
        for key in _all_multisegments(max_size=4, lo=0, hiw=3):
            assert highest_derivative(zeta_key(key)).terms == FormalSum.lift(trim_key(key))


def _all_segments(lo: int, hiw: int):
    return [seg(b, e) for b in range(lo, hiw + 1) for e in range(b, hiw + 1)]


def _all_multisegments(max_size: int, lo: int, hiw: int):
    """All multisegments over the integer window [lo, hiw] with support <= max_size."""
    segments = _all_segments(lo, hiw)
    out = [EMPTY_MS]
    frontier = [(EMPTY_MS, 0)]
    while frontier:
        base, start = frontier.pop()
        for i in range(start, len(segments)):
            s = segments[i]
            grown = base + ms(s)
            if grown.size <= max_size:
                out.append(grown)
                frontier.append((grown, i))
    return out


class TestMWDual:
    def test_segment_to_singletons(self):
        got = mw_dual(ms(seg(0, 2)))
        assert got == ms(seg(0, 0), seg(1, 1), seg(2, 2))

    def test_singletons_to_segment(self):
        got = mw_dual(ms(seg(0, 0), seg(1, 1), seg(2, 2)))
        assert got == ms(seg(0, 2))

    def test_frozen_instance(self):
        m = ms(seg(0, 1), seg(0, 0))
        dual = mw_dual(m)
        assert dual == ms(seg(1, 1), seg(0, 0), seg(0, 0))
        assert mw_dual(dual) == m
        assert dual.support() == m.support()
        # first-pass consistency: the top dual segment is [e - r + 1, e] where
        # r is the maximal chain length found by brute force
        r = _max_chain_length(m)
        tops = [s for s in dual if s.e == max(t.e for t in m)]
        assert any(s.length == r for s in tops)

    def test_multiline_acts_per_line(self):
        m = ms(seg(0, 1), seg(0, 1, "tau"))
        assert mw_dual(m) == ms(seg(0, 0), seg(1, 1), seg(0, 0, "tau"), seg(1, 1, "tau"))

    def test_tiling_dual_is_cut_complement(self):
        # multiplicity-free interval support: the involution complements the
        # set of cut points of the tiling
        n = 5
        for cuts in itertools.product([False, True], repeat=n):
            tiling = _tiling_from_cuts(0, n, cuts)
            want = _tiling_from_cuts(0, n, tuple(not c for c in cuts))
            assert mw_dual(tiling) == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_involution_and_support_random(self, data):
        m = data.draw(random_multisegment())
        dual = mw_dual(m)
        assert mw_dual(dual) == m
        assert dual.support() == m.support()


def _max_chain_length(m: Multisegment) -> int:
    best = 0
    segs = list(m)
    tops = max(s.e for s in segs)

    def grow(used, cur_end, prev_begin, depth):
        nonlocal best
        best = max(best, depth)
        for i, s in enumerate(segs):
            if i in used or s.e != cur_end:
                continue
            if prev_begin is not None and not (s.b < prev_begin):
                continue
            grow(used | {i}, cur_end - 1, s.b, depth + 1)

    grow(frozenset(), tops, None, 0)
    return best


def _tiling_from_cuts(lo: int, n: int, cuts):
    """Tiling of [lo, lo+n] with a cut between lo+i and lo+i+1 iff cuts[i]."""
    blocks = []
    start = lo
    for i in range(n):
        if cuts[i]:
            blocks.append(seg(start, lo + i))
            start = lo + i + 1
    blocks.append(seg(start, lo + n))
    return Multisegment(blocks)


@st.composite
def random_multisegment(draw):
    half = draw(st.booleans())
    shift = hi("1/2") if half else hi(0)
    n_segs = draw(st.integers(min_value=0, max_value=4))
    segments = []
    total = 0
    for _ in range(n_segs):
        b = draw(st.integers(min_value=-3, max_value=3))
        ln = draw(st.integers(min_value=1, max_value=3))
        if total + ln > 8:
            break
        total += ln
        segments.append(seg(hi(b) + shift, hi(b + ln - 1) + shift))
    return Multisegment(segments)


def _highest_derivative_full(x: GLElt) -> GLElt:
    """The full route: expand the whole derivative, keep its lowest part."""
    terms = derivative(x).terms
    if not terms.coeffs:
        return GLElt.zero(ZETA)
    low = min(key.size for key in terms.coeffs)
    return GLElt(ZETA, terms.filter(lambda key: key.size == low))


@st.composite
def positive_zeta_element(draw):
    """Several keys of at least two sizes, every coefficient at least 1."""
    keys = draw(st.lists(random_multisegment(), min_size=2, max_size=4, unique=True))
    assume(len({key.size for key in keys}) > 1)
    coeffs = draw(st.lists(st.integers(1, 5), min_size=len(keys), max_size=len(keys)))
    return GLElt(ZETA, FormalSum(dict(zip(keys, coeffs))))


class TestHighestDerivativeFastPath:
    """``highest_derivative`` multiplies one-segment lowest parts when every
    coefficient is positive; the full expansion must agree."""

    @settings(max_examples=150, deadline=None)
    @given(positive_zeta_element())
    def test_positive_elements_agree_with_the_full_route(self, x):
        assert highest_derivative(x) == _highest_derivative_full(x)

    @pytest.mark.parametrize("alpha", ["1/2", "1", "3/2"])
    def test_case_b_products_agree_with_the_full_route(self, alpha):
        checked = 0
        for n in range(7):
            for d in enumerate_subquotients(alpha, n):
                if classify(d) is not CaseTag.CASE_B:
                    continue
                f = subquotients._resolve(d)
                x = zeta_key(ms(f.sym) + f.full)
                assert highest_derivative(x) == _highest_derivative_full(x), d
                checked += 1
        assert checked > 20

    def test_signed_input_takes_the_full_route(self):
        # the lowest parts cancel ({[0,0]} - {[0,0]}); the next part does not
        x = zeta_key(ms(seg(0, 1), seg(5, 5))) - zeta_key(ms(seg(0, 1), seg(6, 6)))
        want = zeta_key(ms(seg(0, 0), seg(5, 5))) - zeta_key(ms(seg(0, 0), seg(6, 6)))
        assert _highest_derivative_full(x) == want
        assert highest_derivative(x) == want

    def test_zero_and_delta_input(self):
        assert highest_derivative(GLElt.zero(ZETA)) == GLElt.zero(ZETA)
        with pytest.raises(MixedBasisError):
            highest_derivative(delta_key(ms(seg(0, 1))))


class TestZelevinskyInvariants:
    """Invariants of [Z] (Zelevinsky, Ann. Sci. ENS 13 (1980)) on sampled
    two-line keys: the involution and the coproduct commute with the
    contragredient, which on a tensor acts on each factor and swaps them,
    and neither changes the cuspidal support."""

    @given(sampled_multisegment())
    @settings(max_examples=100, deadline=None)
    def test_mw_dual_commutes_with_the_contragredient(self, m):
        assert mw_dual(contragredient_key(m)) is contragredient_key(mw_dual(m))

    @given(sampled_multisegment(), st.sampled_from((DELTA, ZETA)))
    @settings(max_examples=60, deadline=None)
    def test_comult_intertwines_the_contragredient(self, m, basis):
        dual = contragredient_key
        got = comult(GLElt.key(basis, dual(m)))
        want = comult(GLElt.key(basis, m)).map_keys(lambda lr: (dual(lr[1]), dual(lr[0])))
        assert got == want

    @given(sampled_multisegment(), st.sampled_from((DELTA, ZETA)))
    @settings(max_examples=60, deadline=None)
    def test_both_preserve_support(self, m, basis):
        support = Counter(m.support())
        assert mw_dual(m).support() == m.support()
        terms = comult(GLElt.key(basis, m)).terms.coeffs
        assert terms and all(c > 0 for c in terms.values())
        for left, right in terms:
            assert Counter(left.support()) + Counter(right.support()) == support
