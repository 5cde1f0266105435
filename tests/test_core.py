"""Unit tests for half-integers, segments, multisegments and formal sums."""
import copy
import gc
import json
import pickle
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from cuspline import core
from cuspline.core import (
    EMPTY_MS,
    EmptySegmentError,
    FormalSum,
    Multisegment,
    NonIntegralLengthError,
    Segment,
    ms,
    seg,
    seg_opt,
    linked_union,
)
from cuspline.halfint import HalfInt, hi
from cuspline.sampling import random_multisegment


class TestHalfInt:
    def test_arithmetic_stays_exact(self):
        assert hi("1/2") + hi(1) == hi("3/2")
        assert hi("3/2") - hi("1/2") == hi(1)
        assert -hi("1/2") == hi("-1/2")
        assert 2 * hi("1/2") == hi(1)

    def test_parse_and_str_roundtrip(self):
        for text in ["0", "2", "-3", "1/2", "-5/2"]:
            assert str(HalfInt.parse(text)) == text
        with pytest.raises(ValueError):
            HalfInt.parse("1/3")

    def test_ordering(self):
        assert hi("-1/2") < hi(0) < hi("1/2") < hi(1)

    def test_integrality(self):
        assert hi(2).is_integer
        assert not hi("3/2").is_integer

    def test_json_form_has_no_floats(self):
        payload = json.dumps(hi("3/2").to_jsonable())
        assert payload == '{"num2": 3}'


class TestHalfIntValueSemantics:
    """``HalfInt`` is a hand-written slotted class; it keeps the behaviour
    of the frozen, ordered dataclass it replaced."""

    num2s = st.integers(min_value=-40, max_value=40)

    @given(num2s, num2s)
    @settings(max_examples=200, deadline=None)
    def test_fresh_instances_compare_hash_and_sort_as_their_num2(self, a, b):
        x, y = HalfInt(a), HalfInt(b)
        assert (x == HalfInt(a)) and hash(x) == hash(HalfInt(a)) == hash((a,))
        assert (x == y, x != y) == (a == b, a != b)
        assert (x < y, x <= y, x > y, x >= y) == (a < b, a <= b, a > b, a >= b)
        assert [h.num2 for h in sorted([y, x, HalfInt(a)])] == sorted([b, a, a])

    @given(num2s, st.integers(min_value=-20, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_int_operands_scale_by_two(self, a, k):
        x = HalfInt(a)
        assert x + k == k + x == HalfInt(a + 2 * k)
        assert x - k == HalfInt(a - 2 * k) and k - x == HalfInt(2 * k - a)
        assert x + HalfInt(k) == HalfInt(a + k) and x - HalfInt(k) == HalfInt(a - k)

    def test_never_equals_or_orders_against_other_types(self):
        assert hi(0) != 0 and hi(1) != 2 and hi(1) != (2,)
        for op in (
            lambda: hi(1) < 1, lambda: hi(1) <= 1, lambda: hi(1) > 1,
            lambda: hi(1) >= 1, lambda: 1 < hi(1), lambda: hi(1) + "1",
            lambda: hi(1) + True,
        ):
            with pytest.raises(TypeError):
                op()

    def test_immutable(self):
        x = hi("3/2")
        with pytest.raises(AttributeError):
            x.num2 = 5
        with pytest.raises(AttributeError):
            x.other = 5
        with pytest.raises(AttributeError):
            del x.num2
        assert x.num2 == 3 and not hasattr(x, "__dict__")

    def test_pickle_and_copy_round_trip(self):
        x = hi("-5/2")
        for y in [pickle.loads(pickle.dumps(x, p)) for p in range(5)] + [
            copy.copy(x), copy.deepcopy(x)
        ]:
            assert type(y) is HalfInt and y == x and hash(y) == hash(x)
        assert (repr(x), str(x), x.to_jsonable()) == (
            "HalfInt(-5)", "-5/2", {"num2": -5}
        )


class TestSegment:
    def test_center_and_length(self):
        s = seg("-1/2", "3/2")
        assert s.length == 3
        assert s.center == hi("1/2")
        assert s.exponents() == (hi("-1/2"), hi("1/2"), hi("3/2"))

    def test_empty_literal_rejected(self):
        with pytest.raises(EmptySegmentError):
            seg(1, 0)
        assert seg_opt(1, 0) is None

    def test_non_integer_length_rejected(self):
        with pytest.raises(NonIntegralLengthError):
            seg(0, "1/2")

    def test_trim_and_dual(self):
        assert seg(0, 2).trimmed_top() == seg(0, 1)
        assert seg(1, 1).trimmed_top() is None
        assert seg("-1/2", "3/2").dual() == seg("-3/2", "1/2")

    def test_linked_union(self):
        assert linked_union(seg(0, 1), seg(2, 3)) == seg(0, 3)
        assert linked_union(seg(0, 1), seg(3, 4)) is None
        assert linked_union(seg(0, 2), seg(1, 3)) == seg(0, 3)
        assert linked_union(seg(0, 1), seg(0, 1, "other")) is None

    def test_fresh_equal_instances_compare_and_hash_equal(self):
        a = seg("-1/2", "3/2", "tau")
        b = Segment(HalfInt(-1), HalfInt(3), "tau")
        assert a is not b and a.b is not b.b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_differs_on_line_and_endpoints(self):
        assert seg(0, 1) != seg(0, 1, "tau")
        assert seg(0, 1) != seg(0, 2)
        assert seg(0, 1) != seg(1, 1)
        assert len({seg(0, 1), seg(0, 1, "tau"), seg(0, 2)}) == 3

    def test_never_equals_a_non_segment(self):
        s = seg(0, 1)
        for other in (None, 0, hi(0), "[0,1]@rho", (hi(0), hi(1), "rho"),
                      (0, 2, "rho"), ms(s)):
            assert s != other and other != s
            assert not (s == other)


class TestMultisegment:
    def test_canonical_order_by_center_then_length_then_line(self):
        a = seg(2, 3)        # center 5/2
        b = seg(0, 4)        # center 2, length 5
        c = seg(1, 3)        # center 2, length 3
        d = seg(1, 3, "tau")  # center 2, length 3, later line id
        m = Multisegment([d, c, b, a])
        assert m.segments == (a, b, c, d)

    def test_multiset_semantics(self):
        m = ms(seg(0, 1), seg(0, 1), seg(2, 2))
        assert len(m) == 3
        assert m.size == 5
        assert m.support()[("rho", hi(0))] == 2

    def test_add_and_remove(self):
        m = ms(seg(0, 1)) + ms(seg(2, 2))
        assert m == ms(seg(2, 2), seg(0, 1))
        assert m.remove(seg(2, 2)) == ms(seg(0, 1))
        with pytest.raises(KeyError):
            m.remove(seg(5, 5))

    def test_add_matches_constructor_on_random_multiline(self):
        rng = random.Random(20170901)
        lines = ("rho", "tau", "chi")
        for _ in range(300):
            a = random_multisegment(rng, lines, max_segments=5)
            b = random_multisegment(rng, lines, max_segments=5)
            want = Multisegment(list(a) + list(b))
            got = a + b
            assert got == want and got.segments == want.segments
            assert hash(got) == hash(want)
            assert b + a == want

    def test_empty_markers_vanish(self):
        assert ms(None, seg(0, 0), None) == ms(seg(0, 0))


LINES = ("rho", "tau", "chi")


@st.composite
def sampled(draw, lines=LINES, **shape):
    """A multi-line key from the package's sampler, seeded by hypothesis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_multisegment(rng, lines, **shape)


def fresh(s: Segment) -> Segment:
    """An equal segment sharing no object with ``s``."""
    return Segment(HalfInt(s.b.num2), HalfInt(s.e.num2), str(s.line))


def triples(m: Multisegment) -> Counter:
    return Counter((s.b.num2, s.e.num2, s.line) for s in m)


def interned_on(prefix: str) -> int:
    """Entries of the intern table with a segment on a line named prefix*."""
    return sum(
        any(key[2].startswith(prefix) for key in sig) for sig in core._INTERNED
    )


class TestInterning:
    """Multisegments are hash-consed: every route to a value returns the one
    object, identity agrees with multiset equality, and dead values leave
    the table."""

    @given(sampled(), sampled(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_every_route_returns_the_one_object(self, a, b, rnd):
        shuffled = [fresh(s) for s in a]
        rnd.shuffle(shuffled)
        assert Multisegment(shuffled) is a
        both = a + b
        assert both is Multisegment([fresh(s) for s in list(b) + list(a)])
        assert b + a is both and both + EMPTY_MS is both and EMPTY_MS + both is both
        for s in b:
            assert both.remove(fresh(s)) is a + b.remove(s)
        assert a.map_segments(fresh) is a
        assert a.map_segments(Segment.dual).map_segments(Segment.dual) is a
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps((a, both), protocol)) == (a, both)
            assert pickle.loads(pickle.dumps(a, protocol)) is a
        assert copy.copy(a) is a and copy.deepcopy(both) is both

    @given(
        sampled(max_segments=3, window=1, max_length=2),
        st.dictionaries(st.sampled_from(LINES), st.sampled_from(LINES)),
        sampled(max_segments=3, window=1, max_length=2),
    )
    @settings(max_examples=300, deadline=None)
    def test_identity_is_multiset_equality(self, a, relabel, c):
        # the second input differs from the first at most in its lines; each
        # value is judged by the triples of the segments it was built from
        inputs = [
            [fresh(s) for s in a],
            [Segment(s.b, s.e, relabel.get(s.line, s.line)) for s in reversed(a.segments)],
            [fresh(s) for s in c],
        ]
        built = [Multisegment(segs) for segs in inputs]
        for x, segs in zip(built, inputs):
            assert triples(x) == triples(segs)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            x, y = built[i], built[j]
            same = triples(inputs[i]) == triples(inputs[j])
            assert (x == y) is same and (x is y) is same and (x != y) is not same
            assert (hash(x) == hash(y)) or not same
            assert len({x, y}) == 2 - same

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_dead_values_leave_the_table(self, seed):
        rng = random.Random(seed)
        assert interned_on("gc-") == 0
        made = [
            random_multisegment(rng, ("gc-a", "gc-b"), max_segments=4)
            for _ in range(40)
        ]
        made.append(ms(seg(0, 0, "gc-a")))
        assert interned_on("gc-") == len({id(m) for m in made if m.segments})
        sums = [x + y for x in made[:10] for y in made[-10:]]
        assert interned_on("gc-") == len({id(m) for m in made + sums if m.segments})
        del made, sums
        gc.collect()
        assert interned_on("gc-") == 0

    def test_identity_outlives_cache_clearing_and_churn(self):
        kept = ms(seg(0, 2, "churn-a"), seg(1, 1, "churn-b"))
        for name, module in list(sys.modules.items()):
            if name.startswith("cuspline"):
                for value in vars(module).values():
                    if hasattr(value, "cache_clear"):
                        value.cache_clear()
        alive = [ms(seg(0, i % 7, "churn-c"), seg(i, i, "churn-c")) for i in range(5000)]
        assert interned_on("churn-c") == len(alive)
        assert ms(seg(1, 1, "churn-b"), seg(0, 2, "churn-a")) is kept
        assert ms(seg(0, 1, "churn-c"), seg(1, 1, "churn-c")) is alive[1]
        del alive
        gc.collect()
        assert interned_on("churn-c") == 0


class TestFormalSum:
    def test_zero_coefficients_dropped(self):
        s = FormalSum({"a": 1}) - FormalSum({"a": 1})
        assert not s
        assert len(s) == 0

    def test_linear_ops(self):
        s = FormalSum({"a": 1, "b": 2})
        t = FormalSum({"b": -2, "c": 1})
        assert (s + t).coeffs == {"a": 1, "c": 1}
        assert (3 * s).coeffs == {"a": 3, "b": 6}
        assert (s - s) == FormalSum.zero()

    def test_coefficientwise_le(self):
        s = FormalSum({"a": 1})
        t = FormalSum({"a": 2, "b": 1})
        assert s.le(t)
        assert not t.le(s)

    def test_bind_and_combine_are_bilinear(self):
        s = FormalSum({1: 2})
        t = FormalSum({10: 3})
        assert s.combine(t, lambda a, b: a + b).coeffs == {11: 6}
        assert s.bind(lambda k: FormalSum({k: 1, k + 1: 1})).coeffs == {1: 2, 2: 2}

    def test_non_int_coefficients_rejected(self):
        with pytest.raises(TypeError):
            FormalSum({"a": 1.5})
