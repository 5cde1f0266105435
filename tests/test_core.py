"""Unit tests for half-integers, segments, multisegments and formal sums."""
import copy
import functools
import gc
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import types
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cuspline import clear_caches, cli, core, glhopf
from cuspline.core import (
    EMPTY_MS,
    DEFAULT_LINE,
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
from cuspline.classical import ClassElt, CuspSymbol, induced, module_comult
from cuspline.dsl import evaluate
from cuspline.halfint import HalfInt, hi
from cuspline.sampling import random_multisegment, random_segment


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
        assert a is b
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
    """``s`` rebuilt from new endpoint objects (hash-consed, so ``s`` itself)."""
    return Segment(HalfInt(s.b.num2), HalfInt(s.e.num2), str(s.line))


def triples(m: Multisegment) -> Counter:
    return Counter((s.b.num2, s.e.num2, s.line) for s in m)


def interned_on(prefix: str) -> int:
    """Entries of the intern table whose live value has a segment on a line
    named prefix*, plus every entry whose value is dead (a leak, whatever
    its lines).  Reads the values, not the layout of the keys."""
    count = 0
    for ref in list(core._INTERNED.values()):
        m = ref()
        count += m is None or any(s.line.startswith(prefix) for s in m)
    return count


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
        clear_caches()
        alive = [ms(seg(0, i % 7, "churn-c"), seg(i, i, "churn-c")) for i in range(5000)]
        assert interned_on("churn-c") == len(alive)
        assert ms(seg(1, 1, "churn-b"), seg(0, 2, "churn-a")) is kept
        assert ms(seg(0, 1, "churn-c"), seg(1, 1, "churn-c")) is alive[1]
        del alive
        gc.collect()
        assert interned_on("churn-c") == 0


@st.composite
def sampled_segment(draw, lines=LINES):
    """A segment from the package's sampler, seeded by hypothesis."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return random_segment(rng, rng.choice(lines))


def made(b2: int, e2: int, line: str) -> Segment:
    """The segment [b2/2, e2/2] on ``line``, from new endpoint objects."""
    return Segment(HalfInt(b2), HalfInt(e2), line)


class NumTwo:
    """Carries a ``num2`` as a HalfInt does, but is not one."""

    def __init__(self, num2: int):
        self.num2 = num2


# (endpoints, error): what the constructor refuses, whatever the table holds
REFUSED = [
    ((0, 1), TypeError),
    ((hi(0), 1), TypeError),
    ((0, hi(1)), TypeError),
    ((NumTwo(0), NumTwo(2)), TypeError),
    ((hi(0), NumTwo(2)), TypeError),
    ((hi(1), hi(0)), EmptySegmentError),
    ((hi(0), hi("1/2")), NonIntegralLengthError),
]


class TestSegmentInterning:
    """Segments are hash-consed in a table that nothing empties: every route
    to a value returns the one object, its fields are the value asked for,
    and a refused input is refused whatever the table holds."""

    @given(sampled_segment(), sampled_segment())
    @settings(max_examples=200, deadline=None)
    def test_every_route_returns_the_one_object(self, s, t):
        b2, e2, line = s.b.num2, s.e.num2, s.line
        for other in LINES:  # the line is part of the value
            u = made(b2, e2, other)
            assert (u.b.num2, u.e.num2, u.line) == (b2, e2, other)
            assert (u is s) is (other == line) and (u == s) is (other == line)
        assert fresh(s) is s
        assert seg(str(s.b), str(s.e), line) is s
        assert line != DEFAULT_LINE or seg(str(s.b), str(s.e)) is s
        assert replace(s) is s and replace(s, e=HalfInt(e2)) is s
        assert replace(s, b=s.b - 1) is made(b2 - 2, e2, line)
        assert s.dual() is made(-e2, -b2, line) and s.dual().dual() is s
        assert s.trimmed_top() is (None if b2 == e2 else made(b2, e2 - 2, line))
        assert linked_union(s, fresh(s)) is s
        assert linked_union(made(e2 + 2, e2 + 4, line), s) is made(b2, e2 + 4, line)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(s, protocol)) is s
            assert pickle.loads(pickle.dumps([t, s], protocol))[1] is s
        assert copy.copy(s) is s and copy.deepcopy(s) is s
        assert copy.deepcopy((s, t)) == (s, t)
        assert ms(fresh(s), fresh(t)).segments == ms(s, t).segments
        for basis in "dz":
            [key] = evaluate(f"{basis}[{s.b},{s.e}]@{line}").terms.coeffs
            assert key.segments[0] is s
        same = (t.b.num2, t.e.num2, t.line) == (b2, e2, line)
        assert (t is s) is same and (t == s) is same and (t != s) is not same
        assert (hash(t) == hash(s)) or not same
        assert len({s, t, fresh(s), fresh(t)}) == 2 - same

    def test_identity_outlives_cache_clearing_and_churn(self):
        kept = seg(0, 2, "seg-churn-a")
        unheld = weakref.ref(seg("1/2", "5/2", "seg-churn-a"))
        clear_caches()
        churn = [seg(b, b + j, "seg-churn-b") for b in range(-40, 40) for j in range(4)]
        assert len(set(churn)) == len(churn)
        del churn
        gc.collect()
        clear_caches()
        assert made(0, 4, "seg-churn-a") is kept
        assert ms(seg(0, 2, "seg-churn-a")).segments[0] is kept
        assert unheld() is not None and unheld() is seg("1/2", "5/2", "seg-churn-a")
        assert seg(-40, -37, "seg-churn-b") is made(-80, -74, "seg-churn-b")

    @pytest.mark.parametrize("interned", [False, True], ids=["miss", "hit"])
    def test_refusals_do_not_depend_on_the_table(self, interned):
        line = f"refuse-{interned}"
        # the valid values whose fields the refused inputs mimic
        near = [seg(0, 1, line), seg(0, 0, line), seg(1, 1, line)] if interned else []
        for (b, e), error in REFUSED:
            with pytest.raises(error):
                Segment(b, e, line)
            with pytest.raises(error):
                Segment(b=b, e=e, line=line)
        assert {x for x in core._SEGMENTS.values() if x.line == line} == set(near)


class TestIntSignatures:
    """The intern key is an int built from the segments' ids and the display
    order comes from their sort keys: each route against a rebuild through
    the constructor, or against plain ints."""

    @given(sampled(), sampled())
    @settings(max_examples=200, deadline=None)
    def test_sum_is_the_rebuilt_value(self, a, b):
        got = a + b
        assert got is Multisegment(list(a) + list(b))
        assert got is Multisegment([fresh(s) for s in reversed(list(a) + list(b))])
        assert got.segments == tuple(sorted(list(a) + list(b), key=Segment.sort_key))

    @given(sampled())
    @settings(max_examples=200, deadline=None)
    def test_remove_is_the_rebuild_without_the_segment(self, m):
        for i, s in enumerate(m.segments):
            rest = m.segments[:i] + m.segments[i + 1:]
            got = m.remove(fresh(s))
            assert got is Multisegment([fresh(t) for t in reversed(rest)])
            assert got.segments == rest

    @given(sampled())
    @settings(max_examples=200, deadline=None)
    def test_sort_key_is_read_from_plain_ints(self, m):
        want = tuple(
            (-(s.b.num2 + s.e.num2) // 2, -((s.e.num2 - s.b.num2) // 2 + 1), s.line)
            for s in m
        )
        assert m.sort_key() == want
        assert list(want) == sorted(want)


# 320 distinct segment values on two lines of their own, as (b2, e2, line)
# triples: a key holding a dozen of them is a product of primes far past
# 64 bits, whatever the segment table held before
WIDE = [
    (b2, b2 + 2 * j, line) for line in ("wide-a", "wide-b") for b2 in range(-40, 40) for j in (0, 1)
]


def rebuilt(count: Counter) -> Multisegment:
    """The multisegment of a Counter of triples, through the constructor."""
    return Multisegment([made(*t) for t in count.elements()])


def sieve(limit: int) -> list:
    """The primes below ``limit``, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for n in range(2, int(limit ** 0.5) + 1):
        if flags[n]:
            flags[n * n::n] = bytes(len(range(n * n, limit, n)))
    return [n for n in range(limit) if flags[n]]


class TestPrimeSignatures:
    """Each segment value takes the next prime as its id, and a multisegment's
    intern key is the product of its segments' primes: sums multiply keys and
    ``remove`` divides one, checked against Counters of plain triples."""

    @given(st.lists(st.sampled_from(WIDE), max_size=16), st.lists(st.sampled_from(WIDE), max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_sums_and_removals_are_the_counter_rebuilds(self, xs, ys):
        assert len({made(*t) for t in WIDE}) == len(WIDE) > 300
        ca, cb = Counter(xs), Counter(ys)
        a, b = rebuilt(ca), rebuilt(cb)
        assert triples(a) == ca and triples(b) == cb
        both = a + b
        assert triples(both) == ca + cb
        assert both is rebuilt(ca + cb) and both is b + a
        for t in set(xs + ys):
            rest = both.remove(made(*t))
            assert triples(rest) == ca + cb - Counter([t])
            assert rest is rebuilt(ca + cb - Counter([t]))
            if t not in ca:
                with pytest.raises(KeyError):
                    a.remove(made(*t))

    def test_keys_past_64_bits(self):
        pool = Counter(WIDE)
        whole = rebuilt(pool)
        assert whole._sig.bit_length() > 64
        twice = whole + whole
        assert triples(twice) == pool + pool and twice is rebuilt(pool + pool)
        for t in WIDE[::7]:
            assert whole.remove(made(*t)) is rebuilt(pool - Counter([t]))
            assert twice.remove(made(*t)) is whole + whole.remove(made(*t))

    def test_prime_generator_matches_a_sieve(self):
        want = sieve(20000)[:2000]
        assert len(want) == 2000 and want[-1] == 17389
        assert list(itertools.islice(core._primes(), 2000)) == want

    def test_segment_ids_are_the_first_primes(self):
        # each value entered takes the next prime, and nothing leaves the table
        ids = sorted(s._id for s in core._SEGMENTS.values())
        assert ids == list(itertools.islice(core._primes(), len(ids)))

    def test_prime_ids_match_trial_division(self):
        found: list = []
        n = 1
        while len(found) < 20_000:
            n += 1
            if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, found)):
                found.append(n)
        assert list(itertools.islice(core._primes(), len(found))) == found

    def test_removing_an_absent_segment_raises_and_enters_nothing(self):
        m = ms(seg(0, 1, "absent-a"), seg(2, 2, "absent-a"), seg(2, 2, "absent-a"))
        held = (m, m.remove(seg(2, 2, "absent-a")), EMPTY_MS)
        absent = [
            seg(0, 0, "absent-a"),  # same line, another value
            seg(0, 1, "absent-b"),  # same endpoints, another line
            seg(-3, 7, "absent-c"),  # a value entered after m's segments
        ]
        gc.collect()
        before = set(core._INTERNED)
        for s in absent:
            for x in held:
                with pytest.raises(KeyError):
                    x.remove(s)
        assert set(core._INTERNED) - before == set()
        assert interned_on("absent-") == 2


# Run in a second interpreter: builds the "xp-" segments in an order the test
# never uses, then pickles a segment, a multisegment and an induced symbol.
CHILD = """
import pickle, sys
from cuspline.classical import CuspSymbol, InducedSymbol
from cuspline.core import ms, seg
made = [seg(b, b + j, line) for line in ("xp-b", "xp-a")
        for b in range(3, -1, -1) for j in range(2, -1, -1)]
m = ms(seg(3, 5, "xp-b"), seg(1, 1, "xp-a"), seg(1, 1, "xp-a"), seg(0, 2, "xp-a"))
sys.stdout.buffer.write(pickle.dumps((made, m, InducedSymbol(m, CuspSymbol("xp")))))
"""


# Run in a second interpreter: a copy of the package that is imported again
# must leave nothing of the previous copy alive (nothing outside the package
# may hold its classes, and through them its tables and caches).
REIMPORT = """
import gc, sys, weakref
import cuspline
old = weakref.ref(cuspline.core.Multisegment)
for name in [m for m in sys.modules if m == "cuspline" or m.startswith("cuspline.")]:
    del sys.modules[name]
import cuspline
gc.collect()
sys.exit(old() is not None)
"""


class TestCrossProcessIdentity:
    def test_values_pickled_in_another_process_are_the_local_ones(self):
        from cuspline.classical import CuspSymbol, InducedSymbol

        local = [
            seg(b, b + j, line) for line in ("xp-a", "xp-b") for b in range(4) for j in range(3)
        ]
        src = str(Path(core.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        out = subprocess.run(
            [sys.executable, "-c", CHILD], env=env, capture_output=True, check=True, timeout=120
        ).stdout
        made, m, sym = pickle.loads(out)
        assert len(made) == len(local)
        for s in made:
            [twin] = [t for t in local if (t.b, t.e, t.line) == (s.b, s.e, s.line)]
            assert hash(s) == hash(twin) and s.sort_key() == twin.sort_key()
            for t in local:
                same = t is twin
                assert (s == t) is same and (ms(s) is ms(t)) is same
        want = ms(seg(0, 2, "xp-a"), seg(1, 1, "xp-a"), seg(3, 5, "xp-b"), seg(1, 1, "xp-a"))
        assert m is want
        assert all(m is not ms(*local[:k]) for k in range(len(local) + 1))
        assert sym is InducedSymbol(want, CuspSymbol("xp"))
        assert sym is not InducedSymbol(want.remove(seg(1, 1, "xp-a")), CuspSymbol("xp"))

    def test_a_reimported_package_frees_the_previous_copy(self):
        src = str(Path(core.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        proc = subprocess.run([sys.executable, "-c", REIMPORT], env=env, timeout=120)
        assert proc.returncode == 0


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

    def test_bind_and_combine_are_bilinear(self):
        s = FormalSum({1: 2})
        t = FormalSum({10: 3})
        assert s.combine(t, lambda a, b: a + b).coeffs == {11: 6}
        assert s.bind(lambda k: FormalSum({k: 1, k + 1: 1})).coeffs == {1: 2, 2: 2}

    def test_non_int_coefficients_rejected(self):
        with pytest.raises(TypeError):
            FormalSum({"a": 1.5})

    def test_iteration_is_refused(self):
        # checked before anything that would loop: the sequence protocol
        # that ``__getitem__`` implies yields 0 forever
        s = FormalSum({"a": 1})
        for x in (s, FormalSum.zero()):
            with pytest.raises(TypeError):
                iter(x)
            with pytest.raises(TypeError):
                list(x)

    def test_membership_is_the_support(self):
        s = FormalSum({"a": 1, "b": -2, "c": 0})
        assert "a" in s and "b" in s
        assert "c" not in s and "z" not in s and 0 not in s
        assert (ms(seg(0, 1)), "x") in FormalSum.lift((ms(seg(0, 1)), "x"), 3)
        assert ms(seg(0, 1)) not in FormalSum.lift((ms(seg(0, 1)), "x"), 3)
        assert "a" not in s - s


def one_element_of_each_kind():
    m = ms(seg(1, 1))
    y = ClassElt.cusp() + induced(m, CuspSymbol())
    return {
        "ring": glhopf.delta_key(m),
        "ring tensor": glhopf.comult(glhopf.delta_key(ms(seg(0, 1)))),
        "module": y,
        "module tensor": module_comult(y),
    }


@pytest.mark.parametrize("kind", ["ring", "ring tensor", "module", "module tensor"])
class TestElementIsItsSum:
    """An element is one object: a ``FormalSum`` with a basis slot, whose
    ``terms`` is a plain sum sharing its coefficients."""

    def test_a_slotted_formal_sum(self, kind):
        x = one_element_of_each_kind()[kind]
        assert isinstance(x, FormalSum)
        assert not hasattr(x, "__dict__")

    def test_terms_is_a_plain_sum_on_the_same_dict(self, kind):
        x = one_element_of_each_kind()[kind]
        assert type(x.terms) is FormalSum
        assert x.terms.coeffs is x.coeffs

    def test_never_equal_to_its_plain_sum(self, kind):
        x = one_element_of_each_kind()[kind]
        assert (x == x.terms) is False and (x.terms == x) is False
        assert x != x.terms and x.terms != x
        assert x.terms == FormalSum(dict(x.coeffs))
        with pytest.raises(TypeError):
            x + x.terms
        with pytest.raises(TypeError):
            x.terms + x

    def test_same_kind_operations_keep_kind_and_basis(self, kind):
        x = one_element_of_each_kind()[kind]
        for y in (x + x, x - 3 * x, -x, x.map_keys(lambda k: k), x.filter(lambda k: True)):
            assert type(y) is type(x) and y.basis == x.basis
        assert (x + x).coeffs == {k: 2 * c for k, c in x.coeffs.items()}
        assert type(x.bind(lambda k: FormalSum.lift(k))) is FormalSum

    def test_zero_is_falsy_and_the_support_is_readable(self, kind):
        x = one_element_of_each_kind()[kind]
        for zero in (x - x, 0 * x, x.filter(lambda k: False)):
            assert type(zero) is type(x) and not zero and len(zero) == 0
        assert x and len(x) == len(x.coeffs) > 0
        for k, c in x.coeffs.items():
            assert k in x and x[k] == c


def test_left_part_is_a_plain_sum():
    t = glhopf.comult(glhopf.delta_key(ms(seg(0, 1), seg(3, 3))))
    part = t.left_part(EMPTY_MS)
    assert type(part) is FormalSum
    assert part.coeffs == {l: c for (l, r), c in t.coeffs.items() if r is EMPTY_MS}
    assert ms(seg(0, 1), seg(3, 3)) in part


class TestClearCaches:
    def test_every_cache_is_empty_after_the_call(self):
        """Found independently of ``clear_caches``' own walk: every
        ``functools`` cache object of the package that the collector sees."""
        assert cli.main(["check-prop41", "--alpha", "1/2", "--n", "3", "--all"]) == 0
        caches = {
            f"{c.__module__}.{c.__qualname__}": c
            for c in gc.get_objects()
            if isinstance(c, functools._lru_cache_wrapper)
            and c.__module__.split(".")[0] == "cuspline"
        }
        warm = (
            "cuspline.cli.build_parser",
            "cuspline.glhopf.comult_key",
            "cuspline.glhopf._lowest_derivative_segment",
            "cuspline.subquotients._witness_terms",
            "cuspline.subquotients._left_factors",
        )
        assert all(caches[name].cache_info().currsize > 0 for name in warm)
        clear_caches()
        assert {k: c.cache_info().currsize for k, c in caches.items()} == dict.fromkeys(
            caches, 0
        )

    def test_clears_this_copy_when_another_holds_its_module_names(self, monkeypatch):
        # as when a second copy of the package is loaded under the same name
        glhopf.comult_key(ms(seg(0, 2)), glhopf.DELTA)
        assert glhopf.comult_key.cache_info().currsize > 0
        other = types.ModuleType("cuspline.glhopf")
        monkeypatch.setitem(sys.modules, "cuspline.glhopf", other)
        clear_caches()
        assert glhopf.comult_key.cache_info().currsize == 0
