"""The graded ring of general-linear blocks with its two rigid bases.

Elements (``GLElt``) are integer combinations of multisegment keys, tensors
(``TensorGL``) of pairs of keys; both are ``core.LinearElt`` subclasses,
so ``FormalSum``s read in one basis, whose coefficients are ``x.coeffs``.  A
key denotes a product of generators, one per segment: in the ``delta`` basis
the generator attached to a segment is the essentially-square-integrable
representation of that segment, in the ``zeta`` basis it is the
fully-degenerate one.  The two bases are kept rigid: sums and products never
mix them; ``zeta_as_delta`` / ``delta_as_zeta`` rewrite an element exactly.

Operations:

* ``comult`` -- the coproduct, extended multiplicatively from the closed
  per-segment formulas (top parts on the left in the delta basis, bottom
  parts on the left in the zeta basis); the memoized value on a key is the
  cached value on its prefix (all segments but the last) times one
  segment's tensor;
* ``contragredient`` -- segmentwise [b,e] -> [-e,-b] (selfdual lines only);
* ``twisted_comult`` -- the twisted coproduct M* used for classical-group
  restriction bookkeeping, defined as the composite (mult x id)
  (contragredient x comult)(swap) comult.  The composite is multiplicative
  over the segments of a key (Tadic, J. Algebra 177 (1995)), so the value on
  a key is the cached value on its prefix times one memoized one-segment
  value, as for ``comult``.  The one-segment values come from the
  compositional route, ``twisted_comult_compositional``, which is the
  reference; ``twisted_comult_segment_closed`` is an independent closed form
  for one delta generator, kept as the cross-check;
* ``gl_twisted_part`` -- the "everything moved to the GL side" sum, the
  product of memoized one-segment parts in the same way;
* ``derivative`` / ``highest_derivative`` -- the positive ring endomorphism
  on the zeta basis and its lowest nonzero graded part, on positive input
  the product of the memoized one-segment lowest parts (no 2^k-term
  expansion);
* ``mw_dual`` -- the chain-selection involution on multisegments.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Tuple

from .core import (
    Context,
    DEFAULT_CONTEXT,
    EMPTY_MS,
    FormalSum,
    LinearElt,
    MixedBasisError,
    Multisegment,
    Segment,
    _lifted,
    _linear_elt,
    ms,
)
from .halfint import HalfInt

DELTA = "delta"
ZETA = "zeta"
_BASES = (DELTA, ZETA)


class GLElt(LinearElt):
    """An element of the graded ring, expressed in one rigid basis."""

    __slots__ = ()
    BASES = _BASES

    @staticmethod
    def zero(basis: str) -> "GLElt":
        return GLElt(basis, FormalSum.zero())

    @staticmethod
    def key(basis: str, m: Multisegment, coeff: int = 1) -> "GLElt":
        return GLElt(basis, FormalSum.lift(m, coeff))  # checks the basis

    def __mul__(self, other: "GLElt") -> "GLElt":
        """Product = multiset concatenation of keys (bilinear)."""
        self._require_same(other)
        return self._with(self.combine(other, Multisegment.__add__).coeffs)


def delta_key(m: Multisegment, coeff: int = 1) -> GLElt:
    return _linear_elt(GLElt, DELTA, _lifted(m, coeff))


def zeta_key(m: Multisegment, coeff: int = 1) -> GLElt:
    return _linear_elt(GLElt, ZETA, _lifted(m, coeff))


class TensorGL(LinearElt):
    """An element of (ring) x (ring), same rigid basis on both sides."""

    __slots__ = ()
    BASES = _BASES

    @staticmethod
    def unit(basis: str) -> "TensorGL":
        return TensorGL(basis, FormalSum.lift((EMPTY_MS, EMPTY_MS)))

    def __mul__(self, other: "TensorGL") -> "TensorGL":
        """Componentwise product (concatenate left keys, concatenate right
        keys): ``FormalSum.combine`` with the pair map written inline, the
        coproduct's one inner loop."""
        self._require_same(other)
        out: dict = {}
        get = out.get
        pairs = other.coeffs.items()
        for (l1, r1), c1 in self.coeffs.items():
            for (l2, r2), c2 in pairs:
                key = (l1 + l2, r1 + r2)
                out[key] = get(key, 0) + c1 * c2
        return self._with(out)

    def coefficient(self, left: Multisegment, right: Multisegment) -> int:
        return self[(left, right)]

    def left_part(self, right: Multisegment) -> FormalSum:
        """The plain sum of the left keys paired with ``right``."""
        return FormalSum._raw({l: c for (l, r), c in self.coeffs.items() if r == right})


# ---------------------------------------------------------------------------
# Coproduct
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def comult_segment(s: Segment, basis: str) -> TensorGL:
    """Closed coproduct of a single generator.

    delta basis: sum over cut points of (top part) x (bottom part);
    zeta basis:  sum over cut points of (bottom part) x (top part).

    The result is immutable and memoized; the same generators recur in
    every multiplicative expansion.
    """
    terms = {}
    for cut in range(s.length + 1):
        # bottom part: first `cut` exponents; top part: the rest
        bottom = None if cut == 0 else Segment(s.b, s.b + (cut - 1), s.line)
        top = None if cut == s.length else Segment(s.b + cut, s.e, s.line)
        if basis == DELTA:
            key = (ms(top), ms(bottom))
        else:
            key = (ms(bottom), ms(top))
        terms[key] = terms.get(key, 0) + 1
    return TensorGL(basis, FormalSum(terms))


def _segmentwise_tensor(
    m: Multisegment, basis: str, f: Callable[[Segment, str], TensorGL]
) -> TensorGL:
    """Product over the segments of a key of one memoized tensor per segment
    (a one-segment key shares its segment's tensor)."""
    if not m.segments:
        return TensorGL.unit(basis)
    first, *rest = m.segments
    out = f(first, basis)
    for s in rest:
        out = out * f(s, basis)
    return out


def _prefix_tensor(
    m: Multisegment,
    basis: str,
    prefix: Callable[[Multisegment, str], TensorGL],
    f: Callable[[Segment, str], TensorGL],
) -> TensorGL:
    """``_segmentwise_tensor`` by recursion: the value ``prefix`` gives on
    the key's prefix (all segments but the last) times the last segment's
    tensor, so a key whose prefix is cached costs one product.  The
    association and factor order are those of ``_segmentwise_tensor``, and
    so is every term order."""
    if len(m.segments) < 2:
        return _segmentwise_tensor(m, basis, f)
    last = m.segments[-1]
    return prefix(m.remove(last), basis) * f(last, basis)


@lru_cache(maxsize=65536)
def comult_key(m: Multisegment, basis: str) -> TensorGL:
    """The coproduct of a key: its cached prefix times its last segment's
    tensor (``_prefix_tensor``)."""
    return _prefix_tensor(m, basis, comult_key, comult_segment)


def _linear_extension(
    x: GLElt, f: Callable[[Multisegment, str], TensorGL]
) -> TensorGL:
    """Linear extension of a key -> tensor map."""
    coeffs = x.coeffs
    if len(coeffs) == 1:
        [(key, c)] = coeffs.items()
        if c == 1:  # tensors are immutable: share the key's value
            return f(key, x.basis)
    basis = x.basis
    return TensorGL(basis, x.bind(lambda key: f(key, basis)))


def comult(x: GLElt) -> TensorGL:
    """The coproduct, extended multiplicatively to all keys and linearly."""
    return _linear_extension(x, comult_key)


# ---------------------------------------------------------------------------
# Contragredient
# ---------------------------------------------------------------------------

def contragredient_key(m: Multisegment, ctx: Context = DEFAULT_CONTEXT) -> Multisegment:
    for line in m.lines():
        ctx.require_selfdual(line)
    return m.map_segments(Segment.dual)


def contragredient(x: GLElt, ctx: Context = DEFAULT_CONTEXT) -> GLElt:
    return x.map_keys(lambda m: contragredient_key(m, ctx))


# ---------------------------------------------------------------------------
# Twisted coproduct
# ---------------------------------------------------------------------------

def twisted_comult_compositional(x: GLElt, ctx: Context = DEFAULT_CONTEXT) -> TensorGL:
    """(mult x id) o (contragredient x comult) o swap o comult, term by term.

    The normative definition: ``twisted_comult`` takes its one-segment
    values from it, and the tests compare the two on whole elements.
    """
    first = comult(x)
    out = {}
    for (left, right), c in first.coeffs.items():
        dual_right = contragredient_key(right, ctx)
        inner = comult_key(left, x.basis)
        for (u, v), c2 in inner.coeffs.items():
            key = (dual_right + u, v)
            out[key] = out.get(key, 0) + c * c2
    return TensorGL(x.basis, FormalSum(out))


def _require_selfdual_support(x: GLElt, ctx: Context) -> None:
    """The context enters the twisted restriction only through this check,
    so it runs on every call, before any cache is read."""
    for line in {s.line for key in x.coeffs for s in key}:
        ctx.require_selfdual(line)


@lru_cache(maxsize=None)
def twisted_comult_segment(s: Segment, basis: str) -> TensorGL:
    """The twisted coproduct of one generator, by the compositional route.

    Memoized on (segment, basis) alone: callers check selfduality first.
    """
    return twisted_comult_compositional(GLElt.key(basis, ms(s)))


@lru_cache(maxsize=65536)
def _twisted_comult_prefix(m: Multisegment, basis: str) -> TensorGL:
    """The twisted coproduct of a key.  Memoized on (key, basis) alone, as
    callers check selfduality first, and called for prefixes only: a key's
    own value comes from the unwrapped function."""
    return _prefix_tensor(m, basis, _twisted_comult_prefix, twisted_comult_segment)


def twisted_comult(x: GLElt, ctx: Context = DEFAULT_CONTEXT) -> TensorGL:
    """The twisted coproduct, multiplicative over the segments of a key.

    Every map in the compositional definition is a ring map, so the value
    on a key is the product of the memoized one-segment values (Tadic's
    structure formula, J. Algebra 177 (1995)); it extends linearly.
    ``twisted_comult_compositional`` is the reference the one-segment
    values come from, and ``twisted_comult_segment_closed`` the independent
    cross-check on delta generators.

    As in ``comult_key``, a key's value is its cached prefix's value times
    its last segment's (``_prefix_tensor``), so a new key costs one product.
    Only prefixes are cached, not the keys themselves: a restriction reads
    each key's tensor once, and caching those holds every one of their sums
    alive.  On the ``module-filter`` benchmark peak RSS reads 24.7 MiB with
    no cache, 26.6 MiB with the prefixes cached and 39.2 MiB with every key.
    """
    _require_selfdual_support(x, ctx)
    return _linear_extension(x, _twisted_comult_prefix.__wrapped__)


def twisted_comult_segment_closed(s: Segment, ctx: Context = DEFAULT_CONTEXT) -> TensorGL:
    """Closed form of the twisted coproduct on a single delta generator.

    For [a, c]: sum over a-1 <= s0 <= c and s0 <= t <= c of
    (dual of bottom through s0) * (top above t)  (x)  (middle s0+1..t),
    with out-of-range pieces understood as empty.
    """
    ctx.require_selfdual(s.line)
    a, c = s.b, s.e
    out = {}
    s0 = a - 1
    while s0 <= c:
        t = s0
        while t <= c:
            left_parts = []
            if s0 >= a:  # dual of [a, s0]
                left_parts.append(Segment(-s0, -a, s.line))
            if t < c:  # [t+1, c]
                left_parts.append(Segment(t + 1, c, s.line))
            middle = None if t < s0 + 1 else Segment(s0 + 1, t, s.line)
            key = (ms(*left_parts), ms(middle))
            out[key] = out.get(key, 0) + 1
            t = t + 1
        s0 = s0 + 1
    return TensorGL(DELTA, FormalSum(out))


@lru_cache(maxsize=None)
def gl_twisted_part_segment(s: Segment, basis: str) -> FormalSum:
    """``gl_twisted_part`` of one generator: the left keys of its twisted
    coproduct paired with the empty right key."""
    return twisted_comult_segment(s, basis).left_part(EMPTY_MS)


def gl_twisted_part(x: GLElt, ctx: Context = DEFAULT_CONTEXT) -> GLElt:
    """Sum of (left) * (contragredient of right) over the coproduct terms.

    Equals the sum of left keys of the twisted coproduct paired with the
    empty right key, and is multiplicative over segments like it.
    """
    _require_selfdual_support(x, ctx)
    basis = x.basis
    return GLElt(
        basis,
        x.bind(
            lambda m: _segmentwise_product(m, lambda s: gl_twisted_part_segment(s, basis))
        ),
    )


# ---------------------------------------------------------------------------
# Base change between the two rigid bases, one segment at a time
# ---------------------------------------------------------------------------

def segment_tilings(s: Segment) -> Iterable[Tuple[Segment, ...]]:
    """All ways to cut a segment into consecutive non-empty blocks."""
    exps = s.exponents()
    n = len(exps)
    for mask in range(1 << (n - 1)):
        parts = []
        start = 0
        for i in range(n - 1):
            if (mask >> i) & 1:
                parts.append(Segment(exps[start], exps[i], s.line))
                start = i + 1
        parts.append(Segment(exps[start], exps[n - 1], s.line))
        yield tuple(parts)


@lru_cache(maxsize=None)
def zeta_segment_delta_expansion(s: Segment) -> FormalSum:
    """The one-segment zeta class written in delta-basis multisegment keys.

    Sum over tilings with sign (-1)^(length - blocks).  The same alternating
    formula also writes a one-segment delta class in zeta-basis keys (the
    two triangular base-change matrices are mutually inverse).  Memoized
    like ``comult_segment``: the value is immutable.
    """
    out: dict = {}
    for parts in segment_tilings(s):
        key = Multisegment(parts)
        sign = -1 if (s.length - len(parts)) % 2 else 1
        out[key] = out.get(key, 0) + sign
    return FormalSum(out)


def _segmentwise_product(
    m: Multisegment, f: Callable[[Segment], FormalSum]
) -> FormalSum:
    """Product over the segments of a key of one formal sum per segment (a
    key is the product of its one-segment classes)."""
    product = FormalSum.lift(EMPTY_MS)
    for s in m:
        product = product.combine(f(s), Multisegment.__add__)
    return product


def _change_basis(x: GLElt, source: str, target: str, name: str) -> GLElt:
    if x.basis != source:
        raise MixedBasisError(f"{name} needs a {source}-basis element")
    return GLElt(
        target,
        x.bind(lambda m: _segmentwise_product(m, zeta_segment_delta_expansion)),
    )


def zeta_as_delta(x: GLElt) -> GLElt:
    """Rewrite a zeta-basis element exactly in delta-basis keys."""
    return _change_basis(x, ZETA, DELTA, "zeta_as_delta")


def delta_as_zeta(x: GLElt) -> GLElt:
    """Rewrite a delta-basis element exactly in zeta-basis keys."""
    return _change_basis(x, DELTA, ZETA, "delta_as_zeta")


# ---------------------------------------------------------------------------
# Derivative on the zeta basis
# ---------------------------------------------------------------------------

def trim_key(m: Multisegment) -> Multisegment:
    """Entrywise top-trim with empties dropped."""
    return m.map_segments(Segment.trimmed_top)


def _derivative_segment(s: Segment) -> FormalSum:
    """s + s-trimmed (the trimmed singleton is the empty key)."""
    return FormalSum.from_terms([(ms(s), 1), (ms(s.trimmed_top()), 1)])


def derivative(x: GLElt) -> GLElt:
    """The positive ring endomorphism generated by s -> s + s-trimmed.

    Defined on the zeta basis only; delta-basis input is a typed error.
    """
    if x.basis != ZETA:
        raise MixedBasisError("the derivative is defined on the zeta basis only")
    return GLElt(
        ZETA, x.bind(lambda m: _segmentwise_product(m, _derivative_segment))
    )


def _lowest_part(terms: FormalSum) -> FormalSum:
    """The terms of least total support size (zero stays zero)."""
    low = min((key.size for key in terms.coeffs), default=0)
    return terms.filter(lambda key: key.size == low)


@lru_cache(maxsize=None)
def _lowest_derivative_segment(s: Segment) -> FormalSum:
    """The lowest part of one generator's derivative.  Memoized like
    ``zeta_segment_delta_expansion``: the value is immutable."""
    return _lowest_part(_derivative_segment(s))


def highest_derivative(x: GLElt) -> GLElt:
    """Lowest nonzero graded part of the derivative.  On positive input
    nothing cancels, so a key's part is the product of its segments' lowest
    parts ([Z]: a ring map); signed input takes the full expansion."""
    if x.basis == ZETA and all(c > 0 for c in x.coeffs.values()):
        d = x.bind(
            lambda m: _segmentwise_product(m, _lowest_derivative_segment)
        )
    else:  # signed input, or delta-basis input that ``derivative`` rejects
        d = derivative(x)
    return GLElt(ZETA, _lowest_part(d))


# ---------------------------------------------------------------------------
# The multisegment involution
# ---------------------------------------------------------------------------

def mw_dual(m: Multisegment) -> Multisegment:
    """Chain-selection involution on multisegments (per line independently).

    Repeatedly: take the maximal end e present; grow a chain downward picking,
    for each end e, e-1, ..., a segment with that end whose begin is maximal
    among those strictly below the previous pick's begin; emit the dual
    segment [e - len(chain) + 1, e]; top-trim the chain members; recurse.
    """
    by_line: dict = {}
    for s in m:
        by_line.setdefault(s.line, []).append(s)
    out: List[Segment] = []
    for line in sorted(by_line):
        out.extend(_mw_dual_line(by_line[line]))
    return Multisegment(out)


def _mw_dual_line(segments: List[Segment]) -> List[Segment]:
    pool: List[Segment] = list(segments)
    result: List[Segment] = []
    while pool:
        end = max(s.e for s in pool)
        chain_idx: List[int] = []
        cur_end = end
        prev_begin: Optional[HalfInt] = None
        while True:
            best = -1
            for i, s in enumerate(pool):
                if i in chain_idx or s.e != cur_end:
                    continue
                if prev_begin is not None and not (s.b < prev_begin):
                    continue
                if best < 0 or s.b > pool[best].b:
                    best = i
            if best < 0:
                break
            chain_idx.append(best)
            prev_begin = pool[best].b
            cur_end = cur_end - 1
        length = len(chain_idx)
        result.append(Segment(end - (length - 1), end, pool[chain_idx[0]].line))
        new_pool = []
        for i, s in enumerate(pool):
            if i in chain_idx:
                t = s.trimmed_top()
                if t is not None:
                    new_pool.append(t)
            else:
                new_pool.append(s)
        pool = new_pool
    return result
