"""Symbols for the classical-group side and the module comultiplication.

The classical side is tracked through *induced symbols*: a multisegment (the
general-linear part, in delta semantics) juxtaposed with a *base symbol* over
the fixed cuspidal label sigma.  Base symbols are the atoms whose restriction
bookkeeping has a closed form:

* ``CuspSymbol``       -- sigma itself;
* ``StGenSymbol``      -- the generalized Steinberg atom attached to
  [a, a+n] on a line (unique irreducible subrepresentation family);
* ``CoStGenSymbol``    -- its co-version (the Langlands-quotient family with
  the same support).

Base and induced symbols are hash-consed, as multisegments are (base
symbols through ``core.hash_cons``, induced symbols through their own
slotted miss path): every constructor, ``dataclasses.replace`` and unpickling
return the one live object for a value, so ``==`` and ``hash`` are the C-level
identity ones and a (multisegment, induced symbol) key hashes in C.

Module elements (``ClassElt``, keys: induced symbols) and module tensors
(``TensorClass``, keys: (multisegment, induced symbol) pairs) are
``core.LinearElt`` subclasses with no basis, so ``FormalSum``s themselves.
``module_comult`` computes the restriction sum mu*(key) = twisted-coproduct
of the GL part acted on the closed base formulas.
``TemperedSymbol`` and ``LanglandsDatum`` are structural labels used by the
certificate machinery: equality is structural and that is all the counting
arguments need.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .core import (
    Context,
    CusplineError,
    DEFAULT_CONTEXT,
    EMPTY_MS,
    FormalSum,
    JsonForm,
    LinearElt,
    Multisegment,
    Segment,
    _enter,
    _new,
    _nonzero,
    hash_cons,
    ms,
    seg_opt,
)
from .glhopf import (
    DELTA,
    GLElt,
    delta_key,
    gl_twisted_part,
    twisted_comult,
    zeta_segment_delta_expansion,
)
from .halfint import HalfInt, hi


class NotCuspidalBaseError(CusplineError):
    """An operation requiring cuspidal base symbols met a non-cuspidal one."""


class DatumError(CusplineError):
    """Malformed Langlands-style datum (non-positive center, etc.)."""


def dual_sigma(label: str) -> str:
    """Opaque contragredient marker on the sigma label (an involution)."""
    return label[:-1] if label.endswith("~") else label + "~"


# ---------------------------------------------------------------------------
# Base symbols
# ---------------------------------------------------------------------------

# The hash-consed base and induced symbols.  An induced symbol's key is the
# pair of its two (hash-consed) parts; a base symbol's starts with its class.
_SYMBOLS: Dict[tuple, object] = {}  # key -> weak reference


@dataclass(frozen=True, eq=False, init=False)
class CuspSymbol(JsonForm):
    sigma: str  # defaults in __new__, the one constructor

    def __new__(cls, sigma: str = "sigma"):
        return hash_cons(_SYMBOLS, (cls, sigma), cls, sigma=sigma)

    def __reduce__(self):
        return (CuspSymbol, (self.sigma,))

    @property
    def degree(self) -> int:
        return 0

    def support(self) -> Dict[Tuple[str, HalfInt], int]:
        return {}

    def lines(self) -> FrozenSet[str]:
        return frozenset()

    def sort_key(self) -> tuple:
        return (0, self.sigma)

    def __str__(self) -> str:
        return self.sigma

    _JSON_KIND, _JSON_FIELDS = "cusp", ("sigma",)


@dataclass(frozen=True, eq=False, init=False)
class _SteinbergAtom(JsonForm):
    """The body shared by the two Steinberg-type atoms on [a, a+n] over sigma.

    Subclasses set ``_TAG`` (their rank in ``sort_key``) and ``_PREFIX`` (the
    name they print under); they stay distinct types, and the class is part
    of the intern key, so a StGen atom is never the CoStGen atom with the
    same fields.
    """

    line: str
    a: HalfInt
    n: int
    sigma: str  # defaults in __new__, the one constructor

    def __new__(cls, line: str, a: HalfInt, n: int, sigma: str = "sigma"):
        if n < 0:
            raise DatumError(f"{cls._PREFIX}Gen needs n >= 0")
        key = (cls, line, a.num2, n, sigma)
        return hash_cons(_SYMBOLS, key, cls, line=line, a=a, n=n, sigma=sigma)

    def __reduce__(self):
        return (type(self), (self.line, self.a, self.n, self.sigma))

    @property
    def segment(self) -> Segment:
        return Segment(self.a, self.a + self.n, self.line)

    @property
    def degree(self) -> int:
        return self.n + 1

    def support(self) -> Dict[Tuple[str, HalfInt], int]:
        return {(self.line, x): 1 for x in self.segment.exponents()}

    def lines(self) -> FrozenSet[str]:
        return frozenset({self.line})

    def sort_key(self) -> tuple:
        return (self._TAG, self.line, self.a.num2, self.n, self.sigma)

    def __str__(self) -> str:
        return f"{self._PREFIX}([{self.a},{self.a + self.n}]@{self.line};{self.sigma})"

    _JSON_FIELDS = ("line", "a", "n", "sigma")


class StGenSymbol(_SteinbergAtom):
    """Generalized Steinberg atom on [a, a+n] over sigma."""

    _TAG, _PREFIX, _JSON_KIND = 1, "St", "stgen"


class CoStGenSymbol(_SteinbergAtom):
    """The co-Steinberg atom: the Langlands-quotient counterpart of StGen."""

    _TAG, _PREFIX, _JSON_KIND = 2, "CoSt", "costgen"


# PEP 604 unions: ``typing.Union[...]`` would be kept in ``typing``'s own
# cache, and through these classes it would keep this module's globals, and
# every table and cache in them, alive after the package is imported again
BaseSymbol = CuspSymbol | StGenSymbol | CoStGenSymbol


# ---------------------------------------------------------------------------
# Induced symbols and the module of formal sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False)
class InducedSymbol(JsonForm):
    """A GL multisegment (delta semantics) induced against a base symbol.

    Slotted, with no ``__dict__``.  Most symbols of the module restriction
    die with their item and are made again, so a miss of the intern table
    is kept short: one lookup, a bare object, its two slots set through
    their descriptors and its entry in the table."""

    __slots__ = ("gl", "base", "__weakref__")
    gl: Multisegment
    base: BaseSymbol

    def __new__(cls, gl: Multisegment, base: BaseSymbol):
        key = (gl, base)
        ref = _SYMBOLS.get(key)
        out = ref and ref()
        if out is None:
            out = _new(cls)
            _SET_GL(out, gl)
            _SET_BASE(out, base)
            _enter(_SYMBOLS, key, out)
        return out

    def __reduce__(self):
        return (InducedSymbol, (self.gl, self.base))

    @property
    def degree(self) -> int:
        return self.gl.size + self.base.degree

    def support(self) -> Dict[Tuple[str, HalfInt], int]:
        out = dict(self.gl.support())
        for k, v in self.base.support().items():
            out[k] = out.get(k, 0) + v
        return out

    def lines(self) -> FrozenSet[str]:
        return self.gl.lines() | self.base.lines()

    def sort_key(self) -> tuple:
        return (self.gl.sort_key(), self.base.sort_key())

    def __str__(self) -> str:
        if not len(self.gl):
            return str(self.base)
        return f"{self.gl} |x| {self.base}"

    _JSON_FIELDS = ("gl", "base")


# the slots' own setters, past the frozen ``__setattr__``
_SET_GL = InducedSymbol.gl.__set__
_SET_BASE = InducedSymbol.base.__set__


class ClassElt(LinearElt):
    """Finite Z-combination of induced symbols."""

    __slots__ = ()

    def __init__(self, terms: FormalSum):  # FormalSum[InducedSymbol]
        super().__init__(None, terms)

    @staticmethod
    def key(sym: InducedSymbol, coeff: int = 1) -> "ClassElt":
        return ClassElt(FormalSum.lift(sym, coeff))

    @staticmethod
    def cusp(sigma: str = "sigma") -> "ClassElt":
        return ClassElt.key(InducedSymbol(EMPTY_MS, CuspSymbol(sigma)))


class TensorClass(LinearElt):
    """Sum of (GL multisegment) (x) (induced symbol) pairs."""

    __slots__ = ()

    def __init__(self, terms: FormalSum):  # keys: (Multisegment, InducedSymbol)
        super().__init__(None, terms)


def rtimes(x: GLElt, y: ClassElt) -> ClassElt:
    """Parabolic-induction product of a delta-basis GL element with a symbol."""
    if x.basis != DELTA:
        raise NotCuspidalBaseError(
            "induction takes the GL factor in delta semantics"
        )
    return ClassElt(x.combine(y, lambda m, sym: InducedSymbol(m + sym.gl, sym.base)))


def induced(m: Multisegment, base: BaseSymbol) -> ClassElt:
    return ClassElt.key(InducedSymbol(m, base))


# ---------------------------------------------------------------------------
# Module comultiplication
# ---------------------------------------------------------------------------

def module_comult_base(base: BaseSymbol) -> TensorClass:
    """Closed restriction formulas for the three base atoms."""
    if isinstance(base, CuspSymbol):
        return TensorClass(FormalSum.lift((EMPTY_MS, InducedSymbol(EMPTY_MS, base))))
    if isinstance(base, StGenSymbol):
        out = {}
        for k in range(-1, base.n + 1):
            left = ms(seg_opt(base.a + k + 1, base.a + base.n, base.line))
            right_base = (
                CuspSymbol(base.sigma) if k < 0 else StGenSymbol(base.line, base.a, k, base.sigma)
            )
            key = (left, InducedSymbol(EMPTY_MS, right_base))
            out[key] = out.get(key, 0) + 1
        return TensorClass(FormalSum(out))
    if isinstance(base, CoStGenSymbol):
        # The left factors are the one-segment zeta classes on
        # [-(a+n), -(a+k+1)], recorded exactly in delta-basis keys.
        out = {}
        for k in range(-1, base.n + 1):
            right_base = (
                CuspSymbol(base.sigma)
                if k < 0
                else CoStGenSymbol(base.line, base.a, k, base.sigma)
            )
            right = InducedSymbol(EMPTY_MS, right_base)
            if k == base.n:
                left_sum = {EMPTY_MS: 1}
            else:
                zseg = Segment(
                    -(base.a + base.n), -(base.a + k + 1), base.line
                )
                left_sum = zeta_segment_delta_expansion(zseg).coeffs
            for left, c in left_sum.items():
                out[(left, right)] = out.get((left, right), 0) + c
        return TensorClass(FormalSum(out))
    raise TypeError(f"unknown base symbol {base!r}")


@lru_cache(maxsize=8192)
def _left_sum(l: Multisegment, bl: Multisegment) -> Multisegment:
    """``l + bl`` for a twisted left factor ``l`` and a nonempty base left
    factor ``bl``: a memo of multisegments only, bounded, that
    ``clear_caches`` empties.  The same pairs recur from item to item, and
    the memo keeps each sum (and its ``l``) alive between them instead of
    dropping it from the intern table and making it again.  It holds no
    symbol, so every induced symbol still dies with the last element that
    holds it."""
    return l + bl


def module_comult(y: ClassElt, ctx: Context = DEFAULT_CONTEXT) -> TensorClass:
    """mu*(GL part |x| base) = (twisted coproduct of GL part) acting on mu*(base):
    a twisted term (l, r) and a base term (bl, br), whose ``br`` has the empty
    GL part, give (l + bl, r |x| br.base), built once per r and br.  A sum
    with a nonempty ``bl`` is read from the bounded memo ``_left_sum``."""
    out: dict = {}
    get = out.get
    left_sum = _left_sum
    for sym, c in y.coeffs.items():
        by_right: dict = {}
        for (l, r), tc in twisted_comult(delta_key(sym.gl), ctx).coeffs.items():
            by_right.setdefault(r, []).append((l, tc))
        for (bl, br), bc in module_comult_base(sym.base).coeffs.items():
            base, empty, cb = br.base, bl is EMPTY_MS, c * bc
            for r, lefts in by_right.items():
                right = InducedSymbol(r, base)
                for l, tc in lefts:
                    key = (l if empty else left_sum(l, bl), right)
                    out[key] = get(key, 0) + cb * tc
    return TensorClass(FormalSum._raw(_nonzero(out)))


def gl_jacquet(y: ClassElt, ctx: Context = DEFAULT_CONTEXT) -> GLElt:
    """Full restriction to the GL side (bases must all be cuspidal).

    Returns the GL factor; the sigma factor is implicit.
    """

    def restrict(sym: InducedSymbol) -> FormalSum:
        if not isinstance(sym.base, CuspSymbol):
            raise NotCuspidalBaseError(
                f"full GL restriction needs cuspidal bases, got {sym.base}"
            )
        return gl_twisted_part(delta_key(sym.gl), ctx)

    return GLElt(DELTA, y.bind(restrict))


def mult_in(
    t: TensorClass,
    left: Multisegment,
    right_pred: Optional[Callable[[InducedSymbol], bool]] = None,
) -> int:
    """Total coefficient of terms with the given left key (and right filter).

    Left keys are standard-basis multisegment keys; when the queried key is
    reducible this is an upper-bound count, and callers are expected to query
    keys that are irreducible for support reasons.
    """
    total = 0
    for (l, r), c in t.coeffs.items():
        if l == left and (right_pred is None or right_pred(r)):
            total += c
    return total


def identify_point_of_reducibility(
    t: TensorClass, line: str, a: HalfInt, sigma: str = "sigma"
) -> TensorClass:
    """Rewrite right factors (nu^a on `line`) |x| sigma as StGen + CoStGen atoms.

    This is the length-two identification at the point of reducibility used
    when comparing restriction formulas across the two descriptions.
    """
    point = InducedSymbol(ms(Segment(a, a, line)), CuspSymbol(sigma))
    replacement = [
        InducedSymbol(EMPTY_MS, StGenSymbol(line, a, 0, sigma)),
        InducedSymbol(EMPTY_MS, CoStGenSymbol(line, a, 0, sigma)),
    ]
    out: Dict = {}
    for (l, r), c in t.coeffs.items():
        if r == point:
            for rep in replacement:
                out[(l, rep)] = out.get((l, rep), 0) + c
        else:
            out[(l, r)] = out.get((l, r), 0) + c
    return TensorClass(FormalSum(out))


# ---------------------------------------------------------------------------
# Tempered labels and Langlands-style data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TempBase(JsonForm):
    """A base symbol in tempered position (sigma itself or a Steinberg atom)."""

    base: BaseSymbol

    @property
    def degree(self) -> int:
        return self.base.degree

    def lines(self) -> FrozenSet[str]:
        return self.base.lines()

    def sort_key(self) -> tuple:
        return (0,) + self.base.sort_key()

    def __str__(self) -> str:
        return str(self.base)

    _JSON_KIND, _JSON_FIELDS = "temp-base", ("base",)


@dataclass(frozen=True)
class TauPM(JsonForm):
    """One of the two tempered summands of (symmetric segment) x sigma."""

    line: str
    half: HalfInt  # the symmetric segment is [-half, half]
    sign: int
    sigma: str = "sigma"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DatumError("sign must be +1 or -1")

    @property
    def degree(self) -> int:
        # GL content is the symmetric segment [-half, half]
        return self.half.num2 + 1

    def lines(self) -> FrozenSet[str]:
        return frozenset({self.line})

    def sort_key(self) -> tuple:
        return (1, self.line, self.half.num2, self.sign, self.sigma)

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"tau([-{self.half},{self.half}]@{self.line},{s};{self.sigma})"

    _JSON_KIND, _JSON_FIELDS = "tau-pm", ("line", "half", "sign", "sigma")


@dataclass(frozen=True)
class DeltaPM(JsonForm):
    """One of the two square-integrable subsymbols of (segment) x sigma."""

    seg: Segment
    sign: int
    sigma: str = "sigma"

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise DatumError("sign must be +1 or -1")

    @property
    def degree(self) -> int:
        return self.seg.length

    def lines(self) -> FrozenSet[str]:
        return frozenset({self.seg.line})

    def sort_key(self) -> tuple:
        return (2, self.seg.sort_key(), self.sign, self.sigma)

    def __str__(self) -> str:
        s = "+" if self.sign > 0 else "-"
        return f"delta({self.seg},{s};{self.sigma})"

    def _json_fields(self) -> dict:
        return {
            "kind": "delta-pm",
            "segment": self.seg,
            "sign": self.sign,
            "sigma": self.sigma,
        }


@dataclass(frozen=True)
class IndTemp(JsonForm):
    """Tempered induction label: symmetric segments over an inner tempered symbol."""

    segs: Tuple[Segment, ...]
    inner: "TemperedSymbol"

    def __post_init__(self):
        for s in self.segs:
            if s.center.num2 != 0:
                raise DatumError(f"tempered induction needs symmetric segments, got {s}")
        ordered = tuple(sorted(self.segs, key=Segment.sort_key))
        object.__setattr__(self, "segs", ordered)

    @property
    def degree(self) -> int:
        return sum(s.length for s in self.segs) + self.inner.degree

    def lines(self) -> FrozenSet[str]:
        out = frozenset(s.line for s in self.segs)
        return out | self.inner.lines()

    def sort_key(self) -> tuple:
        return (3, tuple(s.sort_key() for s in self.segs), self.inner.sort_key())

    def __str__(self) -> str:
        inside = " x ".join(str(s) for s in self.segs)
        return f"temp({inside} |x| {self.inner})"

    def _json_fields(self) -> dict:
        return {
            "kind": "ind-temp",
            "segments": self.segs,
            "inner": self.inner,
        }


TemperedSymbol = TempBase | TauPM | DeltaPM | IndTemp  # PEP 604, as BaseSymbol


def temp_sigma(t: TemperedSymbol) -> str:
    """The sigma label a tempered symbol sits over."""
    if isinstance(t, TempBase):
        return t.base.sigma
    if isinstance(t, (TauPM, DeltaPM)):
        return t.sigma
    return temp_sigma(t.inner)


@dataclass(frozen=True)
class LanglandsDatum(JsonForm):
    """(multisegment with strictly positive centers; tempered symbol).

    ``dualized`` marks a certificate transported through the duality
    involution; it participates in structural equality only.
    """

    gl: Multisegment
    temp: TemperedSymbol
    dualized: bool = False

    def __post_init__(self):
        for s in self.gl:
            if s.b.num2 + s.e.num2 <= 0:  # twice the center
                raise DatumError(
                    f"Langlands datum needs strictly positive centers, got {s}"
                )

    @property
    def degree(self) -> int:
        return self.gl.size + self.temp.degree

    def lines(self) -> FrozenSet[str]:
        return self.gl.lines() | self.temp.lines()

    def sort_key(self) -> tuple:
        return (self.gl.sort_key(), self.temp.sort_key(), self.dualized)

    def __str__(self) -> str:
        body = f"L({self.gl}; {self.temp})"
        return f"dual[{body}]" if self.dualized else body

    def _json_fields(self) -> dict:
        out = {"gl": self.gl, "temp": self.temp}
        if self.dualized:
            out["dualized"] = True
        return out


def contragredient_datum(d: LanglandsDatum, ctx: Context = DEFAULT_CONTEXT) -> LanglandsDatum:
    """Symbol-level contragredient: keep segments (selfdual lines), flip sigma."""
    for line in d.lines():
        ctx.require_selfdual(line)
    return LanglandsDatum(d.gl, _flip_sigma(d.temp), d.dualized)


def _flip_sigma(t: TemperedSymbol | BaseSymbol) -> TemperedSymbol | BaseSymbol:
    """A tempered or base symbol with its sigma label dualized."""
    if isinstance(t, TempBase):
        return TempBase(_flip_sigma(t.base))
    if isinstance(t, IndTemp):
        return IndTemp(t.segs, _flip_sigma(t.inner))
    return replace(t, sigma=dual_sigma(t.sigma))


# ---------------------------------------------------------------------------
# Exponent vectors and the dominance order
# ---------------------------------------------------------------------------

def exponent_vector(gl: Multisegment, total: int) -> Tuple[HalfInt, ...]:
    """Centers in weakly decreasing order, one entry per support point, padded
    with zeros (the tempered block) up to ``total``."""
    entries = []
    for s in gl:  # canonical order is descending center already
        entries.extend([s.center] * s.length)
    entries.sort(key=lambda h: -h.num2)
    if len(entries) > total:
        raise DatumError(
            f"exponent vector of size {len(entries)} does not fit total {total}"
        )
    entries.extend([hi(0)] * (total - len(entries)))
    return tuple(entries)


def dominates(v: Tuple[HalfInt, ...], w: Tuple[HalfInt, ...]) -> bool:
    """Prefix-sum dominance: v <= w iff every prefix sum of v is <= that of w."""
    if len(v) != len(w):
        raise DatumError("exponent vectors must have equal length")
    acc_v = hi(0)
    acc_w = hi(0)
    for x, y in zip(v, w):
        acc_v = acc_v + x
        acc_w = acc_w + y
        if not (acc_v <= acc_w):
            return False
    return True
