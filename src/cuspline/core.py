"""Core combinatorial carriers: lines, segments, multisegments, formal sums.

A *line* names a cuspidal family {nu^x rho : x in (1/2)Z}; only the label, a
selfduality flag and (optionally) the point of reducibility alpha are tracked.
A *segment* [b, e] on a line is a nonempty interval of half-integer exponents
with integer length e - b + 1.  The empty segment is represented by ``None``
(a marker, never a value stored inside multisegments).  A *multisegment* is a
finite multiset of segments kept in a canonical order.  Both are
hash-consed: segments in a table that nothing empties, each with a prime
id local to the process (a segment pickles by its fields), and multisegments
in a weak intern table (``hash_cons``, which the module-side symbols of
``classical`` share) keyed on the product of their segments' primes.  So
equal values are one object, dict keys hash and compare by identity, in C,
and a weak table never keeps a dead value alive.  A ``FormalSum`` is a
finitely supported Z-linear combination of hashable keys with no explicit
zero coefficients.  ``LinearElt``, the one element type, is a ``FormalSum``
with one more slot, its rigid basis; its subclasses are the ring,
ring-tensor, module and module-tensor elements, and the linear operations,
written once on ``FormalSum``, keep their kind and basis.
"""
from __future__ import annotations

import itertools
import math
import operator
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Hashable, Iterable, Iterator, Mapping, Optional, Tuple, TypeVar

from .halfint import HalfInt, hi

DEFAULT_LINE = "rho"
MAX_DIGITS = 1000  # far below Python's limit on int-to-text conversion (4300)


class CusplineError(Exception):
    """Base class for all typed errors raised by this package."""


class EmptySegmentError(CusplineError):
    """A segment literal [b, e] with e < b was used where a value is required."""


class NonIntegralLengthError(CusplineError):
    """Segment endpoints must differ by an integer."""


class MixedBasisError(CusplineError):
    """Arithmetic attempted between elements expressed in different rigid bases."""


class LineError(CusplineError):
    """Unknown line, non-selfdual line where selfduality is required, etc."""


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def jsonable(value):
    """The JSON form of ``value``, built deeply: a library value stands for
    its shallow ``_json_fields()`` (a dict whose values may be library
    values, or lists or tuples of them), and a tuple becomes a list."""
    fields = getattr(value, "_json_fields", None)
    if fields is not None:
        value = fields()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


class JsonForm:
    """A value with a JSON form.  Its class lists the shallow fields once:
    ``_JSON_FIELDS`` names the attributes written under their own names,
    after ``"kind": _JSON_KIND`` when that is set; a class whose form is
    not that overrides ``_json_fields()``.  ``to_jsonable()`` is the deep
    form (``jsonable``); the CLI writes the shallow fields directly
    (``cli._json_text``)."""

    __slots__ = ()
    _JSON_KIND: Optional[str] = None
    _JSON_FIELDS: Tuple[str, ...] = ()

    def _json_fields(self) -> dict:
        out = {} if self._JSON_KIND is None else {"kind": self._JSON_KIND}
        for name in self._JSON_FIELDS:
            out[name] = getattr(self, name)
        return out

    to_jsonable = jsonable


# ---------------------------------------------------------------------------
# Lines and contexts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Line(JsonForm):
    """A cuspidal line: identifier, selfduality, optional reducibility point."""

    id: str
    selfdual: bool = True
    alpha: Optional[HalfInt] = None

    def _json_fields(self) -> dict:
        out: dict = {"id": self.id, "selfdual": self.selfdual}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


@dataclass(frozen=True)
class Context(JsonForm):
    """Ambient data for classical-side computations.

    ``sigma`` is an opaque label for the fixed cuspidal representation of the
    classical group tower; ``lines`` maps line ids to their metadata.  Lines
    never referenced in ``lines`` are treated as selfdual with unknown alpha.
    """

    sigma: str = "sigma"
    lines: Mapping[str, Line] = field(default_factory=dict)

    def line(self, line_id: str) -> Line:
        return self.lines.get(line_id, Line(line_id))

    def require_selfdual(self, line_id: str) -> Line:
        ln = self.line(line_id)
        if not ln.selfdual:
            raise LineError(f"line {line_id!r} is not selfdual")
        return ln

    def with_line(self, line: Line) -> "Context":
        lines = dict(self.lines)
        lines[line.id] = line
        return Context(self.sigma, lines)

    def _json_fields(self) -> dict:
        return {"sigma": self.sigma, "lines": [self.lines[k] for k in sorted(self.lines)]}


DEFAULT_CONTEXT = Context()


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

class _Ref(weakref.ref):
    """A weak reference to a hash-consed value that knows its table and key."""

    __slots__ = ("table", "key")


def _forget(ref: _Ref, _remove=_remove_dead_weakref) -> None:
    # removes the entry only while it still holds a dead reference: a value
    # interned again under the key since stays
    _remove(ref.table, ref.key)


_new = object.__new__


def _enter(table: Dict[Hashable, _Ref], key: Hashable, out) -> None:
    """Enter the new object ``out`` in ``table`` under ``key``; its entry
    leaves when it dies."""
    ref = _Ref(out, _forget)
    ref.table, ref.key = table, key
    table[key] = ref


def hash_cons(table: Dict[Hashable, _Ref], key: Hashable, cls: type, **fields):
    """The one live ``cls`` object held in ``table`` under ``key`` (which
    fixes its value), made with the attribute values ``fields`` and entered
    on a miss.  Callers validate first, so a rejected value never enters a
    table."""
    ref = table.get(key)
    out = ref and ref()
    if out is None:
        out = _new(cls)
        for name, value in fields.items():
            object.__setattr__(out, name, value)
        _enter(table, key, out)
    return out


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------

def _primes() -> Iterator[int]:
    """2, 3, 5, 7, ...: an incremental sieve of Eratosthenes over the odd
    numbers.  ``crossed`` maps the next odd multiple still to be crossed off
    of each odd prime p to its step 2p.  A prime enters when the candidates
    reach its square, and is read from a second copy of this sequence, so
    the table holds only the primes up to the root of the candidate."""
    yield from (2, 3, 5, 7)
    crossed: Dict[int, int] = {}
    roots = _primes()
    next(roots)
    p = next(roots)  # 3: the next prime whose multiples are not yet crossed
    square = p * p
    for n in itertools.count(9, 2):
        step = crossed.pop(n, None)
        if step is None:
            if n < square:
                yield n
                continue
            step = 2 * p  # n is p's square: start crossing off p's multiples
            p = next(roots)
            square = p * p
        n += step
        while n in crossed:
            n += step
        crossed[n] = step


# (b.num2, e.num2, line) -> the one segment of that value: grows with the
# distinct segment values seen, and nothing empties it (not ``clear_caches``),
# so a live segment and a new equal one are one object and an id (the next
# prime, taken when the value enters) keeps naming one value
_SEGMENTS: Dict[tuple, "Segment"] = {}
_NEXT_PRIME = _primes().__next__


@dataclass(frozen=True, eq=False, init=False)
class Segment(JsonForm):
    """A nonempty segment [b, e] of exponents on a line (b <= e, e - b integer),
    hash-consed: equal segments are one object, compared and hashed by identity."""

    b: HalfInt
    e: HalfInt
    line: str  # defaults in __new__, the one constructor

    def __new__(cls, b: HalfInt, e: HalfInt, line: str = DEFAULT_LINE):
        if b.__class__ is not HalfInt or e.__class__ is not HalfInt:
            raise TypeError("segment endpoints must be HalfInt")
        b2, e2 = b.num2, e.num2
        out = _SEGMENTS.get((b2, e2, line))
        if out is None:  # a new value: validate it, then enter it for good
            if e2 < b2:
                raise EmptySegmentError(f"empty segment literal [{b},{e}]")
            if (e2 - b2) % 2:
                raise NonIntegralLengthError(f"[{b},{e}] has non-integer length")
            out = _new(cls)
            # canonical multisegment order: descending center, then
            # descending length, then line id; the key fixes the segment,
            # and so does its id
            out.__dict__.update(b=b, e=e, line=line, _id=_NEXT_PRIME(),
                                _sort_key=(-((b2 + e2) // 2), (b2 - e2) // 2 - 1, line))
            _SEGMENTS[b2, e2, line] = out
        return out

    def __reduce__(self):  # by the fields: an id is local to its process
        return (Segment, (self.b, self.e, self.line))

    # -- basic invariants -------------------------------------------------
    @property
    def length(self) -> int:
        return (self.e.num2 - self.b.num2) // 2 + 1

    @property
    def center(self) -> HalfInt:
        return HalfInt((self.b.num2 + self.e.num2) // 2)

    def exponents(self) -> Tuple[HalfInt, ...]:
        return tuple(self.b + k for k in range(self.length))

    def __contains__(self, x: HalfInt) -> bool:
        return self.b <= x <= self.e

    # -- derived segments (None encodes the empty marker) -----------------
    def trimmed_top(self) -> Optional["Segment"]:
        """[b, e-1]; None when the segment is a singleton."""
        if self.length == 1:
            return None
        return Segment(self.b, self.e - 1, self.line)

    def dual(self) -> "Segment":
        """Contragredient [-e, -b] on the same (selfdual) line."""
        return Segment(-self.e, -self.b, self.line)

    # -- ordering / presentation ------------------------------------------
    def sort_key(self) -> tuple:
        return self._sort_key

    def __str__(self) -> str:
        return f"[{self.b},{self.e}]@{self.line}"

    _JSON_FIELDS = ("line", "b", "e")


def seg(b, e, line: str = DEFAULT_LINE) -> Segment:
    """Convenience constructor accepting ints / strings for endpoints."""
    return Segment(hi(b), hi(e), line)


def seg_opt(b, e, line: str = DEFAULT_LINE) -> Optional[Segment]:
    """Like :func:`seg` but returns the empty marker None when e = b - 1."""
    b, e = hi(b), hi(e)
    if e == b - 1:
        return None
    return Segment(b, e, line)


def linked_union(s1: Segment, s2: Segment) -> Optional[Segment]:
    """Union of two segments when they are linked or overlapping on one line.

    Returns None when the union is not a segment (different lines, gap > 1,
    or one contains the other with no extension -- containment still yields
    the bigger one, which is the union).
    """
    if s1.line != s2.line:
        return None
    lo, hia = (s1, s2) if (s1.b, s1.e) <= (s2.b, s2.e) else (s2, s1)
    if hia.b > lo.e + 1:
        return None
    return Segment(lo.b, max(lo.e, hia.e), s1.line)


# ---------------------------------------------------------------------------
# Multisegments
# ---------------------------------------------------------------------------

class Multisegment(JsonForm):
    """A finite multiset of segments in canonical order (immutable, hash-consed).

    Equal multisegments are one object: every constructor returns the value
    held in a ``hash_cons`` table, keyed on the product of the segments'
    prime ids, which unique factorisation makes exact.  ``==`` and ``hash``
    are therefore the C-level identity ones, so the dicts of the restriction
    code hash and compare their keys without calling Python, a sum looks up
    the product of two ints and ``remove`` divides by one prime.
    """

    __slots__ = ("segments", "_sig", "__weakref__")

    def __new__(cls, segments: Iterable[Segment] = ()):
        segs = [s for s in segments if s is not None]  # empty markers vanish
        for s in segs:
            if not isinstance(s, Segment):
                raise TypeError(f"not a segment: {s!r}")
        segs.sort(key=_SORT_KEY)
        sig = math.prod(map(_ID, segs))
        return hash_cons(_INTERNED, sig, Multisegment, segments=tuple(segs), _sig=sig)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Multisegment is immutable")

    def __reduce__(self):  # immutability breaks default pickling
        return (Multisegment, (self.segments,))

    # -- container protocol ------------------------------------------------
    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __add__(self, other: "Multisegment") -> "Multisegment":
        if not other.segments:
            return self
        if not self.segments:
            return other
        sig = self._sig * other._sig
        ref = _INTERNED.get(sig)
        out = ref and ref()
        if out is None:  # a new value: both runs are sorted, Timsort merges them
            out = _new(Multisegment)
            _SET_SEGMENTS(out, tuple(sorted(self.segments + other.segments, key=_SORT_KEY)))
            _SET_SIG(out, sig)
            _enter(_INTERNED, sig, out)
        return out

    def remove(self, s: Segment) -> "Multisegment":
        """Multiset-remove one copy of s (KeyError if absent)."""
        try:
            i = self.segments.index(s)
        except ValueError:
            raise KeyError(f"segment {s} not in {self}")
        sig = self._sig // s._id
        segments = self.segments[:i] + self.segments[i + 1:]
        return hash_cons(_INTERNED, sig, Multisegment, segments=segments, _sig=sig)

    # -- invariants --------------------------------------------------------
    @property
    def size(self) -> int:
        """Total support size (the grading degree)."""
        return sum(s.length for s in self.segments)

    def support(self) -> Dict[Tuple[str, HalfInt], int]:
        """Multiset of cuspidal points (line, exponent) -> multiplicity."""
        out: Dict[Tuple[str, HalfInt], int] = {}
        for s in self.segments:
            for x in s.exponents():
                key = (s.line, x)
                out[key] = out.get(key, 0) + 1
        return out

    def lines(self) -> frozenset:
        # built on each call, in C: most calls are the first on their
        # object, and a kept set would cost more on those than it saves
        return frozenset(map(_LINE, self.segments))

    def map_segments(self, f: Callable[[Segment], Optional[Segment]]) -> "Multisegment":
        return Multisegment(f(s) for s in self.segments)

    # -- ordering / presentation ------------------------------------------
    def sort_key(self) -> tuple:
        return tuple(map(_SORT_KEY, self.segments))

    def __str__(self) -> str:
        if not self.segments:
            return "1"
        return "{" + ", ".join(str(s) for s in self.segments) + "}"

    def __repr__(self) -> str:
        return f"Multisegment({list(self.segments)!r})"

    _JSON_FIELDS = ("segments",)


_INTERNED: Dict[int, _Ref] = {}  # the multisegments, by their prime products
_LINE = operator.attrgetter("line")
_SORT_KEY = operator.attrgetter("_sort_key")
_ID = operator.attrgetter("_id")
_SET_SEGMENTS = Multisegment.segments.__set__
_SET_SIG = Multisegment._sig.__set__


EMPTY_MS = Multisegment()


def ms(*segments: Optional[Segment]) -> Multisegment:
    return Multisegment(segments)


# ---------------------------------------------------------------------------
# Formal sums
# ---------------------------------------------------------------------------

K = TypeVar("K")


class FormalSum(JsonForm, Generic[K]):
    """Finitely supported Z-linear combination of hashable keys.

    Keys are expected to expose ``sort_key()`` for canonical iteration order
    (tuples of such keys are handled structurally).  Zero coefficients are
    never stored.  ``+``, ``-``, scaling, ``map_keys`` and ``filter`` keep
    the kind: they need one (``_require_same``) and build through ``_with``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[K, int]] = None):
        clean: Dict[K, int] = {}
        for k, c in (coeffs or {}).items():
            if not isinstance(c, int) or isinstance(c, bool):
                raise TypeError(f"coefficient {c!r} is not an int")
            if c != 0:  # a mapping's keys are distinct: nothing to merge
                clean[k] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # immutability breaks default pickling
        return (FormalSum, (self.coeffs,))

    @staticmethod
    def _raw(coeffs: Dict[K, int]) -> "FormalSum[K]":
        """Trusted constructor: int coefficients, zeros already stripped."""
        out = object.__new__(FormalSum)
        _SET_COEFFS(out, coeffs)
        return out

    def _with(self, coeffs: Dict[K, int]) -> "FormalSum[K]":
        """Same kind, new coefficients, trusted but for zeros: a plain sum."""
        return FormalSum._raw(_nonzero(coeffs))

    def _require_same(self, other: "FormalSum") -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot combine {type(self).__name__} and {type(other).__name__}"
            )

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "FormalSum[K]":
        return FormalSum()

    @staticmethod
    def lift(key: K, coeff: int = 1) -> "FormalSum[K]":
        return FormalSum._raw(_lifted(key, coeff))

    @staticmethod
    def from_terms(terms: Iterable[Tuple[K, int]]) -> "FormalSum[K]":
        out: Dict[K, int] = {}
        for k, c in terms:
            out[k] = out.get(k, 0) + c
        return FormalSum(out)

    # -- linear structure --------------------------------------------------
    def __add__(self, other: "FormalSum[K]"):
        self._require_same(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return self._with(out)

    def __sub__(self, other: "FormalSum[K]"):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __rmul__(self, scalar: int):
        if not isinstance(scalar, int) or isinstance(scalar, bool):
            raise TypeError("scalars must be ints")
        return self._with({k: scalar * c for k, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("FormalSum is not hashable")

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, key: K) -> int:
        return self.coeffs.get(key, 0)

    def __contains__(self, key: K) -> bool:  # membership of the support
        return key in self.coeffs

    # not the sequence protocol, which ``__getitem__`` would otherwise
    # imply: iterating would yield 0 forever
    __iter__ = None

    # -- structural transforms --------------------------------------------
    def map_keys(self, f: Callable[[K], K]):
        out: Dict = {}
        for k, c in self.coeffs.items():
            nk = f(k)
            out[nk] = out.get(nk, 0) + c
        return self._with(out)

    def filter(self, pred: Callable[[K], bool]):
        return self._with({k: c for k, c in self.coeffs.items() if pred(k)})

    def bind(self, f: Callable[[K], "FormalSum"]) -> "FormalSum":
        """Linear extension of a key -> FormalSum map (a plain sum)."""
        out: Dict = {}
        for k, c in self.coeffs.items():
            for nk, nc in f(k).coeffs.items():
                out[nk] = out.get(nk, 0) + c * nc
        return FormalSum._raw(_nonzero(out))

    def combine(self, other: "FormalSum", f: Callable[[K, K], K]) -> "FormalSum":
        """Bilinear extension of a (key, key) -> key map (a plain sum)."""
        out: Dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                nk = f(k1, k2)
                out[nk] = out.get(nk, 0) + c1 * c2
        return FormalSum._raw(_nonzero(out))

    # -- canonical iteration / presentation --------------------------------
    def sorted_terms(self) -> Iterable[Tuple[K, int]]:
        return sorted(self.coeffs.items(), key=lambda kc: _key_sort(kc[0]))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in self.sorted_terms():
            label = _key_str(k)
            if c == 1:
                parts.append(label)
            elif c == -1:
                parts.append(f"-{label}")
            else:
                parts.append(f"{c}*{label}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"FormalSum({self.coeffs!r})"

    def _json_fields(self) -> dict:
        return {"terms": [{"coeff": c, "key": k} for k, c in self.sorted_terms()]}


def _lifted(key, coeff: int) -> Dict:
    """``{key: coeff}`` without a zero; a coefficient not an int raises."""
    if coeff.__class__ is int:  # trusted: an exact int needs no loop
        return {key: coeff} if coeff else {}
    return FormalSum({key: coeff}).coeffs


def _nonzero(coeffs: Dict[K, int]) -> Dict[K, int]:
    """A dict its caller made and drops, without zeros: kept as it is when
    it has none (the usual case), else rebuilt in its order."""
    if 0 in coeffs.values():
        return {k: c for k, c in coeffs.items() if c != 0}
    return coeffs


# ---------------------------------------------------------------------------
# Elements: the four element kinds
# ---------------------------------------------------------------------------

class LinearElt(FormalSum):
    """A ``FormalSum`` of keys of one kind, read in one rigid basis.

    Subclasses are the four element kinds; each lists the bases it may be
    read in (``None`` only, on the module side).  ``+`` and ``-`` need one
    kind (else ``TypeError``) and one basis (else ``MixedBasisError``).
    Elements are immutable and unhashable, and never equal a plain sum.
    """

    __slots__ = ("basis",)
    BASES: Tuple[Optional[str], ...] = (None,)

    def __init__(self, basis: Optional[str], terms: FormalSum):
        if basis not in self.BASES:
            raise ValueError(f"unknown basis {basis!r}")
        _SET_BASIS(self, basis)
        _SET_COEFFS(self, terms.coeffs)

    def __reduce__(self):
        return (_linear_elt, (type(self), self.basis, self.coeffs))

    @property
    def terms(self) -> FormalSum:
        """The coefficients as a plain sum, sharing the dict."""
        return FormalSum._raw(self.coeffs)

    def _with(self, coeffs):
        return _linear_elt(type(self), self.basis, _nonzero(coeffs))

    def _require_same(self, other: "LinearElt") -> None:
        super()._require_same(other)
        if other.basis != self.basis:
            raise MixedBasisError(
                f"cannot combine {self.basis}-basis and {other.basis}-basis elements"
            )

    def __eq__(self, other) -> bool:  # and so unhashable
        return super().__eq__(other) and self.basis == other.basis

    def __str__(self) -> str:
        if self.basis is None:
            return super().__str__()
        return f"{self.basis[0]}:{super().__str__()}"  # "d:" or "z:"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.basis!r}, {super().__repr__()})"

    def _json_fields(self) -> dict:
        if self.basis is None:
            return super()._json_fields()
        return {"basis": self.basis, **super()._json_fields()}


def _linear_elt(cls, basis: Optional[str], coeffs: Dict) -> LinearElt:
    """Trusted constructor of any element kind (also the unpickler)."""
    out = object.__new__(cls)
    _SET_BASIS(out, basis)
    _SET_COEFFS(out, coeffs)
    return out


# slot setters of the constructors: they skip the generic
# ``object.__setattr__`` lookup on the hot single-key path
_SET_COEFFS = FormalSum.coeffs.__set__
_SET_BASIS = LinearElt.basis.__set__


def _key_sort(key) -> tuple:
    if isinstance(key, tuple):
        return tuple(_key_sort(k) for k in key)
    sk = getattr(key, "sort_key", None)
    if sk is not None:
        return sk()
    return (repr(key),)


def _key_str(key) -> str:
    if isinstance(key, tuple):
        return "(" + " (x) ".join(_key_str(k) for k in key) + ")"
    return str(key)
