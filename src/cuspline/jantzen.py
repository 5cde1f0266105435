"""Support partitions across cuspidal lines, and split/recombine maps.

Every symbol in this package has a cuspidal support spread over named lines,
and distinct lines never interact: no segment mixes lines, and restriction
factors line by line.  Splitting the ambient lines into two disjoint groups
therefore slices each symbol into two independent single-group projections,
and the slicing commutes with restriction, grading, contragredient, and
induction.  This module provides:

* :class:`LinePartition` — a two-sided partition of line ids;
* filtered restriction functionals keeping only the terms whose left factor
  lives on one side and whose right factor on the other;
* the projection/recombination pair on Langlands-style data, together with a
  per-line bundle (:class:`SplitDatum`);
* relabeling of a datum from one line onto another line with the same
  reducibility point.

All maps are exact and act on symbols; nothing here decides irreducibility.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, Optional, Tuple, Union

from .core import (
    Context,
    CusplineError,
    DEFAULT_CONTEXT,
    Multisegment,
    Segment,
    _LINE,
)
from .glhopf import GLElt, TensorGL, gl_twisted_part, twisted_comult
from .halfint import hi
from .classical import (
    BaseSymbol,
    ClassElt,
    CoStGenSymbol,
    CuspSymbol,
    DeltaPM,
    IndTemp,
    InducedSymbol,
    LanglandsDatum,
    TauPM,
    TempBase,
    TemperedSymbol,
    TensorClass,
    module_comult,
    rtimes,
    temp_sigma,
)


class PartitionError(CusplineError):
    """Line partition malformed, or a symbol is not supported inside it."""


class TemperedProjectionError(CusplineError):
    """The tempered part cannot be projected within this symbol set."""


class TemperedCombineError(CusplineError):
    """The two tempered parts cannot be merged within this symbol set."""


class TransportError(CusplineError):
    """Line relabeling refused (alpha mismatch, alpha 0, or bad support)."""


# ---------------------------------------------------------------------------
# Partitions of lines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinePartition:
    """Two disjoint groups of line ids.

    Because segments never mix lines and restriction works line by line, any
    such partition is automatically `regular`: no interaction is possible
    between the two sides.
    """

    part1: FrozenSet[str]
    part2: FrozenSet[str]

    def __post_init__(self):
        object.__setattr__(self, "part1", frozenset(self.part1))
        object.__setattr__(self, "part2", frozenset(self.part2))
        overlap = self.part1 & self.part2
        if overlap:
            raise PartitionError(
                f"partition sides overlap on {sorted(overlap)}"
            )

    @staticmethod
    def around(line_id: str, ctx: Context) -> "LinePartition":
        """The partition separating one context line from all the others."""
        if line_id not in ctx.lines:
            raise PartitionError(f"line {line_id!r} is not in the context")
        rest = frozenset(ctx.lines) - {line_id}
        return LinePartition(frozenset({line_id}), rest)

    @property
    def all_lines(self) -> FrozenSet[str]:
        return self.part1 | self.part2

    def lines(self, side: int) -> FrozenSet[str]:
        if side == 1:
            return self.part1
        if side == 2:
            return self.part2
        raise PartitionError(f"side must be 1 or 2, got {side!r}")

    @staticmethod
    def other(side: int) -> int:
        if side not in (1, 2):
            raise PartitionError(f"side must be 1 or 2, got {side!r}")
        return 3 - side

    def side_of(self, line_id: str) -> int:
        if line_id in self.part1:
            return 1
        if line_id in self.part2:
            return 2
        raise PartitionError(f"line {line_id!r} is on neither side")

    def require_supported(self, lines: Iterable[str], what: str) -> None:
        missing = frozenset(lines) - self.all_lines
        if missing:
            raise PartitionError(
                f"{what} is supported on lines outside the partition: "
                f"{sorted(missing)}"
            )

    def to_jsonable(self) -> dict:
        return {"part1": sorted(self.part1), "part2": sorted(self.part2)}


# ---------------------------------------------------------------------------
# Support of ring and module elements
# ---------------------------------------------------------------------------

def support_lines(x: Union[GLElt, ClassElt]) -> FrozenSet[str]:
    """The line ids a ring or module element is supported on."""
    return frozenset().union(*(key.lines() for key in x.terms.coeffs))


# ---------------------------------------------------------------------------
# Filtered restriction functionals
# ---------------------------------------------------------------------------

def _one_sided(
    t: Union[TensorGL, TensorClass], p: LinePartition, side: int
) -> Union[TensorGL, TensorClass]:
    """The terms of a tensor whose left factor lies on ``side`` and whose
    right factor lies on the other side.  A left factor's lines are tested in
    C with no set (they seldom repeat); a right factor's verdict is memoized."""
    keep_left, keep_right = p.lines(side), p.lines(p.other(side))
    right_ok: dict = {}

    def keep(key) -> bool:
        ok = right_ok.get(key[1])
        if ok is None:
            ok = right_ok[key[1]] = key[1].lines() <= keep_right
        return ok and keep_left.issuperset(map(_LINE, key[0].segments))

    return t.filter(keep)


def module_comult_filtered(
    y: ClassElt, p: LinePartition, side: int, ctx: Context = DEFAULT_CONTEXT
) -> TensorClass:
    """Terms of the module restriction with the left factor on one side.

    Keeps exactly the terms ``left (x) right`` of :func:`module_comult` whose
    left support lies in ``p.lines(side)`` and whose right support lies in the
    other side (the base over sigma carries no line and always qualifies).
    """
    p.require_supported(support_lines(y), "module element")
    return _one_sided(module_comult(y, ctx), p, side)


def twisted_comult_filtered(
    x: GLElt, p: LinePartition, side: int, ctx: Context = DEFAULT_CONTEXT
) -> TensorGL:
    """Terms of the twisted ring restriction with the left factor on one side."""
    p.require_supported(support_lines(x), "ring element")
    return _one_sided(twisted_comult(x, ctx), p, side)


def filtered_identity_sides(
    x: GLElt, y: ClassElt, p: LinePartition, ctx: Context = DEFAULT_CONTEXT
) -> Tuple[TensorClass, TensorClass]:
    """Both sides of the one-sided restriction identity for a split product.

    For ``x`` supported on side 1 and ``y`` on side 2, the side-1 filtered
    restriction of ``x |x| y`` equals the full twisted ring part of ``x``
    tensored against ``y`` unchanged.  Returns (filtered side, product side)
    so callers can assert equality.
    """
    if not support_lines(x) <= p.part1:
        raise PartitionError("left factor must be supported on side 1")
    if not support_lines(y) <= p.part2:
        raise PartitionError("right factor must be supported on side 2")
    lhs = module_comult_filtered(rtimes(x, y), p, 1, ctx)
    ring_part = gl_twisted_part(x, ctx)
    pairs = ring_part.terms.combine(y.terms, lambda m, sym: (m, sym))
    return lhs, TensorClass(pairs)


# ---------------------------------------------------------------------------
# Tempered-symbol projection and combination
# ---------------------------------------------------------------------------

def _unit_tempered(sigma: str) -> TempBase:
    return TempBase(CuspSymbol(sigma))


def _is_unit_tempered(t: TemperedSymbol) -> bool:
    return isinstance(t, TempBase) and isinstance(t.base, CuspSymbol)


def _flatten_tempered(t: TemperedSymbol) -> Tuple[Tuple[Segment, ...], TemperedSymbol]:
    """Peel nested induction labels into (symmetric segments, core)."""
    segs: list = []
    while isinstance(t, IndTemp):
        segs.extend(t.segs)
        t = t.inner
    return tuple(segs), t


def canonical_tempered(t: TemperedSymbol) -> TemperedSymbol:
    """Flatten nested induction labels; drop empty ones."""
    segs, core = _flatten_tempered(t)
    if not segs:
        return core
    return IndTemp(segs, core)


def _project_tempered(t: TemperedSymbol, keep: FrozenSet[str]) -> TemperedSymbol:
    segs, core = _flatten_tempered(t)
    kept = tuple(s for s in segs if s.line in keep)
    if isinstance(core, TempBase):
        base = core.base
        if isinstance(base, CoStGenSymbol):
            raise TemperedProjectionError(
                "co-Steinberg atoms are not tempered symbols; cannot project"
            )
        core_p = core if base.lines() <= keep else _unit_tempered(base.sigma)
    elif isinstance(core, (TauPM, DeltaPM)):
        core_p = core if core.lines() <= keep else _unit_tempered(core.sigma)
    else:  # pragma: no cover - exhaustive over the symbol union
        raise TemperedProjectionError(f"cannot project {type(core).__name__}")
    if not kept:
        return core_p
    return IndTemp(kept, core_p)


def _combine_tempered(t1: TemperedSymbol, t2: TemperedSymbol) -> TemperedSymbol:
    segs1, core1 = _flatten_tempered(t1)
    segs2, core2 = _flatten_tempered(t2)
    if _is_unit_tempered(core1):
        core = core2
    elif _is_unit_tempered(core2):
        core = core1
    else:
        raise TemperedCombineError(
            "both tempered cores are nontrivial; the merged symbol has no "
            "label in this symbol set"
        )
    segs = segs1 + segs2
    if not segs:
        return core
    return IndTemp(segs, core)


# ---------------------------------------------------------------------------
# Projection / recombination of Langlands-style data
# ---------------------------------------------------------------------------

def project_datum(d: LanglandsDatum, p: LinePartition, side: int) -> LanglandsDatum:
    """Restrict a datum to one side of the partition.

    Keeps the general-linear segments on that side's lines at unchanged
    exponents, and projects the tempered part (the other side collapses onto
    sigma).  Inverse, jointly over both sides, to :func:`combine_data`.
    """
    p.require_supported(d.lines(), "datum")
    keep = p.lines(side)
    gl = Multisegment(s for s in d.gl if s.line in keep)
    temp = _project_tempered(d.temp, keep)
    return LanglandsDatum(gl, temp, d.dualized)


def split_datum(
    d: LanglandsDatum, p: LinePartition
) -> Tuple[LanglandsDatum, LanglandsDatum]:
    """Both one-sided projections of a datum."""
    return project_datum(d, p, 1), project_datum(d, p, 2)


def combine_data(
    d1: LanglandsDatum,
    d2: LanglandsDatum,
    p: Optional[LinePartition] = None,
) -> LanglandsDatum:
    """Merge two data with disjoint line supports into one.

    Exponent-wise, the merged general-linear list is the multiset union (equal
    exponents from either side sit side by side); the tempered parts merge as
    long as at most one of them has a nontrivial core.  The merged degree is
    the sum of the two degrees.
    """
    if p is not None:
        if not d1.lines() <= p.part1:
            raise PartitionError("first datum must be supported on side 1")
        if not d2.lines() <= p.part2:
            raise PartitionError("second datum must be supported on side 2")
    else:
        overlap = d1.lines() & d2.lines()
        if overlap:
            raise PartitionError(
                f"data share support lines {sorted(overlap)}; cannot merge"
            )
    s1, s2 = temp_sigma(d1.temp), temp_sigma(d2.temp)
    if s1 != s2:
        raise TemperedCombineError(
            f"tempered parts sit over different sigma labels {s1!r} and {s2!r}"
        )
    if d1.dualized != d2.dualized:
        raise TemperedCombineError(
            "cannot merge a duality-transported datum with a plain one"
        )
    gl = d1.gl + d2.gl
    temp = _combine_tempered(d1.temp, d2.temp)
    return LanglandsDatum(gl, temp, d1.dualized)


@dataclass(frozen=True)
class SplitDatum:
    """The bundle of per-line projections of one datum."""

    sigma: str
    parts: Tuple[Tuple[str, LanglandsDatum], ...]  # (line id, projection)

    @staticmethod
    def split(d: LanglandsDatum, ctx: Context = DEFAULT_CONTEXT) -> "SplitDatum":
        lines = sorted(ctx.lines)
        missing = d.lines() - frozenset(lines)
        if missing:
            raise PartitionError(
                f"datum uses lines missing from the context: {sorted(missing)}"
            )
        parts = tuple(
            (line_id, project_datum(d, LinePartition.around(line_id, ctx), 1))
            for line_id in lines
        )
        return SplitDatum(temp_sigma(d.temp), parts)

    def part(self, line_id: str) -> LanglandsDatum:
        for lid, d in self.parts:
            if lid == line_id:
                return d
        raise PartitionError(f"no projection recorded for line {line_id!r}")

    def combine(self) -> LanglandsDatum:
        out = LanglandsDatum(Multisegment(()), _unit_tempered(self.sigma))
        for _line, d in self.parts:
            out = combine_data(out, d)
        return out

    def to_jsonable(self) -> dict:
        return {
            "sigma": self.sigma,
            "parts": {lid: d.to_jsonable() for lid, d in self.parts},
        }


# ---------------------------------------------------------------------------
# Transport between lines with equal reducibility points
# ---------------------------------------------------------------------------

def _relabel(t: Union[TemperedSymbol, BaseSymbol], dst: str, sigma: str):
    """A tempered or base symbol moved onto line ``dst`` over ``sigma``."""
    if isinstance(t, TempBase):
        return TempBase(_relabel(t.base, dst, sigma))
    if isinstance(t, IndTemp):
        segs = tuple(replace(s, line=dst) for s in t.segs)
        return IndTemp(segs, _relabel(t.inner, dst, sigma))
    if isinstance(t, DeltaPM):
        return replace(t, seg=replace(t.seg, line=dst), sigma=sigma)
    if isinstance(t, CuspSymbol):
        return CuspSymbol(sigma)
    return replace(t, line=dst, sigma=sigma)  # TauPM or a Steinberg-type atom


def require_transportable(src: str, dst: str, ctx: Context) -> None:
    """Check the two lines admit a canonical relabeling between them.

    Both must be selfdual with the same declared nonzero reducibility point:
    equal points make the relabeling canonical, while at point 0 two equally
    good relabelings exist and neither is preferred, so that case is refused.
    """
    if src == dst:
        raise TransportError("source and target lines must differ")
    line_src = ctx.line(src)
    line_dst = ctx.line(dst)
    for line in (line_src, line_dst):
        if not line.selfdual:
            raise TransportError(f"line {line.id!r} is not selfdual")
        if line.alpha is None:
            raise TransportError(
                f"line {line.id!r} has no declared reducibility point"
            )
    if line_src.alpha != line_dst.alpha:
        raise TransportError(
            f"reducibility points differ: {line_src.alpha} on {src!r} vs "
            f"{line_dst.alpha} on {dst!r}"
        )
    if line_src.alpha == hi(0):
        raise TransportError(
            "at reducibility point 0 the relabeling is not canonical; refused"
        )


def transport_line(
    d: LanglandsDatum,
    src: str,
    dst: str,
    ctx: Context = DEFAULT_CONTEXT,
    sigma_to: Optional[str] = None,
) -> LanglandsDatum:
    """Relabel a single-line datum onto another line, exponents unchanged.

    See :func:`require_transportable` for when the relabeling is allowed.
    ``sigma_to`` optionally renames the sigma label at the same time.
    """
    require_transportable(src, dst, ctx)
    if not d.lines() <= frozenset({src}):
        raise TransportError(
            f"datum is not supported on the source line {src!r}"
        )
    sigma = sigma_to if sigma_to is not None else temp_sigma(d.temp)
    gl = d.gl.map_segments(lambda s: replace(s, line=dst))
    return LanglandsDatum(gl, _relabel(d.temp, dst, sigma), d.dualized)


def transport_gl(
    x: GLElt, src: str, dst: str, ctx: Context = DEFAULT_CONTEXT
) -> GLElt:
    """Relabel a single-line ring element onto another line."""
    require_transportable(src, dst, ctx)
    if not support_lines(x) <= frozenset({src}):
        raise TransportError(
            f"element is not supported on the source line {src!r}"
        )
    return x.map_keys(
        lambda m: m.map_segments(lambda s: replace(s, line=dst))
    )


def transport_class(
    y: ClassElt,
    src: str,
    dst: str,
    ctx: Context = DEFAULT_CONTEXT,
    sigma_to: Optional[str] = None,
) -> ClassElt:
    """Relabel a single-line module element onto another line."""
    require_transportable(src, dst, ctx)
    if not support_lines(y) <= frozenset({src}):
        raise TransportError(
            f"element is not supported on the source line {src!r}"
        )

    def relabel(sym: InducedSymbol) -> InducedSymbol:
        sigma = sigma_to if sigma_to is not None else sym.base.sigma
        gl = sym.gl.map_segments(lambda s: replace(s, line=dst))
        return InducedSymbol(gl, _relabel(sym.base, dst, sigma))

    return y.map_keys(relabel)
