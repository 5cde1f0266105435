"""Subquotient data on a cuspidal line and the counting certificates.

The ambient object is the induced chain
``nu^(alpha+n) x ... x nu^alpha |x| sigma`` on a selfdual line with
reducibility point alpha.  Its irreducible subquotients are labeled by

* a tiling of the exponent interval [alpha, alpha+n] into consecutive
  blocks (a cut bitmask), and
* a flag telling whether the lowest block is attached to sigma as a
  square-integrable atom (``bottom=True``) or stays in the general-linear
  Langlands list (``bottom=False``).

That gives ``2^(n+1)`` data.  The duality involution toggles the flag and
complements the cut set.

For every datum other than the two extremes (the full square-integrable
atom and the fully-split Langlands quotient) the module produces a
*witness*: a selfdual product factor pi such that ``pi |x| gamma`` has
length at least 5 while the Jacquet-module multiplicity of
``pi (x) gamma`` is at most 4.  The checks emit auditable step lists; a
step is VERIFIED (a finite computation done here), AXIOM (an input fact of
representation theory, with its citation tag), or failed (a computation
here refuted its claim).

Each datum is certified in one pass.  ``_run_check`` classifies an
eligible datum and certifies the bottom-empty datum behind it: itself in
case A or B, its involution partner in case C, whose report it transports.
``_resolve`` reads that datum's ``_CaseFrame`` (tiling, pivot geometry,
witness), and the steps read the frame in a fixed order: the witness
window, the length steps, then the multiplicity steps.  A check returns its
detail or raises ``_Refuted``, and ``_check`` turns either into a finished
step.  The step generators are lazy; the report reads them with one policy:
a refuted witness-window or length step does not stop the later ones, the
first refuted multiplicity step ends the multiplicity steps (no later check
runs), and a report with a failed step carries no bounds and no counting
conclusion.

The scans of a restriction depend on a few hashable values only, not on
the datum, so each is memoized once per key (``functools.lru_cache``, each
bounded) and shared by every datum with that key: the completion
candidates and the left factor carrying -alpha twice of the witness
restriction, on (witness segment [-aa, aa], alpha) (``_witness_terms``);
the left factors of a base atom's restriction, on the hash-consed atom
(``_left_factors``); the first GL-restriction key of the top-merge
exclusion, on (merged block, doubled c) (``_top_merge_term``); the first
segment of the down-merge exclusion, on (segment, doubled end)
(``_segment_ending``); and the witness window, on (witness keys, alpha, n)
(``_witness_window``).  The report of a bottom-empty datum is memoized on
the datum, the two check flags and the (witness, unit) coefficient
(``_report``), so a case-C datum transports the report its partner already
made.  The context never keys a memo: ``_validate_line`` checks the datum's
line against it before any step runs, every restriction a step reads lies
on that line, and so the memoized bodies take their restrictions in the
default context.  Only the unit pairing reads a restriction per call, in
the caller's context: its witness is read off the datum's cuts
(``_witness_segment``), so a warm check resolves no frame.
"""
from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Context,
    CusplineError,
    DEFAULT_CONTEXT,
    EMPTY_MS,
    JsonForm,
    LineError,
    Multisegment,
    Segment,
    linked_union,
    ms,
)
from .classical import (
    CoStGenSymbol,
    CuspSymbol,
    DatumError,
    DeltaPM,
    LanglandsDatum,
    StGenSymbol,
    TauPM,
    TempBase,
    dominates,
    exponent_vector,
    module_comult_base,
)
from .glhopf import (
    GLElt,
    delta_key,
    gl_twisted_part,
    highest_derivative,
    trim_key,
    twisted_comult,
    zeta_key,
)
from .halfint import HalfInt, hi


class UnsupportedDatumError(CusplineError):
    """Raised when a check is asked about one of the two excluded extremes."""


class CaseTag(enum.Enum):
    GEN_STEINBERG = "gen-steinberg"
    CO_GEN_STEINBERG = "co-gen-steinberg"
    CASE_A = "case-a"
    CASE_B = "case-b"
    CASE_C = "case-c"


VERIFIED = "VERIFIED"
AXIOM = "AXIOM"
FAILED = "FAILED"


@dataclass(frozen=True)
class CertStep(JsonForm):
    label: str
    status: str
    detail: str
    citation: Optional[str] = None

    def render(self) -> str:
        cite = f" ({self.citation})" if self.citation else ""
        return f"[{self.status}]{cite} {self.label}: {self.detail}"

    def _json_fields(self) -> dict:
        out = {"label": self.label, "status": self.status, "detail": self.detail}
        if self.citation:
            out["citation"] = self.citation
        return out


@dataclass(frozen=True)
class CertReport(JsonForm):
    case: CaseTag
    datum: "SubqDatum"
    witness: GLElt
    certificates: Tuple[LanglandsDatum, ...]
    steps: Tuple[CertStep, ...]
    length_bound: Optional[int]
    mult_bound: Optional[int]
    ok: bool
    transported_from: Optional["SubqDatum"] = None

    def render_lines(self) -> List[str]:
        head = f"{self.case.value}: {self.datum}"
        out = [head]
        if self.transported_from is not None:
            out.append(f"  transported from dual datum {self.transported_from}")
        out.append(f"  witness: {self.witness}")
        for cert in self.certificates:
            out.append(f"  certificate: {cert}")
        for step in self.steps:
            out.append(f"  {step.render()}")
        if self.length_bound is not None:
            out.append(f"  length >= {self.length_bound}")
        if self.mult_bound is not None:
            out.append(f"  jacquet multiplicity <= {self.mult_bound}")
        out.append(f"  result: {'PASS' if self.ok else 'FAIL'}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.render_lines())

    def _json_fields(self) -> dict:
        out = {
            "case": self.case.value,
            "datum": self.datum,
            "witness": self.witness,
            "certificates": self.certificates,
            "steps": self.steps,
            "ok": self.ok,
        }
        if self.length_bound is not None:
            out["length_bound"] = self.length_bound
        if self.mult_bound is not None:
            out["mult_bound"] = self.mult_bound
        if self.transported_from is not None:
            out["transported_from"] = self.transported_from
        return out


# ---------------------------------------------------------------------------
# Subquotient data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubqDatum(JsonForm):
    """Tiling-plus-flag label for a subquotient of the exponent chain."""

    line: str
    sigma: str
    alpha: HalfInt
    n: int
    cuts: Tuple[bool, ...]  # cuts[i]: split between alpha+i and alpha+i+1
    bottom: bool

    def __post_init__(self):
        if not (self.alpha > hi(0)):
            raise DatumError("the reducibility exponent must be positive")
        if self.alpha > hi(MAX_ALPHA):
            raise DatumError(f"alpha must be at most {MAX_ALPHA}, got {self.alpha}")
        if self.n < 0:
            raise DatumError("chain length n must be >= 0")
        if len(self.cuts) != self.n:
            raise DatumError(f"need exactly {self.n} cut flags")
        object.__setattr__(self, "cuts", tuple(bool(c) for c in self.cuts))

    # -- block structure ---------------------------------------------------
    def blocks(self) -> Tuple[Segment, ...]:
        """Blocks of the tiling, top block first, built on the first call and
        kept on the datum, outside its fields and its pickle."""
        return self._blocks

    @cached_property
    def _blocks(self) -> Tuple[Segment, ...]:
        out = []
        start = self.alpha
        for i in range(self.n):
            if self.cuts[i]:
                out.append(Segment(start, self.alpha + i, self.line))
                start = self.alpha + i + 1
        out.append(Segment(start, self.alpha + self.n, self.line))
        return tuple(reversed(out))

    def __str__(self) -> str:
        body = ",".join(str(b) for b in self.blocks())
        flag = "St" if self.bottom else "L"
        return f"subq({body};{flag};{self.sigma})"

    def __getstate__(self) -> dict:  # a datum pickles by its fields alone
        return {k: v for k, v in self.__dict__.items() if k != "_blocks"}

    _JSON_FIELDS = ("line", "sigma", "alpha", "n", "cuts", "bottom")


def _langlands_datum(
    d: SubqDatum, blocks: Tuple[Segment, ...], bottom: bool
) -> LanglandsDatum:
    """The Langlands datum of the tiling ``blocks`` of ``d``; with ``bottom``
    the bottom block leaves the list and is attached to sigma as a
    Steinberg atom."""
    if not bottom:
        return LanglandsDatum(Multisegment(blocks), TempBase(CuspSymbol(d.sigma)))
    bot = blocks[-1]
    temp = TempBase(StGenSymbol(d.line, bot.b, bot.length - 1, d.sigma))
    return LanglandsDatum(Multisegment(blocks[:-1]), temp)


# Largest chain length accepted: a chain of n steps has 2^(n+1) subquotient
# labels, and a sweep certifies about that many data.
MAX_CHAIN_LENGTH = 10
# Largest reducibility exponent accepted.  A datum's witness is the segment
# [-alpha', alpha'], with alpha' up to alpha + n - 1, and its restriction
# grows faster than its length: the slowest eligible datum of a chain of
# MAX_CHAIN_LENGTH steps certifies in about 0.3 s at alpha = 64 and 1.2 s at
# alpha = 100 (2-core machine, Python 3.11.7).
MAX_ALPHA = 64


def enumerate_subquotients(
    alpha, n: int, line: str = "rho", sigma: str = "sigma"
) -> Tuple[SubqDatum, ...]:
    """All 2^(n+1) subquotient labels of the exponent chain, in a fixed order."""
    if not 0 <= n <= MAX_CHAIN_LENGTH:
        raise DatumError(
            f"chain length n must be from 0 to {MAX_CHAIN_LENGTH}, got {n!r}"
        )
    a = hi(alpha)
    out = []
    for mask in range(1 << n):
        cuts = tuple(bool((mask >> i) & 1) for i in range(n))
        for bottom in (False, True):
            out.append(SubqDatum(line, sigma, a, n, cuts, bottom))
    return tuple(out)


# The two irreducible extremes of a chain, which carry no certificate.
EXTREMES = (CaseTag.GEN_STEINBERG, CaseTag.CO_GEN_STEINBERG)


def classify(d: SubqDatum) -> CaseTag:
    """The case of a datum, read off its cuts: the tiling is one block iff
    there is no cut, all blocks are points iff every step is cut, and the
    bottom block is longer than a point iff the first step is not cut."""
    if d.bottom:
        return CaseTag.CASE_C if any(d.cuts) else CaseTag.GEN_STEINBERG
    if all(d.cuts):
        return CaseTag.CO_GEN_STEINBERG
    return CaseTag.CASE_B if d.cuts[0] else CaseTag.CASE_A


def aubert_pair(d: SubqDatum) -> SubqDatum:
    """The duality-involution partner: complement the cuts, toggle the flag."""
    return SubqDatum(
        d.line,
        d.sigma,
        d.alpha,
        d.n,
        tuple(not c for c in d.cuts),
        not d.bottom,
    )


# ---------------------------------------------------------------------------
# Support utilities (single line)
# ---------------------------------------------------------------------------

def _supp(*segments: Segment) -> Counter:
    """Multiset of exponents, keyed by doubled value (``HalfInt.num2``)."""
    out: Counter = Counter()
    for s in segments:
        out.update(range(s.b.num2, s.e.num2 + 1, 2))
    return out


@lru_cache(maxsize=4096)
def _key_supp(m: Multisegment) -> Counter:
    """``_supp(*m)`` of a hash-consed key, counted once per key: the same
    restriction terms recur across the data of a sweep.  The Counter is
    shared, so no caller may mutate it."""
    return _supp(*m)


def _carrying(x2: int, *segments: Segment) -> int:
    """How many of ``segments`` carry the exponent x2 / 2: ``_supp(*segments)[x2]``
    without building the Counter."""
    return sum(
        s.b.num2 <= x2 <= s.e.num2 and (x2 - s.b.num2) % 2 == 0 for s in segments
    )


def _is_multiplicity_free(c: Counter) -> bool:
    return all(v == 1 for v in c.values())


# ---------------------------------------------------------------------------
# Case frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _CaseFrame:
    """A bottom-empty datum resolved for its report: its case tag, its
    tiling (top block first), the pivot geometry and the witness.

    ``aa`` is the reflection radius (alpha for the long-bottom case, the
    shifted alpha' for the singleton-bottom case), ``pivot`` the block whose
    begin is ``aa``, ``upper`` everything above it, ``lower`` the singleton
    tail below it (empty in the long-bottom case).
    """

    d: SubqDatum
    tag: CaseTag
    blocks: Tuple[Segment, ...]
    aa: HalfInt            # reflection radius
    c: HalfInt             # end of the pivot block
    pivot: Segment         # [aa, c]
    upper: Tuple[Segment, ...]   # blocks above the pivot (descending)
    lower: Tuple[Segment, ...]   # singleton blocks below the pivot (descending)

    @cached_property
    def sym(self) -> Segment:
        """The symmetric witness segment [-aa, aa]."""
        return Segment(-self.aa, self.aa, self.d.line)

    @cached_property
    def witness(self) -> GLElt:
        """The selfdual product factor: the delta class of [-aa, aa]."""
        return delta_key(ms(self.sym))

    @property
    def merged(self) -> Segment:
        """The pivot extended across the symmetric segment: [-aa, c]."""
        return Segment(-self.aa, self.c, self.d.line)

    @cached_property
    def full(self) -> Multisegment:
        """The whole tiling as one multisegment."""
        return Multisegment(self.blocks)

    def upper_ms(self) -> Multisegment:
        return Multisegment(self.upper)

    def lower_ms(self) -> Multisegment:
        return Multisegment(self.lower)

    @cached_property
    def merged_list(self) -> Multisegment:
        """The third certificate's list: upper, [-aa, c], lower and [aa]."""
        point = Segment(self.aa, self.aa, self.d.line)
        return self.upper_ms() + ms(self.merged, point) + self.lower_ms()

    @cached_property
    def branch(self) -> LanglandsDatum:
        """The bottom-attached branch: this tiling with its bottom block
        attached to sigma as a Steinberg atom."""
        return _langlands_datum(self.d, self.blocks, bottom=True)

    def marker(self, x2: int) -> int:
        """How often the exponent x2 / 2 occurs in the marker, the support of
        dual(upper), the point -aa, dual(lower) and [-aa, c]: counted in
        doubled ints, with x in dual(s) exactly when -x is in s."""
        return (
            _carrying(-x2, *self.upper, *self.lower)
            + (x2 == -self.aa.num2)
            + _carrying(x2, self.merged)
        )


def _witness_segment(d: SubqDatum) -> Segment:
    """The symmetric witness segment [-aa, aa] of the bottom-empty datum
    ``d``: aa begins the pivot, whose lowest step is ``d``'s first uncut
    one."""
    aa = d.alpha + d.cuts.index(False)
    return Segment(-aa, aa, d.line)


def _resolve(d: SubqDatum) -> _CaseFrame:
    """The frame of the bottom-empty datum ``d``.  The pivot is the lowest
    block longer than a point (the bottom block in case A)."""
    blocks = d.blocks()
    idx = max(i for i, b in enumerate(blocks) if b.length > 1)
    pivot = blocks[idx]
    return _CaseFrame(
        d, classify(d), blocks, pivot.b, pivot.e, pivot, blocks[:idx], blocks[idx + 1:]
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _certificates(f: _CaseFrame) -> Tuple[LanglandsDatum, ...]:
    d = f.d
    point_list = f.upper_ms() + ms(Segment(f.aa, f.aa, d.line)) + f.lower_ms()
    return (
        LanglandsDatum(f.full, TauPM(d.line, f.aa, +1, d.sigma)),
        LanglandsDatum(f.full, TauPM(d.line, f.aa, -1, d.sigma)),
        LanglandsDatum(f.merged_list, TempBase(CuspSymbol(d.sigma))),
        LanglandsDatum(point_list, DeltaPM(f.merged, +1, d.sigma)),
        LanglandsDatum(point_list, DeltaPM(f.merged, -1, d.sigma)),
    )


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

class _Refuted(Exception):
    """A check found its claim false; the message is the step's detail."""


def _check(
    label: str, fn: Callable[..., str], *args, citation: Optional[str] = None
) -> CertStep:
    """The step of the check ``fn(*args)``: VERIFIED with its detail, AXIOM
    with ``citation`` (a precondition checked here), FAILED with the detail
    of the ``_Refuted`` it raises."""
    try:
        detail = fn(*args)
    except _Refuted as exc:
        return CertStep(label, FAILED, str(exc))
    return CertStep(label, AXIOM if citation else VERIFIED, detail, citation)


# ---------------------------------------------------------------------------
# Restriction facts, memoized per key
# ---------------------------------------------------------------------------
#
# Each reads only its arguments (a segment and a doubled exponent, or a
# hash-consed atom) and returns immutable values; the Counters inside a
# completion are shared, so no caller may mutate them.  Exponents are passed
# doubled (``HalfInt.num2``) like the supports they index.

class _WitnessTerms(NamedTuple):
    """What the steps read of the restriction of a witness delta(sym) at
    alpha.  Its terms other than (witness, unit) whose left factor completes
    to the witness support with exponents from the factor alphabet of the
    right tensorand (absolute value at least alpha): those missing one
    exponent (``single``), those missing several (``multi``), the first one
    whose coefficient is not 1 (``odd``); and the first left factor carrying
    -alpha more than once (``doubled``)."""

    single: Tuple[Tuple[Multisegment, Multisegment, Counter], ...]
    multi: Tuple[Tuple[Multisegment, Multisegment, Counter], ...]
    odd: Optional[Tuple[Multisegment, Multisegment, int]]
    doubled: Optional[Multisegment]


@lru_cache(maxsize=1024)
def _witness_terms(sym: Segment, alpha2: int) -> _WitnessTerms:
    """The ``_WitnessTerms`` of delta(sym) at alpha = alpha2 / 2, in one
    pass over its restriction."""
    unit = (ms(sym), EMPTY_MS)
    target = _supp(sym)
    single: List[Tuple[Multisegment, Multisegment, Counter]] = []
    multi: List[Tuple[Multisegment, Multisegment, Counter]] = []
    odd = doubled = None
    for (left, right), coeff in twisted_comult(delta_key(ms(sym))).coeffs.items():
        lsupp = _key_supp(left)
        if doubled is None and lsupp[-alpha2] > 1:
            doubled = left
        if (left, right) == unit or not (lsupp <= target):
            continue
        need = target - lsupp
        if not need or any(abs(x) < alpha2 for x in need):
            continue
        if coeff != 1 and odd is None:
            odd = (left, right, coeff)
        (single if sum(need.values()) == 1 else multi).append((left, right, need))
    return _WitnessTerms(tuple(single), tuple(multi), odd, doubled)


@lru_cache(maxsize=1024)
def _left_factors(atom) -> frozenset:
    """The left keys of the restriction of a base atom."""
    return frozenset(left for (left, _right) in module_comult_base(atom).coeffs)


@lru_cache(maxsize=1024)
def _top_merge_term(block: Segment, c2: int) -> Optional[Multisegment]:
    """The first key of the GL restriction of delta(block) whose support
    carries c = c2 / 2 without c + 1, or None."""
    for key in gl_twisted_part(delta_key(ms(block))).coeffs:
        supp = _key_supp(key)
        if supp[c2] > 0 and supp[c2 + 2] == 0:
            return key
    return None


@lru_cache(maxsize=1024)
def _segment_ending(block: Segment, end2: int) -> Optional[Segment]:
    """The first segment ending at end2 / 2 in a key of the GL restriction
    of delta(block), or None."""
    for key in gl_twisted_part(delta_key(ms(block))).coeffs:
        for s in key:
            if s.e.num2 == end2:
                return s
    return None


# ---------------------------------------------------------------------------
# Mechanical exclusion checks
# ---------------------------------------------------------------------------

def _check_exponent_sum_exclusion(f: _CaseFrame) -> str:
    """The third certificate cannot sit under the bottom-attached branch:
    its exponent vector fails the dominance bound of that branch's standard
    datum."""
    total = f.sym.length + (f.d.n + 1)
    lhs = exponent_vector(f.merged_list, total)
    rhs = exponent_vector(f.branch.gl, total)
    if dominates(lhs, rhs):
        raise _Refuted(
            "merged-list certificate unexpectedly dominated by the "
            "bottom-attached branch"
        )
    return (
        "exponent vector of the merged-list certificate is not dominated by "
        "the bottom-attached branch's standard datum "
        f"(common length {total})"
    )


def _check_top_merge_exclusion(f: _CaseFrame) -> str:
    """Marker exponents c (present) and c+1 (absent) rule out the branch
    that merges the pivot with the block above it."""
    if not f.upper:
        return "no block above the pivot, so the merge branch does not exist"
    c = f.c
    c1 = c + 1
    if not (f.marker(c.num2) == 1 and f.marker(c1.num2) == 0):
        raise _Refuted(
            f"marker support does not show {c} exactly once without {c1}"
        )
    top = f.upper[-1]  # block directly above the pivot (descending order)
    d_top = top.e
    if not (c1 <= d_top):
        raise _Refuted("merged block does not reach past the marker exponent")
    merged_block = Segment(f.aa, d_top, f.d.line)
    key = _top_merge_term(merged_block, c.num2)
    if key is not None:
        raise _Refuted(
            f"a term of the GL restriction of the merged block has {c} "
            f"without {c1}: {key}"
        )
    side = (*f.upper[:-1], f.sym, *f.lower)
    if any(_carrying(x2, *side) for x2 in (c.num2, -c.num2, c1.num2, -c1.num2)):
        raise _Refuted("side factors can reach the marker exponents")
    return (
        f"marker has {c} once and never {c1}; every GL-restriction term of "
        f"the merged block {merged_block} carrying {c} also carries {c1}; "
        "side factors reach neither"
    )


def _check_double_point_exclusion(f: _CaseFrame) -> str:
    """Marker exponent -alpha occurs twice in the embedded certificate but at
    most once in any term of the bottom-attached branch."""
    neg = -f.d.alpha
    if f.marker(neg.num2) != 2:
        raise _Refuted(f"marker support does not contain {neg} exactly twice")
    # every left term of the twisted coproduct of the witness has -alpha
    # at most once
    left = _witness_terms(f.sym, f.d.alpha.num2).doubled
    if left is not None:
        raise _Refuted(f"witness restriction term {left} carries {neg} twice")
    # the general-linear list of the bottom-attached branch misses -alpha
    if _carrying(neg.num2, *f.branch.gl) or _carrying(-neg.num2, *f.branch.gl):
        raise _Refuted("branch list support reaches the doubled point")
    if any(_key_supp(left)[neg.num2] > 0 for left in _left_factors(f.branch.temp.base)):
        raise _Refuted("bottom atom restriction reaches the doubled point")
    return (
        f"marker shows {neg} twice; witness restriction terms carry it at "
        "most once and no other factor of the bottom-attached branch "
        "carries it"
    )


def _check_second_merge_exclusion(f: _CaseFrame) -> str:
    """Singleton-bottom case only: the branch merging the pivot downward is
    ruled out because no factor can produce a segment ending at -alpha'."""
    d = f.d
    neg_end = -f.aa
    # required Jacquet term contains the singleton [-alpha'], a segment
    # ending at -alpha'
    # factor 1: the stretched Speh tail on [alpha, alpha'-2]; support only
    tail_lo, tail_hi = d.alpha, f.aa - 2
    tail = (Segment(tail_lo, tail_hi, d.line),) if tail_lo <= tail_hi else ()
    if _carrying(neg_end.num2, *tail) or _carrying(-neg_end.num2, *tail):
        raise _Refuted("stretched tail support reaches the forbidden end")
    # factor 2: witness terms end at alpha' only; factor 3: the
    # downward-merged block [alpha'-1, c]
    merged_low = Segment(f.aa - 1, f.c, d.line)
    for name, block in (("witness", f.sym), ("merged-down", merged_low)):
        s = _segment_ending(block, neg_end.num2)
        if s is not None:
            raise _Refuted(f"{name} restriction segment {s} ends at {neg_end}")
    # factor 4: the upper list cannot supply it either
    if _carrying(neg_end.num2, *f.upper) or _carrying(-neg_end.num2, *f.upper):
        raise _Refuted("upper list support reaches the forbidden end")
    return (
        f"the required Jacquet term has a segment ending at {neg_end}, but "
        "no factor of the downward-merge branch can produce that end "
        f"(tail support misses it; witness and {merged_low} restriction "
        "segments end elsewhere)"
    )


def _check_hd_identity(f: _CaseFrame) -> str:
    """Singleton-bottom case: identify the third certificate through top
    derivatives, two routes."""
    product_key = ms(f.sym) + f.full
    route1 = highest_derivative(zeta_key(product_key))
    route2 = zeta_key(trim_key(product_key))
    if route1 != route2:
        raise _Refuted("the two top-derivative routes disagree")
    trimmed_sym = f.sym.trimmed_top()
    trimmed_pivot = f.pivot.trimmed_top()
    if trimmed_sym is None or trimmed_pivot is None:
        raise _Refuted("degenerate trim")
    union = linked_union(trimmed_sym, trimmed_pivot)
    if union is None or union != f.merged.trimmed_top():
        raise _Refuted(
            "trimmed witness and trimmed pivot do not merge to the trimmed "
            "stretched segment"
        )
    expected_hd = ms(union) + trim_key(f.upper_ms())
    if trim_key(f.merged_list) != expected_hd:
        raise _Refuted("candidate top derivative does not match")
    if _supp(*f.merged_list) != _supp(*product_key):
        raise _Refuted("candidate support differs from the product support")
    return (
        "top derivative of the witness-times-list product equals the "
        "entrywise trim; trimmed witness and trimmed pivot merge to the "
        "trimmed stretched segment; the merged-list candidate has the same "
        "support and the same top derivative"
    )


def verify_hd_identity(d: SubqDatum, ctx: Context = DEFAULT_CONTEXT) -> CertStep:
    """The derivative identification step of a case-B datum, on its own."""
    if classify(d) != CaseTag.CASE_B:
        raise UnsupportedDatumError("derivative identification is for the "
                                    "singleton-bottom case")
    _validate_line(d, ctx)
    return _check("derivative identification", _check_hd_identity, _resolve(d))


def _check_distinct(certs: Sequence[LanglandsDatum]) -> str:
    if len(set(certs)) != len(certs):
        raise _Refuted("certificates are not pairwise distinct")
    return f"{len(certs)} certificates are pairwise distinct Langlands data"


def _check_witness_window(f: _CaseFrame) -> str:
    return _witness_window(tuple(f.witness.coeffs), f.d.alpha.num2, f.d.n)


@lru_cache(maxsize=1024)
def _witness_window(keys: Tuple[Multisegment, ...], alpha2: int, n: int) -> str:
    """The witness-window check of a witness with the keys ``keys``, on the
    chain of ``n`` steps from alpha = alpha2 / 2."""
    hi_ = HalfInt(alpha2 + 2 * n)
    lo = -hi_
    for key in keys:
        for x in _supp(*key):
            if not (lo.num2 <= x <= hi_.num2):
                raise _Refuted(f"witness support leaves [{lo}, {hi_}]")
    if {key.map_segments(Segment.dual) for key in keys} != set(keys):
        raise _Refuted("witness is not selfdual")
    return f"witness is selfdual with support inside [{lo}, {hi_}]"


# ---------------------------------------------------------------------------
# Length check
# ---------------------------------------------------------------------------

def _length_steps(f: _CaseFrame, certs: Tuple[LanglandsDatum, ...]):
    """The steps showing that ``certs`` are five distinct constituents of
    the witness product, in report order."""
    d = f.d
    yield CertStep(
        "tempered split",
        AXIOM,
        f"delta({f.sym}) |x| {d.sigma} reduces into two inequivalent "
        "tempered summands (the two signed tau certificates)",
        citation="[T-irr] Thm. 13.2",
    )
    yield CertStep(
        "tempered certificates embed",
        AXIOM,
        "both signed tau certificates occur in the ambient product",
        citation="[T-CJM] Prop. 5.3",
    )
    if f.tag == CaseTag.CASE_A:
        yield CertStep(
            "stretched product bound",
            AXIOM,
            f"L(list + stretched {f.merged}) x point {f.aa} sits under "
            f"delta({f.sym}) x L(list + pivot {f.pivot}) "
            "(pivot longer than a point)",
            citation="[HTd] Lemma 4.2",
        )
        yield CertStep(
            "merged certificate embeds",
            AXIOM,
            "the merged-list certificate occurs in that product "
            "induced against sigma",
            citation="[T-CJM] Prop. 4.2",
        )
    else:
        yield _check("derivative identification", _check_hd_identity, f)
        yield CertStep(
            "derivative transport",
            AXIOM,
            "support plus top derivative determine the class, and the "
            "product of the two linked trimmed pieces contains their "
            "union class; the merged-list certificate therefore occurs "
            "in the witness product",
            citation="[Z] §8",
        )
    yield _check("exponent-dominance exclusion", _check_exponent_sum_exclusion, f)
    yield CertStep(
        "square-integrable split",
        AXIOM,
        f"delta({f.merged}) |x| {d.sigma} has two inequivalent "
        "square-integrable subsymbols (the two signed delta "
        "certificates)",
        citation="[T-seg] Thm.",
    )
    yield CertStep(
        "signed delta certificates embed",
        AXIOM,
        "both signed delta certificates occur under the unmerged "
        "product with the witness",
        citation="[T-CJM] Prop. 5.3",
    )
    yield _check("top-merge exclusion", _check_top_merge_exclusion, f)
    if f.tag == CaseTag.CASE_B:
        yield _check("down-merge exclusion", _check_second_merge_exclusion, f)
    yield _check("double-point exclusion", _check_double_point_exclusion, f)
    yield _check("distinctness", _check_distinct, certs)


def check_length_ge5(d: SubqDatum, ctx: Context = DEFAULT_CONTEXT) -> CertReport:
    """Produce five distinct certificates under the witness product."""
    return _run_check(d, ctx, want_length=True, want_mult=False)


# ---------------------------------------------------------------------------
# Multiplicity check
# ---------------------------------------------------------------------------

def _mult_steps(f: _CaseFrame, unit: int):
    """The steps bounding the Jacquet multiplicity by 4, in report order,
    given the (witness, unit) coefficient ``unit``; each check reads what
    the ones before it established."""
    yield _check("unit pairing", _check_unit_pairing, unit)
    single, multi, odd, _doubled = _witness_terms(f.sym, f.d.alpha.num2)
    yield _check("candidate enumeration", _check_candidates, f, single, odd)
    if multi and f.tag == CaseTag.CASE_A:
        yield _check("multi-point exclusion", _check_multi_need_case_a, f, multi)
    elif multi:
        yield CertStep(
            "tail restriction bound",
            AXIOM,
            "the right tensorand sits under (upper part) |x| "
            "(stretched singleton tail attached to sigma), so "
            "candidate left factors from it are the tail "
            "restriction's left factors",
            citation="[HTd] Lemma 3.1",
        )
        yield _check(
            "multi-point exclusion", _check_tail_left_factors, f, citation="[Z] §9"
        )
    yield _check("regularity", _check_regularity, single)
    yield CertStep(
        "multiplicity bound",
        VERIFIED,
        "total multiplicity is at most 2 + 1 + 1 = 4",
    )


def _check_unit_pairing(coeff: int) -> str:
    if coeff != 2:
        raise _Refuted(f"coefficient of (witness, unit) is {coeff}, not 2")
    return (
        "the (witness, unit) term of the witness restriction has "
        "coefficient exactly 2; pairing with the counit term "
        "contributes multiplicity 2"
    )


def _check_candidates(f: _CaseFrame, single, odd) -> str:
    if odd is not None:
        left, right, coeff = odd
        raise _Refuted(f"candidate ({left}, {right}) has coefficient {coeff}")
    line = f.d.line
    expected_left = ms(Segment(-f.aa + 1, f.aa, line))
    expected = {
        (expected_left, ms(Segment(-f.aa, -f.aa, line))),
        (expected_left, ms(Segment(f.aa, f.aa, line))),
    }
    got = {(l, r) for (l, r, _need) in single}
    if got != expected:
        listed = ", ".join(sorted(f"({l}, {r})" for l, r in got)) or "none"
        raise _Refuted(f"single-point candidates are {listed}, not the expected pair")
    return (
        "besides (witness, unit), exactly two witness-restriction terms "
        "can complete to the witness support with one missing exponent: "
        f"{expected_left} paired with the two signed points"
    )


def _check_multi_need_case_a(f: _CaseFrame, multi) -> str:
    """A completion needing both signed endpoints would need one factor of
    the right tensorand's restriction to carry -alpha and +alpha together."""
    neg, pos = -f.d.alpha.num2, f.d.alpha.num2
    pivot_part = gl_twisted_part(delta_key(ms(f.pivot))).coeffs
    if (
        # a completion of another shape is not covered; be conservative
        not all(need[neg] > 0 and need[pos] > 0 for _l, _r, need in multi)
        or any(s[neg] > 0 and s[pos] > 0 for s in (_supp(*k) for k in pivot_part))
        or _carrying(neg, *f.upper)
        or _carrying(pos, *f.upper)
    ):
        raise _Refuted(
            "a multi-exponent completion could carry both signed endpoints"
        )
    return (
        "completions needing several exponents would require "
        "one restriction factor of the right tensorand to carry "
        "both signed endpoints, and no term of the pivot or "
        "upper-list restrictions does"
    )


def _check_tail_left_factors(f: _CaseFrame) -> str:
    """Left factors of the restriction of the stretched singleton tail
    (the interval [alpha, alpha'] attached to sigma in co-Steinberg form)."""
    d = f.d
    tail_n = (f.aa - d.alpha).num2 // 2
    atom = CoStGenSymbol(d.line, d.alpha, tail_n, d.sigma)
    point = ms(Segment(-f.aa, -f.aa, d.line))
    lefts = _left_factors(atom)
    if point not in lefts:
        raise _Refuted(
            "expected singleton left factor missing from the tail restriction"
        )
    speh_lefts = lefts - {point, EMPTY_MS}
    return (
        "left factors of the tail restriction longer than a "
        "point are Speh classes; a Speh class cannot complete "
        "the non-degenerate witness on the left of the tensor "
        f"sign ({len(speh_lefts)} such factors excluded)"
    )


def _check_regularity(single) -> str:
    for left, right, _need in single:
        if not (_is_multiplicity_free(_supp(*left))
                and _is_multiplicity_free(_supp(*right))):
            raise _Refuted(f"candidate ({left}, {right}) is not multiplicity-free")
    return (
        "both surviving candidates have multiplicity-free support on "
        "each side of the tensor sign, so each contributes at most 1"
    )


def check_mult_le4(d: SubqDatum, ctx: Context = DEFAULT_CONTEXT) -> CertReport:
    """Bound the Jacquet multiplicity of (witness (x) subquotient) by 4."""
    return _run_check(d, ctx, want_length=False, want_mult=True)


def check_prop41(d: SubqDatum, ctx: Context = DEFAULT_CONTEXT) -> CertReport:
    """Both bounds together with the 5 > 4 conclusion."""
    return _run_check(d, ctx, want_length=True, want_mult=True)


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def _validate_line(d: SubqDatum, ctx: Context) -> None:
    line = ctx.line(d.line)
    ctx.require_selfdual(d.line)
    if line.alpha is not None and line.alpha != d.alpha:
        raise LineError(
            f"line {d.line} has reducibility exponent {line.alpha}, datum "
            f"says {d.alpha}"
        )


_TRANSPORT = CertStep(
    "involution transport",
    AXIOM,
    "the duality involution preserves lengths and Jacquet multiplicities, "
    "and carries the partner's witness product to the witness product of "
    "this datum",
    citation="[Au] Cor. 3.9",
)


def _run_check(
    d: SubqDatum, ctx: Context, want_length: bool, want_mult: bool
) -> CertReport:
    tag = classify(d)
    if tag in EXTREMES:
        raise UnsupportedDatumError(
            f"{tag.value} is one of the two excluded extreme subquotients"
        )
    _validate_line(d, ctx)
    base = aubert_pair(d) if tag == CaseTag.CASE_C else d
    sym = ms(_witness_segment(base))
    unit = twisted_comult(delta_key(sym), ctx).terms[(sym, EMPTY_MS)]
    inner = _report(base, want_length, want_mult, unit)
    if tag != CaseTag.CASE_C:
        return inner
    partner = CertStep(
        "dual partner",
        VERIFIED,
        f"the involution partner {inner.datum} is bottom-empty with a long "
        "block, so the bottom-empty machinery applies to it",
    )
    (key,) = inner.witness.coeffs
    return CertReport(
        CaseTag.CASE_C,
        d,
        zeta_key(key),
        tuple(LanglandsDatum(c.gl, c.temp, True) for c in inner.certificates),
        (partner, _TRANSPORT) + tuple(
            CertStep("dual·" + s.label, s.status, s.detail, s.citation)
            for s in inner.steps
        ),
        inner.length_bound,
        inner.mult_bound,
        inner.ok,
        inner.datum,
    )


@lru_cache(maxsize=1024)
def _report(
    d: SubqDatum, want_length: bool, want_mult: bool, unit: int
) -> CertReport:
    """The report of a bottom-empty datum ``d`` whose witness restriction
    has (witness, unit) coefficient ``unit``.  Memoized on every value it
    reads, so a case-C datum transports the report its partner already
    made; the caller validates the line first."""
    f = _resolve(d)
    steps = [_check("witness window", _check_witness_window, f)]
    certs: Tuple[LanglandsDatum, ...] = ()
    if want_length:
        certs = _certificates(f)
        steps.extend(_length_steps(f, certs))
    if want_mult:
        for step in _mult_steps(f, unit):
            steps.append(step)
            if step.status == FAILED:
                break
    ok = all(s.status != FAILED for s in steps)
    if want_length and want_mult and ok:
        steps.append(
            CertStep(
                "counting conclusion",
                VERIFIED,
                "length at least 5 exceeds the Jacquet multiplicity bound 4, "
                "so five copies of (witness (x) subquotient) cannot all "
                "appear; the subquotient is not unitarizable",
            )
        )
    return CertReport(
        case=f.tag,
        datum=f.d,
        witness=f.witness,
        certificates=certs,
        steps=tuple(steps),
        length_bound=5 if (want_length and ok) else None,
        mult_bound=4 if (want_mult and ok) else None,
        ok=ok,
    )
