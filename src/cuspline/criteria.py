"""Decision procedure for unitarizability of generic representations.

Input is a bundle of per-label data: for each essentially-square-integrable
label, the multiset of exponents it carries in the Langlands product, plus
three reducibility flags.  The verdict comes with a deterministic trace: for
each label in sorted order, one step per condition, in table order.  Each
condition reads the label and gives a status (PASS, FAIL or SKIP) and a detail.
The hermitian condition comes first.  A non-selfdual label, or one whose
half-shift reduces, then meets the strict window (every exponent below 1/2).
Any other label meets the six rows of ``_PARITY_WINDOW``: the normal form (the
exponents above 1/2 lie below 1 and are distinct), no complementary pair
summing to 1, 1/2 at most once, and three parities (top, interval, length).
Once the normal form fails, every later condition is SKIP with the detail
"normal form failed".

The predicate never looks at which cuspidal line carries a label — only at
the flags and the exponent multisets — so relabeling lines with equal
reducibility points leaves every verdict unchanged.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .core import MAX_DIGITS, CusplineError, JsonForm
from .halfint import HalfInt

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

HALF = Fraction(1, 2)
ONE = Fraction(1)


class MalformedDatumError(CusplineError):
    """Generic-representation datum violates the Langlands normal form."""


def _fraction(value) -> Fraction:
    """An exact exponent; a float is refused, as 0.3 is not 3/10 in binary,
    and so is a string in exponent notation or of more than ``MAX_DIGITS``
    digits, whose exact value can take unbounded time to build."""
    if isinstance(value, HalfInt):
        return value.as_fraction()
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise MalformedDatumError(f'not an exponent: {value!r}; write 0.3 as "3/10"')
    digits = sum(map(str.isdigit, value)) if isinstance(value, str) else 0
    if digits > MAX_DIGITS:
        raise MalformedDatumError(f"not an exponent: {digits} digits, more than {MAX_DIGITS}")
    if isinstance(value, str) and "e" in value.lower():
        raise MalformedDatumError(f"not an exponent: {value!r}; exponent notation is refused")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise MalformedDatumError(f"not an exponent: {value!r}") from exc


@dataclass(frozen=True)
class GenericDatum(JsonForm):
    """Exponent multiset and reducibility flags for one label.

    ``halfred`` records whether the half-shifted label induced to the rank-0
    group reduces; ``tau_red`` whether inducing the label against the
    tempered part reduces.  ``partner`` names the contragredient label when
    the label is not selfdual.  ``line`` is only used for per-line grouping,
    never by the decision itself.
    """

    label: str
    exponents: Tuple[Fraction, ...]
    selfdual: bool
    halfred: bool
    tau_red: bool = False
    partner: Optional[str] = None
    line: Optional[str] = None

    def __post_init__(self):
        exps = tuple(sorted(_fraction(e) for e in self.exponents))
        if exps and exps[0] <= 0:
            raise MalformedDatumError(
                f"label {self.label!r} lists a non-positive exponent {exps[0]}; "
                "the Langlands normal form needs strictly positive ones"
            )
        object.__setattr__(self, "exponents", exps)
        if self.selfdual and self.partner not in (None, self.label):
            raise MalformedDatumError(
                f"selfdual label {self.label!r} cannot name a distinct "
                f"contragredient partner {self.partner!r}"
            )
        if not self.selfdual and self.partner == self.label:
            raise MalformedDatumError(
                f"label {self.label!r} is not selfdual but names itself as "
                "its contragredient"
            )

    def _json_fields(self) -> dict:
        out = {
            "label": self.label,
            "exponents": [str(e) for e in self.exponents],
            "selfdual": self.selfdual,
            "halfred": self.halfred,
            "tau_red": self.tau_red,
        }
        if self.partner is not None:
            out["partner"] = self.partner
        if self.line is not None:
            out["line"] = self.line
        return out


@dataclass(frozen=True)
class CriterionStep(JsonForm):
    label: str
    condition: str
    status: str
    detail: str

    def render(self) -> str:
        return f"[{self.status}] {self.label} · {self.condition}: {self.detail}"

    _JSON_FIELDS = ("label", "condition", "status", "detail")


@dataclass(frozen=True)
class CriterionResult(JsonForm):
    unitarizable: bool
    steps: Tuple[CriterionStep, ...]

    @property
    def first_failure(self) -> Optional[CriterionStep]:
        return next((s for s in self.steps if s.status == FAIL), None)

    def render_lines(self) -> List[str]:
        verdict = "unitarizable" if self.unitarizable else "not unitarizable"
        return [s.render() for s in self.steps] + [f"verdict: {verdict}"]

    _JSON_FIELDS = ("unitarizable", "steps")


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

class _Label(NamedTuple):
    """One label as its conditions read it: the datum, the exponents of its
    contragredient, and its exponents at or below 1/2 and above 1/2."""

    d: GenericDatum
    dual: Tuple[Fraction, ...]
    low: Tuple[Fraction, ...]
    high: Tuple[Fraction, ...]


def _hermitian(x: _Label) -> Tuple[str, str]:
    if x.d.selfdual:
        return PASS, "selfdual label: exponent multiset matches its own contragredient"
    if x.dual == x.d.exponents:
        return PASS, "contragredient partner carries the same exponent multiset"
    return FAIL, (
        f"exponents {list(map(str, x.d.exponents))} do not match the "
        f"contragredient's {list(map(str, x.dual))}"
    )


def _strict_window(x: _Label) -> Tuple[str, str]:
    reason = "reducible half-shift" if x.d.selfdual else "non-selfdual label"
    bad = [e for e in x.d.exponents if e >= HALF]
    if bad:
        return FAIL, (
            f"{reason}: every exponent must be below 1/2, found {list(map(str, bad))}"
        )
    return PASS, f"{reason}: all exponents lie strictly between 0 and 1/2"


def _normal_form(x: _Label) -> Tuple[str, str]:
    problems = []
    if any(b >= ONE for b in x.high):
        problems.append("an exponent at or above 1")
    if len(set(x.high)) != len(x.high):
        problems.append("a repeated exponent above 1/2")
    if problems:
        return FAIL, (
            "exponents admit no strictly increasing tail below 1: "
            + " and ".join(problems)
        )
    return PASS, (
        f"{len(x.low)} exponents at or below 1/2, "
        f"{len(x.high)} strictly increasing between 1/2 and 1"
    )


def _pair_sum(x: _Label) -> Tuple[str, str]:
    pairs = sorted({f"{a}+{b}" for a in x.low for b in x.high if a + b == ONE})
    if pairs:
        return FAIL, f"complementary pair sums to 1: {', '.join(pairs)}"
    return PASS, "no low exponent pairs with a high one to sum 1"


def _half_multiplicity(x: _Label) -> Tuple[str, str]:
    halves = x.low.count(HALF)
    if halves > 1:
        return FAIL, f"exponent 1/2 occurs {halves} times; at most once allowed"
    return PASS, f"exponent 1/2 occurs {halves} time(s)"


def _top_parity(x: _Label) -> Tuple[str, str]:
    if not x.high:
        return SKIP, "no exponents above 1/2"
    bound = ONE - x.high[0]
    top = sum(1 for a in x.low if a > bound)
    return (PASS if top % 2 == 0 else FAIL), (
        f"{top} low exponents above {bound} "
        "(the complement of the smallest high one); must be even"
    )


def _interval_parity(x: _Label) -> Tuple[str, str]:
    if len(x.high) < 2:
        return SKIP, "fewer than two exponents above 1/2"
    counts = [
        sum(1 for a in x.low if ONE - above < a < ONE - below)
        for below, above in zip(x.high, x.high[1:])
    ]
    return (PASS if all(c % 2 for c in counts) else FAIL), (
        f"counts between consecutive complement windows: {counts}; "
        "each must be odd"
    )


def _length_parity(x: _Label) -> Tuple[str, str]:
    if not x.d.tau_red:
        return SKIP, "label induces irreducibly against the tempered part"
    total = len(x.d.exponents)
    return (PASS if total % 2 == 0 else FAIL), (
        "label induces reducibly against the tempered part, so the "
        f"exponent count {total} must be even"
    )


_HERMITIAN = ("hermitian", _hermitian)
_STRICT_WINDOW = (("strict-window", _strict_window),)
_PARITY_WINDOW = (
    ("normal-form", _normal_form),
    ("pair-sum", _pair_sum),
    ("half-multiplicity", _half_multiplicity),
    ("top-parity", _top_parity),
    ("interval-parity", _interval_parity),
    ("length-parity", _length_parity),
)


def generic_unitarizable(data: Sequence[GenericDatum]) -> CriterionResult:
    """Run every condition on every label; unitarizable iff none fails.

    Labels are processed in sorted order, giving a deterministic trace; the
    first failing step (if any) is exposed as ``first_failure``.
    """
    by_label: Dict[str, GenericDatum] = {}
    for d in data:
        if d.label in by_label:
            raise MalformedDatumError(f"duplicate label {d.label!r}")
        by_label[d.label] = d
    for d in data:
        if d.partner is not None and d.partner in by_label:
            other = by_label[d.partner]
            if other.selfdual or other.partner != d.label:
                raise MalformedDatumError(
                    f"labels {d.label!r} and {d.partner!r} do not name each "
                    "other as contragredient partners"
                )
    steps: List[CriterionStep] = []
    for label in sorted(by_label):
        d = by_label[label]
        dual = by_label[d.partner].exponents if d.partner in by_label else ()
        split = bisect_right(d.exponents, HALF)
        x = _Label(d, dual, d.exponents[:split], d.exponents[split:])
        window = _STRICT_WINDOW if (not d.selfdual) or d.halfred else _PARITY_WINDOW
        form_failed = False
        for name, condition in (_HERMITIAN, *window):
            status, detail = (SKIP, "normal form failed") if form_failed else condition(x)
            steps.append(CriterionStep(label, name, status, detail))
            form_failed = form_failed or (condition is _normal_form and status == FAIL)
    ok = all(s.status != FAIL for s in steps)
    return CriterionResult(ok, tuple(steps))


# ---------------------------------------------------------------------------
# Optional helper: the half-shift reducibility parity rule
# ---------------------------------------------------------------------------

def half_point_reducible(segment_length: int, alpha: HalfInt) -> bool:
    """Whether the half-shifted segment label induced to rank 0 reduces.

    Depends only on the segment length and the line's reducibility point:
    odd lengths reduce when the point is a strict half-integer, even lengths
    when it is an integer.
    """
    if segment_length <= 0:
        raise MalformedDatumError("segment length must be positive")
    if alpha.num2 % 2 == 1:
        return segment_length % 2 == 1
    return segment_length % 2 == 0
