"""Decision procedure for unitarizability of generic representations.

Input is a bundle of per-label data: for each essentially-square-integrable
label, the multiset of exponents it carries in the Langlands product, plus
three reducibility flags.  The decision applies a fixed list of window and
parity conditions and returns a verdict together with a deterministic
condition-by-condition trace.

The predicate never looks at which cuspidal line carries a label — only at
the flags and the exponent multisets — so relabeling lines with equal
reducibility points leaves every verdict unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import CusplineError, JsonForm
from .halfint import HalfInt

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"

HALF = Fraction(1, 2)
ONE = Fraction(1)


class MalformedDatumError(CusplineError):
    """Generic-representation datum violates the Langlands normal form."""


def _fraction(value) -> Fraction:
    """An exact exponent; a float is refused, as 0.3 is not 3/10 in binary."""
    if isinstance(value, HalfInt):
        return value.as_fraction()
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise MalformedDatumError(f'not an exponent: {value!r}; write 0.3 as "3/10"')
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
        for e in exps:
            if e <= 0:
                raise MalformedDatumError(
                    f"label {self.label!r} lists a non-positive exponent {e}; "
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
        for s in self.steps:
            if s.status == FAIL:
                return s
        return None

    def render_lines(self) -> List[str]:
        out = [s.render() for s in self.steps]
        out.append(
            "verdict: unitarizable" if self.unitarizable
            else "verdict: not unitarizable"
        )
        return out

    _JSON_FIELDS = ("unitarizable", "steps")


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------

def _hermitian_step(
    d: GenericDatum, by_label: Mapping[str, GenericDatum]
) -> CriterionStep:
    if d.selfdual:
        return CriterionStep(
            d.label,
            "hermitian",
            PASS,
            "selfdual label: exponent multiset matches its own contragredient",
        )
    partner = by_label.get(d.partner) if d.partner is not None else None
    partner_exps: Tuple[Fraction, ...] = (
        partner.exponents if partner is not None else ()
    )
    if partner_exps == d.exponents:
        return CriterionStep(
            d.label,
            "hermitian",
            PASS,
            "contragredient partner carries the same exponent multiset",
        )
    return CriterionStep(
        d.label,
        "hermitian",
        FAIL,
        f"exponents {list(map(str, d.exponents))} do not match the "
        f"contragredient's {list(map(str, partner_exps))}",
    )


def _strict_window_step(d: GenericDatum) -> CriterionStep:
    bad = [e for e in d.exponents if e >= HALF]
    reason = (
        "non-selfdual label" if not d.selfdual else "reducible half-shift"
    )
    if bad:
        return CriterionStep(
            d.label,
            "strict-window",
            FAIL,
            f"{reason}: every exponent must be below 1/2, found "
            f"{list(map(str, bad))}",
        )
    return CriterionStep(
        d.label,
        "strict-window",
        PASS,
        f"{reason}: all exponents lie strictly between 0 and 1/2",
    )


def _parity_window_steps(d: GenericDatum) -> List[CriterionStep]:
    alphas = [e for e in d.exponents if e <= HALF]
    betas = [e for e in d.exponents if e > HALF]
    steps: List[CriterionStep] = []

    problems = []
    if any(b >= ONE for b in betas):
        problems.append("an exponent at or above 1")
    if len(set(betas)) != len(betas):
        problems.append("a repeated exponent above 1/2")
    if problems:
        steps.append(
            CriterionStep(
                d.label,
                "normal-form",
                FAIL,
                "exponents admit no strictly increasing tail below 1: "
                + " and ".join(problems),
            )
        )
        for name in (
            "pair-sum",
            "half-multiplicity",
            "top-parity",
            "interval-parity",
            "length-parity",
        ):
            steps.append(
                CriterionStep(d.label, name, SKIP, "normal form failed")
            )
        return steps
    steps.append(
        CriterionStep(
            d.label,
            "normal-form",
            PASS,
            f"{len(alphas)} exponents at or below 1/2, "
            f"{len(betas)} strictly increasing between 1/2 and 1",
        )
    )

    pairs = [f"{a}+{b}" for a in alphas for b in betas if a + b == ONE]
    if pairs:
        steps.append(
            CriterionStep(
                d.label,
                "pair-sum",
                FAIL,
                f"complementary pair sums to 1: {', '.join(sorted(set(pairs)))}",
            )
        )
    else:
        steps.append(
            CriterionStep(
                d.label,
                "pair-sum",
                PASS,
                "no low exponent pairs with a high one to sum 1",
            )
        )

    halves = sum(1 for a in alphas if a == HALF)
    if halves > 1:
        steps.append(
            CriterionStep(
                d.label,
                "half-multiplicity",
                FAIL,
                f"exponent 1/2 occurs {halves} times; at most once allowed",
            )
        )
    else:
        steps.append(
            CriterionStep(
                d.label,
                "half-multiplicity",
                PASS,
                f"exponent 1/2 occurs {halves} time(s)",
            )
        )

    if betas:
        top = sum(1 for a in alphas if a > ONE - betas[0])
        status = PASS if top % 2 == 0 else FAIL
        steps.append(
            CriterionStep(
                d.label,
                "top-parity",
                status,
                f"{top} low exponents above {ONE - betas[0]} "
                f"(the complement of the smallest high one); must be even",
            )
        )
    else:
        steps.append(
            CriterionStep(
                d.label, "top-parity", SKIP, "no exponents above 1/2"
            )
        )

    if len(betas) >= 2:
        odd_all = True
        counts = []
        for j in range(len(betas) - 1):
            lo, hi_ = ONE - betas[j + 1], ONE - betas[j]
            count = sum(1 for a in alphas if lo < a < hi_)
            counts.append(count)
            if count % 2 == 0:
                odd_all = False
        steps.append(
            CriterionStep(
                d.label,
                "interval-parity",
                PASS if odd_all else FAIL,
                f"counts between consecutive complement windows: {counts}; "
                "each must be odd",
            )
        )
    else:
        steps.append(
            CriterionStep(
                d.label,
                "interval-parity",
                SKIP,
                "fewer than two exponents above 1/2",
            )
        )

    if d.tau_red:
        total = len(alphas) + len(betas)
        steps.append(
            CriterionStep(
                d.label,
                "length-parity",
                PASS if total % 2 == 0 else FAIL,
                f"label induces reducibly against the tempered part, so the "
                f"exponent count {total} must be even",
            )
        )
    else:
        steps.append(
            CriterionStep(
                d.label,
                "length-parity",
                SKIP,
                "label induces irreducibly against the tempered part",
            )
        )
    return steps


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
        steps.append(_hermitian_step(d, by_label))
        if (not d.selfdual) or d.halfred:
            steps.append(_strict_window_step(d))
        else:
            steps.extend(_parity_window_steps(d))
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
