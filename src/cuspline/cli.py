"""Command-line interface.

Exit codes: 0 = success / all checks passed, 1 = a check failed,
2 = usage, parse, or typing problem (bad expression, bad context file,
unsupported datum).

Context files are plain ``key = value`` lines (``#`` starts a comment)::

    sigma = sigma
    line.rho.selfdual = true
    line.rho.alpha = 1/2
    line.tau.alpha = none

``--json`` switches every command to a single machine-readable JSON document
on stdout (sorted keys, half-integers as ``{"num2": ...}``).
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from .core import (
    Context,
    CusplineError,
    DEFAULT_CONTEXT,
    EMPTY_MS,
    Line,
    Segment,
    ms,
)
from .glhopf import (
    GLElt,
    comult,
    delta_as_zeta,
    delta_key,
    mw_dual,
    twisted_comult,
    twisted_comult_segment_closed,
    zeta_as_delta,
    zeta_key,
)
from .halfint import HalfInt, hi
from .classical import ClassElt, module_comult
from .subquotients import (
    CaseTag,
    SubqDatum,
    UnsupportedDatumError,
    check_length_ge5,
    check_mult_le4,
    check_prop41,
    classify,
    enumerate_subquotients,
)
from .jantzen import (
    LinePartition,
    module_comult_filtered,
    transport_class,
    transport_gl,
    twisted_comult_filtered,
)
from .criteria import GenericDatum, MalformedDatumError, generic_unitarizable
from .dsl import DslSyntaxError, DslTypeError, evaluate
from . import sampling

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Largest accepted --n: a chain of n steps has 2^(n+1) subquotient labels,
# and a --all sweep certifies about that many data.
MAX_CHAIN_LENGTH = 10


# ---------------------------------------------------------------------------
# Context files
# ---------------------------------------------------------------------------

class ContextFileError(CusplineError):
    pass


def _parse_bool(text: str, where: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ContextFileError(f"{where}: expected a boolean, got {text!r}")


def parse_context(text: str) -> Context:
    """Parse the ``key = value`` context format; see the module docstring."""
    sigma = "sigma"
    selfdual: dict = {}
    alpha: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContextFileError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "sigma":
            sigma = value
            continue
        parts = key.split(".")
        if len(parts) != 3 or parts[0] != "line":
            raise ContextFileError(f"line {lineno}: unknown key {key!r}")
        _, line_id, attr = parts
        if attr == "selfdual":
            selfdual[line_id] = _parse_bool(value, f"line {lineno}")
        elif attr == "alpha":
            if value.lower() == "none":
                alpha[line_id] = None
            else:
                try:
                    alpha[line_id] = HalfInt.parse(value)
                except ValueError as exc:
                    raise ContextFileError(f"line {lineno}: {exc}") from exc
        else:
            raise ContextFileError(f"line {lineno}: unknown key {key!r}")
    lines = {}
    for line_id in sorted(set(selfdual) | set(alpha)):
        lines[line_id] = Line(
            line_id, selfdual.get(line_id, True), alpha.get(line_id)
        )
    return Context(sigma, lines)


def load_context(path: Optional[str]) -> Context:
    if path is None:
        return DEFAULT_CONTEXT
    with open(path, "r", encoding="utf-8") as fh:
        return parse_context(fh.read())


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _halfint_arg(text: str) -> HalfInt:
    try:
        return HalfInt.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _jobs_arg(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"--jobs must be an integer of at least 1, got {text!r}"
        )
    return jobs


def _chain_length_arg(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if not 0 <= n <= MAX_CHAIN_LENGTH:
        raise argparse.ArgumentTypeError(
            f"--n must be an integer from 0 to {MAX_CHAIN_LENGTH}, got {text!r}"
        )
    return n


def _cuts_arg(text: str) -> Tuple[bool, ...]:
    if text in ("", "-"):
        return ()
    if not set(text) <= {"0", "1"}:
        raise argparse.ArgumentTypeError(
            f"cuts must be a string of 0s and 1s, got {text!r}"
        )
    return tuple(ch == "1" for ch in text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_eval(args: argparse.Namespace) -> int:
    ctx = load_context(args.ctx)
    value = evaluate(args.expression, ctx)
    if args.json:
        _emit_json(
            {
                "command": "eval",
                "expression": args.expression,
                "context": ctx.to_jsonable(),
                "result": value.to_jsonable(),
                "status": "ok",
            }
        )
    else:
        print(value)
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    data = enumerate_subquotients(args.alpha, args.n, args.line, args.sigma)
    if args.json:
        _emit_json(
            {
                "command": "enumerate",
                "count": len(data),
                "subquotients": [
                    {"datum": d.to_jsonable(), "case": classify(d).value}
                    for d in data
                ],
                "status": "ok",
            }
        )
    else:
        for d in data:
            print(f"{classify(d).value:18s} {d}")
        print(f"total: {len(data)}")
    return EXIT_OK


def _single_datum(args: argparse.Namespace) -> SubqDatum:
    if args.cuts is None:
        raise CusplineError("either --cuts or --all is required")
    if len(args.cuts) != args.n:
        raise CusplineError(
            f"--cuts needs exactly {args.n} bits, got {len(args.cuts)}"
        )
    return SubqDatum(
        args.line, args.sigma, args.alpha, args.n, args.cuts, args.bottom
    )


_CHECKS = {
    "check-length": check_length_ge5,
    "check-mult": check_mult_le4,
    "check-prop41": check_prop41,
}


def _run_one_check(payload):
    """Module-level so a process pool can pick it up."""
    command, d, ctx = payload
    return _CHECKS[command](d, ctx)


def cmd_check(args: argparse.Namespace) -> int:
    ctx = load_context(args.ctx)
    check = _CHECKS[args.command]
    if not args.all:
        d = _single_datum(args)
        report = check(d, ctx)
        if args.json:
            _emit_json(
                {
                    "command": args.command,
                    "context": ctx.to_jsonable(),
                    "report": report.to_jsonable(),
                    "status": "ok" if report.ok else "fail",
                }
            )
        else:
            for line in report.render_lines():
                print(line)
        return EXIT_OK if report.ok else EXIT_FAIL

    data = enumerate_subquotients(args.alpha, args.n, args.line, args.sigma)
    eligible = [
        d
        for d in data
        if classify(d) not in (CaseTag.GEN_STEINBERG, CaseTag.CO_GEN_STEINBERG)
    ]
    skipped = [d for d in data if d not in eligible]
    payloads = [(args.command, d, ctx) for d in eligible]
    # the pool forks all of its workers at the first submit
    workers = min(args.jobs, os.cpu_count() or 1, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_run_one_check, payloads))
    else:
        reports = [_run_one_check(p) for p in payloads]

    all_ok = all(r.ok for r in reports)
    if args.json:
        _emit_json(
            {
                "command": args.command,
                "context": ctx.to_jsonable(),
                "checked": len(reports),
                "skipped": [d.to_jsonable() for d in skipped],
                "reports": [r.to_jsonable() for r in reports],
                "status": "ok" if all_ok else "fail",
            }
        )
    else:
        for d in skipped:
            print(f"SKIP {classify(d).value}: {d} (irreducible extreme)")
        for report in reports:
            verdict = "PASS" if report.ok else "FAIL"
            print(f"{verdict} {report.case.value}: {report.datum}")
            if args.verbose or not report.ok:
                for line in report.render_lines()[1:]:
                    print(f"  {line}")
        print(
            f"checked {len(reports)} subquotients, "
            f"skipped {len(skipped)} extremes: "
            + ("all passed" if all_ok else "FAILURES above")
        )
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_jantzen_split(args: argparse.Namespace) -> int:
    ctx = load_context(args.ctx)
    part = LinePartition(frozenset(args.part1), frozenset(args.part2))
    sides = (args.side,) if args.side is not None else (1, 2)
    value = evaluate(args.expression, ctx)
    if isinstance(value, GLElt):
        filtered = {
            side: twisted_comult_filtered(value, part, side, ctx)
            for side in sides
        }
    elif isinstance(value, ClassElt):
        filtered = {
            side: module_comult_filtered(value, part, side, ctx)
            for side in sides
        }
    else:
        raise DslTypeError(
            "jantzen-split needs a ring or module element, not a tensor"
        )
    if args.json:
        _emit_json(
            {
                "command": "jantzen-split",
                "expression": args.expression,
                "context": ctx.to_jsonable(),
                "partition": part.to_jsonable(),
                "filtered": {
                    str(side): filtered[side].to_jsonable() for side in sides
                },
                "status": "ok",
            }
        )
    else:
        for side in sides:
            print(f"side {side} (left support in part{side}):")
            print(f"  {filtered[side]}")
    return EXIT_OK


def cmd_transport(args: argparse.Namespace) -> int:
    ctx = load_context(args.ctx)
    value = evaluate(args.expression, ctx)
    if isinstance(value, GLElt):
        if args.sigma_to is not None:
            raise DslTypeError("--sigma-to only applies to module elements")
        moved = transport_gl(value, args.from_line, args.to_line, ctx)
    elif isinstance(value, ClassElt):
        moved = transport_class(
            value, args.from_line, args.to_line, ctx, args.sigma_to
        )
    else:
        raise DslTypeError(
            "transport needs a ring or module element, not a tensor"
        )
    if args.json:
        _emit_json(
            {
                "command": "transport",
                "expression": args.expression,
                "context": ctx.to_jsonable(),
                "from": args.from_line,
                "to": args.to_line,
                "result": moved.to_jsonable(),
                "status": "ok",
            }
        )
    else:
        print(moved)
    return EXIT_OK


def _load_generic_data(path: str) -> List[GenericDatum]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        doc = doc.get("data", doc.get("labels"))
        if doc is None:
            raise MalformedDatumError(
                "JSON object needs a 'data' array of labels"
            )
    if not isinstance(doc, list):
        raise MalformedDatumError("expected a JSON array of labels")
    out = []
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or "label" not in entry:
            raise MalformedDatumError(f"entry {i} is not a label object")
        try:
            out.append(
                GenericDatum(
                    label=entry["label"],
                    exponents=tuple(entry.get("exponents", ())),
                    selfdual=bool(entry.get("selfdual", True)),
                    halfred=bool(entry.get("halfred", False)),
                    tau_red=bool(entry.get("tau_red", False)),
                    partner=entry.get("partner"),
                    line=entry.get("line"),
                )
            )
        except (TypeError, ValueError) as exc:
            raise MalformedDatumError(f"entry {i}: {exc}") from exc
    return out


def cmd_generic_check(args: argparse.Namespace) -> int:
    data = _load_generic_data(args.datafile)
    result = generic_unitarizable(data)
    if args.json:
        _emit_json(
            {
                "command": "generic-check",
                "datafile": args.datafile,
                "result": result.to_jsonable(),
                "status": "ok" if result.unitarizable else "fail",
            }
        )
    else:
        for line in result.render_lines():
            print(line)
    return EXIT_OK if result.unitarizable else EXIT_FAIL


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------

def _selftest_checks() -> List[Tuple[str, bool, str]]:
    out: List[Tuple[str, bool, str]] = []
    ctx = DEFAULT_CONTEXT

    def record(name: str, ok: bool, detail: str = "") -> None:
        out.append((name, ok, detail))

    # Twisted restriction: closed form against the compositional route.
    ok = True
    detail = ""
    for num2_b in range(-4, 5):
        for length in range(1, 4):
            seg = Segment(HalfInt(num2_b), HalfInt(num2_b + 2 * (length - 1)), "rho")
            lhs = twisted_comult(delta_key(ms(seg)), ctx)
            rhs = twisted_comult_segment_closed(seg, ctx)
            if lhs != rhs:
                ok = False
                detail = f"mismatch at {seg}"
                break
        if not ok:
            break
    record("twisted-restriction-closed-form", ok, detail)

    # Restriction is coassociative on both bases.
    ok = True
    detail = ""
    for make in (delta_key, zeta_key):
        x = make(
            ms(
                Segment(hi(0), hi(1), "rho"),
                Segment(hi(1), hi(2), "rho"),
            )
        )
        step = comult(x)
        left = step.terms.bind(
            lambda pair: comult(make(pair[0])).terms.map_keys(
                lambda q, right=pair[1]: (q[0], q[1], right)
            )
        )
        right = step.terms.bind(
            lambda pair: comult(make(pair[1])).terms.map_keys(
                lambda q, first=pair[0]: (first, q[0], q[1])
            )
        )
        if left != right:
            ok = False
            detail = f"coassociativity broken on {x.basis}"
    record("restriction-coassociative", ok, detail)

    # The multisegment involution squares to the identity.
    rng = random.Random(17)
    ok = True
    detail = ""
    for _ in range(100):
        m = sampling.random_multisegment(rng, ("rho",))
        if mw_dual(mw_dual(m)) != m:
            ok = False
            detail = f"involution broken on {m}"
            break
    record("involution-squares-to-identity", ok, detail)

    # Base change round trip between the two rigid bases.
    rng = random.Random(23)
    ok = True
    detail = ""
    for _ in range(50):
        m = sampling.random_multisegment(rng, ("rho",), max_segments=3)
        x = zeta_key(m)
        back = delta_as_zeta(zeta_as_delta(x))
        if back != x:
            ok = False
            detail = f"base change broken on {m}"
            break
    record("base-change-round-trip", ok, detail)

    # Counting certificates for a small sweep.
    ok = True
    detail = ""
    for n in (1, 2):
        for d in enumerate_subquotients("1/2", n):
            if classify(d) in (CaseTag.GEN_STEINBERG, CaseTag.CO_GEN_STEINBERG):
                continue
            report = check_prop41(d)
            if not report.ok:
                ok = False
                detail = f"counting failed on {d}"
                break
        if not ok:
            break
    record("counting-sweep", ok, detail)

    # The bare cuspidal point restricts to exactly one term, 1 (x) sigma.
    full = module_comult(ClassElt.cusp(ctx.sigma), ctx)
    items = list(full.terms.coeffs.items())
    ok = len(items) == 1 and items[0][1] == 1 and items[0][0][0] == EMPTY_MS
    record("cuspidal-point-restriction", ok, "" if ok else str(full))

    return out


def cmd_selftest(args: argparse.Namespace) -> int:
    results = _selftest_checks()
    all_ok = all(ok for _, ok, _ in results)
    if args.json:
        _emit_json(
            {
                "command": "selftest",
                "checks": [
                    {"name": name, "ok": ok, "detail": detail}
                    for name, ok, detail in results
                ],
                "status": "ok" if all_ok else "fail",
            }
        )
    else:
        for name, ok, detail in results:
            line = f"{'PASS' if ok else 'FAIL'} {name}"
            if detail and not ok:
                line += f": {detail}"
            print(line)
        print("selftest: " + ("all passed" if all_ok else "FAILURES above"))
    return EXIT_OK if all_ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_ctx_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ctx", metavar="FILE", help="context file (key = value)")
    p.add_argument("--json", action="store_true", help="JSON output")


def _add_datum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_halfint_arg, required=True,
                   help="first exponent of the chain (e.g. 1/2, 1, 3/2)")
    p.add_argument("--n", type=_chain_length_arg, required=True,
                   help="number of steps in the chain (chain has n+1 exponents;"
                   f" 0 <= n <= {MAX_CHAIN_LENGTH})")
    p.add_argument("--line", default="rho", help="line id (default rho)")
    p.add_argument("--sigma", default="sigma",
                   help="cuspidal point label (default sigma)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspline",
        description="Exact calculus for induced representations on a "
        "cuspidal line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expression")
    _add_ctx_json(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "enumerate", help="list the subquotient labels of an exponent chain"
    )
    _add_datum_args(p)
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify one subquotient label")
    _add_datum_args(p)
    p.add_argument("--cuts", type=_cuts_arg, required=True,
                   help="cut mask as 0/1 bits, low step first ('' for n=0)")
    p.add_argument("--bottom", action="store_true",
                   help="take the minus form of the bottom block")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_classify)

    for name, help_text in (
        ("check-length", "certify at least five distinct subquotients"),
        ("check-mult", "bound the witness Jacquet multiplicity by four"),
        ("check-prop41", "run both bounds and the 5 > 4 conclusion"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_datum_args(p)
        p.add_argument("--cuts", type=_cuts_arg, default=None,
                       help="cut mask as 0/1 bits (omit with --all)")
        p.add_argument("--bottom", action="store_true",
                       help="take the minus form of the bottom block")
        p.add_argument("--all", action="store_true",
                       help="sweep every eligible subquotient of the chain")
        p.add_argument("--jobs", type=_jobs_arg, default=1,
                       help="process pool size for --all (default 1, <= CPUs)")
        p.add_argument("--verbose", action="store_true",
                       help="print full certificates in --all mode")
        _add_ctx_json(p)
        p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "jantzen-split",
        help="filter a restriction by a two-sided line partition",
    )
    p.add_argument("expression")
    p.add_argument("--part1", type=lambda s: [t for t in s.split(",") if t],
                   required=True, metavar="LINES",
                   help="comma-separated line ids of side 1")
    p.add_argument("--part2", type=lambda s: [t for t in s.split(",") if t],
                   required=True, metavar="LINES",
                   help="comma-separated line ids of side 2")
    p.add_argument("--side", type=int, choices=(1, 2), default=None,
                   help="only output this side (default both)")
    _add_ctx_json(p)
    p.set_defaults(func=cmd_jantzen_split)

    p = sub.add_parser(
        "transport",
        help="relabel a single-line element onto another line",
    )
    p.add_argument("expression")
    p.add_argument("--from-line", required=True, metavar="LINE")
    p.add_argument("--to-line", required=True, metavar="LINE")
    p.add_argument("--sigma-to", default=None, metavar="LABEL",
                   help="also rename the cuspidal point label")
    _add_ctx_json(p)
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser(
        "generic-check",
        help="decide generic unitarizability from a JSON description",
    )
    p.add_argument("datafile")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_generic_check)

    p = sub.add_parser("selftest", help="run quick internal identity checks")
    p.add_argument("--json", action="store_true", help="JSON output")
    p.set_defaults(func=cmd_selftest)

    return parser


def cmd_classify(args: argparse.Namespace) -> int:
    d = _single_datum(args)
    tag = classify(d)
    if args.json:
        _emit_json(
            {
                "command": "classify",
                "datum": d.to_jsonable(),
                "case": tag.value,
                "status": "ok",
            }
        )
    else:
        print(tag.value)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DslSyntaxError, DslTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedDatumError as exc:
        print(f"error: unsupported datum: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: bad JSON input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CusplineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
