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
on stdout (sorted keys, half-integers as ``{"num2": ...}``).  Every document
carries ``"command"`` and ``"status"`` (``"ok"`` with exit code 0, ``"fail"``
with 1), plus ``"context"`` for the commands that take ``--ctx``.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .core import (
    MAX_DIGITS, Context, CusplineError, DEFAULT_CONTEXT, Line, Multisegment, Segment,
)
from .glhopf import GLElt
from .halfint import HalfInt, hi
from .classical import ClassElt
from .subquotients import (
    EXTREMES,
    MAX_ALPHA,
    MAX_CHAIN_LENGTH,
    CertStep,
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
from .dsl import DslTypeError, evaluate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# What a command returns: (exit code, JSON payload, text lines).
Outcome = Tuple[int, Dict[str, Any], Iterable[Any]]

# Largest accepted --ctx or generic-check input file, in characters.
MAX_INPUT_CHARS = 1 << 20


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
                    alpha[line_id] = parse_alpha(value)
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


def _read_text(path: str) -> str:
    """A UTF-8 input file; one that cannot be read, or that is longer than
    ``MAX_INPUT_CHARS``, is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read(MAX_INPUT_CHARS + 1)
    except OSError as exc:
        raise CusplineError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CusplineError(f"{path} is not UTF-8 text: {exc}") from exc
    if len(text) > MAX_INPUT_CHARS:
        raise CusplineError(f"{path} is longer than {MAX_INPUT_CHARS} characters")
    return text


def load_context(path: Optional[str]) -> Context:
    if path is None:
        return DEFAULT_CONTEXT
    return parse_context(_read_text(path))


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(jsonable(value), sort_keys=True, indent=2)``, written
    here, with strings escaped in C (given ``indent``, ``json.dumps`` runs its
    pure-Python encoder).  A library value is written from its shallow
    ``_json_fields()``; ``indent`` is the newline and indentation of the
    depth being written.  The text of a value of a ``_REPEATED`` type comes
    from ``_repeated_text``, at depth 0, with each newline replaced by
    ``indent``: that is exact because every newline inside a string is
    escaped, so the only newlines are indentation."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind in _REPEATED:
        text = _repeated_text(value)
        return text if indent == "\n" else text.replace("\n", indent)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    fields = getattr(value, "_json_fields", None)
    if fields is not None:
        value = fields()
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{_encode_str(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)  # floats; TypeError for what JSON cannot hold


# The types whose values recur across the documents of a process (a sweep's
# segments, multisegments, exponents and certificate steps), so that
# ``_json_text`` writes each value's text once.  Reports and Langlands data
# are left out: they hardly repeat, and their texts are large.
_REPEATED = frozenset((Segment, Multisegment, HalfInt, CertStep))


@functools.lru_cache(maxsize=4096)
def _repeated_text(value) -> str:
    """The depth-0 ``_json_text`` of a ``_REPEATED`` value: a bounded memo
    that ``cuspline.clear_caches()`` empties."""
    return _json_text(value._json_fields())


def parse_alpha(text: str) -> HalfInt:
    """A reducibility exponent written as ``2``, ``-1`` or ``5/2``, as
    ``--alpha`` and a context file give it.  ValueError for a number of more
    than ``MAX_DIGITS`` digits and for a value above ``MAX_ALPHA``."""
    digits = sum(map(str.isdigit, text.partition("/")[0]))
    if digits > MAX_DIGITS:
        raise ValueError(f"number of {digits} digits, more than {MAX_DIGITS}")
    alpha = HalfInt.parse(text)
    if alpha > hi(MAX_ALPHA):
        raise ValueError(f"alpha must be at most {MAX_ALPHA}, got {text.strip()}")
    return alpha


def _alpha_arg(text: str) -> HalfInt:
    try:
        return parse_alpha(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


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
#
# Every command takes the parsed arguments and the context and returns
# (exit code, JSON payload, text lines); ``main`` alone prints.  Payload
# values and lines may be library objects, written through ``_json_text``
# and ``str()``, and the lines may be a generator, so only the form that is
# printed gets built.

def _element(args: argparse.Namespace, ctx: Context) -> Union[GLElt, ClassElt]:
    """The ring or module element ``args.expression``; a tensor is a typing
    error of the command."""
    value = evaluate(args.expression, ctx)
    if not isinstance(value, (GLElt, ClassElt)):
        raise DslTypeError(
            f"{args.command} needs a ring or module element, not a tensor"
        )
    return value


def cmd_eval(args: argparse.Namespace, ctx: Context) -> Outcome:
    value = evaluate(args.expression, ctx)
    return EXIT_OK, {"expression": args.expression, "result": value}, [value]


def cmd_enumerate(args: argparse.Namespace, ctx: Context) -> Outcome:
    data = enumerate_subquotients(args.alpha, args.n, args.line, args.sigma)
    cases = [classify(d).value for d in data]
    payload = {
        "count": len(data),
        "subquotients": [{"datum": d, "case": case} for d, case in zip(data, cases)],
    }

    def lines():
        yield from (f"{case:18s} {d}" for d, case in zip(data, cases))
        yield f"total: {len(data)}"

    return EXIT_OK, payload, lines()


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


def cmd_classify(args: argparse.Namespace, ctx: Context) -> Outcome:
    d = _single_datum(args)
    tag = classify(d)
    return EXIT_OK, {"datum": d, "case": tag.value}, [tag.value]


_CHECKS = {
    "check-length": check_length_ge5,
    "check-mult": check_mult_le4,
    "check-prop41": check_prop41,
}


def cmd_check(args: argparse.Namespace, ctx: Context) -> Outcome:
    check = _CHECKS[args.command]
    if not args.all:
        report = check(_single_datum(args), ctx)
        code = EXIT_OK if report.ok else EXIT_FAIL
        return code, {"report": report}, [report]
    for flag, given in (("--cuts", args.cuts is not None), ("--bottom", args.bottom)):
        if given:
            raise CusplineError(f"--all sweeps every datum of the chain: drop {flag}")

    data = enumerate_subquotients(args.alpha, args.n, args.line, args.sigma)
    eligible, skipped = [], []
    for d in data:
        (skipped if classify(d) in EXTREMES else eligible).append(d)
    reports = [check(d, ctx) for d in eligible]
    all_ok = all(r.ok for r in reports)
    payload = {"checked": len(reports), "skipped": skipped, "reports": reports}

    def lines():
        for d in skipped:
            yield f"SKIP {classify(d).value}: {d} (irreducible extreme)"
        for report in reports:
            verdict = "PASS" if report.ok else "FAIL"
            yield f"{verdict} {report.case.value}: {report.datum}"
            if args.verbose or not report.ok:
                yield from (f"  {line}" for line in report.render_lines()[1:])
        yield (
            f"checked {len(reports)} subquotients, "
            f"skipped {len(skipped)} extremes: "
            + ("all passed" if all_ok else "FAILURES above")
        )

    return (EXIT_OK if all_ok else EXIT_FAIL), payload, lines()


def cmd_jantzen_split(args: argparse.Namespace, ctx: Context) -> Outcome:
    part = LinePartition(frozenset(args.part1), frozenset(args.part2))
    sides = (args.side,) if args.side is not None else (1, 2)
    value = _element(args, ctx)
    restrict = (
        twisted_comult_filtered if isinstance(value, GLElt) else module_comult_filtered
    )
    filtered = {side: restrict(value, part, side, ctx) for side in sides}
    payload = {
        "expression": args.expression,
        "partition": part,
        "filtered": {str(side): filtered[side] for side in sides},
    }

    def lines():
        for side in sides:
            yield f"side {side} (left support in part{side}):"
            yield f"  {filtered[side]}"

    return EXIT_OK, payload, lines()


def cmd_transport(args: argparse.Namespace, ctx: Context) -> Outcome:
    value = _element(args, ctx)
    if isinstance(value, GLElt):
        if args.sigma_to is not None:
            raise DslTypeError("--sigma-to only applies to module elements")
        moved = transport_gl(value, args.from_line, args.to_line, ctx)
    else:
        moved = transport_class(
            value, args.from_line, args.to_line, ctx, args.sigma_to
        )
    payload = {
        "expression": args.expression,
        "from": args.from_line,
        "to": args.to_line,
        "result": moved,
    }
    return EXIT_OK, payload, [moved]


def _load_generic_data(path: str) -> List[GenericDatum]:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except RecursionError:
        raise MalformedDatumError("JSON input is nested too deeply") from None
    except ValueError as exc:  # also a number of more than 4300 digits
        raise MalformedDatumError(f"bad JSON input: {exc}") from None
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
        for name in ("label", "partner", "line"):
            value = entry.get(name)
            if not (isinstance(value, str) or (value is None and name != "label")):
                raise MalformedDatumError(
                    f"entry {i}: {name} must be a JSON string, got {value!r}"
                )
        flags = {
            name: entry.get(name, name == "selfdual")
            for name in ("selfdual", "halfred", "tau_red")
        }
        for name, value in flags.items():
            if not isinstance(value, bool):
                raise MalformedDatumError(
                    f"entry {i}: {name} must be true or false, got {value!r}"
                )
        exponents = entry.get("exponents", [])
        if not isinstance(exponents, list):
            raise MalformedDatumError(
                f"entry {i}: exponents must be a JSON array, got {exponents!r}"
            )
        try:
            out.append(
                GenericDatum(
                    label=entry["label"],
                    exponents=tuple(exponents),
                    partner=entry.get("partner"),
                    line=entry.get("line"),
                    **flags,
                )
            )
        except (TypeError, ValueError) as exc:
            raise MalformedDatumError(f"entry {i}: {exc}") from exc
    return out


def cmd_generic_check(args: argparse.Namespace, ctx: Context) -> Outcome:
    result = generic_unitarizable(_load_generic_data(args.datafile))
    code = EXIT_OK if result.unitarizable else EXIT_FAIL
    payload = {"datafile": args.datafile, "result": result}
    return code, payload, result.render_lines()


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_datum_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_alpha_arg, required=True,
                   help="first exponent of the chain (e.g. 1/2, 1, 3/2;"
                   f" at most {MAX_ALPHA})")
    p.add_argument("--n", type=_chain_length_arg, required=True,
                   help="number of steps in the chain (chain has n+1 exponents;"
                   f" 0 <= n <= {MAX_CHAIN_LENGTH})")
    p.add_argument("--line", default="rho", help="line id (default rho)")
    p.add_argument("--sigma", default="sigma",
                   help="cuspidal point label (default sigma)")


# The subcommands that read no context file, and so take no --ctx.
_NO_CONTEXT = ("enumerate", "classify", "generic-check")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspline",
        description="Exact calculus for induced representations on a "
        "cuspidal line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression")
    p.add_argument("expression")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "enumerate", help="list the subquotient labels of an exponent chain"
    )
    _add_datum_args(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("classify", help="classify one subquotient label")
    _add_datum_args(p)
    p.add_argument("--cuts", type=_cuts_arg, required=True,
                   help="cut mask as 0/1 bits, low step first ('' for n=0)")
    p.add_argument("--bottom", action="store_true",
                   help="take the minus form of the bottom block")
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
        p.add_argument("--verbose", action="store_true",
                       help="print full certificates in --all mode")
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
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser(
        "generic-check",
        help="decide generic unitarizability from a JSON description",
    )
    p.add_argument("datafile")
    p.set_defaults(func=cmd_generic_check)

    # the last options of every subcommand
    for name, p in sub.choices.items():
        if name not in _NO_CONTEXT:
            p.add_argument("--ctx", metavar="FILE", help="context file (key = value)")
        p.add_argument("--json", action="store_true", help="JSON output")
    return parser


# The parser ``main`` uses, built on first use and then reused: a build
# costs about twenty times a ``check-prop41`` parse.
_parser = functools.cache(build_parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    takes_context = hasattr(args, "ctx")
    try:
        ctx = load_context(args.ctx) if takes_context else DEFAULT_CONTEXT
        code, payload, lines = args.func(args, ctx)
        if args.json:
            payload["command"] = args.command
            payload["status"] = "ok" if code == EXIT_OK else "fail"
            if takes_context:
                payload["context"] = ctx
            text = _json_text(payload)
        else:
            text = "\n".join(map(str, lines))
    except UnsupportedDatumError as exc:
        print(f"error: unsupported datum: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CusplineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
