#!/usr/bin/env python3
"""Sweep the subquotient counting certificates over a grid of chain data.

For every pair (reducibility point alpha, chain length n) in the grid, the
script enumerates all 2^(n+1) subquotient labels of the exponent chain,
classifies them, runs the combined length / multiplicity certification on
every eligible label, and prints one summary row per pair:

    alpha=1/2 n=3  data=16 eligible=14 certified=14  min_certs=5 max_mult=4

The two extreme labels (the fully generic one and its dual) are counted but
never certified; they are the representations the bounds are measured
against.  With ``--dump-dir`` the full JSON report of every certified datum
is written to one file per datum.  Exit status is 0 when every eligible
datum certifies, 1 otherwise, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from cuspline.core import Context, CusplineError, DEFAULT_CONTEXT
from cuspline.halfint import HalfInt
from cuspline.cli import load_context, parse_alpha
from cuspline.subquotients import (
    EXTREMES,
    MAX_ALPHA,
    MAX_CHAIN_LENGTH,
    check_prop41,
    classify,
    enumerate_subquotients,
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and output options for one sweep run."""

    alphas: Tuple[HalfInt, ...]
    n_values: Tuple[int, ...]
    line: str
    sigma: str
    ctx: Context
    dump_dir: Optional[pathlib.Path]
    verbose: bool


def parse_args(argv: Optional[Sequence[str]] = None) -> SweepConfig:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--alphas",
        default="1/2,1,3/2",
        help=f"comma-separated reducibility points, each at most {MAX_ALPHA}"
        " (default: 1/2,1,3/2)",
    )
    parser.add_argument(
        "--n",
        default="1,2,3",
        help="comma-separated chain lengths (default: 1,2,3)",
    )
    parser.add_argument("--line", default="rho", help="cuspidal line id")
    parser.add_argument("--sigma", default="sigma", help="base point label")
    parser.add_argument(
        "--ctx", metavar="FILE", help="context file (key = value lines)"
    )
    parser.add_argument(
        "--dump-dir",
        metavar="DIR",
        help="write one JSON report per certified datum into DIR",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print one line per datum"
    )
    args = parser.parse_args(argv)
    try:
        alphas = tuple(parse_alpha(a) for a in args.alphas.split(","))
        n_values = tuple(int(n.strip()) for n in args.n.split(","))
    except ValueError as exc:
        parser.error(str(exc))
    if not all(0 <= n <= MAX_CHAIN_LENGTH for n in n_values):
        parser.error(f"chain lengths must be integers from 0 to {MAX_CHAIN_LENGTH}")
    try:
        ctx = load_context(args.ctx) if args.ctx else DEFAULT_CONTEXT
    except CusplineError as exc:
        parser.error(f"--ctx: {exc}")
    dump_dir = pathlib.Path(args.dump_dir) if args.dump_dir else None
    return SweepConfig(
        alphas=alphas,
        n_values=n_values,
        line=args.line,
        sigma=args.sigma,
        ctx=ctx,
        dump_dir=dump_dir,
        verbose=args.verbose,
    )


def run(config: SweepConfig) -> int:
    if config.dump_dir is not None:
        config.dump_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    start = time.monotonic()
    for alpha in config.alphas:
        for n in config.n_values:
            data = enumerate_subquotients(
                alpha, n, line=config.line, sigma=config.sigma
            )
            eligible = [d for d in data if classify(d) not in EXTREMES]
            certified = 0
            min_certs: Optional[int] = None
            max_mult = 0
            for i, d in enumerate(eligible):
                report = check_prop41(d, config.ctx)
                if report.ok:
                    certified += 1
                else:
                    failures += 1
                count = len(report.certificates)
                min_certs = count if min_certs is None else min(min_certs, count)
                max_mult = max(max_mult, report.mult_bound or 0)
                if config.verbose:
                    status = "ok" if report.ok else "FAIL"
                    print(
                        f"  [{status}] {report.case.value} cuts={d.cuts} "
                        f"bottom={d.bottom} certs={count} "
                        f"mult<={report.mult_bound}"
                    )
                if config.dump_dir is not None:
                    path = config.dump_dir / (
                        f"alpha{alpha.num2}half_n{n}_{i:02d}.json"
                    )
                    path.write_text(
                        json.dumps(report.to_jsonable(), indent=2, sort_keys=True)
                    )
            print(
                f"alpha={alpha} n={n}  data={len(data)} "
                f"eligible={len(eligible)} certified={certified}  "
                f"min_certs={min_certs} max_mult={max_mult}"
            )
    elapsed = time.monotonic() - start
    print(f"total failures: {failures} ({elapsed:.2f}s)")
    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
