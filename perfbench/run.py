"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload restrict-coassoc --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; the program is imported from ``src/``.
Set-up (a fresh import of ``cuspline`` plus building the inputs) is done
SETUP_REPEATS times and ``setup_s`` is the median.  The timed part runs whole
rounds over every item, one item after the other, until ``--seconds`` have
passed; before each round the program's ``lru_cache``s are cleared, so every
round pays to fill them as a fresh process does.  Outputs are checked after
each item, outside its timer.  ``run_s`` is the sum of one round's item
times and ``item_p50_ms`` / ``item_p99_ms`` are percentiles of one round's
item times (every round has over 1000 items); each is the median over the
run's rounds, so one round slowed by other load on the machine does not
move it.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced rounds alternate, the per-layer metrics come from the
traced rounds and ``trace.overhead_s`` is the difference of the two rounds'
median ``run_s``.  The last line of standard output is one JSON object;
the same result, with the run's environment, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import PER_LAYER, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload_cls, seed: int):
    """Import ``cuspline`` afresh and build the inputs; returns (seconds,
    workload)."""
    for name in [m for m in sys.modules if m == "cuspline" or m.startswith("cuspline.")]:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("cuspline")
    workload = workload_cls(seed)
    return time.perf_counter() - start, workload


def program_caches() -> dict:
    """Every ``functools`` cache in the imported program, by qualified name."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if not (name == "cuspline" or name.startswith("cuspline.")):
            continue
        values = list(vars(mod).values())
        values += [v for c in values if isinstance(c, type) for v in vars(c).values()]
        for value in values:
            fn = getattr(value, "__func__", value)
            if hasattr(fn, "cache_clear") and hasattr(fn, "cache_info"):
                found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


class Round:
    def __init__(self):
        self.latencies: list = []
        self.failures: list = []  # operations that raised or reported failure
        self.wrong: list = []  # checks that did not hold


def run_round(workload, run, tracer=None) -> Round:
    r = Round()
    results = []
    clock = time.perf_counter
    for item in workload.items:
        start = clock()
        try:
            out = run(item)
        except Exception as exc:  # a failing operation is counted, the run goes on
            r.latencies.append(clock() - start)
            r.failures.append(f"{type(exc).__name__}: {exc}")
            continue
        r.latencies.append(clock() - start)
        if workload.failed(out):
            r.failures.append(f"{out!r:.200}")
            continue
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += workload.output_bytes(out)
        try:
            results.append(workload.check(item, out))
        except Exception as exc:  # output the check cannot even read is wrong
            r.wrong.append(f"{type(exc).__name__}: {exc}")
    if not r.failures:
        try:
            workload.check_round(results)
        except AssertionError as exc:
            r.wrong.append(str(exc))
    return r


def measure(workload, seconds: float, caches: dict, tracer=None):
    """Whole rounds until ``seconds`` have passed.  With a tracer, rounds
    alternate untraced and traced, starting untraced, and at least one of
    each is run.  Returns (untraced rounds, traced rounds, per-layer metrics
    of each traced round)."""
    plain, traced, layers = [], [], []
    begin = time.perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        for cache in caches.values():
            cache.cache_clear()
        gc.collect()
        if use_tracer:
            first = tracer.reset_counts()
            tracer.install()
            try:
                r = run_round(workload, tracer.wrap("item", workload.run), tracer)
            finally:
                tracer.uninstall()
            info = {
                key: caches[f"cuspline.glhopf.{key}"].cache_info()
                for key in ("comult_key", "comult_segment")
            }
            layers.append(tracer.round_metrics(first, info))
            traced.append(r)
        else:
            plain.append(run_round(workload, workload.run))
        enough = tracer is None or traced
        if enough and time.perf_counter() - begin >= seconds:
            return plain, traced, layers


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cuspline" / "__init__.py").is_file():
        print(f"error: no cuspline package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, workload = set_up(WORKLOADS[args.workload], args.seed)
        setup_times.append(seconds)
    program = Path(sys.modules["cuspline"].__file__).resolve()
    if SRC not in program.parents:
        print(f"error: imported cuspline from {program}, not {SRC}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()
    plain, traced, layers = measure(workload, args.seconds, program_caches(), tracer)
    rounds = plain + traced
    wrong = [w for r in rounds for w in r.wrong]
    try:
        workload.final_check()
    except AssertionError as exc:
        wrong.append(str(exc))
    failures = [f for r in rounds for f in r.failures]
    for message in [f"failed: {f}" for f in failures][:5] + [f"wrong: {w}" for w in wrong][:5]:
        print(message, file=sys.stderr)
    attempted = sum(len(r.latencies) for r in rounds)
    failed = len(failures)
    correct = not wrong

    run_s = statistics.median(sum(r.latencies) for r in plain)
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "item_p50_ms": 1e3 * statistics.median(
                statistics.median(r.latencies) for r in plain
            ),
            "item_p99_ms": 1e3 * statistics.median(
                percentile(r.latencies, 99) for r in plain
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    else:
        values = {  # the lower median is a value one round measured
            name: statistics.median_low(layer[name] for layer in layers)
            for name, _ in PER_LAYER
            if name != "trace.overhead_s"
        }
        traced_s = statistics.median(sum(r.latencies) for r in traced)
        values["trace.overhead_s"] = traced_s - run_s
        units = dict(PER_LAYER)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": nproc(),
        "items_per_round": len(workload.items),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "round_run_s": [sum(r.latencies) for r in plain],
        "setup_times_s": setup_times,
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.tsv.gz", origin)

    print(
        f"{args.workload} seed={args.seed} sha={record['git_sha'][:12]} "
        f"python={record['python']} nproc={record['nproc']} "
        f"rounds={len(plain)}+{len(traced)} traced "
        f"attempted={attempted} failed={failed} correct={correct}"
    )
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
