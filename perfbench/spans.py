"""Spans and counters for the traced run, recorded from the benchmark's side.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces every
binding of each traced function -- module globals in every ``cuspline``
module and in ``workloads``, and values of module-level dicts such as the
CLI's ``_CHECKS`` table -- with a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.  Spans are kept in flat
arrays and written out when the run ends.
"""
from __future__ import annotations

import gc
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

# (module, attribute, span name, counter fed by the result)
TARGETS = (
    ("workloads", "fold_left", "core.key_fold", None),
    ("workloads", "fold_right", "core.key_fold", None),
    ("cuspline.glhopf", "comult", "glhopf.comult", "glhopf.tensor_terms"),
    ("cuspline.glhopf", "twisted_comult", "glhopf.twisted_comult", "glhopf.twisted_terms"),
    ("cuspline.glhopf", "gl_twisted_part", "glhopf.gl_twisted_part", None),
    ("cuspline.classical", "module_comult", "classical.module_comult", "classical.module_terms"),
    ("cuspline.jantzen", "filtered_identity_sides", "jantzen.filtered_identity", None),
    ("cuspline.subquotients", "check_prop41", "subquotients.check", "subquotients.certificates"),
    ("cuspline.cli", "main", "cli.main", None),
)

# Per-layer metrics in report order: (name, unit).  Times named in
# SELF_TIME are span durations minus the time their child spans cover; the
# other times are whole span durations (none of these spans nest inside a
# span of the same name).
PER_LAYER = (
    ("core.key_fold_s", "s"),
    ("glhopf.comult_s", "s"),
    ("glhopf.comult_calls", "count"),
    ("glhopf.tensor_terms", "count"),
    ("glhopf.comult_key_hits", "count"),
    ("glhopf.comult_key_misses", "count"),
    ("glhopf.comult_key_entries", "count"),
    ("glhopf.comult_segment_entries", "count"),
    ("glhopf.twisted_comult_s", "s"),
    ("glhopf.twisted_comult_calls", "count"),
    ("glhopf.twisted_terms", "count"),
    ("glhopf.gl_twisted_part_s", "s"),
    ("glhopf.gl_twisted_part_calls", "count"),
    ("classical.module_comult_s", "s"),
    ("classical.module_comult_calls", "count"),
    ("classical.module_terms", "count"),
    ("jantzen.filtered_identity_s", "s"),
    ("jantzen.filtered_identity_calls", "count"),
    ("subquotients.check_s", "s"),
    ("subquotients.check_calls", "count"),
    ("subquotients.certificates", "count"),
    ("cli.main_s", "s"),
    ("cli.main_calls", "count"),
    ("cli.output_bytes", "bytes"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_gen2_collections", "count"),
    ("trace.overhead_s", "s"),
)
SELF_TIME = {
    "classical.module_comult",
    "jantzen.filtered_identity",
    "subquotients.check",
    "cli.main",
}


def result_size(result) -> int:
    """Number of terms of a returned tensor, or of certificates of a report."""
    certificates = getattr(result, "certificates", None)
    if certificates is not None:
        return len(certificates)
    return len(result.terms)


class Tracer:
    def __init__(self):
        self.span_names: list = []
        self.name_of = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_started = 0.0
        self._patches: list = []

    # -- recording ---------------------------------------------------------
    def wrap(self, span: str, fn, counter=None):
        if span not in self.span_names:
            self.span_names.append(span)
        nid = self.span_names.index(span)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                counts[counter] += result_size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_gen2 += info["generation"] == 2

    # -- installing ----------------------------------------------------------
    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "cuspline" or name.startswith("cuspline.")
        ] + [sys.modules["workloads"]]
        for modname, attr, span, counter in TARGETS:
            original = getattr(sys.modules.get(modname), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span, original, counter)
            for mod in modules:
                namespace = vars(mod)
                tables = [namespace] + [v for v in namespace.values() if type(v) is dict]
                for table in tables:
                    for key, value in list(table.items()):
                        if value is original:
                            table[key] = wrapper
                            self._patches.append((table, key, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for table, key, original in reversed(self._patches):
            table[key] = original
        self._patches.clear()

    def reset_counts(self) -> int:
        """Start a round; returns the index of its first span."""
        self.counts.clear()
        self.gc_s = 0.0
        self.gc_gen2 = 0
        return len(self.start)

    # -- reading -------------------------------------------------------------
    def span_times(self, first: int):
        """Calls, whole time and self time per span name, from span ``first``."""
        last = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(first, last)]
        children = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                children[p - first] += duration[i - first]
        calls: Counter = Counter()
        whole: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i in range(first, last):
            name = self.span_names[self.name_of[i]]
            calls[name] += 1
            whole[name] += duration[i - first]
            own[name] += duration[i - first] - children[i - first]
        return calls, whole, own

    def round_metrics(self, first: int, caches: dict) -> dict:
        """Per-layer metrics of the round whose spans start at ``first``.

        ``caches`` maps "comult_key" and "comult_segment" to ``cache_info()``.
        """
        calls, whole, own = self.span_times(first)

        def t(span):
            return own[span] if span in SELF_TIME else whole[span]

        key, segment = caches["comult_key"], caches["comult_segment"]
        out = {
            "core.key_fold_s": t("core.key_fold"),
            "glhopf.comult_key_hits": key.hits,
            "glhopf.comult_key_misses": key.misses,
            "glhopf.comult_key_entries": key.currsize,
            "glhopf.comult_segment_entries": segment.currsize,
            "runtime.gc_s": self.gc_s,
            "runtime.gc_gen2_collections": self.gc_gen2,
        }
        for span in (
            "glhopf.comult",
            "glhopf.twisted_comult",
            "glhopf.gl_twisted_part",
            "classical.module_comult",
            "jantzen.filtered_identity",
            "subquotients.check",
            "cli.main",
        ):
            out[span + "_s"] = t(span)
            out[span + "_calls"] = calls[span]
        for counter in (
            "glhopf.tensor_terms",
            "glhopf.twisted_terms",
            "classical.module_terms",
            "subquotients.certificates",
            "cli.output_bytes",
        ):
            out[counter] = self.counts[counter]
        return out

    def write(self, path, origin: float) -> None:
        """All spans as tab-separated lines, times in seconds from ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tparent\tstart_s\tend_s\n")
            names = self.span_names
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{names[self.name_of[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i] - origin:.7f}\t{self.end[i] - origin:.7f}\n"
                )
