"""The benchmark's three workloads: inputs, the timed item, and its checks.

Each workload is built from a seed inside a fresh import of ``cuspline`` and
holds a list of items.  ``run(item)`` is the timed operation; ``check(item,
out)`` is untimed and raises :class:`CheckError` on a wrong result.  The
checks use properties the mathematics must have, or counts made here from
plain integers, never stored program output.

Segments are described here as pairs ``(b2, e2)`` of doubled endpoints, so
every count below is made without the program's own types.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import re
from collections import Counter
from math import prod


class CheckError(AssertionError):
    """An output broke a property the method must have."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


def window_pairs(lo2: int, hi2: int, max_length: int):
    """Segments ``(b2, e2)`` with both ends in [lo2/2, hi2/2], b2 = e2 mod 2,
    and at most ``max_length`` exponents."""
    return [
        (b2, e2)
        for b2 in range(lo2, hi2 + 1)
        for e2 in range(b2, hi2 + 1, 2)
        if (e2 - b2) // 2 + 1 <= max_length
    ]


def seg_length(pair) -> int:
    b2, e2 = pair
    return (e2 - b2) // 2 + 1


def multisets_up_to(pool, max_size: int):
    """Every multiset of pool entries (the empty one included) with total
    length at most ``max_size``, as tuples of pool entries."""
    out = [()]

    def extend(start, current, size):
        for i in range(start, len(pool)):
            new_size = size + seg_length(pool[i])
            if new_size <= max_size:
                nxt = current + (pool[i],)
                out.append(nxt)
                extend(i, nxt, new_size)

    extend(0, (), 0)
    return out


class Workload:
    """Shared shape: modules from the current import, items in seeded order."""

    name = ""

    def __init__(self, seed: int):
        self.core = importlib.import_module("cuspline.core")
        self.glhopf = importlib.import_module("cuspline.glhopf")
        self.items = self.build(random.Random(seed))

    def build(self, rng: random.Random) -> list:
        raise NotImplementedError

    def multisegment(self, pairs, line: str = "rho"):
        seg = self.core.seg
        return self.core.ms(*(seg(f"{b2}/2", f"{e2}/2", line) for b2, e2 in pairs))

    def failed(self, out) -> bool:
        """Whether an operation that returned reported failure itself."""
        return False

    def output_bytes(self, out) -> int:
        return 0

    def check_round(self, results: list) -> None:
        """Checks over the whole round; ``results`` are ``check`` returns."""

    def final_check(self) -> None:
        """Checks run once per run, after the timed rounds."""


# ---------------------------------------------------------------------------
# restrict-coassoc: L0 keys and L1 comult
# ---------------------------------------------------------------------------

def fold_left(out: dict, pairs: dict, c: int, right) -> None:
    """Add c * ((q1, q2) (x) right) into the triple expansion ``out``."""
    for (q1, q2), c2 in pairs.items():
        k = (q1, q2, right)
        out[k] = out.get(k, 0) + c * c2


def fold_right(out: dict, pairs: dict, c: int, left) -> None:
    """Add c * (left (x) (q1, q2)) into the triple expansion ``out``."""
    for (q1, q2), c2 in pairs.items():
        k = (left, q1, q2)
        out[k] = out.get(k, 0) + c * c2


class RestrictCoassoc(Workload):
    """Coassociativity of the restriction on every key of a window.

    Keys: every multisegment of total support <= 5 built from segments with
    endpoints in [0, 4] and length <= 5, in both rigid bases.
    """

    name = "restrict-coassoc"
    WINDOW = (0, 8, 5)  # doubled endpoints 0..8, segment length <= 5
    MAX_SIZE = 5

    def build(self, rng):
        lo2, hi2, max_len = self.WINDOW
        shapes = multisets_up_to(window_pairs(lo2, hi2, max_len), self.MAX_SIZE)
        self.recount = recount_keys(lo2, hi2, max_len, self.MAX_SIZE)
        keys = [self.multisegment(shape) for shape in shapes]
        self.distinct_keys = len(set(keys))
        self.empty = self.core.ms()
        items = []
        for make in (self.glhopf.delta_key, self.glhopf.zeta_key):
            for shape, key in zip(shapes, keys):
                items.append((make, key, prod(seg_length(p) + 1 for p in shape)))
        rng.shuffle(items)
        return items

    def run(self, item):
        make, key, _ = item
        g = self.glhopf
        step = g.comult(make(key)).terms.coeffs
        left: dict = {}
        right: dict = {}
        for (a, b), c in step.items():
            fold_left(left, g.comult(make(a)).terms.coeffs, c, b)
            fold_right(right, g.comult(make(b)).terms.coeffs, c, a)
        return step, left, right

    def check(self, item, out):
        _, key, coeff_sum = item
        step, left, right = out
        if left != right:  # equal up to zero coefficients is still equal
            require(
                {k: v for k, v in left.items() if v}
                == {k: v for k, v in right.items() if v},
                f"coassociativity fails at {key}",
            )
        require(step.get((key, self.empty)) == 1, f"(key, 1) coefficient at {key}")
        require(step.get((self.empty, key)) == 1, f"(1, key) coefficient at {key}")
        require(
            sum(step.values()) == coeff_sum,
            f"coefficient sum {sum(step.values())} != {coeff_sum} at {key}",
        )

    def final_check(self):
        require(
            self.distinct_keys == self.recount,
            f"{self.distinct_keys} distinct keys, integer recount {self.recount}",
        )


def recount_keys(lo2: int, hi2: int, max_len: int, max_size: int) -> int:
    """Number of multisets of integer segments with total length <= max_size,
    counted by dynamic programming over the segments (no enumeration)."""
    ways = [1] + [0] * max_size  # ways[s]: multisets of total length s
    for pair in window_pairs(lo2, hi2, max_len):
        step = seg_length(pair)
        for s in range(step, max_size + 1):  # unbounded multiplicity
            ways[s] += ways[s - step]
    return sum(ways)


# ---------------------------------------------------------------------------
# module-filter: L1 twisted restriction, L2 module_comult, L3 jantzen
# ---------------------------------------------------------------------------

class ModuleFilter(Workload):
    """The filtered restriction identity for ring elements on ``rho`` times
    module elements on ``tau``, in a two-line context."""

    name = "module-filter"
    WINDOW = (-4, 4, 4)  # doubled endpoints -4..4, segment length <= 4
    MAX_SIZE = 4

    def build(self, rng):
        core = self.core
        classical = importlib.import_module("cuspline.classical")
        self.jantzen = importlib.import_module("cuspline.jantzen")
        hi = core.hi
        self.ctx = core.Context(
            "sigma",
            {
                "rho": core.Line("rho", True, hi("1/2")),
                "tau": core.Line("tau", True, hi(1)),
            },
        )
        self.part = self.jantzen.LinePartition(
            frozenset({"rho"}), frozenset({"tau"})
        )
        one, two = core.ms(core.seg(1, 1, "tau")), core.ms(core.seg(2, 2, "tau"))
        module_elements = [
            classical.induced(one, classical.CuspSymbol()),
            classical.induced(two, classical.StGenSymbol("tau", hi(1), 0)),
            classical.induced(two, classical.CoStGenSymbol("tau", hi(1), 0)),
        ]
        lo2, hi2, max_len = self.WINDOW
        pairs = window_pairs(lo2, hi2, max_len)
        shapes = multisets_up_to(pairs, self.MAX_SIZE)
        self.segments = [(p, self.multisegment([p])) for p in pairs]
        rng.shuffle(shapes)
        return [
            (self.glhopf.delta_key(self.multisegment(shape)), module_elements[i % 3])
            for i, shape in enumerate(shapes)
        ]

    def run(self, item):
        x, y = item
        return self.jantzen.filtered_identity_sides(x, y, self.part, self.ctx)

    def check(self, item, out):
        lhs, rhs = out
        require(lhs.terms == rhs.terms, f"filtered identity fails at {item[0]}")

    def final_check(self):
        g = self.glhopf
        empty = self.core.ms()
        for (b2, e2), key in self.segments:
            tw = g.twisted_comult(g.delta_key(key), self.ctx)
            [segment] = key
            closed = g.twisted_comult_segment_closed(segment, self.ctx)
            require(tw == closed, f"closed form differs at {key}")
            if b2 == -e2:
                coeff = tw.terms.coeffs.get((key, empty), 0)
                require(coeff == 2, f"(witness, 1) coefficient {coeff} at {key}")


# ---------------------------------------------------------------------------
# certify-cli: L3 certification and L4 argument parsing and rendering
# ---------------------------------------------------------------------------

ALPHAS = ("1/2", "1", "3/2", "2", "5/2")
CHAIN_LENGTHS = range(1, 7)
_SEGMENT = re.compile(r"\[(-?\d+(?:/2)?),(-?\d+(?:/2)?)\]")


def num2(text: str) -> int:
    """Doubled value of a half-integer literal such as ``-3/2`` or ``2``."""
    return int(text[:-2]) if text.endswith("/2") else 2 * int(text)


def text_degree(text: str) -> int:
    """Total length of the segments written in ``text``; for a certificate
    this is its degree (tau and delta atoms carry their segment's length)."""
    return sum((num2(e) - num2(b)) // 2 + 1 for b, e in _SEGMENT.findall(text))


def json_degree(node) -> int:
    """Degree of a JSON certificate: the length of every segment in it, plus
    n + 1 for a generalized Steinberg atom and 2 * half + 1 for a tau atom."""
    if isinstance(node, list):
        return sum(json_degree(v) for v in node)
    if not isinstance(node, dict):
        return 0
    if {"b", "e"} <= node.keys():
        return (node["e"]["num2"] - node["b"]["num2"]) // 2 + 1
    own = 0
    if node.get("kind") in ("stgen", "costgen"):
        own = node["n"] + 1
    elif node.get("kind") == "tau-pm":
        own = node["half"]["num2"] + 1
    return own + sum(json_degree(v) for v in node.values())


def expected_cases(n: int) -> Counter:
    """Eligible data of a chain of n + 1 exponents, by case."""
    return Counter(
        {"case-a": 2 ** (n - 1), "case-b": 2 ** (n - 1) - 1, "case-c": 2**n - 1}
    )


class CertifyCli(Workload):
    """``cuspline check-prop41`` on every eligible datum, in process."""

    name = "certify-cli"

    def build(self, rng):
        self.cli = importlib.import_module("cuspline.cli")
        data = []
        for alpha in ALPHAS:
            for n in CHAIN_LENGTHS:
                for mask in range(1 << n):
                    for bottom in (False, True):
                        # the two irreducible extremes have no certificate
                        if (mask == 0 and bottom) or (
                            mask == (1 << n) - 1 and not bottom
                        ):
                            continue
                        data.append((alpha, n, mask, bottom))
        as_json = [i < len(data) // 2 for i in range(len(data))]
        rng.shuffle(as_json)
        items = [d + (j,) for d, j in zip(data, as_json)]
        rng.shuffle(items)
        return items

    @staticmethod
    def argv(item) -> list:
        alpha, n, mask, bottom, as_json = item
        cuts = "".join("1" if (mask >> i) & 1 else "0" for i in range(n))
        argv = ["check-prop41", "--alpha", alpha, "--n", str(n), "--cuts", cuts]
        return argv + ["--bottom"] * bottom + ["--json"] * as_json

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.cli.main(self.argv(item))
            except SystemExit as exc:  # argparse refuses the arguments
                code = exc.code
        return code, buf.getvalue()

    def failed(self, out) -> bool:
        return out[0] != 0

    def output_bytes(self, out) -> int:
        return len(out[1].encode())

    def check(self, item, out):
        """Returns ((alpha, n), case) for the per-chain case count."""
        alpha, n, mask, bottom, as_json = item
        _, text = out
        if as_json:
            doc = json.loads(text)
            report = doc["report"]
            datum = {
                "alpha": {"num2": num2(alpha)},
                "bottom": bottom,
                "cuts": [bool((mask >> i) & 1) for i in range(n)],
                "line": "rho",
                "n": n,
                "sigma": "sigma",
            }
            require(report["datum"] == datum, f"datum not echoed: {report['datum']}")
            require(doc["status"] == "ok" and report["ok"], f"report not ok: {datum}")
            [term] = report["witness"]["terms"]
            witness_length = json_degree(term["key"])
            certs = report["certificates"]
            distinct = {json.dumps(c, sort_keys=True) for c in certs}
            degrees = [json_degree(c) for c in certs]
            mult_bound = report.get("mult_bound")
            case = report["case"]
        else:
            lines = text.splitlines()
            case = lines[0].split(":", 1)[0]
            [witness] = [ln for ln in lines if ln.startswith("  witness: ")]
            witness_length = text_degree(witness)
            certs = [ln for ln in lines if ln.startswith("  certificate: ")]
            distinct = set(certs)
            degrees = [text_degree(c) for c in certs]
            require(lines[-1] == "  result: PASS", f"report not ok: {item}")
            mult_bound = 4 if "  jacquet multiplicity <= 4" in lines else None
        require(len(distinct) >= 5, f"{len(distinct)} distinct certificates: {item}")
        require(mult_bound == 4, f"multiplicity bound {mult_bound}: {item}")
        require(
            all(d == witness_length + n + 1 for d in degrees),
            f"certificate degrees {degrees}, witness length {witness_length}: {item}",
        )
        return (alpha, n), case

    def check_round(self, results):
        by_chain: dict = {}
        for chain, case in results:
            by_chain.setdefault(chain, Counter())[case] += 1
        for alpha in ALPHAS:
            for n in CHAIN_LENGTHS:
                got = by_chain.get((alpha, n), Counter())
                require(
                    got == expected_cases(n),
                    f"cases at alpha={alpha}, n={n}: {dict(got)}",
                )


WORKLOADS = {w.name: w for w in (RestrictCoassoc, ModuleFilter, CertifyCli)}
