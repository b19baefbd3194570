"""Pure arithmetic of the benchmark: percentiles, failure accounting,
span self time and the served residual. Everything here works on plain numbers, so the self-tests in
test_perfbench.py can drive it with synthetic inputs."""

import math

# A tail percentile must leave at least this many samples beyond it.
SAMPLES_BEYOND = 10
# Never report a tail above this percentile.
TAIL_CAP = 99.0


def percentile(values, q):
    """Nearest-rank percentile `q` (0-100] of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_quantile(n, beyond=SAMPLES_BEYOND, cap=TAIL_CAP):
    """The highest percentile (at most `cap`) that leaves at least
    `beyond` of `n` samples above it, or None when that percentile would
    not even reach the median."""
    if n <= 0:
        return None
    q = min(cap, 100.0 * (n - beyond) / n)
    # Round down to a tenth, then make sure rounding kept `beyond` out.
    q = math.floor(q * 10.0) / 10.0
    while q > 0 and n - math.ceil(q / 100.0 * n) < beyond:
        q = round(q - 0.1, 1)
    return q if q >= 50.0 else None


def summary(values):
    """Median, p90 and the tail of `values`, with the sample count and
    the tail's percentile. Failed requests enter as `math.inf`, so they
    count as missing any limit."""
    n = len(values)
    out = {"n": n, "p50": None, "p90": None, "tail": None, "tail_q": None}
    if n == 0:
        return out
    out["p50"] = percentile(values, 50)
    if n >= 2 * SAMPLES_BEYOND:
        out["p90"] = percentile(values, 90) if n - math.ceil(0.9 * n) >= SAMPLES_BEYOND else None
    q = tail_quantile(n)
    if q is not None:
        out["tail_q"] = q
        out["tail"] = percentile(values, q)
    return out


class Ledger:
    """Every request the client attempted, keyed by the client's own
    request key, with its due, send and answer times (ns) and outcome.

    Every scheduled request counts as attempted. It fails when it was
    never sent, or its answer is an error, an `overloaded` rejection, or
    never comes; a failed request's latency is infinite.
    """

    def __init__(self):
        self.entries = {}
        self._outstanding = 0

    def due(self, key, kind, due_ns):
        if key in self.entries:
            raise ValueError(f"request {key!r} scheduled twice")
        self.entries[key] = {
            "kind": kind,
            "due": due_ns,
            "sent": None,
            "done": None,
            "outcome": None,
        }

    def sent(self, key, t_ns):
        self.entries[key]["sent"] = t_ns
        self._outstanding += 1

    def answered(self, key, t_ns, outcome="ok"):
        entry = self.entries[key]
        if entry["done"] is not None:
            raise ValueError(f"request {key!r} answered twice")
        if entry["sent"] is None:
            raise ValueError(f"request {key!r} answered before it was sent")
        entry["done"] = t_ns
        entry["outcome"] = outcome
        self._outstanding -= 1

    def outstanding(self):
        """Requests sent and not yet answered."""
        return self._outstanding

    def attempted(self):
        return len(self.entries)

    def failures(self, kind=None):
        """Requests never sent, or that errored, were rejected or went
        unanswered."""
        return sum(1 for e in self._select(kind) if e["outcome"] != "ok")

    def latencies_ms(self, kind=None):
        """Due-to-answer latency of every request; inf on failure."""
        return [
            (e["done"] - e["due"]) / 1e6 if e["outcome"] == "ok" else math.inf
            for e in self._select(kind)
        ]

    def lags_ms(self, kinds=None):
        """How late the generator sent each request after it was due."""
        return [
            (e["sent"] - e["due"]) / 1e6
            for e in self.entries.values()
            if e["sent"] is not None and (kinds is None or e["kind"] in kinds)
        ]

    def _select(self, kind):
        return (e for e in self.entries.values() if kind is None or e["kind"] == kind)


def self_times(spans):
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover. `spans` are dicts with `id`,
    `parent`, `start_ns` and `end_ns`."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        lo, hi = s["start_ns"], s["end_ns"]
        covered = 0
        cursor = lo
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        out[s["id"]] = (hi - lo) - covered
    return out


def residuals_ms(served_ms, compute_ms):
    """Served latency minus the in-process compute of the same request,
    for every key present on both sides: what the request spent queued
    and in transport."""
    return [served_ms[k] - compute_ms[k] for k in sorted(served_ms) if k in compute_ms]
