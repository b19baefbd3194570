"""Per-layer metrics of a traced run, from the tracer's spans plus the
counts the client and the program report. Every metric is reported on
every workload; a layer the workload never calls reads 0."""

import json
import statistics

import stats as st

# The per_layer list of BENCHMARK.json, in order: (name, unit, better,
# the end-to-end figure and workload the layer metric should move). The
# end-to-end names stand for, per workload: throughput_per_s = batch
# jobs/s | mixed map_once/s; p50_ms = batch round | mixed open_session
# median latency; tail_ms = batch round | mixed apply tail.
PER_LAYER = [
    ("service.decode_ms", "ms", "lower", "p50_ms on mixed (open lines only)"),
    ("service.encode_ms", "ms", "lower", "p50_ms on mixed"),
    ("service.open_bytes", "bytes", "lower", "p50_ms on mixed"),
    ("taskgraph.snapshot_ms", "ms", "lower", "p50_ms and tail_ms on mixed; 0 on batch"),
    ("taskgraph.workload_ms", "ms", "lower", "throughput_per_s and p50_ms on batch"),
    ("taskgraph.clustering_ms", "ms", "lower", "throughput_per_s and p50_ms on batch"),
    ("topology.build_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("engine.cache_hits", "count", "higher", "peak_rss_mb on batch and mixed"),
    ("engine.cache_misses", "count", "lower", "peak_rss_mb on batch and mixed"),
    ("engine.cache_hit_ratio", "ratio", "higher", "peak_rss_mb on batch and mixed"),
    ("engine.resident_mb", "MB", "lower", "peak_rss_mb on batch and mixed"),
    ("engine.unattributed_share", "ratio", "lower", "coverage of the job decomposition on batch"),
    ("multilevel.hierarchy_ms", "ms", "lower", "throughput_per_s on batch"),
    ("multilevel.vcycle_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("multilevel.coarsen_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("multilevel.initial_map_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("multilevel.refine_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("multilevel.prolong_ms", "ms", "lower", "throughput_per_s on batch and mixed"),
    ("multilevel.levels", "count", "lower", "pct_over_lb and throughput_per_s on batch and mixed"),
    ("multilevel.evaluations", "count", "lower", "pct_over_lb and throughput_per_s on batch and mixed"),
    ("core.bound_ms", "ms", "lower", "throughput_per_s on batch"),
    ("core.initial_ms", "ms", "lower", "throughput_per_s and pct_over_lb on batch (paper jobs)"),
    ("core.refine_ms", "ms", "lower", "throughput_per_s and pct_over_lb on batch (paper jobs)"),
    ("core.candidates", "count", "lower", "throughput_per_s and pct_over_lb on batch (paper jobs)"),
    ("core.accept_ratio", "ratio", "higher", "pct_over_lb on batch (paper jobs)"),
    ("online.begin_ms", "ms", "lower", "p50_ms and tail_ms on mixed"),
    ("online.apply_ms", "ms", "lower", "tail_ms on mixed"),
    ("online.apply_tail_ms", "ms", "lower", "tail_ms on mixed"),
    ("online.apply_incremental_ms", "ms", "lower", "tail_ms on mixed"),
    ("online.apply_full_ms", "ms", "lower", "tail_ms on mixed"),
    ("online.incremental_share", "ratio", "higher", "tail_ms and pct_over_lb on mixed"),
    ("online.full_remaps", "count", "lower", "tail_ms and pct_over_lb on mixed"),
    ("online.migrations", "count", "lower", "pct_over_lb on mixed"),
    ("server.residual_ms", "ms", "lower", "tail_ms on mixed"),
    ("server.residual_tail_ms", "ms", "lower", "tail_ms on mixed"),
    ("server.queue_depth_max", "count", "lower", "tail_ms on mixed"),
    ("server.rejected", "count", "lower", "failed requests on mixed"),
    ("client.lag_ms", "ms", "lower", "run validity on mixed"),
    ("client.lag_tail_ms", "ms", "lower", "run validity on mixed"),
    ("client.failed_share", "ratio", "lower", "run validity on every workload"),
    ("trace.overhead_share", "ratio", "lower", "run validity on every workload"),
]


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def _ms(ns):
    return ns / 1e6


def layer_metrics(run, spans):
    """Every PER_LAYER metric for one traced run, plus the sample count
    behind each (for the report)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, label=None):
        return [
            _ms(s["end_ns"] - s["start_ns"])
            for s in by_name.get(name, [])
            if label is None or s["label"] == label
        ]

    def attr(name, key, scale=1.0):
        return [s["attrs"][key] * scale for s in by_name.get(name, []) if key in s["attrs"]]

    out = {}

    def median(name, values):
        out[name] = (statistics.median(values) if values else 0.0, len(values))

    def tail(name, values):
        s = st.summary(values)
        out[name] = (s["tail"] if s["tail"] is not None else 0.0, len(values))

    # Decoding only costs anything on the large open_session lines.
    by_id = {s["id"]: s for s in spans}
    median(
        "service.decode_ms",
        [
            _ms(s["end_ns"] - s["start_ns"])
            for s in by_name.get("service.decode", [])
            if by_id[s["parent"]]["label"] == "open_session"
        ],
    )
    median("service.encode_ms", durations("service.encode"))
    opens = [len(i["line"]) for i in run.plan if i.get("line", "").startswith('{"op":"open_session"')]
    median("service.open_bytes", opens)
    median("taskgraph.snapshot_ms", durations("taskgraph.snapshot"))
    median("taskgraph.workload_ms", durations("taskgraph.workload"))
    median("taskgraph.clustering_ms", durations("taskgraph.clustering"))
    median("topology.build_ms", durations("topology.build"))

    cache = run.cache or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    out["engine.cache_hits"] = (float(hits), 1)
    out["engine.cache_misses"] = (float(misses), 1)
    out["engine.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, hits + misses)
    out["engine.resident_mb"] = (cache.get("resident_bytes", 0) / 2**20, 1)

    jobs = by_name.get("engine.job", [])
    own = st.self_times(spans)
    wall = sum(s["end_ns"] - s["start_ns"] for s in jobs)
    out["engine.unattributed_share"] = (
        sum(own[s["id"]] for s in jobs) / wall if wall else 0.0,
        len(jobs),
    )

    median("multilevel.hierarchy_ms", durations("multilevel.hierarchy"))
    median("multilevel.vcycle_ms", durations("multilevel.vcycle"))
    for phase in ("coarsen", "initial_map", "refine", "prolong"):
        median(f"multilevel.{phase}_ms", attr("multilevel.vcycle", f"{phase}_ns", 1e-6))
    median("multilevel.levels", attr("multilevel.vcycle", "levels"))
    median("multilevel.evaluations", attr("multilevel.vcycle", "evaluations"))

    median("core.bound_ms", durations("core.bound"))
    median("core.initial_ms", durations("core.initial"))
    median("core.refine_ms", durations("core.refine"))
    candidates = attr("core.refine", "candidates")
    accepted = attr("core.refine", "accepted")
    median("core.candidates", candidates)
    out["core.accept_ratio"] = (
        sum(accepted) / sum(candidates) if sum(candidates) else 0.0,
        len(candidates),
    )

    median("online.begin_ms", durations("online.begin"))
    applies = durations("online.apply")
    median("online.apply_ms", applies)
    tail("online.apply_tail_ms", applies)
    median("online.apply_incremental_ms", durations("online.apply", "incremental"))
    median("online.apply_full_ms", durations("online.apply", "full"))
    records = run.layer_extra.get("applies", [])
    incremental = sum(1 for r in records if r["action"] == "incremental")
    out["online.incremental_share"] = (incremental / len(records) if records else 0.0, len(records))
    out["online.full_remaps"] = (float(sum(1 for r in records if r["action"] == "full")), len(records))
    out["online.migrations"] = (float(sum(r["moves"] for r in records)), len(records))

    compute = {
        s["trace"]: _ms(s["end_ns"] - s["start_ns"]) for s in by_name.get("service.request", [])
    }
    residual = st.residuals_ms(run.served_ms, compute)
    median("server.residual_ms", residual)
    tail("server.residual_tail_ms", residual)
    polls = run.layer_extra.get("stats", [])
    out["server.queue_depth_max"] = (
        float(max((p["server"]["queue_depth"] for _, p in polls), default=0)),
        len(polls),
    )
    final = run.layer_extra.get("final_stats") or {}
    out["server.rejected"] = (float(final.get("errors", {}).get("overloaded", 0)), 1)

    lag = run.layer_extra.get("lag") or {}
    out["client.lag_ms"] = (lag.get("p50") or 0.0, lag.get("n", 0))
    out["client.lag_tail_ms"] = (lag.get("tail") or 0.0, lag.get("n", 0))
    attempted = run.ledger.attempted()
    out["client.failed_share"] = (run.ledger.failures() / attempted if attempted else 0.0, attempted)

    traced = sum(
        s["end_ns"] - s["start_ns"] for name in ("batch.request", "service.request") for s in by_name.get(name, [])
    )
    untraced = sum(s["end_ns"] - s["start_ns"] for s in by_name.get("untraced.request", []))
    out["trace.overhead_share"] = (traced / untraced - 1.0 if untraced else 0.0, len(by_name.get("untraced.request", [])))

    missing = [name for name, *_ in PER_LAYER if name not in out]
    if missing:
        raise AssertionError(f"per-layer metrics not computed: {missing}")
    return out
