"""The two workloads. Each returns a Run: the end-to-end figures, the
request ledger, the served outputs, and whatever the traced run needs
to re-execute the same requests in-process.

The fixed choices are the constants below; each is used by exactly one
workload, and perfbench/README.md says why each workload looks as it
does."""

import json
import os
import random
import re
import socket
import statistics
import subprocess
import time

import stats as st
from client import Client, MapSchedule, Script
from procs import BenchError, Server, run_batch

MULTILEVEL = {
    "kind": "multilevel",
    "direct_threshold": None,
    "refine_rounds": None,
    "refine_batch": None,
    "refine_threads": None,
}
PAPER = {"kind": "paper", "refine_iterations": None, "exchange_pool": 0}
SESSION_TOPOLOGY = {"kind": "torus", "rows": 8, "cols": 8}
TORUS32 = {"kind": "torus", "rows": 32, "cols": 32}
RANDOM1024 = {"kind": "random", "n": 1024, "p": 0.004}

# Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 5

# batch: one `mimd batch` process per round of these jobs. The random
# machine gets a fresh topology seed in every round, so it is always a
# topology-cache miss.
BATCH_ROUND = [
    {"algorithm": "multilevel", "tasks": 2048, "topology": TORUS32},
    {"algorithm": "multilevel", "tasks": 2048, "topology": RANDOM1024},
    {"algorithm": "paper", "tasks": 512, "topology": {"kind": "torus", "rows": 16, "cols": 16}},
    {"algorithm": "paper", "tasks": 512, "topology": {"kind": "torus", "rows": 16, "cols": 16}},
]
BATCH_WARMUP = {"algorithm": "multilevel", "tasks": 2048, "topology": TORUS32}
TRACE_ROUNDS = 2

# mixed: one server shard per core of a 2-core machine, with queues deep
# enough that a backlog shows as latency, not as `overloaded` replies.
SHARDS = 2
QUEUE_DEPTH = 65536
# Sessions: 256-task layered workloads on SESSION_TOPOLOGY, opened at
# SESSIONS_PER_S; each applies SESSION_EVENTS churn events EVENT_INTERVAL_MS
# apart, the first FIRST_EVENT_AFTER_MS after its open was due, and
# closes one interval after its last event. The events are spread so
# that about three sessions apply at any moment: applies then arrive
# evenly, and how many of them a map blocks does not depend on how the
# seed happened to line up session bursts with maps.
SESSION_TASKS = 256
SESSION_EVENTS = 20
FIRST_EVENT_AFTER_MS = 250
EVENT_INTERVAL_MS = 40
SESSIONS_PER_S = 4.0
# map_once: a 2048-task multilevel job due every MAP_INTERVAL_S,
# alternating torus:32x32 and random 1024-node machines whose topology
# seeds cycle through a pool of RANDOM_SEED_POOL, so the first use of
# each seed writes to the cache and peak memory does not depend on run
# length. The fixed schedule fixes how many jobs of each kind a run
# holds; at about 0.2-0.8 s a job, a shard is blocked about a tenth of
# the time, so the median session request does not wait behind a map
# and the apply tail does.
# The whole mix keeps the server at about half of one core of a 2-core
# machine. Near saturation (320 applies/s and a map every second) the
# open_session median rose 60% when one other busy process shared the
# machine; at this load it rises about 15%.
MAP_TASKS = 2048
MAP_INTERVAL_S = 2.0
RANDOM_SEED_POOL = 6
# Answers still owed when the schedule ends are waited for this long.
DRAIN_SECONDS = 20
# A run whose generator sent its p99 request later than this is invalid.
GENERATOR_LAG_LIMIT_MS = 50
# The traced run polls server gauges this often and re-executes this
# many sessions and map_once jobs.
STATS_POLL_MS = 100
TRACE_SESSIONS = 4
TRACE_MAPS = 4


def dumps(obj):
    return json.dumps(obj, separators=(",", ":"))


def node_count(topology):
    if topology["kind"] in ("torus", "mesh"):
        return topology["rows"] * topology["cols"]
    return topology["n"]


def job_spec(job_id, entry, seed, topology_seed=None):
    spec = {
        "id": job_id,
        "workload": {"kind": "layered", "tasks": entry["tasks"], "width": None},
        "topology": entry["topology"],
        "algorithm": MULTILEVEL if entry["algorithm"] == "multilevel" else PAPER,
        "seed": seed,
    }
    if topology_seed is not None:
        spec["topology_seed"] = topology_seed
    return spec


def check_result(spec, result, index=None):
    """Problems with one map result: it must be this job's, error-free,
    a bijection from clusters to processors, and no better than the
    lower bound."""
    problems = []
    if result.get("error") is not None:
        return [f"job {spec['id']}: error {result['error']}"]
    if result.get("id") != spec["id"]:
        problems.append(f"job {spec['id']}: answered as {result.get('id')}")
    if index is not None and result.get("index") != index:
        problems.append(f"job {spec['id']}: index {result.get('index')}, expected {index}")
    ns = node_count(spec["topology"])
    if result.get("ns") != ns or result.get("np") != spec["workload"]["tasks"]:
        problems.append(f"job {spec['id']}: np/ns {result.get('np')}/{result.get('ns')}")
    assignment = result.get("assignment") or []
    if sorted(assignment) != list(range(ns)):
        problems.append(f"job {spec['id']}: assignment is not a bijection onto {ns} processors")
    lb, total = result.get("lower_bound", 0), result.get("total_time", 0)
    if not (0 < lb <= total):
        problems.append(f"job {spec['id']}: total_time {total} below lower bound {lb}")
    elif abs(result["percent_over_lower_bound"] - 100.0 * total / lb) > 1e-6:
        problems.append(f"job {spec['id']}: percent_over_lower_bound inconsistent")
    return problems


class Run:
    """What one workload run measured and served."""

    def __init__(self, name):
        self.name = name
        self.setup_s = None
        self.peak_rss_mb = None
        self.ledger = st.Ledger()
        self.problems = []
        self.quality = []  # percent_over_lower_bound of every result/record
        self.report = {}  # issue-named end-to-end figures: name -> (value, unit, samples)
        self.e2e = {}  # the gated metrics
        self.cache = None  # CacheStats, summed over processes
        self.plan = []  # traced re-execution plan items
        self.served_ms = {}  # trace id -> served latency from send (ms)
        self.layer_extra = {}


# ---------------------------------------------------------------- batch


def batch_round(rng, r):
    jobs = []
    for i, entry in enumerate(BATCH_ROUND):
        topology_seed = rng.getrandbits(32) if entry["topology"]["kind"] == "random" else None
        jobs.append(job_spec(f"r{r}.{i}", entry, rng.getrandbits(48), topology_seed))
    return jobs


def add_cache(run, stats):
    if run.cache is None:
        run.cache = dict(stats)
        return
    for key in ("hits", "misses", "hierarchy_hits", "hierarchy_misses"):
        run.cache[key] += stats[key]
    run.cache["resident_bytes"] = max(run.cache["resident_bytes"], stats["resident_bytes"])


def run_batch_workload(ctx):
    run = Run("batch")
    rng = random.Random(f"batch:{ctx.seed}")
    work = ctx.workdir

    warm = job_spec("warmup", BATCH_WARMUP, rng.getrandbits(48))
    warm_path = os.path.join(work, "warmup.jsonl")
    with open(warm_path, "w") as f:
        f.write(dumps(warm) + "\n")
    setups = []
    for _ in range(SETUP_REPEATS):
        wall, lines, _, _ = run_batch(ctx.mimd, warm_path, os.path.join(work, "warmup.out"))
        run.problems += check_result(warm, json.loads(lines[0]), 0) if lines else ["warm-up: no result"]
        setups.append(wall)
    run.setup_s = statistics.median(setups)

    rss = []
    walls = []
    rounds = []
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < ctx.seconds:
        jobs = batch_round(rng, r)
        jobs_path = os.path.join(work, f"round{r}.jsonl")
        with open(jobs_path, "w") as f:
            f.writelines(dumps(j) + "\n" for j in jobs)
        due = time.perf_counter_ns()
        for j in jobs:
            run.ledger.due(("job", j["id"]), "job", due)
            run.ledger.sent(("job", j["id"]), due)
        wall, lines, stderr, peak = run_batch(ctx.mimd, jobs_path, os.path.join(work, f"round{r}.out"))
        done = time.perf_counter_ns()
        walls.append(wall)
        rss.append(peak)
        if len(lines) != len(jobs):
            run.problems.append(f"round {r}: {len(lines)} results for {len(jobs)} jobs")
        for index, (j, line) in enumerate(zip(jobs, lines)):
            result = json.loads(line)
            problems = check_result(j, result, index)
            run.problems += problems
            run.ledger.answered(("job", j["id"]), done, "error" if problems else "ok")
            run.quality.append(result.get("percent_over_lower_bound", 0.0))
        m = re.search(r"topology cache: (\{.*\})", stderr)
        if m:
            add_cache(run, json.loads(m.group(1)))
        else:
            run.problems.append(f"round {r}: no cache statistics on stderr")
        rounds.append((jobs, lines))
        r += 1
    jobs_done = sum(len(j) for j, _ in rounds)
    run.peak_rss_mb = max(rss)
    # Every job of a round is due at its start and done at its process's
    # exit, so a round is one latency sample, not one per job.
    s = st.summary([w * 1e3 for w in walls])
    run.report["jobs_per_s"] = (jobs_done / sum(walls), "jobs/s", jobs_done)
    run.report["round_p50_ms"] = (s["p50"], "ms", s["n"])
    run.report[f"round_p{s['tail_q']}_ms"] = (s["tail"], "ms", s["n"])
    run.e2e = {
        "throughput_per_s": (jobs_done / sum(walls), "1/s"),
        "p50_ms": (s["p50"], "ms"),
        "tail_ms": (s["tail"], "ms"),
    }

    # The traced run re-executes the first rounds, each in a fresh scope
    # as each round ran in a fresh process.
    for r, (jobs, lines) in enumerate(rounds[:TRACE_ROUNDS]):
        run.plan.append({"kind": "scope"})
        for index, (j, line) in enumerate(zip(jobs, lines)):
            run.plan.append(
                {"kind": "job", "trace": j["id"], "index": index, "line": dumps(j), "served": line}
            )
    return run


# --------------------------------------------------------------- mixed


def gen_sessions(ctx, count):
    path = os.path.join(ctx.workdir, "sessions.jsonl")
    cmd = [ctx.tracer, "gen-sessions", "--seed", str(ctx.seed), "--count", str(count)]
    cmd += ["--tasks", str(SESSION_TASKS), "--events", str(SESSION_EVENTS), "--out", path]
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"session generation failed: {proc.stderr.decode(errors='replace')}")
    with open(path) as f:
        return [json.loads(line) for line in f]


def arrivals(rng, rate, seconds):
    """Seeded arrival times (s): floor(rate * seconds) sessions, the i-th
    due at (i + 0.5 + u) / rate with u uniform in [-0.4, 0.4). Jittered
    but never bunched: two opens are at least 0.2 / rate apart, so a tail
    reflects the rate rather than how many arrivals the seed happened to
    cluster. Sorted, since session ids follow open order."""
    n = max(1, int(rate * seconds))
    return sorted((i + 0.5 + rng.uniform(-0.4, 0.4)) / rate for i in range(n))


def build_scripts(inputs, schedule, first_sid):
    """Scripts for timed sessions: input k+1 arrives at schedule[k] and
    gets session id first_sid+k (ids follow open order)."""
    scripts = []
    gap = FIRST_EVENT_AFTER_MS * 1e6
    step = EVENT_INTERVAL_MS * 1e6
    for k, t in enumerate(schedule):
        inp = inputs[k + 1]
        open_due = int(t * 1e9)
        event_dues = [int(open_due + gap + j * step) for j in range(len(inp["events"]))]
        close_due = int(event_dues[-1] + step) if event_dues else int(open_due + gap)
        scripts.append(Script(inp["k"], first_sid + k, inp["open"], open_due, inp["events"], event_dues, close_due))
    return scripts


def roundtrip(path, lines, timeout_s=120.0):
    """Send `lines` one at a time on a fresh connection, each after the
    previous answer; return the answers."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(path)
    answers = []
    buf = b""
    try:
        for line in lines:
            sock.sendall(line.encode() + b"\n")
            while b"\n" not in buf:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    raise BenchError("server closed the warm-up connection")
                buf += chunk
            answer, buf = buf.split(b"\n", 1)
            answers.append(answer.decode())
    finally:
        sock.close()
    return answers


def start_served(ctx, run, warm_lines, check):
    """Start the server SETUP_REPEATS times, each time timing spawn to
    the end of its warm-up; keep the last one running."""
    setups = []
    server = None
    for _ in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        if os.path.exists(ctx.sock_path):
            os.unlink(ctx.sock_path)
        t0 = time.perf_counter()
        server = Server(ctx.mimd, ctx.sock_path, SHARDS, QUEUE_DEPTH)
        try:
            answers = roundtrip(ctx.sock_path, warm_lines)
        except Exception:
            server.stop()
            raise
        setups.append(time.perf_counter() - t0)
        run.problems += check(answers)
    run.setup_s = statistics.median(setups)
    return server


def finish_served(run, server, client):
    client.close()
    code, rss, stderr = server.stop()
    run.peak_rss_mb = rss
    if code != 0:
        run.problems.append(f"mimd serve exited {code}")
    m = re.search(r"serve: drained; .*?; (\{.*\})\s*$", stderr, re.M)
    if not m:
        run.problems.append("no drain summary from mimd serve")
        return None
    final = json.loads(m.group(1))
    run.cache = final["cache"]
    return final


def session_results(ctx, run, client, scripts):
    """Check and collect every timed session."""
    run.ledger = client.ledger
    run.problems += client.errors
    served = []
    for s in scripts:
        if any(r is None for r in s.responses):
            continue  # a failed request; counted in the ledger
        records = []
        for line in s.responses[:-1]:
            msg = json.loads(line)
            if msg.get("kind") not in ("session_opened", "applied"):
                break
            records.append(msg["record"])
        closed = json.loads(s.responses[-1])
        if len(records) != SESSION_EVENTS + 1 or closed.get("events") != SESSION_EVENTS:
            run.problems.append(f"session {s.sid}: {len(records)} records, expected {SESSION_EVENTS + 1}")
            continue
        run.quality += [r["percent_over_lower_bound"] for r in records]
        served.append({"k": s.k, "session": s.sid, "responses": s.responses})
    served_path = os.path.join(ctx.workdir, "served_sessions.jsonl")
    with open(served_path, "w") as f:
        f.writelines(dumps(x) + "\n" for x in served)
    cmd = [ctx.tracer, "check-sessions", "--seed", str(ctx.seed), "--tasks", str(SESSION_TASKS)]
    cmd += ["--events", str(SESSION_EVENTS), "--served", served_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        run.problems.append(proc.stderr.decode(errors="replace").strip()[-3000:])


def apply_records(scripts):
    out = []
    for s in scripts:
        for line in s.responses[1:-1]:
            if line is not None:
                msg = json.loads(line)
                if msg.get("kind") == "applied":
                    out.append(msg["record"])
    return out


def trace_sessions(run, scripts, count):
    """Plan items re-executing the first `count` completed sessions."""
    taken = 0
    for s in scripts:
        if taken >= count:
            break
        if any(r is None for r in s.responses):
            continue
        for i, line in enumerate(s.lines):
            trace = f"s{s.sid}.{i}"
            item = {"kind": "request", "trace": trace, "line": line.decode(), "served": s.responses[i]}
            if i == 0:
                item["reserve"] = s.sid
            run.plan.append(item)
            e = run.ledger.entries[s.key(i)]
            run.served_ms[trace] = (e["done"] - e["sent"]) / 1e6
        taken += 1


def lag_check(run):
    # map_once is excluded: one waiting for the previous answer is held
    # back by design, not by the generator.
    s = st.summary(run.ledger.lags_ms(kinds=("open", "apply", "close")))
    run.layer_extra["lag"] = s
    if s["tail"] is not None and s["tail"] > GENERATOR_LAG_LIMIT_MS:
        run.problems.append(
            f"the generator fell behind: p{s['tail_q']} send lag {s['tail']:.1f} ms > {GENERATOR_LAG_LIMIT_MS} ms"
        )


def map_schedule(rng, seconds, seed_base):
    """The map_once jobs of one run: (due ns, job id, line) and specs."""
    pool = [rng.getrandbits(32) for _ in range(RANDOM_SEED_POOL)]
    torus = {"algorithm": "multilevel", "tasks": MAP_TASKS, "topology": TORUS32}
    machine = {"algorithm": "multilevel", "tasks": MAP_TASKS, "topology": RANDOM1024}
    jobs, specs = [], {}
    for i in range(max(1, int(seconds / MAP_INTERVAL_S))):
        if i % 2 == 0:
            spec = job_spec(f"m{i}", torus, seed_base + i)
        else:
            spec = job_spec(f"m{i}", machine, seed_base + i, pool[(i // 2) % len(pool)])
        specs[spec["id"]] = spec
        due = int((i + 0.5) * MAP_INTERVAL_S * 1e9)
        jobs.append((due, spec["id"], dumps({"op": "map_once", "job": spec})))
    return jobs, specs


def run_mixed_workload(ctx):
    run = Run("mixed")
    rng = random.Random(f"mixed:{ctx.seed}")
    schedule = arrivals(rng, SESSIONS_PER_S, ctx.seconds)
    inputs = gen_sessions(ctx, len(schedule) + 1)
    seed_base = rng.getrandbits(48)
    jobs, specs = map_schedule(rng, ctx.seconds, seed_base)
    warm_job = job_spec("warmup", {"algorithm": "multilevel", "tasks": MAP_TASKS, "topology": TORUS32}, seed_base ^ 0xFFFF)
    warm_lines = [inputs[0]["open"], '{"op":"close_session","session":1}']
    warm_lines.append(dumps({"op": "map_once", "job": warm_job}))

    def check_warm(answers):
        opened, closed, mapped = (json.loads(a) for a in answers)
        problems = []
        if opened.get("kind") != "session_opened" or opened.get("session") != 1:
            problems.append(f"warm-up open failed: {answers[0][:200]}")
        if closed.get("kind") != "session_closed":
            problems.append(f"warm-up close failed: {answers[1][:200]}")
        if mapped.get("kind") != "map_result":
            return problems + [f"warm-up map_once failed: {answers[2][:200]}"]
        return problems + check_result(warm_job, mapped["result"])

    scripts = build_scripts(inputs, schedule, first_sid=2)
    maps = MapSchedule(jobs)
    client = Client(SHARDS, scripts, maps=maps, stats_period_s=STATS_POLL_MS / 1000 if ctx.trace else None)
    server = start_served(ctx, run, warm_lines, check_warm)
    try:
        client.connect(ctx.sock_path)
        client.run(int(DRAIN_SECONDS * 1e9))
    finally:
        run.layer_extra["final_stats"] = finish_served(run, server, client)
    session_results(ctx, run, client, scripts)
    lag_check(run)
    run.layer_extra["stats"] = client.stats
    run.layer_extra["applies"] = apply_records(scripts)

    for job_id, line in maps.responses.items():
        msg = json.loads(line)
        if msg.get("kind") != "map_result":
            continue  # a failed map_once; counted in the ledger
        run.problems += check_result(specs[job_id], msg["result"])
        run.quality.append(msg["result"]["percent_over_lower_bound"])

    opens = st.summary(run.ledger.latencies_ms("open"))
    applies = st.summary(run.ledger.latencies_ms("apply"))
    map_ms = run.ledger.latencies_ms("map")
    mapped = st.summary(map_ms)
    # map_once jobs per second of map latency: the rate one caller
    # waiting on each job in turn would see.
    map_rate = 1e3 * len(map_ms) / sum(map_ms)
    run.report["open_p50_ms"] = (opens["p50"], "ms", opens["n"])
    run.report["open_p90_ms"] = (opens["p90"], "ms", opens["n"])
    run.report["apply_p50_ms"] = (applies["p50"], "ms", applies["n"])
    run.report[f"apply_p{applies['tail_q']}_ms"] = (applies["tail"], "ms", applies["n"])
    run.report["map_once_p50_ms"] = (mapped["p50"], "ms", mapped["n"])
    run.report["map_once_per_s"] = (map_rate, "jobs/s", mapped["n"])
    run.e2e = {
        "throughput_per_s": (map_rate, "1/s"),
        "p50_ms": (opens["p50"], "ms"),
        "tail_ms": (applies["tail"], "ms"),
    }
    run.plan.append({"kind": "scope", "warm": [{"topology": SESSION_TOPOLOGY}, {"topology": TORUS32}]})
    for _, job_id, line in jobs[:TRACE_MAPS]:
        served = maps.responses.get(job_id)
        if served is None:
            continue
        trace = f"map.{job_id}"
        run.plan.append({"kind": "request", "trace": trace, "line": line, "served": served})
        e = run.ledger.entries[("map", job_id)]
        run.served_ms[trace] = (e["done"] - e["sent"]) / 1e6
    trace_sessions(run, scripts, TRACE_SESSIONS)
    return run


WORKLOADS = {
    "batch": run_batch_workload,
    "mixed": run_mixed_workload,
}
