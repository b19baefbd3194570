"""Self-tests of the benchmark's own arithmetic and accounting, on
synthetic inputs. Run with `python3 perfbench/run.py --self-test`."""

import json
import math
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import stats as st  # noqa: E402
from client import Client, MapSchedule, Script  # noqa: E402
from workloads import MAP_INTERVAL_S, RANDOM_SEED_POOL, arrivals, check_result, map_schedule  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        for n in (20, 21, 99, 100, 101, 500, 999, 1000, 1001, 5000):
            q = st.tail_quantile(n)
            self.assertIsNotNone(q, n)
            self.assertGreaterEqual(n - math.ceil(q / 100.0 * n), st.SAMPLES_BEYOND, n)
            # A tenth of a point higher would leave fewer than ten,
            # unless the tail is already capped.
            if q < st.TAIL_CAP:
                higher = q + 0.1
                self.assertLess(n - math.ceil(higher / 100.0 * n), st.SAMPLES_BEYOND, n)

    def test_known_values(self):
        self.assertEqual(st.tail_quantile(1000), 99.0)
        self.assertEqual(st.tail_quantile(100000), 99.0)
        self.assertEqual(st.tail_quantile(500), 98.0)
        self.assertEqual(st.tail_quantile(100), 90.0)
        self.assertEqual(st.tail_quantile(20), 50.0)
        self.assertIsNone(st.tail_quantile(19))
        self.assertIsNone(st.tail_quantile(0))

    def test_summary_of_a_uniform_sample(self):
        values = list(range(1, 1001))
        random.Random(3).shuffle(values)
        s = st.summary(values)
        self.assertEqual((s["n"], s["p50"], s["p90"], s["tail"], s["tail_q"]), (1000, 500, 900, 990, 99.0))

    def test_small_samples_report_no_tail(self):
        s = st.summary([5.0] * 12)
        self.assertEqual(s["p50"], 5.0)
        self.assertIsNone(s["p90"])
        self.assertIsNone(s["tail"])

    def test_failures_land_in_the_tail(self):
        s = st.summary([1.0] * 990 + [math.inf] * 10)
        self.assertEqual(s["tail"], 1.0)
        s = st.summary([1.0] * 989 + [math.inf] * 11)
        self.assertEqual(s["tail"], math.inf)


class Schedules(unittest.TestCase):
    def test_arrivals_are_spread_and_in_order(self):
        times = arrivals(random.Random(7), 4.0, 30.0)
        self.assertEqual(len(times), 120)
        self.assertEqual(times, sorted(times))
        self.assertTrue(0 <= times[0] and times[-1] < 30.0)
        for a, b in zip(times, times[1:]):
            self.assertGreaterEqual(b - a, 0.2 / 4.0 - 1e-9)

    def test_map_schedule_is_fixed_by_run_length(self):
        jobs, specs = map_schedule(random.Random(7), 40.0, 1000)
        again, _ = map_schedule(random.Random(7), 40.0, 1000)
        self.assertEqual(jobs, again)
        count = int(40.0 / MAP_INTERVAL_S)
        self.assertGreaterEqual(count, 2 * RANDOM_SEED_POOL)
        self.assertEqual(len(jobs), count)
        self.assertEqual([d for d, _, _ in jobs], sorted(d for d, _, _ in jobs))
        kinds = [specs[job_id]["topology"]["kind"] for _, job_id, _ in jobs]
        self.assertEqual(kinds.count("torus"), (count + 1) // 2)
        seeds = {specs[job_id].get("topology_seed") for _, job_id, _ in jobs} - {None}
        self.assertEqual(len(seeds), RANDOM_SEED_POOL)


class Residual(unittest.TestCase):
    def test_served_minus_compute_per_request(self):
        served = {"s2.0": 40.0, "s2.1": 3.5, "s2.2": 9.0, "map.m0": 400.0}
        compute = {"s2.0": 31.0, "s2.1": 0.5, "map.m0": 380.0, "s9.0": 1.0}
        self.assertEqual(st.residuals_ms(served, compute), [20.0, 9.0, 3.0])

    def test_self_time_subtracts_covered_children(self):
        spans = [
            {"id": 0, "parent": None, "start_ns": 0, "end_ns": 100},
            {"id": 1, "parent": 0, "start_ns": 10, "end_ns": 40},
            {"id": 2, "parent": 0, "start_ns": 30, "end_ns": 60},  # overlaps 1
            {"id": 3, "parent": 2, "start_ns": 35, "end_ns": 45},
            {"id": 4, "parent": 0, "start_ns": 90, "end_ns": 120},  # runs past its parent
        ]
        own = st.self_times(spans)
        self.assertEqual(own, {0: 100 - 50 - 10, 1: 30, 2: 20, 3: 10, 4: 30})


class FakeConn:
    def __init__(self):
        self.lines = []
        self.out = b""

    def queue(self, line):
        self.lines.append(line)


def scripted_client(n_sessions=2, events=2, maps=None):
    scripts = [
        Script(k, 2 + k, '{"op":"open_session"}', 0, ['{"e":%d}' % j for j in range(events)], [1] * events, 2)
        for k in range(n_sessions)
    ]
    client = Client(2, scripts, maps=maps)
    client.conns = [FakeConn(), FakeConn()]
    client.schedule()
    return client, scripts


class FailureAccounting(unittest.TestCase):
    def test_ledger_counts_every_kind_of_failure(self):
        ledger = st.Ledger()
        for i, kind in enumerate(["ok", "error", "overloaded", "unanswered", "unsent"]):
            ledger.due(i, "apply", 0)
            if kind != "unsent":
                ledger.sent(i, 1_000_000)
            if kind in ("ok", "error", "overloaded"):
                ledger.answered(i, 3_000_000, kind)
        self.assertEqual(ledger.attempted(), 5)
        self.assertEqual(ledger.failures(), 4)
        self.assertEqual(ledger.outstanding(), 1)
        self.assertEqual(sorted(ledger.latencies_ms()), [3.0] + [math.inf] * 4)
        self.assertEqual(ledger.lags_ms(), [1.0] * 4)

    def test_ledger_rejects_double_answers(self):
        ledger = st.Ledger()
        ledger.due("a", "apply", 0)
        with self.assertRaises(ValueError):
            ledger.answered("a", 1)
        ledger.sent("a", 0)
        ledger.answered("a", 1)
        with self.assertRaises(ValueError):
            ledger.answered("a", 2)

    def test_responses_match_their_own_requests(self):
        client, (s2, s3) = scripted_client()
        for s in (s2, s3):
            for i in range(len(s.lines)):
                client._send_session(s, i, 0)
        # Answers arrive out of order across sessions.
        client._on_line(0, '{"kind":"session_opened","session":3,"record":{"index":0}}', 5)
        client._on_line(0, '{"kind":"applied","session":3,"record":{"index":2}}', 6)
        client._on_line(0, '{"kind":"session_opened","session":2,"record":{"index":0}}', 7)
        client._on_line(0, '{"kind":"applied","session":3,"record":{"index":1}}', 8)
        self.assertEqual(client.ledger.entries[("apply", 3, 2)]["done"], 6)
        self.assertEqual(client.ledger.entries[("apply", 3, 1)]["done"], 8)
        # An error on a session belongs to its oldest unanswered request.
        client._on_line(
            0, '{"kind":"error","error":{"code":"unknown_session","message":"session 2 not open"}}', 9
        )
        self.assertEqual(client.ledger.entries[("apply", 2, 1)]["outcome"], "unknown_session")
        # A rejection is charged to the newest unanswered request of its shard.
        client._on_line(
            0,
            '{"kind":"error","error":{"code":"overloaded","message":"shard 1 queue full (256 deep)"}}',
            10,
        )
        self.assertEqual(client.ledger.entries[("close", 3)]["outcome"], "overloaded")
        self.assertEqual(client.errors, [])
        self.assertEqual(client.ledger.outstanding(), 2)  # s2's apply 2 and close
        # Two answered with errors, two never answered (yet): all failed.
        self.assertEqual(client.ledger.failures(), 4)

    def test_stray_responses_are_reported(self):
        client, (s2, _) = scripted_client()
        client._send_session(s2, 0, 0)
        client._on_line(0, '{"kind":"applied","session":2,"record":{"index":1}}', 1)
        client._on_line(0, '{"kind":"session_opened","session":77,"record":{"index":0}}', 1)
        client._on_line(0, "not json", 1)
        self.assertEqual(len(client.errors), 3)

    def test_map_jobs_match_by_job_id(self):
        maps = MapSchedule([(0, "m0", '{"op":"map_once"}'), (0, "m1", '{"op":"map_once"}')])
        client, _ = scripted_client(n_sessions=0, maps=maps)
        client._send_map(0)
        client._on_line(1, '{"kind":"map_result","result":{"id":"m0"}}', 5)
        self.assertEqual(client.ledger.entries[("map", "m0")]["outcome"], "ok")
        client._send_map(5)
        client._on_line(1, '{"kind":"error","error":{"code":"invalid_job","message":"x"}}', 9)
        self.assertEqual(client.ledger.entries[("map", "m1")]["outcome"], "invalid_job")
        self.assertEqual(client.ledger.failures(), 1)

    def test_requests_never_sent_are_attempted_and_failed(self):
        maps = MapSchedule([(0, "m0", '{"op":"map_once"}')])
        client, (s2,) = scripted_client(n_sessions=1, maps=maps)
        client._send_session(s2, 0, 0)
        client._on_line(0, '{"kind":"session_opened","session":2,"record":{"index":0}}', 5)
        self.assertEqual(client.ledger.attempted(), len(s2.lines) + 1)
        self.assertEqual(client.ledger.failures(), len(s2.lines))
        self.assertEqual(client.ledger.latencies_ms("map"), [math.inf])


class ResultCheck(unittest.TestCase):
    SPEC = {
        "id": "j",
        "workload": {"kind": "layered", "tasks": 8, "width": None},
        "topology": {"kind": "torus", "rows": 2, "cols": 2},
    }

    def result(self, **over):
        r = {
            "id": "j",
            "index": 0,
            "np": 8,
            "ns": 4,
            "lower_bound": 10,
            "total_time": 12,
            "percent_over_lower_bound": 120.0,
            "assignment": [2, 0, 3, 1],
            "error": None,
        }
        r.update(over)
        return r

    def test_a_valid_result_passes(self):
        self.assertEqual(check_result(self.SPEC, self.result(), 0), [])

    def test_each_violation_is_caught(self):
        for bad in (
            {"assignment": [0, 0, 3, 1]},
            {"assignment": [0, 1, 2]},
            {"total_time": 9, "percent_over_lower_bound": 90.0},
            {"percent_over_lower_bound": 121.0},
            {"id": "k"},
            {"index": 3},
            {"error": "boom"},
            {"ns": 5},
        ):
            self.assertNotEqual(check_result(self.SPEC, self.result(**bad), 0), [], bad)


class Declaration(unittest.TestCase):
    """BENCHMARK.json declares exactly what run.py prints."""

    def setUp(self):
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_keys_and_names(self):
        self.assertEqual(
            sorted(self.bench),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"],
        )
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in self.bench[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for w in self.bench["workloads"]:
            self.assertEqual(sorted(w), ["name", "why"])
            self.assertLessEqual(len(w["why"]), 200)

    def test_per_layer_matches_the_layer_table(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in self.bench["per_layer"]]
        self.assertEqual(declared, [(n, u, b) for n, u, b, _ in layers.PER_LAYER])

    def test_end_to_end_matches_what_a_run_reports(self):
        import run as runner
        from workloads import Run

        fake = Run("batch")
        fake.e2e = {"throughput_per_s": (1.0, "1/s"), "p50_ms": (1.0, "ms"), "tail_ms": (1.0, "ms")}
        fake.setup_s, fake.peak_rss_mb, fake.quality = 1.0, 1.0, [150.0]
        reported = {n: u for n, (_, u) in runner.end_to_end(fake).items()}
        declared = {m["name"]: m["unit"] for m in self.bench["end_to_end"]}
        self.assertEqual(reported, declared)
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])


if __name__ == "__main__":
    unittest.main()
