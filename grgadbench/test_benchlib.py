"""Tests of grgad-bench's own logic.

    python3 -m unittest discover -s grgadbench -p 'test_*.py'
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402
import serve_load  # noqa: E402


class PercentileRuleTest(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.tail_percentile(1000), 99.0)
        self.assertEqual(benchlib.tail_percentile(999), 90.0)
        self.assertEqual(benchlib.tail_percentile(100), 90.0)
        self.assertEqual(benchlib.tail_percentile(99), 50.0)
        self.assertEqual(benchlib.tail_percentile(20), 50.0)
        self.assertIsNone(benchlib.tail_percentile(19))

    def test_reported_tail_leaves_ten_samples_beyond(self):
        for n in (20, 99, 100, 640, 999, 1000, 4321):
            values = [float(i) for i in range(n, 0, -1)]
            s = benchlib.summarize(values)
            self.assertEqual(s["n"], n)
            self.assertGreaterEqual(sum(v > s["tail"] for v in values), 10)
            self.assertEqual(s["p50"], float((n + 1) // 2))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        s = benchlib.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["tail_p"], s["tail"]), (100.0, 3.0))


class FakeClient:
    """Answers instantly; the n-th send stalls the sender for `stall_s`."""

    def __init__(self, stall_at, stall_s):
        self.cv = threading.Condition()
        self.refreshes_outstanding = 0
        self.outstanding = 0
        self.pool = None
        self.completed = []
        self.stall_at, self.stall_s = stall_at, stall_s

    def send(self, request, due=None):
        if len(self.completed) == self.stall_at:
            time.sleep(self.stall_s)
        sent = time.perf_counter()
        self.completed.append((request["op"], due, sent, sent, True))
        return sent

    def wait_idle(self):
        pass


class OpenLoopAccountingTest(unittest.TestCase):
    def test_latency_counts_from_the_due_time(self):
        latency, late = benchlib.open_loop_account(
            due=1.0, ready=1.0, sent=1.3, received=1.4)
        self.assertAlmostEqual(latency, 0.4)
        self.assertAlmostEqual(late, 0.3)

    def test_a_released_hold_is_not_generator_lateness(self):
        latency, late = benchlib.open_loop_account(
            due=1.0, ready=1.25, sent=1.3, received=1.4)
        self.assertAlmostEqual(latency, 0.4)
        self.assertAlmostEqual(late, 0.05)

    def test_schedule_is_seeded_poisson_at_the_mean_rate(self):
        due = benchlib.due_times(10.0, 1000, 10.0, random.Random(3))
        self.assertEqual(due, benchlib.due_times(10.0, 1000, 10.0,
                                                 random.Random(3)))
        self.assertNotEqual(due, benchlib.due_times(10.0, 1000, 10.0,
                                                    random.Random(4)))
        self.assertEqual(due, sorted(due))
        self.assertTrue(10.0 < due[0] and due[-1] < 20.0)
        self.assertEqual(len(due), 10000)
        gaps = [b - a for a, b in zip(due, due[1:])]
        # Exponential gaps: mean 1 ms, and about e^-1 of them longer.
        self.assertAlmostEqual(statistics.mean(gaps), 0.001, delta=0.0001)
        self.assertAlmostEqual(sum(g > 0.001 for g in gaps) / len(gaps),
                               math.exp(-1), delta=0.02)

    def test_a_stall_delays_later_sends_but_not_their_due_times(self):
        gen = serve_load.TrafficGenerator(
            7, 10, [(0, 1)], (("rescore", 1),), refresh_every=1000)
        client = FakeClient(stall_at=5, stall_s=0.05)
        session = serve_load.Session(client, gen)
        session.open_loop(rate=400, seconds=0.2, window=32)
        done = client.completed
        self.assertEqual(len(done), len(session.ready))
        self.assertGreater(len(done), 40)
        self.assertEqual([d[1] for d in done], sorted(d[1] for d in done))
        late = []
        for (_, due, sent, received, _), ready in zip(done, session.ready):
            latency, lateness = benchlib.open_loop_account(due, ready, sent,
                                                           received)
            self.assertGreaterEqual(latency, lateness)
            late.append(lateness)
        # The stalled send is about 50 ms late; the backlog behind it goes
        # out at once, each request late by what remains of the stall.
        self.assertGreater(late[5], 0.045)
        self.assertGreater(late[6], late[5] - (done[6][1] - done[5][1]) - 0.001)
        self.assertLess(max(late[:5]), late[5] / 2)


    def test_a_full_window_delays_sends_without_generator_lateness(self):
        gen = serve_load.TrafficGenerator(
            7, 10, [(0, 1)], (("rescore", 1),), refresh_every=1000)
        client = FakeClient(stall_at=-1, stall_s=0.0)
        client.outstanding = 1  # The window is full until a reply lands.

        def reply_after_30ms(predicate, timeout_s=120.0):
            time.sleep(0.03)
            client.outstanding = 0

        client.wait_until = reply_after_30ms
        session = serve_load.Session(client, gen)
        session.open_loop(rate=400, seconds=0.02, window=1)
        (_, due, sent, received, _), ready = client.completed[0], session.ready[0]
        latency, lateness = benchlib.open_loop_account(due, ready, sent,
                                                       received)
        # The first request is due 10 ms after the loop starts and goes out
        # when the reply lands, 30 ms after it starts.
        self.assertGreater(latency, 0.015)
        self.assertLess(lateness, latency / 2)


class TrafficGeneratorTest(unittest.TestCase):
    MIX = (("what-if", 17), ("rescore", 15), ("mutation", 18))

    def make(self, seed):
        gen = serve_load.TrafficGenerator(
            seed, 30, [(0, 1), (1, 2), (2, 3)], self.MIX, refresh_every=8)
        gen.set_pool({4, 5, 6})
        return gen

    def stream(self, gen, n):
        return [gen.request(gen.next_kind(), i) for i in range(n)]

    def test_only_requests_that_can_succeed(self):
        gen = self.make(3)
        edges = {(0, 1), (1, 2), (2, 3)}
        mutations = 0
        for req in self.stream(gen, 2000):
            if req["op"] == "what-if":
                self.assertIn(req["contains"], {4, 5, 6})
            elif req["op"] == "remove-edge":
                self.assertIn((req["u"], req["v"]), edges)
                edges.remove((req["u"], req["v"]))
                mutations += 1
            elif req["op"] == "add-edge":
                self.assertNotEqual(req["u"], req["v"])
                self.assertNotIn((req["u"], req["v"]), edges)
                edges.add((req["u"], req["v"]))
                mutations += 1
            elif req["op"] == "refresh":
                self.assertEqual(mutations % 8, 0)
        self.assertEqual(set(gen.edges), edges)

    def test_decks_hold_the_exact_mix(self):
        gen = self.make(11)
        kinds = [k for k in (gen.next_kind() for _ in range(2000))
                 if k != "refresh"]
        for kind, count in self.MIX:
            self.assertEqual(kinds[:1000].count(kind), 20 * count)

    def test_same_seed_same_requests(self):
        self.assertEqual(self.stream(self.make(5), 300),
                         self.stream(self.make(5), 300))
        self.assertNotEqual(self.stream(self.make(5), 300),
                            self.stream(self.make(6), 300))

    def test_reply_nodes(self):
        line = (b'{"id": 1, "op": "refresh", "status": "ok", "top_groups": '
                b'[{"score": 1.5, "nodes": [3, 7]}, {"score": 1, "nodes": [9]}]}')
        self.assertEqual(serve_load.nodes_in_reply(line), {3, 7, 9})
        self.assertIsNotNone(serve_load.REPLY_HEAD.match(line))


class MetricNameTest(unittest.TestCase):
    def test_charset(self):
        for good in ("run_s", "gcl.busy_ms.t1", "serve.server_ms.what-if",
                     "9lives", "a" * 64):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "-lead", ".lead", "has space", "slash/name",
                    "colon:name", "a" * 65, "ünïcode", None):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)

    def test_benchmark_json_names(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in spec[key]] + [w["name"] for w in spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchlib.valid_metric_name(name), name)


class CpuStealTest(unittest.TestCase):
    def write_stat(self, line):
        path = os.path.join(self.dir, "stat")
        with open(path, "w", encoding="utf-8") as f:
            f.write(line + "\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
        return path

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def test_share_of_wanted_cpu_time(self):
        # user nice system idle iowait irq softirq steal guest guest_nice
        before = benchlib.cpu_ticks(
            self.write_stat("cpu  100 0 20 5000 7 0 10 10 40 0"))
        after = benchlib.cpu_ticks(
            self.write_stat("cpu  460 0 40 9000 9 0 30 40 90 0"))
        self.assertEqual(before, (10, 140))
        self.assertEqual(after, (40, 570))
        # 30 of the 430 ticks wanted were stolen; idle and guest do not count.
        self.assertAlmostEqual(benchlib.steal_share(before, after), 30 / 430)

    def test_missing_readings_read_as_no_steal(self):
        self.assertIsNone(benchlib.cpu_ticks(os.path.join(self.dir, "none")))
        self.assertIsNone(benchlib.cpu_ticks(self.write_stat("intr 1 2 3")))
        self.assertEqual(benchlib.steal_share(None, (1, 2)), 0.0)
        self.assertEqual(benchlib.steal_share((1, 5), (1, 5)), 0.0)


class PeakRssTest(unittest.TestCase):
    def test_each_process_reports_its_own_peak(self):
        code = "b = b'x' * ({} << 20); import time; time.sleep(0.3)"
        big = subprocess.Popen([sys.executable, "-c", code.format(96)])
        small = subprocess.Popen([sys.executable, "-c", code.format(1)])
        status_small, rss_small = benchlib.wait_measured(small)
        status_big, rss_big = benchlib.wait_measured(big)
        self.assertEqual((status_small, status_big), (0, 0))
        self.assertGreater(rss_big, 96)
        self.assertLess(rss_small, 60)


if __name__ == "__main__":
    unittest.main()
