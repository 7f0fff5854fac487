#!/usr/bin/env python3
"""grgad-bench: the end-to-end and per-layer benchmark of grgad.

    python3 grgadbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                              [--trace 0|1]

Run from the root of a grgad source tree. The first run builds the library,
the `grgad` CLI and grgadbench/bench_tool.cc into .bench_build/cmake. Each
workload is one dataset taken through grgad's whole life cycle:

1. the batch pipeline (`grgad run`'s work) in grgad_bench_tool: run time,
   peak RSS and CR / AUC against the ground truth, with output checks;
2. nine boots of `grgad serve --in <those artifacts> --state-dir DIR`,
   each timed from spawn to the first ok reply;
3. on the last boot, seeded traffic over one unix socket: an open loop of
   Poisson arrivals at a fixed mean rate, a saturation phase with a fixed
   window of requests outstanding, then a snapshot, a fixed tail of
   mutations, and nine rounds of SIGKILL and a restart from the state dir
   whose rescore reply must equal the one before the kill, byte for byte.

--trace 0 prints every end-to-end metric, --trace 1 every per-layer metric
(the pipeline's layers from grgad_bench_tool's stage calls, the serving
layers from the daemon's `stats` op). Metric names, units and directions
come from BENCHMARK.json. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only when
every check passed. A full record with a provenance header is written to
.bench_build/results/. The CPU steal of the machine is read from /proc/stat
around every phase; a run that lost more than STEAL_LIMIT of its CPU time
is repeated while time allows, and marked not comparable if every try did.
"""

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import benchlib
import serve_load

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(".bench_build", "cmake")
RUN_DIR = os.path.join(".bench_build", "run")
RESULTS_DIR = os.path.join(".bench_build", "results")
THREADS = min(4, os.cpu_count() or 1)


class Workload:
    def __init__(self, dataset, overrides, pipeline_runs, rate, open_share,
                 sat_share, refresh_every):
        self.dataset = dataset
        self.overrides = overrides      # --set for the pipeline and daemon.
        self.pipeline_runs = pipeline_runs  # run_s is their median.
        self.rate = rate                # Open-loop requests per second.
        self.open_share = open_share    # Shares of --seconds per phase.
        self.sat_share = sat_share
        self.refresh_every = refresh_every  # Mutations between refreshes.


# batch-simml runs the default tp-grgad configuration (2,048 groups, 60
# TPGCL epochs); serve-churn trains a small model. Both then serve with
# periodic refreshes (a refresh resamples every anchor in the default
# attribute-distance mode: ~0.1 s on simml, ~50 ms on ethereum), at a rate
# that gives every class more than 1,000 open-loop samples at --seconds 30,
# so the tails are p99s. 4-6% of requests arrive during a refresh, so a p99
# sits inside that stall and tracks the refresh time. A p90 (fewer than
# 1,000 samples) would sit in the thin middle of the wait behind a ~6.5 ms
# rescore instead, where it moves with each seed's arrival pattern and
# about twice as much as the host's speed. Each rate keeps the daemon about
# a third busy: near half busy, a median request waits behind a rescore
# once the host slows a little, and the p50s jump several-fold (see
# README.md).
WORKLOADS = {
    "batch-simml": Workload("simml", [], 1, 115, 0.9, 0.1, 96),
    "serve-churn": Workload("ethereum", ["tpgcl.epochs=5"], 3, 220, 0.75,
                            0.25, 64),
}
# Per deck of 30. Equal thirds give each latency class 1,000 samples, enough
# for a p99, in 3,000 requests: 220 req/s over 14 s of serve-churn's open
# loop. --seconds 30 gives 22.5 s, about 1,650 samples per class, so that
# sampling noise in the p99s stays well below their bounds.
MIX = (("what-if", 10), ("rescore", 10), ("mutation", 10))
SNAPSHOT_EVERY = 256  # serve.snapshot_every_mutations
WINDOW = 32           # Most requests ever outstanding (< --max-queue 64).
BOOTS = 9             # Boots per run; setup_s is their median.
RESTARTS = 9          # SIGKILL + restarts per run; recovery_s is their median.
REFRESH_ROUNDS = 2    # Closed-loop refreshes before the last snapshot.
TAIL_MUTATIONS = 64   # Mutations (then one refresh) after the last snapshot.
REFERENCE_ID = 99     # Id of the rescore compared across every restart.
# On a shared host the hypervisor hands CPU time to other guests in bursts
# (steal). A run in which one of JUDGED_PHASES loses more than STEAL_LIMIT
# of the CPU time it wanted is not comparable: its figures move by far more
# than their bounds. Sleeping and waking books some host work as steal too,
# up to ~4% of a serving phase on a quiet host, so the limit sits above
# that. Such a run is repeated with the same seed when the repeat should
# end within REPEAT_WITHIN_S of the start, and the try with the least steal
# is reported.
JUDGED_PHASES = ("pipeline", "open_loop", "saturation", "restarts")
STEAL_LIMIT = 0.05
REPEAT_WITHIN_S = 120.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the CLI and the tool; returns paths."""
    os.makedirs(".bench_build", exist_ok=True)
    with open(os.path.join(".bench_build", "build.log"), "ab") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.relpath(BENCH_DIR), "-B",
                          BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(THREADS),
                      "--target", "grgad_bench_tool", "grgad_cli"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise RuntimeError("build failed: " + " ".join(step) +
                                   " (see .bench_build/build.log)")
    return (os.path.join(BUILD_DIR, "grgad_bench_tool"),
            os.path.join(BUILD_DIR, "grgad", "grgad"))


def provenance(workload, seed, seconds, trace):
    """Hardware, toolchain and source identity of a result."""
    cache = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt"), encoding="utf-8") as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    flags = []
    with open(os.path.join(BUILD_DIR, "compile_commands.json"),
              encoding="utf-8") as f:
        for entry in json.load(f):
            if entry["file"].endswith(os.path.join("src", "core", "stages.cc")):
                tokens = entry["command"].split()[1:]
                flags = [t for t in tokens if t.startswith(("-O", "-g", "-D", "-m", "-f", "-W", "-std"))]
    commit = "unavailable (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = head.stdout.strip() or commit
    return {
        "cpu_model": benchlib.cpu_model(),
        "nproc": os.cpu_count(),
        "grgad_threads": THREADS,
        "compiler": version[0] if version else compiler,
        "compiler_flags": " ".join(flags),
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_commit": commit,
        "source_sha256": benchlib.source_digest(
            ROOT, ["CMakeLists.txt", "src", "tools", "grgadbench"]),
        "workload": workload,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


class Run:
    """State of one workload run: its processes, requests and checks."""

    def __init__(self, name, seed, seconds, trace, tool, cli):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tool = tool
        self.cli = os.path.relpath(cli, os.path.join(RUN_DIR, name))
        self.dir = os.path.join(RUN_DIR, name)
        self.env = dict(os.environ, GRGAD_THREADS=str(THREADS))
        self.procs = []
        self.clients = []
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.rss_mb = {}
        self.details = {}
        self.marks = []  # (phase that starts, cpu_ticks()) in run order.

    # -- CPU steal ---------------------------------------------------------

    def mark(self, phase):
        """Ends the phase before (if any) and starts `phase`."""
        self.marks.append((phase, benchlib.cpu_ticks()))

    def phase_steal(self):
        return {a[0]: benchlib.steal_share(a[1], b[1])
                for a, b in zip(self.marks, self.marks[1:])}

    def steal(self):
        """The largest steal share of the phases that set the metrics."""
        phases = self.phase_steal()
        return max((phases[p] for p in JUDGED_PHASES if p in phases),
                   default=0.0)

    def steal_record(self):
        return {"share": self.steal(), "phases": self.phase_steal()}

    # -- processes ---------------------------------------------------------

    def spawn(self, cmd, **kwargs):
        logf = open(os.path.join(self.dir, "processes.log"), "ab")
        proc = subprocess.Popen(cmd, env=self.env, stderr=logf, **kwargs)
        logf.close()
        self.procs.append(proc)
        return proc

    def reap(self, proc, role):
        code, rss = benchlib.wait_measured(proc)
        self.rss_mb[role] = max(self.rss_mb.get(role, 0.0), rss)
        return code

    def stop_all(self):
        for client in self.clients:
            client.close()
        for proc in self.procs:
            if proc.returncode is None:
                proc.kill()
                benchlib.wait_measured(proc)

    # -- the batch pipeline ------------------------------------------------

    def pipeline(self):
        cmd = [self.tool, "trace" if self.trace else "pipeline",
               "--dataset", self.wl.dataset,
               "--repeat", str(1 if self.trace else self.wl.pipeline_runs),
               "--out", os.path.join(self.dir, "artifacts"),
               "--edges", os.path.join(self.dir, "edges.json")]
        for item in self.wl.overrides:
            cmd += ["--set", item]
        proc = self.spawn(cmd, stdout=subprocess.PIPE)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        code = self.reap(proc, "pipeline")
        self.attempted += 1
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            result = {"errors": ["pipeline process exited %d without a result" % code]}
        if code != 0 or result["errors"]:
            self.failed += 1
            self.errors += ["pipeline: " + e for e in result["errors"]] or [
                "pipeline process exited %d" % code]
        self.details["pipeline"] = result
        return result

    # -- the daemon --------------------------------------------------------

    def daemon_cmd(self, state, fresh):
        cmd = [self.cli, "serve", "--dataset", self.wl.dataset,
               "--socket", "s.sock", "--state-dir", state, "--quiet",
               "--set", "serve.snapshot_every_mutations=%d" % SNAPSHOT_EVERY]
        for item in self.wl.overrides:
            cmd += ["--set", item]
        return cmd + (["--in", "artifacts"] if fresh else [])

    def boot(self, state, fresh, first_request):
        """Spawns the daemon; returns (proc, client, reply, seconds from
        spawn to the first reply)."""
        sock = os.path.join(self.dir, "s.sock")
        if os.path.exists(sock):
            os.unlink(sock)
        start = time.perf_counter()
        proc = self.spawn(self.daemon_cmd(state, fresh), cwd=self.dir,
                          stdout=subprocess.DEVNULL)
        client = serve_load.Client(sock)
        self.clients.append(client)
        reply = client.call(first_request)
        return proc, client, reply, client.completed[-1][3] - start

    def shut_down(self, proc, client, role):
        client.call({"id": 2, "op": "shutdown"})
        client.close()
        if self.reap(proc, role) != 0:
            self.errors.append(role + " daemon did not exit cleanly")

    def stats(self, client):
        reply = client.call({"id": 3, "op": "stats"})
        try:
            return json.loads(reply)["metrics"]
        except (ValueError, KeyError):
            self.errors.append("stats reply is not JSON")
            return {}

    # -- the whole run -----------------------------------------------------

    def execute(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        os.sync()  # Leave no writeback of earlier runs to overlap the timing.
        self.mark("pipeline")
        pipe = self.pipeline()
        if "run_s" not in pipe and "gcl.busy_ms" not in pipe:
            return None
        with open(os.path.join(self.dir, "edges.json"), encoding="utf-8") as f:
            graph = json.load(f)

        os.sync()
        self.mark("boots")
        boots = []
        for b in range(BOOTS):
            proc, client, _, seconds = self.boot(
                "state%d" % b, True, {"id": 1, "op": "stats"})
            boots.append(seconds)
            if b + 1 < BOOTS:
                self.shut_down(proc, client, "boot")
                os.sync()  # The exit snapshot's writeback, before the next boot.
        self.details["boot_s"] = boots

        gc.disable()  # No collector pauses inside the timed phases.
        try:
            return self.serve(proc, client, graph, pipe, boots)
        finally:
            gc.enable()

    def serve(self, proc, client, graph, pipe, boots):
        gen = serve_load.TrafficGenerator(
            self.seed, graph["num_nodes"], graph["edges"], MIX,
            self.wl.refresh_every)
        session = serve_load.Session(client, gen)
        session.warm_up()
        s0 = self.stats(client)
        open_s = self.seconds * self.wl.open_share
        os.sync()  # No boot writeback under the WAL's fsyncs.
        self.mark("open_loop")
        first, last = session.open_loop(self.wl.rate, open_s, WINDOW)
        self.mark("saturation")
        s1 = self.stats(client)
        capacity = session.saturate(WINDOW, self.seconds * self.wl.sat_share)
        self.mark("tail")
        s2 = self.stats(client)
        tail_start = len(client.completed)

        # Refreshes for refresh_p50_ms, then a fixed tail after a snapshot,
        # so every restart replays the same work: TAIL_MUTATIONS mutations
        # and one refresh. The restarts never snapshot, so each replays it.
        session.mutate(TAIL_MUTATIONS, REFRESH_ROUNDS)
        client.call({"id": 4, "op": "snapshot"})
        session.mutate(TAIL_MUTATIONS)
        reference = {"id": REFERENCE_ID, "op": "rescore", "detector": "ecod",
                     "top": serve_load.ALL_GROUPS}
        before = client.call(reference)
        s3 = self.stats(client)
        self.mark("restarts")
        recoveries = []
        role = "daemon"
        for _ in range(RESTARTS):
            os.sync()
            killed = time.perf_counter()
            proc.send_signal(signal.SIGKILL)
            self.reap(proc, role)
            client.close()
            proc, client, after, _ = self.boot("state%d" % (BOOTS - 1), False,
                                               reference)
            role = "restart"
            recoveries.append(client.completed[-1][3] - killed)
            if after != before or not before:
                self.errors.append("rescore after a restart differs from the "
                                   "reply before the kill")
        self.details["recovery_s"] = recoveries
        recovery_s = statistics.median(recoveries)
        s4 = self.stats(client)
        self.shut_down(proc, client, role)

        for c in self.clients:
            self.attempted += len(c.completed)
            self.failed += c.failed
            self.errors += c.errors
        return self.metrics(pipe, boots, session, tail_start, first, last,
                            open_s, capacity, recovery_s, (s0, s1, s2, s3, s4))

    def metrics(self, pipe, boots, session, tail_start, first, last, open_s,
                capacity, recovery_s, snaps):
        s0, s1, s2, s3, s4 = snaps
        done = session.client.completed
        lat, late = {}, []
        for (kind, due, sent, received, _), ready in zip(done[first:last],
                                                        session.ready):
            latency, lateness = benchlib.open_loop_account(due, ready, sent,
                                                           received)
            lat.setdefault(kind, []).append(latency * 1e3)
            late.append(lateness * 1e3)
        # Refreshes of the saturation phase queue behind its window, so
        # refresh_p50_ms takes those of the open loop and the tail.
        refreshes = [(received - due) * 1e3 for kind, due, _, received, _
                     in done[first:last] + done[tail_start:]
                     if kind == "refresh"]
        start = done[first][1]
        self.details["open_loop"] = [
            [kind, round((due - start) * 1e3, 3), round((received - due) * 1e3, 3)]
            for kind, due, _, received, _ in done[first:last]]
        tails = {k: benchlib.summarize(v) for k, v in lat.items()}
        tails["refresh"] = benchlib.summarize(refreshes)
        late = benchlib.summarize(late)
        self.details["latency_ms"] = tails
        self.details["generator_late_ms"] = late
        self.details["stats"] = {"warm": s0, "open": s1, "saturated": s2,
                                 "tail": s3, "restarted": s4}

        def tail(kind, key):
            return tails.get(kind, {}).get(key)

        e2e = {
            "setup_s": statistics.median(boots),
            "run_s": statistics.median(pipe["run_s"]) if "run_s" in pipe
                     else pipe.get("run_s_untraced"),
            "peak_rss_mb": max(self.rss_mb.values()),
            "cr": pipe.get("cr"),
            "auc": pipe.get("auc"),
            "whatif_p50_ms": tail("what-if", "p50"),
            "whatif_p99_ms": tail("what-if", "tail"),
            "rescore_p50_ms": tail("rescore", "p50"),
            "rescore_p99_ms": tail("rescore", "tail"),
            "mutation_p50_ms": tail("mutation", "p50"),
            "mutation_p99_ms": tail("mutation", "tail"),
            "refresh_p50_ms": tail("refresh", "p50"),
            "capacity_rps": capacity,
            "recovery_s": recovery_s,
        }

        def d(a, b, *path):
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            return (b or 0) - (a or 0)

        def ratio(num, den):
            return num / den if den else 0.0

        # Queueing-sensitive serve figures cover the open loop (s0 -> s1);
        # counters cover the whole session up to the kill (s0 -> s3).
        ops = ("what-if", "rescore", "add-edge", "remove-edge", "refresh")
        layer = {k: pipe.get(k, 0.0) for k in (
            "data.generate_ms", "gae.busy_ms", "gae.anchors",
            "gae.arena_heap_bytes", "gae.arena_reuse_ratio",
            "sampling.busy_ms", "sampling.search_ms", "sampling.select_ms",
            "sampling.groups", "sampling.workspace_heap_allocs",
            "gcl.busy_ms", "gcl.setup_ms", "gcl.epoch_ms",
            "gcl.arena_heap_bytes", "gcl.arena_bytes_served_per_epoch",
            "gcl.arena_reuse_ratio", "od.busy_ms", "od.neighbors_ms",
            "od.detect_ms", "gae.busy_ms.t1", "sampling.busy_ms.t1",
            "gcl.busy_ms.t1", "od.busy_ms.t1", "trace.overhead_pct")}
        mutations = d(s0, s3, "mutations", "total")
        anchors = (d(s0, s3, "mutations", "refreshed_anchors") +
                   d(s0, s3, "mutations", "reused_anchors"))
        appends = d(s0, s3, "durability", "wal_appends")
        batches = d(s0, s1, "batches", "count")
        layer.update({
            "od.serve_call_ms": 1e3 * ratio(d(s0, s3, "stages", "scoring", "seconds"),
                                            d(s0, s3, "stages", "scoring", "count")),
            "graph.applied_ratio": ratio(d(s0, s3, "mutations", "applied"), mutations),
            "graph.fanout_mean": ratio(d(s0, s3, "mutations", "fanout_total"), mutations),
            "refresh.server_ms": 1e3 * ratio(d(s0, s3, "stages", "refresh", "seconds"),
                                             d(s0, s3, "stages", "refresh", "count")),
            "refresh.dirty_ratio": ratio(d(s0, s3, "mutations", "refreshed_anchors"), anchors),
            "wal.appends": appends,
            "wal.fsyncs": d(s0, s3, "durability", "fsyncs"),
            "wal.bytes_per_append": ratio(d(s0, s3, "durability", "wal_bytes"), appends),
            "wal.snapshots": d(s0, s3, "durability", "snapshots"),
            "wal.replayed_records": s4.get("durability", {}).get("replayed_records", 0),
            "serve.exec_busy_fraction": ratio(d(s0, s1, "batches", "exec_seconds"), open_s),
            "serve.batch_size_mean": ratio(
                s1["batches"]["count"] * s1["batches"]["mean_size"] -
                s0["batches"]["count"] * s0["batches"]["mean_size"], batches),
            # peak_depth is a lifetime maximum; before s1 only the open loop
            # ever had more than one request outstanding.
            "serve.queue_peak_depth": s1["queue"]["peak_depth"],
            "serve.rejected": d(s0, s1, "queue", "rejected"),
            "serve.generator_late_p99_ms": late["tail"],
        })
        for op in ops:
            layer["serve.server_ms." + op] = ratio(
                d(s0, s1, "requests", "by_op", op, "total_ms"),
                d(s0, s1, "requests", "by_op", op, "count"))
        return e2e, layer


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def attempt(name, args, tool, cli):
    """One run of a workload; returns (run, metrics or None, seconds)."""
    start = time.perf_counter()
    run = Run(name, args.seed, args.seconds, args.trace, tool, cli)
    metrics = None
    try:
        metrics = run.execute()
    except (OSError, RuntimeError, TimeoutError, ValueError, KeyError) as e:
        run.errors.append("%s: %s" % (type(e).__name__, e))
    finally:
        run.stop_all()
        run.mark("end")
    return run, metrics, time.perf_counter() - start


def run_workload(name, args, spec, tool, cli):
    """Runs one workload, repeated while CPU steal spoils it and time
    allows; returns (correct, attempted, failed, metrics)."""
    start = time.perf_counter()
    attempts = []
    while True:
        run, metrics, seconds = attempt(name, args, tool, cli)
        attempts.append((run, metrics, seconds))
        if (run.errors or run.failed or run.steal() <= STEAL_LIMIT or
                time.perf_counter() - start + seconds > REPEAT_WITHIN_S):
            break
        log("%s: a phase lost %.1f%% of its CPU time to steal; repeating "
            "the run" % (name, run.steal() * 100))
    if not (run.errors or run.failed):
        run, metrics, _ = min(attempts, key=lambda a: a[0].steal())
    steal = run.steal()
    run.details["cpu_steal"] = {
        "limit": STEAL_LIMIT,
        "attempts": [dict(a[0].steal_record(), seconds=a[2])
                     for a in attempts]}
    print("  cpu steal: %.2f%% in the worst phase (%d run%s; %s)" % (
        steal * 100, len(attempts), "s" if len(attempts) > 1 else "",
        "comparable" if steal <= STEAL_LIMIT else "NOT comparable"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = {}
    if metrics is not None:
        values = metrics[1 if args.trace else 0]
    out = {}
    for m in wanted:
        value = values.get(m["name"])
        if not benchlib.valid_metric_name(m["name"]):
            run.errors.append("metric name %r is not [A-Za-z0-9_.-]" % m["name"])
        if not isinstance(value, (int, float)):
            run.errors.append("no value for metric " + m["name"])
            continue
        if not args.trace and value <= 0:
            run.errors.append("end-to-end metric %s is %r" % (m["name"], value))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-36s %16.6g %-8s (%s is better)" % (
            m["name"], value, m["unit"], m["better"]))
    correct = not run.errors and run.failed == 0
    for e in run.errors:
        log("check failed [%s]: %s" % (name, e))

    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" %
                        (name, args.seed, args.trace))
    header = provenance(name, args.seed, args.seconds, args.trace)
    header.update(cpu_steal=steal, comparable=steal <= STEAL_LIMIT)
    record = {"provenance": header,
              "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "errors": run.errors, "metrics": out,
              "peak_rss_mb_by_process": run.rss_mb, "details": run.details}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print("  result: " + path)
    return correct, max(run.attempted, 1), run.failed, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like an error, so the daemons still get stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("error: grgad sources not found in " + ROOT)
        return 2
    try:
        spec = load_spec()
        tool, cli = build()
    except (OSError, ValueError, RuntimeError) as e:
        log("error: %s" % e)
        return 2

    header = provenance(args.workload, args.seed, args.seconds, args.trace)
    for key in ("cpu_model", "nproc", "grgad_threads", "compiler",
                "compiler_flags", "build_type", "git_commit", "workload_seed"):
        print("# %s: %s" % (key, header[key]))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print("%s (seed %d, %s):" % (name, args.seed,
                                     "per-layer" if args.trace else "end-to-end"))
        ok, n, bad, out = run_workload(name, args, spec, tool, cli)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in out.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
