"""Pure helpers of grgad-bench: percentiles, open-loop accounting, metric
names, per-process peak RSS, CPU steal and the provenance header.

Everything here is free of benchmark state so that test_benchlib.py can pin
the rules down on synthetic inputs.
"""

import hashlib
import math
import os
import platform
import re

# Percentiles a tail metric may report, highest first: p99 as the metric
# names promise, lower ones when a phase has too few samples for it. A tail
# is only reported at a percentile that leaves at least TAIL_MIN_BEYOND
# samples beyond it.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_metric_name(name):
    """True when `name` uses only [A-Za-z0-9_.-], starts with a letter or
    digit and has at most 64 characters."""
    return isinstance(name, str) and METRIC_NAME.match(name) is not None


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n):
    """The highest percentile on TAIL_LADDER that has at least
    TAIL_MIN_BEYOND of `n` samples beyond it; None when even the median has
    fewer."""
    for p in TAIL_LADDER:
        beyond = n - max(1, math.ceil(p / 100.0 * n))
        if beyond >= TAIL_MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median, tail percentile (by tail_percentile) and sample count. With
    too few samples for any tail the maximum stands in for it."""
    if not values:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    p = tail_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_p": p if p is not None else 100.0,
        "tail": percentile(values, p) if p is not None else max(values),
    }


def due_times(start, rate, seconds, rng):
    """Open-loop schedule of round(rate * seconds) requests from `start`
    over `seconds`, whether or not earlier requests have been answered:
    Poisson arrivals conditioned on their count, i.e. exponential gaps drawn
    from `rng` and scaled to span the phase.

    Random gaps, unlike a fixed spacing, keep a tail percentile off the
    cliff where one service time just outlasts the spacing: with a fixed
    10 ms spacing and ~6.5 ms rescores, a 10% slower host doubled a p90.
    The fixed count keeps every request class at the same sample count in
    every run, so a tail is always taken at the same percentile."""
    n = int(round(rate * seconds))
    gaps = [rng.expovariate(1.0) for _ in range(n + 1)]
    scale, t, due = seconds / sum(gaps), 0.0, []
    for gap in gaps[:-1]:
        t += gap
        due.append(start + t * scale)
    return due


def open_loop_account(due, ready, sent, received):
    """Latency and generator lateness of one open-loop request.

    Latency runs from the due time, so a stall that delays sending counts
    against every request it delays. Lateness is how long after the request
    could be sent the generator actually sent it; `ready` is the due time,
    or the later moment a hold on the request was released.
    """
    return received - due, sent - max(due, ready)


def wait_measured(proc):
    """Waits for `proc` and returns (exit status, peak RSS in MiB) of that
    process alone: wait4 reports the child's own rusage, so the peak of one
    process never leaks into another's."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def cpu_ticks(stat_path="/proc/stat"):
    """(steal, wanted) clock ticks of the machine's `cpu` line, or None where
    there is no such line. `wanted` is every tick a CPU had work: user, nice,
    system, irq, softirq and steal (guest time is already inside user);
    idle and iowait are left out, since an idle CPU has nothing to lose."""
    try:
        with open(stat_path, encoding="utf-8") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    user, nice, system, _, _, irq, softirq, steal = (
        int(v) for v in fields[1:9])
    return steal, user + nice + system + irq + softirq + steal


def steal_share(before, after):
    """Share of the CPU time the machine wanted between two cpu_ticks()
    readings that the hypervisor gave to other guests instead: 0.1 means
    the work of that interval ran about 10% slower. 0.0 when a reading is
    missing."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / float(after[1] - before[1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root, entries):
    """sha256 over the files under `entries` (relative to `root`), so a
    result identifies its source tree even in a checkout without git."""
    digest = hashlib.sha256()
    for entry in sorted(entries):
        top = os.path.join(root, entry)
        paths = [top] if os.path.isfile(top) else [
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files]
        for path in sorted(paths):
            if "__pycache__" in path:
                continue
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()
