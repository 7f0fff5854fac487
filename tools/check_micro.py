#!/usr/bin/env python3
"""CI gate over bench_results/micro.json (grgad-micro-v8).

Fails (exit 1) when:
  - the schema is not grgad-micro-v8, or the candidates/kernels/scoring/
    epochs/serve/mutations tables are missing or empty;
  - the candidates table lacks any of the required entries (sampler,
    pattern_search, augment), the sampler entry has no positive opt_ms,
    or it reports a nonzero steady-state workspace heap-allocation count
    (the sampler has no baseline side; its time is tracked end to end by
    grgadbench's sampling.* metrics and refresh_p50_ms);
  - the scoring table lacks any of the required reference-vs-product entries
    (pairwise, knn, lof, iforest, ecod, graphsnn);
  - the serve table lacks a round_trip entry with a positive mean_ms
    (the resident daemon answered every timed request);
  - the mutations table lacks the apply_edge / invalidate / refresh
    entries, or the refresh entry's incremental path is less than
    REFRESH_SPEEDUP_FLOOR (10x) faster than the full recompute (the PR's
    acceptance gate for dirty-anchor invalidation);
  - the durability table lacks the wal_append / snapshot / replay entries,
    or the replay entry (snapshot load + WAL tail replay, the daemon's
    restart path) is less than REPLAY_SPEEDUP_FLOOR (5x) faster than
    rebuilding the serving state from scratch on the same serving-dense
    shape (the durability PR's acceptance gate);
  - any candidates entry with a baseline side (pattern_search, augment on
    InducedSubgraph copies) or any scoring entry (reference detectors)
    regresses more than REGRESSION_LIMIT (1.5x) against that baseline on
    the runner.

The kernels/epochs tables are checked for presence only: their acceptable
ratios are ISA-dependent (see PERF.md) and already tracked as uploaded
artifacts, while the candidates, scoring, and mutations tables are the
gates their stage rebuilds own.
"""
import json
import sys

REGRESSION_LIMIT = 1.5
REFRESH_SPEEDUP_FLOOR = 10.0
REPLAY_SPEEDUP_FLOOR = 5.0
REQUIRED_CANDIDATES = {"sampler", "pattern_search", "augment"}
# Candidates entries timed without a baseline side: no ratio gate.
UNGATED_CANDIDATES = {"sampler"}
REQUIRED_SCORING = {"pairwise", "knn", "lof", "iforest", "ecod", "graphsnn"}
REQUIRED_MUTATIONS = {"apply_edge", "invalidate", "refresh"}
REQUIRED_DURABILITY = {"wal_append", "snapshot", "replay"}


def check_gated_table(data, table, required, failures, ungated=frozenset()):
    entries = data.get(table) or []
    names = {entry.get("name") for entry in entries}
    for missing in sorted(required - names):
        failures.append(f"{table} table is missing entry {missing!r}")

    floor = 1.0 / REGRESSION_LIMIT
    for entry in entries:
        name = entry.get("name", "?")
        if name in ungated:
            opt_ms = entry.get("opt_ms")
            if not isinstance(opt_ms, (int, float)) or opt_ms <= 0:
                failures.append(
                    f"{table} entry {name!r} opt_ms = {opt_ms!r},"
                    f" expected > 0")
            else:
                print(f"  {table} {name:<15} opt {opt_ms:9.3f} ms")
            continue
        speedup = entry.get("speedup")
        if not isinstance(speedup, (int, float)):
            failures.append(f"{table} entry {name!r} has no speedup")
            continue
        print(f"  {table} {name:<15} seed {entry.get('seed_ms', 0.0):9.3f} ms"
              f"   opt {entry.get('opt_ms', 0.0):9.3f} ms"
              f"   {speedup:.2f}x")
        if speedup < floor:
            failures.append(
                f"{table} entry {name!r} regressed: opt is"
                f" {1.0 / speedup:.2f}x slower than seed"
                f" (limit {REGRESSION_LIMIT}x)")


def check_mutations(data, failures):
    entries = {entry.get("name"): entry for entry in data.get("mutations") or []}
    for missing in sorted(REQUIRED_MUTATIONS - set(entries)):
        failures.append(f"mutations table is missing entry {missing!r}")

    for name, entry in entries.items():
        opt_ms = entry.get("opt_ms")
        if not isinstance(opt_ms, (int, float)) or opt_ms <= 0:
            failures.append(
                f"mutations entry {name!r} opt_ms = {opt_ms!r}, expected > 0")
            continue
        line = f"  mutations {name:<12} opt {opt_ms:9.3f} ms"
        if isinstance(entry.get("speedup"), (int, float)):
            line += (f"   seed {entry.get('seed_ms', 0.0):9.3f} ms"
                     f"   {entry['speedup']:.2f}x")
        if isinstance(entry.get("fanout"), (int, float)):
            line += f"   fanout {entry['fanout']:.1f}"
        print(line)

    refresh = entries.get("refresh")
    if refresh is not None:
        speedup = refresh.get("speedup")
        if not isinstance(speedup, (int, float)):
            failures.append("mutations refresh entry has no speedup")
        elif speedup < REFRESH_SPEEDUP_FLOOR:
            failures.append(
                f"incremental refresh speedup {speedup:.2f}x is below the"
                f" {REFRESH_SPEEDUP_FLOOR}x acceptance floor")
        fanout = refresh.get("fanout")
        if not isinstance(fanout, (int, float)) or fanout <= 0:
            failures.append(
                f"mutations refresh fanout = {fanout!r}, expected > 0"
                f" (the mutation must dirty at least one anchor)")


def check_durability(data, failures):
    entries = {entry.get("name"): entry
               for entry in data.get("durability") or []}
    for missing in sorted(REQUIRED_DURABILITY - set(entries)):
        failures.append(f"durability table is missing entry {missing!r}")

    for name, entry in entries.items():
        opt_ms = entry.get("opt_ms")
        if not isinstance(opt_ms, (int, float)) or opt_ms <= 0:
            failures.append(
                f"durability entry {name!r} opt_ms = {opt_ms!r}, expected > 0")
            continue
        line = f"  durability {name:<11} opt {opt_ms:9.3f} ms"
        if isinstance(entry.get("speedup"), (int, float)):
            line += (f"   seed {entry.get('seed_ms', 0.0):9.3f} ms"
                     f"   {entry['speedup']:.2f}x")
        print(line)

    replay = entries.get("replay")
    if replay is not None:
        speedup = replay.get("speedup")
        if not isinstance(speedup, (int, float)):
            failures.append("durability replay entry has no speedup")
        elif speedup < REPLAY_SPEEDUP_FLOOR:
            failures.append(
                f"crash-recovery replay speedup {speedup:.2f}x is below the"
                f" {REPLAY_SPEEDUP_FLOOR}x acceptance floor (restart must"
                f" beat a from-scratch rebuild)")


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "bench_results/micro.json"
    with open(path) as f:
        data = json.load(f)

    failures = []
    schema = data.get("schema")
    if schema != "grgad-micro-v8":
        failures.append(f"schema is {schema!r}, expected 'grgad-micro-v8'")

    for table in ("candidates", "kernels", "scoring", "epochs", "serve",
                  "mutations", "durability"):
        if not data.get(table):
            failures.append(f"table {table!r} is missing or empty")

    check_gated_table(data, "candidates", REQUIRED_CANDIDATES, failures,
                      UNGATED_CANDIDATES)
    check_gated_table(data, "scoring", REQUIRED_SCORING, failures)
    check_mutations(data, failures)
    check_durability(data, failures)

    for entry in data.get("candidates") or []:
        if entry.get("name") != "sampler":
            continue
        allocs = (entry.get("workspace") or {}).get("steady_heap_allocs")
        if allocs is None:
            failures.append("sampler entry lacks workspace.steady_heap_allocs")
        elif allocs != 0:
            failures.append(
                f"sampler steady-state workspace heap allocs = {allocs},"
                f" expected 0")

    serve_names = {}
    for entry in data.get("serve") or []:
        serve_names[entry.get("name")] = entry
    round_trip = serve_names.get("round_trip")
    if round_trip is None:
        failures.append("serve table is missing entry 'round_trip'")
    else:
        mean_ms = round_trip.get("mean_ms")
        if not isinstance(mean_ms, (int, float)) or mean_ms <= 0:
            failures.append(
                f"serve round_trip mean_ms = {mean_ms!r}, expected > 0")
        else:
            print(f"  serve round_trip     mean {mean_ms:9.3f} ms over"
                  f" {round_trip.get('round_trips', 0)} trips")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"OK: {path} is grgad-micro-v8 with complete candidates/scoring/"
          f"serve/mutations/durability tables, 0 steady-state sampler workspace "
          f"allocs, incremental refresh >= {REFRESH_SPEEDUP_FLOOR}x, "
          f"crash-recovery replay >= {REPLAY_SPEEDUP_FLOOR}x, and no opt "
          f"regression beyond {REGRESSION_LIMIT}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
