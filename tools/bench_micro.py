#!/usr/bin/env python3
"""Micro-benchmark regression harness.

Runs the counting-allocator benchmark binaries (google-benchmark), folds
the results into ``BENCH_micro.json`` at the repo root, and — in
``--smoke`` mode — asserts the deterministic allocation counters that
guard the allocation-free hot paths (simulator steady state, streaming
ingest). Timing numbers are machine-dependent and only recorded;
allocation counts are exact and enforced.

Usage (``--bench-bin`` may repeat; results are merged):
  tools/bench_micro.py --bench-bin build/bench/bench_micro_components \\
                       --bench-bin build/bench/bench_stream_ingest
  tools/bench_micro.py --bench-bin ... --smoke   # fast, counters only
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_micro.json"

# Benchmarks whose counters are deterministic (independent of machine
# speed) and must hold for the allocation-free hot path to be intact.
# Ratios slightly above zero amortize one-time arena/pool growth.
COUNTER_BOUNDS = {
    "BM_EventQueueScheduleAndPop/1000": {"allocs_per_event": 0.10},
    "BM_EventQueueScheduleAndPop/100000": {"allocs_per_event": 0.01},
    "BM_LinkShaping": {"allocs_per_packet": 0.05},
    "BM_TcpBulkTransfer": {"allocs_per_seg": 0.50},
    # The event queue holds at most one delivery and one pump event per
    # link, and one carrier per timer unless a timer is re-armed earlier
    # than its carrier, so its peak is bounded by the bench's 2 links and 4
    # TCP timers, not by the hundreds of packets in flight.
    "BM_TcpSteadyStateAllocs": {
        "steady_allocs": 0.0,
        "peak_queue_depth": 2 * 2 + 4,
    },
    # 20 Reno flows through a shared 1 Gbit/s, 50 ms-buffer bottleneck
    # (the TGcong shape): once warm, SACK recovery, the flat scoreboards,
    # the sinks' out-of-order stashes and the link rings reuse their
    # storage — a hard zero.
    "BM_TcpSackChurn": {"steady_allocs": 0.0},
    "BM_PcapEncodeDecode": {"allocs_per_frame": 0.0},
    # ccsigd's verdict-log append (frame + CRC + one write) reuses one
    # buffer after the warm-up append — a hard zero.
    "BM_VerdictLogAppend": {"allocs_per_verdict": 0.0},
    # ccsigd's per-verdict latency instrumentation (ingest stamp + two
    # histogram records): pure relaxed RMWs once the thread's metrics
    # shard exists — a hard zero.
    "BM_VerdictLatencyPath": {"allocs_per_verdict": 0.0},
    # Metrics recording must be allocation-free once the calling thread's
    # shard exists (the benches record once before probing).
    "BM_MetricsCounterRecord": {"allocs_per_record": 0.0},
    "BM_MetricsCounterInert": {"allocs_per_record": 0.0},
    "BM_MetricsHistogramRecord": {"allocs_per_record": 0.0},
    # Streaming ingest (bench_stream_ingest): a quiescent flow's records
    # must touch only scalars — a hard zero, no amortization allowance.
    "BM_StreamIngestHotPath": {"allocs_per_packet": 0.0},
    # A flow still in slow start: the RTT sampler's outstanding window
    # reuses its storage, so what remains is the advance ledger's deque
    # blocks (one per 32 advances) and log-many sample-vector growths —
    # 0.0159 measured, bounded with a 25 % margin. The node-based window
    # this replaced read 0.516 (one map node per data segment).
    "BM_StreamIngestSlowStart": {"allocs_per_packet": 0.02},
    # The batch oracle's whole pass over a 32-flow capture (decode, split,
    # analyze). Single-pass ingest keeps no per-record copy of the raw
    # bytes, so what remains is per-flow vector growth and analysis —
    # 0.0177 measured. The staged reader it replaced allocated at least
    # once per record (each record's own byte vector).
    "BM_BatchIngest": {"allocs_per_record": 0.05},
    # Ingest ladder, smallest rung. Checked by --ladder-smoke (its own
    # ctest, bench_ingest_ladder_smoke), not by --smoke: the ladder lazily
    # writes a 64 MB synthetic capture the plain smoke shouldn't pay for.
    "BM_IngestMmapBatched/64": {"allocs_per_packet": 0.0},
    # Batched forest inference (bench_ml): the flattened SoA trees and the
    # span predict overloads must never touch the heap — a hard zero. The
    # fit benches in the same binary are minutes-long 1M-row runs and are
    # deliberately NOT in this table, so --smoke skips them.
    "BM_ForestInferenceBatch": {"allocs_per_prediction": 0.0},
}

# Hard throughput floors for the ingest ladder's smallest rung. The
# numbers an idle machine produces are ~19-24 M packets/s; the floors sit
# an order of magnitude below that so they survive a loaded CI box while
# still catching structural regressions (a per-record allocation, an
# accidental O(n^2), losing the fused mmap path).
LADDER_FLOORS = {
    "BM_IngestChunkedRead/64": {"packets_per_second": 1.0e6},
    "BM_IngestMmapBatched/64": {"packets_per_second": 2.0e6},
}

LADDER_PREFIXES = (
    "BM_IngestChunkedRead",
    "BM_IngestStreamBatched",
    "BM_IngestMmapBatched",
)

# In --smoke mode only these run (the steady-state bench simulates a 30 s
# 100 MB transfer and the ladder benches synthesize multi-MB captures;
# everything else is sub-second at min_time=0.05). Anchored exact names:
# an unanchored prefix would drag every ladder rung — including the 1 GB
# one — into the smoke run.
SMOKE_FILTER = "|".join(
    f"^{re.escape(name)}$"
    for name in COUNTER_BOUNDS
    if "SteadyState" not in name and not name.startswith(LADDER_PREFIXES)
)

LADDER_FILTER = "|".join(f"^{re.escape(name)}$" for name in LADDER_FLOORS)


def run_bench(bench_bin, bench_filter, min_time):
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        out_path = tmp.name
    cmd = [
        bench_bin,
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
        f"--benchmark_out={out_path}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        data = json.load(f)
    pathlib.Path(out_path).unlink()
    results = {}
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    for bench in data["benchmarks"]:
        entry = {
            "real_time_ns":
                bench["real_time"] * scale[bench.get("time_unit", "ns")]
        }
        for key, value in bench.items():
            if key.startswith(
                ("allocs", "steady", "peak", "bytes_per", "packets_per",
                 "gbps")
            ):
                entry[key] = value
        results[bench["name"]] = entry
    return results


def check_counters(results):
    failures = []
    for name, bounds in COUNTER_BOUNDS.items():
        if name not in results:
            continue  # filtered out in smoke mode
        for counter, bound in bounds.items():
            actual = results[name].get(counter)
            if actual is None:
                failures.append(f"{name}: counter {counter} missing")
            elif actual > bound:
                failures.append(
                    f"{name}: {counter} = {actual:.6g} exceeds bound {bound}"
                )
    return failures


def check_floors(results):
    failures = []
    for name, floors in LADDER_FLOORS.items():
        if name not in results:
            failures.append(f"{name}: benchmark missing from ladder run")
            continue
        for counter, floor in floors.items():
            actual = results[name].get(counter)
            if actual is None:
                failures.append(f"{name}: counter {counter} missing")
            elif actual < floor:
                failures.append(
                    f"{name}: {counter} = {actual:.4g} below floor {floor:.4g}"
                )
    return failures


def print_compare(doc):
    """Per-benchmark delta table: BENCH_micro.json current vs baseline."""
    base = doc.get("baseline", {})
    cur = doc.get("current", {})
    names = sorted(set(base) | set(cur))
    header = f"{'benchmark':<38} {'baseline':>12} {'current':>12} " \
             f"{'delta':>8}  bounds"
    print(header)
    print("-" * len(header))
    for name in names:
        b = base.get(name, {}).get("real_time_ns")
        c = cur.get(name, {}).get("real_time_ns")
        b_s = f"{b:,.0f}" if b is not None else "-"
        c_s = f"{c:,.0f}" if c is not None else "-"
        if b is not None and c is not None and b > 0:
            delta = f"{(c - b) / b * 100.0:+.1f}%"
        else:
            delta = "-"
        bound_s = ""
        bounds = COUNTER_BOUNDS.get(name)
        if bounds and name in cur:
            bad = [
                f"{k}={cur[name].get(k)!r}>{v}"
                for k, v in bounds.items()
                if cur[name].get(k) is None or cur[name][k] > v
            ]
            bound_s = "FAIL " + ", ".join(bad) if bad else "ok"
        print(f"{name:<38} {b_s:>12} {c_s:>12} {delta:>8}  {bound_s}")
    print("(times in ns; delta is current vs baseline, negative = faster; "
          "bounds column checks COUNTER_BOUNDS against 'current')")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--bench-bin",
        action="append",
        help="path to a counting-allocator benchmark binary; may be given "
        "more than once (default: build/bench/bench_micro_components, "
        "build/bench/bench_stream_ingest and build/bench/bench_ml)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast run: allocation counters only, no timing record",
    )
    parser.add_argument(
        "--ladder-smoke",
        action="store_true",
        help="run the ingest ladder's smallest rung only and enforce "
        "LADDER_FLOORS (hard packets/s floors) plus the mmap rung's "
        "zero-allocation bound; pass --bench-bin bench_stream_ingest",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="print a per-benchmark delta table (BENCH_micro.json current "
        "vs baseline) without running anything",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the 'current' section of BENCH_micro.json",
    )
    args = parser.parse_args()

    if args.compare:
        if not RESULT_FILE.exists():
            print(f"no {RESULT_FILE} to compare", file=sys.stderr)
            return 1
        with open(RESULT_FILE) as f:
            print_compare(json.load(f))
        return 0

    if args.ladder_smoke:
        bench_bins = args.bench_bin or [
            str(REPO_ROOT / "build" / "bench" / "bench_stream_ingest"),
        ]
        results = {}
        for bench_bin in bench_bins:
            results.update(run_bench(bench_bin, LADDER_FILTER, min_time=0.05))
        failures = check_floors(results) + check_counters(results)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        for name in sorted(results):
            extras = {
                k: v for k, v in results[name].items() if k != "real_time_ns"
            }
            print(f"  {name}: {results[name]['real_time_ns']:.0f} ns {extras}")
        print(f"ingest ladder smoke: {'FAIL' if failures else 'OK'}")
        return 1 if failures else 0

    bench_bins = args.bench_bin or [
        str(REPO_ROOT / "build" / "bench" / "bench_micro_components"),
        str(REPO_ROOT / "build" / "bench" / "bench_stream_ingest"),
        str(REPO_ROOT / "build" / "bench" / "bench_ml"),
    ]
    results = {}
    for bench_bin in bench_bins:
        if args.smoke:
            results.update(run_bench(bench_bin, SMOKE_FILTER, min_time=0.05))
        else:
            results.update(
                run_bench(bench_bin, bench_filter=None, min_time=0.3)
            )

    failures = check_counters(results)
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)

    checked = [n for n in COUNTER_BOUNDS if n in results]
    print(f"checked {len(checked)} allocation-counter benchmarks: "
          f"{'FAIL' if failures else 'OK'}")
    for name in sorted(results):
        extras = {
            k: v for k, v in results[name].items() if k != "real_time_ns"
        }
        print(f"  {name}: {results[name]['real_time_ns']:.0f} ns {extras}")

    if args.update and not args.smoke:
        doc = {}
        if RESULT_FILE.exists():
            try:
                with open(RESULT_FILE) as f:
                    doc = json.load(f)
            except (json.JSONDecodeError, UnicodeDecodeError) as e:
                print(
                    f"warning: existing {RESULT_FILE} is corrupt ({e}); "
                    "starting a fresh baseline (previous content discarded)",
                    file=sys.stderr,
                )
                doc = {}
        doc["current"] = results
        # Write-then-rename so a crash mid-dump never truncates the
        # baseline file.
        tmp_path = RESULT_FILE.with_suffix(".json.tmp")
        with open(tmp_path, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        tmp_path.replace(RESULT_FILE)
        print(f"wrote {RESULT_FILE}")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
