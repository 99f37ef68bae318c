"""Canonical end-to-end benchmark of the join-biclique.

    python3 perfbench/run.py --workload band-inproc --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

A run builds its inputs from ``--seed``, computes the expected join apart
from the program, then repeats rounds (a fresh system fed the same
input, its output checked) until ``--seconds`` have passed.  It prints
one line per metric and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds; span metrics come from the
traced rounds, every other figure from the untraced ones, and the
difference between the two kinds is the tracing overhead.

Exit codes: 0 with a result; 3 when a worker was restarted or
quarantined or a batch redelivered although no fault was injected (no
result is printed); 2 when the program cannot be imported.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("band-inproc", "band-parallel", "equi-gateway")

END_TO_END = (
    ("throughput_tps", "1/s"),
    ("result_latency_p50_ms", "ms"),
    ("result_latency_p99_ms", "ms"),
    ("ingest_latency_p50_ms", "ms"),
    ("cpu_us_per_tuple", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

#: Per-layer metrics and units; see README.md for what each one means.
PER_LAYER = (
    ("core.index.probe_s", "s"),
    ("core.index.insert_s", "s"),
    ("core.index.expire_s", "s"),
    ("core.index.comparisons", "count"),
    ("core.index.match_ratio", "ratio"),
    ("core.joiner.self_s", "s"),
    ("core.router.self_s", "s"),
    ("core.fanout", "ratio"),
    ("broker.publish.self_s", "s"),
    ("broker.published", "count"),
    ("parallel.ingest_s", "s"),
    ("parallel.deliver_s", "s"),
    ("parallel.decode_s", "s"),
    ("parallel.drain_s", "s"),
    ("parallel.poll_s", "s"),
    ("parallel.flush_s", "s"),
    ("parallel.batches", "count"),
    ("parallel.envelopes_per_batch", "ratio"),
    ("parallel.coord_busy", "ratio"),
    ("parallel.worker_cpu_s", "s"),
    ("parallel.restarts", "count"),
    ("parallel.quarantines", "count"),
    ("parallel.redeliveries", "count"),
    ("gateway.protocol_s", "s"),
    ("overload.admission_s", "s"),
    ("gateway.handoff_peak", "count"),
    ("gateway.records_in", "count"),
    ("gateway.acks", "count"),
    ("gateway.sheds", "count"),
    ("overload.deferred", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.cpu_overhead_pct", "%"),
)


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def summarise_round(r: dict) -> None:
    """Replace a round's per-tuple and per-result samples by the
    percentiles the metrics use, so that the benchmark's own memory does
    not grow with the number of rounds (and with the program's speed)."""
    result_lat = r.pop("result_lat")
    ingest_lat = r.pop("ingest_lat")
    r["result_p50_ms"] = 1e3 * percentile(result_lat, 0.50)
    r["result_p99_ms"] = 1e3 * percentile(result_lat, 0.99)
    r["ingest_p50_ms"] = 1e3 * percentile(ingest_lat, 0.50)
    if "gen_lag" in r:
        r["gen_lag_p99_ms"] = 1e3 * percentile(r.pop("gen_lag"), 0.99)


def median_of(rounds, fn) -> float:
    return statistics.median(fn(r) for r in rounds)


def end_to_end(rounds, worker_own_kb: int) -> dict:
    n = rounds[0]["attempted"]
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_tps": median_of(rounds, lambda r: n / r["wall_s"]),
        "result_latency_p50_ms": median_of(rounds,
                                           lambda r: r["result_p50_ms"]),
        "result_latency_p99_ms": median_of(rounds,
                                           lambda r: r["result_p99_ms"]),
        "ingest_latency_p50_ms": median_of(rounds,
                                           lambda r: r["ingest_p50_ms"]),
        "cpu_us_per_tuple": median_of(
            rounds,
            lambda r: 1e6 * (r["coord_cpu_s"] + r["worker_cpu_s"]) / n),
        "peak_rss_mb": (self_kb + worker_own_kb) / 1024.0,
        "setup_s": median_of(rounds, lambda r: r["setup_s"]),
    }


def per_layer(plain, traced) -> dict:
    n = plain[0]["attempted"]

    def span(name: str, field: int):
        return median_of(traced, lambda r: r["trace"]["spans"].get(
            name, (0, 0.0, 0.0))[field])

    def count(name: str):
        return median_of(traced,
                         lambda r: r["trace"]["counts"].get(name, 0))

    def ledger(group: str, name: str):
        return median_of(plain, lambda r: r.get(group, {}).get(name, 0))

    def ratio(num, den):
        return num / den if den else 0.0

    comparisons = count("core.index.comparisons")
    batches = ledger("parallel", "batches")
    wall = median_of(plain, lambda r: r["wall_s"])
    wall_traced = median_of(traced, lambda r: r["wall_s"])
    cpu = median_of(plain, lambda r: r["coord_cpu_s"] + r["worker_cpu_s"])
    cpu_traced = median_of(
        traced, lambda r: r["coord_cpu_s"] + r["worker_cpu_s"])
    workers_run = "parallel" in plain[0]
    return {
        "core.index.probe_s": span("core.index.probe", 2),
        "core.index.insert_s": span("core.index.insert", 1),
        "core.index.expire_s": span("core.index.expire", 1),
        "core.index.comparisons": comparisons,
        "core.index.match_ratio": ratio(count("core.index.matches"),
                                        comparisons),
        "core.joiner.self_s": span("core.joiner", 2),
        "core.router.self_s": span("core.router", 2),
        "core.fanout": count("core.envelopes") / n,
        "broker.publish.self_s": span("broker.publish", 2),
        "broker.published": count("broker.published"),
        "parallel.ingest_s": span("parallel.ingest", 1),
        "parallel.deliver_s": span("parallel.deliver", 1),
        "parallel.decode_s": span("parallel.decode", 1),
        "parallel.drain_s": span("parallel.drain", 1),
        "parallel.poll_s": span("parallel.poll", 1),
        "parallel.flush_s": span("parallel.flush", 1),
        "parallel.batches": batches,
        "parallel.envelopes_per_batch": ratio(
            ledger("parallel", "envelopes"), batches),
        "parallel.coord_busy": (median_of(
            plain, lambda r: r["coord_cpu_s"] / r["wall_s"])
            if workers_run else 0.0),
        "parallel.worker_cpu_s": median_of(plain,
                                           lambda r: r["worker_cpu_s"]),
        "parallel.restarts": ledger("parallel", "restarts"),
        "parallel.quarantines": ledger("parallel", "quarantines"),
        "parallel.redeliveries": ledger("parallel", "redeliveries"),
        "gateway.protocol_s": span("gateway.protocol", 2),
        "overload.admission_s": span("overload.admission", 2),
        "gateway.handoff_peak": max(r.get("gateway", {}).get(
            "handoff_peak", 0) for r in plain),
        "gateway.records_in": ledger("gateway", "records_in"),
        "gateway.acks": ledger("gateway", "acks"),
        "gateway.sheds": ledger("gateway", "sheds"),
        "overload.deferred": ledger("gateway", "deferred"),
        "gen.lag_p99_ms": median_of(plain,
                                    lambda r: r.get("gen_lag_p99_ms", 0.0)),
        "trace.overhead_pct": 100.0 * (wall_traced - wall) / wall,
        "trace.cpu_overhead_pct": 100.0 * (cpu_traced - cpu) / cpu,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import drivers  # imports the program; see main()

    records = drivers.workload_records(workload, seed)
    expected = drivers.expected_pairs(workload, records)
    rounds = []
    started = time.monotonic()
    while (time.monotonic() - started < seconds
           or len(rounds) < (2 if trace else 1)):
        traced = trace and len(rounds) % 2 == 1
        result = drivers.run_round(workload, records, expected, traced)
        result["traced"] = traced
        summarise_round(result)
        rounds.append(result)
    plain = [r for r in rounds if not r["traced"]]
    worker_own_kb = max(r["worker_own_kb"] for r in rounds)
    if trace:
        metrics = per_layer(plain, [r for r in rounds if r["traced"]])
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(rounds, worker_own_kb)
        units = dict(END_TO_END)
    checks = [r["check"] for r in rounds]
    correct = all(c["bad_predicate"] == c["bad_window"] == c["duplicates"]
                  == c["spurious"] == 0 for c in checks)
    return {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "rounds": len(rounds),
        "checks": checks,
    }


def report(workload: str, result: dict) -> None:
    print(f"workload {workload}: {result['rounds']} rounds, "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for check in result["checks"]:
        print("  check " + " ".join(f"{k}={v}" for k, v in check.items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")


def run_all(args) -> int:
    """Each workload once, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {workload}: exit code {proc.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from drivers import SpontaneousRecovery
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except SpontaneousRecovery as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    report(args.workload, result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
