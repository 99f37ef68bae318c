"""One round of each workload: set up the system, feed it, check it.

A round replays one seeded input through a freshly built system and
returns what the benchmark measures about it: set-up time, the wall time
from first ingest to the last result the caller can see, per-call ingest
latency, per-result latency, CPU of the system's processes, worker
memory, the operation ledger and, in a traced round, the per-layer span
summary.  Everything outside the timed region (building tuples, the
result checks) happens before or after it.

Each worker reports its own memory as it exits: how far its peak
resident set rose above the resident set it was forked with.  The
resident set alone would count every page it shares with the benchmark
process (harness and coordinator) once more per worker; its private
pages would count those the coordinator has rewritten since the fork.
"""

from __future__ import annotations

import contextlib
import gc
import json
import multiprocessing as mp
import pathlib
import resource
import subprocess
import sys
import time
from collections import Counter
from unittest import mock

import repro.gateway.server as server_mod
import repro.parallel.parallel_cluster as parallel_cluster_mod
import repro.parallel.worker as worker_mod
from repro import (BandJoinPredicate, BicliqueConfig, BicliqueEngine,
                   EquiJoinPredicate, StreamTuple, TimeWindow)
from repro.broker.broker import Broker
from repro.core.chained_index import ChainedInMemoryIndex
from repro.core.joiner import Joiner
from repro.core.router import Router
from repro.core.routing import HashRouting, RandomRouting
from repro.gateway import GatewayConfig, IngestGateway
from repro.overload.manager import OverloadConfig, OverloadManager
from repro.parallel import ParallelCluster, ParallelConfig, WorkerHandle

import inputs
import reference
from spans import SpanRecorder

GEN = pathlib.Path(__file__).resolve().parent / "gen.py"
clock = time.monotonic

#: The E17 probe deployment: ContRand, 8+8 joiners, two routers.
BAND_CONFIG = BicliqueConfig(
    window=TimeWindow(inputs.BAND_WINDOW), r_joiners=8, s_joiners=8,
    routers=2, routing="random", archive_period=0.2,
    punctuation_interval=0.05)
BAND_PREDICATE = BandJoinPredicate("v", "v", inputs.BAND)

#: ContHash equi join behind the gateway.
EQUI_CONFIG = BicliqueConfig(
    window=TimeWindow(inputs.EQUI_WINDOW), r_joiners=4, s_joiners=4,
    routers=2, routing="hash", archive_period=0.5,
    punctuation_interval=0.02)
EQUI_PREDICATE = EquiJoinPredicate("k", "k")

#: Two workers on the pipe plane.  The shared-memory plane (the default)
#: fails clean runs now and then (see README.md), so it is left out.
#: Workers are forked so that the benchmark's wrappers reach them.
BAND_PARALLEL = ParallelConfig(workers=2, transfer_batch=64,
                               transport="pipe", start_method="fork")
EQUI_PARALLEL = ParallelConfig(workers=2, transport="pipe",
                               start_method="fork")


class SpontaneousRecovery(Exception):
    """A recovery happened on a run with no fault injected."""


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def worker_entry(original, sink, recorder):
    """``worker_main`` that reports the worker's CPU, own memory (peak
    resident set less the one it was forked with, in KiB) and (traced)
    span summary through ``sink`` when it exits."""
    def entry(*args, **kwargs):
        forked_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if recorder is not None:
            recorder.reset()
        try:
            original(*args, **kwargs)
        finally:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            sink.send({"cpu_s": usage.ru_utime + usage.ru_stime,
                       "own_kb": usage.ru_maxrss - forked_kb,
                       "trace": (recorder.summary()
                                 if recorder is not None else None)})
    return entry


def instrument(stack: contextlib.ExitStack, sink,
               recorder: SpanRecorder | None) -> None:
    """Install the worker reporter and, when tracing, the layer spans;
    closing ``stack`` puts the program's own functions back."""
    def patch(owner, attr: str, make) -> None:
        stack.enter_context(mock.patch.object(
            owner, attr, make(getattr(owner, attr))))

    patch(worker_mod, "worker_main",
          lambda f: worker_entry(f, sink, recorder))
    if recorder is None:
        return
    span = recorder.wrap

    def counted_targets(f):
        def targets(strategy, t, now):
            units = f(strategy, t, now)
            recorder.count("core.envelopes", len(units))
            return units
        return span("core.router", targets)

    def counted_probe(f):
        def probe(index, t):
            before = index.stats.comparisons
            matches = f(index, t)
            recorder.count("core.index.comparisons",
                           index.stats.comparisons - before)
            recorder.count("core.index.matches", len(matches))
            return matches
        return span("core.index.probe", probe)

    def counted_publish(f):
        def publish(broker, exchange, message):
            recorder.count("broker.published")
            return f(broker, exchange, message)
        return span("broker.publish", publish)

    for strategy in (RandomRouting, HashRouting):
        patch(strategy, "store_targets", counted_targets)
        patch(strategy, "join_targets", counted_targets)
    patch(Router, "on_delivery", lambda f: span("core.router", f))
    for method in ("on_delivery", "on_batch", "flush"):
        patch(Joiner, method, lambda f: span("core.joiner", f))
    patch(ChainedInMemoryIndex, "probe", counted_probe)
    patch(ChainedInMemoryIndex, "insert",
          lambda f: span("core.index.insert", f))
    patch(ChainedInMemoryIndex, "expire",
          lambda f: span("core.index.expire", f))
    patch(Broker, "publish", counted_publish)
    for method in ("ingest", "poll", "flush", "drain"):
        patch(ParallelCluster, method,
              lambda f: span(f"parallel.{method}", f))
    patch(WorkerHandle, "deliver", lambda f: span("parallel.deliver", f))
    patch(parallel_cluster_mod, "try_decode_frame",
          lambda f: span("parallel.decode", f))
    # The edge's own code, on the gateway's asyncio thread: framing of
    # records and replies, and the admission ledger's verdicts.
    for function in ("decode_record", "encode_reply"):
        patch(server_mod, function, lambda f: span("gateway.protocol", f))
    for method in ("record_offered", "admission_decision",
                   "record_admitted"):
        patch(OverloadManager, method,
              lambda f: span("overload.admission", f))


def merge_summaries(summaries) -> dict:
    spans: dict[str, list] = {}
    counts: Counter = Counter()
    for summary in summaries:
        counts.update(summary["counts"])
        for name, (calls, total, own) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
    return {"spans": spans, "counts": dict(counts)}


class _Round:
    """A round's instrumentation and the pipe its workers report on."""

    def __init__(self, traced: bool) -> None:
        self.recorder = SpanRecorder() if traced else None
        self._patches = contextlib.ExitStack()
        self.reports, self._sink = mp.Pipe(duplex=False)
        instrument(self._patches, self._sink, self.recorder)

    def close(self) -> list[dict]:
        """Restore the program and collect the workers' reports."""
        self._patches.close()
        self._sink.close()
        workers = []
        while self.reports.poll():
            try:
                workers.append(self.reports.recv())
            except EOFError:
                break
        self.reports.close()
        return workers


def check_recoveries(cluster: ParallelCluster) -> None:
    if cluster.restarts or cluster.quarantines or cluster.redeliveries:
        raise SpontaneousRecovery(
            f"no fault was injected, yet the run had "
            f"{cluster.restarts} worker restarts, {cluster.quarantines} "
            f"quarantines and {cluster.redeliveries} redeliveries")


# ----------------------------------------------------------------------
# Replays: band-inproc and band-parallel
# ----------------------------------------------------------------------
def replay_round(system: str, records, expected, traced: bool, *,
                 parallel: ParallelConfig = BAND_PARALLEL) -> dict:
    """Replay ``records`` at full speed through ``system``
    (``"inproc"`` or ``"parallel"``) and check the results."""
    tuples = [StreamTuple(relation=rel, ts=ts, values={"v": value}, seq=seq)
              for rel, seq, ts, value in records]
    n = len(tuples)
    starts = [0.0] * n
    ends = [0.0] * n
    marks_n: list[int] = []
    marks_t: list[float] = []
    failed_at = n
    cluster = None
    gc.collect()
    instr = _Round(traced)
    try:
        begin = clock()
        if system == "inproc":
            engine = BicliqueEngine(BAND_CONFIG, BAND_PREDICATE)
            ingest, finish, results = engine.ingest, engine.finish, \
                engine.results
        else:
            cluster = ParallelCluster(BAND_CONFIG, BAND_PREDICATE, parallel)
            ingest, finish, results = cluster.ingest, cluster.drain, \
                cluster.results
        setup = clock() - begin
        seen = 0
        cpu0 = time.process_time()
        try:
            for i, t in enumerate(tuples):
                t0 = clock()
                ingest(t)
                t1 = clock()
                starts[i] = t0
                ends[i] = t1
                visible = len(results)
                if visible != seen:
                    marks_n.append(visible)
                    marks_t.append(t1)
                    seen = visible
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            failed_at = i
            print(f"ingest {i} raised {exc!r}", file=sys.stderr)
        try:
            finish()
        except Exception as exc:  # noqa: BLE001 - its missing results count
            print(f"finish raised {exc!r}", file=sys.stderr)
        done = clock()
        cpu = time.process_time() - cpu0
        if len(results) != seen:
            marks_n.append(len(results))
            marks_t.append(done)
        pairs = [res.key for res in results]
    finally:
        if cluster is not None:
            cluster.close()
        workers = instr.close()
    if cluster is not None:
        check_recoveries(cluster)

    index = {(rel, seq): i for i, (rel, seq, _, _) in enumerate(records)}
    visible_at = _visible_times(len(pairs), marks_n, marks_t)
    result_lat = [visible_at[j] - starts[max(index[r], index[s])]
                  for j, (r, s) in enumerate(pairs)
                  if r in index and s in index]
    failed = {(rel, seq) for rel, seq, _, _ in records[failed_at:]}
    out = _finish_round(
        records, pairs, expected, failed, reference.band_match,
        inputs.BAND_WINDOW, inputs.BAND, index)
    out.update(
        setup_s=setup, wall_s=(marks_t[-1] if marks_t else done) - starts[0],
        ingest_lat=[e - s for s, e in zip(starts[:failed_at],
                                          ends[:failed_at])],
        result_lat=result_lat, coord_cpu_s=cpu,
        worker_cpu_s=sum(w["cpu_s"] for w in workers),
        worker_own_kb=sum(w["own_kb"] for w in workers))
    if cluster is not None:
        out["parallel"] = _parallel_counts(cluster)
    if traced:
        out["trace"] = merge_summaries(
            [instr.recorder.summary()]
            + [w["trace"] for w in workers if w["trace"] is not None])
    return out


def _visible_times(count: int, marks_n, marks_t) -> list[float]:
    """When each of the first ``count`` results became visible: result
    ``j`` is visible at the first mark whose result count exceeds ``j``."""
    times = []
    mark = 0
    for j in range(count):
        while marks_n[mark] <= j:
            mark += 1
        times.append(marks_t[mark])
    return times


def _parallel_counts(cluster: ParallelCluster) -> dict:
    return {"batches": cluster.batches_sent,
            "envelopes": cluster.envelopes_settled,
            "restarts": cluster.restarts,
            "quarantines": cluster.quarantines,
            "redeliveries": cluster.redeliveries}


def _finish_round(records, pairs, expected, failed, match, window, band,
                  index) -> dict:
    """Check the produced pairs; a missing pair fails its later tuple."""
    usable = {pair for pair in expected
              if pair[0] not in failed and pair[1] not in failed}
    check = reference.check_results(pairs, usable, records, window, match,
                                    band)
    missing = check.pop("missing")
    for r, s in missing:
        failed.add(r if index[r] > index[s] else s)
    check["missing"] = len(missing)
    check["expected"] = len(usable)
    check["produced"] = len(pairs)
    return {"attempted": len(records), "failed": len(failed),
            "check": check}


# ----------------------------------------------------------------------
# equi-gateway: open loop through the ingest gateway
# ----------------------------------------------------------------------
class VisibleResults:
    """The cluster as the gateway's bridge thread sees it.

    Forwards ``ingest``/``poll``/``flush`` and notes, after each call,
    when new results became visible to the caller.  The hand-off
    queue's depth is sampled at every ingest.
    """

    def __init__(self, cluster: ParallelCluster) -> None:
        self._cluster = cluster
        self._results = cluster.results
        self.marks_n: list[int] = []
        self.marks_t: list[float] = []
        self.gateway: IngestGateway | None = None
        self.handoff_peak = 0

    def __getattr__(self, name):
        return getattr(self._cluster, name)

    def mark(self) -> None:
        visible = len(self._results)
        if not self.marks_n or visible != self.marks_n[-1]:
            self.marks_n.append(visible)
            self.marks_t.append(clock())

    def ingest(self, t) -> None:
        self.handoff_peak = max(self.handoff_peak,
                                self.gateway.handoff.depth())
        self._cluster.ingest(t)
        self.mark()

    def poll(self, timeout: float = 0.0) -> None:
        self._cluster.poll(timeout)
        self.mark()

    def flush(self) -> None:
        self._cluster.flush()
        self.mark()


def equi_frames(records) -> list[bytes]:
    return [json.dumps({"relation": rel, "ts": ts, "values": {"k": key},
                        "seq": seq}, separators=(",", ":")).encode() + b"\n"
            for rel, seq, ts, key in records]


def gateway_round(records, expected, traced: bool) -> dict:
    """Send ``records`` open-loop through the gateway and check them."""
    frames = equi_frames(records)
    rate = inputs.EQUI_RATE
    gc.collect()
    instr = _Round(traced)
    cluster = gateway = gen = None
    try:
        begin = clock()
        cluster = ParallelCluster(EQUI_CONFIG, EQUI_PREDICATE, EQUI_PARALLEL)
        front = VisibleResults(cluster)
        manager = OverloadManager(OverloadConfig(policy="block"))
        gateway = IngestGateway(front, manager, GatewayConfig())
        front.gateway = gateway
        gateway.start()
        setup = clock() - begin

        gen = subprocess.Popen(
            [sys.executable, str(GEN), str(gateway.port), str(rate)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        gen.stdin.write(b"".join(frames) + b"\n")
        gen.stdin.flush()
        if gen.stdout.readline().strip() != b"ready":
            raise RuntimeError("generator did not connect")
        cpu0 = time.process_time()
        gen.stdin.write(b"go\n")
        gen.stdin.close()
        sent = json.loads(gen.stdout.read())
        gen.wait(timeout=30)
        gateway.drain()
        gateway.close()
        front.mark()
        cluster.drain()
        front.mark()
        cpu = time.process_time() - cpu0
        pairs = [res.key for res in cluster.results]
        stats = gateway.stats
        gateway_counts = {"records_in": stats.records_in,
                          "acks": stats.acks, "sheds": stats.sheds,
                          "deferred": manager.accounting.deferrals,
                          "handoff_peak": front.handoff_peak}
    finally:
        if gen is not None:
            if gen.poll() is None:
                gen.kill()
                gen.wait()
            gen.stdout.close()
        if gateway is not None:
            gateway.close()
        if cluster is not None:
            cluster.close()
        workers = instr.close()
    check_recoveries(cluster)

    t0 = sent["t0"]
    index = {(rel, seq): i for i, (rel, seq, _, _) in enumerate(records)}
    failed = {(rel, seq) for (rel, seq, _, _), status
              in zip(records, sent["statuses"]) if status != "admitted"}
    failed.update((rel, seq) for rel, seq, _, _ in
                  records[len(sent["statuses"]):])
    visible_at = _visible_times(len(pairs), front.marks_n, front.marks_t)
    result_lat = [visible_at[j] - (t0 + records[max(index[r],
                                                    index[s])][2])
                  for j, (r, s) in enumerate(pairs)
                  if r in index and s in index]
    ingest_lat = [arrival - (t0 + i / rate) - overslept
                  for i, (arrival, overslept, status) in enumerate(zip(
                      sent["arrivals"], sent["overslept"], sent["statuses"]))
                  if status == "admitted"]
    out = _finish_round(records, pairs, expected, failed,
                        reference.equi_match, inputs.EQUI_WINDOW, None,
                        index)
    out.update(
        setup_s=setup, wall_s=front.marks_t[-1] - t0,
        ingest_lat=ingest_lat, result_lat=result_lat, coord_cpu_s=cpu,
        worker_cpu_s=sum(w["cpu_s"] for w in workers),
        worker_own_kb=sum(w["own_kb"] for w in workers),
        parallel=_parallel_counts(cluster), gateway=gateway_counts,
        gen_lag=sent["lag"])
    if traced:
        out["trace"] = merge_summaries(
            [instr.recorder.summary()]
            + [w["trace"] for w in workers if w["trace"] is not None])
    return out


def expected_pairs(workload: str, records) -> set:
    if workload == "equi-gateway":
        return reference.windowed_join(records, inputs.EQUI_WINDOW,
                                       reference.equi_match)
    return reference.windowed_join(records, inputs.BAND_WINDOW,
                                   reference.band_match, inputs.BAND)


def workload_records(workload: str, seed: int):
    if workload == "equi-gateway":
        return inputs.equi_records(seed)
    return inputs.band_records(seed)


def run_round(workload: str, records, expected, traced: bool) -> dict:
    if workload == "band-inproc":
        return replay_round("inproc", records, expected, traced)
    if workload == "band-parallel":
        return replay_round("parallel", records, expected, traced)
    return gateway_round(records, expected, traced)
