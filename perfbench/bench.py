"""One benchmark run: set up, measure, check, report.

``--trace 0`` measures the end-to-end metrics with nothing wrapped,
timed on a :class:`~perfbench.hostclock.HostClock` and reported at the
reference host's speed.
``--trace 1`` makes one untraced run (the reference for the tracing
overhead) and then one traced run with the invariant monitor armed,
and reports the per-layer metrics.  Metric definitions and the reason
for each workload are in ``README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import json
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from repro.faults.invariants import InvariantViolation
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import percentile

from perfbench import loadgen
from perfbench.hostclock import HostClock
from perfbench.loadgen import BenchmarkError, ClosedLoop, Window
from perfbench.tracer import BOOKKEEPING, Tracer
from perfbench.workloads import (
    WORKLOADS,
    Workload,
    generate_profiles,
    profiles_digest,
)

#: Unmeasured traffic before the window, so plans, caches and the
#: sessions' pipelines reach steady state.
WARMUP_S = 1.0
#: Length of one chunk of the measured window (wall seconds).  Times
#: measured in a chunk are divided by the host slowdown its probes saw.
CHUNK_S = 2.0
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 5
#: Probe runs before and again after each set-up, for that set-up's
#: host slowdown.
SETUP_PROBES = 5
#: The traced run fails when the residual (wall time that no span and
#: no idle wait accounts for) exceeds this share of its wall time.
RESIDUAL_BOUND = 0.5

END_TO_END_UNITS = {
    "grants_per_s": "1/s",
    "grant_p50_ms": "ms",
    "grant_p99_ms": "ms",
    "txn_p99_ms": "ms",
    "cpu_ms_per_kgrant": "ms/kgrant",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "serve.submit_ms_kg": "ms/kgrant",
    "serve.resolve_ms_kg": "ms/kgrant",
    "serve.idle_frac": "ratio",
    "serve.residual_ms_kg": "ms/kgrant",
    "core.submit_ms_kg": "ms/kgrant",
    "core.step_ms_kg": "ms/kgrant",
    "core.step_self_ms_kg": "ms/kgrant",
    "core.steps_per_kgrant": "count/kgrant",
    "core.queue_wait_p50_ms": "ms",
    "core.drain_insert_ms_kg": "ms/kgrant",
    "core.rehydrate_ms_kg": "ms/kgrant",
    "core.rehydrations_per_kgrant": "count/kgrant",
    "core.pending_remove_ms_kg": "ms/kgrant",
    "core.history_record_ms_kg": "ms/kgrant",
    "core.prune_ms_kg": "ms/kgrant",
    "core.history_rows_mean": "rows",
    "backends.evaluate_ms_kg": "ms/kgrant",
    "backends.observe_ms_kg": "ms/kgrant",
    "backends.grant_yield": "ratio",
    "relalg.delta_rows_per_step": "rows/step",
    "relalg.rebuilds": "count",
    "faults.aborts_per_kgrant": "count/kgrant",
    "faults.monitor_ms_kg": "ms/kgrant",
    "trace.bookkeeping_ms_kg": "ms/kgrant",
    "trace.wall_ms_kg": "ms/kgrant",
    "trace.untraced_wall_ms_kg": "ms/kgrant",
    "trace.overhead_ratio": "ratio",
}

#: Reported in addition on the sharded workload.
SHARD_LAYER_UNITS = {
    "shard.facade_self_ms_kg": "ms/kgrant",
    "shard.shard_step_ms_kg": "ms/kgrant",
    "shard.step_skew": "ratio",
    "shard.xshard_coordinated_frac": "ratio",
    "shard.xshard_retries_per_kgrant": "count/kgrant",
}

#: Per-layer self-time metrics and the span each one sums.
SELF_TIME_SPANS = {
    "serve.submit_ms_kg": "serve.submit",
    "serve.resolve_ms_kg": "serve.resolve",
    "core.submit_ms_kg": "core.submit",
    "core.drain_insert_ms_kg": "core.drain_insert",
    "core.rehydrate_ms_kg": "core.rehydrate",
    "core.pending_remove_ms_kg": "core.pending_remove",
    "core.history_record_ms_kg": "core.history_record",
    "core.prune_ms_kg": "core.prune",
    "backends.evaluate_ms_kg": "backends.evaluate",
    "backends.observe_ms_kg": "backends.observe",
    "faults.monitor_ms_kg": "faults.monitor",
    "shard.facade_self_ms_kg": "shard.facade",
    "trace.bookkeeping_ms_kg": BOOKKEEPING,
}

#: ``callback(service, loop)``, run at an edge of the measured window.
EdgeCallback = Callable[[object, ClosedLoop], None]


@dataclass
class Measured:
    """What one closed-loop run left behind."""

    service: object
    loop: ClosedLoop
    edges: list[Window]
    #: Set-up times on the host clock, at the reference host's speed.
    setups: list[float]

    @property
    def wall(self) -> float:
        return self.edges[-1].wall - self.edges[0].wall

    def grants_between(self, start: float, end: float) -> int:
        """Requests whose grant resolved in ``[start, end)`` of the
        loop's host clock."""
        resolved = self.loop.resolve_at  # appended in clock order
        return bisect.bisect_left(resolved, end) - bisect.bisect_left(resolved, start)

    @property
    def grants(self) -> int:
        return self.grants_between(self.edges[0].busy, self.edges[-1].busy)


async def measure(
    workload: Workload,
    profiles,
    seconds: float,
    setups: int = 1,
    *,
    tracer: Optional[Tracer] = None,
    on_start: Optional[EdgeCallback] = None,
    on_end: Optional[EdgeCallback] = None,
) -> Measured:
    """Set up ``setups`` times (keeping the last service), run the
    closed loop for ``WARMUP_S`` + ``seconds`` and check accounting.
    With a ``tracer`` the service also runs the invariant monitor, and
    the run ends with its lifecycle-totality check; without one the
    probe task samples the host's speed."""
    host = HostClock(loadgen.idle_selector())
    times = []
    for attempt in range(setups):
        probes = [host.probe() for __ in range(SETUP_PROBES)]
        started = host.now()
        service, readers = await loadgen.set_up(
            workload, check_invariants=tracer is not None
        )
        taken = host.now() - started
        probes += [host.probe() for __ in range(SETUP_PROBES)]
        times.append(taken / host.slowdown(probes))
        if attempt < setups - 1:
            await loadgen.tear_down(service)
    loop = ClosedLoop(
        service, profiles, loadgen.idle_selector(), probing=tracer is None
    )
    if tracer is not None:
        tracer.install(service)
    try:
        edges = await loop.run(
            WARMUP_S,
            seconds,
            chunks=max(1, round(seconds / CHUNK_S)),
            on_start=(lambda: on_start(service, loop)) if on_start else None,
            on_end=(lambda: on_end(service, loop)) if on_end else None,
        )
        try:
            await asyncio.wait_for(
                loadgen.commit_readers(service, readers), loadgen.DRAIN_S
            )
        except asyncio.TimeoutError:
            raise BenchmarkError("the readers' commits were never granted") from None
        stats = service.stats()
        if tracer is not None:
            service.final_check()
    finally:
        await loadgen.tear_down(service)
        if tracer is not None:
            tracer.uninstall()
    loadgen.check_accounting(stats, loop, service.loop_error)
    print(
        f"{'traced' if tracer else 'untraced'} run: {stats['submitted']} requests "
        f"submitted, {stats['granted']} granted, rejected {stats['rejected']}; "
        f"{loop.transactions} transactions: {loop.committed} committed, "
        f"{loop.aborted_attempts} aborted attempts retried, {loop.abandoned} abandoned"
    )
    client_latencies = [
        resolved - submitted for submitted, resolved in zip(loop.submit_at, loop.resolve_at)
    ]
    print(
        "grant latency p50 over the whole run: "
        f"{stats['grant_latency_s']['p50'] * 1e3:.3f} ms by the service's clock, "
        f"{percentile(client_latencies, 50) * 1e3:.3f} ms measured by the clients "
        "on the host clock"
    )
    return Measured(service, loop, edges, times)


def _scaled(starts: list[float], slowdowns: list[float], begun, finished) -> list[float]:
    """Durations ``finished - begun`` of the samples that began inside
    the window, each divided by the slowdown of the chunk
    ``[starts[k], starts[k+1])`` it began in."""
    durations = []
    for first, last in zip(begun, finished):
        chunk = bisect.bisect_right(starts, first) - 1
        if 0 <= chunk < len(slowdowns):
            durations.append((last - first) / slowdowns[chunk])
    return durations


def end_to_end(run: Measured) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics over the whole window.  Everything is
    timed on the host clock; each chunk's times are divided by the
    slowdown its probes measured.  Rates and CPU are pooled over the
    chunks, percentiles over every sample that began in the window."""
    loop, edges = run.loop, run.edges
    starts = [edge.busy for edge in edges]
    slowdowns = [
        loop.clock.slowdown_between(first.busy, last.busy)
        for first, last in zip(edges, edges[1:])
    ]
    grants = run.grants
    latencies = _scaled(starts, slowdowns, loop.submit_at, loop.resolve_at)
    transactions = _scaled(starts, slowdowns, loop.txn_start, loop.txn_end)
    if not grants or not transactions:
        raise BenchmarkError("no transaction committed inside the measured window")
    if loop.rss_mb is None:
        raise BenchmarkError(
            f"the run resolved fewer than {loadgen.RSS_AT_GRANTS} grants; "
            "peak_rss_mb is read at that count"
        )
    busy = sum(
        (last.busy - first.busy) / slowdown
        for first, last, slowdown in zip(edges, edges[1:], slowdowns)
    )
    cpu = sum(
        (last.cpu - first.cpu) / slowdown
        for first, last, slowdown in zip(edges, edges[1:], slowdowns)
    )
    metrics = {
        "grants_per_s": grants / busy,
        "grant_p50_ms": percentile(latencies, 50) * 1e3,
        "grant_p99_ms": percentile(latencies, 99) * 1e3,
        "txn_p99_ms": percentile(transactions, 99) * 1e3,
        "cpu_ms_per_kgrant": cpu * 1e6 / grants,
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": loop.rss_mb,
    }
    samples = {
        "latencies": len(latencies),
        "transactions": len(transactions),
        "slowdowns": slowdowns,
        "busy_share": (starts[-1] - starts[0]) / run.wall,
    }
    return metrics, samples


def _layer_counters(service, loop: ClosedLoop) -> dict:
    """Cumulative counters read at the window's edges: delta-plan
    maintenance (summed over shards), the sharded facade's cross-shard
    counters, and the transactions the clients started."""
    counters = {"steps": 0, "rows": 0, "rebuilds": 0, "transactions": loop.transactions}
    for scheduler in loadgen.schedulers_of(service):
        stats = scheduler.protocol.maintenance_stats() or {}
        counters["steps"] += stats.get("steps", 0)
        counters["rows"] += stats.get("inserts", 0) + stats.get("retracts", 0)
        counters["rebuilds"] += stats.get("rebuilds", 0)
    facade_metrics = getattr(service.scheduler, "metrics", None)
    xshard = facade_metrics.counters if facade_metrics is not None else {}
    counters["coordinated"] = xshard.get("scheduler.xshard.coordinated", 0)
    counters["retries"] = xshard.get("scheduler.xshard.retries", 0)
    return counters


async def traced_run(workload: Workload, profiles, seconds: float):
    """The untraced reference run, then the traced run.  Returns
    ``(reference, traced, recorded)``: ``recorded`` holds the span
    snapshot and the counters read at the traced window's edges."""
    reference = await measure(workload, profiles, seconds)
    tracer = Tracer()
    recorded: dict = {}

    def on_start(service, loop: ClosedLoop) -> None:
        if workload.shards:
            # Only the facade counts; the shards keep metrics=None, as
            # in the untraced run.
            service.scheduler.metrics = MetricsCollector()
        tracer.reset()
        recorded["start"] = _layer_counters(service, loop)

    def on_end(service, loop: ClosedLoop) -> None:
        recorded["end"] = _layer_counters(service, loop)
        recorded["spans"] = tracer.snapshot()

    traced = await measure(
        workload, profiles, seconds, tracer=tracer, on_start=on_start, on_end=on_end
    )
    return reference, traced, recorded


def per_layer(
    workload: Workload, reference: Measured, traced: Measured, recorded: dict
) -> tuple[dict, dict]:
    """The per-layer metrics of the traced run, plus the wall-time
    breakdown (ms per 1,000 grants) whose parts sum to its wall time."""
    spans = recorded["spans"]
    start, end = recorded["start"], recorded["end"]
    self_s, total_s, calls = spans["self_s"], spans["total_s"], spans["calls"]
    kilo_grants = traced.grants / 1e3
    if not kilo_grants or not reference.grants or not spans["queue_waits"]:
        raise BenchmarkError("no grant resolved inside the measured window")

    def per_kgrant(seconds: float) -> float:
        return seconds * 1e3 / kilo_grants

    wall = traced.wall
    idle = traced.edges[-1].idle - traced.edges[0].idle
    spans_total = sum(self_s.values())
    residual = wall - idle - spans_total
    if residual < -1e-9 * wall:
        raise BenchmarkError(f"spans overlap: {spans_total:.6f}s of {wall:.6f}s wall")
    if residual > RESIDUAL_BOUND * wall:
        raise BenchmarkError(
            f"residual {residual / wall:.1%} of wall exceeds {RESIDUAL_BOUND:.0%}"
        )
    shard_steps = [total_s[name] for name in sorted(total_s) if name.startswith("core.step.")]
    step_self = sum(self_s[name] for name in self_s if name.startswith("core.step."))
    outer_steps = calls.get("shard.facade", calls.get("core.step.0", 0))
    maintained_steps = end["steps"] - start["steps"]
    transactions = end["transactions"] - start["transactions"]
    traced_wall = per_kgrant(wall)
    untraced_wall = reference.wall * 1e6 / reference.grants
    metrics = {name: per_kgrant(self_s.get(span, 0.0)) for name, span in SELF_TIME_SPANS.items()}
    metrics.update(
        {
            "serve.idle_frac": idle / wall,
            "serve.residual_ms_kg": per_kgrant(residual),
            "core.step_ms_kg": per_kgrant(sum(shard_steps)),
            "core.step_self_ms_kg": per_kgrant(step_self),
            "core.steps_per_kgrant": outer_steps / kilo_grants,
            "core.queue_wait_p50_ms": percentile(spans["queue_waits"], 50) * 1e3,
            "core.rehydrations_per_kgrant": calls.get("core.rehydrate", 0) / kilo_grants,
            "core.history_rows_mean": sum(spans["history_rows"]) / len(spans["history_rows"]),
            "backends.grant_yield": spans["qualified_rows"] / max(spans["evaluated_rows"], 1),
            "relalg.delta_rows_per_step": (end["rows"] - start["rows"]) / max(maintained_steps, 1),
            "relalg.rebuilds": end["rebuilds"] - start["rebuilds"],
            "faults.aborts_per_kgrant": calls.get("faults.abort", 0) / kilo_grants,
            "shard.shard_step_ms_kg": per_kgrant(sum(shard_steps)),
            "shard.step_skew": max(shard_steps) / (sum(shard_steps) / len(shard_steps)),
            "shard.xshard_coordinated_frac": (end["coordinated"] - start["coordinated"])
            / max(transactions, 1),
            "shard.xshard_retries_per_kgrant": (end["retries"] - start["retries"]) / kilo_grants,
            "trace.wall_ms_kg": traced_wall,
            "trace.untraced_wall_ms_kg": untraced_wall,
            "trace.overhead_ratio": traced_wall / untraced_wall,
        }
    )
    breakdown = {span: per_kgrant(seconds) for span, seconds in sorted(self_s.items())}
    breakdown["idle (select)"] = per_kgrant(idle)
    breakdown["residual"] = per_kgrant(residual)
    return {name: metrics[name] for name in layer_units(workload)}, breakdown


def layer_units(workload: Workload) -> dict[str, str]:
    """The per-layer metrics a workload's traced run reports."""
    if workload.shards:
        return {**PER_LAYER_UNITS, **SHARD_LAYER_UNITS}
    return PER_LAYER_UNITS


def _check_profiles(workload: Workload, seed: int, digest: str) -> None:
    again = profiles_digest(generate_profiles(workload, seed))
    if again != digest:
        raise BenchmarkError(
            f"profiles of seed {seed} are not reproducible: {digest} != {again}"
        )


def _result(runs: list[Measured], metrics: dict, units: dict) -> dict:
    return {
        "correct": True,
        "attempted": sum(run.loop.transactions for run in runs),
        "failed": sum(run.loop.abandoned for run in runs),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


async def run_async(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    profiles = generate_profiles(workload, seed)
    digest = profiles_digest(profiles)
    print(f"workload {workload.name} seed {seed}: profiles sha256 {digest}")
    if not trace:
        run = await measure(workload, profiles, seconds, SETUPS)
        _check_profiles(workload, seed, digest)
        metrics, samples = end_to_end(run)
        slowdowns = samples["slowdowns"]
        print(
            f"samples: {samples['latencies']} grant latencies, "
            f"{samples['transactions']} transactions; host clock "
            f"{samples['busy_share']:.1%} of the wall window; host slowdown "
            f"{min(slowdowns):.3f}-{max(slowdowns):.3f} over {len(slowdowns)} chunks"
        )
        return _result([run], metrics, END_TO_END_UNITS)
    reference, traced, recorded = await traced_run(workload, profiles, seconds)
    _check_profiles(workload, seed, digest)
    metrics, breakdown = per_layer(workload, reference, traced, recorded)
    wall = metrics["trace.wall_ms_kg"]
    print(f"traced wall time by span, ms per 1,000 grants ({traced.grants} grants):")
    for name, value in breakdown.items():
        print(f"  {name:24s} {value:10.3f}  {value / wall:6.1%}")
    print(f"  {'sum':24s} {sum(breakdown.values()):10.3f}  of wall {wall:.3f}")
    return _result([reference, traced], metrics, layer_units(workload))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = WORKLOADS[args.workload]
    try:
        with asyncio.Runner(loop_factory=loadgen.new_loop) as runner:
            result = runner.run(
                run_async(workload, args.seed, args.seconds, bool(args.trace))
            )
    except (BenchmarkError, InvariantViolation) as error:
        print(f"correctness gate failed: {error}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.4f} {metric['unit']}")
    print(json.dumps(result))
    return 0
