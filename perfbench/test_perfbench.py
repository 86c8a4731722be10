"""Tests of the benchmark itself.

* An untraced run executes the package's own functions: nothing the
  tracer wraps is left wrapped, before or after a traced run.
* The traced run's spans, idle wait and residual sum to its wall time.
* An injected slowdown of one layer's public function moves both that
  layer's metric and the matching end-to-end metrics beyond the bounds
  in ``BENCHMARK.json``.
* A ticket that never resolves fails the correctness gate.
* The host clock leaves out time the thread did not run and the
  probe's own time.

Runs are shortened (0.2 s warm-up, windows of a second or two, peak
memory read at 1,000 grants); the slowdown is large enough that host
noise cannot hide it.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import bench, loadgen
from perfbench.hostclock import HostClock
from perfbench.loadgen import BenchmarkError
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, generate_profiles, profiles_digest

ROOT = pathlib.Path(__file__).resolve().parent.parent
HOTSPOT = WORKLOADS["hotspot"]
#: Extra busy time injected per call, as a multiple of the call's own
#: duration (so the function takes three times as long).
SLOWDOWN = 2.0


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def _run(coroutine):
    with asyncio.Runner(loop_factory=loadgen.new_loop) as runner:
        return runner.run(coroutine)


@pytest.fixture(autouse=True)
def short_run(monkeypatch):
    monkeypatch.setattr(bench, "WARMUP_S", 0.2)
    monkeypatch.setattr(loadgen, "RSS_AT_GRANTS", 1_000)


@pytest.fixture
def profiles():
    return generate_profiles(HOTSPOT, seed=1, count=512)


def _assert_unwrapped(service) -> None:
    for owner, attribute, *__ in Tracer().plan(service):
        assert attribute not in vars(owner), (owner, attribute)
        method = getattr(owner, attribute)
        assert method.__func__ is getattr(type(owner), attribute), (owner, attribute)
    assert service.scheduler.step_hooks == [service._on_step]


def test_untraced_runs_leave_every_traced_function_alone(profiles):
    reference, traced, recorded = _run(bench.traced_run(HOTSPOT, profiles, 1.0))
    _assert_unwrapped(reference.service)
    _assert_unwrapped(traced.service)

    metrics, breakdown = bench.per_layer(HOTSPOT, reference, traced, recorded)
    assert sum(breakdown.values()) == pytest.approx(metrics["trace.wall_ms_kg"], rel=1e-9)
    assert 0 <= breakdown["residual"] <= bench.RESIDUAL_BOUND * metrics["trace.wall_ms_kg"]
    assert metrics["backends.evaluate_ms_kg"] > 0
    assert metrics["core.steps_per_kgrant"] > 0


def test_profiles_are_a_function_of_the_seed():
    first = profiles_digest(generate_profiles(HOTSPOT, seed=3, count=64))
    assert first == profiles_digest(generate_profiles(HOTSPOT, seed=3, count=64))
    assert first != profiles_digest(generate_profiles(HOTSPOT, seed=4, count=64))


def _slow_down_schedule(service) -> None:
    """Make every ``protocol.schedule`` call take ``1 + SLOWDOWN`` times
    as long, by busy-waiting after it returns."""
    for scheduler in loadgen.schedulers_of(service):
        original = scheduler.protocol.schedule

        def slowed(*args, _original=original, **kwargs):
            started = time.perf_counter()
            result = _original(*args, **kwargs)
            until = time.perf_counter() + SLOWDOWN * (time.perf_counter() - started)
            while time.perf_counter() < until:
                pass
            return result

        scheduler.protocol.schedule = slowed


def test_injected_slowdown_moves_layer_and_end_to_end_metrics(monkeypatch, profiles):
    open_service = loadgen.open_service

    def open_slowed_service(*args, **kwargs):
        service = open_service(*args, **kwargs)
        _slow_down_schedule(service)
        return service

    def end_to_end(slowed: bool) -> dict:
        monkeypatch.setattr(loadgen, "open_service", open_slowed_service if slowed else open_service)
        return bench.end_to_end(_run(bench.measure(HOTSPOT, profiles, 1.5)))[0]

    def evaluate_ms_kg(slowed: bool) -> float:
        monkeypatch.setattr(loadgen, "open_service", open_slowed_service if slowed else open_service)
        reference, traced, recorded = _run(bench.traced_run(HOTSPOT, profiles, 1.5))
        return bench.per_layer(HOTSPOT, reference, traced, recorded)[0]["backends.evaluate_ms_kg"]

    # Alternate the two sides so a drift in host speed hits both.
    base, slow = [], []
    for __ in range(2):
        base.append(end_to_end(slowed=False))
        slow.append(end_to_end(slowed=True))
    bounds = _bounds()

    def mean(runs, name):
        return sum(run[name] for run in runs) / len(runs)

    cpu_bound = bounds["cpu_ms_per_kgrant"]
    assert mean(slow, "cpu_ms_per_kgrant") > (1 + cpu_bound) * mean(base, "cpu_ms_per_kgrant")
    rate_bound = bounds["grants_per_s"]
    assert mean(slow, "grants_per_s") * (1 + rate_bound) < mean(base, "grants_per_s")
    assert evaluate_ms_kg(slowed=True) > (1 + cpu_bound) * evaluate_ms_kg(slowed=False)


def test_a_ticket_that_never_resolves_fails_the_gate(monkeypatch, profiles):
    monkeypatch.setattr(loadgen, "DRAIN_S", 1.0)
    open_service = loadgen.open_service

    def open_lossy_service(*args, **kwargs):
        service = open_service(*args, **kwargs)
        scheduler = service.scheduler
        submit = scheduler.submit
        seen = {"commits": 0}

        def lossy_submit(request, now=None):
            if service.is_running and request.is_commit:
                seen["commits"] += 1
                if seen["commits"] == 50:
                    return  # lost on the way in: its ticket never resolves
            submit(request, now)

        scheduler.submit = lossy_submit
        return service

    monkeypatch.setattr(loadgen, "open_service", open_lossy_service)
    with pytest.raises(BenchmarkError, match="never resolved"):
        _run(bench.measure(HOTSPOT, profiles, 1.0))


def test_run_without_package_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hotspot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


class _NoIdle:
    idle = 0.0


def test_host_clock_leaves_out_descheduled_and_probe_time():
    host = HostClock(_NoIdle())
    started = host.now()
    time.sleep(0.2)  # off the CPU, as when the host takes it away
    assert host.now() - started < 0.05
    started = host.now()
    probes = [host.probe() for __ in range(20)]
    assert host.now() - started < 0.5 * sum(probes)
    assert host.slowdown_between(started, host.now()) == host.slowdown(probes)
    with pytest.raises(ValueError):
        host.slowdown_between(host.now() + 1, host.now() + 2)
