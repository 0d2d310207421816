"""Tests of the benchmark harness itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from traffic import KINDS, Traffic  # noqa: E402


def _small(name: str):
    if name == "campaign-stress":
        return workloads.CampaignStress(seed=3, runs=2, fft_points=16)
    return workloads.ExhibitReport(seed=0, fft_points=16)


def _traced_pass(workload) -> tuple:
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.prepare()
        with tracer.span("bench.pass"):
            measured = workload.run_pass()
        wall = time.perf_counter() - start
    finally:
        undo()
    return tracer, measured, wall


@pytest.mark.parametrize("name", ["campaign-stress", "exhibit-report"])
def test_self_times_sum_to_traced_wall(name):
    workload = _small(name)
    workload.setup()
    untraced = workload.run_pass()
    tracer, traced, wall = _traced_pass(workload)

    summary = tracer.summary()
    self_total = sum(summary["self_s"].values())
    assert self_total == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert self_total == pytest.approx(wall, rel=0.02)
    assert summary["calls"][layers.SPAN_ENGINE] > 0
    values = layers.layer_values(summary, workload.root_names)
    assert values["soc.instructions"] > 0
    # Tracing observes; it must not change what the program computes.
    assert [p.output for p in traced] == [p.output for p in untraced]


def test_campaign_layers_count_fault_traffic():
    workload = workloads.CampaignStress(seed=0, runs=2, fft_points=16)
    workload.setup()
    tracer, _, _ = _traced_pass(workload)
    values = layers.layer_values(tracer.summary(), workload.root_names)
    for name in ("ecc.decode_calls", "faults.sample_calls", "resilience.tasks",
                 "ecc.init_s", "mitigation.build_platform_s"):
        assert values[name] > 0, name
    assert values["resilience.tasks"] == 3 * 2


def test_wrappers_are_removed_after_the_traced_run():
    from repro.ecc.hamming import SecdedCodec
    from repro.serve import server
    from repro.store import pipeline

    decode = SecdedCodec.__dict__["decode"]
    grid = pipeline.scheme_failure_grid
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        assert SecdedCodec.__dict__["decode"] is not decode
        assert server.scheme_failure_grid is not grid
        assert "repro.serve.server.scheme_failure_grid" in layers.wrapped_names()
    finally:
        undo()
    assert layers.wrapped_names() == []
    assert SecdedCodec.__dict__["decode"] is decode
    assert server.scheme_failure_grid is grid is pipeline.scheme_failure_grid

    # An untraced run afterwards executes the unpatched functions.
    workload = workloads.CampaignStress(seed=0, runs=1, fft_points=16)
    workload.setup()
    workload.run_pass()
    assert tracer.summary()["calls"] == {}


def test_speed_probe_clock_leaves_samples_out():
    probe = speed.SpeedProbe()
    wall = time.perf_counter()
    start = probe.clock()
    probe.sample(20)
    assert probe.clock() - start < 0.1 * (time.perf_counter() - wall)
    assert len(probe.samples) == 20


def test_speed_factor_uses_samples_inside_else_nearest():
    probe = speed.SpeedProbe()
    probe.samples = [(float(t), speed.REFERENCE_S * 2) for t in range(100)]
    probe.samples += [(100.0 + t / 100, speed.REFERENCE_S / 2) for t in range(50)]
    assert probe.factor(100.0, 101.0) == pytest.approx(2.0)
    # Too few inside: the nearest MIN_SAMPLES, here all from the slow part.
    assert probe.factor(10.0, 11.0) == pytest.approx(0.5)


def test_speed_sampling_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    with probe.sampling(0.01):
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_traffic_is_seeded_and_refers_back():
    first = [Traffic(5)[i] for i in range(200)]
    again = Traffic(5)
    assert [again[i] for i in range(200)] == first
    assert [Traffic(6)[i] for i in range(200)] != first
    assert {kind for kind, _ in first} == set(KINDS)
    seen = []
    for index, (kind, spec) in enumerate(first):
        if kind in ("overlap", "extend", "repeat"):
            # Only requests at least two (the client count) back count.
            earlier = [s for _, s in first[: index - 1]]
            if kind == "repeat":
                assert spec in earlier
            elif kind == "extend":
                assert dict(spec, runs=spec["runs"] - 1) in earlier
            else:
                assert any(spec["vdds"][0] in s["vdds"] and s["scheme"] == spec["scheme"]
                           for s in earlier)
        if kind == "fresh":
            assert not set(spec["vdds"]) & set(seen)
        seen.extend(spec["vdds"])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exhibit-report",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
