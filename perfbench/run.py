"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign-stress --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are scaled to a reference machine speed by the probe of
``speed.py``; the raw seconds and the scale factors go to the record.
``--trace 1`` measures the workload untraced, then once more with every
layer boundary wrapped in a span (see ``layers.py``), and prints the
per-layer metrics of the traced pass plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the run's provenance and any failed output check; the
same record, with the per-kind request shares of ``serve-mixed``, is
written to ``.bench_out/`` together with the span file and cost tree
of a traced run.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Fresh processes that time set-up, besides the measuring process.
SETUP_CHILDREN = 3
#: Seconds between two speed samples during a set-up (about half a
#: second, so some 25 samples).
SETUP_SAMPLE_INTERVAL_S = 0.02
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up of the workload and exit (used internally)",
    )
    return parser.parse_args(argv)


def timed_setup(workload) -> tuple[float, float]:
    """Raw seconds of one set-up and its scale factor, from a timer
    sampling the machine's speed during it (its own probe: the samples
    must not mix with those of the passes)."""
    probe = SpeedProbe()
    with probe.sampling(SETUP_SAMPLE_INTERVAL_S):
        start = probe.clock()
        workload.setup()
        end = probe.clock()
    probe.sample()  # so that even a set-up shorter than the interval has one
    return end - start, probe.factor(start, end)


def setup_in_child(args) -> tuple[float, float]:
    """:func:`timed_setup` of the workload in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up of {args.workload} failed in a fresh process")
    timed = json.loads(done.stdout.strip().splitlines()[-1])
    return float(timed["setup_s"]), float(timed["factor"])


def quantile(values, fraction: float) -> float:
    """Inclusive-method quantile (the median for 0.5)."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def provenance(args, workload) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "sizes": workload.sizes,
    }


def request_shares(records: list) -> dict:
    from traffic import KINDS

    total = len(records) or 1
    return {
        f"serve.share_{kind}": sum(r["kind"] == kind for r in records) / total
        for kind in KINDS
    }


def pass_wall(passes: list, factors: list | None = None) -> float:
    """Seconds of one round of work: per group the mean pass, summed
    (the three campaign points of ``campaign-stress`` make one round).
    Each pass is scaled by its factor, if ``factors`` are given.

    The mean over every pass of the run, not a median or the fastest
    passes: it leaves no slow pass out of the figure.
    """
    if factors is None:
        factors = [1.0] * len(passes)
    scaled: dict = {}
    for measured, factor in zip(passes, factors):
        scaled.setdefault(measured.group, []).append(measured.wall_s * factor)
    return sum(statistics.fmean(walls) for walls in scaled.values())


def end_to_end(args, workload) -> tuple[dict, list, dict]:
    setups = [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
    setups.append(timed_setup(workload))
    cpu_before = cpu_seconds()
    start = time.perf_counter()
    passes = workload.measure(args.seconds)
    elapsed = time.perf_counter() - start
    cpu_used = cpu_seconds() - cpu_before
    factors = workload.factors(passes)
    latencies = workload.latencies(passes, factors)
    values = {
        "setup_s": statistics.median(raw * f for raw, f in setups),
        "wall_s": pass_wall(passes, factors),
        "jobs_per_s": sum(p.jobs for p in passes)
        / sum(p.wall_s * f for p, f in zip(passes, factors)),
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }
    kernel_s = [took for _, took in workload.probe.samples]
    notes = {
        "setup_raw_s": [raw for raw, _ in setups],
        "setup_factors": [f for _, f in setups],
        "raw_wall_s": pass_wall(passes),
        "pass_walls_s": [p.wall_s for p in passes],
        "pass_factors": factors,
        "speed_samples": len(kernel_s),
        "kernel_median_s": statistics.median(kernel_s),
        "latency_samples": len(latencies),
        "measure_cpu_s": cpu_used,
        "measure_wall_s": elapsed,
    }
    if isinstance(workload, workloads.ServeMixed):
        notes.update(request_shares([r for p in passes for r in p.output]))
    return values, passes, notes


def traced(args, workload) -> tuple[dict, list, dict]:
    workload.setup()
    untraced = workload.measure(args.seconds / 2)
    workload.close()
    tracer = Tracer()
    undo = layers.install(tracer, grid_job=getattr(workload, "grid_job", None))
    try:
        start = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.prepare()
        if isinstance(workload, workloads.ServeMixed):
            # The same requests again, so the streams compare one to one.
            traced_passes = workload.measure(
                0.0, max_jobs=sum(p.attempted for p in untraced), tracer=tracer
            )
            traced_wall = sum(p.wall_s for p in traced_passes)
            base_wall = sum(p.wall_s for p in untraced)
        else:
            with tracer.span("bench.pass"):
                traced_passes = workload.run_pass()
            traced_wall = pass_wall(traced_passes)
            base_wall = pass_wall(untraced)
        traced_total = time.perf_counter() - start
        workload.close()
    finally:
        undo()
    values = layers.layer_values(tracer.summary(), workload.root_names)
    values.update({
        "serve.queue_wait_p50_s": 0.0,
        "serve.dedup_ratio": 0.0,
        **{f"serve.share_{kind}": 0.0 for kind in ("fresh", "overlap", "extend", "repeat")},
        "obs.trace_overhead_pct": 100.0 * (traced_wall / base_wall - 1.0),
    })
    if isinstance(workload, workloads.ServeMixed):
        records = [r for p in traced_passes for r in p.output]
        waits = workload.queue_waits(records)
        values["serve.queue_wait_p50_s"] = statistics.median(waits) if waits else 0.0
        values["serve.dedup_ratio"] = (
            sum(bool(r.get("deduplicated")) for r in records) / max(1, len(records))
        )
        values.update(request_shares(records))
    stem = f"{args.workload}-seed{args.seed}"
    notes = {
        "traced_wall_s": traced_total,
        "traced_root_s": tracer.root_seconds(),
        "files": tracer.write(OUT_DIR, stem),
    }
    return values, untraced + traced_passes, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    tmp = OUT_DIR / "tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    workload = workloads.make(args.workload, args.seed, tmp)
    try:
        if args.setup_only:
            raw, factor = timed_setup(workload)
            print(json.dumps({"setup_s": raw, "factor": factor}))
            return 0
        if args.trace:
            values, passes, notes = traced(args, workload)
            units = layers.PER_LAYER_UNITS
        else:
            values, passes, notes = end_to_end(args, workload)
            units = E2E_UNITS
        failed, errors = workload.check(passes)
    finally:
        workload.close()
        shutil.rmtree(tmp, ignore_errors=True)
    attempted = sum(p.attempted for p in passes)
    if args.trace:
        values["error_rate"] = failed / attempted
    record = {
        "provenance": provenance(args, workload),
        "error_rate": failed / attempted,
        "errors": errors,
        "notes": notes,
        "metrics": values,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print("provenance " + json.dumps(record["provenance"], default=str))
    print(f"error_rate {record['error_rate']:.6g} ({failed} of {attempted} failed)")
    for error in errors[:20]:
        print(f"check failed: {error}")
    if "raw_wall_s" in notes:
        print(f"speed {len(notes['pass_factors'])} passes scaled by "
              f"{min(notes['pass_factors']):.3f}-{max(notes['pass_factors']):.3f}, "
              f"raw wall_s {notes['raw_wall_s']:.4f}")
    for name, value in notes.items():
        if name.startswith("serve.share_"):
            print(f"{name} {value:.4f}")
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
