"""Which public functions the traced run wraps, and the per-layer metrics.

:func:`install` wraps every target below with a :class:`tracer.Tracer`
span, by class attribute for methods and, for module functions, under
every name a ``repro`` module looked it up as (``repro.serve.server``
imports ``scheme_failure_grid`` itself, ``repro.analysis.experiments``
imports ``minimum_voltage``).  It returns an undo function that puts
the original objects back, so untraced runs execute unpatched code.
Install before any runner is built: ports and engines bind codec and
fault-model methods when they are constructed.
"""

from __future__ import annotations

import importlib
import sys

#: Span names (one per layer boundary) and the layer they belong to.
SPAN_ENGINE = "soc.run_until_stop"
SPAN_DECODE = "ecc.decode"
SPAN_ENCODE = "ecc.encode"
SPAN_BATCH = "ecc.batch"
SPAN_CODEC_INIT = "ecc.init"
SPAN_SAMPLE = "faults.sample"
SPAN_BUILD_PLATFORM = "mitigation.build_platform"
SPAN_OCEAN_EXECUTE = "mitigation.ocean_execute"
SPAN_EXECUTOR = "resilience.executor"
SPAN_CAMPAIGN = "analysis.campaign"
SPAN_BATCH_CAMPAIGN = "analysis.batch"
SPAN_STORE_GET = "store.get"
SPAN_STORE_PUT = "store.put"
SPAN_GRID = "serve.grid"
SPAN_HTTP = "serve.http"
SPAN_BUILD_WORKLOAD = "workloads.build"
SPAN_SOLVER = "core.solver"
SPAN_DELAY_MC = "tech.delay_mc"


# ----------------------------------------------------------------------
# Counter hooks: ``pre(args, kwargs)`` / ``post(tracer, args, kwargs,
# result, token)`` around one wrapped call.
# ----------------------------------------------------------------------
def _instructions_before(args, kwargs):
    return args[0].cpu.state.instructions


def _instructions_after(tracer, args, kwargs, result, before):
    tracer.count("soc.instructions", args[0].cpu.state.instructions - before)


def _injected_before(args, kwargs):
    return args[0].injected_bits


def _injected_after(tracer, args, kwargs, result, before):
    tracer.count("faults.injected_bits", args[0].injected_bits - before)


def _rollbacks_after(tracer, args, kwargs, result, token):
    if result is not None:
        tracer.count("mitigation.rollbacks", result[2])


def _tasks_before(args, kwargs):
    return len(args[1])


def _tasks_after(tracer, args, kwargs, result, tasks):
    tracer.count("resilience.tasks", tasks)


def _store_get_after(tracer, args, kwargs, result, token):
    if result is not None:
        tracer.count("store.hits")


def _codec_classes():
    from repro.ecc.base import Codec

    found, pending = [], list(Codec.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


def _runner_classes():
    from repro.mitigation.base import SchemeRunner

    found, pending = [], list(SchemeRunner.__subclasses__())
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return sorted(found, key=lambda cls: cls.__qualname__)


def _targets(grid_job):
    """(owner, attribute, span, options) for every wrapped function."""
    # Import every module that defines a target or a codec subclass.
    for name in (
        "repro.cli", "repro.ecc", "repro.soc.ports", "repro.mitigation",
        "repro.serve", "repro.store", "repro.analysis.experiments",
    ):
        importlib.import_module(name)
    from repro.analysis import campaign
    from repro.analysis.batch import BatchCampaign
    from repro.core import fit_solver
    from repro.mitigation.ocean import OceanRunner
    from repro.resilience.executor import ResilientExecutor
    from repro.serve.client import ServeClient
    from repro.soc.faults import VoltageFaultModel
    from repro.soc.platform import Platform
    from repro.store import pipeline
    from repro.store.store import ResultStore
    from repro.tech import delay
    from repro.workloads import fft

    from repro.ecc.base import STATUS_CORRECTED, DecodeStatus

    def decode_after(tracer, args, kwargs, result, token):
        status = getattr(result, "status", None)
        if status is DecodeStatus.CORRECTED:
            tracer.count("ecc.corrected_words")
        elif status is not None and not isinstance(status, DecodeStatus):
            tracer.count(
                "ecc.corrected_words", int((status == STATUS_CORRECTED).sum())
            )

    targets = [
        (Platform, "run_until_stop", SPAN_ENGINE,
         {"pre": _instructions_before, "post": _instructions_after}),
        (OceanRunner, "execute", SPAN_OCEAN_EXECUTE,
         {"post": _rollbacks_after}),
        (ResilientExecutor, "run", SPAN_EXECUTOR,
         {"pre": _tasks_before, "post": _tasks_after}),
        (ResultStore, "get", SPAN_STORE_GET, {"post": _store_get_after}),
        (ResultStore, "put", SPAN_STORE_PUT, {}),
        (fft.FftProgram, "expected_output", SPAN_BUILD_WORKLOAD, {}),
        (campaign, "run_campaign", SPAN_CAMPAIGN, {}),
        (pipeline, "scheme_failure_grid", SPAN_GRID, {"job": grid_job}),
        (fft, "build_fft_program", SPAN_BUILD_WORKLOAD, {}),
        (fit_solver, "minimum_voltage", SPAN_SOLVER, {}),
        (delay, "monte_carlo_inverter_delay", SPAN_DELAY_MC, {}),
    ]
    injected = {"pre": _injected_before, "post": _injected_after}
    targets.append((VoltageFaultModel, "sample_mask", SPAN_SAMPLE,
                    {"hot": True, **injected}))
    targets.append((VoltageFaultModel, "sample_masks", SPAN_SAMPLE, injected))
    for attr in ("clean_run_length", "consume_clean"):
        targets.append((VoltageFaultModel, attr, SPAN_SAMPLE, {"hot": True}))
    for attr in ("submit", "status", "result", "healthz", "stats"):
        targets.append((ServeClient, attr, SPAN_HTTP, {}))
    for attr in ("scheme_failure_campaign", "access_ber_grid",
                 "access_ber_grid_scalar", "retention_failure_curve"):
        targets.append((BatchCampaign, attr, SPAN_BATCH_CAMPAIGN, {}))
    for cls in _runner_classes():
        targets.append((cls, "build_platform", SPAN_BUILD_PLATFORM, {}))
    for cls in _codec_classes():
        targets.append((cls, "__init__", SPAN_CODEC_INIT, {}))
        targets.append((cls, "encode", SPAN_ENCODE, {"hot": True}))
        targets.append((cls, "decode", SPAN_DECODE,
                        {"hot": True, "post": decode_after}))
        targets.append((cls, "encode_batch", SPAN_BATCH, {}))
        targets.append((cls, "decode_batch", SPAN_BATCH,
                        {"post": decode_after}))
    return targets


def install(tracer, grid_job=None):
    """Wrap every target with ``tracer``; return the undo function.

    ``grid_job(args, kwargs)`` names the job of a
    ``scheme_failure_grid`` call (the serving workload knows it).
    """
    undo = []
    try:
        for owner, attr, span, options in _targets(grid_job):
            if isinstance(owner, type):
                if attr not in owner.__dict__:
                    continue  # inherited: the defining class is wrapped
                raw = owner.__dict__[attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(tracer.wrap(raw.__func__, span, **options))
                else:
                    wrapped = tracer.wrap(raw, span, **options)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, raw))
                continue
            original = getattr(owner, attr)
            wrapped = tracer.wrap(original, span, **options)
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if name != "repro" and not name.startswith("repro."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        undo.append((module, key, original))
    except BaseException:
        _restore(undo)
        raise
    return lambda: _restore(undo)


def _restore(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


def wrapped_names() -> list[str]:
    """Every ``module.attr`` currently replaced by a tracer wrapper."""
    found = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "") or ""
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in list(vars(module).items()):
            if hasattr(value, "__wrapped_by_perfbench__"):
                found.append(f"{name}.{key}")
            elif isinstance(value, type) and value.__module__ == name:
                for attr, raw in list(vars(value).items()):
                    func = getattr(raw, "__func__", raw)
                    if hasattr(func, "__wrapped_by_perfbench__"):
                        found.append(f"{name}.{key}.{attr}")
    return sorted(found)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: Per-layer metric name -> unit, in the order the traced run prints.
PER_LAYER_UNITS = {
    "soc.engine_s": "s",
    "soc.instructions": "count",
    "soc.engine_mips": "MIPS",
    "ecc.decode_s": "s",
    "ecc.decode_calls": "count",
    "ecc.encode_s": "s",
    "ecc.encode_calls": "count",
    "ecc.batch_s": "s",
    "ecc.init_s": "s",
    "ecc.corrected_words": "count",
    "faults.sample_s": "s",
    "faults.sample_calls": "count",
    "faults.injected_bits": "count",
    "mitigation.build_platform_s": "s",
    "mitigation.ocean_execute_s": "s",
    "mitigation.rollbacks": "count",
    "resilience.executor_s": "s",
    "resilience.tasks": "count",
    "analysis.campaign_s": "s",
    "analysis.batch_s": "s",
    "store.get_s": "s",
    "store.get_calls": "count",
    "store.put_s": "s",
    "store.put_calls": "count",
    "store.hit_ratio": "ratio",
    "serve.queue_wait_p50_s": "s",
    "serve.exec_s": "s",
    "serve.dedup_ratio": "ratio",
    "serve.http_requests": "count",
    "serve.share_fresh": "ratio",
    "serve.share_overlap": "ratio",
    "serve.share_extend": "ratio",
    "serve.share_repeat": "ratio",
    "workloads.build_s": "s",
    "core.solver_s": "s",
    "tech.delay_mc_s": "s",
    "bench.unattributed_s": "s",
    "obs.trace_overhead_pct": "%",
    "error_rate": "ratio",
}


def layer_values(summary: dict, root_names: tuple) -> dict:
    """Per-layer metrics derived from one :meth:`Tracer.summary`.

    Seconds are self time (busy seconds summed over threads), except
    ``serve.exec_s``, which is the inclusive busy time of the grid
    calls the serving workers made.  Serve queue wait, dedup ratio,
    request shares, trace overhead and the error rate come from the
    workload and are filled in by the caller.
    """
    self_s = summary["self_s"]
    total_s = summary["total_s"]
    calls = summary["calls"]
    counters = summary["counters"]
    engine_total = total_s.get(SPAN_ENGINE, 0.0)
    instructions = counters.get("soc.instructions", 0)
    store_gets = calls.get(SPAN_STORE_GET, 0)
    return {
        "soc.engine_s": self_s.get(SPAN_ENGINE, 0.0),
        "soc.instructions": instructions,
        "soc.engine_mips": (
            instructions / engine_total / 1e6 if engine_total else 0.0
        ),
        "ecc.decode_s": self_s.get(SPAN_DECODE, 0.0),
        "ecc.decode_calls": calls.get(SPAN_DECODE, 0),
        "ecc.encode_s": self_s.get(SPAN_ENCODE, 0.0),
        "ecc.encode_calls": calls.get(SPAN_ENCODE, 0),
        "ecc.batch_s": self_s.get(SPAN_BATCH, 0.0),
        "ecc.init_s": self_s.get(SPAN_CODEC_INIT, 0.0),
        "ecc.corrected_words": counters.get("ecc.corrected_words", 0),
        "faults.sample_s": self_s.get(SPAN_SAMPLE, 0.0),
        "faults.sample_calls": calls.get(SPAN_SAMPLE, 0),
        "faults.injected_bits": counters.get("faults.injected_bits", 0),
        "mitigation.build_platform_s": self_s.get(SPAN_BUILD_PLATFORM, 0.0),
        "mitigation.ocean_execute_s": self_s.get(SPAN_OCEAN_EXECUTE, 0.0),
        "mitigation.rollbacks": counters.get("mitigation.rollbacks", 0),
        "resilience.executor_s": self_s.get(SPAN_EXECUTOR, 0.0),
        "resilience.tasks": counters.get("resilience.tasks", 0),
        "analysis.campaign_s": self_s.get(SPAN_CAMPAIGN, 0.0),
        "analysis.batch_s": self_s.get(SPAN_BATCH_CAMPAIGN, 0.0),
        "store.get_s": self_s.get(SPAN_STORE_GET, 0.0),
        "store.get_calls": store_gets,
        "store.put_s": self_s.get(SPAN_STORE_PUT, 0.0),
        "store.put_calls": calls.get(SPAN_STORE_PUT, 0),
        "store.hit_ratio": (
            counters.get("store.hits", 0) / store_gets if store_gets else 0.0
        ),
        "serve.exec_s": total_s.get(SPAN_GRID, 0.0),
        "serve.http_requests": calls.get(SPAN_HTTP, 0),
        "workloads.build_s": self_s.get(SPAN_BUILD_WORKLOAD, 0.0),
        "core.solver_s": self_s.get(SPAN_SOLVER, 0.0),
        "tech.delay_mc_s": self_s.get(SPAN_DELAY_MC, 0.0),
        "bench.unattributed_s": sum(self_s.get(name, 0.0) for name in root_names),
    }

