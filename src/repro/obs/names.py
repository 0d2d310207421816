"""Canonical registry of every obs metric, span, point and event name.

Generated once from the live call sites (PR 5) and hand-maintained
since: **every** name handed to ``active_metrics()`` /
``active_tracer()`` instruments must appear here, either as one of the
exported constants or through an approved factory such as
:func:`ecc_metric`.  The ``repro check`` rule ``REP401`` fails the
build on any obs-name literal that is not in this registry, so a
telemetry dashboard built against these names can never silently drift
from the code: adding an instrument means adding its name here first.

The constants double as the preferred spelling at call sites —
``metrics.counter(FAULTS_INJECTED_BITS)`` instead of a repeated string
literal — which makes renames a one-file change.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
FAULTS_INJECTED_EVENTS = "faults.injected_events"
FAULTS_INJECTED_BITS = "faults.injected_bits"

MEMDEV_RETENTION_TESTS = "memdev.retention_tests"
MEMDEV_RETENTION_FAILING_BITS = "memdev.retention_failing_bits"
MEMDEV_RETENTION_FLIPPED_BITS = "memdev.retention_flipped_bits"
MEMDEV_BER_ACCESSES = "memdev.ber_accesses"
MEMDEV_BER_ERRORS = "memdev.ber_errors"

PROFILE_FETCHES = "profile.fetches"

# Engine profiler (repro.obs.profile) — fast-path here means
# burst-committed execution; slow-path is the faithful reference
# interpreter (``Cpu.step``/``Cpu.run``), which is also what the scalar
# engine runs 100% of the time.
PROFILE_FAST_INSTRUCTIONS = "profile.fast_path.instructions"
PROFILE_FAST_CYCLES = "profile.fast_path.cycles"
PROFILE_SLOW_INSTRUCTIONS = "profile.slow_path.instructions"
PROFILE_SLOW_CYCLES = "profile.slow_path.cycles"
PROFILE_BURSTS = "profile.fastlane.bursts"
PROFILE_SETTLEMENTS = "profile.settlements"
PROFILE_SETTLED_READS = "profile.settlement.reads"
PROFILE_SETTLED_WRITES = "profile.settlement.writes"
PROFILE_WRITEBACK_WORDS = "profile.writeback.words"
PROFILE_WRITEBACK_BATCHES = "profile.writeback.batches"

PLATFORM_RUNS = "platform.runs"
PLATFORM_CYCLES = "platform.cycles"
PLATFORM_INSTRUCTIONS = "platform.instructions"
PLATFORM_CORRECTED_WORDS = "platform.corrected_words"
PLATFORM_DETECTED_WORDS = "platform.detected_words"
PLATFORM_DETECTED_ERRORS = "platform.detected_errors"
PLATFORM_INJECTED_BITS = "platform.injected_bits"
PLATFORM_ROLLBACKS = "platform.rollbacks"
PLATFORM_CPU_CHECKPOINTS = "platform.cpu_checkpoints"
PLATFORM_CPU_RESTORES = "platform.cpu_restores"

RESILIENCE_RUNS = "resilience.runs"
RESILIENCE_TASKS = "resilience.tasks"
RESILIENCE_TASKS_COMPLETED = "resilience.tasks_completed"
RESILIENCE_TASK_FAILURES = "resilience.task_failures"
RESILIENCE_RESUMED_TASKS = "resilience.resumed_tasks"
RESILIENCE_INTERRUPTED_RUNS = "resilience.interrupted_runs"
RESILIENCE_RETRIES = "resilience.retries"
RESILIENCE_REQUEUES = "resilience.requeues"
RESILIENCE_CHECKPOINTS = "resilience.checkpoints"
RESILIENCE_QUARANTINED = "resilience.quarantined"
RESILIENCE_POOL_BREAKS = "resilience.pool_breaks"
RESILIENCE_DEADLINE_OVERRUNS = "resilience.deadline_overruns"
RESILIENCE_SERIAL_DEGRADATIONS = "resilience.serial_degradations"

BATCH_DIE_CELLS = "batch.die.cells"
BATCH_DIES = "batch.dies"
BATCH_GRID_POINTS = "batch.grid_points"
BATCH_GRID_ACCESSES = "batch.grid_accesses"
BATCH_GRID_ERRORS = "batch.grid_errors"

CAMPAIGN_RUNS = "campaign.runs"
CAMPAIGN_CORRECT = "campaign.correct"
CAMPAIGN_SILENT_CORRUPTION = "campaign.silent_corruption"
CAMPAIGN_DETECTED_FAILURE = "campaign.detected_failure"
CAMPAIGN_INJECTED_BITS = "campaign.injected_bits"
CAMPAIGN_CORRECTED_WORDS = "campaign.corrected_words"
CAMPAIGN_ROLLBACKS = "campaign.rollbacks"
CAMPAIGN_QUARANTINED_RUNS = "campaign.quarantined_runs"

# Content-addressed result store (repro.store).
STORE_HITS = "store.hits"
STORE_FRONT_HITS = "store.front_hits"
STORE_MISSES = "store.misses"
STORE_PUTS = "store.puts"
STORE_EVICTIONS = "store.evictions"
STORE_RECOVERIES = "store.recoveries"
STORE_CORRUPT_ENTRIES = "store.corrupt_entries"
STORE_INFLIGHT_WAITS = "store.inflight_waits"
STORE_IMPORTED = "store.imported"
STORE_EXPORTED = "store.exported"
STORE_GC_REMOVED = "store.gc_removed"

# Campaign job server (repro.serve).
SERVE_REQUESTS = "serve.requests"
SERVE_JOBS = "serve.jobs"
SERVE_JOBS_DEDUPED = "serve.jobs_deduped"
SERVE_WARM_POINTS = "serve.warm_points"
SERVE_EXECUTED_POINTS = "serve.executed_points"
SERVE_ERRORS = "serve.errors"
SERVE_JOBS_RECOVERED = "serve.jobs_recovered"
SERVE_DRAINS = "serve.drains"
SERVE_SHEDS = "serve.sheds"
SERVE_DEADLINE_KILLS = "serve.deadline_kills"
SERVE_REJECTED_REQUESTS = "serve.rejected_requests"
SERVE_CLIENT_RETRIES = "serve.client_retries"

# ----------------------------------------------------------------------
# Histograms
# ----------------------------------------------------------------------
PROFILE_OPCODE = "profile.opcode"
PROFILE_PC = "profile.pc"
PROFILE_ENGINE = "profile.engine"
PROFILE_BURST_LENGTH = "profile.fastlane.burst_length"
PLATFORM_FAILURES = "platform.failures"

# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
SPAN_CLI_EXHIBIT = "cli.exhibit"
SPAN_CAMPAIGN_RUN = "campaign.run"
SPAN_RESILIENCE_RUN = "resilience.run"
SPAN_BATCH_ACCESS_BER_GRID = "batch.access_ber_grid"
SPAN_BATCH_RETENTION_FAILURE_CURVE = "batch.retention_failure_curve"
SPAN_STUDY_SCHEME_RUN = "study.scheme_run"
SPAN_SERVE_JOB = "serve.job"

# ----------------------------------------------------------------------
# Points (unsampled trace records)
# ----------------------------------------------------------------------
POINT_MEMDEV_RETENTION_CORRUPTION = "memdev.retention_corruption"
POINT_PLATFORM_DETECTED_ERROR = "platform.detected_error"
POINT_PLATFORM_FAILURE = "platform.failure"
POINT_PLATFORM_ROLLBACK = "platform.rollback"
POINT_RESILIENCE_INTERRUPTED = "resilience.interrupted"
POINT_RESILIENCE_ATTEMPT_FAILED = "resilience.attempt_failed"
POINT_RESILIENCE_QUARANTINED = "resilience.quarantined"
POINT_RESILIENCE_POOL_BREAK = "resilience.pool_break"
POINT_RESILIENCE_DEGRADED_TO_SERIAL = "resilience.degraded_to_serial"
POINT_BATCH_DIE_COUNTS = "batch.die_counts"
POINT_CAMPAIGN_OUTCOME = "campaign.outcome"
POINT_STUDY_SCHEME_OUTCOME = "study.scheme_outcome"
POINT_STORE_RECOVERY = "store.recovery"
POINT_SERVE_JOB_FAILED = "serve.job_failed"
POINT_SERVE_JOB_RECOVERED = "serve.job_recovered"
POINT_SERVE_JOB_TIMED_OUT = "serve.job_timed_out"
POINT_SERVE_JOB_REQUEUED = "serve.job_requeued"
POINT_SERVE_DRAIN = "serve.drain"

# ----------------------------------------------------------------------
# Events (sampled hot-path trace records)
# ----------------------------------------------------------------------
EVENT_FAULT_INJECT = "fault.inject"
EVENT_FAULT_INJECT_BATCH = "fault.inject_batch"

# ----------------------------------------------------------------------
# Families with a structured dynamic segment
# ----------------------------------------------------------------------
#: Per-codec decode-outcome fields published by ``repro.ecc``.
ECC_METRIC_FIELDS = frozenset(
    {"decoded_words", "clean", "corrected", "detected", "miscorrected"}
)


def ecc_metric(codec: str, field: str) -> str:
    """Return the registered ``ecc.<codec>.<field>`` counter name.

    The codec segment is dynamic (the codec class name); the field must
    be one of :data:`ECC_METRIC_FIELDS` so the family stays enumerable.
    """
    if field not in ECC_METRIC_FIELDS:
        raise ValueError(
            f"unknown ecc metric field {field!r}; "
            f"expected one of {sorted(ECC_METRIC_FIELDS)}"
        )
    return f"ecc.{codec}.{field}"


#: Result-store operation counters published by ``repro.store``
#: (stat key -> registered ``store.*`` counter name).
STORE_METRIC_FIELDS = {
    "hits": STORE_HITS,
    "front_hits": STORE_FRONT_HITS,
    "misses": STORE_MISSES,
    "puts": STORE_PUTS,
    "evictions": STORE_EVICTIONS,
    "recoveries": STORE_RECOVERIES,
    "corrupt_entries": STORE_CORRUPT_ENTRIES,
    "inflight_waits": STORE_INFLIGHT_WAITS,
    "imported": STORE_IMPORTED,
    "exported": STORE_EXPORTED,
    "gc_removed": STORE_GC_REMOVED,
}


def store_metric(stat: str) -> str:
    """Return the registered ``store.*`` counter name for a stat key.

    The stat key must be one of :data:`STORE_METRIC_FIELDS` so the
    family stays enumerable.
    """
    try:
        return STORE_METRIC_FIELDS[stat]
    except KeyError:
        raise ValueError(
            f"unknown store metric stat {stat!r}; "
            f"expected one of {sorted(STORE_METRIC_FIELDS)}"
        ) from None


# ----------------------------------------------------------------------
# Aggregate sets (what rule REP401 checks literals against)
# ----------------------------------------------------------------------
METRIC_NAMES: frozenset[str] = frozenset(
    value
    for key, value in list(globals().items())
    if isinstance(value, str)
    and not key.startswith(("_", "SPAN_", "POINT_", "EVENT_"))
    and key.isupper()
)

TRACE_NAMES: frozenset[str] = frozenset(
    value
    for key, value in list(globals().items())
    if isinstance(value, str)
    and key.startswith(("SPAN_", "POINT_", "EVENT_"))
)

ALL_NAMES: frozenset[str] = METRIC_NAMES | TRACE_NAMES

__all__ = [
    "ALL_NAMES",
    "ECC_METRIC_FIELDS",
    "METRIC_NAMES",
    "TRACE_NAMES",
    "ecc_metric",
] + sorted(
    key
    for key, value in list(globals().items())
    if isinstance(value, str) and key.isupper() and not key.startswith("_")
)
