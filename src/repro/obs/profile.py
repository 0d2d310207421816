"""Deterministic, sampling-free engine profiler.

Both execution engines — the scalar interpreter (``Cpu.run``) and the
clean-burst :class:`~repro.soc.fastlane.FastLaneEngine` — carry
instrumentation that routes through the module-level *active
profiler*, mirroring the ``active_metrics()`` / ``active_tracer()``
pattern:

* **Disabled is free.**  The default active profiler is
  :data:`NULL_PROFILER`; engine hot loops check ``profiler.enabled``
  *once per run* and take their unmodified fast path when it is
  false, so profiling that is off costs an attribute read, never a
  per-instruction branch.
* **Enabled is bit-exactness-neutral.**  Recording methods only read
  already-committed architectural tallies (instruction/cycle deltas,
  opcode counts accumulated in engine locals) and write them through
  :func:`~repro.obs.metrics.active_metrics` using the pinned names in
  :mod:`repro.obs.names` — no RNG draws, no port traffic, no
  wall-clock reads.  The differential fuzzers run with profiling on to
  prove outcomes, fault statistics and RNG positions stay
  bit-identical.
* **Sampling-free.**  Every committed instruction is tallied (in plain
  engine locals, published once per burst), so opcode mixes and
  residency figures are exact, not estimates.

Because the numbers land in the ordinary metrics registry, profiler
output inherits everything metrics already do: picklable snapshots,
exact cross-process merging of pool-worker shards, and JSON round-trips
through the resilience journal.

What the instruments mean:

* ``profile.fast_path.*`` — instructions/cycles committed by a
  fast-lane burst.
* ``profile.slow_path.*`` — instructions/cycles executed by the
  faithful reference interpreter: fast-lane slow steps, and the whole
  run when the scalar engine is selected.
* ``profile.opcode`` — exact opcode mix of scalar-engine runs plus all
  fast-path committed instructions (slow-step opcodes are not decoded
  twice, so the rare replayed instruction is counted in residency but
  not in the mix).
* ``profile.fastlane.*`` / ``profile.writeback.*`` /
  ``profile.settlement.*`` — burst-length histogram, encoded
  write-back and fault-settlement costs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Mapping

from repro.obs import names
from repro.obs.metrics import active_metrics

#: Engine-kind labels for the ``profile.engine`` histogram.
ENGINE_SCALAR = "scalar"
ENGINE_FAST_LANE = "fastlane"


def pow2_bucket(n: int) -> str:
    """Power-of-two histogram bucket label for a non-negative count.

    ``0`` and ``1`` get their own buckets; larger values land in
    ``"2-3"``, ``"4-7"``, ``"8-15"``, ... so histograms over widely
    varying counts (burst lengths) stay readable.
    """
    if n <= 1:
        return "0" if n <= 0 else "1"
    low = 1 << (n.bit_length() - 1)
    return f"{low}-{2 * low - 1}"


class EngineProfiler:
    """Records engine-level cost breakdowns into the active metrics.

    All methods are *rare-path*: engines call them once per run, burst,
    or settlement — never per instruction — with tallies they
    accumulated in plain locals.
    """

    enabled: bool = True

    def record_engine(self, kind: str) -> None:
        """Attribute one platform run to its execution engine."""
        active_metrics().histogram(names.PROFILE_ENGINE).add(kind)

    def record_opcodes(self, opcodes: Mapping[str, int]) -> None:
        """Fold a mnemonic -> count tally into the opcode mix."""
        histogram = active_metrics().histogram(names.PROFILE_OPCODE)
        for mnemonic, count in opcodes.items():
            histogram.add(mnemonic, count)

    def record_burst(self, instructions: int, cycles: int) -> None:
        """One fast-lane burst's committed instructions and cycles.

        Zero-length bursts are recorded too: their ``"0"`` bucket in
        the burst-length histogram is the direct measure of slow-path
        pressure (every one of them forced a reference step).
        """
        metrics = active_metrics()
        metrics.counter(names.PROFILE_BURSTS).inc()
        if instructions:
            metrics.counter(names.PROFILE_FAST_INSTRUCTIONS).inc(
                instructions
            )
            metrics.counter(names.PROFILE_FAST_CYCLES).inc(cycles)
        metrics.histogram(names.PROFILE_BURST_LENGTH).add(
            pow2_bucket(instructions)
        )

    def record_slow_path(self, instructions: int, cycles: int) -> None:
        """Reference-interpreter residency (slow steps, scalar runs)."""
        if instructions == 0 and cycles == 0:
            return
        metrics = active_metrics()
        metrics.counter(names.PROFILE_SLOW_INSTRUCTIONS).inc(instructions)
        metrics.counter(names.PROFILE_SLOW_CYCLES).inc(cycles)

    def record_settlement(self, reads: int, writes: int) -> None:
        """One bulk fault-settlement (gap consumption + counters)."""
        metrics = active_metrics()
        metrics.counter(names.PROFILE_SETTLEMENTS).inc()
        if reads:
            metrics.counter(names.PROFILE_SETTLED_READS).inc(reads)
        if writes:
            metrics.counter(names.PROFILE_SETTLED_WRITES).inc(writes)

    def record_writeback(self, words: int, batched: bool) -> None:
        """One encoded write-back of dirty burst stores."""
        metrics = active_metrics()
        metrics.counter(names.PROFILE_WRITEBACK_WORDS).inc(words)
        if batched:
            metrics.counter(names.PROFILE_WRITEBACK_BATCHES).inc()


class NullEngineProfiler:
    """Do-nothing profiler — the free default."""

    enabled: bool = False

    def record_engine(self, kind: str) -> None:
        pass

    def record_opcodes(self, opcodes: Mapping[str, int]) -> None:
        pass

    def record_burst(self, instructions: int, cycles: int) -> None:
        pass

    def record_slow_path(self, instructions: int, cycles: int) -> None:
        pass

    def record_settlement(self, reads: int, writes: int) -> None:
        pass

    def record_writeback(self, words: int, batched: bool) -> None:
        pass


NULL_PROFILER = NullEngineProfiler()

_active: EngineProfiler | NullEngineProfiler = NULL_PROFILER


def active_profiler() -> EngineProfiler | NullEngineProfiler:
    """The profiler engine instrumentation currently reports to."""
    return _active


def enable_profiling(
    profiler: EngineProfiler | None = None,
) -> EngineProfiler:
    """Install (and return) a live profiler as the active one.

    The profiler writes through :func:`active_metrics`, so enable a
    metrics registry too (or nothing is retained).
    """
    global _active
    if profiler is None:
        profiler = EngineProfiler()
    _active = profiler
    return profiler


def disable_profiling() -> None:
    """Restore the no-op default."""
    global _active
    _active = NULL_PROFILER


@contextmanager
def scoped_profiling(
    profiler: EngineProfiler | None = None,
) -> Iterator[EngineProfiler]:
    """Swap a live profiler in for the block, restoring on exit."""
    global _active
    if profiler is None:
        profiler = EngineProfiler()
    previous = _active
    _active = profiler
    try:
        yield profiler
    finally:
        _active = previous


__all__ = [
    "ENGINE_FAST_LANE",
    "ENGINE_SCALAR",
    "EngineProfiler",
    "NULL_PROFILER",
    "NullEngineProfiler",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "pow2_bucket",
    "scoped_profiling",
]
