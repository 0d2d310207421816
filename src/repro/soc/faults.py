"""Voltage-dependent fault engine.

Ties the platform memories to the Eq. 5 access-error models: every
read or write of a ``width``-bit stored word flips each stored bit with
the model's per-bit probability at the current supply voltage.  The
engine also exposes deterministic *forced* fault injection for directed
tests (flip exactly these bits on the next access), which the failure-
injection test-suite uses.

Sampling strategy: at moderate supply voltages the overwhelming
majority of accesses are fault free, so the engine does not draw a
Bernoulli per access.  Instead it samples the *gap to the next faulty
access* from the geometric distribution implied by the word-level fault
probability, and pre-generates the (conditional, non-zero) flip masks
of faulty accesses in vectorized blocks.  A fault-free access is a
counter decrement — O(1), no RNG call — while the flip statistics stay
exactly Bernoulli per access and per bit.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.core.access import AccessErrorModel
from repro.core.bitops import pack_bits_u64, popcount, popcount_u64
from repro.core.errors import validate_vdd
from repro.obs import active_metrics, active_tracer, names


class VoltageFaultModel:
    """Samples per-access bit-flip masks for one memory.

    Parameters
    ----------
    access_model:
        Eq. 5 power-law error model of the underlying macro.
    width:
        Stored word width in bits (32 raw, 39 under SECDED, 56 under
        the BCH-protected buffer) — more stored bits mean more targets,
        exactly the ECC overhead the paper accounts for.
    vdd:
        Initial supply voltage; mutable via :meth:`set_vdd` (the
        run-time control loop's knob).
    rng:
        Random generator.  Pass a seeded one for reproducibility; the
        default is an OS-seeded stream so that independent fault models
        never share a sequence by accident.
    """

    #: Conditional flip masks pre-generated per refill (vectorized).
    MASK_BLOCK = 64

    #: :meth:`clean_run_length` result when faults are impossible
    #: (``p_any == 0``): effectively infinite, still a safe int.
    UNBOUNDED = 1 << 62

    def __init__(
        self,
        access_model: AccessErrorModel,
        width: int,
        vdd: float,
        rng: np.random.Generator | None = None,
    ) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if width > 64:
            raise ValueError(f"width must be at most 64, got {width}")
        self.access_model = access_model
        self.width = width
        self.rng = rng if rng is not None else np.random.default_rng()  # repro: noqa[REP101] documented default: independent fault models must never share a stream; campaigns always pass seeded rngs
        self._forced: deque[int] = deque()
        self._mask_block: deque[int] = deque()
        self.injected_bits = 0
        self.injected_events = 0
        self.set_vdd(vdd)

    def set_vdd(self, vdd: float) -> None:
        """Move the supply; recomputes the cached per-bit probability.

        Raises :class:`~repro.core.errors.InvalidVoltageError` for a
        negative, NaN, infinite or non-numeric supply.
        """
        vdd = validate_vdd(vdd, "VoltageFaultModel.set_vdd")
        self._p_bit = self.access_model.bit_error_probability(vdd)
        # Probability that an access disturbs at least one stored bit.
        if self._p_bit > 0.0:
            self._p_any = float(
                -np.expm1(self.width * np.log1p(-self._p_bit))
            )
        else:
            self._p_any = 0.0
        # Cached gap, mask block and flip-count CDF belong to the old
        # voltage.
        self._gap: int | None = None
        self._mask_block.clear()
        self._cond_cdf: np.ndarray | None = None
        self.vdd = vdd

    @property
    def p_bit(self) -> float:
        return self._p_bit

    @property
    def p_any(self) -> float:
        """Probability that one access flips at least one stored bit."""
        return self._p_any

    def force_next(self, mask: int) -> None:
        """Queue a deterministic flip mask for the next access."""
        if mask < 0 or mask >> self.width:
            raise ValueError(
                f"mask must fit in {self.width} bits, got {mask:#x}"
            )
        self._forced.append(mask)

    def sample_mask(self) -> int:
        """Return the flip mask for one access (0 almost always)."""
        if self._forced:
            mask = self._forced.popleft()
        elif self._p_any == 0.0:
            return 0
        else:
            if self._gap is None:
                self._gap = int(self.rng.geometric(self._p_any)) - 1
            if self._gap > 0:
                self._gap -= 1
                return 0
            mask = self._draw_conditional_mask()
            self._gap = int(self.rng.geometric(self._p_any)) - 1
        if mask:
            # Telemetry on the fault path only: fault-free accesses
            # (the overwhelming majority) never touch the registry.
            bits = popcount(mask)
            self.injected_events += 1
            self.injected_bits += bits
            metrics = active_metrics()
            metrics.counter(names.FAULTS_INJECTED_EVENTS).inc()
            metrics.counter(names.FAULTS_INJECTED_BITS).inc(bits)
            active_tracer().event(
                names.EVENT_FAULT_INJECT,
                width=self.width,
                vdd=self.vdd,
                bits=bits,
                mask=mask,
            )
        return mask

    def clean_run_length(self) -> int:
        """How many upcoming accesses are guaranteed fault-free.

        Exposes the already-sampled geometric gap so a caller (the
        platform's fault-free fast lane) can run that many accesses
        against a plain-word view without consulting the model per
        access.  Drawing the lazy gap here is the *same* RNG call
        :meth:`sample_mask` would make on the next access, so the
        random stream stays bit-identical to per-access sampling —
        provided at least one more access actually occurs, which every
        caller guarantees by only asking when about to access.

        Returns 0 when a forced mask is queued (the next access must go
        through :meth:`sample_mask`), and :attr:`UNBOUNDED` when faults
        are impossible at the current voltage.
        """
        if self._forced:
            return 0
        if self._p_any == 0.0:
            return self.UNBOUNDED
        if self._gap is None:
            self._gap = int(self.rng.geometric(self._p_any)) - 1
        return self._gap

    def consume_clean(self, accesses: int) -> None:
        """Account ``accesses`` fault-free accesses taken off the gap.

        Equivalent to ``accesses`` calls of :meth:`sample_mask` that
        all returned 0 — a pure counter decrement, no RNG.  The caller
        must not consume more than :meth:`clean_run_length` granted.
        """
        if accesses < 0:
            raise ValueError(
                f"accesses must be non-negative, got {accesses}"
            )
        if accesses == 0:
            return
        if self._forced:
            raise RuntimeError(
                "cannot consume clean accesses past a forced fault"
            )
        if self._p_any == 0.0:
            return
        if self._gap is None or accesses > self._gap:
            raise RuntimeError(
                f"consume_clean({accesses}) exceeds the sampled clean "
                f"run ({self._gap})"
            )
        self._gap -= accesses

    def sample_masks(self, accesses: int) -> np.ndarray:
        """Return the flip masks of ``accesses`` consecutive accesses.

        Batch equivalent of calling :meth:`sample_mask` ``accesses``
        times: forced masks fire first, then faulty accesses land at
        geometrically distributed gaps with conditional non-zero masks.
        Fault-free stretches cost no RNG draws at all.
        """
        if accesses < 0:
            raise ValueError(f"accesses must be non-negative, got {accesses}")
        masks = np.zeros(accesses, dtype=np.uint64)
        start = 0
        while self._forced and start < accesses:
            masks[start] = self.sample_mask()
            start += 1
        if self._p_any == 0.0 or start >= accesses:
            return masks
        # Walk the geometric gaps over the remaining accesses.
        faulty_indices = []
        position = start
        if self._gap is None:
            self._gap = int(self.rng.geometric(self._p_any)) - 1
        while True:
            position += self._gap
            if position >= accesses:
                self._gap = position - accesses
                break
            faulty_indices.append(position)
            position += 1
            self._gap = int(self.rng.geometric(self._p_any)) - 1
        if faulty_indices:
            drawn = self._draw_conditional_masks(len(faulty_indices))
            masks[np.array(faulty_indices, dtype=np.intp)] = drawn
            bits = int(popcount_u64(drawn).sum())
            self.injected_events += len(faulty_indices)
            self.injected_bits += bits
            # One registry touch per batch call, not per access.
            metrics = active_metrics()
            metrics.counter(names.FAULTS_INJECTED_EVENTS).inc(
                len(faulty_indices)
            )
            metrics.counter(names.FAULTS_INJECTED_BITS).inc(bits)
            active_tracer().event(
                names.EVENT_FAULT_INJECT_BATCH,
                width=self.width,
                vdd=self.vdd,
                accesses=accesses,
                events=len(faulty_indices),
                bits=bits,
            )
        return masks

    # ------------------------------------------------------------------
    # Conditional mask generation (pre-generated in blocks)
    # ------------------------------------------------------------------
    def _draw_conditional_mask(self) -> int:
        if not self._mask_block:
            self._mask_block.extend(
                int(m) for m in self._draw_conditional_masks(self.MASK_BLOCK)
            )
        return self._mask_block.popleft()

    def _flip_count_cdf(self) -> np.ndarray:
        """CDF of the flip count K ~ Binomial(width, p_bit) | K >= 1."""
        if self._cond_cdf is None:
            p, w = self._p_bit, self.width
            pmf = np.array(
                [
                    math.comb(w, k) * p**k * (1.0 - p) ** (w - k)
                    for k in range(1, w + 1)
                ]
            )
            self._cond_cdf = np.cumsum(pmf / pmf.sum())
        return self._cond_cdf

    def _draw_conditional_masks(self, count: int) -> np.ndarray:
        """Draw ``count`` iid flip masks conditioned on >= 1 flip.

        Exact two-stage sampling: the flip count comes from the
        truncated binomial CDF, the flipped positions are a uniform
        k-subset (the k smallest of ``width`` uniforms per mask) — no
        rejection loop, so the cost is independent of how small
        ``p_bit`` is.
        """
        cdf = self._flip_count_cdf()
        ks = 1 + np.searchsorted(cdf, self.rng.random(count), side="right")
        np.clip(ks, 1, self.width, out=ks)
        u = self.rng.random((count, self.width))
        thresholds = np.sort(u, axis=1)[np.arange(count), ks - 1]
        flips = u <= thresholds[:, None]
        return pack_bits_u64(flips)
