"""No-mitigation baseline.

Both memories store raw 32-bit words; every injected bit flip reaches
the core.  The possible outcomes map to the paper's "system failure at
any single bit error" semantics:

* a flipped data word silently corrupts the FFT output (the harness
  catches it against the golden model);
* a flipped instruction word either executes as a wrong-but-legal
  instruction or raises an illegal-instruction system failure;
* a corrupted loop variable can send the program into a runaway loop,
  caught by the execution limit.
"""

from __future__ import annotations

from repro.core.errors import validate_vdd
from repro.core.fit_solver import SCHEME_NONE
from repro.soc.energy_model import MemoryComponentSpec
from repro.soc.faults import VoltageFaultModel
from repro.soc.memory import FaultyMemory
from repro.soc.platform import Platform
from repro.soc.ports import RawPort
from repro.mitigation.base import SchemeRunner


class NoMitigationRunner(SchemeRunner):
    """Raw platform: what breaks, breaks."""

    name = "none"
    reliability = SCHEME_NONE

    def build_platform(self, vdd: float) -> Platform:
        vdd = validate_vdd(vdd, "none.build_platform")
        im = FaultyMemory(
            "IM",
            self.config.im_words,
            width=32,
            faults=VoltageFaultModel(
                self.access_model, 32, vdd, rng=self._rng(1)
            ),
        )
        sp = FaultyMemory(
            "SP",
            self.config.sp_words,
            width=32,
            faults=VoltageFaultModel(
                self.access_model, 32, vdd, rng=self._rng(2)
            ),
        )
        return Platform(
            im, RawPort(im), sp, RawPort(sp), fast_lane=self.fast_lane
        )

    def memory_specs(self) -> list[MemoryComponentSpec]:
        return [
            MemoryComponentSpec(
                name="IM", words=self.config.im_words, stored_bits=32
            ),
            MemoryComponentSpec(
                name="SP", words=self.config.sp_words, stored_bits=32
            ),
        ]
