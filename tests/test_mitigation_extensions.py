"""Tests for the extension features: DECTED, DMA checkpoints."""

import pytest

from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
)
from repro.core.fit_solver import (
    SCHEME_NONE,
    SCHEME_OCEAN,
    SCHEME_SECDED,
    minimum_voltage,
)
from repro.ecc.bch import BchCodec
from repro.mitigation import (
    SCHEME_DECTED,
    DectedRunner,
    OceanRunner,
)
from repro.soc.dma import DmaEngine
from repro.soc.memory import FaultyMemory
from repro.soc.ports import CodecPort, RawPort
from repro.ecc.hamming import SecdedCodec
from repro.ecc.wrapper import UncorrectableError
from repro.workloads.fft import build_fft_program


@pytest.fixture(scope="module")
def program():
    return build_fft_program(64)


@pytest.fixture(scope="module")
def golden(program):
    return program.expected_output(list(program.data_words[:64]))


class TestDected:
    def test_geometry_matches_bch_t2(self):
        codec = BchCodec(data_bits=32, t=2)
        assert codec.code_bits == SCHEME_DECTED.word_bits == 44
        assert SCHEME_DECTED.fail_threshold == 4

    def test_vmin_sits_between_secded_and_ocean(self):
        """The ECC ladder: each correction rung buys voltage."""
        v_none = minimum_voltage(ACCESS_CELL_BASED_40NM, SCHEME_NONE).vdd
        v_sec = minimum_voltage(ACCESS_CELL_BASED_40NM, SCHEME_SECDED).vdd
        v_dec = minimum_voltage(ACCESS_CELL_BASED_40NM, SCHEME_DECTED).vdd
        v_oce = minimum_voltage(ACCESS_CELL_BASED_40NM, SCHEME_OCEAN).vdd
        assert v_none > v_sec > v_dec > v_oce

    def test_corrects_through_faults(self, program, golden):
        for seed in range(3):
            outcome = DectedRunner(ACCESS_CELL_BASED_40NM, seed=seed).run(
                program.workload, vdd=0.39, frequency=290e3
            )
            assert outcome.output_matches(golden)

    def test_survives_forced_double_error(self, program, golden):
        """A double flip in one word kills SECDED but not DECTED."""
        runner = DectedRunner(ACCESS_CELL_BASED_40NM, seed=0)
        platform = runner.build_platform(vdd=0.60)
        platform.load_program(list(program.workload.program_words))
        platform.load_data(list(program.data_words))
        platform.sp.faults.force_next(0b11)  # double error on first access
        completed, failure, _, _ = runner.execute(
            platform, program.workload
        )
        assert completed
        assert failure is None

    @pytest.mark.parametrize("vdd", [0.38, 0.42])
    def test_honours_fast_lane_bit_exactly(self, program, vdd):
        """DECTED runs the engine it is asked for, and both agree."""
        outcomes = {}
        for fast_lane in (False, True):
            runner = DectedRunner(
                ACCESS_CELL_BASED_40NM, seed=5, fast_lane=fast_lane
            )
            outcomes[fast_lane] = runner.run(
                program.workload, vdd=vdd, frequency=290e3
            )
            platform = runner.last_platform
            assert platform.fast_lane is fast_lane
            assert (platform._fast_engine is not None) is fast_lane
        reference, fast = outcomes[False], outcomes[True]
        assert sum(reference.sim.injected_bits.values()) > 0
        assert fast.sim == reference.sim
        assert fast.output == reference.output
        assert (fast.completed, fast.failure) == (
            reference.completed, reference.failure
        )

    def test_storage_overhead_ladder(self):
        """7 -> 12 -> 24 check bits for SECDED -> DECTED -> BCH t=4."""
        assert SecdedCodec().check_bits == 7
        assert BchCodec(data_bits=32, t=2).check_bits == 12
        assert BchCodec(data_bits=32, t=4).check_bits == 24


class TestDmaEngine:
    def test_transfer_copies_words(self):
        src = RawPort(FaultyMemory("A", 32, 32))
        dst = RawPort(FaultyMemory("B", 32, 32))
        src.load(list(range(10)))
        engine = DmaEngine()
        cycles = engine.transfer(src, 0, dst, 0, 10)
        assert [dst.peek(i) for i in range(10)] == list(range(10))
        assert cycles == 8 + 2 * 10
        assert engine.stats.words_moved == 10

    def test_two_phase_commit_on_detected_error(self):
        """A detected error while reading leaves the destination clean."""
        memory = FaultyMemory("A", 8, 39)
        src = CodecPort(memory, SecdedCodec())
        dst = RawPort(FaultyMemory("B", 8, 32))
        src.load([10, 20, 30, 40])
        dst.load([91, 92, 93, 94])
        memory.poke(2, memory.peek(2) ^ 0b101)  # uncorrectable double
        engine = DmaEngine()
        with pytest.raises(UncorrectableError):
            engine.transfer(src, 0, dst, 0, 4)
        assert [dst.peek(i) for i in range(4)] == [91, 92, 93, 94]

    def test_validation(self):
        with pytest.raises(ValueError):
            DmaEngine(cycles_per_word=0)
        with pytest.raises(ValueError):
            DmaEngine(setup_cycles=-1)
        engine = DmaEngine()
        src = RawPort(FaultyMemory("A", 8, 32))
        with pytest.raises(ValueError):
            engine.transfer(src, 0, src, 0, 0)


class TestOceanWithDma:
    def test_dma_cuts_checkpoint_overhead(self, program, golden):
        sw = OceanRunner(
            ACCESS_CELL_BASED_40NM_TYPICAL, seed=2, use_dma=False
        ).run(program.workload, 0.33, 290e3)
        dma = OceanRunner(
            ACCESS_CELL_BASED_40NM_TYPICAL, seed=2, use_dma=True
        ).run(program.workload, 0.33, 290e3)
        assert sw.output_matches(golden)
        assert dma.output_matches(golden)
        assert dma.sim.overhead_cycles < 0.3 * sw.sim.overhead_cycles

    def test_dma_rollback_still_works(self, program, golden):
        outcome = OceanRunner(
            ACCESS_CELL_BASED_40NM, seed=5, use_dma=True
        ).run(program.workload, 0.38, 290e3)
        assert outcome.output_matches(golden)
