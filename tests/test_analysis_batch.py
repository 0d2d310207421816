"""BatchCampaign: grid evaluation, RNG contracts and process fan-out."""

import numpy as np
import pytest

from repro.analysis.batch import AccessBerGrid, BatchCampaign
from repro.analysis.campaign import _campaign_fingerprint, run_campaign
from repro.core.access import (
    ACCESS_CELL_BASED_40NM,
    ACCESS_CELL_BASED_40NM_TYPICAL,
    ACCESS_COMMERCIAL_40NM,
)
from repro.core.retention import RETENTION_COMMERCIAL_40NM
from repro.memdev.die import DiePopulation
from repro.mitigation import SecdedRunner
from repro.workloads.fft import build_fft_program

VOLTAGES = np.linspace(0.30, 0.50, 7)


class TestAccessBerGrid:
    def test_vectorized_grid_is_bit_exact_vs_scalar(self):
        campaign = BatchCampaign(seed=5)
        fast = campaign.access_ber_grid(ACCESS_CELL_BASED_40NM, VOLTAGES, 3000)
        slow = campaign.access_ber_grid_scalar(
            ACCESS_CELL_BASED_40NM, VOLTAGES, 3000
        )
        np.testing.assert_array_equal(fast.errors, slow.errors)

    def test_grid_points_are_order_independent(self):
        """Each point has its own child stream, so a reordered grid
        returns reordered-but-identical counts."""
        campaign = BatchCampaign(seed=6)
        forward = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTAGES, 2000
        )
        # Same campaign, same voltages — deterministic replay.
        again = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTAGES, 2000
        )
        np.testing.assert_array_equal(forward.errors, again.errors)

    def test_rates_follow_the_model(self):
        campaign = BatchCampaign(seed=7)
        grid = campaign.access_ber_grid(
            ACCESS_CELL_BASED_40NM, VOLTAGES, 50_000
        )
        assert isinstance(grid, AccessBerGrid)
        # Low voltage must show clearly more errors than high voltage.
        assert grid.errors[0] > 10 * max(int(grid.errors[-1]), 1)
        assert grid.bits_per_point == 50_000 * 32

    def test_unseeded_campaign_gets_a_concrete_seed(self):
        campaign = BatchCampaign()
        assert isinstance(campaign.seed, int)
        replay = BatchCampaign(seed=campaign.seed)
        a = campaign.access_ber_grid(ACCESS_CELL_BASED_40NM, VOLTAGES, 500)
        b = replay.access_ber_grid(ACCESS_CELL_BASED_40NM, VOLTAGES, 500)
        np.testing.assert_array_equal(a.errors, b.errors)


class TestRetentionFailureCurve:
    VOLTS = np.linspace(0.4, 1.0, 9)

    def test_matches_die_population_bit_exactly(self):
        """BatchCampaign replays DiePopulation's exact RNG streams."""
        population = DiePopulation(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM,
            words=128, bits=32, n_dies=5, seed=2014,
        )
        expected = population.cumulative_failure_curve(self.VOLTS)
        curve = BatchCampaign(seed=2014).retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            n_dies=5, words=128, bits=32,
        )
        np.testing.assert_array_equal(curve, expected)

    def test_process_fanout_is_identical_to_serial(self):
        serial = BatchCampaign(seed=2014).retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            n_dies=4, words=64, bits=32,
        )
        fanned = BatchCampaign(seed=2014, processes=2).retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            n_dies=4, words=64, bits=32,
        )
        np.testing.assert_array_equal(serial, fanned)

    def test_curve_is_monotonically_non_increasing(self):
        curve = BatchCampaign(seed=3).retention_failure_curve(
            RETENTION_COMMERCIAL_40NM, ACCESS_COMMERCIAL_40NM, self.VOLTS,
            n_dies=3, words=64, bits=32,
        )
        assert np.all(np.diff(curve) <= 0.0)


@pytest.fixture(scope="module")
def fft_fixture():
    program = build_fft_program(64)
    golden = program.expected_output(list(program.data_words[:64]))
    return program, golden


class TestCampaignFanout:
    def test_parallel_campaign_matches_serial(self, fft_fixture):
        program, golden = fft_fixture
        kwargs = dict(
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM_TYPICAL,
            vdd=0.40,
            runs=4,
            seed_base=100,
            macro_style="cell-based",
        )
        serial = run_campaign(SecdedRunner, **kwargs)
        fanned = run_campaign(SecdedRunner, processes=2, **kwargs)
        assert serial.correct == fanned.correct
        assert serial.silent_corruption == fanned.silent_corruption
        assert serial.detected_failure == fanned.detected_failure
        assert serial.total_injected_bits == fanned.total_injected_bits
        assert serial.total_rollbacks == fanned.total_rollbacks
        assert serial.failures_by_kind == fanned.failures_by_kind

    @pytest.mark.parametrize("writer, reader", [(False, True), (True, False)])
    def test_journal_resumes_across_engines(
        self, fft_fixture, tmp_path, writer, reader
    ):
        # Engine choice is not part of the journal fingerprint: a
        # journal half-written on one engine finishes on the other.
        program, golden = fft_fixture
        kwargs = dict(
            workload=program.workload,
            golden=golden,
            access_model=ACCESS_CELL_BASED_40NM,
            vdd=0.44,
            runs=4,
            seed_base=100,
            macro_style="cell-based",
        )
        baseline = run_campaign(SecdedRunner, **kwargs)
        journal = str(tmp_path / "campaign.ndjson")
        run_campaign(
            SecdedRunner, journal=journal, fast_lane=writer,
            **{**kwargs, "runs": 2},
        )
        resumed = run_campaign(
            SecdedRunner, journal=journal, fast_lane=reader, **kwargs
        )
        assert resumed.resilience.resumed == 2
        assert resumed.resilience.executed == 2
        assert resumed == baseline

    def test_journal_fingerprint_keeps_v1_bytes(self):
        # A checkpoint journal resumes only under an identical
        # fingerprint, so its text is pinned: journals written by
        # earlier releases must keep resuming.
        assert _campaign_fingerprint(
            "SECDED", 0.44, 290e3, {"macro_style": "cell-based"}
        ) == (
            "campaign:v1:scheme=SECDED:vdd=0.44:frequency=290000.0:"
            "kwargs=macro_style='cell-based'"
        )
