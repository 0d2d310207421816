"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, run


class TestParser:
    def test_default_is_report(self):
        args = build_parser().parse_args([])
        assert args.exhibit == "report"
        assert args.fft == 64

    def test_exhibit_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig42"])

    def test_fft_option(self):
        args = build_parser().parse_args(["fig8", "--fft", "128"])
        assert args.fft == 128


class TestRun:
    def test_table2_contains_anchor_voltages(self):
        text = run(["table2"])
        assert "0.550" in text
        assert "0.331" in text
        assert "frequency" in text  # the 1.96 MHz binding column

    def test_table1_lists_all_designs(self):
        text = run(["table1"])
        for name in (
            "COTS-40nm", "CustomSRAM-40nm", "CellBased-65nm",
            "CellBased-imec-40nm",
        ):
            assert name in text

    def test_claims_quote_paper_values(self):
        text = run(["claims", "--fft", "16"])
        assert "paper: up to 3x" in text
        assert "paper: 3.3x" in text

    def test_fig8_renders_three_schemes(self):
        text = run(["fig8", "--fft", "16"])
        for scheme in ("none", "SECDED", "OCEAN"):
            assert scheme in text
        assert "OCEAN vs none" in text

    def test_campaign_runs_on_the_fast_lane(self):
        text = run([
            "campaign", "--fft", "16", "--vdd", "0.44", "--runs", "2",
            "--no-store", "--profile",
        ])
        # Every engine entry of every run is the fast lane; none fell
        # back to the scalar interpreter.
        assert re.search(r"runs: (\d+) \(fastlane=\1\)\n", text)

    def test_rejects_non_power_of_two_fft(self):
        with pytest.raises(SystemExit, match="power of two"):
            run(["fig8", "--fft", "100"])
