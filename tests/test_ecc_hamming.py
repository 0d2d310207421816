"""Exhaustive and property tests for the (39,32) SECDED codec."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import DecodeStatus
from repro.ecc.gf2 import hamming_distance
from repro.ecc.hamming import SecdedCodec


@pytest.fixture(scope="module")
def codec():
    return SecdedCodec()


class TestShape:
    def test_paper_geometry(self, codec):
        assert codec.data_bits == 32
        assert codec.code_bits == 39
        assert codec.check_bits == 7

    def test_storage_overhead(self, codec):
        assert codec.storage_overhead == pytest.approx(7.0 / 32.0)


class TestEncode:
    def test_rejects_oversized_data(self, codec):
        with pytest.raises(ValueError):
            codec.encode(1 << 32)

    def test_rejects_negative_data(self, codec):
        with pytest.raises(ValueError):
            codec.encode(-1)

    def test_zero_encodes_to_zero(self, codec):
        assert codec.encode(0) == 0

    def test_encoding_is_injective_on_sample(self, codec):
        rng = random.Random(1)
        words = {rng.getrandbits(32) for _ in range(2000)}
        codewords = {codec.encode(w) for w in words}
        assert len(codewords) == len(words)

    def test_minimum_distance_is_four(self, codec):
        """SECDED requires d_min >= 4; check on a sample of pairs plus
        all single-data-bit differences."""
        rng = random.Random(2)
        base = codec.encode(0)
        for i in range(32):
            other = codec.encode(1 << i)
            assert hamming_distance(base, other) >= 4
        for _ in range(500):
            a, b = rng.getrandbits(32), rng.getrandbits(32)
            if a == b:
                continue
            assert hamming_distance(codec.encode(a), codec.encode(b)) >= 4


class TestDecode:
    def test_rejects_oversized_codeword(self, codec):
        with pytest.raises(ValueError):
            codec.decode(1 << 39)

    @given(data=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_clean_round_trip(self, data):
        codec = SecdedCodec()
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data
        assert result.corrected_bits == 0

    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        position=st.integers(min_value=0, max_value=38),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_single_error_corrected(self, data, position):
        codec = SecdedCodec()
        corrupted = codec.encode(data) ^ (1 << position)
        result = codec.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data
        assert result.corrected_bits == 1

    def test_all_39_single_error_positions_exhaustively(self, codec):
        data = 0xDEADBEEF
        codeword = codec.encode(data)
        for position in range(39):
            result = codec.decode(codeword ^ (1 << position))
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data

    def test_all_double_errors_detected_exhaustively(self, codec):
        """Every C(39,2) = 741 double-error pattern must be DETECTED,
        never miscorrected."""
        codeword = codec.encode(0x12345678)
        for i, j in itertools.combinations(range(39), 2):
            result = codec.decode(codeword ^ (1 << i) ^ (1 << j))
            assert result.status is DecodeStatus.DETECTED, (i, j)

    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        positions=st.sets(
            st.integers(min_value=0, max_value=38), min_size=2, max_size=2
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_double_errors_detected_property(self, data, positions):
        codec = SecdedCodec()
        corrupted = codec.encode(data)
        for position in positions:
            corrupted ^= 1 << position
        assert codec.decode(corrupted).status is DecodeStatus.DETECTED

    def test_triple_errors_are_the_failure_mode(self, codec):
        """Section V: 'a triple-bit error would lead to system failure'.
        Triple errors either miscorrect (silently wrong data) or alias;
        they are never flagged as simple CORRECTED-with-right-data."""
        rng = random.Random(3)
        miscorrections = 0
        trials = 300
        for _ in range(trials):
            data = rng.getrandbits(32)
            corrupted = codec.encode(data)
            for position in rng.sample(range(39), 3):
                corrupted ^= 1 << position
            result = codec.decode(corrupted)
            if result.status is DecodeStatus.CORRECTED and result.data != data:
                miscorrections += 1
        # The dominant outcome for triple errors is a wrong "correction".
        assert miscorrections > trials // 2


class TestTableDecodeMatchesReference:
    """``decode`` reads byte-sliced tables; the bit-loop decision tree
    ``_decode_reference`` is the specification it must reproduce."""

    @staticmethod
    def _assert_matches(codec, codeword):
        fixed, status, corrected_bits = codec._decode_reference(codeword)
        result = codec.decode(codeword)
        assert result.status is status
        assert result.corrected_bits == corrected_bits
        assert result.data == codec._extract(fixed)

    def test_every_syndrome_and_parity(self, codec):
        # All 128 table indices, on top of random data.
        rng = random.Random(7)
        for index in range(128):
            pattern = codec._codeword_with_index(index)
            for _ in range(8):
                self._assert_matches(
                    codec, codec.encode(rng.getrandbits(32)) ^ pattern
                )

    def test_all_single_and_double_errors(self, codec):
        codeword = codec.encode(0x9E3779B9)
        for count in (1, 2):
            for positions in itertools.combinations(range(39), count):
                corrupted = codeword
                for position in positions:
                    corrupted ^= 1 << position
                self._assert_matches(codec, corrupted)

    @given(codeword=st.integers(min_value=0, max_value=2**39 - 1))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_codewords(self, codec, codeword):
        self._assert_matches(codec, codeword)

    def test_rejects_oversized_codeword(self, codec):
        with pytest.raises(ValueError):
            codec.decode(1 << 39)
