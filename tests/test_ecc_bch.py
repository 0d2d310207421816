"""Tests for the shortened BCH codec (OCEAN's protected buffer)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import DecodeStatus
from repro.ecc.bch import BchCodec


@pytest.fixture(scope="module")
def codec():
    return BchCodec(data_bits=32, t=4)


class TestConstruction:
    def test_quadruple_corrector_geometry(self, codec):
        """BCH(63,39) t=4 shortened to (56,32): 24 check bits."""
        assert codec.data_bits == 32
        assert codec.code_bits == 56
        assert codec.check_bits == 24
        assert codec.shortened == 7

    def test_generator_degree_matches_check_bits(self, codec):
        assert codec.generator.bit_length() - 1 == 24

    def test_t1_is_hamming_sized(self):
        """t=1 BCH over GF(2^6) needs exactly 6 check bits."""
        assert BchCodec(data_bits=32, t=1).check_bits == 6

    def test_check_bits_grow_with_t(self):
        widths = [BchCodec(data_bits=32, t=t).check_bits for t in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(widths, widths[1:]))

    def test_rejects_oversized_payload(self):
        with pytest.raises(ValueError, match="dimension"):
            BchCodec(data_bits=40, t=4)

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            BchCodec(data_bits=32, t=0)


class TestEncode:
    def test_systematic(self, codec):
        """Data occupies the top bits of the codeword unchanged."""
        data = 0xCAFEBABE
        assert codec.encode(data) >> codec.check_bits == data

    def test_codeword_divisible_by_generator(self, codec):
        from repro.ecc.bch import _gf2_poly_mod

        rng = random.Random(0)
        for _ in range(100):
            codeword = codec.encode(rng.getrandbits(32))
            assert _gf2_poly_mod(codeword, codec.generator) == 0

    def test_rejects_oversized_data(self, codec):
        with pytest.raises(ValueError):
            codec.encode(1 << 32)

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_table_encode_matches_polynomial_division(self, t):
        """``encode`` gathers from the byte tables; the division in
        ``_encode_raw`` is the specification."""
        codec = BchCodec(data_bits=32, t=t)
        rng = random.Random(t)
        words = [0, 0xFFFFFFFF, 0x80000000, 1] + [
            rng.getrandbits(32) for _ in range(500)
        ]
        for data in words:
            assert codec.encode(data) == codec._encode_raw(data)

    def test_wide_codes_encode_without_tables(self):
        # Codewords past 64 bits have no tables; encode divides.
        codec = BchCodec(data_bits=60, t=2, m=7)
        assert codec._enc_rows is None
        data = (1 << 59) | 0x12345
        assert codec.encode(data) == codec._encode_raw(data)


class TestDecode:
    @given(data=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_clean_round_trip(self, data):
        codec = BchCodec(data_bits=32, t=4)
        result = codec.decode(codec.encode(data))
        assert result.status is DecodeStatus.CLEAN
        assert result.data == data

    @pytest.mark.parametrize("n_errors", [1, 2, 3, 4])
    def test_corrects_up_to_t_random_errors(self, codec, n_errors):
        rng = random.Random(n_errors)
        for _ in range(100):
            data = rng.getrandbits(32)
            corrupted = codec.encode(data)
            for position in rng.sample(range(codec.code_bits), n_errors):
                corrupted ^= 1 << position
            result = codec.decode(corrupted)
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_bits == n_errors

    def test_corrects_worst_case_burst(self, codec):
        """Four adjacent flips at every offset."""
        data = 0xA5A5A5A5
        codeword = codec.encode(data)
        for start in range(codec.code_bits - 3):
            result = codec.decode(codeword ^ (0b1111 << start))
            assert result.status is DecodeStatus.CORRECTED
            assert result.data == data

    @given(
        data=st.integers(min_value=0, max_value=2**32 - 1),
        positions=st.sets(
            st.integers(min_value=0, max_value=55), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_quadruple_correction_property(self, data, positions):
        codec = BchCodec(data_bits=32, t=4)
        corrupted = codec.encode(data)
        for position in positions:
            corrupted ^= 1 << position
        result = codec.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data

    def test_five_errors_never_silently_wrong_with_clean_status(self, codec):
        """Beyond-t patterns must end up DETECTED or (rarely) alias to a
        miscorrection; they must never decode CLEAN."""
        rng = random.Random(9)
        outcomes = {"detected": 0, "miscorrected": 0}
        for _ in range(200):
            data = rng.getrandbits(32)
            corrupted = codec.encode(data)
            for position in rng.sample(range(codec.code_bits), 5):
                corrupted ^= 1 << position
            result = codec.decode(corrupted)
            assert result.status is not DecodeStatus.CLEAN
            if result.status is DecodeStatus.DETECTED:
                outcomes["detected"] += 1
            else:
                outcomes["miscorrected"] += 1
        # A t=4 decoder flags the clear majority of 5-error patterns.
        assert outcomes["detected"] > outcomes["miscorrected"]

    def test_lower_t_variants_correct_their_t(self):
        rng = random.Random(4)
        for t in (1, 2, 3):
            codec = BchCodec(data_bits=32, t=t)
            for _ in range(50):
                data = rng.getrandbits(32)
                corrupted = codec.encode(data)
                for position in rng.sample(range(codec.code_bits), t):
                    corrupted ^= 1 << position
                result = codec.decode(corrupted)
                assert result.status is DecodeStatus.CORRECTED
                assert result.data == data
