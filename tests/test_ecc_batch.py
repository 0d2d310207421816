"""Batch codec kernels must agree word-for-word with the scalar paths.

The vectorized ``encode_batch``/``decode_batch`` implementations are
pure reimplementations of the scalar codecs, so the contract is exact
equality: same codewords, same decoded data, same status per word —
over random inputs and over exhaustive small error patterns.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc import (
    BatchDecodeResult,
    BchCodec,
    ParityCodec,
    SecdedCodec,
    status_code,
)
from repro.ecc.base import Codec, DecodeStatus


def scalar_encode(codec, words):
    return np.array([codec.encode(int(w)) for w in words], dtype=np.uint64)


def scalar_decode(codec, codewords):
    results = [codec.decode(int(cw)) for cw in codewords]
    return (
        np.array([r.data for r in results], dtype=np.uint64),
        np.array([status_code(r.status) for r in results], dtype=np.uint8),
        np.array([r.corrected_bits for r in results], dtype=np.int64),
    )


def assert_batch_matches_scalar(codec, codewords):
    batch = codec.decode_batch(codewords)
    data, status, corrected = scalar_decode(codec, codewords)
    np.testing.assert_array_equal(batch.data, data)
    np.testing.assert_array_equal(batch.status, status)
    np.testing.assert_array_equal(batch.corrected_bits, corrected)


@pytest.fixture(scope="module", params=[SecdedCodec, BchCodec, ParityCodec])
def codec(request):
    return request.param()


class TestEncodeBatch:
    def test_matches_scalar_on_random_words(self, codec):
        rng = np.random.default_rng(1)
        words = rng.integers(
            0, 1 << codec.data_bits, size=4096, dtype=np.uint64
        )
        np.testing.assert_array_equal(
            codec.encode_batch(words), scalar_encode(codec, words)
        )

    def test_matches_scalar_on_boundary_words(self, codec):
        words = np.array(
            [0, 1, (1 << codec.data_bits) - 1, 0xDEADBEEF & ((1 << codec.data_bits) - 1)],
            dtype=np.uint64,
        )
        np.testing.assert_array_equal(
            codec.encode_batch(words), scalar_encode(codec, words)
        )

    def test_rejects_oversized_words(self, codec):
        with pytest.raises(ValueError):
            codec.encode_batch(np.array([1 << codec.data_bits], dtype=np.uint64))

    def test_accepts_plain_lists(self, codec):
        assert codec.encode_batch([0, 1, 2]).dtype == np.uint64

    @given(words=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=64
    ))
    @settings(max_examples=50, deadline=None)
    def test_property_matches_scalar(self, codec, words):
        arr = np.array(words, dtype=np.uint64)
        np.testing.assert_array_equal(
            codec.encode_batch(arr), scalar_encode(codec, arr)
        )


class TestDecodeBatch:
    def test_clean_round_trip(self, codec):
        rng = np.random.default_rng(2)
        words = rng.integers(
            0, 1 << codec.data_bits, size=2048, dtype=np.uint64
        )
        batch = codec.decode_batch(codec.encode_batch(words))
        np.testing.assert_array_equal(batch.data, words)
        assert bool(batch.ok.all())

    def test_matches_scalar_on_random_corruption(self, codec):
        rng = np.random.default_rng(3)
        words = rng.integers(
            0, 1 << codec.data_bits, size=2048, dtype=np.uint64
        )
        codewords = codec.encode_batch(words)
        # Flip 0..3 random bits per word — spans clean, correctable and
        # detected outcomes for every codec under test.
        n_flips = rng.integers(0, 4, size=codewords.size)
        for i, k in enumerate(n_flips):
            for bit in rng.choice(codec.code_bits, size=int(k), replace=False):
                codewords[i] ^= np.uint64(1) << np.uint64(bit)
        assert_batch_matches_scalar(codec, codewords)


class TestSecdedExhaustivePatterns:
    def test_all_single_and_double_error_patterns(self):
        """Every <= 2-bit pattern on one codeword, batch vs scalar."""
        codec = SecdedCodec()
        base = codec.encode(0xCAFEF00D)
        patterns = [0]
        patterns += [1 << i for i in range(39)]
        patterns += [
            (1 << i) | (1 << j)
            for i, j in itertools.combinations(range(39), 2)
        ]
        codewords = np.uint64(base) ^ np.array(patterns, dtype=np.uint64)
        assert_batch_matches_scalar(codec, codewords)

    def test_single_errors_on_many_random_words(self):
        codec = SecdedCodec()
        rng = np.random.default_rng(4)
        words = rng.integers(0, 1 << 32, size=500, dtype=np.uint64)
        codewords = codec.encode_batch(words)
        positions = rng.integers(0, 39, size=500).astype(np.uint64)
        batch = codec.decode_batch(codewords ^ (np.uint64(1) << positions))
        np.testing.assert_array_equal(batch.data, words)
        assert int(batch.corrected_bits.sum()) == 500


class TestBchPatterns:
    def test_patterns_up_to_correction_capability(self):
        codec = BchCodec()
        rng = np.random.default_rng(5)
        words = rng.integers(0, 1 << 32, size=64, dtype=np.uint64)
        codewords = codec.encode_batch(words)
        for k in range(1, codec.t + 1):
            corrupted = codewords.copy()
            for i in range(corrupted.size):
                for bit in rng.choice(codec.code_bits, size=k, replace=False):
                    corrupted[i] ^= np.uint64(1) << np.uint64(bit)
            batch = codec.decode_batch(corrupted)
            np.testing.assert_array_equal(batch.data, words, err_msg=f"k={k}")
            np.testing.assert_array_equal(batch.corrected_bits, k)


class TestBchTableMemo:
    TABLES = (
        "_enc_byte_luts", "_rem_byte_luts", "_syn_byte_luts",
        "_exp_np", "_log_np", "_chien_neg",
    )

    def test_codecs_share_read_only_tables(self):
        first, second = BchCodec(t=2), BchCodec(t=2)
        for name in self.TABLES:
            table = getattr(first, name)
            assert table is getattr(second, name)
            assert not table.flags.writeable
        with pytest.raises(ValueError):
            first._syn_byte_luts[0, 0] = 1
        assert BchCodec(t=4)._syn_byte_luts is not first._syn_byte_luts

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_memoised_batch_output_is_unchanged(self, t, monkeypatch):
        # An empty memo forces a fresh table build; the second codec is
        # then served from the memo.  Both must match the scalar codec.
        monkeypatch.setattr(BchCodec, "_table_cache", {})
        fresh = BchCodec(t=t)
        memoised = BchCodec(t=t)
        assert memoised._syn_byte_luts is fresh._syn_byte_luts
        rng = np.random.default_rng(6)
        words = rng.integers(0, 1 << 32, size=512, dtype=np.uint64)
        codewords = scalar_encode(fresh, words)
        np.testing.assert_array_equal(fresh.encode_batch(words), codewords)
        np.testing.assert_array_equal(memoised.encode_batch(words), codewords)
        n_flips = rng.integers(0, t + 2, size=codewords.size)
        for i, k in enumerate(n_flips):
            for bit in rng.choice(fresh.code_bits, size=int(k), replace=False):
                codewords[i] ^= np.uint64(1) << np.uint64(bit)
        assert_batch_matches_scalar(fresh, codewords)
        assert_batch_matches_scalar(memoised, codewords)


class TestBatchResultApi:
    def test_getitem_recovers_scalar_results(self):
        codec = SecdedCodec()
        codewords = codec.encode_batch(np.arange(8, dtype=np.uint64))
        batch = codec.decode_batch(codewords)
        assert len(batch) == 8
        single = batch[3]
        assert single.status is DecodeStatus.CLEAN
        assert single.data == 3

    def test_base_class_fallback_loops_are_used(self):
        """A codec that overrides nothing still gets working batch
        methods from the ``Codec`` base."""

        class IdentityCodec(Codec):
            name = "identity"
            data_bits = 8
            code_bits = 8

            def encode(self, data):
                self._check_data(data)
                return data

            def decode(self, codeword):
                self._check_codeword(codeword)
                from repro.ecc.base import DecodeResult
                return DecodeResult(
                    data=codeword, status=DecodeStatus.CLEAN, corrected_bits=0
                )

        codec = IdentityCodec()
        words = np.arange(16, dtype=np.uint64)
        np.testing.assert_array_equal(codec.encode_batch(words), words)
        batch = codec.decode_batch(words)
        assert isinstance(batch, BatchDecodeResult)
        np.testing.assert_array_equal(batch.data, words)
