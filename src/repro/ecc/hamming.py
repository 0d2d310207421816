"""(39,32) SECDED extended Hamming codec.

The paper's hardware ECC reference: "We use the (39, 32) SECDED code
implementation to cope with the memory word width" — 32 data bits, six
Hamming check bits and one overall parity bit.  Single errors are
corrected, double errors detected; a triple error aliases into a wrong
single-error correction or a miss, which is exactly why the FIT solver
treats three simultaneous bit errors as the scheme's failure point.

Construction: the classic extended Hamming layout.  Codeword positions
are numbered 1..38 with check bits at the power-of-two positions
(1, 2, 4, 8, 16, 32); the 32 data bits occupy the remaining positions;
bit 39 (index 38) is the overall parity of everything else.

The batch path works in GF(2) matrix form: the codec precomputes the
39-bit generator columns (one per data bit — the code is linear, so a
column is just the encoding of a one-hot word), the six parity-check
row masks, and a 256-entry syndrome lookup table mapping
``(overall parity, 6-bit syndrome)`` straight to the flip mask, status
and corrected-bit count of the scalar decision tree.  ``encode_batch``
and ``decode_batch`` are bit-exact with the scalar paths.
"""

from __future__ import annotations

import numpy as np

from repro.core.bitops import parity
from repro.ecc.base import (
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
)

_POSITIONS = 38  # Hamming part (positions 1..38)
_PARITY_POSITIONS = (1, 2, 4, 8, 16, 32)
_DATA_POSITIONS = tuple(
    pos for pos in range(1, _POSITIONS + 1) if pos not in _PARITY_POSITIONS
)
assert len(_DATA_POSITIONS) == 32

_U64 = np.uint64


def _parity(value: int) -> int:
    """Return the XOR of all bits of ``value``."""
    return parity(value)


class SecdedCodec(Codec):
    """Single-error-correcting, double-error-detecting (39,32) codec."""

    data_bits = 32
    code_bits = 39

    #: Class-level memo of the derived tables.  They are pure functions
    #: of the class constants, so every instance shares one (read-only)
    #: set — campaigns construct hundreds of codecs and the table
    #: build dominated their setup cost before this memo.
    _table_cache: dict[type, dict[str, np.ndarray]] = {}

    def __init__(self) -> None:
        tables = self._table_cache.get(type(self))
        if tables is None:
            tables = self._build_tables()
            self._table_cache[type(self)] = tables
        self.__dict__.update(tables)

    def _build_tables(self) -> dict[str, np.ndarray]:
        # Generator columns: encode() is linear over GF(2), so the
        # codeword of any data word is the XOR of the columns of its
        # set bits.
        self._columns = np.array(
            [self._encode_scalar(1 << i) for i in range(self.data_bits)],
            dtype=_U64,
        )
        # Parity-check row masks: syndrome bit j is the parity of the
        # Hamming positions whose 1-based position number has bit j set.
        masks = []
        for j in range(6):
            mask = 0
            for pos in range(1, _POSITIONS + 1):
                if (pos >> j) & 1:
                    mask |= 1 << (pos - 1)
            masks.append(mask)
        self._syndrome_masks = np.array(masks, dtype=_U64)
        # Byte-sliced kernels: one 256-entry table per input byte turns
        # the GF(2) matrix products into a handful of gathers per word.
        # Encoding is linear, so table k entry v is just the scalar
        # encoding (or syndrome / extraction) of ``v << 8k``.
        self._enc_byte_luts = np.array(
            [
                [self._encode_scalar((v << (8 * k)) & 0xFFFFFFFF)
                 for v in range(256)]
                for k in range(4)
            ],
            dtype=_U64,
        )
        self._ext_byte_luts = np.array(
            [
                [self._extract((v << (8 * k)) & ((1 << self.code_bits) - 1))
                 for v in range(256)]
                for k in range(5)
            ],
            dtype=_U64,
        )
        # Index tables: byte k of the codeword contributes
        # (parity << 6) ^ syndrome to the 7-bit LUT index by XOR.
        code_mask = (1 << self.code_bits) - 1
        index_luts = np.zeros((5, 256), dtype=np.uint8)
        for k in range(5):
            for v in range(256):
                part = (v << (8 * k)) & code_mask
                syndrome = 0
                remaining = part & ((1 << _POSITIONS) - 1)
                while remaining:
                    lsb = remaining & -remaining
                    syndrome ^= lsb.bit_length()
                    remaining ^= lsb
                index_luts[k, v] = (_parity(part) << 6) | syndrome
        self._index_byte_luts = index_luts
        # Syndrome LUT: index = (overall parity << 6) | syndrome.  Each
        # entry resolves the scalar decode decision tree in one lookup:
        # the codeword flip mask, the status code and the corrected-bit
        # count.
        self._flip_lut = np.zeros(256, dtype=_U64)
        self._status_lut = np.full(256, STATUS_DETECTED, dtype=np.uint8)
        self._corrected_lut = np.zeros(256, dtype=np.int64)
        for syndrome in range(64):
            for overall in (0, 1):
                index = (overall << 6) | syndrome
                if overall == 0 and syndrome == 0:
                    self._status_lut[index] = STATUS_CLEAN
                elif overall == 1 and syndrome == 0:
                    # The overall parity bit itself flipped.
                    self._flip_lut[index] = _U64(1) << _U64(self.code_bits - 1)
                    self._status_lut[index] = STATUS_CORRECTED
                    self._corrected_lut[index] = 1
                elif overall == 1 and 1 <= syndrome <= _POSITIONS:
                    self._flip_lut[index] = _U64(1) << _U64(syndrome - 1)
                    self._status_lut[index] = STATUS_CORRECTED
                    self._corrected_lut[index] = 1
                # Remaining cases (even parity with non-zero syndrome,
                # or a syndrome pointing past position 38) stay DETECTED.
        return {
            name: value
            for name, value in self.__dict__.items()
            if name.startswith("_")
        }

    # ------------------------------------------------------------------
    # Scalar path
    # ------------------------------------------------------------------
    @classmethod
    def _encode_scalar(cls, data: int) -> int:
        word = 0
        syndrome = 0
        for i, pos in enumerate(_DATA_POSITIONS):
            if (data >> i) & 1:
                word |= 1 << (pos - 1)
                syndrome ^= pos
        # Check bits sit at power-of-two positions, so each syndrome bit
        # is produced by exactly one check bit.
        for bit_index, pos in enumerate(_PARITY_POSITIONS):
            if (syndrome >> bit_index) & 1:
                word |= 1 << (pos - 1)
        # Overall parity over the 38 Hamming positions.
        if _parity(word):
            word |= 1 << (cls.code_bits - 1)
        return word

    def encode(self, data: int) -> int:
        """Encode a 32-bit word into a 39-bit SECDED codeword."""
        self._check_data(data)
        return self._encode_scalar(data)

    def decode(self, codeword: int) -> DecodeResult:
        """Decode a 39-bit codeword; correct 1 error, detect 2."""
        self._check_codeword(codeword)
        hamming_part = codeword & ((1 << _POSITIONS) - 1)
        syndrome = 0
        remaining = hamming_part
        while remaining:
            lsb = remaining & -remaining
            syndrome ^= lsb.bit_length()  # 1-based position number
            remaining ^= lsb
        overall = _parity(codeword)

        if syndrome == 0 and overall == 0:
            return DecodeResult(
                data=self._extract(codeword), status=DecodeStatus.CLEAN
            )
        if syndrome == 0 and overall == 1:
            # The overall parity bit itself flipped; data is intact.
            corrected = codeword ^ (1 << (self.code_bits - 1))
            return DecodeResult(
                data=self._extract(corrected),
                status=DecodeStatus.CORRECTED,
                corrected_bits=1,
            )
        if overall == 1:
            # Odd number of errors with a non-zero syndrome: take it as
            # a single error at the syndrome position if that position
            # exists; otherwise it must be multi-bit.
            if 1 <= syndrome <= _POSITIONS:
                corrected = codeword ^ (1 << (syndrome - 1))
                return DecodeResult(
                    data=self._extract(corrected),
                    status=DecodeStatus.CORRECTED,
                    corrected_bits=1,
                )
            return DecodeResult(
                data=self._extract(codeword), status=DecodeStatus.DETECTED
            )
        # Non-zero syndrome with even overall parity: double error.
        return DecodeResult(
            data=self._extract(codeword), status=DecodeStatus.DETECTED
        )

    @staticmethod
    def _extract(codeword: int) -> int:
        """Pull the 32 data bits out of their codeword positions."""
        data = 0
        for i, pos in enumerate(_DATA_POSITIONS):
            if (codeword >> (pos - 1)) & 1:
                data |= 1 << i
        return data

    # ------------------------------------------------------------------
    # Batch path (GF(2) matrix form)
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized encode: byte-sliced generator-matrix gathers."""
        words = self._as_word_array(words, self.data_bits, "data")
        return self._lut_gather(self._enc_byte_luts, words)

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        """Vectorized decode via byte-sliced parity checks + syndrome LUT."""
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        index = self._lut_gather(self._index_byte_luts, codewords).astype(
            np.intp
        )
        corrected_words = codewords ^ self._flip_lut[index]
        data = self._extract_batch(corrected_words)
        status = self._status_lut[index]
        self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data,
            status=status,
            corrected_bits=self._corrected_lut[index],
        )

    def _extract_batch(self, codewords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_extract` over a ``uint64`` array."""
        return self._lut_gather(self._ext_byte_luts, codewords)
