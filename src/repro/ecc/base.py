"""Common codec interface.

All codecs in this package operate on non-negative Python integers
treated as little-endian bit vectors: data words of ``data_bits`` bits
are encoded into codewords of ``code_bits`` bits.  Integers keep the
simulator fast (XOR of a whole word is one operation) while staying
bit-exact.

Batch API: Monte-Carlo campaigns decode millions of words, so every
codec also exposes :meth:`Codec.encode_batch` / :meth:`Codec.decode_batch`
over ``uint64`` numpy arrays.  The base class provides a scalar
fallback (a loop over :meth:`Codec.encode` / :meth:`Codec.decode`);
:class:`repro.ecc.hamming.SecdedCodec` and
:class:`repro.ecc.bch.BchCodec` override them with GF(2) bit-matrix
kernels that are bit-exact with the scalar paths.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass

import numpy as np

from repro.obs import active_metrics, names


class DecodeStatus(enum.Enum):
    """Outcome classification of one decode."""

    #: Codeword was clean (no error detected).
    CLEAN = "clean"
    #: Errors were detected and corrected; data is trustworthy.
    CORRECTED = "corrected"
    #: Errors were detected but exceed the correction capability; data
    #: is NOT trustworthy (a recovery mechanism must step in).
    DETECTED = "detected"


#: Integer codes used by the batch decode path (uint8 status arrays).
STATUS_CLEAN = 0
STATUS_CORRECTED = 1
STATUS_DETECTED = 2

_STATUS_TO_CODE = {
    DecodeStatus.CLEAN: STATUS_CLEAN,
    DecodeStatus.CORRECTED: STATUS_CORRECTED,
    DecodeStatus.DETECTED: STATUS_DETECTED,
}
_CODE_TO_STATUS = {code: status for status, code in _STATUS_TO_CODE.items()}


def status_code(status: DecodeStatus) -> int:
    """Return the batch-path integer code of a :class:`DecodeStatus`."""
    return _STATUS_TO_CODE[status]


@dataclass(frozen=True)
class BatchDecodeResult:
    """Column-oriented result of decoding a batch of codewords.

    Attributes
    ----------
    data:
        ``uint64`` array of decoded data words (best effort where
        ``status`` is :data:`STATUS_DETECTED`).
    status:
        ``uint8`` array of :data:`STATUS_CLEAN` /
        :data:`STATUS_CORRECTED` / :data:`STATUS_DETECTED` codes.
    corrected_bits:
        ``int64`` array of per-word corrected-bit counts.
    """

    data: np.ndarray
    status: np.ndarray
    corrected_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.data)

    @property
    def ok(self) -> np.ndarray:
        """Boolean array: which decoded words can be trusted."""
        return self.status != STATUS_DETECTED

    def __getitem__(self, index: int) -> "DecodeResult":
        """Return element ``index`` as a scalar :class:`DecodeResult`."""
        return DecodeResult(
            data=int(self.data[index]),
            status=_CODE_TO_STATUS[int(self.status[index])],
            corrected_bits=int(self.corrected_bits[index]),
        )


@dataclass(frozen=True)
class DecodeResult:
    """Result of decoding one codeword.

    Attributes
    ----------
    data:
        The decoded data word (best effort when status is DETECTED).
    status:
        What the decoder concluded.
    corrected_bits:
        Number of bit positions the decoder flipped.
    """

    data: int
    status: DecodeStatus
    corrected_bits: int = 0

    @property
    def ok(self) -> bool:
        """Whether the decoded data can be trusted."""
        return self.status is not DecodeStatus.DETECTED


class Codec(abc.ABC):
    """Abstract block codec over integer bit vectors."""

    #: Number of payload bits per block.
    data_bits: int
    #: Number of stored bits per block (payload + check bits).
    code_bits: int

    @property
    def check_bits(self) -> int:
        """Number of redundant bits per block."""
        return self.code_bits - self.data_bits

    @property
    def storage_overhead(self) -> float:
        """Relative storage overhead, e.g. 7/32 for (39,32) SECDED."""
        return self.check_bits / self.data_bits

    def _lut_gather(self, luts: np.ndarray, words: np.ndarray) -> np.ndarray:
        """XOR-accumulate byte-sliced LUT gathers over ``words``.

        ``luts[k][b]`` is the table contribution of byte ``k`` of a
        word when that byte has value ``b`` — the shared shape of the
        generator-matrix, parity-check, extraction and syndrome tables
        of the fast codecs.
        """
        u64 = np.uint64
        out = np.empty(words.shape, dtype=luts.dtype)
        np.take(luts[0], (words & u64(0xFF)).astype(np.intp), out=out)
        for k in range(1, luts.shape[0]):
            byte = ((words >> u64(8 * k)) & u64(0xFF)).astype(np.intp)
            out ^= luts[k][byte]
        return out

    @abc.abstractmethod
    def encode(self, data: int) -> int:
        """Encode ``data`` (must fit in ``data_bits``) into a codeword."""

    @abc.abstractmethod
    def decode(self, codeword: int) -> DecodeResult:
        """Decode ``codeword`` (must fit in ``code_bits``)."""

    # ------------------------------------------------------------------
    # Batch API (vectorized campaigns)
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Encode an array of data words into an array of codewords.

        The base implementation is a scalar fallback; fast codecs
        override it.  Both are bit-exact with :meth:`encode`.
        """
        words = self._as_word_array(words, self.data_bits, "data")
        out = np.empty(words.shape, dtype=np.uint64)
        for i, word in enumerate(words):
            out[i] = self.encode(int(word))
        return out

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        """Decode an array of codewords; bit-exact with :meth:`decode`."""
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        n = codewords.shape[0]
        data = np.empty(n, dtype=np.uint64)
        status = np.empty(n, dtype=np.uint8)
        corrected = np.empty(n, dtype=np.int64)
        for i, codeword in enumerate(codewords):
            result = self.decode(int(codeword))
            data[i] = result.data
            status[i] = status_code(result.status)
            corrected[i] = result.corrected_bits
        self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data, status=status, corrected_bits=corrected
        )

    def record_decode_outcomes(self, status: np.ndarray) -> None:
        """Publish clean/corrected/detected counts of one batch decode.

        One registry touch per *batch* (never per word), so the hot
        kernels stay at full speed with telemetry disabled and pay a
        constant overhead with it enabled.  A ``miscorrected`` counter
        is published by harnesses that know the ground truth (a decoder
        alone cannot).
        """
        metrics = active_metrics()
        if not metrics.enabled:
            return
        name = type(self).__name__
        clean = int(np.count_nonzero(status == STATUS_CLEAN))
        corrected = int(np.count_nonzero(status == STATUS_CORRECTED))
        detected = int(np.count_nonzero(status == STATUS_DETECTED))
        metrics.counter(names.ecc_metric(name, "decoded_words")).inc(
            status.size
        )
        metrics.counter(names.ecc_metric(name, "clean")).inc(clean)
        metrics.counter(names.ecc_metric(name, "corrected")).inc(corrected)
        metrics.counter(names.ecc_metric(name, "detected")).inc(detected)

    # ------------------------------------------------------------------
    # Shared validation helpers
    # ------------------------------------------------------------------
    def _as_word_array(
        self, values: np.ndarray, width: int, label: str
    ) -> np.ndarray:
        """Validate and coerce a batch input to a 1-D ``uint64`` array."""
        if width > 64:
            raise ValueError(
                f"batch API supports at most 64 {label} bits, "
                f"this codec has {width}"
            )
        arr = np.ascontiguousarray(values, dtype=np.uint64)
        if arr.ndim != 1:
            raise ValueError(
                f"expected a 1-D array of {label} words, got shape "
                f"{arr.shape}"
            )
        if width < 64 and bool((arr >> np.uint64(width)).any()):
            raise ValueError(f"every {label} must fit in {width} bits")
        return arr

    def _check_data(self, data: int) -> None:
        if data < 0 or data >> self.data_bits:
            raise ValueError(
                f"data must fit in {self.data_bits} bits, got {data:#x}"
            )

    def _check_codeword(self, codeword: int) -> None:
        if codeword < 0 or codeword >> self.code_bits:
            raise ValueError(
                f"codeword must fit in {self.code_bits} bits, "
                f"got {codeword:#x}"
            )
