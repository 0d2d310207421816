"""Shortened binary BCH codec with configurable correction strength.

OCEAN stores its checkpoints in an "error-protected buffer, with
quadruple error correction capability" (Section V).  The natural code
for 32-bit words and t = 4 is the binary BCH(63, 39) code over GF(2^6)
shortened by 7 positions to (56, 32): 32 data bits, 24 check bits,
corrects any 4 bit errors per word.

Everything is computed, not table-pasted: the generator polynomial is
the LCM of the minimal polynomials of alpha^1 .. alpha^2t, decoding
runs syndrome computation, Berlekamp-Massey and a Chien search.  The
same class also provides t = 1..3 variants for the ablation benches.
"""

from __future__ import annotations

import numpy as np

from repro.ecc.base import (
    BatchDecodeResult,
    Codec,
    DecodeResult,
    DecodeStatus,
    STATUS_CLEAN,
    status_code,
)
from repro.ecc.gf2m import GF2m, get_field


def _poly_to_int(poly: list[int]) -> int:
    """Pack a 0/1 coefficient list (lowest first) into an integer."""
    value = 0
    for i, coeff in enumerate(poly):
        if coeff:
            value |= 1 << i
    return value


def _gf2_poly_mod(dividend: int, divisor: int) -> int:
    """Return ``dividend mod divisor`` as GF(2) polynomials in ints."""
    divisor_degree = divisor.bit_length() - 1
    while dividend.bit_length() - 1 >= divisor_degree and dividend:
        shift = (dividend.bit_length() - 1) - divisor_degree
        dividend ^= divisor << shift
    return dividend


def _gf2_poly_lcm_product(polys: list[int]) -> int:
    """Return the product of a de-duplicated set of GF(2) polynomials.

    Minimal polynomials of distinct conjugacy classes are coprime, so
    the LCM is the product of the distinct ones.
    """
    result = 1
    for poly in dict.fromkeys(polys):  # preserves order, drops repeats
        # Multiply result * poly over GF(2).
        product = 0
        temp = result
        position = 0
        while temp:
            if temp & 1:
                product ^= poly << position
            temp >>= 1
            position += 1
        result = product
    return result


class BchCodec(Codec):
    """Shortened binary BCH codec.

    Parameters
    ----------
    data_bits:
        Payload width; the paper's buffer protects 32-bit words.
    t:
        Number of correctable bit errors per word (4 for OCEAN's
        buffer).
    m:
        Field degree; the code length before shortening is 2^m - 1.
        The default 6 (n = 63) fits 32 data bits for every t <= 4.
    """

    #: Class-level memo of the batch tables, keyed by ``(data_bits, t,
    #: m)``.  They are pure functions of the code, so every instance
    #: shares one read-only set: each OCEAN and DECTED runner builds
    #: fresh codecs, and one table build costs tens of milliseconds.
    _table_cache: dict[
        tuple[int, int, int], dict[str, np.ndarray | tuple | None]
    ] = {}

    def __init__(self, data_bits: int = 32, t: int = 4, m: int = 6) -> None:
        if t < 1:
            raise ValueError(f"t must be at least 1, got {t}")
        if data_bits <= 0:
            raise ValueError(f"data_bits must be positive, got {data_bits}")
        self.field: GF2m = get_field(m)
        self.n_full = (1 << m) - 1
        self.t = t
        minimal_polys = [
            _poly_to_int(self.field.minimal_polynomial(self.field.alpha_pow(i)))
            for i in range(1, 2 * t + 1)
        ]
        self.generator = _gf2_poly_lcm_product(minimal_polys)
        self.n_check = self.generator.bit_length() - 1
        k_full = self.n_full - self.n_check
        if data_bits > k_full:
            raise ValueError(
                f"data_bits={data_bits} exceeds the code dimension "
                f"k={k_full} of BCH({self.n_full}, {k_full}) with t={t}"
            )
        self.data_bits = data_bits
        self.code_bits = data_bits + self.n_check
        #: Number of (implicitly zero) shortened positions.
        self.shortened = self.n_full - self.code_bits
        key = (data_bits, t, m)
        tables = self._table_cache.get(key)
        if tables is None:
            tables = self._build_batch_tables()
            self._table_cache[key] = tables
        self.__dict__.update(tables)

    def _build_batch_tables(self) -> dict[str, np.ndarray | tuple | None]:
        """Precompute the GF(2) matrix form of the code.

        * generator columns — encoding is linear, so the codeword of any
          data word is the XOR of per-bit columns; folded into
          byte-sliced 256-entry tables for the batch encoder;
        * parity-check remainders — ``x^p mod g(x)`` per codeword
          position, folded into byte-sliced tables whose XOR is the
          division remainder of the received word: zero iff the word is
          a codeword.  The batch decoder uses this as an O(1) clean
          screen and only runs the scalar Berlekamp-Massey machinery on
          the (rare) dirty words.

        Returns the tables by attribute name, every array read-only.
        """
        tables: dict[str, np.ndarray | tuple | None] = {
            "_enc_byte_luts": None,
            "_enc_rows": None,
            "_rem_byte_luts": None,
            "_syn_byte_luts": None,
        }
        if self.data_bits > 64 or self.code_bits > 64:
            return tables
        n_data_bytes = (self.data_bits + 7) // 8
        data_mask = (1 << self.data_bits) - 1
        tables["_enc_byte_luts"] = np.array(
            [
                [self._encode_raw((v << (8 * k)) & data_mask)
                 for v in range(256)]
                for k in range(n_data_bytes)
            ],
            dtype=np.uint64,
        )
        # The scalar encoder gathers from the same table, held as
        # tuples of Python ints.
        tables["_enc_rows"] = tuple(
            tuple(int(v) for v in row) for row in tables["_enc_byte_luts"]
        )
        n_code_bytes = (self.code_bits + 7) // 8
        code_mask = (1 << self.code_bits) - 1
        tables["_rem_byte_luts"] = np.array(
            [
                [_gf2_poly_mod((v << (8 * k)) & code_mask, self.generator)
                 for v in range(256)]
                for k in range(n_code_bytes)
            ],
            dtype=np.uint64,
        )
        # Packed-syndrome tables: syndrome computation is GF(2)-linear
        # in the received bits and each of the 2t syndromes fits in m
        # bits, so all of them pack into one uint64 lane (when
        # 2*t*m <= 64) and the whole syndrome vector of a word is the
        # XOR of per-byte table entries.  All-zero packed syndromes is
        # exactly the CLEAN condition, and the dirty words arrive at
        # Berlekamp-Massey with their syndromes already computed.
        if 2 * self.t * self.field.m <= 64:
            m = self.field.m
            syn_luts = np.zeros((n_code_bytes, 256), dtype=np.uint64)
            for k in range(n_code_bytes):
                for v in range(256):
                    part = (v << (8 * k)) & code_mask
                    packed = 0
                    for j, syndrome in enumerate(self._syndromes(part)):
                        packed |= syndrome << (j * m)
                    syn_luts[k, v] = packed
            tables["_syn_byte_luts"] = syn_luts
            size = self.field.order - 1
            tables["_exp_np"] = np.array(self.field.exp, dtype=np.uint64)
            tables["_log_np"] = np.array(self.field.log, dtype=np.int64)
            # Chien exponent rows: locator(alpha^{-p}) sums
            # coef_k * alpha^{-p*k}; row k holds (-p*k) mod (2^m - 1)
            # for every position p, so one doubled-exp gather per
            # locator coefficient evaluates all positions at once.
            tables["_chien_neg"] = np.array(
                [
                    [(-position * k) % size for position in range(self.n_full)]
                    for k in range(self.t + 2)
                ],
                dtype=np.int64,
            )
        for array in tables.values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False
        return tables

    def _encode_raw(self, data: int) -> int:
        """Systematic encode without the range check (LUT construction)."""
        shifted = data << self.n_check
        return shifted | _gf2_poly_mod(shifted, self.generator)

    def encode(self, data: int) -> int:
        """Systematic encode: codeword = data * x^r + remainder.

        One byte-sliced generator-table gather per data byte (the
        polynomial division of :meth:`_encode_raw` built the table).
        """
        self._check_data(data)
        rows = self._enc_rows
        if rows is None:
            return self._encode_raw(data)
        codeword = 0
        for row in rows:
            codeword ^= row[data & 0xFF]
            data >>= 8
        return codeword

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------
    def encode_batch(self, words: np.ndarray) -> np.ndarray:
        """Vectorized encode: byte-sliced generator-matrix gathers."""
        if self._enc_byte_luts is None:
            return super().encode_batch(words)
        words = self._as_word_array(words, self.data_bits, "data")
        return self._lut_gather(self._enc_byte_luts, words)

    def decode_batch(self, codewords: np.ndarray) -> BatchDecodeResult:
        """Vectorized clean screen + batched decode of the dirty words.

        At moderate supply voltages almost every stored word is error
        free; those are identified with a handful of gathers (the
        packed syndrome vector of the received polynomial) and returned
        CLEAN without touching the Berlekamp-Massey decoder at all.
        The dirty words then share one numpy Chien search: syndromes
        come pre-unpacked from the screen, Berlekamp-Massey stays a
        (short) scalar recurrence per word, and locator evaluation over
        all 2^m - 1 positions — the former hot loop — is a gather and
        XOR per locator coefficient across the whole dirty set.  The
        decision sequence replicates :meth:`decode` exactly.
        """
        if self._rem_byte_luts is None:
            return super().decode_batch(codewords)
        codewords = self._as_word_array(codewords, self.code_bits, "codeword")
        if self._syn_byte_luts is None:
            return self._decode_batch_scalar_dirty(codewords)
        u64 = np.uint64
        packed = self._lut_gather(self._syn_byte_luts, codewords)
        data = codewords >> u64(self.n_check)
        status = np.full(codewords.shape, STATUS_CLEAN, dtype=np.uint8)
        corrected = np.zeros(codewords.shape, dtype=np.int64)
        dirty = np.nonzero(packed)[0]
        if dirty.size:
            self._decode_dirty(
                codewords, packed, dirty, data, status, corrected
            )
        self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data, status=status, corrected_bits=corrected
        )

    def _decode_batch_scalar_dirty(
        self, codewords: np.ndarray
    ) -> BatchDecodeResult:
        """Remainder screen + scalar dirty decode (syndromes too wide
        to pack into a uint64 lane)."""
        u64 = np.uint64
        remainder = self._lut_gather(self._rem_byte_luts, codewords)
        data = codewords >> u64(self.n_check)
        status = np.full(codewords.shape, STATUS_CLEAN, dtype=np.uint8)
        corrected = np.zeros(codewords.shape, dtype=np.int64)
        dirty = np.nonzero(remainder)[0]
        for i in dirty:
            result = self.decode(int(codewords[i]))
            data[i] = result.data
            status[i] = status_code(result.status)
            corrected[i] = result.corrected_bits
        self.record_decode_outcomes(status)
        return BatchDecodeResult(
            data=data, status=status, corrected_bits=corrected
        )

    def _decode_dirty(
        self,
        codewords: np.ndarray,
        packed: np.ndarray,
        dirty: np.ndarray,
        data: np.ndarray,
        status: np.ndarray,
        corrected: np.ndarray,
    ) -> None:
        """Decode the dirty subset in place, Chien-searching as a batch."""
        m = self.field.m
        syn_mask = (1 << m) - 1
        detected = status_code(DecodeStatus.DETECTED)
        corrected_code = status_code(DecodeStatus.CORRECTED)
        # Berlekamp-Massey per dirty word (short scalar recurrence on
        # already-computed syndromes); collect the survivors for the
        # batched Chien search.
        candidates = []  # (batch index, codeword, locator, degree)
        for i in dirty:
            word_syndromes = [
                (int(packed[i]) >> (j * m)) & syn_mask
                for j in range(2 * self.t)
            ]
            locator, degree = self._berlekamp_massey(word_syndromes)
            if degree > self.t or degree != len(locator) - 1:
                status[i] = detected
                continue
            candidates.append((int(i), int(codewords[i]), locator, degree))
        if not candidates:
            return
        # Chien search, all candidates at once: evaluate each locator
        # at alpha^{-p} for every position p with one doubled-exp
        # gather per coefficient order (locator[0] is always 1).
        n_cand = len(candidates)
        max_len = max(len(cand[2]) for cand in candidates)
        coeffs = np.zeros((max_len, n_cand), dtype=np.int64)
        for c, (_, _, locator, _) in enumerate(candidates):
            coeffs[: len(locator), c] = locator
        acc = np.ones((n_cand, self.n_full), dtype=np.uint64)
        for k in range(1, max_len):
            coef = coeffs[k]
            nonzero = coef != 0
            if not nonzero.any():
                continue
            logs = np.where(nonzero, self._log_np[coef], 0)
            term = self._exp_np[logs[:, None] + self._chien_neg[k][None, :]]
            acc ^= np.where(nonzero[:, None], term, np.uint64(0))
        # Scalar postlude per candidate: the same decision sequence as
        # decode(), with the corrected word re-verified through the
        # packed-syndrome tables.
        for c, (i, codeword, _, degree) in enumerate(candidates):
            positions = np.nonzero(acc[c] == 0)[0]
            if positions.size != degree or bool(
                (positions >= self.code_bits).any()
            ):
                status[i] = detected
                continue
            fixed = codeword
            for position in positions:
                fixed ^= 1 << int(position)
            verify = 0
            for k in range(self._syn_byte_luts.shape[0]):
                verify ^= int(self._syn_byte_luts[k][(fixed >> (8 * k)) & 0xFF])
            if verify:
                status[i] = detected
                continue
            data[i] = fixed >> self.n_check
            status[i] = corrected_code
            corrected[i] = int(positions.size)

    def decode(self, codeword: int) -> DecodeResult:
        """Syndrome / Berlekamp-Massey / Chien decode."""
        self._check_codeword(codeword)
        syndromes = self._syndromes(codeword)
        if not any(syndromes):
            return DecodeResult(
                data=codeword >> self.n_check, status=DecodeStatus.CLEAN
            )
        locator, degree = self._berlekamp_massey(syndromes)
        if degree > self.t or degree != len(
            GF2m.poly_trim(locator)
        ) - 1:
            return DecodeResult(
                data=codeword >> self.n_check, status=DecodeStatus.DETECTED
            )
        error_positions = self._chien_search(locator)
        if len(error_positions) != degree:
            return DecodeResult(
                data=codeword >> self.n_check, status=DecodeStatus.DETECTED
            )
        corrected = codeword
        for position in error_positions:
            if position >= self.code_bits:
                # Error "located" in the shortened always-zero region:
                # the true pattern exceeded the correction capability.
                return DecodeResult(
                    data=codeword >> self.n_check,
                    status=DecodeStatus.DETECTED,
                )
            corrected ^= 1 << position
        if any(self._syndromes(corrected)):
            return DecodeResult(
                data=codeword >> self.n_check, status=DecodeStatus.DETECTED
            )
        return DecodeResult(
            data=corrected >> self.n_check,
            status=DecodeStatus.CORRECTED,
            corrected_bits=len(error_positions),
        )

    # ------------------------------------------------------------------
    # Decoder stages
    # ------------------------------------------------------------------
    def _syndromes(self, codeword: int) -> list[int]:
        """Evaluate the received polynomial at alpha^1 .. alpha^2t."""
        field = self.field
        set_positions = []
        remaining = codeword
        while remaining:
            lsb = remaining & -remaining
            set_positions.append(lsb.bit_length() - 1)
            remaining ^= lsb
        syndromes = []
        for j in range(1, 2 * self.t + 1):
            value = 0
            for position in set_positions:
                value ^= field.alpha_pow(position * j)
            syndromes.append(value)
        return syndromes

    def _berlekamp_massey(
        self, syndromes: list[int]
    ) -> tuple[list[int], int]:
        """Return (error locator polynomial, register length L)."""
        field = self.field
        locator = [1]
        previous = [1]
        length = 0
        shift = 1
        prev_discrepancy = 1
        for n, syndrome in enumerate(syndromes):
            discrepancy = syndrome
            for i in range(1, length + 1):
                if i < len(locator) and locator[i]:
                    discrepancy ^= field.mul(locator[i], syndromes[n - i])
            if discrepancy == 0:
                shift += 1
                continue
            coefficient = field.div(discrepancy, prev_discrepancy)
            needed = len(previous) + shift
            if needed > len(locator):
                locator = locator + [0] * (needed - len(locator))
            updated = locator.copy()
            for i, prev_coeff in enumerate(previous):
                if prev_coeff:
                    updated[i + shift] ^= field.mul(coefficient, prev_coeff)
            if 2 * length <= n:
                previous = locator
                prev_discrepancy = discrepancy
                length = n + 1 - length
                shift = 1
            else:
                shift += 1
            locator = updated
        return GF2m.poly_trim(locator), length

    def _chien_search(self, locator: list[int]) -> list[int]:
        """Return bit positions whose locators are roots of ``locator``.

        Position p is in error iff locator(alpha^{-p}) == 0.
        """
        field = self.field
        positions = []
        for position in range(self.n_full):
            x = field.alpha_pow(-position)
            if field.poly_eval(locator, x) == 0:
                positions.append(position)
        return positions
