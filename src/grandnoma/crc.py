"""CRC codebook: systematic encoding, membership checks, and syndrome tables.

Generator polynomials are given in Koopman notation: the hex value lists the
coefficients of x^degree .. x^1 and the trailing +1 term is implicit, so the
top bit of the value always marks the x^degree term.  Bit vectors are numpy
uint8 arrays, MSB first: bits[0] is the first transmitted bit and carries the
highest polynomial order.

Register conventions are the plain ones: zero initial value, zero final XOR,
no bit reflection, remainder appended after the message.  The all-zero word
is therefore always a codeword.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class CrcSpec:
    """CRC code parameters: Koopman generator and message/codeword lengths."""

    koopman: int
    message_len: int
    codeword_len: int

    def __post_init__(self):
        if self.message_len < 1:
            raise ValueError(f"message_len must be >= 1, got {self.message_len}")
        if self.degree < 1:
            raise ValueError(
                f"codeword_len ({self.codeword_len}) must exceed message_len ({self.message_len})"
            )
        if self.koopman < 1:
            raise ValueError(f"Koopman value must be positive, got {self.koopman:#x}")
        if self.koopman.bit_length() != self.degree:
            raise ValueError(
                f"Koopman value 0x{self.koopman:x} must have its top bit at x^{self.degree} "
                f"(bit length {self.degree}), got bit length {self.koopman.bit_length()}"
            )

    @property
    def degree(self) -> int:
        return self.codeword_len - self.message_len

    @property
    def rate(self) -> float:
        return self.message_len / self.codeword_len


def koopman_to_normal(spec: CrcSpec) -> np.ndarray:
    """Expand a Koopman generator into the full coefficient vector.

    Returns the degree+1 coefficients of x^degree .. x^0, MSB first.  Both end
    coefficients are 1 by construction.
    """
    full = (spec.koopman << 1) | 1
    return np.array([(full >> i) & 1 for i in range(spec.degree, -1, -1)], dtype=np.uint8)


class CrcCode:
    """Precomputed division tables for one CRC spec.

    The syndrome of an N-bit word is the remainder of its polynomial modulo
    the generator, packed into a plain int (bit degree-1 down to 0).  A word
    belongs to the codebook iff its syndrome is zero.  Because the remainder
    map is linear over GF(2), a word's syndrome is the XOR of the
    per-position syndromes of its set bits: that makes the guess-and-check
    query loop cheap, and a block's syndromes one product and one XOR-reduce.
    """

    def __init__(self, spec: CrcSpec):
        self.spec = spec
        degree = spec.degree
        n = spec.codeword_len
        mask = (1 << degree) - 1
        low = ((spec.koopman << 1) | 1) & mask  # generator with the x^degree term dropped
        # position_syndrome_array[j] = remainder of x^(N-1-j), in the narrowest
        # unsigned dtype that holds a syndrome; built by stepping x^i -> x^(i+1)
        table = [0] * n
        s = 1
        for j in range(n - 1, -1, -1):
            table[j] = s
            s <<= 1
            if s >> degree:
                s = (s & mask) ^ low
        self.position_syndrome_array = np.asarray(table, dtype=np.min_scalar_type(mask))
        # parity_bits[j, t] = bit t (MSB first) of position j's syndrome, for message positions
        syndromes = self.position_syndrome_array[: spec.message_len, None]
        shifts = np.arange(degree - 1, -1, -1, dtype=syndromes.dtype)
        self._parity_bits = ((syndromes >> shifts) & 1).astype(float)

    def syndrome(self, word: np.ndarray) -> int | np.ndarray:
        """One word's syndrome as an int, or a (..., N) block's as an array over its leading axes."""
        word = np.asarray(word)
        if word.ndim == 0 or word.shape[-1] != self.spec.codeword_len:
            raise ValueError(f"expected words of length {self.spec.codeword_len}, got shape {word.shape}")
        syndromes = np.bitwise_xor.reduce(self.position_syndrome_array * word, axis=-1)  # 0 for no set bit
        return int(syndromes) if word.ndim == 1 else syndromes

    def check(self, word: np.ndarray) -> bool:
        return self.syndrome(word) == 0

    def encode(self, message: np.ndarray) -> np.ndarray:
        """Systematic encoding of a (..., k) array of messages.

        Parity bit t is the GF(2) sum of bit t of the syndromes of the set
        message bits: one integer-valued matrix product, exact in floating
        point, taken mod 2.
        """
        message = np.asarray(message, dtype=np.uint8)
        k = self.spec.message_len
        if message.ndim == 0 or message.shape[-1] != k:
            raise ValueError(f"expected messages of length {k}, got shape {message.shape}")
        parity = (message @ self._parity_bits) % 2
        return np.concatenate([message, parity.astype(np.uint8)], axis=-1)


@lru_cache(maxsize=None)
def get_code(spec: CrcSpec) -> CrcCode:
    """Cached table build; CrcSpec is frozen so it hashes cleanly."""
    return CrcCode(spec)


def crc_encode(message: np.ndarray, spec: CrcSpec) -> np.ndarray:
    """Systematic encoding: message bits followed by the division remainder."""
    return get_code(spec).encode(message)


def crc_check(word: np.ndarray, spec: CrcSpec) -> bool:
    """Return True iff `word` is a codeword (zero polynomial remainder)."""
    return get_code(spec).check(word)
