"""CRC codebook walkthrough: Koopman generators, systematic encoding,
membership checks, and the undetectable-error caveat that drives everything
else in this package.
"""

import numpy as np

from grandnoma import CrcSpec, crc_check, crc_encode, koopman_to_normal

rng = np.random.default_rng(0)

# The production code: CRC-12 (Koopman 0x8f3) protecting 116-bit messages.
spec = CrcSpec(koopman=0x8F3, message_len=116, codeword_len=128)
coeffs = koopman_to_normal(spec)
print(f"CRC-12, Koopman 0x{spec.koopman:x}  ->  generator coefficients (x^12..x^0):")
print("   ", "".join(map(str, coeffs)), f"(rate {spec.rate:.4f})")

msg = rng.integers(0, 2, spec.message_len).astype(np.uint8)
word = crc_encode(msg, spec)
print(f"\nmessage  ({spec.message_len} bits): {''.join(map(str, msg[:24]))}...")
print(f"codeword ({spec.codeword_len} bits): {''.join(map(str, word[:24]))}... "
      f"+ parity {''.join(map(str, word[116:]))}")
print("systematic:", bool(np.array_equal(word[:116], msg)), "| member:", crc_check(word, spec))

# Any single flipped bit is detected.
flipped = word.copy()
flipped[37] ^= 1
print("single bit flipped -> member:", crc_check(flipped, spec))

# A random 128-bit word passes with probability 2^-12.
words = rng.integers(0, 2, size=(200_000, 128), dtype=np.uint8)
rate = np.mean([crc_check(w, spec) for w in words])
print(f"\nrandom-word acceptance: {rate:.2e}  (2^-12 = {2**-12:.2e})")

# The blind spot: an error pattern that is itself a codeword is undetectable.
other = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), spec)
error_pattern = word ^ other          # difference of two codewords
corrupted = word ^ error_pattern
print("\ncodeword-shaped error pattern of weight", int(error_pattern.sum()))
print("corrupted word still passes the check:", crc_check(corrupted, spec))
print("...which is why the decoder statistics track undetected errors separately.")
