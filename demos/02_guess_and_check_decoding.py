"""Guess-and-check decoding in slow motion: the two candidate schedules and
what a decode costs in codebook queries.

Hard-decision order tests error patterns by Hamming weight; the soft
(ORBGRAND) order tests them by logistic weight, the sum of the reliability
ranks of the flipped bits.
"""

import itertools

import numpy as np

from grandnoma import (
    CrcSpec,
    crc_encode,
    hard_grand_decode,
    hard_pattern_stream,
    orb_pattern_stream,
    orbgrand_decode,
    rank_by_reliability,
)
from grandnoma.crc import get_code

rng = np.random.default_rng(1)

print("hard-decision schedule, 4 bit positions:")
print("   ", list(hard_pattern_stream(4, 4)))

llrs = np.array([3.0, -0.4, 2.0, 0.9])
order = rank_by_reliability(llrs)
print("\nLLRs", llrs.tolist(), "-> positions by rising |LLR|:", order.tolist())
print("soft schedule (first 8):", list(itertools.islice(orb_pattern_stream(order), 8)))

# A noisy block through both decoders.
spec = CrcSpec(0x8F3, 116, 128)
code = get_code(spec)
word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), spec)

received = word.copy()
received[[5, 90]] ^= 1  # two bit errors
print("\ntwo errors at positions [5, 90]:")
result = hard_grand_decode(received, code, max_weight=4)
print(f"  hard: pattern {result.error_pattern}, {result.queries} queries, "
      f"recovered={bool(np.array_equal(result.codeword, word))}")

# soft decisions: give the two wrong bits small |LLR|, as a real channel would
soft = np.where(received == 0, 4.0, -4.0) + rng.normal(0, 0.3, 128)
soft[[5, 90]] *= 0.05
result = orbgrand_decode(received, soft, code)
print(f"  soft: pattern {result.error_pattern}, {result.queries} queries, "
      f"recovered={bool(np.array_equal(result.codeword, word))}")

# Query-count distribution over a batch of noisy blocks (hard decisions).
print("\nqueries per block, hard schedule, 2% crossover:")
counts = []
for _ in range(300):
    noisy = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), spec)
    noisy ^= (rng.random(128) < 0.02).astype(np.uint8)
    counts.append(hard_grand_decode(noisy, code, max_weight=4).queries)
counts = np.array(counts)
print(f"  median {int(np.median(counts))}, mean {counts.mean():.0f}, "
      f"p95 {int(np.percentile(counts, 95))}, max {counts.max()}")
