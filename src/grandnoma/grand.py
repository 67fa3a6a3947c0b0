"""Guess-and-check decoding: error-pattern schedules and the query loop.

An error pattern is a tuple of bit positions to flip, strictly increasing.
Two schedules are provided: the hard-decision order (Hamming weight
ascending, then lexicographic) and the ORBGRAND "1-line" order (logistic
weight ascending, where the logistic weight of a pattern is the sum of the
reliability ranks of its flipped bits, rank 1 = least reliable).

The generic `grand_decode` works against any membership predicate; with the
pattern streams it is the reference.  For CRC codebooks, `hard_grand_decode`
and `orbgrand_decode` rely on neither order depending on the received word:
each order is generated once per process into a cached index matrix, grown
only as far as the longest search so far has needed, and a codebook query is
an XOR of per-position syndromes.  ORBGRAND scans the cached rows in growing
chunks.  Hard GRAND's syndromes do not depend on the word either, so it looks
the word's syndrome up in a table of first query indices filled from the
same rows.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .crc import CrcCode, CrcSpec

__all__ = [
    "ReliabilityRanking",
    "DecodeResult",
    "hard_pattern_stream",
    "rank_by_reliability",
    "orb_pattern_stream",
    "grand_decode",
    "hard_grand_decode",
    "orbgrand_decode",
]

_FILL_ITEMS = 1024  # most stream items turned into cached rows per step
_FIRST_CHUNK = 128  # rows per syndrome block at the start of a search ...
_MAX_CHUNK = 16384  # ... doubling up to this


@dataclass(frozen=True)
class ReliabilityRanking:
    """Bit positions sorted by ascending |LLR|; order[r-1] is the position of rank r."""

    order: np.ndarray
    magnitudes: np.ndarray

    def __len__(self) -> int:
        return len(self.order)


@dataclass
class DecodeResult:
    codeword: np.ndarray
    error_pattern: tuple[int, ...]
    queries: int
    abandoned: bool


def _check_max_weight(n: int, max_weight: int) -> None:
    if not 0 <= max_weight <= n:
        raise ValueError(f"max_weight must be in [0, {n}], got {max_weight}")


def _check_query_budget(query_budget: int | None) -> None:
    if query_budget is not None and query_budget < 1:
        raise ValueError(f"query_budget must be >= 1, got {query_budget}")


def _check_orb_caps(max_logistic_weight: int | None, max_hamming_weight: int | None) -> None:
    if any(cap is not None and cap < 0 for cap in (max_logistic_weight, max_hamming_weight)):
        raise ValueError("budgets must be nonnegative")


def hard_pattern_stream(n: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    """All flip patterns of weight 0..max_weight, weight ascending then lexicographic."""
    _check_max_weight(n, max_weight)
    yield ()
    for weight in range(1, max_weight + 1):
        yield from itertools.combinations(range(n), weight)


def rank_by_reliability(llrs: np.ndarray) -> ReliabilityRanking:
    """Rank bit positions by |LLR| ascending; ties go to the lower position."""
    llrs = np.asarray(llrs, dtype=float)
    if np.isnan(llrs).any():
        raise ValueError("llrs contain NaN")
    magnitudes = np.abs(llrs)
    order = np.argsort(magnitudes, kind="stable")
    return ReliabilityRanking(order=order, magnitudes=magnitudes[order])


def _distinct_partitions(total: int, k: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """Partitions of `total` into k distinct parts in [lo, hi], ascending parts,
    emitted in lexicographic order of the part tuple."""
    if k == 1:
        if lo <= total <= hi:
            yield (total,)
        return
    for first in range(lo, hi - k + 2):
        rem = total - first
        # remaining k-1 parts are distinct values in (first, hi]
        min_rem = (k - 1) * first + k * (k - 1) // 2
        if rem < min_rem:
            break
        max_rem = (k - 1) * hi - (k - 2) * (k - 1) // 2
        if rem > max_rem:
            continue
        for rest in _distinct_partitions(rem, k - 1, first + 1, hi):
            yield (first,) + rest


def _orb_rank_sets(n: int, max_logistic_weight: int, max_hamming_weight: int) -> Iterator[tuple[int, ...]]:
    """Rank subsets {r1<..<rk} <= n with sum r_i ascending; within one sum,
    fewer elements first, then lexicographic by rank tuple."""
    yield ()
    size_cap = min(n, max_hamming_weight)
    for lw in range(1, max_logistic_weight + 1):
        max_k = min(size_cap, (math.isqrt(8 * lw + 1) - 1) // 2)
        for k in range(1, max_k + 1):
            if lw > k * (2 * n - k + 1) // 2:
                continue
            yield from _distinct_partitions(lw, k, 1, n)


def orb_pattern_stream(
    ranking: ReliabilityRanking,
    max_logistic_weight: int | None = None,
    max_hamming_weight: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Flip patterns in ascending logistic-weight order, mapped to bit positions."""
    _check_orb_caps(max_logistic_weight, max_hamming_weight)
    n = len(ranking)
    if max_logistic_weight is None:
        max_logistic_weight = n * (n + 1) // 2
    if max_hamming_weight is None:
        max_hamming_weight = n
    order = ranking.order
    for ranks in _orb_rank_sets(n, max_logistic_weight, max_hamming_weight):
        yield tuple(sorted(int(order[r - 1]) for r in ranks))


def grand_decode(
    hard_word: np.ndarray,
    membership: Callable[[np.ndarray], bool],
    patterns: Iterable[tuple[int, ...]],
    query_budget: int | None = None,
) -> DecodeResult:
    """Test hard_word ^ pattern against `membership` in schedule order.

    Returns the first hit with abandoned=False; if the schedule runs out or
    the query budget is reached first, returns the input word unchanged with
    abandoned=True.  `queries` counts membership evaluations.
    """
    word = np.asarray(hard_word, dtype=np.uint8)
    _check_query_budget(query_budget)
    budget = math.inf if query_budget is None else query_budget
    queries = 0
    for pattern in patterns:
        queries += 1
        if pattern:
            candidate = word.copy()
            candidate[list(pattern)] ^= 1
        else:
            candidate = word
        if membership(candidate):
            return DecodeResult(candidate.copy(), tuple(pattern), queries, False)
        if queries >= budget:
            break
    return DecodeResult(word.copy(), (), queries, True)


class _GuessOrder:
    """One guess order, generated lazily into a zero-padded index matrix.

    Query q is row q - 1 - `base` of `rows`: the 1-based indices it flips
    (ranks for ORBGRAND, positions + 1 for hard GRAND), padded with 0, so
    that with `synd[0] = 0` and `synd[i]` the syndrome of index i, the
    syndrome of a query is the XOR of `synd` over its row.  Query 1 is the
    empty guess.  Query weights (logistic weight, or Hamming weight for hard
    GRAND) never decrease, so a weight cap is a prefix of the order.
    """

    def __init__(self, stream: Iterator[tuple[int, ...]], n: int, logistic: bool):
        self._stream = stream
        self._logistic = logistic
        self.rows = np.zeros((0, 1), dtype=np.min_scalar_type(n))  # column 0 exists even before a flip is filled
        self.base = 0  # queries 1..base have been released
        self.filled = 0
        self.exhausted = False
        self._weight_end: list[int] = []  # [w]: queries of weight <= w, once a heavier one is filled
        self._size_start = [0]  # [k]: first query (0-based) that flips k or more indices

    def fill(self, upto: int) -> None:
        """Generate queries until `upto` are filled or the order runs out."""
        while self.filled < upto and not self.exhausted:
            wanted = min(upto - self.filled, _FILL_ITEMS)
            items = list(itertools.islice(self._stream, wanted))
            self.exhausted = len(items) < wanted
            if items:
                self._append(items)

    def _append(self, items: list[tuple[int, ...]]) -> None:
        lo, hi = self.filled - self.base, self.filled - self.base + len(items)
        sizes = np.fromiter(map(len, items), np.intp, len(items))
        flat = np.fromiter(itertools.chain.from_iterable(items), np.intp, int(sizes.sum()))
        more_rows = max(hi, len(self.rows) * 5 // 4) - len(self.rows) if hi > len(self.rows) else 0
        more_cols = max(0, int(sizes.max()) - self.rows.shape[1])
        if more_rows or more_cols:
            self.rows = np.pad(self.rows, ((0, more_rows), (0, more_cols)))
        rows = np.repeat(np.arange(lo, hi), sizes)
        slots = np.arange(flat.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        self.rows[rows, slots] = flat if self._logistic else flat + 1
        weights = self.rows[lo:hi].sum(axis=1, dtype=np.intp) if self._logistic else sizes
        start = self.filled
        known = len(self._weight_end)
        ends = start + np.searchsorted(weights, np.arange(known, int(weights[-1])), side="right")
        self._weight_end.extend(ends.tolist())
        for k in range(len(self._size_start), int(sizes.max()) + 1):
            self._size_start.append(start + int(np.argmax(sizes >= k)))
        self.filled += len(items)

    def release(self, upto: int) -> None:
        """Drop queries 1..upto from the matrix; their weights stay known."""
        kept = self.filled - upto
        self.rows[:kept] = self.rows[upto - self.base : self.filled - self.base]
        self.rows[kept : self.filled - self.base] = 0
        self.base = upto

    def stop(self, cap: int | None, budget: int | None) -> int | None:
        """Queries that the weight cap and the budget allow, or None while not yet known."""
        if cap is not None and cap < len(self._weight_end):
            length = self._weight_end[cap]
        elif self.exhausted:
            length = self.filled
        else:
            length = None
        bounds = [b for b in (length, budget) if b is not None]
        return min(bounds) if bounds else None

    def chunks(self, start: int, cap: int | None, budget: int | None) -> Iterator[tuple[int, int]]:
        """Ranges (a, b] of queries after query `start`, up to the end of the
        capped, budgeted order, in chunks that double in size."""
        a, size = start, _FIRST_CHUNK
        while True:
            want = a + size if budget is None else min(a + size, budget)
            self.fill(want)
            stop = self.stop(cap, budget)
            b = want if stop is None else min(want, stop)
            if b <= a:
                return
            yield a, b
            a, size = b, min(2 * size, _MAX_CHUNK)

    def syndromes(self, synd: np.ndarray, a: int, b: int) -> np.ndarray:
        """Syndromes of queries a+1..b, XORed one index slot at a time."""
        width = bisect.bisect_left(self._size_start, b) - 1
        block = self.rows[a - self.base : b - self.base]
        acc = synd[block[:, 0]]
        for c in range(1, width):
            acc ^= synd[block[:, c]]
        return acc

    def pattern(self, query: int, positions: np.ndarray) -> tuple[int, ...]:
        """Bit positions flipped by `query`; index i is position positions[i-1]."""
        row = self.rows[query - 1 - self.base]
        return tuple(sorted(positions[row[row > 0] - 1].tolist()))


class _SyndromeLeaders:
    """The first pattern of each syndrome along the hard order of one code,
    with its query index, filled as far as the searches so far have needed.
    Scanned queries are released from the order; only the leaders stay, in
    three arrays sorted by syndrome: the syndrome, its first query, and that
    query's row of the order (positions + 1, zero-padded).  Lookups bisect
    memoryviews of the first two, which index to plain ints."""

    def __init__(self, code: CrcCode):
        n = code.spec.codeword_len
        self.order = _GuessOrder(hard_pattern_stream(n, n), n, logistic=False)
        self.synd = np.zeros(n + 1, code.position_syndrome_array.dtype)
        self.synd[1:] = code.position_syndrome_array
        self.rows = np.zeros((0, 1), self.order.rows.dtype)
        self._pack(np.zeros(0, self.synd.dtype), np.zeros(0, np.int64))

    def _pack(self, syndromes: np.ndarray, queries: np.ndarray) -> None:
        self.syndromes, self.queries = syndromes, queries
        self._syndrome_view, self._query_view = memoryview(syndromes), memoryview(queries)

    def _find(self, target: int) -> int | None:
        """Index of `target` among the leaders found, or None."""
        i = bisect.bisect_left(self._syndrome_view, target)
        return i if i < len(self._syndrome_view) and self._syndrome_view[i] == target else None

    def _scan(self, a: int, b: int) -> None:
        """Add the leaders first seen among queries a+1..b."""
        values, offsets = np.unique(self.order.syndromes(self.synd, a, b), return_index=True)
        new = ~np.isin(values, self.syndromes, assume_unique=True)
        values, offsets = values[new], offsets[new]
        rows = self.order.rows[offsets + a - self.order.base]  # never narrower than earlier rows
        at = np.searchsorted(self.syndromes, values)
        wider = np.pad(self.rows, ((0, 0), (0, rows.shape[1] - self.rows.shape[1])))
        self.rows = np.insert(wider, at, rows, axis=0)
        self._pack(np.insert(self.syndromes, at, values), np.insert(self.queries, at, offsets + a + 1))

    def leader(self, target: int, max_weight: int, budget: int | None):
        """(pattern, queries) for the first pattern with syndrome `target`, or
        (None, queries) when the capped, budgeted order has none."""
        i = self._find(target)
        if i is None:
            for a, b in self.order.chunks(self.order.base, max_weight, budget):
                self._scan(a, b)
                self.order.release(b)
                i = self._find(target)
                if i is not None:
                    break
        stop = self.order.stop(max_weight, budget)
        query = None if i is None else self._query_view[i]
        if query is not None and (stop is None or query <= stop):
            return tuple(sorted(p - 1 for p in self.rows[i].tolist() if p)), query
        return None, stop


# the per-process cache: ORBGRAND rank-set orders by (n, Hamming cap), hard-GRAND leaders by code
_ORB_ORDERS: dict[tuple[int, int], _GuessOrder] = {}
_LEADERS: dict[CrcSpec, _SyndromeLeaders] = {}


def _apply_pattern(word: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    codeword = word.copy()
    if pattern:
        codeword[list(pattern)] ^= 1
    return codeword


def hard_grand_decode(
    word: np.ndarray,
    code: CrcCode,
    max_weight: int = 4,
    query_budget: int | None = None,
) -> DecodeResult:
    """Hard-decision guess-and-check against a CRC codebook via syndromes.

    Same result as `grand_decode` over `hard_pattern_stream`: the decode is
    the first pattern in that order whose syndrome equals the syndrome of
    `word`, read from a per-code table of first query indices.
    """
    word = np.asarray(word, dtype=np.uint8)
    _check_max_weight(len(word), max_weight)
    _check_query_budget(query_budget)
    target = code.syndrome(word)
    if target == 0:
        return DecodeResult(word.copy(), (), 1, False)
    leaders = _LEADERS.get(code.spec)
    if leaders is None:
        leaders = _LEADERS[code.spec] = _SyndromeLeaders(code)
    pattern, queries = leaders.leader(target, max_weight, query_budget)
    if pattern is None:
        return DecodeResult(word.copy(), (), queries, True)
    return DecodeResult(_apply_pattern(word, pattern), pattern, queries, False)


def orbgrand_decode(
    word: np.ndarray,
    llrs: np.ndarray,
    code: CrcCode,
    max_logistic_weight: int | None = None,
    query_budget: int | None = 1_000_000,
    max_hamming_weight: int | None = None,
) -> DecodeResult:
    """ORBGRAND (1-line) against a CRC codebook via syndromes.

    Same result as `grand_decode` over `orb_pattern_stream(rank_by_reliability(llrs))`.
    """
    word = np.asarray(word, dtype=np.uint8)
    n = len(word)
    ranking = rank_by_reliability(llrs)
    if len(ranking) != n:
        raise ValueError(f"llrs length {len(ranking)} does not match word length {n}")
    _check_query_budget(query_budget)
    _check_orb_caps(max_logistic_weight, max_hamming_weight)
    target = code.syndrome(word)
    if target == 0:
        return DecodeResult(word.copy(), (), 1, False)
    key = (n, n if max_hamming_weight is None else min(n, max_hamming_weight))
    order = _ORB_ORDERS.get(key)
    if order is None:
        stream = _orb_rank_sets(n, n * (n + 1) // 2, key[1])
        order = _ORB_ORDERS[key] = _GuessOrder(stream, n, logistic=True)
    table = code.position_syndrome_array
    synd = np.zeros(n + 1, table.dtype)
    synd[1:] = table[ranking.order]
    queries = 1
    for a, b in order.chunks(1, max_logistic_weight, query_budget):
        hits = order.syndromes(synd, a, b) == target
        first = int(hits.argmax())
        if hits[first]:
            query = a + first + 1
            pattern = order.pattern(query, ranking.order)
            return DecodeResult(_apply_pattern(word, pattern), pattern, query, False)
        queries = b
    return DecodeResult(word.copy(), (), queries, True)
