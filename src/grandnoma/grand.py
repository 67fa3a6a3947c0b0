"""Guess-and-check decoding: error-pattern schedules and the query loop.

An error pattern is a tuple of bit positions to flip, strictly increasing.
Two schedules are provided: the hard-decision order (Hamming weight
ascending, then lexicographic) and the ORBGRAND "1-line" order (logistic
weight ascending, where the logistic weight of a pattern is the sum of the
reliability ranks of its flipped bits, rank 1 = least reliable).

The generic `grand_decode` works against any membership predicate; with the
pattern streams it is the reference.  For CRC codebooks, `hard_grand_decode`
and `orbgrand_decode` rely on neither order depending on the received word:
a codebook query is an XOR of per-position syndromes, and what each decoder
caches per process grows only as far as the longest search so far has
needed.  ORBGRAND caches its order of rank sets, built one logistic-weight
class at a time, with each query's largest rank and its parent (the query
that flips the same ranks but that one), and per cap and budget a plan of
growing chunks.  It scans them under the word's ranking, or a block sort's
row: the first chunk with one gather and one XOR-reduce over whole columns,
and each later one, whose parents all lie before it, as its parents'
syndromes XOR those of their largest ranks.  Hard GRAND's syndromes do not
depend on the word at all, so it caches no order: it keeps one dict from
each syndrome to its first query and pattern, found by scanning
`itertools.combinations` one weight at a time, and looks the word's syndrome
up there.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .crc import CrcCode, CrcSpec

_FIRST_CHUNK = 128  # queries per syndrome chunk at the start of a search or a scan ...
_MAX_CHUNK = 4096  # ... doubling up to this
_DENSE = 1 + 3 * _FIRST_CHUNK  # queries 1..385: an ORBGRAND search's first two chunks


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
    if (max_logistic_weight or 0) < 0 or (max_hamming_weight or 0) < 0:  # None is no cap
        raise ValueError("budgets must be nonnegative")


def hard_pattern_stream(n: int, max_weight: int) -> Iterator[tuple[int, ...]]:
    """All flip patterns of weight 0..max_weight, weight ascending then lexicographic."""
    _check_max_weight(n, max_weight)
    yield ()
    for weight in range(1, max_weight + 1):
        yield from itertools.combinations(range(n), weight)


def rank_by_reliability(llrs: np.ndarray) -> np.ndarray:
    """Bit positions by |LLR| ascending, ties to the lower position: element
    r-1 is the position of rank r."""
    magnitudes = np.abs(np.asarray(llrs, dtype=float))
    order = magnitudes.argsort(kind="stable")
    if order.size and math.isnan(magnitudes[order[-1]]):  # NaN sorts last
        raise ValueError("llrs contain NaN")
    return order


def _rank_rows(llrs: np.ndarray) -> np.ndarray:
    """`rank_by_reliability` of each row of a (W, n) block in one unstable
    sort; only rows with a tie in magnitude are sorted again, stably."""
    magnitudes = np.abs(llrs)
    order = magnitudes.argsort(axis=-1)
    ranked = np.sort(magnitudes, axis=-1)
    if np.isnan(ranked[:, -1:]).any():  # NaN sorts last
        raise ValueError("llrs contain NaN")
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=-1)
    if tied.any():
        order[tied] = magnitudes[tied].argsort(axis=-1, kind="stable")
    return order


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
    order: np.ndarray,
    max_logistic_weight: int | None = None,
    max_hamming_weight: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Flip patterns in ascending logistic-weight order; rank r flips position order[r-1]."""
    _check_orb_caps(max_logistic_weight, max_hamming_weight)
    n = len(order)
    if max_logistic_weight is None:
        max_logistic_weight = n * (n + 1) // 2
    if max_hamming_weight is None:
        max_hamming_weight = n
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


class _OrbOrder:
    """The ORBGRAND order of the rank sets of 1..n with at most
    `max_hamming_weight` ranks, built one logistic-weight class at a time
    as far as the longest search so far has needed.

    Query 1 is the empty guess.  Logistic weights never decrease along the
    order, so a weight cap is a prefix: `_weight_end[w]` counts the queries
    of weight <= w.  A query's parent flips the same ranks but the largest,
    m; it has a smaller logistic weight, so it comes earlier.  Each query
    keeps m in `last` and its parent's column in `parent`: its syndrome is
    its parent's XOR `synd[m]`, and `ranks` rebuilds its other ranks by
    walking parents.  Whole columns stay in `cols` only for the classes
    that start among the first `_DENSE` queries, which a search's first two
    chunks scan directly: one row per flip slot and one column per query,
    ranks largest first and padded with 0, so that with `synd[0] = 0` a
    query's syndrome is the XOR of `synd` over its column.  Class L is
    every member of class L - m whose ranks are all below m, extended by m,
    over all m, sorted by flip count and then by rank tuple, the order of
    `_orb_rank_sets`.  The empty guess has `last` 0 and is its own parent.
    """

    def __init__(self, n: int, max_hamming_weight: int):
        self._n, self._cap = n, max_hamming_weight
        self._last_weight = max_hamming_weight * (2 * n - max_hamming_weight + 1) // 2
        self.cols = np.zeros((1, 1), np.intp)  # the empty guess's column; intp gathers without a cast
        self.last = np.zeros(1, np.min_scalar_type(n))
        self.parent = np.zeros(1, np.intp)
        self.filled = self._dense = 1  # queries filled, and those with whole columns
        self.plans: dict[tuple, list[tuple[int, int, bool]]] = {}  # (cap, budget): chunks, by `extend`
        self._weight_end = [1]
        self._size_start = [0]  # [k]: first query (0-based) that flips k or more ranks
        self._reach = [0]  # [w]: the largest parent of any query of weight <= w
        self.exhausted = self._last_weight == 0

    def fill(self, upto: int) -> None:
        while self.filled < upto and not self.exhausted:
            self._add_class(len(self._weight_end))

    def extend(self, plan: list[tuple[int, int, bool]], cap: int | None, budget: int | None) -> bool:
        """Append to `plan` the next chunk (a, b] of a search under the cap and
        budget, sizes doubling from query 1, and whether it chains: every
        parent of the classes it reaches is among queries 1..a, never in the
        first.  False at the order's end.  Appended chunks are final (D26)."""
        a, size = plan[-1][1] if plan else 1, min(_FIRST_CHUNK << len(plan), _MAX_CHUNK)
        limit = math.inf if budget is None else budget
        self.fill(min(a + size, limit))
        if cap is not None and cap < len(self._weight_end):  # the capped order's end is known
            limit = min(self._weight_end[cap], limit)
        elif self.exhausted:
            limit = min(self.filled, limit)
        b = min(a + size, limit)
        if b <= a:
            return False
        plan.append((a, b, a > 1 and self._reach[bisect.bisect_right(self._weight_end, b - 1)] < a))
        return True

    def ranks(self, columns: np.ndarray, width: int) -> np.ndarray:
        """The `width` largest ranks of each of `columns`, largest first and 0
        past its smallest, as rows."""
        rows = np.empty((width, len(columns)), self.last.dtype)
        for row in rows:
            self.last.take(columns, out=row)
            columns = self.parent.take(columns)
        return rows

    def _add_class(self, weight: int) -> None:
        ends, sources = self._weight_end, []
        for m in range(1, min(self._n, weight) + 1):
            lo, hi = ends[weight - m - 1] if weight > m else 0, ends[weight - m]
            sources.append(lo + np.flatnonzero(self.last[lo:hi] < m))
        parent = np.concatenate(sources)
        width = min(self._cap, (math.isqrt(8 * weight + 1) - 1) // 2)  # most ranks summing to `weight`
        block = np.empty((width + 1, len(parent)), self.last.dtype)
        block[0] = np.repeat(np.arange(1, len(sources) + 1), [len(s) for s in sources])
        block[1:] = self.ranks(parent, width)
        fits = block[width] == 0  # the parent leaves room for m under the Hamming cap
        block, parent = block[:width, fits], parent[fits]
        sizes = np.count_nonzero(block, axis=0)
        # by flip count, then by the rows from the last up: as rows past a
        # column's flip count are 0, that is its smallest rank, ..., its largest
        pick = np.lexsort((*block, sizes))
        block, parent, sizes = block[:, pick], parent[pick], sizes[pick]
        lo, hi = self.filled, self.filled + len(pick)
        if hi > len(self.last):
            more = max(hi, len(self.last) * 5 // 4) - len(self.last)
            self.last, self.parent = np.pad(self.last, (0, more)), np.pad(self.parent, (0, more))
        self.last[lo:hi] = block[0]
        self.parent[lo:hi] = parent
        if lo < _DENSE:  # widths never decrease from class to class
            self.cols = np.hstack([np.pad(self.cols, ((0, width - len(self.cols)), (0, 0))), block])
            self._dense = hi
        for k in range(len(self._size_start), int(sizes[-1]) + 1):
            self._size_start.append(lo + int(np.argmax(sizes >= k)))
        self._reach.append(max(self._reach[-1], int(parent.max())))
        self._weight_end.append(hi)
        self.filled = hi
        self.exhausted = weight == self._last_weight

    def syndromes(self, synd: np.ndarray, a: int, b: int, found: np.ndarray | None = None) -> np.ndarray:
        """Syndromes of queries a+1..b.  Given `found`, those of queries 1..a by
        column with room through b, for a chunk that chains: the parents'
        syndromes XOR their largest ranks', written into found[a:b].  Else: one
        gather of the block's columns, as wide as the most flips among them
        (from `cols` in the dense prefix, by `ranks` past it), and one XOR."""
        if found is not None:
            return np.bitwise_xor(found.take(self.parent[a:b]), synd.take(self.last[a:b]), out=found[a:b])
        width = bisect.bisect_left(self._size_start, b) - 1
        block = self.cols[:width, a:b] if b <= self._dense else self.ranks(np.arange(a, b), width)
        return np.bitwise_xor.reduce(synd.take(block), axis=0)

    def pattern(self, query: int, positions: np.ndarray) -> tuple[int, ...]:
        """Bit positions flipped by `query`; rank r is position positions[r-1]."""
        col, flipped = query - 1, []
        while self.last[col]:
            flipped.append(int(positions[self.last[col] - 1]))
            col = self.parent[col]
        return tuple(sorted(flipped))


class _SyndromeLeaders:
    """The first pattern of each syndrome along the hard order of one code,
    with its query index, scanned as far as the searches so far have needed.

    `first` maps each syndrome seen to its first query and that query's
    pattern; the empty guess leads syndrome 0 at query 1.  A syndrome is
    added only when it is not yet a key, so each keeps its leader.  The scan
    reads the rest of the order straight from `itertools.combinations`, one
    Hamming weight at a time, in chunks that start at `_FIRST_CHUNK`
    queries, double up to `_MAX_CHUNK` and end at each weight's end,
    `ends[w]`: the queries of weight <= w.
    """

    def __init__(self, code: CrcCode):
        n = code.spec.codeword_len
        self.synd = code.position_syndrome_array
        self.ends = list(itertools.accumulate(math.comb(n, w) for w in range(n + 1)))
        self.first: dict[int, tuple[int, tuple[int, ...]]] = {0: (1, ())}
        self.scanned, self._weight, self._size = 1, 1, _FIRST_CHUNK
        self._combos = itertools.combinations(range(n), 1)

    def _scan(self) -> None:
        """Add the leaders first seen in the next chunk of the order: one
        gather of per-position syndromes and one XOR over each pattern."""
        if self.scanned == self.ends[self._weight]:
            self._weight += 1
            self._combos = itertools.combinations(range(len(self.synd)), self._weight)
        count = min(self._size, self.ends[self._weight] - self.scanned)
        flat = itertools.chain.from_iterable(itertools.islice(self._combos, count))
        chunk = np.fromiter(flat, np.intp, count * self._weight).reshape(count, self._weight)
        values, offsets = np.unique(np.bitwise_xor.reduce(self.synd.take(chunk), axis=1), return_index=True)
        for value, offset in zip(values.tolist(), offsets.tolist()):
            if value not in self.first:
                self.first[value] = (self.scanned + 1 + offset, tuple(chunk[offset].tolist()))
        self.scanned += count
        self._size = min(2 * self._size, _MAX_CHUNK)

    def leader(self, target: int, max_weight: int, budget: int | None):
        """(pattern, queries) for the first pattern with syndrome `target`, or
        (None, queries) when the capped, budgeted order has none."""
        stop = self.ends[max_weight] if budget is None else min(self.ends[max_weight], budget)
        while target not in self.first and self.scanned < stop:
            self._scan()
        query, pattern = self.first.get(target, (stop + 1, None))
        return (pattern, query) if query <= stop else (None, stop)


# the per-process cache: ORBGRAND rank-set orders by (n, Hamming cap), hard-GRAND leaders by code
_ORB_ORDERS: dict[tuple[int, int], _OrbOrder] = {}
_LEADERS: dict[CrcSpec, _SyndromeLeaders] = {}


def _apply_pattern(word: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    codeword = word.copy()
    for position in pattern:
        codeword[position] ^= 1
    return codeword


def hard_grand_decode(
    word: np.ndarray,
    code: CrcCode,
    max_weight: int = 4,
    query_budget: int | None = None,
    *, syndrome: int | None = None,
) -> DecodeResult:
    """Hard-decision guess-and-check against a CRC codebook via syndromes.

    Same result as `grand_decode` over `hard_pattern_stream`: the first
    pattern in that order with the word's syndrome (`syndrome`, if given,
    must equal `code.syndrome(word)`), read from a per-code leader table.
    """
    word = np.asarray(word, dtype=np.uint8)
    _check_max_weight(len(word), max_weight)
    _check_query_budget(query_budget)
    target = code.syndrome(word) if syndrome is None else syndrome
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
    *, syndrome: int | None = None, positions: np.ndarray | None = None,
) -> DecodeResult:
    """ORBGRAND (1-line) against a CRC codebook via syndromes.

    Same result as `grand_decode` over `orb_pattern_stream(rank_by_reliability(llrs))`.
    A word that passes the CRC (by `syndrome`, if given: `code.syndrome(word)`)
    returns at query 1, before any ranking; its LLRs are still checked for NaN.
    `positions`, if given, must equal `rank_by_reliability(llrs)`.
    """
    word = np.asarray(word, dtype=np.uint8)
    llrs = np.asarray(llrs, dtype=float)
    n = len(word)
    if len(llrs) != n:
        raise ValueError(f"llrs length {len(llrs)} does not match word length {n}")
    _check_query_budget(query_budget)
    _check_orb_caps(max_logistic_weight, max_hamming_weight)
    target = code.syndrome(word) if syndrome is None else syndrome
    if target == 0:
        if math.isnan(llrs.min()):  # NaN only for a NaN term, and never overflows
            raise ValueError("llrs contain NaN")
        return DecodeResult(word.copy(), (), 1, False)
    positions = _rank_rows(llrs[np.newaxis])[0] if positions is None else positions
    key = (n, n if max_hamming_weight is None else min(n, max_hamming_weight))
    order = _ORB_ORDERS.get(key)
    if order is None:
        order = _ORB_ORDERS[key] = _OrbOrder(*key)
    table = code.position_syndrome_array
    synd = np.zeros(n + 1, table.dtype)
    synd[1:] = table[positions]
    plan = order.plans.setdefault((max_logistic_weight, query_budget), [])
    queries, found, i = 1, None, 0  # found: the syndromes of queries 1..b by column, once a chunk missed
    while i < len(plan) or order.extend(plan, max_logistic_weight, query_budget):
        a, b, chained = plan[i]
        syndromes = order.syndromes(synd, a, b, found if chained else None)
        hits = syndromes == target
        first = int(hits.argmax())
        if hits[first]:
            query = a + first + 1
            pattern = order.pattern(query, positions)
            return DecodeResult(_apply_pattern(word, pattern), pattern, query, False)
        ahead = 3 * b - 2 * a  # chunks at most double, so the next one ends by here
        if found is None or len(found) < ahead:  # room for it, and for the queries cached so far
            grown = np.empty(max(2 * ahead, order.filled), synd.dtype)
            grown[:b] = 0 if found is None else found[:b]  # the empty guess's 0; a chained chunk's own
            found = grown
        if not chained:
            found[a:b] = syndromes
        queries, i = b, i + 1
    return DecodeResult(word.copy(), (), queries, True)
