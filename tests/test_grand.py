import itertools

import numpy as np
import pytest

from grandnoma import (
    CrcSpec,
    crc_encode,
    grand_decode,
    hard_grand_decode,
    hard_pattern_stream,
    orb_pattern_stream,
    orbgrand_decode,
    rank_by_reliability,
)
from grandnoma.crc import get_code

from oracles import brute_codebook, min_distance_decode, reliability_order

CRC12 = CrcSpec(0x8F3, 116, 128)
TOY3 = CrcSpec(0x5, 4, 7)


# ---------------------------------------------------------------- streams

def test_hard_stream_n3_full_enumeration():
    assert list(hard_pattern_stream(3, 3)) == [
        (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2),
    ]


def test_hard_stream_counts():
    assert sum(1 for _ in hard_pattern_stream(128, 2)) == 1 + 128 + 8128
    assert list(hard_pattern_stream(4, 0)) == [()]


def test_hard_stream_budget_validation():
    with pytest.raises(ValueError):
        list(hard_pattern_stream(4, 5))


def test_hard_stream_weights_nondecreasing():
    last = 0
    for pattern in itertools.islice(hard_pattern_stream(128, 4), 10_000):
        assert len(pattern) >= last
        last = len(pattern)


def test_rank_by_reliability():
    llrs = np.array([3.0, -1.0, 2.0])
    order = rank_by_reliability(llrs)
    assert list(order) == [1, 2, 0]
    assert list(rank_by_reliability(np.array([1.0, -1.0]))) == [0, 1]
    assert list(rank_by_reliability(np.zeros(5))) == [0, 1, 2, 3, 4]
    assert np.all(np.diff(np.abs(llrs)[order]) >= 0)


def test_rank_rejects_nan():
    with pytest.raises(ValueError):
        rank_by_reliability(np.array([1.0, np.nan]))


def _ranking_rows(n, rng):
    """Rows whose ranking a sort could get wrong: random, all equal, tied
    pairs, signed zeros and equal magnitudes of opposite sign."""
    tied = rng.normal(size=n)
    tied[1::2] = tied[: n // 2 * 2 : 2]
    zeros = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    zeros[::3] = rng.normal(size=len(zeros[::3]))
    return np.array([rng.normal(size=n), np.full(n, 1.25), tied, zeros, -tied, rng.normal(size=n),
                     rng.integers(-3, 4, n).astype(float)])


@pytest.mark.parametrize("n", [1, 8, 128, 300])
def test_block_ranking_is_the_per_word_ranking_of_each_row(n):
    """One block sort gives each row `rank_by_reliability` and the oracle's
    order, ties included; an empty block gives an empty ranking, and a NaN
    in any row raises."""
    from grandnoma import grand

    rows = _ranking_rows(n, np.random.default_rng(n))
    got = grand._rank_rows(rows)
    assert got.dtype == np.intp and got.shape == rows.shape
    for llrs, positions in zip(rows, got):
        assert positions.tolist() == rank_by_reliability(llrs).tolist() == reliability_order(llrs)
    empty = grand._rank_rows(np.empty((0, n)))
    assert empty.dtype == np.intp and empty.shape == (0, n)
    rows[3, n // 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        grand._rank_rows(rows)


def test_orb_stream_identity_ranking_order():
    ranking = rank_by_reliability(np.ones(3))
    patterns = list(orb_pattern_stream(ranking))
    assert patterns == [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    lws = [sum(p + 1 for p in pat) for pat in patterns]
    assert lws == [0, 1, 2, 3, 3, 4, 5, 6]


def test_orb_stream_truncated_at_lw3():
    ranking = rank_by_reliability(np.ones(128))
    assert sum(1 for _ in orb_pattern_stream(ranking, max_logistic_weight=3)) == 5


def test_orb_first_flip_is_least_reliable_bit():
    ranking = rank_by_reliability(np.array([3.0, -1.0, 2.0]))
    stream = orb_pattern_stream(ranking)
    assert next(stream) == ()
    assert next(stream) == (1,)


def test_orb_hamming_weight_cap():
    ranking = rank_by_reliability(np.ones(6))
    patterns = list(orb_pattern_stream(ranking, max_hamming_weight=1))
    assert patterns == [()] + [(i,) for i in range(6)]


def test_streams_exhaustive_for_small_n():
    n = 10
    hard = set(hard_pattern_stream(n, n))
    assert len(hard) == 2 ** n
    ranking = rank_by_reliability(np.ones(n))
    orb = set(orb_pattern_stream(ranking))
    assert len(orb) == 2 ** n


# ---------------------------------------------------------------- decoding

def test_decode_codeword_passes_through():
    code = get_code(TOY3)
    word = crc_encode(np.array([1, 0, 1, 1], dtype=np.uint8), TOY3)
    result = hard_grand_decode(word, code, max_weight=7)
    assert not result.abandoned
    assert result.queries == 1
    assert result.error_pattern == ()
    assert np.array_equal(result.codeword, word)


def test_decode_even_parity_toy():
    def even_parity(word):
        return word.sum() % 2 == 0

    word = np.array([1, 0, 0, 0], dtype=np.uint8)
    result = grand_decode(word, even_parity, hard_pattern_stream(4, 4))
    assert not result.abandoned
    assert result.queries == 2
    assert result.error_pattern == (0,)
    assert np.array_equal(result.codeword, np.zeros(4, dtype=np.uint8))


def test_hard_grand_is_minimum_distance_on_toy_code():
    codebook = brute_codebook(TOY3)
    code = get_code(TOY3)
    for bits in itertools.product((0, 1), repeat=7):
        word = np.array(bits, dtype=np.uint8)
        _, best = min_distance_decode(word, codebook)
        result = hard_grand_decode(word, code, max_weight=7)
        assert not result.abandoned
        assert int(np.count_nonzero(result.codeword != word)) == best


def test_abandonment_returns_input_at_budget():
    code = get_code(CRC12)
    rng = np.random.default_rng(0)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    word[5] ^= 1
    result = hard_grand_decode(word, code, max_weight=4, query_budget=3)
    assert result.abandoned
    assert result.queries == 3
    assert np.array_equal(result.codeword, word)


def test_abandonment_on_stream_exhaustion():
    code = get_code(CRC12)
    rng = np.random.default_rng(1)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    word[[3, 70]] ^= 1  # weight-2 error cannot be fixed scanning weight <= 1
    result = hard_grand_decode(word, code, max_weight=0)
    assert result.abandoned
    assert result.queries == 1  # the empty pattern only
    assert np.array_equal(result.codeword, word)


def test_grand_decode_budget_validation():
    with pytest.raises(ValueError):
        grand_decode(np.zeros(4, dtype=np.uint8), lambda w: True, [()], query_budget=0)


def test_syndrome_hard_decoder_matches_generic():
    code = get_code(CRC12)
    rng = np.random.default_rng(2)
    for _ in range(40):
        word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        weight = rng.integers(0, 4)
        flips = rng.choice(128, size=weight, replace=False)
        word[flips] ^= 1
        fast = hard_grand_decode(word, code, max_weight=3)
        slow = grand_decode(word, code.check, hard_pattern_stream(128, 3))
        _assert_same(fast, slow)


def test_syndrome_orb_decoder_matches_generic():
    code = get_code(CRC12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        llrs = rng.normal(size=128)
        flips = rng.choice(128, size=2, replace=False)
        word[flips] ^= 1
        fast = orbgrand_decode(word, llrs, code, query_budget=50_000)
        ranking = rank_by_reliability(llrs)
        slow = grand_decode(word, code.check, orb_pattern_stream(ranking), query_budget=50_000)
        _assert_same(fast, slow)


def test_orb_decoder_checks_the_llrs_of_a_codeword():
    """A word that passes the CRC returns at query 1 without ranking, yet its
    LLRs are still checked as a search would check them."""
    code = get_code(CRC12)
    rng = np.random.default_rng(6)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    llrs = rng.normal(size=128)
    result = orbgrand_decode(word, llrs, code)
    assert (result.queries, result.abandoned, result.error_pattern) == (1, False, ())
    assert np.array_equal(result.codeword, word) and result.codeword is not word
    llrs[7] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        orbgrand_decode(word, llrs, code)
    with pytest.raises(ValueError, match="length"):
        orbgrand_decode(word, np.ones(127), code)


def test_decoder_entry_checks_stay_exact():
    """Infinite LLRs of both signs are valid: a codeword holding them decodes
    at query 1, where a sum-based NaN test would see inf - inf.  A NaN
    raises on a codeword and on a word that fails the CRC alike."""
    code = get_code(CRC12)
    rng = np.random.default_rng(8)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    llrs = rng.normal(size=128)
    llrs[[3, 50]] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):
        assert np.isnan(llrs.sum())
    result = orbgrand_decode(word, llrs, code)
    assert (result.queries, result.abandoned, result.error_pattern) == (1, False, ())
    failing = word.copy()
    failing[[10, 90]] ^= 1
    assert code.syndrome(failing) != 0
    llrs[20] = np.nan
    for w in (word, failing):
        with pytest.raises(ValueError, match="NaN"):
            orbgrand_decode(w, llrs, code)


def test_decode_result_invariants():
    code = get_code(CRC12)
    rng = np.random.default_rng(4)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    word[[10, 40, 90]] ^= 1
    llrs = rng.normal(size=128)
    result = orbgrand_decode(word, llrs, code, query_budget=100_000)
    assert result.queries >= 1
    if not result.abandoned:
        assert code.check(result.codeword)
        rebuilt = word.copy()
        rebuilt[list(result.error_pattern)] ^= 1
        assert np.array_equal(rebuilt, result.codeword)
        assert list(result.error_pattern) == sorted(result.error_pattern)


def test_permutation_equivariance():
    code = get_code(TOY3)
    codebook = {bytes(w) for w in brute_codebook(TOY3)}
    rng = np.random.default_rng(5)
    for _ in range(20):
        word = rng.integers(0, 2, 7).astype(np.uint8)
        llrs = rng.normal(size=7) * (1 + rng.random(7))  # distinct magnitudes
        perm = rng.permutation(7)
        inv = np.argsort(perm)

        def member(w):
            return bytes(w) in codebook

        def member_permuted(w):
            return bytes(w[inv]) in codebook

        base = grand_decode(word, member, orb_pattern_stream(rank_by_reliability(llrs)))
        permuted = grand_decode(
            word[perm], member_permuted, orb_pattern_stream(rank_by_reliability(llrs[perm]))
        )
        assert permuted.queries == base.queries
        assert permuted.abandoned == base.abandoned
        assert np.array_equal(permuted.codeword, base.codeword[perm])


# ---------------------------------------------------------------- cached schedule vs reference

def _assert_same(fast, slow):
    assert fast.queries == slow.queries
    assert fast.abandoned == slow.abandoned
    assert fast.error_pattern == slow.error_pattern
    assert all(type(p) is int for p in fast.error_pattern)
    assert np.array_equal(fast.codeword, slow.codeword)


def _noisy_crc12_words(ebn0s, per_point, seed):
    """Hard decisions and LLRs of CRC-12 codewords sent over BPSK/AWGN."""
    rng = np.random.default_rng(seed)
    words = []
    for ebn0 in ebn0s:
        sigma = np.sqrt(1.0 / (2 * CRC12.rate * 10 ** (ebn0 / 10)))
        for _ in range(per_point):
            codeword = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
            y = 1.0 - 2.0 * codeword + sigma * rng.standard_normal(128)
            words.append(((y < 0).astype(np.uint8), 2 * y / sigma**2))
    return words


def _orb_reference(word, llrs, code, max_logistic_weight=None, query_budget=1_000_000,
                   max_hamming_weight=None):
    patterns = orb_pattern_stream(rank_by_reliability(llrs), max_logistic_weight, max_hamming_weight)
    return grand_decode(word, code.check, patterns, query_budget)


def _hard_reference(word, code, max_weight=4, query_budget=None):
    return grand_decode(word, code.check, hard_pattern_stream(len(word), max_weight), query_budget)


ORB_CAPS = [
    dict(query_budget=1),
    dict(query_budget=9),
    dict(query_budget=500),
    dict(query_budget=50_000),
    dict(query_budget=None, max_logistic_weight=30),
    dict(query_budget=4_000, max_hamming_weight=2),
    dict(query_budget=2_000, max_hamming_weight=3, max_logistic_weight=40),
    dict(max_hamming_weight=0),
]


def test_orbgrand_matches_reference_over_caps():
    code = get_code(CRC12)
    words = _noisy_crc12_words([2.0, 3.0, 4.0], 4, seed=31)
    words.append((crc_encode(np.ones(116, np.uint8), CRC12), np.ones(128)))  # zero syndrome
    for word, llrs in words:
        for caps in ORB_CAPS:
            _assert_same(orbgrand_decode(word, llrs, code, **caps),
                         _orb_reference(word, llrs, code, **caps))


def test_hard_grand_matches_reference_over_caps():
    code = get_code(CRC12)
    rng = np.random.default_rng(32)
    for flips in (0, 1, 2, 2, 3, 4):
        word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        word[rng.choice(128, size=flips, replace=False)] ^= 1
        for max_weight in range(5):
            budgets = (None, 1, 60) if flips <= 2 else (1, 60)
            for budget in budgets:
                _assert_same(hard_grand_decode(word, code, max_weight, budget),
                             _hard_reference(word, code, max_weight, budget))


def test_decoders_given_the_syndrome_decode_as_without_it():
    """`syndrome=code.syndrome(word)` changes no result, for codewords and
    failing words, hard caps 0-4 with and without a budget, and ORBGRAND
    budgets on both sides of its first chunk's end; and the decoders do
    use it: a failing word handed syndrome 0 leaves at query 1."""
    code = get_code(CRC12)
    words = _noisy_crc12_words([2.0, 4.0, 6.0], 4, seed=34)
    passed = [code.check(word) for word, _ in words]
    assert any(passed) and not all(passed)
    for word, llrs in words:
        syndrome = code.syndrome(word)
        for budget in (1, 128, 129, 130):
            _assert_same(orbgrand_decode(word, llrs, code, query_budget=budget, syndrome=syndrome),
                         orbgrand_decode(word, llrs, code, query_budget=budget))
        for max_weight in range(5):
            for budget in (None, 60):
                _assert_same(hard_grand_decode(word, code, max_weight, budget, syndrome=syndrome),
                             hard_grand_decode(word, code, max_weight, budget))
        if syndrome:
            assert orbgrand_decode(word, llrs, code, syndrome=0).queries == 1
            assert hard_grand_decode(word, code, syndrome=0).queries == 1


CRC32 = CrcSpec(0x82608EDB, 96, 128)
CRC8 = CrcSpec(0xA6, 120, 128)
RANKED_CAPS = [dict(query_budget=budget) for budget in (1, 128, 129, 130, 385, 386, 387)]
RANKED_CAPS += [dict(query_budget=None, max_logistic_weight=w) for w in (14, 15, 20)]  # end at 110, 137, 371
RANKED_CAPS += [dict(query_budget=1_000, max_hamming_weight=h) for h in range(5)]


def test_orbgrand_given_the_ranking_decodes_as_without_it_and_as_the_reference():
    """`positions=rank_by_reliability(llrs)` changes no result, with random
    and tied LLRs, for words whose first match lies around the ends of the
    first two chunks and for random words, over budgets on both sides of
    those ends, logistic caps that end inside the first two chunks and
    Hamming caps 0-4; CRC-32 words match only where built to, so the rest
    abandon."""
    rng = np.random.default_rng(38)
    results = []
    for spec in (TOY3, CrcSpec(0xA6, 57, 65), CRC12, CRC32):
        code, n = get_code(spec), spec.codeword_len
        for llrs in (rng.normal(size=n), rng.integers(-4, 5, n) * 0.5):
            positions = rank_by_reliability(llrs)
            patterns = list(itertools.islice(orb_pattern_stream(positions), 400))
            words = [rng.integers(0, 2, n).astype(np.uint8)]
            for query in (2, 128, 129, 130, 131, 385, 386, 387, 388):
                if query <= len(patterns):
                    words.append(np.zeros(n, np.uint8))
                    words[-1][list(patterns[query - 1])] = 1
            for word in words:
                for caps in RANKED_CAPS:
                    given = orbgrand_decode(word, llrs, code, positions=positions, **caps)
                    _assert_same(given, orbgrand_decode(word, llrs, code, **caps))
                    _assert_same(given, _orb_reference(word, llrs, code, **caps))
                    results.append((spec, given))
    found = {r.queries for _, r in results if not r.abandoned}
    assert {129, 130, 385, 386, 387} <= found
    assert any(r.abandoned and r.queries == 1_000 for spec, r in results if spec == CRC32)


def test_plans_built_by_interleaved_searches_decode_like_the_reference(monkeypatch):
    """Decodes under different (cap, budget) pairs, interleaved in one
    process, decode like the reference from an empty order and from a warm
    one, and each pair's cached plan is a prefix of the whole plan that a
    fresh order builds for it: each plan grows only as far as its deepest
    search, and a budget of 1 leaves its plan empty."""
    from grandnoma import grand

    code = get_code(CRC12)
    caps = [dict(query_budget=1), dict(query_budget=129), dict(query_budget=386), dict(query_budget=5_000),
            dict(query_budget=None, max_logistic_weight=15), dict(query_budget=None, max_logistic_weight=20),
            dict(query_budget=2_000, max_hamming_weight=3)]
    jobs = [(word, llrs, cap) for word, llrs in _noisy_crc12_words([2.0, 3.0], 3, seed=39) for cap in caps]
    want = [_orb_reference(word, llrs, code, **cap) for word, llrs, cap in jobs]
    monkeypatch.setattr(grand, "_ORB_ORDERS", {})
    for run in (range(len(jobs)), reversed(range(len(jobs)))):  # from an empty order, then a warm one
        for i in run:
            _assert_same(orbgrand_decode(jobs[i][0], jobs[i][1], code, **jobs[i][2]), want[i])
    assert max(r.queries for r in want) > 385
    for (n, hamming), order in grand._ORB_ORDERS.items():
        for (cap, budget), plan in order.plans.items():
            whole, fresh = [], grand._OrbOrder(n, hamming)
            while fresh.extend(whole, cap, budget):
                pass
            assert len(plan) <= len(whole)
            for (a, b, rows), (whole_a, whole_b, whole_rows) in zip(plan, whole):
                assert (a, b) == (whole_a, whole_b) and np.array_equal(rows, whole_rows)
            assert budget != 1 or plan == []
    assert len(grand._ORB_ORDERS[(128, 128)].plans) == 6
    whole = []  # past two chunks of the largest size
    while grand._ORB_ORDERS[(128, 128)].extend(whole, None, 13_000):
        pass
    assert [b for _, b, _ in whole] == _chunk_ends(1) + [13_000]


def test_first_deep_searches_of_an_empty_order_decode_like_the_reference(monkeypatch):
    """The first searches of a fresh process fill the order as they go, so
    `found` grows between chained chunks; each CRC-32 word matches exactly
    at its query, past the chunk ends 897, 1,921 and 3,969."""
    from grandnoma import grand

    code = get_code(CRC32)
    llrs = np.arange(1.0, 129.0)  # rank r is position r - 1
    patterns = list(itertools.islice(orb_pattern_stream(rank_by_reliability(llrs)), 9_000))
    for query in (1_000, 3_000, 8_500):
        monkeypatch.setattr(grand, "_ORB_ORDERS", {})
        word = np.zeros(128, np.uint8)
        word[list(patterns[query - 1])] = 1
        fast = orbgrand_decode(word, llrs, code, query_budget=10_000)
        _assert_same(fast, _orb_reference(word, llrs, code, query_budget=10_000))
        assert fast.queries == query and not fast.abandoned


def test_first_searches_under_three_syndrome_widths_share_one_order(monkeypatch):
    """From an empty order, searches at n = 128 under CRC-8, CRC-12 and
    CRC-32 take turns, each going deeper than the one before, so that the
    order holds a uint8, a uint16 and a uint32 syndrome buffer and later
    searches pad all three in mid-search; every word decodes like the
    reference at its query, and every buffer stays as long as `last` with
    the empty guess's 0 in column 0."""
    from grandnoma import grand

    llrs = np.arange(1.0, 129.0)  # rank r is position r - 1
    patterns = list(itertools.islice(orb_pattern_stream(rank_by_reliability(llrs)), 9_000))
    first = {spec: _first_syndrome_queries(patterns, get_code(spec).position_syndrome_array)
             for spec in (CRC8, CRC12)}
    first[CRC32] = [1_000, 3_000, 8_500]
    jobs = [(CRC8, 800), (CRC32, 1_000), (CRC12, 2_000), (CRC8, 1_100), (CRC32, 3_000), (CRC12, 6_000),
            (CRC32, 8_500), (CRC12, 9_000)]  # (spec, about where its word first matches)
    monkeypatch.setattr(grand, "_ORB_ORDERS", {})
    padded = 0
    for spec, near in jobs:
        code, query = get_code(spec), max(q for q in first[spec] if q <= near)
        word = np.zeros(128, np.uint8)
        word[list(patterns[query - 1])] = 1
        order = grand._ORB_ORDERS.get((128, 128))
        before = (0, 0) if order is None else (len(order.found), len(order.last))
        fast = orbgrand_decode(word, llrs, code, query_budget=10_000)
        _assert_same(fast, _orb_reference(word, llrs, code, query_budget=10_000))
        assert fast.queries == query > 385 and not fast.abandoned
        order = grand._ORB_ORDERS[(128, 128)]
        padded += before[0] == 3 and len(order.last) > before[1]
        for found in order.found.values():
            assert len(found) == len(order.last) and found[0] == 0
    assert sorted(np.dtype(t).itemsize for t in order.found) == [1, 2, 4]
    assert padded >= 2


LATE_DIRECT = [(12, 12), (16, 3), (16, 4), (16, 5), (16, 6), (16, 7), (16, 8), (20, 3), (20, 4), (20, 5), (32, 3)]


@pytest.mark.parametrize("n,cap", LATE_DIRECT)
def test_late_chunks_with_parents_inside_them_carry_rank_rows(n, cap):
    """Short and Hamming-capped orders have chunks past query 385 that
    cannot chain, since some of their parents lie inside them, so their
    plan entries carry rank rows.  Through the whole order, every entry's
    syndromes equal the XOR over what `pattern` reports for each query, and
    words whose first match is the first or the last one inside such a
    chunk decode like the reference; under a degree n - 1 CRC a pattern is
    a first match unless the one other pattern with its syndrome comes
    earlier."""
    from grandnoma import grand

    rng = np.random.default_rng(40)
    table = rng.integers(1, 2**32, n, dtype=np.uint64).astype(np.uint32)
    synd = np.concatenate([[0], table]).astype(np.uint32)
    indices = np.arange(n)  # pattern(q, indices) reports 1-based index i as i - 1
    order = grand._OrbOrder(n, cap)
    plan = []
    while order.extend(plan, None, None):
        pass
    late = [(a, b) for a, b, rows in plan if rows is not None and b > 385]
    assert late and plan[-1][1] == order.filled
    for a, b, rows in plan:
        want = [_xor_over(table, order.pattern(q, indices)) for q in range(a + 1, b + 1)]
        assert order.syndromes(synd, a, b, rows).tolist() == want

    code = get_code(CrcSpec(0x82608EDB >> (33 - n), 1, n))
    llrs = np.arange(1.0, n + 1)  # rank r is position r - 1
    patterns = list(orb_pattern_stream(rank_by_reliability(llrs), max_hamming_weight=cap))
    first = _first_syndrome_queries(patterns, code.position_syndrome_array)
    inside = [[q for q in first if a < q <= b] for a, b in late]
    assert inside[0]  # the first late chunk holds first matches; n = 12's last one holds none
    for query in {q for queries in inside for q in queries[:1] + queries[-1:]}:
        word = np.zeros(n, np.uint8)
        word[list(patterns[query - 1])] = 1
        fast = orbgrand_decode(word, llrs, code, max_hamming_weight=cap)
        _assert_same(fast, _orb_reference(word, llrs, code, max_hamming_weight=cap))
        assert fast.queries == query


def test_whole_order_runs_out_before_the_budget():
    code = get_code(TOY3)
    for bits in itertools.product((0, 1), repeat=7):
        word = np.array(bits, dtype=np.uint8)
        llrs = np.linspace(-1.0, 2.0, 7)
        for lw in (None, 0, 2, 5):
            for hw in (None, 0, 1, 2):
                for budget in (None, 3, 1000):
                    caps = dict(max_logistic_weight=lw, max_hamming_weight=hw, query_budget=budget)
                    _assert_same(orbgrand_decode(word, llrs, code, **caps),
                                 _orb_reference(word, llrs, code, **caps))
        for max_weight in range(8):
            for budget in (None, 3, 1000):
                _assert_same(hard_grand_decode(word, code, max_weight, budget),
                             _hard_reference(word, code, max_weight, budget))


def test_wide_and_long_codes_decode_like_the_reference():
    """Index and syndrome dtypes follow n and the CRC degree: n > 255 and a
    degree above 16 must decode exactly like the reference."""
    rng = np.random.default_rng(33)
    for spec in (CrcSpec(0x8F3, 300, 312), CrcSpec(0x80003, 44, 64)):
        code = get_code(spec)
        n, k = spec.codeword_len, spec.message_len
        for _ in range(3):
            word = crc_encode(rng.integers(0, 2, k).astype(np.uint8), spec)
            word[rng.choice(n, size=2, replace=False)] ^= 1
            llrs = rng.normal(size=n)
            _assert_same(orbgrand_decode(word, llrs, code, query_budget=3_000),
                         _orb_reference(word, llrs, code, query_budget=3_000))
            _assert_same(hard_grand_decode(word, code, 2, 3_000),
                         _hard_reference(word, code, 2, 3_000))


def test_cache_fill_state_never_changes_a_result(monkeypatch):
    """The same decodes give the same results forward, reversed, from an
    empty cache, and around decodes with other caps that grow the cache."""
    from grandnoma import grand

    code = get_code(CRC12)
    jobs = [(word, llrs, caps)
            for word, llrs in _noisy_crc12_words([2.0, 4.0], 3, seed=34)
            for caps in (dict(query_budget=20_000), dict(query_budget=None, max_logistic_weight=50),
                         dict(query_budget=3_000, max_hamming_weight=3))]

    def run(order):
        return {i: (orbgrand_decode(jobs[i][0], jobs[i][1], code, **jobs[i][2]),
                    hard_grand_decode(jobs[i][0], code, 3, 5_000)) for i in order}

    forward = run(range(len(jobs)))
    monkeypatch.setattr(grand, "_ORB_ORDERS", {})
    monkeypatch.setattr(grand, "_LEADERS", {})
    backward = run(reversed(range(len(jobs))))
    for word, llrs, _ in jobs:  # other caps, and a longer scan than any above
        orbgrand_decode(word, llrs, code, query_budget=200_000, max_hamming_weight=4)
        hard_grand_decode(word, code, 4, None)
    again = run(range(len(jobs)))
    for i in range(len(jobs)):
        for results in (backward, again):
            _assert_same(results[i][0], forward[i][0])
            _assert_same(results[i][1], forward[i][1])


def _chunk_ends(start, weight_ends=()):
    """Where the chunks of a search from query `start` end, through the
    second chunk of the cap size; a chunk also ends at each of `weight_ends`."""
    from grandnoma import grand

    ends, size, capped = [start], grand._FIRST_CHUNK, 0
    while capped < 2:
        end = min([ends[-1] + size] + [e for e in weight_ends if e > ends[-1]])
        capped += end - ends[-1] == grand._MAX_CHUNK
        ends.append(end)
        size = min(2 * size, grand._MAX_CHUNK)
    return ends[1:]


def _xor_over(table, indices):
    syndrome = 0
    for i in indices:
        syndrome ^= int(table[i])
    return syndrome


def _first_syndrome_queries(patterns, syndrome_of_index):
    """The queries whose pattern has a syndrome no earlier pattern has."""
    seen, first = set(), []
    for query, pattern in enumerate(patterns, start=1):
        syndrome = _xor_over(syndrome_of_index, pattern)
        if syndrome not in seen:
            seen.add(syndrome)
            first.append(query)
    return first


def test_matches_reference_on_both_sides_of_chunk_boundaries(monkeypatch):
    """Words whose first match is the query just before, at or just after
    the chunk boundaries, up to the second chunk of the cap size.  Both
    decoders' chunks start after query 1, the empty guess; the hard scan's
    chunks also end at each Hamming weight's end (129 and 8,257), and each
    hard search starts from an empty leader table, so that its chunks end
    where a first scan's do.  On CRC-12 most queries past a few thousand
    share their syndrome with an earlier one, so CRC-32 puts the first
    match on the last query of each chunk and on the first query of the
    next."""
    from grandnoma import grand

    llrs = np.arange(1.0, 129.0)  # rank r is position r - 1
    hard_ends, orb_ends = _chunk_ends(1, (129, 8_257)), _chunk_ends(1)
    last = max(hard_ends + orb_ends) + 5
    orb = list(itertools.islice(orb_pattern_stream(rank_by_reliability(llrs)), last))
    hard = list(itertools.islice(hard_pattern_stream(128, 3), last))
    near = {q for end in hard_ends + orb_ends for q in range(end - 2, end + 4)}
    for spec in (CRC12, CrcSpec(0x82608EDB, 96, 128)):
        code = get_code(spec)
        for patterns, ends in ((orb, orb_ends), (hard, hard_ends)):
            first = set(_first_syndrome_queries(patterns, code.position_syndrome_array))
            queries = near if spec == CRC12 else {q for end in ends for q in (end, end + 1)}
            assert spec == CRC12 or queries <= first
            for query in sorted(queries):
                word = np.zeros(128, dtype=np.uint8)
                word[list(patterns[query - 1])] = 1
                if patterns is orb:
                    results = [(orbgrand_decode(word, llrs, code), _orb_reference(word, llrs, code))]
                else:
                    results = []
                    for max_weight in (2, 3):
                        monkeypatch.setattr(grand, "_LEADERS", {})
                        results.append((hard_grand_decode(word, code, max_weight),
                                        _hard_reference(word, code, max_weight)))
                for fast, slow in results:
                    _assert_same(fast, slow)
                if query in first:
                    assert results[-1][0].queries == query


def _gathered(order, synd, a, b):
    """Syndromes of queries a+1..b by one gather of `synd` over all n rank
    rows of their columns, and one XOR."""
    return np.bitwise_xor.reduce(synd.take(order.ranks(np.arange(a, b), len(synd) - 1)), axis=0).tolist()


@pytest.mark.parametrize("n", [128, 300])
def test_chunk_syndromes_are_the_xor_over_each_reported_pattern(n):
    """For every query of every range of the ORBGRAND plan, `syndromes`
    equals the XOR of the per-index syndromes over the indices that
    `pattern` reports; n = 300 takes the wider index dtype.  Ranges start
    after the empty guess as in a search, and so does a gather over each
    range's whole columns through `ranks`.  `syndromes`, with the order's
    buffer holding the syndromes of every query before the range, equals
    the same XOR in every range and writes it into that buffer: chained
    from the parents' syndromes where the plan carries no rank rows, and
    gathered over the rows it carries in the first range, which are as wide
    as its most flips.  A range that chains has every parent before it."""
    from grandnoma import grand

    rng = np.random.default_rng(36)
    table = rng.integers(1, 2**16, n).astype(np.uint16)
    synd = np.concatenate([[0], table]).astype(np.uint16)
    indices = np.arange(n)  # pattern(q, indices) reports 1-based index i as i - 1
    budget = _chunk_ends(0)[-1] if n == 128 else 3_000
    order = grand._OrbOrder(n, n)
    plan = order.plans.setdefault((None, budget), [])
    while order.extend(plan, None, budget):
        pass
    assert [b for _, b, _ in plan] == [end for end in _chunk_ends(1) if end < budget] + [budget]
    found = np.zeros(budget, np.uint16)  # room for every query; column 0, the empty guess, is 0
    widened = checked = chained = 0
    for a, b, rows in plan:
        chains = rows is None
        assert a == max(checked, 1)
        patterns = [order.pattern(q, indices) for q in range(a + 1, b + 1)]
        want = [_xor_over(table, p) for p in patterns]
        assert _gathered(order, synd, a, b) == want
        assert order.syndromes(synd, a, b, rows).tolist() == want
        assert order.found[synd.dtype][a:b].tolist() == want
        assert a > 1 or not chains
        assert not chains or order.parent[a:b].max() < a
        assert chains or rows.shape == (max(map(len, patterns)), b - a)
        chained += chains
        found[a:b] = want
        widened += len(patterns[0]) < len(patterns[-1])
        checked = b
    assert checked == budget
    assert widened  # some chunk's width grew mid-chunk
    assert chained >= 3
    assert order.parent[2:130].max() >= 2  # ranges off the chunk schedule; (2, 130] holds parents of its own
    for a in (2, 64, 200):
        assert _gathered(order, synd, a, a + 128) == found[a : a + 128].tolist()


@pytest.mark.parametrize("n,cap,count", [
    (128, 128, 6_000), (128, 3, 6_000), (128, 4, 6_000), (300, 300, 4_000), (300, 3, 4_000),
    (7, 7, 200), (7, 3, 200), (7, 0, 10),
])
def test_orb_order_is_the_rank_set_stream_with_a_parent_per_query(n, cap, count):
    """Built one logistic-weight class at a time, the cached ORBGRAND order
    equals `_orb_rank_sets` row for row, past many class boundaries (for
    n = 7, to its end), and every query but the empty guess has an earlier
    parent that flips the same ranks but its largest, which row 0 holds."""
    from grandnoma import grand

    order = grand._OrbOrder(n, cap)
    order.fill(count)
    want = list(itertools.islice(grand._orb_rank_sets(n, n * (n + 1) // 2, cap), order.filled + 1))
    ranks = np.arange(1, n + 1)  # pattern(q, ranks) reports the ranks themselves
    got = [order.pattern(q, ranks) for q in range(1, order.filled + 1)]
    assert got == want[: order.filled]
    assert order.exhausted == (len(want) == order.filled)
    assert order.exhausted or len(order._weight_end) > 30
    for col in range(1, order.filled):
        parent, last = int(order.parent[col]), int(order.last[col])
        assert parent < col
        assert got[parent] + (last,) == got[col]


def test_chained_searches_decode_like_the_reference():
    """Searches past the first chunk, whose syndromes chain from their
    parents', decode exactly like the reference.  On CRC-12 the first match
    lies around budgets 129, 130, 385 and 386, around the end of logistic
    weight 23 (query 640, inside the third chunk) and under a Hamming cap of
    3; on CRC-8 it lies past the second chunk, with budgets just before and
    at it; on CRC-32 nothing matches, and each search is abandoned at a
    budget inside the chunk (3969, 8065].  TOY3's whole order fits in the
    first chunk."""
    caps = [dict(query_budget=budget) for budget in (129, 130, 385, 386)]
    caps += [dict(query_budget=None, max_logistic_weight=23), dict(query_budget=2_000, max_hamming_weight=3)]
    results = []
    for spec, near in ((CRC12, (129, 130, 385, 386, 640)), (CrcSpec(0xA6, 57, 65), None), (TOY3, None)):
        code, n = get_code(spec), spec.codeword_len
        llrs = np.arange(1.0, n + 1)  # rank r is position r - 1
        patterns = list(itertools.islice(orb_pattern_stream(rank_by_reliability(llrs)), 1_000))
        first = _first_syndrome_queries(patterns, code.position_syndrome_array)
        if near is not None:
            queries = [q for q in first if any(abs(q - bound) <= 2 for bound in near)]
        else:
            queries = [q for q in first if q > 385][:8] or first
        for query in queries:
            word = np.zeros(n, dtype=np.uint8)
            word[list(patterns[query - 1])] = 1
            deep = [dict(query_budget=query - 1), dict(query_budget=query)] if query > 1 else []
            for cap in caps + deep:
                fast = orbgrand_decode(word, llrs, code, **cap)
                _assert_same(fast, _orb_reference(word, llrs, code, **cap))
                results.append(fast)
    rng = np.random.default_rng(37)
    code = get_code(CrcSpec(0x82608EDB, 96, 128))
    for budget in (4_500, 6_001):
        word = rng.integers(0, 2, 128).astype(np.uint8)
        llrs = rng.normal(size=128)
        for cap in (dict(), dict(max_hamming_weight=3)):
            fast = orbgrand_decode(word, llrs, code, query_budget=budget, **cap)
            _assert_same(fast, _orb_reference(word, llrs, code, query_budget=budget, **cap))
            assert fast.abandoned and fast.queries == budget
    found = [r.queries for r in results if not r.abandoned]
    assert max(found) > 640 and {129, 130, 385, 386} & set(found)
    assert {130, 386, 640} <= {r.queries for r in results if r.abandoned}


def test_first_hard_search_with_budget_one_decodes_like_the_reference(monkeypatch):
    """From an empty cache, a budget of 1 fills only the empty guess, before
    any flip has widened the order."""
    from grandnoma import grand

    code = get_code(CRC12)
    word = crc_encode(np.zeros(116, np.uint8), CRC12)
    word[5] ^= 1
    for max_weight in (0, 4):
        monkeypatch.setattr(grand, "_LEADERS", {})
        _assert_same(hard_grand_decode(word, code, max_weight, 1),
                     _hard_reference(word, code, max_weight, 1))
        _assert_same(hard_grand_decode(word, code, max_weight, 2),
                     _hard_reference(word, code, max_weight, 2))


def test_every_crc12_hard_leader_is_the_first_pattern_with_its_syndrome(monkeypatch):
    """From an empty leader table, one word per CRC-12 syndrome (its 12
    parity bits set to the syndrome's bits) decodes to the first pattern of
    `hard_pattern_stream` with that syndrome, at that pattern's query; the
    last is at query 354,373, and 24 have weight 4.  A budget one query
    short abandons each search at the budget."""
    from grandnoma import grand

    code = get_code(CRC12)
    table = code.position_syndrome_array.tolist()
    first = {}
    for query, pattern in enumerate(hard_pattern_stream(128, 4), start=1):
        syndrome = 0
        for position in pattern:
            syndrome ^= table[position]
        if syndrome not in first:
            first[syndrome] = (query, pattern)
            if len(first) == 4096:
                break
    assert max(query for query, _ in first.values()) == 354_373
    assert sum(len(pattern) == 4 for _, pattern in first.values()) == 24
    monkeypatch.setattr(grand, "_LEADERS", {})
    for syndrome in range(4096):
        word = np.zeros(128, dtype=np.uint8)
        word[116:] = [(syndrome >> (11 - t)) & 1 for t in range(12)]
        assert code.syndrome(word) == syndrome
        query, pattern = first[syndrome]
        result = hard_grand_decode(word, code, 4)
        assert (result.queries, result.error_pattern, result.abandoned) == (query, pattern, False)
        if query > 1:
            result = hard_grand_decode(word, code, 4, query - 1)
            assert (result.queries, result.error_pattern, result.abandoned) == (query - 1, (), True)
    assert len(grand._LEADERS[CRC12].first) == 4096


def test_hard_scan_of_a_wide_crc_stops_at_the_weight_cap(monkeypatch):
    """On CRC-32 almost every pattern leads its own syndrome, so the leader
    table grows with the scan.  A word that weight 2 cannot fix is abandoned
    at the end of weight 2, query 8,257, and the scan stops there too, with
    at most that many leaders."""
    from grandnoma import grand

    spec = CrcSpec(0x82608EDB, 96, 128)
    code = get_code(spec)
    word = np.random.default_rng(35).integers(0, 2, 128).astype(np.uint8)
    monkeypatch.setattr(grand, "_LEADERS", {})
    result = hard_grand_decode(word, code, 2)
    assert (result.queries, result.error_pattern, result.abandoned) == (8_257, (), True)
    _assert_same(result, _hard_reference(word, code, 2))
    leaders = grand._LEADERS[spec]
    assert leaders.scanned == 8_257 >= len(leaders.first)


@pytest.mark.parametrize("caps", [
    dict(query_budget=0), dict(max_logistic_weight=-1), dict(max_hamming_weight=-1),
])
def test_orbgrand_rejects_what_the_reference_rejects(caps):
    code = get_code(CRC12)
    word = np.zeros(128, dtype=np.uint8)
    word[7] = 1
    llrs = np.linspace(-2.0, 2.0, 128)
    with pytest.raises(ValueError):
        _orb_reference(word, llrs, code, **caps)
    with pytest.raises(ValueError):
        orbgrand_decode(word, llrs, code, **caps)


@pytest.mark.parametrize("max_weight,budget", [(4, 0), (-1, None), (129, None)])
def test_hard_grand_rejects_what_the_reference_rejects(max_weight, budget):
    code = get_code(CRC12)
    word = np.zeros(128, dtype=np.uint8)
    word[7] = 1
    with pytest.raises(ValueError):
        _hard_reference(word, code, max_weight, budget)
    with pytest.raises(ValueError):
        hard_grand_decode(word, code, max_weight, budget)
