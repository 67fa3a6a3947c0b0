import itertools

import numpy as np
import pytest

from grandnoma import CrcSpec, crc_check, crc_encode, koopman_to_normal
from grandnoma.crc import get_code

from oracles import brute_codebook, check_words, long_division_remainder

CRC12 = CrcSpec(0x8F3, 116, 128)
TOY3 = CrcSpec(0x5, 4, 7)     # x^3 + x + 1
TOY4 = CrcSpec(0x9, 8, 12)    # x^4 + x + 1


def test_koopman_expansion_crc12():
    coeffs = koopman_to_normal(CRC12)
    # x^12 + x^8 + x^7 + x^6 + x^5 + x^2 + x + 1; residual (normal) form 0x1e7
    assert list(coeffs) == [1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1]
    residual = int("".join(map(str, coeffs[1:])), 2)
    assert residual == 0x1E7


def test_koopman_expansion_small():
    assert list(koopman_to_normal(CrcSpec(0x1, 3, 4))) == [1, 1]          # parity, x + 1
    assert list(koopman_to_normal(TOY3)) == [1, 0, 1, 1]                   # x^3 + x + 1


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        CrcSpec(0x3, 5, 9)     # bit length 2, degree 4: top bit unset
    with pytest.raises(ValueError):
        CrcSpec(0x5, 4, 4)     # degree 0
    with pytest.raises(ValueError):
        CrcSpec(0x5, 0, 3)     # empty message
    with pytest.raises(ValueError, match="must be positive, got -0x8f3"):
        CrcSpec(-0x8F3, 116, 128)  # bit length 12 on its magnitude


def test_zero_message_encodes_to_zero_codeword():
    word = crc_encode(np.zeros(116, dtype=np.uint8), CRC12)
    assert word.shape == (128,)
    assert not word.any()
    assert crc_check(word, CRC12)


def test_syndrome_is_a_python_int_and_zero_for_no_set_bit():
    code = get_code(CRC12)
    zero = code.syndrome(np.zeros(128, dtype=np.uint8))
    assert type(zero) is int and zero == 0
    one = np.zeros(128, dtype=np.uint8)
    one[-1] = 1
    last = code.syndrome(one)
    assert type(last) is int and last == 1  # x^0 is its own remainder


@pytest.mark.parametrize("spec", [TOY3, CrcSpec(0xA6, 57, 65), CRC12, CrcSpec(0x82608EDB, 96, 128)])
def test_block_syndromes_equal_the_per_word_syndromes(spec):
    """One pass over a (..., n) block gives each word's syndrome, as one
    call per word and the long-division remainder of the word do; bool and
    uint8 words agree, and a 32-bit CRC keeps its uint32 table."""
    code = get_code(spec)
    n, k = spec.codeword_len, spec.message_len
    gen = list(koopman_to_normal(spec))
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2, (2, 3, n)).astype(np.uint8)
    words[0, 0] = crc_encode(words[0, 0, :k], spec)
    rows = words.reshape(-1, n)
    per_word = [code.syndrome(word) for word in rows]
    remainders = [np.array(long_division_remainder(list(w[:k]), gen)) ^ w[k:] for w in rows]
    assert per_word == [int("".join(map(str, r)), 2) for r in remainders]
    assert per_word[0] == 0 and all(type(s) is int for s in per_word)
    for block in (words[0, 0], words[1, 2], rows, words):
        for bits in (block, block.astype(bool)):
            got = code.syndrome(bits)
            if block.ndim == 1:
                assert type(got) is int and got == code.syndrome(block)
            else:
                assert got.shape == block.shape[:-1] and got.dtype == code.position_syndrome_array.dtype
                assert got.ravel().tolist() == per_word[: got.size]
    if spec.degree == 32:
        assert code.position_syndrome_array.dtype == np.uint32
    for bad in (np.zeros(n - 1, np.uint8), np.zeros((2, n + 1), np.uint8), np.uint8(1)):
        with pytest.raises(ValueError, match=f"length {n}"):
            code.syndrome(bad)


def test_encode_check_roundtrip_and_systematic():
    rng = np.random.default_rng(1)
    for _ in range(20):
        msg = rng.integers(0, 2, 116).astype(np.uint8)
        word = crc_encode(msg, CRC12)
        assert crc_check(word, CRC12)
        assert np.array_equal(word[:116], msg)


def test_toy_remainders_match_long_division_oracle():
    gen = list(koopman_to_normal(TOY3))
    # frozen values computed with the long-division oracle
    assert long_division_remainder((1, 0, 1, 1), gen) == [0, 0, 0]
    assert long_division_remainder((1, 1, 0, 1), gen) == [0, 0, 1]
    for bits in itertools.product((0, 1), repeat=4):
        word = crc_encode(np.array(bits, dtype=np.uint8), TOY3)
        assert list(word[4:]) == long_division_remainder(bits, gen)


def test_crc12_remainders_match_long_division_oracle():
    gen = list(koopman_to_normal(CRC12))
    rng = np.random.default_rng(2)
    for _ in range(50):
        msg = rng.integers(0, 2, 116).astype(np.uint8)
        word = crc_encode(msg, CRC12)
        assert list(word[116:]) == long_division_remainder(list(msg), gen)


def test_every_toy_codeword_checks_true():
    code = get_code(TOY4)
    for bits in itertools.product((0, 1), repeat=8):
        assert code.check(crc_encode(np.array(bits, dtype=np.uint8), TOY4))


def test_single_bit_flips_always_detected():
    rng = np.random.default_rng(3)
    word = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
    for pos in range(128):
        flipped = word.copy()
        flipped[pos] ^= 1
        assert not crc_check(flipped, CRC12)


def test_random_word_acceptance_rate_is_two_to_minus_degree():
    rng = np.random.default_rng(4)
    n_words = 1_000_000
    words = rng.integers(0, 2, size=(n_words, 128), dtype=np.uint8)
    accepted = int(check_words(get_code(CRC12), words).sum())
    p = 2.0 ** -12
    sigma = np.sqrt(p * (1 - p) / n_words)
    assert abs(accepted / n_words - p) <= 3 * sigma


def test_linearity_exhaustive_on_toy_code():
    codebook = brute_codebook(TOY3)
    code = get_code(TOY3)
    for a in codebook:
        for b in codebook:
            assert code.check(a ^ b)


def test_linearity_random_on_crc12():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        b = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        assert crc_check(a ^ b, CRC12)


def test_injectivity_exhaustive_on_toy_code():
    words = {bytes(crc_encode(np.array(bits, dtype=np.uint8), TOY4))
             for bits in itertools.product((0, 1), repeat=8)}
    assert len(words) == 2 ** 8


def test_undetectable_error_iff_error_is_codeword():
    rng = np.random.default_rng(6)
    for _ in range(300):
        c = crc_encode(rng.integers(0, 2, 116).astype(np.uint8), CRC12)
        e = rng.integers(0, 2, 128).astype(np.uint8)
        assert crc_check(c ^ e, CRC12) == crc_check(e, CRC12)


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        crc_encode(np.zeros(10, dtype=np.uint8), CRC12)
    with pytest.raises(ValueError):
        crc_check(np.zeros(10, dtype=np.uint8), CRC12)


def test_codebook_matches_bruteforce_on_toy_code():
    codebook = {bytes(w) for w in brute_codebook(TOY4)}
    encoded = {bytes(crc_encode(np.array(b, dtype=np.uint8), TOY4))
               for b in itertools.product((0, 1), repeat=8)}
    assert encoded == codebook


@pytest.mark.parametrize("spec", [CRC12, TOY3, CrcSpec(0xA6, 57, 65), CrcSpec(0x8F3, 300, 312)])
def test_encode_of_a_message_block_matches_long_division(spec):
    rng = np.random.default_rng(8)
    k = spec.message_len
    gen = list(koopman_to_normal(spec))
    messages = rng.integers(0, 2, (3, 5, k)).astype(np.uint8)
    words = crc_encode(messages, spec)
    assert words.shape == (3, 5, spec.codeword_len) and words.dtype == np.uint8
    for msg, word in zip(messages.reshape(-1, k), words.reshape(-1, spec.codeword_len)):
        assert list(word) == list(msg) + long_division_remainder(list(msg), gen)
        assert np.array_equal(crc_encode(msg, spec), word)
    with pytest.raises(ValueError):
        crc_encode(np.zeros((4, k - 1), dtype=np.uint8), spec)
    with pytest.raises(ValueError):
        crc_encode(np.uint8(1), spec)
