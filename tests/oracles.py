"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way and shares no
code with the library beyond its tables and constants.
"""

import csv
import itertools
import typing

import numpy as np

from grandnoma import CSV_FIELDS, SweepRecord, phy


def long_division_remainder(message, generator_bits):
    """Bitwise polynomial long division; returns the degree-length remainder."""
    degree = len(generator_bits) - 1
    buf = list(message) + [0] * degree
    for i in range(len(message)):
        if buf[i]:
            for j, g in enumerate(generator_bits):
                buf[i + j] ^= g
    return buf[-degree:]


def brute_codebook(spec):
    """All codewords of a CRC spec by encoding every message via long division."""
    from grandnoma import koopman_to_normal

    gen = list(koopman_to_normal(spec))
    words = []
    for bits in itertools.product((0, 1), repeat=spec.message_len):
        rem = long_division_remainder(bits, gen)
        words.append(np.array(list(bits) + rem, dtype=np.uint8))
    return words


def min_distance_decode(word, codebook):
    """Exhaustive minimum-Hamming-distance decoding; returns (codeword, distance)."""
    best = None
    best_dist = None
    for c in codebook:
        dist = int(np.count_nonzero(word != c))
        if best_dist is None or dist < best_dist:
            best, best_dist = c, dist
    return best, best_dist


def min_weight_codeword(code, max_weight=4):
    """Smallest-weight nonzero codeword, found by meet-in-the-middle on syndromes."""
    n = code.spec.codeword_len
    table = code.position_syndrome_array.tolist()
    for i in range(n):
        if table[i] == 0:
            word = np.zeros(n, dtype=np.uint8)
            word[i] = 1
            return word
    pair_map: dict[int, list[tuple[int, int]]] = {}
    best = None
    for i in range(n):
        for j in range(i + 1, n):
            s = table[i] ^ table[j]
            if s == 0:
                word = np.zeros(n, dtype=np.uint8)
                word[[i, j]] = 1
                return word
            if max_weight >= 4 and best is None:
                for a, b in pair_map.get(s, ()):
                    if len({i, j, a, b}) == 4:
                        best = (a, b, i, j)
                        break
                pair_map.setdefault(s, []).append((i, j))
    # weight 3: a pair whose syndrome equals a single position's
    singles = {table[i]: i for i in range(n)}
    for s, pairs in pair_map.items():
        if s in singles:
            for a, b in pairs:
                if singles[s] not in (a, b):
                    word = np.zeros(n, dtype=np.uint8)
                    word[[a, b, singles[s]]] = 1
                    return word
    if best is not None:
        word = np.zeros(n, dtype=np.uint8)
        word[list(best)] = 1
        return word
    raise RuntimeError("no codeword found within the searched weight")


def check_words(code, words):
    """Vectorized membership test for a (num_words, N) bit matrix."""
    words = np.asarray(words)
    masked = np.where(words != 0, code.position_syndrome_array[None, :], np.uint64(0))
    return np.bitwise_xor.reduce(masked, axis=1) == 0


def apply_channel(symbols, channel, sigma2, rng):
    """r = sqrt(L) * h * s + n with n ~ CN(0, sigma2) per symbol."""
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be >= 0, got {sigma2}")
    m = len(np.asarray(symbols))
    scale = np.sqrt(sigma2 / 2.0)
    noise = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return np.sqrt(channel.path_loss) * channel.gains * np.asarray(symbols) + noise


def draw_trial_by_parts(cfg, rng):
    """One trial's draws with a separate call for each user and part: the
    messages u1 and u2, then for Rayleigh the real and the imaginary gains
    of user 1 and of user 2 (each redrawn while a gain is below
    `grandnoma.phy.GAIN_FLOOR`, read at call time), then
    the real and the imaginary noise of user 1 and of user 2.

    Returns (u1, u2, gains1, gains2, n1, n2); the gains are None for AWGN."""
    k = cfg.crc.message_len
    m = cfg.crc.codeword_len
    u1 = rng.integers(0, 2, size=k).astype(np.uint8)
    u2 = rng.integers(0, 2, size=k).astype(np.uint8)
    gains = [None, None]
    if cfg.channel == "rayleigh":
        for user in range(2):
            while True:
                re = rng.standard_normal(m)
                im = rng.standard_normal(m)
                g = (re + 1j * im) * np.sqrt(0.5)
                if np.abs(g).min() >= phy.GAIN_FLOOR:
                    break
            gains[user] = g
    scale = np.sqrt(cfg.sigma2 / 2.0)
    n1 = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    n2 = scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return u1, u2, gains[0], gains[1], n1, n2


def read_records_csv(path):
    """Parse a CSV written by `write_records` back into records."""
    kinds = typing.get_type_hints(SweepRecord)  # each column parses by its field's type
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path!r}: {reader.fieldnames}")
        return [SweepRecord(**{name: kinds[name](row[name]) for name in CSV_FIELDS}) for row in reader]
