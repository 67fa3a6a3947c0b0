import numpy as np
import pytest

from grandnoma import (
    SingularChannelError,
    awgn_channel,
    bpsk_modulate,
    compute_llrs,
    ebn0_to_sigma2,
    effective_noise_variance,
    equalize,
    hard_demod,
    path_loss,
    propagate,
    rayleigh_channel,
    superimpose,
)
from grandnoma import ScenarioConfig, phy
from grandnoma.phy import ChannelRealization

from oracles import apply_channel, draw_trial_by_parts

SQ34 = np.sqrt(0.75)  # 0.8660...


def test_bpsk_mapping():
    out = bpsk_modulate(np.array([0, 1, 1, 0], dtype=np.uint8))
    assert np.allclose(out, [1, -1, -1, 1])
    assert np.allclose(np.abs(bpsk_modulate(np.zeros(8, dtype=np.uint8))), 1.0)


def test_bpsk_demod_roundtrip():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 64).astype(np.uint8)
    assert np.array_equal(hard_demod(bpsk_modulate(bits)), bits)


def test_superimpose_values():
    s = superimpose(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 0.25)
    assert np.allclose(s, 0.5 + SQ34)          # 1.3660...
    s = superimpose(np.array([1.0 + 0j]), np.array([-1.0 + 0j]), 0.25)
    assert np.allclose(s, 0.5 - SQ34)          # -0.3660...


def test_superimpose_weak_layer_limit():
    rng = np.random.default_rng(1)
    s1 = bpsk_modulate(rng.integers(0, 2, 64))
    s2 = bpsk_modulate(rng.integers(0, 2, 64))
    out = superimpose(s1, s2, 0.01)
    assert np.max(np.abs(out - np.sqrt(0.99) * s2)) <= 0.1 + 1e-12


def test_superimpose_validation():
    one = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        superimpose(one, one, 0.0)      # out of (0,1)
    with pytest.raises(ValueError):
        superimpose(one, np.ones(5, dtype=complex), 0.25)


def test_path_loss_law():
    assert path_loss(1.0, 2.0) == 1.0
    assert path_loss(2.0, 2.0) == pytest.approx(0.25)
    assert path_loss(3.0, 2.0) < path_loss(2.0, 2.0)
    with pytest.raises(ValueError):
        path_loss(0.0, 2.0)


def test_apply_channel_noiseless_identity():
    rng = np.random.default_rng(2)
    s = bpsk_modulate(rng.integers(0, 2, 32))
    ch = awgn_channel(32, distance=1.0)
    assert np.allclose(apply_channel(s, ch, 0.0, rng), s)


def test_apply_channel_distance_attenuation():
    rng = np.random.default_rng(3)
    s = np.ones(16, dtype=complex)
    ch = awgn_channel(16, distance=2.0, exponent=2.0)
    r = apply_channel(s, ch, 0.0, rng)
    assert np.allclose(np.abs(r), 0.5)


def test_noise_power_matches_sigma2():
    rng = np.random.default_rng(4)
    sigma2 = 0.37
    ch = awgn_channel(1_000_000)
    r = apply_channel(np.zeros(1_000_000, dtype=complex), ch, sigma2, rng)
    measured = np.mean(np.abs(r) ** 2)
    assert abs(measured - sigma2) / sigma2 < 0.01


def test_equalize_inverts_channel():
    rng = np.random.default_rng(5)
    s = bpsk_modulate(rng.integers(0, 2, 64))
    ch = rayleigh_channel(64, rng, distance=2.5)
    assert np.allclose(equalize(propagate(s, ch), ch), s)
    flat = awgn_channel(64, distance=1.0)
    assert np.allclose(equalize(s, flat), s)


def test_equalized_noise_scaling():
    rng = np.random.default_rng(6)
    m = 64
    sigma2 = 0.2
    ch = rayleigh_channel(m, rng, distance=1.0)
    n_draws = 20_000
    noise = np.sqrt(sigma2 / 2) * (
        rng.standard_normal((n_draws, m)) + 1j * rng.standard_normal((n_draws, m))
    )
    y_err = noise / (np.sqrt(ch.path_loss) * ch.gains)[None, :]
    measured = np.mean(np.abs(y_err) ** 2, axis=0)
    expected = sigma2 / (ch.path_loss * np.abs(ch.gains) ** 2)
    assert np.allclose(measured, expected, rtol=0.08)


def test_singular_channel_raises():
    ch = ChannelRealization(gains=np.array([1.0, 1e-15], dtype=complex), path_loss=1.0)
    with pytest.raises(SingularChannelError):
        equalize(np.ones(2, dtype=complex), ch)


def test_hard_demod_sign_rule_and_tie():
    assert list(hard_demod(np.array([0.3, -2.0]))) == [0, 1]
    assert list(hard_demod(np.array([0.0]))) == [0]


def test_demod_recovers_dominant_layer():
    # exhaustive over the four BPSK pairs: sign(+-0.5 +- 0.866) follows s2
    for b1 in (0, 1):
        for b2 in (0, 1):
            s = superimpose(
                bpsk_modulate(np.array([b1])), bpsk_modulate(np.array([b2])), 0.25
            )
            assert hard_demod(s)[0] == b2


def test_llr_sign_consistent_with_hard_demod():
    rng = np.random.default_rng(7)
    y = rng.normal(size=200) + 1j * rng.normal(size=200)
    llrs = compute_llrs(y, 0.7, 0.3)
    assert np.array_equal(hard_demod(y), (llrs < 0).astype(np.uint8))
    assert compute_llrs(np.zeros(4, dtype=complex), 1.0, 1.0).tolist() == [0, 0, 0, 0]


def test_llr_distribution_single_user_awgn():
    rng = np.random.default_rng(8)
    amp, sigma2, n = 0.8, 0.5, 400_000
    y = amp + np.sqrt(sigma2 / 2) * rng.standard_normal(n)  # bit 0 sent
    llrs = compute_llrs(y.astype(complex), amp, sigma2)
    mean_expect = 4 * amp ** 2 / sigma2
    var_expect = 8 * amp ** 2 / sigma2
    assert abs(np.mean(llrs) - mean_expect) < 4 * np.sqrt(var_expect / n)
    assert abs(np.var(llrs) - var_expect) / var_expect < 0.02


def test_llr_validation():
    with pytest.raises(ValueError):
        compute_llrs(np.ones(4, dtype=complex), 1.0, 0.0)


def test_effective_noise_variance():
    ch = awgn_channel(4, distance=1.0)
    assert np.allclose(effective_noise_variance(0.1, ch, 0.25), 0.35)
    assert np.allclose(effective_noise_variance(0.1, ch, 0.0), 0.1)
    faded = ChannelRealization(gains=np.array([0.5 + 0j]), path_loss=0.25)
    assert np.allclose(effective_noise_variance(0.1, faded, 0.0), 0.1 / (0.25 * 0.25))
    with pytest.raises(ValueError):
        effective_noise_variance(-0.1, ch, 0.0)


def test_ebn0_conversion():
    assert ebn0_to_sigma2(0.0, 116 / 128) == pytest.approx(128 / 116)
    assert ebn0_to_sigma2(10.0, 0.5) == pytest.approx(ebn0_to_sigma2(0.0, 0.5) / 10)
    assert ebn0_to_sigma2(100.0, 1.0) < 1e-9
    with pytest.raises(ValueError):
        ebn0_to_sigma2(0.0, 0.0)


def test_superposition_power_is_conserved():
    rng = np.random.default_rng(9)
    n = 1_000_000
    s1 = bpsk_modulate(rng.integers(0, 2, n))
    s2 = bpsk_modulate(rng.integers(0, 2, n))
    s = superimpose(s1, s2, 0.25)
    assert abs(np.mean(np.abs(s) ** 2) - 1.0) < 0.01


def test_rayleigh_gain_statistics():
    rng = np.random.default_rng(10)
    ch = rayleigh_channel(1_000_000, rng)
    assert abs(np.mean(np.abs(ch.gains) ** 2) - 1.0) < 0.01


def test_gaussian_approximation_tracks_far_user_raw_ber():
    """Treating the near-user BPSK layer as Gaussian noise predicts the far
    user's pre-decoding BER within x1.5 at 8 dB (interference variance sits
    on the real axis, noise contributes sigma2/2 there)."""
    rng = np.random.default_rng(11)
    sigma2 = ebn0_to_sigma2(8.0, 116 / 128)
    a1, a2 = np.sqrt(0.25), np.sqrt(0.75)
    n = 400_000
    bits1 = rng.integers(0, 2, n)
    bits2 = rng.integers(0, 2, n)
    y = a2 * (1 - 2.0 * bits2) + a1 * (1 - 2.0 * bits1) + np.sqrt(sigma2 / 2) * rng.standard_normal(n)
    simulated = np.mean((y < 0) != bits2)
    from grandnoma import q_function

    predicted = float(q_function(a2 / np.sqrt(0.25 + sigma2 / 2)))
    assert predicted / 1.5 <= simulated <= predicted * 1.5


@pytest.mark.parametrize("users, parts", [(1, 1), (2, 4)])
def test_fading_redraws_like_one_call_per_part(users, parts, monkeypatch):
    """With a floor that most gain vectors miss, `draw_fading` fills its
    parts with the numbers of a redraw loop per user and then one call per
    remaining part, and leaves the stream where that sequence leaves it."""
    monkeypatch.setattr(phy, "GAIN_FLOOR", 0.3)
    m = 16
    redraws = 0
    for seed in range(40):
        rng, ref = np.random.Generator(np.random.Philox(seed)), np.random.Generator(np.random.Philox(seed))
        z = np.empty((parts, 2, m))
        phy.draw_fading(rng, z, users)
        for p in range(parts):
            while True:
                part = ref.standard_normal((2, m))
                gains = (part[0] + 1j * part[1]) * np.sqrt(0.5)
                if p >= users or np.abs(gains).min() >= 0.3:
                    break
                redraws += 1
            assert np.array_equal(z[p], part)
            if p < users:
                assert np.array_equal(phy.fading_gains(z[p]), gains)
        assert rng.standard_normal() == ref.standard_normal()
    assert redraws > 40


class _ChosenNormals:
    """A stand-in generator that hands out `values` in order as its normals,
    counts how many it has handed out, and draws all-zero integers."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_normal(self, size=None, out=None):
        count = out.size if out is not None else int(np.prod(size))
        drawn = self.values[self.used:self.used + count]
        self.used += count
        if out is None:
            return drawn.reshape(size)
        out[...] = drawn.reshape(out.shape)

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)


@pytest.mark.parametrize("symbol, exact, redraws", [
    ((-2.0, 2.0), False, 0),  # every normal at least 2 * floor: the guard passes
    ((1.5, 0.0), True, 0),  # the guard fails, but the gain is about 1.06 * floor
    ((1.3, 0.0), True, 1),  # the gain is about 0.92 * floor: user 2's gains are redrawn
    ((0.9, 0.9), True, 1),  # no normal is zero, but the gain is 0.9 * floor
])
def test_fading_guard_boundary(symbol, exact, redraws, monkeypatch):
    """One symbol of user 2's gain normals, in units of the floor, decides
    whether the exact gain test runs and whether it redraws; either way `z`
    and the normals used are those of `draw_trial_by_parts`."""
    floor = 0.25
    monkeypatch.setattr(phy, "GAIN_FLOOR", floor)
    cfg = ScenarioConfig(channel="rayleigh")
    m = cfg.crc.codeword_len
    base = np.random.default_rng(3)
    values = base.choice([-1.0, 1.0], 10 * m) * base.uniform(2.0, 5.0, 10 * m) * floor
    values[2 * m + 7], values[3 * m + 7] = symbol[0] * floor, symbol[1] * floor  # user 2, symbol 7
    exact_calls = []
    fading_gains = phy.fading_gains
    monkeypatch.setattr(phy, "fading_gains", lambda z: exact_calls.append(1) or fading_gains(z))

    rng, ref = _ChosenNormals(values), _ChosenNormals(values)
    z = np.empty((4, 2, m))
    phy.draw_fading(rng, z, users=2)
    _, _, g1, g2, n1, n2 = draw_trial_by_parts(cfg, ref)
    assert bool(exact_calls) == exact
    assert rng.used == ref.used == (8 + 2 * redraws) * m
    assert np.array_equal(fading_gains(z[0]), g1) and np.array_equal(fading_gains(z[1]), g2)
    scale = np.sqrt(cfg.sigma2 / 2.0)
    assert np.array_equal(scale * (z[2, 0] + 1j * z[2, 1]), n1)
    assert np.array_equal(scale * (z[3, 0] + 1j * z[3, 1]), n2)
