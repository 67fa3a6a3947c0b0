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
from grandnoma.phy import ChannelRealization

from oracles import apply_channel

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
    s = superimpose(np.array([1.0 + 0j]), np.array([1.0 + 0j]), 0.25, 0.75, 1.0)
    assert np.allclose(s, 0.5 + SQ34)          # 1.3660...
    s = superimpose(np.array([1.0 + 0j]), np.array([-1.0 + 0j]), 0.25, 0.75, 1.0)
    assert np.allclose(s, 0.5 - SQ34)          # -0.3660...


def test_superimpose_weak_layer_limit():
    rng = np.random.default_rng(1)
    s1 = bpsk_modulate(rng.integers(0, 2, 64))
    s2 = bpsk_modulate(rng.integers(0, 2, 64))
    out = superimpose(s1, s2, 0.01, 0.99, 1.0)
    assert np.max(np.abs(out - np.sqrt(0.99) * s2)) <= 0.1 + 1e-12


def test_superimpose_validation():
    one = np.ones(4, dtype=complex)
    with pytest.raises(ValueError):
        superimpose(one, one, 0.3, 0.6, 1.0)      # sum != 1
    with pytest.raises(ValueError):
        superimpose(one, one, 0.0, 1.0, 1.0)      # out of (0,1)
    with pytest.raises(ValueError):
        superimpose(one, one, 0.25, 0.75, 0.0)    # nonpositive power
    with pytest.raises(ValueError):
        superimpose(one, np.ones(5, dtype=complex), 0.25, 0.75, 1.0)


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
                bpsk_modulate(np.array([b1])), bpsk_modulate(np.array([b2])), 0.25, 0.75, 1.0
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
    with pytest.raises(ValueError):
        ebn0_to_sigma2(0.0, 1.0, power=-1.0)


def test_superposition_power_is_conserved():
    rng = np.random.default_rng(9)
    n = 1_000_000
    s1 = bpsk_modulate(rng.integers(0, 2, n))
    s2 = bpsk_modulate(rng.integers(0, 2, n))
    s = superimpose(s1, s2, 0.25, 0.75, 1.0)
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
