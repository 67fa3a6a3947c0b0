"""Physical layer: BPSK, power-domain superposition, fading channel, LLRs.

Conventions, fixed once for the whole package:

- BPSK maps bit 0 -> +1 and bit 1 -> -1 on the real axis (unit power).
- Noise variance `sigma2` is the *total* complex variance per symbol (N0);
  real and imaginary parts carry sigma2/2 each.
- Path loss is d^(-xi) with distance d in meters (d > 0), so the 1 m
  reference distance is lossless.
- Eb/N0 references the total transmit power P and includes the 1/R code-rate
  normalization: sigma2 = P / (q * R * 10^(EbN0_dB/10)).  Energy is accounted
  at the transmitter, so path loss shows up as received-signal attenuation,
  not as an Eb adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAIN_FLOOR = 1e-12


class SingularChannelError(RuntimeError):
    """A fading gain is numerically zero; the trial should be redrawn."""


def path_loss(distance: float, exponent: float) -> float:
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return distance ** (-exponent)


@dataclass
class ChannelRealization:
    """Per-symbol complex gains plus the scalar path-loss factor for one user.

    `gains` has shape (m,) for one trial, or (B, m) for a block of B trials
    at one operating point, which share the path loss; gains of shape (m,)
    broadcast over a block."""

    gains: np.ndarray
    path_loss: float


def awgn_channel(num_symbols: int, distance: float = 1.0, exponent: float = 2.0) -> ChannelRealization:
    """No fading: all gains equal 1."""
    return ChannelRealization(
        gains=np.ones(num_symbols, dtype=np.complex128),
        path_loss=path_loss(distance, exponent),
    )


def rayleigh_channel(
    num_symbols: int,
    rng: np.random.Generator,
    distance: float = 1.0,
    exponent: float = 2.0,
) -> ChannelRealization:
    """Per-symbol i.i.d. CN(0,1) gains; redraws the vector on a degenerate
    gain (`draw_fading`)."""
    z = np.empty((1, 2, num_symbols))
    draw_fading(rng, z, users=1)
    return ChannelRealization(gains=fading_gains(z[0]), path_loss=path_loss(distance, exponent))


def fading_gains(z: np.ndarray) -> np.ndarray:
    """CN(0,1) gains from normals of shape (..., 2, m): real parts, then
    imaginary parts."""
    return (z[..., 0, :] + 1j * z[..., 1, :]) * np.sqrt(0.5)


def draw_fading(rng: np.random.Generator, z: np.ndarray, users: int) -> None:
    """Fill `z`, of shape (parts, 2, m), with normals: the fading gains of
    `users` users (`fading_gains(z[:users])`), then the other parts.

    The parts are drawn in order, 2m normals each.  A user's gains are
    redrawn from the next 2m normals while one of them is below
    `GAIN_FLOOR`, read at call time, and every later part moves up by as
    many.  Without a redraw one normal draw fills `z`: normals keep no state
    between calls, so it gives the numbers of a call per part
    (DECISIONS.md, D6).  As |h| >= max(|re|, |im|) / sqrt(2), gain normals all
    of magnitude >= 2 * GAIN_FLOOR pass; only otherwise are gains tested (D18).
    """
    rng.standard_normal(out=z)
    if np.abs(z[:users]).min() >= 2 * GAIN_FLOOR:
        return
    user = 0
    while user < users:
        if np.abs(fading_gains(z[user])).min() >= GAIN_FLOOR:
            user += 1
        else:  # drop the user's gains: later parts move up, the next 2m normals fill the last
            z[user:-1] = z[user + 1:]
            rng.standard_normal(out=z[-1])


def bpsk_modulate(bits: np.ndarray) -> np.ndarray:
    """Bit 0 -> +1, bit 1 -> -1."""
    bits = np.asarray(bits)
    return (1.0 - 2.0 * bits).astype(np.complex128)


def superimpose(s1: np.ndarray, s2: np.ndarray, alpha1: float, alpha2: float, power: float) -> np.ndarray:
    """Power-domain superposition sqrt(alpha1*P)*s1 + sqrt(alpha2*P)*s2."""
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise ValueError(f"power allocations must lie in (0,1), got {alpha1}, {alpha2}")
    if abs(alpha1 + alpha2 - 1.0) > 1e-9:
        raise ValueError(f"power allocations must sum to 1, got {alpha1} + {alpha2}")
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    s1 = np.asarray(s1)
    s2 = np.asarray(s2)
    if s1.shape != s2.shape:
        raise ValueError(f"symbol blocks differ in shape: {s1.shape} vs {s2.shape}")
    return np.sqrt(alpha1 * power) * s1 + np.sqrt(alpha2 * power) * s2


def propagate(symbols: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Apply fading and path loss without noise: sqrt(L) * h * s."""
    return np.sqrt(channel.path_loss) * channel.gains * np.asarray(symbols)


def equalize(received: np.ndarray, channel: ChannelRealization) -> np.ndarray:
    """Zero-forcing with perfect CSI: y = r / (sqrt(L) * h)."""
    if np.abs(channel.gains).min() < GAIN_FLOOR:
        raise SingularChannelError("fading gain below 1e-12")
    return np.asarray(received) / (np.sqrt(channel.path_loss) * channel.gains)


def hard_demod(symbols: np.ndarray) -> np.ndarray:
    """Sign rule: bit 0 if Re(y) >= 0 else 1."""
    return (np.real(np.asarray(symbols)) < 0).astype(np.uint8)


def compute_llrs(symbols: np.ndarray, amplitude: float, effective_sigma2) -> np.ndarray:
    """LLR = 4 * amplitude * Re(y) / sigma2_eff, positive favoring bit 0.

    `effective_sigma2` may be a scalar or a per-symbol vector (post-equalization
    noise plus any interference treated as Gaussian).
    """
    sigma2 = np.asarray(effective_sigma2, dtype=float)
    if np.any(sigma2 <= 0):
        raise ValueError("effective_sigma2 must be positive")
    return 4.0 * amplitude * np.real(np.asarray(symbols)) / sigma2


def effective_noise_variance(
    sigma2: float,
    channel: ChannelRealization,
    interferer_power: float = 0.0,
) -> np.ndarray:
    """Per-symbol noise variance seen on equalized samples.

    sigma2_eff[m] = sigma2 / (L * |h_m|^2) + interferer_power, where the
    interferer term models an un-cancelled unit-power BPSK layer as noise.
    """
    if sigma2 < 0 or interferer_power < 0:
        raise ValueError("sigma2 and interferer_power must be >= 0")
    gain2 = channel.path_loss * np.abs(channel.gains) ** 2
    return sigma2 / gain2 + interferer_power


def ebn0_to_sigma2(ebn0_db: float, rate: float, power: float = 1.0, bits_per_symbol: int = 1) -> float:
    """sigma2 = P / (q * R * 10^(EbN0_dB/10))."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if power <= 0:
        raise ValueError(f"power must be positive, got {power}")
    return power / (bits_per_symbol * rate * 10.0 ** (ebn0_db / 10.0))
