"""Closed-form / semi-analytic error-rate expressions for plotting against
simulation.

The user-1 bit-error probability is a two-term mixture over the
undetected-error event in the SIC reconstruction: with probability p_ue the
interference survives cancellation, otherwise the link is interference-free.
Expectations over fading are evaluated by Monte Carlo on the squared channel
norms.  The channel is named as in the simulator (`config.CHANNELS`), with
each user's path loss; on AWGN the norms are exact, so one sample is taken
whatever `n_samples` says.

The expressions are implemented verbatim, constant factors included; no
attempt is made to recalibrate them against the simulator.  scipy is
imported inside the functions that use it, never at package import (D16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CHANNELS


@dataclass
class TheoryInputs:
    alpha1: float
    sigma2: float
    codeword_len: int
    p_ue: float
    channel: str = "awgn"
    path_loss: tuple[float, float] = (1.0, 1.0)  # (L1, L2)
    n_samples: int = 100_000

    def __post_init__(self):
        if not 0.0 <= self.p_ue <= 1.0:
            raise ValueError(f"p_ue must lie in [0,1], got {self.p_ue}")
        if self.channel not in CHANNELS:
            raise ValueError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


def q_function(x):
    """Gaussian tail probability Q(x) = 0.5 * erfc(x / sqrt(2))."""
    from scipy.special import erfc
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _norms(inputs: TheoryInputs, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Realizations of ||H1 s||^2 and ||H2 s||^2, where ||H1 s1||^2 = ||H1 s2||^2
    for unit-power BPSK: N * L_i on AWGN, and under per-symbol i.i.d.
    CN(0,1) fading L_i times a sum of N unit exponentials."""
    n = inputs.codeword_len
    l1, l2 = inputs.path_loss
    if inputs.channel == "awgn":
        return np.full(1, n * l1, dtype=float), np.full(1, n * l2, dtype=float)
    return l1 * rng.gamma(n, 1.0, inputs.n_samples), l2 * rng.gamma(n, 1.0, inputs.n_samples)


def _mean_q(args: np.ndarray) -> float:
    return float(np.mean(q_function(args)))


def ber_user1(inputs: TheoryInputs, rng: np.random.Generator | None = None) -> float:
    """Near-user bit-error probability: mixture of the residual-interference
    term (weight p_ue) and the interference-free term (weight 1 - p_ue)."""
    if rng is None:
        rng = np.random.default_rng(0)
    g11, _ = _norms(inputs, rng)
    n_sigma2 = inputs.codeword_len * inputs.sigma2

    denom_int = 4.0 * (1.0 - inputs.alpha1) * g11 + n_sigma2
    # degenerate denominators (no noise, no interference) give Q(inf) = 0
    ratio_int = np.divide(
        2.0 * inputs.alpha1 * g11,
        denom_int,
        out=np.full_like(g11, np.inf),
        where=denom_int > 0,
    )
    arg_int = 2.0 * np.sqrt(ratio_int)
    if n_sigma2 > 0:
        arg_clean = 2.0 * np.sqrt(inputs.alpha1 * g11 / n_sigma2)
    else:
        arg_clean = np.full_like(g11, np.inf)
    return inputs.p_ue * _mean_q(arg_int) + (1.0 - inputs.p_ue) * _mean_q(arg_clean)


def ber_user2(inputs: TheoryInputs, rng: np.random.Generator | None = None) -> float:
    """Far-user bit-error probability (single interference-free-style term)."""
    if rng is None:
        rng = np.random.default_rng(0)
    _, g22 = _norms(inputs, rng)
    n_sigma2 = inputs.codeword_len * inputs.sigma2
    if n_sigma2 <= 0:
        return 0.0
    arg = 2.0 * np.sqrt((1.0 - inputs.alpha1) * g22 / n_sigma2)
    return _mean_q(arg)


def bler_upper_bound(ber: float, codeword_len: int, correctable: int) -> float:
    """Block-error bound 1 - sum_{l=0}^{L} C(N,l) p^l (1-p)^(N-l) for a
    decoder that corrects up to L bit errors.

    Computed as the complementary binomial tail summed in the log domain, so
    tiny bounds keep full relative precision.
    """
    n = codeword_len
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must lie in [0,1], got {ber}")
    if not 0 <= correctable <= n:
        raise ValueError(f"correctable bits must lie in [0, {n}], got {correctable}")
    if correctable == n:
        return 0.0
    if ber == 0.0:
        return 0.0
    if ber == 1.0:
        return 1.0
    from scipy.special import gammaln, logsumexp
    ell = np.arange(correctable + 1, n + 1, dtype=float)
    log_terms = (
        gammaln(n + 1.0)
        - gammaln(ell + 1.0)
        - gammaln(n - ell + 1.0)
        + ell * np.log(ber)
        + (n - ell) * np.log1p(-ber)
    )
    return float(min(1.0, np.exp(logsumexp(log_terms))))
