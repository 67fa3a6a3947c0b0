"""End-to-end two-user downlink NOMA trial.

User 2 (far) decodes its own layer directly, treating user 1's layer as
noise.  User 1 (near) first reconstructs user 2's codeword from its own
observation, subtracts it (successive interference cancellation), then
decodes its own layer.  Three scenarios:

- "pure": hard decisions everywhere, no decoding.
- "grand": both users run the configured guess-and-check decoder on their
  own words; the SIC reconstruction stays hard-decision.
- "grand-assist": additionally, the SIC reconstruction itself is corrected
  by the configured decoder before re-modulation and subtraction.

Hard decisions on the superposed signal recover the user-2 layer by sign,
which is valid while alpha2 > alpha1 (the far user's layer dominates the
real axis).

Every stage works on one trial or on a block of trials stacked along
leading axes: the PHY and CRC arithmetic, syndromes included, runs once
over the block, and only the decoders run once per word.  `draw_trial`
draws a block of trials, one per Philox generator, and `run_trial` runs
the block body once over it; a bare generator is a block of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import (
    DECODER_ORBGRAND,
    SCENARIO_GRAND_ASSIST,
    SCENARIO_PURE,
    ScenarioConfig,
)
from .crc import crc_encode, get_code
from .grand import hard_grand_decode, orbgrand_decode
from .phy import (
    ChannelRealization,
    awgn_channel,
    bpsk_modulate,
    compute_llrs,
    draw_fading,
    effective_noise_variance,
    equalize,
    fading_gains,
    hard_demod,
    path_loss,
    propagate,
    rayleigh_channel,  # noqa: F401  (perfbench wraps it here by attribute)
    superimpose,
)


@dataclass
class TrialDraw:
    """All randomness of a block of B trials, drawn up front so that
    scenarios and decoders can be compared on matched streams.  Each field
    has a leading axis of length B, except the AWGN unit gains, which keep
    shape (m,) and broadcast over the block."""

    u1: np.ndarray
    u2: np.ndarray
    ch1: ChannelRealization
    ch2: ChannelRealization
    n1: np.ndarray
    n2: np.ndarray


# One row per trial: error counts (message bits only) and decoder statistics.
OUTCOME = np.dtype([
    ("bit_errors_user1", np.int64), ("bit_errors_user2", np.int64),
    ("block_error_user1", bool), ("block_error_user2", bool),
    ("sic_reconstruction_errors", np.int64), ("undetected_error_user1_assist", bool),
    ("queries_user1", np.int64), ("queries_user2", np.int64), ("queries_assist", np.int64),
    ("abandoned_user1", bool), ("abandoned_user2", bool), ("abandoned_assist", bool),
])


def transmit(u1: np.ndarray, u2: np.ndarray, cfg: ScenarioConfig):
    """Encode both messages and superimpose the modulated codewords.

    Returns (s_sigma, c1, c2).
    """
    c1 = crc_encode(u1, cfg.crc)
    c2 = crc_encode(u2, cfg.crc)
    s1 = bpsk_modulate(c1)
    s2 = bpsk_modulate(c2)
    s_sigma = superimpose(s1, s2, cfg.alpha1)
    return s_sigma, c1, c2


def _decode(
    received: np.ndarray,
    channel: ChannelRealization,
    cfg: ScenarioConfig,
    alpha: float,
    interferer_alpha: float,
    enabled: bool,
):
    """Equalize a (..., N) block of received samples and decode its hard
    decisions, one decoder call per word, or pass them through when `enabled`
    is false.  ORBGRAND's LLRs take the layer's amplitude sqrt(alpha) and
    count a layer of power interferer_alpha as noise.

    Each per-word call gets its entry of one block syndrome pass (D25); the
    calls are the benchmark's seam, timed and re-decoded by its tracer (D6).
    Returns (codewords, queries, abandoned), the last two over leading axes.
    """
    y = equalize(received, channel)
    words = hard_demod(y)
    lead = words.shape[:-1]
    if not enabled:
        return words, np.zeros(lead, dtype=np.int64), np.zeros(lead, dtype=bool)
    code = get_code(cfg.crc)
    rows = words.reshape(-1, words.shape[-1])
    syndromes = code.syndrome(rows).tolist()
    if cfg.decoder == DECODER_ORBGRAND:
        sigma_eff = effective_noise_variance(cfg.sigma2, channel, interferer_alpha)
        llrs = compute_llrs(y, np.sqrt(alpha), sigma_eff).reshape(rows.shape)
        results = [
            orbgrand_decode(word, llr, code, max_logistic_weight=cfg.orb_max_logistic_weight,
                            query_budget=cfg.orb_query_budget, syndrome=syndrome)
            for word, llr, syndrome in zip(rows, llrs, syndromes)
        ]
    else:
        results = [hard_grand_decode(word, code, max_weight=cfg.grand_max_weight, syndrome=syndrome)
                   for word, syndrome in zip(rows, syndromes)]
    return (
        np.reshape([r.codeword for r in results], words.shape),
        np.reshape([r.queries for r in results], lead),
        np.reshape([r.abandoned for r in results], lead),
    )


def receive_user2(received: np.ndarray, ch2: ChannelRealization, cfg: ScenarioConfig):
    """Far-user receiver: equalize, then hard decisions or guess-and-check
    decoding with the near user's layer treated as noise.

    Returns (u2_hat, queries, abandoned).
    """
    codeword, queries, abandoned = _decode(received, ch2, cfg, cfg.alpha2, interferer_alpha=cfg.alpha1,
                                           enabled=cfg.scenario != SCENARIO_PURE)
    return codeword[..., : cfg.crc.message_len].copy(), queries, abandoned


def sic_user1(received: np.ndarray, ch1: ChannelRealization, cfg: ScenarioConfig):
    """Reconstruct user 2's codeword at user 1 and subtract its contribution.

    In "grand-assist" the hard-decision reconstruction is first corrected by
    the configured decoder.  Returns (r_sic, reconstructed, queries, abandoned).
    """
    # Reconstruction LLRs weight reliability by the fade-scaled noise
    # variance alone.  Reconstruction errors sit in fades, so this pins
    # them to the bottom reliability ranks and the search finds the true
    # pattern long before any coincidental codebook neighbor; lumping
    # the own-layer interference into sigma_eff would flatten the
    # ranking and let deep searches return wrong codewords, which then
    # inject interference on otherwise-clean symbols.
    reconstructed, queries, abandoned = _decode(received, ch1, cfg, cfg.alpha2, interferer_alpha=0.0,
                                                enabled=cfg.scenario == SCENARIO_GRAND_ASSIST)
    s_hat = bpsk_modulate(reconstructed)
    r_sic = received - np.sqrt(cfg.alpha2) * propagate(s_hat, ch1)
    return r_sic, reconstructed, queries, abandoned


def receive_user1(received: np.ndarray, ch1: ChannelRealization, cfg: ScenarioConfig):
    """Near-user receiver: SIC, equalize the refined observation, then hard
    decisions or guess-and-check decoding of the own layer.

    Returns (u1_hat, queries, abandoned, sic), sic being `sic_user1`'s last three.
    """
    sic = sic_user1(received, ch1, cfg)
    codeword, queries, abandoned = _decode(sic[0], ch1, cfg, cfg.alpha1, interferer_alpha=0.0,
                                           enabled=cfg.scenario != SCENARIO_PURE)
    return codeword[..., : cfg.crc.message_len].copy(), queries, abandoned, sic[1:]


def draw_trial(
    cfg: ScenarioConfig, rng: np.random.Generator | Iterable[np.random.Generator]
) -> TrialDraw:
    """Draw messages, channels, and noise for a block of trials, one per
    Philox generator, in order; a bare generator is a block of one, and any
    other bit generator raises `ValueError`.

    A sized iterable is consumed once, each generator drawn from completely
    before the next is requested, so it may yield one generator re-keyed for
    every trial.  The draws never depend on scenario or decoder, so matched
    comparisons see identical randomness.  Per trial: the bits of
    `integers(0, 2, 2k)` for both messages, taken as the top bit of each
    half of `random_raw(k)`'s words (the same bits while no half-word is
    buffered, as in every stream the package makes), then one normal draw
    for the Rayleigh gains and the noise (`phy.draw_fading`; DECISIONS.md,
    D4, D6 and D24).
    """
    rngs = [rng] if isinstance(rng, np.random.Generator) else rng
    trials = len(rngs)
    if not trials:
        raise ValueError("draw_trial needs at least one generator")
    k = cfg.crc.message_len
    m = cfg.crc.codeword_len  # BPSK: one bit per symbol
    fading = cfg.channel == "rayleigh"
    raw = np.empty((trials, k), dtype="<u8")  # little-endian, so that each word views as (low, high) halves
    z = np.empty((trials, 4 if fading else 2, 2, m))  # (trial, part, real/imaginary, symbol)
    for b, r in enumerate(rngs):
        if type(r.bit_generator) is not np.random.Philox:
            raise ValueError(f"draw_trial needs Philox generators, got {type(r.bit_generator).__name__}")
        raw[b] = r.bit_generator.random_raw(k)
        if fading:
            draw_fading(r, z[b], users=2)
        else:
            r.standard_normal(out=z[b])
    # the top bits of the low and the high half of each word
    u = (raw.view("<u4") >> 31).astype(np.uint8)
    n = np.sqrt(cfg.sigma2 / 2.0) * (z[:, -2:, 0] + 1j * z[:, -2:, 1])
    if fading:
        ch1 = ChannelRealization(fading_gains(z[:, 0]), path_loss(cfg.d1, cfg.xi))
        ch2 = ChannelRealization(fading_gains(z[:, 1]), path_loss(cfg.d2, cfg.xi))
    else:
        ch1 = awgn_channel(m, cfg.d1, cfg.xi)
        ch2 = awgn_channel(m, cfg.d2, cfg.xi)
    return TrialDraw(u[:, :k], u[:, k:], ch1, ch2, n[:, 0], n[:, 1])


def simulate_trial(cfg: ScenarioConfig, draw: TrialDraw) -> np.ndarray:
    """Deterministic trial body: run both receivers on one set of draws, or
    on a block of them.  Returns an `OUTCOME` array over the leading axes."""
    s_sigma, _, c2 = transmit(draw.u1, draw.u2, cfg)
    r1 = propagate(s_sigma, draw.ch1) + draw.n1
    r2 = propagate(s_sigma, draw.ch2) + draw.n2

    out = np.zeros(draw.u1.shape[:-1], OUTCOME)
    u2_hat, out["queries_user2"], out["abandoned_user2"] = receive_user2(r2, draw.ch2, cfg)
    u1_hat, out["queries_user1"], out["abandoned_user1"], sic = receive_user1(r1, draw.ch1, cfg)
    reconstructed, out["queries_assist"], out["abandoned_assist"] = sic

    out["bit_errors_user1"] = errors1 = np.count_nonzero(u1_hat != draw.u1, axis=-1)
    out["bit_errors_user2"] = errors2 = np.count_nonzero(u2_hat != draw.u2, axis=-1)
    out["block_error_user1"] = errors1 > 0
    out["block_error_user2"] = errors2 > 0
    out["sic_reconstruction_errors"] = recon_errors = np.count_nonzero(reconstructed != c2, axis=-1)
    accepted_wrong = ~out["abandoned_assist"] & (recon_errors > 0)
    out["undetected_error_user1_assist"] = (cfg.scenario == SCENARIO_GRAND_ASSIST) & accepted_wrong
    return out


def run_trial(
    cfg: ScenarioConfig, rng: np.random.Generator | Iterable[np.random.Generator]
) -> np.ndarray:
    """Monte Carlo block: both receivers run once over `draw_trial`'s block.
    Returns an `OUTCOME` array with one row per generator, in order."""
    return simulate_trial(cfg, draw_trial(cfg, rng))
