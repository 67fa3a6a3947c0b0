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
leading axes: the PHY and CRC arithmetic runs once over the block, and only
the decoders run once per word.  `run_trial` draws each trial from its own
generator and runs the block body once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

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
    effective_noise_variance,
    equalize,
    hard_demod,
    propagate,
    rayleigh_channel,
    superimpose,
)

__all__ = [
    "TrialDraw",
    "SicResult",
    "ReceiverStats",
    "TrialOutcome",
    "transmit",
    "receive_user2",
    "sic_user1",
    "receive_user1",
    "draw_trial",
    "simulate_trial",
    "run_trial",
]


@dataclass
class TrialDraw:
    """All randomness of one trial, drawn up front so that scenarios and
    decoders can be compared on matched streams.  A block of B trials holds
    the same fields with a leading axis of length B."""

    u1: np.ndarray
    u2: np.ndarray
    ch1: ChannelRealization
    ch2: ChannelRealization
    n1: np.ndarray
    n2: np.ndarray


@dataclass
class SicResult:
    reconstructed: np.ndarray
    queries: np.ndarray
    abandoned: np.ndarray


@dataclass
class ReceiverStats:
    queries: np.ndarray
    abandoned: np.ndarray
    sic: SicResult | None = None


@dataclass
class TrialOutcome:
    """Per-trial error counts (message bits only) and decoder statistics:
    scalars for one trial, arrays over the trials of a block."""

    bit_errors_user1: int
    bit_errors_user2: int
    block_error_user1: bool
    block_error_user2: bool
    sic_reconstruction_errors: int
    undetected_error_user1_assist: bool
    queries_user1: int
    queries_user2: int
    queries_assist: int
    abandoned_user1: bool
    abandoned_user2: bool
    abandoned_assist: bool


def transmit(u1: np.ndarray, u2: np.ndarray, cfg: ScenarioConfig):
    """Encode both messages and superimpose the modulated codewords.

    Returns (s_sigma, c1, c2).
    """
    c1 = crc_encode(u1, cfg.crc)
    c2 = crc_encode(u2, cfg.crc)
    s1 = bpsk_modulate(c1)
    s2 = bpsk_modulate(c2)
    s_sigma = superimpose(s1, s2, cfg.alpha1, cfg.alpha2, cfg.power)
    return s_sigma, c1, c2


def _decode(
    words: np.ndarray,
    y: np.ndarray,
    channel: ChannelRealization,
    cfg: ScenarioConfig,
    amplitude: float,
    interferer_power: float,
    enabled: bool,
):
    """Decode every word of a (..., N) block, one decoder call per word, or
    pass the words through when `enabled` is false.

    Returns (codewords, queries, abandoned), the last two over the leading
    axes.
    """
    lead = words.shape[:-1]
    if not enabled:
        return words, np.zeros(lead, dtype=np.int64), np.zeros(lead, dtype=bool)
    code = get_code(cfg.crc)
    rows = words.reshape(-1, words.shape[-1])
    if cfg.decoder == DECODER_ORBGRAND:
        sigma_eff = effective_noise_variance(cfg.sigma2, channel, interferer_power)
        llrs = compute_llrs(y, amplitude, sigma_eff).reshape(rows.shape)
        results = [
            orbgrand_decode(word, llr, code, max_logistic_weight=cfg.orb_max_logistic_weight,
                            query_budget=cfg.orb_query_budget)
            for word, llr in zip(rows, llrs)
        ]
    else:
        results = [hard_grand_decode(word, code, max_weight=cfg.grand_max_weight) for word in rows]
    return (
        np.reshape([r.codeword for r in results], words.shape),
        np.reshape([r.queries for r in results], lead),
        np.reshape([r.abandoned for r in results], lead),
    )


def receive_user2(received: np.ndarray, ch2: ChannelRealization, cfg: ScenarioConfig):
    """Far-user receiver: equalize, then hard decisions or guess-and-check
    decoding with the near user's layer treated as noise.

    Returns (u2_hat, ReceiverStats).
    """
    y = equalize(received, ch2)
    codeword, queries, abandoned = _decode(
        hard_demod(y), y, ch2, cfg,
        amplitude=np.sqrt(cfg.alpha2 * cfg.power),
        interferer_power=cfg.alpha1 * cfg.power,
        enabled=cfg.scenario != SCENARIO_PURE,
    )
    return codeword[..., : cfg.crc.message_len].copy(), ReceiverStats(queries, abandoned)


def sic_user1(received: np.ndarray, ch1: ChannelRealization, cfg: ScenarioConfig):
    """Reconstruct user 2's codeword at user 1 and subtract its contribution.

    In "grand-assist" the hard-decision reconstruction is first corrected by
    the configured decoder.  Returns (r_sic, SicResult).
    """
    y = equalize(received, ch1)
    # Reconstruction LLRs weight reliability by the fade-scaled noise
    # variance alone.  Reconstruction errors sit in fades, so this pins
    # them to the bottom reliability ranks and the search finds the true
    # pattern long before any coincidental codebook neighbor; lumping
    # the own-layer interference into sigma_eff would flatten the
    # ranking and let deep searches return wrong codewords, which then
    # inject interference on otherwise-clean symbols.
    reconstructed, queries, abandoned = _decode(
        hard_demod(y), y, ch1, cfg,
        amplitude=np.sqrt(cfg.alpha2 * cfg.power),
        interferer_power=0.0,
        enabled=cfg.scenario == SCENARIO_GRAND_ASSIST,
    )
    s_hat = bpsk_modulate(reconstructed)
    r_sic = received - np.sqrt(cfg.alpha2 * cfg.power) * propagate(s_hat, ch1)
    return r_sic, SicResult(reconstructed, queries, abandoned)


def receive_user1(received: np.ndarray, ch1: ChannelRealization, cfg: ScenarioConfig):
    """Near-user receiver: SIC, equalize the refined observation, then hard
    decisions or guess-and-check decoding of the own layer.

    Returns (u1_hat, ReceiverStats); stats.sic carries the reconstruction.
    """
    r_sic, sic = sic_user1(received, ch1, cfg)
    y = equalize(r_sic, ch1)
    codeword, queries, abandoned = _decode(
        hard_demod(y), y, ch1, cfg,
        amplitude=np.sqrt(cfg.alpha1 * cfg.power),
        interferer_power=0.0,
        enabled=cfg.scenario != SCENARIO_PURE,
    )
    return codeword[..., : cfg.crc.message_len].copy(), ReceiverStats(queries, abandoned, sic=sic)


def draw_trial(cfg: ScenarioConfig, rng: np.random.Generator) -> TrialDraw:
    """Draw messages, channels, and noise in a fixed order.

    The number and order of draws depends only on the channel kind and block
    sizes, never on scenario or decoder, so matched comparisons across
    scenarios see identical randomness.  Both messages come from one integer
    draw and all four noise parts from one normal draw; these give the same
    numbers as a call per user and part (DECISIONS.md, D4).
    """
    k = cfg.crc.message_len
    m = cfg.crc.codeword_len  # BPSK: one bit per symbol
    u = rng.integers(0, 2, size=2 * k).astype(np.uint8)
    if cfg.channel == "rayleigh":
        ch1 = rayleigh_channel(m, rng, cfg.d1, cfg.xi)
        ch2 = rayleigh_channel(m, rng, cfg.d2, cfg.xi)
    else:
        ch1 = awgn_channel(m, cfg.d1, cfg.xi)
        ch2 = awgn_channel(m, cfg.d2, cfg.xi)
    z = rng.standard_normal(4 * m).reshape(2, 2, m)  # (user, real/imaginary, symbol)
    n1, n2 = np.sqrt(cfg.sigma2 / 2.0) * (z[:, 0] + 1j * z[:, 1])
    return TrialDraw(u[:k], u[k:], ch1, ch2, n1, n2)


def _stack(draws: list[TrialDraw]) -> TrialDraw:
    """The draws of one operating point as one block with a leading trial axis."""

    def stacked(name: str) -> np.ndarray:
        return np.array([getattr(d, name) for d in draws])

    def channel(name: str) -> ChannelRealization:
        gains = np.array([getattr(d, name).gains for d in draws])
        return ChannelRealization(gains, getattr(draws[0], name).path_loss)

    return TrialDraw(
        stacked("u1"), stacked("u2"), channel("ch1"), channel("ch2"), stacked("n1"), stacked("n2")
    )


def simulate_trial(cfg: ScenarioConfig, draw: TrialDraw) -> TrialOutcome:
    """Deterministic trial body: run both receivers on one set of draws, or
    on a block of them."""
    s_sigma, _, c2 = transmit(draw.u1, draw.u2, cfg)
    r1 = propagate(s_sigma, draw.ch1) + draw.n1
    r2 = propagate(s_sigma, draw.ch2) + draw.n2

    u2_hat, stats2 = receive_user2(r2, draw.ch2, cfg)
    u1_hat, stats1 = receive_user1(r1, draw.ch1, cfg)
    sic = stats1.sic

    errors1 = np.count_nonzero(u1_hat != draw.u1, axis=-1)
    errors2 = np.count_nonzero(u2_hat != draw.u2, axis=-1)
    recon_errors = np.count_nonzero(sic.reconstructed != c2, axis=-1)
    undetected = (cfg.scenario == SCENARIO_GRAND_ASSIST) & ~sic.abandoned & (recon_errors > 0)
    return TrialOutcome(
        bit_errors_user1=errors1,
        bit_errors_user2=errors2,
        block_error_user1=errors1 > 0,
        block_error_user2=errors2 > 0,
        sic_reconstruction_errors=recon_errors,
        undetected_error_user1_assist=undetected,
        queries_user1=stats1.queries,
        queries_user2=stats2.queries,
        queries_assist=sic.queries,
        abandoned_user1=stats1.abandoned,
        abandoned_user2=stats2.abandoned,
        abandoned_assist=sic.abandoned,
    )


def run_trial(
    cfg: ScenarioConfig, rng: np.random.Generator | Sequence[np.random.Generator]
) -> TrialOutcome:
    """Monte Carlo blocks: draw each trial from its own generator, then run
    both receivers once over the stacked draws.

    One generator gives one trial and a TrialOutcome of scalars.  A sequence
    of generators gives a TrialOutcome of per-trial arrays, in generator
    order, equal to the single-generator outcomes of the same generators.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    if not rngs:
        raise ValueError("run_trial needs at least one generator")
    block = simulate_trial(cfg, _stack([draw_trial(cfg, r) for r in rngs]))
    if not single:
        return block
    return TrialOutcome(**{f.name: getattr(block, f.name)[0].item() for f in dataclasses.fields(block)})
