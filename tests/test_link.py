import dataclasses

import numpy as np
import pytest
from scipy.stats import binom

from grandnoma import (
    CrcSpec,
    ScenarioConfig,
    bpsk_modulate,
    crc_encode,
    derive_trial_rng,
    run_trial,
    sic_user1,
    transmit,
)
from grandnoma.crc import get_code
from grandnoma.link import TrialOutcome, draw_trial, simulate_trial
from grandnoma.phy import equalize, hard_demod, propagate, rayleigh_channel

from oracles import draw_trial_by_parts, min_weight_codeword

ALL_MODES = [
    ("pure", "grand"),
    ("grand", "grand"),
    ("grand", "orbgrand"),
    ("grand-assist", "grand"),
    ("grand-assist", "orbgrand"),
]


def test_transmit_zero_messages():
    cfg = ScenarioConfig()
    k = cfg.crc.message_len
    s, c1, c2 = transmit(np.zeros(k, np.uint8), np.zeros(k, np.uint8), cfg)
    assert s.shape == (128,)
    assert np.allclose(s, 0.5 + np.sqrt(0.75))
    assert not c1.any() and not c2.any()


def test_transmit_power():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(0)
    k = cfg.crc.message_len
    total = 0.0
    for _ in range(200):
        s, _, _ = transmit(
            rng.integers(0, 2, k).astype(np.uint8),
            rng.integers(0, 2, k).astype(np.uint8),
            cfg,
        )
        total += np.mean(np.abs(s) ** 2)
    assert abs(total / 200 - 1.0) < 0.01


@pytest.mark.parametrize("scenario,decoder", ALL_MODES)
def test_noiseless_trials_are_error_free(scenario, decoder):
    cfg = ScenarioConfig(scenario=scenario, decoder=decoder, channel="rayleigh", ebn0_db=120.0)
    for i in range(5):
        out = run_trial(cfg, derive_trial_rng(7, 0, i))
        assert out.bit_errors_user1 == 0
        assert out.bit_errors_user2 == 0
        assert not out.block_error_user1 and not out.block_error_user2
        assert out.sic_reconstruction_errors == 0
        assert not out.undetected_error_user1_assist


def test_perfect_sic_residual_is_zero():
    cfg = ScenarioConfig(channel="rayleigh", ebn0_db=10.0)
    rng = np.random.default_rng(1)
    for i in range(20):
        draw = draw_trial(cfg, derive_trial_rng(3, 0, i))
        s_sigma, _, c2 = transmit(draw.u1, draw.u2, cfg)
        r1 = propagate(s_sigma, draw.ch1) + draw.n1
        s1 = bpsk_modulate(crc_encode(draw.u1, cfg.crc))
        # substitute the true interfering layer
        r_sic = r1 - np.sqrt(cfg.alpha2 * cfg.power) * propagate(bpsk_modulate(c2), draw.ch1)
        residual = r_sic - (np.sqrt(cfg.alpha1 * cfg.power) * propagate(s1, draw.ch1) + draw.n1)
        assert np.max(np.abs(residual)) < 1e-12


def test_assist_undetected_error_injection():
    """An error pattern that is itself a codeword passes the reconstruction
    decode unchanged; the cancellation then leaves a residual of magnitude
    2*sqrt(alpha2*P*L)*|h| exactly on the flipped symbols."""
    cfg = ScenarioConfig(scenario="grand-assist", decoder="grand", channel="rayleigh", ebn0_db=30.0)
    code = get_code(cfg.crc)
    e = min_weight_codeword(code)
    assert code.check(e) and e.any()

    rng = np.random.default_rng(2)
    k = cfg.crc.message_len
    u1 = rng.integers(0, 2, k).astype(np.uint8)
    u2 = rng.integers(0, 2, k).astype(np.uint8)
    s_sigma, c1, c2 = transmit(u1, u2, cfg)
    ch1 = rayleigh_channel(cfg.crc.codeword_len, rng)
    a2 = np.sqrt(cfg.alpha2 * cfg.power)
    s2 = bpsk_modulate(c2)
    # craft noise that flips the far-user layer exactly at the codeword error
    n1 = -2.0 * a2 * propagate(s2, ch1) * e
    r1 = propagate(s_sigma, ch1) + n1

    recon = hard_demod(equalize(r1, ch1))
    assert np.array_equal(recon, c2 ^ e)

    r_sic, sic = sic_user1(r1, ch1, cfg)
    assert not sic.abandoned
    assert sic.queries == 1  # accepted immediately: the corrupted word is a codeword
    assert np.array_equal(sic.reconstructed, c2 ^ e)

    residual = r_sic - (np.sqrt(cfg.alpha1 * cfg.power) * propagate(bpsk_modulate(c1), ch1) + n1)
    magnitude = np.abs(residual)
    expected = 2.0 * a2 * np.sqrt(ch1.path_loss) * np.abs(ch1.gains)
    flipped = e.astype(bool)
    assert np.allclose(magnitude[flipped], expected[flipped])
    assert np.max(magnitude[~flipped]) < 1e-12


def test_undetected_flag_bookkeeping():
    cfg = ScenarioConfig(scenario="grand-assist", decoder="grand", channel="rayleigh", ebn0_db=6.0)
    seen_undetected = False
    for i in range(400):
        out = run_trial(cfg, derive_trial_rng(11, 0, i))
        if out.undetected_error_user1_assist:
            seen_undetected = True
            assert out.sic_reconstruction_errors > 0
            assert not out.abandoned_assist
    assert seen_undetected  # at this noise level wrong reconstructions do occur


def test_non_assist_scenarios_never_flag_undetected():
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=6.0)
    for i in range(50):
        out = run_trial(cfg, derive_trial_rng(12, 0, i))
        assert not out.undetected_error_user1_assist
        assert out.queries_assist == 0


def test_zero_guess_budget_reduces_to_pure():
    base = dict(channel="rayleigh", ebn0_db=12.0)
    pure = ScenarioConfig(scenario="pure", **base)
    hard0 = ScenarioConfig(scenario="grand", decoder="grand", grand_max_weight=0, **base)
    orb1 = ScenarioConfig(scenario="grand", decoder="orbgrand", orb_query_budget=1, **base)
    for i in range(60):
        ref = run_trial(pure, derive_trial_rng(13, 0, i))
        for cfg in (hard0, orb1):
            out = run_trial(cfg, derive_trial_rng(13, 0, i))
            assert out.bit_errors_user1 == ref.bit_errors_user1
            assert out.bit_errors_user2 == ref.bit_errors_user2


def test_trials_are_deterministic():
    cfg = ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=14.0)
    a = run_trial(cfg, derive_trial_rng(21, 3, 5))
    b = run_trial(cfg, derive_trial_rng(21, 3, 5))
    assert a == b
    # distinct trial indices give distinct draws; their outcomes may still coincide
    d5 = draw_trial(cfg, derive_trial_rng(21, 3, 5))
    d6 = draw_trial(cfg, derive_trial_rng(21, 3, 6))
    assert not np.array_equal(d5.u1, d6.u1)
    assert not np.array_equal(d5.n1, d6.n1) and not np.array_equal(d5.n2, d6.n2)


def test_matched_draws_across_scenarios():
    base = dict(decoder="grand", channel="rayleigh", ebn0_db=10.0)
    cfg_a = ScenarioConfig(scenario="pure", **base)
    cfg_b = ScenarioConfig(scenario="grand-assist", **base)
    da = draw_trial(cfg_a, derive_trial_rng(5, 0, 9))
    db = draw_trial(cfg_b, derive_trial_rng(5, 0, 9))
    assert np.array_equal(da.u1, db.u1) and np.array_equal(da.u2, db.u2)
    assert np.array_equal(da.ch1.gains, db.ch1.gains)
    assert np.array_equal(da.n1, db.n1) and np.array_equal(da.n2, db.n2)


def test_outcome_fields_complete():
    cfg = ScenarioConfig(scenario="grand-assist", decoder="grand", ebn0_db=8.0)
    out = simulate_trial(cfg, draw_trial(cfg, derive_trial_rng(1, 0, 0)))
    values = dataclasses.asdict(out)
    assert set(values) == {
        "bit_errors_user1", "bit_errors_user2", "block_error_user1", "block_error_user2",
        "sic_reconstruction_errors", "undetected_error_user1_assist",
        "queries_user1", "queries_user2", "queries_assist",
        "abandoned_user1", "abandoned_user2", "abandoned_assist",
    }
    assert out.bit_errors_user1 <= cfg.crc.message_len
    assert out.queries_user1 >= 1 and out.queries_user2 >= 1


def test_equal_power_collapses_sic():
    """With alpha1 = alpha2 the far-user layer has no sign margin at the near
    user, reconstruction decisions on opposing symbols are coin flips, and
    the near-user BER collapses (measured plateau ~0.25-0.5)."""
    cfg = ScenarioConfig(scenario="pure", channel="rayleigh", ebn0_db=30.0,
                         alpha1=0.5)
    errors = 0
    for i in range(200):
        out = run_trial(cfg, derive_trial_rng(31, 0, i))
        errors += out.bit_errors_user1
    ber = errors / (200 * cfg.crc.message_len)
    assert ber > 0.2


@pytest.mark.parametrize("alpha1", [0.65, 0.75, 0.9])
def test_noiseless_sign_sic_above_equal_power(alpha1):
    """Noiseless sign-SIC arithmetic behind criterion 8's axis (DECISIONS.md).
    For alpha1 > 0.5 the sign of the superposed symbol is the near user's
    bit, so the far user errs wherever the two bits differ (BER 0.5).  The
    near user then subtracts the wrong layer: where the bits differ its
    post-SIC amplitude is sqrt(a1) - 2*sqrt(a2), negative (BER 0.5, on the
    far user's error positions) for 0.5 < alpha1 < 0.8 and positive (BER 0)
    above 0.8."""
    cfg = ScenarioConfig(scenario="pure", channel="awgn", ebn0_db=120.0, alpha1=alpha1)
    trials = 40
    errors2 = 0
    for i in range(trials):
        out = run_trial(cfg, derive_trial_rng(41, 0, i))
        assert out.bit_errors_user1 == (out.bit_errors_user2 if alpha1 < 0.8 else 0)
        errors2 += out.bit_errors_user2
    low, high = binom.interval(1 - 1e-6, trials * cfg.crc.message_len, 0.5)
    assert low <= errors2 <= high


OUTCOME_FIELDS = [f.name for f in dataclasses.fields(TrialOutcome)]
BLOCK_CASES = [
    *[(dict(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=20.0, d2=1.5), b)
      for b in (1, 7, 32, 33)],
    (dict(scenario="grand-assist", decoder="grand", channel="rayleigh", ebn0_db=14.0), 33),
    (dict(scenario="grand", decoder="orbgrand", channel="awgn", ebn0_db=8.0, orb_query_budget=1), 32),
    (dict(scenario="grand", decoder="grand", channel="awgn", ebn0_db=7.0, d1=0.8, d2=2.0), 33),
    (dict(scenario="pure", channel="rayleigh", ebn0_db=12.0), 33),
    (dict(scenario="grand-assist", decoder="orbgrand", channel="awgn", ebn0_db=14.0, alpha1=0.6,
          orb_query_budget=2000), 7),
]


@pytest.mark.filterwarnings("ignore:alpha1 = 0.6")
@pytest.mark.parametrize("kwargs,trials", BLOCK_CASES)
def test_block_equals_single_trials(kwargs, trials):
    """A block of B generators gives, field by field, the B outcomes of the
    single-generator calls, in generator order; a single generator gives
    plain Python scalars."""
    cfg = ScenarioConfig(**kwargs)
    block = run_trial(cfg, [derive_trial_rng(61, 2, i) for i in range(trials)])
    singles = [run_trial(cfg, derive_trial_rng(61, 2, i)) for i in range(trials)]
    for name in OUTCOME_FIELDS:
        got = getattr(block, name)
        assert got.shape == (trials,), name
        assert got.tolist() == [getattr(one, name) for one in singles], name
        assert all(type(getattr(one, name)) in (int, bool) for one in singles), name
    if kwargs.get("orb_query_budget") == 1:
        assert block.abandoned_user2.any()


def test_run_trial_rejects_an_empty_block():
    with pytest.raises(ValueError):
        run_trial(ScenarioConfig(), [])


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
@pytest.mark.parametrize("message_len", [116, 51])
def test_draw_matches_per_part_reference(channel, message_len):
    """The merged draws give exactly the numbers of one call per user and
    part, for even and odd message lengths."""
    crc = CrcSpec(koopman=0x8F3, message_len=message_len, codeword_len=message_len + 12)
    cfg = ScenarioConfig(channel=channel, ebn0_db=6.0, crc=crc, d1=1.3, d2=2.1)
    for i in range(25):
        draw = draw_trial(cfg, derive_trial_rng(63, 1, i))
        u1, u2, g1, g2, n1, n2 = draw_trial_by_parts(cfg, derive_trial_rng(63, 1, i))
        assert np.array_equal(draw.u1, u1) and np.array_equal(draw.u2, u2)
        assert np.array_equal(draw.n1, n1) and np.array_equal(draw.n2, n2)
        if channel == "rayleigh":
            assert np.array_equal(draw.ch1.gains, g1) and np.array_equal(draw.ch2.gains, g2)
        else:
            assert np.array_equal(draw.ch1.gains, np.ones(cfg.crc.codeword_len))
        assert draw.ch1.path_loss == 1.3 ** -2.0 and draw.ch2.path_loss == 2.1 ** -2.0
