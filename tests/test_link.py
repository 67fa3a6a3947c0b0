import numpy as np
import pytest
from scipy.stats import binom

from grandnoma import (
    CrcSpec,
    ScenarioConfig,
    bpsk_modulate,
    crc_encode,
    derive_trial_rng,
    grand_decode,
    hard_grand_decode,
    hard_pattern_stream,
    orb_pattern_stream,
    orbgrand_decode,
    rank_by_reliability,
    run_trial,
    sic_user1,
    transmit,
)
from grandnoma import harness, link, phy
from grandnoma.crc import get_code
from grandnoma.link import OUTCOME, _decode, draw_trial, simulate_trial
from grandnoma.phy import (
    awgn_channel,
    compute_llrs,
    effective_noise_variance,
    equalize,
    hard_demod,
    propagate,
    rayleigh_channel,
)

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
        out = run_trial(cfg, derive_trial_rng(7, 0, i))[0]
        assert out["bit_errors_user1"] == 0
        assert out["bit_errors_user2"] == 0
        assert not out["block_error_user1"] and not out["block_error_user2"]
        assert out["sic_reconstruction_errors"] == 0
        assert not out["undetected_error_user1_assist"]


def test_perfect_sic_residual_is_zero():
    cfg = ScenarioConfig(channel="rayleigh", ebn0_db=10.0)
    rng = np.random.default_rng(1)
    for i in range(20):
        draw = draw_trial(cfg, derive_trial_rng(3, 0, i))
        s_sigma, _, c2 = transmit(draw.u1, draw.u2, cfg)
        r1 = propagate(s_sigma, draw.ch1) + draw.n1
        s1 = bpsk_modulate(crc_encode(draw.u1, cfg.crc))
        # substitute the true interfering layer
        r_sic = r1 - np.sqrt(cfg.alpha2) * propagate(bpsk_modulate(c2), draw.ch1)
        residual = r_sic - (np.sqrt(cfg.alpha1) * propagate(s1, draw.ch1) + draw.n1)
        assert np.max(np.abs(residual)) < 1e-12


def test_assist_undetected_error_injection():
    """An error pattern that is itself a codeword passes the reconstruction
    decode unchanged; the cancellation then leaves a residual of magnitude
    2*sqrt(alpha2*L)*|h| exactly on the flipped symbols."""
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
    a2 = np.sqrt(cfg.alpha2)
    s2 = bpsk_modulate(c2)
    # craft noise that flips the far-user layer exactly at the codeword error
    n1 = -2.0 * a2 * propagate(s2, ch1) * e
    r1 = propagate(s_sigma, ch1) + n1

    recon = hard_demod(equalize(r1, ch1))
    assert np.array_equal(recon, c2 ^ e)

    r_sic, reconstructed, queries, abandoned = sic_user1(r1, ch1, cfg)
    assert not abandoned
    assert queries == 1  # accepted immediately: the corrupted word is a codeword
    assert np.array_equal(reconstructed, c2 ^ e)

    residual = r_sic - (np.sqrt(cfg.alpha1) * propagate(bpsk_modulate(c1), ch1) + n1)
    magnitude = np.abs(residual)
    expected = 2.0 * a2 * np.sqrt(ch1.path_loss) * np.abs(ch1.gains)
    flipped = e.astype(bool)
    assert np.allclose(magnitude[flipped], expected[flipped])
    assert np.max(magnitude[~flipped]) < 1e-12


def test_undetected_flag_bookkeeping():
    cfg = ScenarioConfig(scenario="grand-assist", decoder="grand", channel="rayleigh", ebn0_db=6.0)
    seen_undetected = False
    for i in range(400):
        out = run_trial(cfg, derive_trial_rng(11, 0, i))[0]
        if out["undetected_error_user1_assist"]:
            seen_undetected = True
            assert out["sic_reconstruction_errors"] > 0
            assert not out["abandoned_assist"]
    assert seen_undetected  # at this noise level wrong reconstructions do occur


def test_non_assist_scenarios_never_flag_undetected():
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=6.0)
    for i in range(50):
        out = run_trial(cfg, derive_trial_rng(12, 0, i))[0]
        assert not out["undetected_error_user1_assist"]
        assert out["queries_assist"] == 0


def test_zero_guess_budget_reduces_to_pure():
    base = dict(channel="rayleigh", ebn0_db=12.0)
    pure = ScenarioConfig(scenario="pure", **base)
    hard0 = ScenarioConfig(scenario="grand", decoder="grand", grand_max_weight=0, **base)
    orb1 = ScenarioConfig(scenario="grand", decoder="orbgrand", orb_query_budget=1, **base)
    for i in range(60):
        ref = run_trial(pure, derive_trial_rng(13, 0, i))[0]
        for cfg in (hard0, orb1):
            out = run_trial(cfg, derive_trial_rng(13, 0, i))[0]
            assert out["bit_errors_user1"] == ref["bit_errors_user1"]
            assert out["bit_errors_user2"] == ref["bit_errors_user2"]


def test_trials_are_deterministic():
    cfg = ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=14.0)
    a = run_trial(cfg, derive_trial_rng(21, 3, 5))[0]
    b = run_trial(cfg, derive_trial_rng(21, 3, 5))[0]
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
    out = simulate_trial(cfg, draw_trial(cfg, derive_trial_rng(1, 0, 0)))[0]
    assert set(out.dtype.names) == {
        "bit_errors_user1", "bit_errors_user2", "block_error_user1", "block_error_user2",
        "sic_reconstruction_errors", "undetected_error_user1_assist",
        "queries_user1", "queries_user2", "queries_assist",
        "abandoned_user1", "abandoned_user2", "abandoned_assist",
    }
    assert out["bit_errors_user1"] <= cfg.crc.message_len
    assert out["queries_user1"] >= 1 and out["queries_user2"] >= 1


def test_equal_power_collapses_sic():
    """With alpha1 = alpha2 the far-user layer has no sign margin at the near
    user, reconstruction decisions on opposing symbols are coin flips, and
    the near-user BER collapses (measured plateau ~0.25-0.5)."""
    with pytest.warns(UserWarning, match="sign-based SIC"):
        cfg = ScenarioConfig(scenario="pure", channel="rayleigh", ebn0_db=30.0,
                             alpha1=0.5)
    errors = 0
    for i in range(200):
        out = run_trial(cfg, derive_trial_rng(31, 0, i))[0]
        errors += out["bit_errors_user1"]
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
    with pytest.warns(UserWarning, match="sign-based SIC"):
        cfg = ScenarioConfig(scenario="pure", channel="awgn", ebn0_db=120.0, alpha1=alpha1)
    trials = 40
    errors2 = 0
    for i in range(trials):
        out = run_trial(cfg, derive_trial_rng(41, 0, i))[0]
        assert out["bit_errors_user1"] == (out["bit_errors_user2"] if alpha1 < 0.8 else 0)
        errors2 += out["bit_errors_user2"]
    low, high = binom.interval(1 - 1e-6, trials * cfg.crc.message_len, 0.5)
    assert low <= errors2 <= high


BLOCK_CASES = [
    *[(dict(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=20.0, d2=1.5), b)
      for b in (1, 7, 32, 33)],
    (dict(scenario="grand-assist", decoder="grand", channel="rayleigh", ebn0_db=14.0), 33),
    (dict(scenario="grand", decoder="orbgrand", channel="awgn", ebn0_db=8.0, orb_query_budget=1), 32),
    (dict(scenario="grand", decoder="grand", channel="awgn", ebn0_db=7.0, d1=0.8, d2=2.0), 33),
    (dict(scenario="pure", channel="rayleigh", ebn0_db=12.0), 33),
    (dict(scenario="grand-assist", decoder="orbgrand", channel="awgn", ebn0_db=14.0, alpha1=0.6,
          orb_query_budget=2000), 7),
    # 128 trials are one block of the default code at BLOCK_SYMBOLS = 16,384
    *[(dict(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=20.0, d2=1.5), b)
      for b in (128, 129)],
]


@pytest.mark.filterwarnings("ignore:alpha1 = 0.6")
@pytest.mark.parametrize("kwargs,trials", BLOCK_CASES)
def test_block_equals_single_trials(kwargs, trials):
    """A block of B generators gives, field by field, the B outcomes of the
    single-generator calls, in generator order; a single generator gives
    the one row of a block of that generator alone."""
    cfg = ScenarioConfig(**kwargs)
    block = run_trial(cfg, [derive_trial_rng(61, 2, i) for i in range(trials)])
    singles = [run_trial(cfg, derive_trial_rng(61, 2, i))[0] for i in range(trials)]
    alone = [run_trial(cfg, [derive_trial_rng(61, 2, i)])[0] for i in range(trials)]
    assert block.shape == (trials,)
    assert block.dtype == OUTCOME and all(one.dtype == OUTCOME for one in singles)
    for name in OUTCOME.names:
        assert block[name].tolist() == [one[name] for one in singles], name
        assert [one[name] for one in singles] == [one[name] for one in alone], name
    if kwargs.get("orb_query_budget") == 1:
        assert block["abandoned_user2"].any()


def test_seam_call_order_of_one_block(monkeypatch):
    """One grand-assist ORBGRAND block calls the PHY stages and the decoder
    through `link`'s attributes in a fixed order: the benchmark's tracer
    times each call as a span of its layer (DECISIONS.md, D6)."""
    calls = []
    for name in ("bpsk_modulate", "propagate", "equalize", "hard_demod", "effective_noise_variance",
                 "compute_llrs", "orbgrand_decode"):
        def recorded(*args, _name=name, _seam=getattr(link, name), **kwargs):
            calls.append(_name)
            return _seam(*args, **kwargs)
        monkeypatch.setattr(link, name, recorded)
    cfg = ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=10.0)
    trials = 3
    run_trial(cfg, [derive_trial_rng(13, 0, i) for i in range(trials)])
    receive = ["equalize", "hard_demod", "effective_noise_variance", "compute_llrs"]
    receive += ["orbgrand_decode"] * trials
    assert calls == (["bpsk_modulate"] * 2 + ["propagate"] * 2 + receive
                     + receive + ["bpsk_modulate", "propagate"] + receive)


def test_run_trial_rejects_an_empty_block():
    with pytest.raises(ValueError):
        run_trial(ScenarioConfig(), [])


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
@pytest.mark.parametrize("message_len", [116, 51, 1, 300])
def test_draw_matches_per_part_reference(channel, message_len):
    """The merged draws give exactly the numbers of one call per user and
    part, for even and odd message lengths."""
    crc = CrcSpec(koopman=0x8F3, message_len=message_len, codeword_len=message_len + 12)
    cfg = ScenarioConfig(channel=channel, ebn0_db=6.0, crc=crc, d1=1.3, d2=2.1)
    for i in range(25):
        draw = draw_trial(cfg, derive_trial_rng(63, 1, i))
        u1, u2, g1, g2, n1, n2 = draw_trial_by_parts(cfg, derive_trial_rng(63, 1, i))
        assert np.array_equal(draw.u1[0], u1) and np.array_equal(draw.u2[0], u2)
        assert np.array_equal(draw.n1[0], n1) and np.array_equal(draw.n2[0], n2)
        if channel == "rayleigh":
            assert np.array_equal(draw.ch1.gains[0], g1) and np.array_equal(draw.ch2.gains[0], g2)
        else:
            assert np.array_equal(draw.ch1.gains, np.ones(cfg.crc.codeword_len))
        assert draw.ch1.path_loss == 1.3 ** -2.0 and draw.ch2.path_loss == 2.1 ** -2.0


@pytest.mark.parametrize("kind", [np.random.MT19937, np.random.PCG64, np.random.SFC64])
@pytest.mark.parametrize("fn", [draw_trial, run_trial])
@pytest.mark.parametrize("mixed", [False, True], ids=["alone", "mixed"])
def test_non_philox_generators_are_refused(kind, fn, mixed):
    """Only Philox's 32-bit draws are the halves of its 64-bit raw words;
    any other bit generator is refused by name, alone or among Philox
    generators."""
    other = np.random.Generator(kind(4))
    rngs = [derive_trial_rng(69, 0, 0), other, derive_trial_rng(69, 0, 1)] if mixed else other
    with pytest.raises(ValueError, match=f"Philox generators, got {kind.__name__}$"):
        fn(ScenarioConfig(scenario="grand", channel="rayleigh"), rngs)


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_a_bare_generator_is_a_block_of_one(channel):
    cfg = ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel=channel, ebn0_db=8.0)
    for i in range(4):
        bare = run_trial(cfg, derive_trial_rng(71, 0, i))
        block = run_trial(cfg, [derive_trial_rng(71, 0, i)])
        assert bare.shape == block.shape == (1,)
        assert bare.tolist() == block.tolist()


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
def test_rekeyed_block_draw_matches_single_draws(channel, monkeypatch):
    """A block drawn from the harness's re-keyed generator equals, trial by
    trial and field by field, the single-generator draws and the per-part
    reference.  A raised gain floor makes some Rayleigh trials redraw."""
    monkeypatch.setattr(phy, "GAIN_FLOOR", 0.02)
    cfg = ScenarioConfig(channel=channel, ebn0_db=6.0, d1=1.3, d2=2.1)
    k, m = cfg.crc.message_len, cfg.crc.codeword_len
    seed, point, first, trials = 65, 1, 100, 40
    keys = harness._philox_keys(seed, point, first, trials).tolist()
    block = draw_trial(cfg, harness._TrialStreams(np.random.Generator(np.random.Philox()), keys))
    assert block.u1.shape == (trials, k) and block.n2.shape == (trials, m)
    redrew = 0
    for b, trial in enumerate(range(first, first + trials)):
        one = draw_trial(cfg, derive_trial_rng(seed, point, trial))
        u1, u2, g1, g2, n1, n2 = draw_trial_by_parts(cfg, derive_trial_rng(seed, point, trial))
        for name, ref in (("u1", u1), ("u2", u2), ("n1", n1), ("n2", n2)):
            assert np.array_equal(getattr(block, name)[b], getattr(one, name)[0]), name
            assert np.array_equal(getattr(one, name)[0], ref), name
        for name, ref in (("ch1", g1), ("ch2", g2)):
            gains, single = getattr(block, name).gains, getattr(one, name).gains
            if channel == "rayleigh":
                assert np.array_equal(gains[b], single[0]) and np.array_equal(single[0], ref), name
            else:
                assert np.array_equal(gains, single) and np.array_equal(single, np.ones(m)), name
        if channel == "rayleigh":
            first_try = derive_trial_rng(seed, point, trial)
            first_try.integers(0, 2, size=2 * k)
            z = first_try.standard_normal(2 * m)
            redrew += not np.array_equal(block.ch1.gains[b], (z[:m] + 1j * z[m:]) * np.sqrt(0.5))
    assert block.ch1.path_loss == one.ch1.path_loss == 1.3 ** -2.0
    assert block.ch2.path_loss == one.ch2.path_loss == 2.1 ** -2.0
    if channel == "rayleigh":
        assert 0 < redrew < trials


@pytest.mark.parametrize("message_len", [1, 51, 116, 300])
def test_rekeyed_raw_word_messages_match_integer_draws(message_len):
    """On re-keyed Philox streams, the message bits taken from raw words
    equal `integers(0, 2, 2k)`, and every normal drawn after them is
    unchanged, for odd and even k; the generator starts with a half-word
    buffered, which re-keying clears."""
    crc = CrcSpec(koopman=0x8F3, message_len=message_len, codeword_len=message_len + 12)
    cfg = ScenarioConfig(channel="rayleigh", ebn0_db=6.0, crc=crc)
    seed, point, first, trials = 67, 3, 2**32 - 3, 6
    keys = harness._philox_keys(seed, point, first, trials).tolist()
    rng = np.random.Generator(np.random.Philox())
    rng.integers(0, 2, size=3)
    assert rng.bit_generator.state["has_uint32"] == 1
    block = draw_trial(cfg, harness._TrialStreams(rng, keys))
    for b in range(trials):
        u1, u2, g1, g2, n1, n2 = draw_trial_by_parts(cfg, derive_trial_rng(seed, point, first + b))
        assert np.array_equal(block.u1[b], u1) and np.array_equal(block.u2[b], u2)
        assert np.array_equal(block.ch1.gains[b], g1) and np.array_equal(block.ch2.gains[b], g2)
        assert np.array_equal(block.n1[b], n1) and np.array_equal(block.n2[b], n2)


TOY3 = CrcSpec(0x5, 4, 7)
CRC8 = CrcSpec(koopman=0xA6, message_len=57, codeword_len=65)
DECODE_CASES = [
    (TOY3, dict(decoder="grand")),
    (CRC8, dict(decoder="grand")),
    (ScenarioConfig().crc, dict(decoder="grand")),
    (ScenarioConfig().crc, dict(decoder="grand", grand_max_weight=0)),
    (TOY3, dict(decoder="orbgrand")),
    (CRC8, dict(decoder="orbgrand", orb_query_budget=40)),
    (ScenarioConfig().crc, dict(decoder="orbgrand")),
    (ScenarioConfig().crc, dict(decoder="orbgrand", orb_query_budget=1)),
    (ScenarioConfig().crc, dict(decoder="orbgrand", orb_max_logistic_weight=0)),
]


def _mixed_block(spec, shape, seed):
    """Received samples whose hard decisions are codewords with 0, 1 or 2
    flipped bits (cycling, so the block mixes codewords and non-codewords);
    flipped bits get the smallest magnitudes."""
    rng = np.random.default_rng(seed)
    n = spec.codeword_len
    c = crc_encode(rng.integers(0, 2, (*shape, spec.message_len), dtype=np.uint8), spec)
    y = (1.0 - 2.0 * c) * (1.0 + rng.random(c.shape))
    for i, row in enumerate(y.reshape(-1, n)):
        flips = rng.choice(n, size=i % 3, replace=False)
        row[flips] *= -0.1 * rng.random(len(flips))
    return y


@pytest.mark.parametrize("spec,kwargs", DECODE_CASES)
def test_block_decode_equals_per_word_and_reference_decodes(spec, kwargs, monkeypatch):
    """The block decode calls the decoder once per word, codewords included
    (the benchmark's tracer times and re-decodes those calls), hands each
    failing word's ORBGRAND call its ranking and a codeword's none, and gives
    every word the codeword, query count and abandon flag of its own decoder
    call and of `grand_decode` over the pattern streams."""
    cfg = ScenarioConfig(scenario="grand", channel="awgn", ebn0_db=4.0, crc=spec, **kwargs)
    code = get_code(spec)
    n = spec.codeword_len
    y = _mixed_block(spec, (3, 11), seed=n)
    channel = awgn_channel(n)
    words = hard_demod(y)
    decoder = "orbgrand_decode" if cfg.decoder == "orbgrand" else "hard_grand_decode"
    calls, syndromes, rankings = [], [], []
    original = getattr(link, decoder)

    def counted(word, *args, **kwargs):
        calls.append(word)
        syndromes.append(kwargs.get("syndrome"))
        rankings.append(kwargs.get("positions"))
        return original(word, *args, **kwargs)

    monkeypatch.setattr(link, decoder, counted)
    codewords, queries, abandoned = _decode(y, channel, cfg, alpha=0.49,
                                            interferer_alpha=0.2, enabled=True)
    assert np.array_equal(calls, words.reshape(-1, n))
    assert syndromes == [code.syndrome(word) for word in words.reshape(-1, n)]
    assert codewords.shape == words.shape and queries.shape == abandoned.shape == (3, 11)
    llrs = compute_llrs(y, 0.7, effective_noise_variance(cfg.sigma2, channel, 0.2)).reshape(-1, n)
    passed = 0
    for word, llr, ranking, got, q, a in zip(words.reshape(-1, n), llrs, rankings, codewords.reshape(-1, n),
                                             queries.ravel(), abandoned.ravel()):
        passed += code.check(word)
        if cfg.decoder == "orbgrand" and not code.check(word):
            assert np.array_equal(ranking, rank_by_reliability(llr))
        else:
            assert ranking is None
        if cfg.decoder == "orbgrand":
            one = orbgrand_decode(word, llr, code, max_logistic_weight=cfg.orb_max_logistic_weight,
                                  query_budget=cfg.orb_query_budget)
            patterns = orb_pattern_stream(rank_by_reliability(llr), cfg.orb_max_logistic_weight)
            ref = grand_decode(word, code.check, patterns, cfg.orb_query_budget)
        else:
            one = hard_grand_decode(word, code, max_weight=cfg.grand_max_weight)
            ref = grand_decode(word, code.check, hard_pattern_stream(n, cfg.grand_max_weight))
        for want in (one, ref):
            assert np.array_equal(got, want.codeword)
            assert (q, a) == (want.queries, want.abandoned)
    assert 0 < passed < words.size // n
    # a cap or budget that allows only query 1 abandons every search; else none abandons
    no_search = 0 in (cfg.grand_max_weight, cfg.orb_max_logistic_weight) or cfg.orb_query_budget == 1
    failed = np.reshape([not code.check(w) for w in words.reshape(-1, n)], abandoned.shape)
    assert np.array_equal(abandoned, no_search & failed)


def test_block_decode_rejects_nan_llrs_of_a_codeword():
    """A NaN LLR raises even where the word passes the CRC and no search runs."""
    cfg = ScenarioConfig(scenario="grand", decoder="orbgrand", channel="awgn")
    code = get_code(cfg.crc)
    y = _mixed_block(cfg.crc, (4,), seed=5)
    # `_decode` takes hard decisions itself, and a NaN sample decides bit 0,
    # so the NaN goes on a bit-0 sample for word 0 to stay a codeword
    y[0, np.flatnonzero(y[0] > 0)[0]] = np.nan
    words = hard_demod(y)
    assert code.check(words[0])
    with pytest.raises(ValueError, match="NaN"):
        _decode(y, awgn_channel(cfg.crc.codeword_len), cfg, alpha=1.0,
                interferer_alpha=0.0, enabled=True)
