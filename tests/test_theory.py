import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from grandnoma import CHANNELS, TheoryInputs, ber_user1, ber_user2, bler_upper_bound, q_function
from grandnoma.theory import _norms


def gaussian_tail_quadrature(x):
    val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), x, 40)
    return val


def test_q_basics():
    assert q_function(0.0) == pytest.approx(0.5)
    for x in (-2.5, -0.7, 0.3, 1.9):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0)
    xs = np.linspace(-3, 3, 50)
    assert np.all(np.diff(q_function(xs)) < 0)


def test_q_matches_quadrature():
    assert abs(q_function(1.2816) - 0.1000) < 1e-4
    for x in (0.5, 1.2816, 2.0, 3.5):
        assert q_function(x) == pytest.approx(gaussian_tail_quadrature(x), abs=1e-12)


def _inputs(p_ue, sigma2, alpha1=0.25, n=128, channel="awgn", n_samples=1):
    return TheoryInputs(
        alpha1=alpha1,
        sigma2=sigma2,
        codeword_len=n,
        p_ue=p_ue,
        channel=channel,
        n_samples=n_samples,
    )


def scalar_ber_user1(p_ue, alpha1, alpha2, power, sigma2, n, g11, g12):
    """Independent scalar implementation of the two-term mixture."""
    q = lambda x: 0.5 * math.erfc(x / math.sqrt(2))
    term_int = q(2 * math.sqrt(2 * alpha1 * power * g11 / (4 * alpha2 * power * g12 + n * sigma2)))
    term_clean = q(2 * math.sqrt(alpha1 * power * g11 / (n * sigma2)))
    return p_ue * term_int + (1 - p_ue) * term_clean


def test_ber_user1_against_scalar_implementation():
    for sigma2 in (0.05, 0.2, 1.0):
        for p_ue in (0.0, 1e-3, 0.3, 1.0):
            got = ber_user1(_inputs(p_ue, sigma2))
            want = scalar_ber_user1(p_ue, 0.25, 1 - 0.25, 1.0, sigma2, 128, 128.0, 128.0)
            assert got == pytest.approx(want, rel=1e-12)


def test_ber_user1_mixture_is_linear_in_p_ue():
    lo = ber_user1(_inputs(0.0, 0.1))
    hi = ber_user1(_inputs(1.0, 0.1))
    mid = ber_user1(_inputs(0.37, 0.1))
    assert mid == pytest.approx(0.37 * hi + 0.63 * lo, rel=1e-12)


def test_ber_user1_interference_free_when_p_ue_zero():
    got = ber_user1(_inputs(0.0, 0.08))
    clean = 0.5 * math.erfc(2 * math.sqrt(0.25 * 128 / (128 * 0.08)) / math.sqrt(2))
    assert got == pytest.approx(clean, rel=1e-12)


def test_ber_user1_zero_noise_zero_interference_is_zero():
    inputs = TheoryInputs(
        alpha1=0.25, sigma2=0.0, codeword_len=128,
        p_ue=0.0, channel="awgn", path_loss=(1.0, 1.0), n_samples=1,
    )
    assert ber_user1(inputs) == 0.0


def test_ber_user2_limits_and_monotonicity():
    assert ber_user2(_inputs(0.0, 1e9)) == pytest.approx(0.5, abs=1e-3)
    assert ber_user2(_inputs(0.0, 1e-9)) < 1e-12
    values = [
        ber_user2(_inputs(0.0, 0.2, alpha1=1 - a2))
        for a2 in (0.55, 0.65, 0.75, 0.85, 0.95)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_ber_user1_and_user2_scale_with_the_path_loss():
    """On AWGN the norms are N * L_i, so user i at loss L_i and noise sigma2
    reads the same as at unit loss and noise sigma2 / L_i."""
    at_loss = TheoryInputs(alpha1=0.25, sigma2=0.1, codeword_len=128, p_ue=0.3, path_loss=(0.5, 0.25))
    assert ber_user1(at_loss) == pytest.approx(ber_user1(_inputs(0.3, 0.2)), rel=1e-12)
    assert ber_user2(at_loss) == pytest.approx(ber_user2(_inputs(0.3, 0.4)), rel=1e-12)


def test_awgn_takes_one_exact_sample_whatever_n_samples_says():
    for p_ue in (0.0, 0.3):
        one, many = _inputs(p_ue, 0.2, n_samples=1), _inputs(p_ue, 0.2, n_samples=1_000)
        assert ber_user1(one) == ber_user1(many)
        assert ber_user2(one) == ber_user2(many)
    g1, g2 = _norms(_inputs(0.0, 0.2, n_samples=1_000), np.random.default_rng(0))
    assert g1.tolist() == g2.tolist() == [128.0]


def test_rayleigh_norms_average_n_times_the_path_loss():
    inputs = TheoryInputs(alpha1=0.25, sigma2=0.2, codeword_len=128, p_ue=0.0, channel="rayleigh",
                          path_loss=(0.5, 0.25), n_samples=200_000)
    g1, g2 = _norms(inputs, np.random.default_rng(0))
    assert np.mean(g1) == pytest.approx(128 * 0.5, rel=0.01)
    assert np.mean(g2) == pytest.approx(128 * 0.25, rel=0.01)
    # one gamma draw per user, the near user's first, so seeded records stay as they were
    rng = np.random.default_rng(0)
    assert np.array_equal(g1, 0.5 * rng.gamma(128, 1.0, 200_000))
    assert np.array_equal(g2, 0.25 * rng.gamma(128, 1.0, 200_000))


def test_rayleigh_expectation_converges():
    inputs = _inputs(0.0, 0.2, channel="rayleigh", n_samples=200_000)
    a = ber_user1(inputs, np.random.default_rng(1))
    b = ber_user1(inputs, np.random.default_rng(2))
    assert a == pytest.approx(b, rel=0.05)
    # fading can only hurt at these SNRs (Jensen on the convex tail)
    assert a > ber_user1(_inputs(0.0, 0.2))


def exact_bler_bound(ber, n, correctable):
    from fractions import Fraction
    from math import comb

    p = Fraction(ber)
    total = sum(comb(n, l) * p ** l * (1 - p) ** (n - l) for l in range(correctable + 1))
    return float(1 - total)


def test_bler_bound_edge_cases():
    assert bler_upper_bound(0.3, 128, 128) == 0.0
    assert bler_upper_bound(0.0, 128, 3) == 0.0
    assert bler_upper_bound(1.0, 128, 3) == 1.0
    p = 0.0123
    assert bler_upper_bound(p, 64, 0) == pytest.approx(1 - (1 - p) ** 64, rel=1e-12)


def test_bler_bound_matches_extended_precision_oracle():
    for n in (10, 128, 500):
        for correctable in (0, 1, 2, 5):
            for ber in (1e-9, 1e-6, 1e-3, 0.1, 0.5):
                got = bler_upper_bound(ber, n, correctable)
                want = exact_bler_bound(ber, n, correctable)
                assert got == pytest.approx(want, rel=1e-10), (n, correctable, ber)


def test_bler_bound_monotonicity():
    bers = np.linspace(1e-4, 0.2, 15)
    vals = [bler_upper_bound(b, 128, 2) for b in bers]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    by_l = [bler_upper_bound(1e-2, 128, l) for l in range(0, 8)]
    assert all(b < a for a, b in zip(by_l, by_l[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals + by_l)


def test_theory_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(1.5, 0.1)
    with pytest.raises(ValueError):
        TheoryInputs(alpha1=0.25, sigma2=0.1, codeword_len=128, p_ue=0.0, channel="awgn", n_samples=0)
    with pytest.raises(ValueError):
        bler_upper_bound(-0.1, 128, 2)
    with pytest.raises(ValueError):
        bler_upper_bound(0.1, 128, 200)


@pytest.mark.parametrize("field,value", [
    ("sigma2", -0.1), ("sigma2", math.inf), ("sigma2", math.nan),
    ("codeword_len", 0), ("codeword_len", -5),
    ("alpha1", 1.5), ("alpha1", -0.2), ("alpha1", math.nan), ("alpha1", 0.0), ("alpha1", 1.0),
    ("path_loss", (-1.0, 1.0)), ("path_loss", (1.0, 0.0)), ("path_loss", (1.0, math.inf)),
    ("path_loss", (math.nan, 1.0)), ("path_loss", (1.0,)), ("path_loss", (1.0, 1.0, 1.0)),
])
def test_theory_inputs_reject_a_value_that_gives_no_ber(field, value):
    """Each value lies outside its field's range and is refused by name.
    Unchecked, a negative noise, a zero length, an alpha1 outside (0, 1) or a
    negative loss gave BER 0.0 or NaN, and a short path_loss failed to unpack."""
    fields = dict(alpha1=0.25, sigma2=0.1, codeword_len=128, p_ue=0.3, channel="awgn")
    with pytest.raises(ValueError, match=f"^{field} must "):
        TheoryInputs(**{**fields, field: value})


@pytest.mark.parametrize("channel", ["AWGN", "rician", "", None])
def test_theory_inputs_reject_an_unknown_channel(channel):
    with pytest.raises(ValueError, match="channel must be one of"):
        _inputs(0.0, 0.1, channel=channel)
    assert [_inputs(0.0, 0.1, channel=name).channel for name in CHANNELS] == list(CHANNELS)


SCIPY_GUARD = """
import json, sys
import grandnoma
from grandnoma import ScenarioConfig, cli, run_point

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0, min_block_errors=2, max_blocks=64)
run_point(cfg)
run_point(cfg.at(workers=2))
assert cli.main(["sweep-snr", "--ebn0", "6 8", "--min-block-errors", "2", "--max-blocks", "32",
                 "--workers", "2", "--out", sys.argv[1], "--quiet"]) == 0
before = scipy_loaded()
q = float(grandnoma.q_function(1.0))
bound = grandnoma.bler_upper_bound(1e-3, 128, 4)
print(json.dumps({"before": before, "after": "scipy" in sys.modules, "q": q, "bound": bound}))
"""


def test_simulation_paths_never_load_scipy(tmp_path):
    """Importing the package, running points at one and two workers and a
    CLI sweep load no scipy module; the first theory call loads it.  Runs in
    a fresh interpreter, since other tests import scipy in this one."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", SCIPY_GUARD, str(tmp_path / "sweep.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["before"] == []
    assert seen["after"] is True
    assert seen["q"] == 0.15865525393145707
    assert seen["bound"] == 2.3881749764497286e-07
