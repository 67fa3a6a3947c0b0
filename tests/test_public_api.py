"""The package's public names: what `import grandnoma` offers its callers."""

import types

import grandnoma

# every name without a leading underscore that is not a submodule
PUBLIC_NAMES = [
    "CHANNELS", "CSV_FIELDS", "ChannelRealization", "ConfigError", "CrcCode", "CrcSpec", "DECODERS",
    "DEFAULT_CRC", "DecodeResult", "OUTCOME", "SCENARIOS", "ScenarioConfig", "SingularChannelError",
    "SweepRecord", "TheoryInputs", "awgn_channel", "ber_user1", "ber_user2",
    "bler_upper_bound", "bpsk_modulate", "compute_llrs", "crc_check", "crc_encode", "derive_trial_rng",
    "draw_trial", "ebn0_to_sigma2", "effective_noise_variance", "equalize", "get_code", "grand_decode",
    "hard_demod", "hard_grand_decode", "hard_pattern_stream", "koopman_to_normal", "orb_pattern_stream",
    "orbgrand_decode", "path_loss", "propagate", "q_function", "rank_by_reliability", "rayleigh_channel",
    "read_records_csv", "receive_user1", "receive_user2", "run_point", "run_sweep",
    "run_trial", "sic_user1", "simulate_trial", "superimpose", "transmit", "write_records",
]


def test_public_names_are_pinned():
    found = sorted(name for name in dir(grandnoma)
                   if not name.startswith("_") and not isinstance(getattr(grandnoma, name), types.ModuleType))
    assert found == PUBLIC_NAMES
