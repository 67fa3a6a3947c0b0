"""Link-level simulator for two-user downlink power-domain NOMA in which a
CRC code is the sole error-correcting mechanism, decoded by guess-and-check
(hard-decision GRAND or soft 1-line ORBGRAND), including GRAND-assisted
successive interference cancellation at the near user.

Core pieces:

- `crc`: CRC codebook (Koopman-notation generators), encoding, membership.
- `grand`: error-pattern schedules and the guess-and-check query loop.
- `phy`: BPSK, superposition, fading/path-loss channel, equalization, LLRs.
- `link`: the end-to-end two-user trial with SIC at the near user.
- `theory`: Gaussian-tail error-rate expressions and a block-error bound
  (the only scipy user; scipy loads on its first call, not on import).
- `harness`: reproducible Monte Carlo sweeps and record output.
- `cli`: `grandnoma` command with sweep-snr / sweep-power / sweep-distance /
  analyze / selfcheck subcommands.
"""

from .config import (
    CHANNELS,
    DECODERS,
    DEFAULT_CRC,
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
)
from .crc import CrcCode, CrcSpec, crc_check, crc_encode, get_code, koopman_to_normal
from .grand import (
    DecodeResult,
    grand_decode,
    hard_grand_decode,
    hard_pattern_stream,
    orb_pattern_stream,
    orbgrand_decode,
    rank_by_reliability,
)
from .harness import (
    CSV_FIELDS,
    SweepRecord,
    derive_trial_rng,
    run_point,
    run_sweep,
    write_records,
)
from .link import (
    OUTCOME,
    draw_trial,
    receive_user1,
    receive_user2,
    run_trial,
    sic_user1,
    simulate_trial,
    transmit,
)
from .phy import (
    ChannelRealization,
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
from .theory import TheoryInputs, ber_user1, ber_user2, bler_upper_bound, q_function

__version__ = "0.1.0"
