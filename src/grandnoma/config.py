"""Experiment configuration shared by the link simulator and the sweep harness."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace

from .crc import CrcSpec
from .phy import ebn0_to_sigma2

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "DEFAULT_CRC",
    "SCENARIO_PURE",
    "SCENARIO_GRAND",
    "SCENARIO_GRAND_ASSIST",
    "SCENARIOS",
    "DECODER_GRAND",
    "DECODER_ORBGRAND",
    "DECODERS",
    "CHANNELS",
    "CONFIG_KEYS",
]

SCENARIO_PURE = "pure"
SCENARIO_GRAND = "grand"
SCENARIO_GRAND_ASSIST = "grand-assist"
SCENARIOS = (SCENARIO_PURE, SCENARIO_GRAND, SCENARIO_GRAND_ASSIST)

DECODER_GRAND = "grand"
DECODER_ORBGRAND = "orbgrand"
DECODERS = (DECODER_GRAND, DECODER_ORBGRAND)

CHANNELS = ("awgn", "rayleigh")

# CRC-12, Koopman 0x8f3, on 116-bit messages / 128-bit codewords
DEFAULT_CRC = CrcSpec(koopman=0x8F3, message_len=116, codeword_len=128)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# (config-file key, argparse dest, ScenarioConfig field); the crc.* keys
# build the CrcSpec and ebn0_db_list the Eb/N0 list, so they name no field
CONFIG_KEYS = [
    ("scenario", "scenario", "scenario"),
    ("decoder", "decoder", "decoder"),
    ("channel", "channel", "channel"),
    ("alpha1", "alpha1", "alpha1"),
    ("P", "power", "power"),
    ("d1", "d1", "d1"),
    ("d2", "d2", "d2"),
    ("xi", "xi", "xi"),
    ("ebn0_db_list", "ebn0", None),
    ("crc.koopman_hex", "crc_koopman", None),
    ("crc.k", "crc_k", None),
    ("crc.n", "crc_n", None),
    ("grand.max_weight", "grand_max_weight", "grand_max_weight"),
    ("orb.query_budget", "orb_query_budget", "orb_query_budget"),
    ("orb.max_logistic_weight", "orb_max_lw", "orb_max_logistic_weight"),
    ("min_block_errors", "min_block_errors", "min_block_errors"),
    ("max_blocks", "max_blocks", "max_blocks"),
    ("seed", "seed", "master_seed"),
    ("workers", "workers", "workers"),
    ("trials_per_batch", "trials_per_batch", "trials_per_batch"),
]
_KEY_OF = {field: key for key, _, field in CONFIG_KEYS if field}

# (field, lowest value) of every numeric field; None marks a real field
_NUMBERS = [
    ("ebn0_db", None), ("alpha1", None), ("power", None), ("d1", None), ("d2", None), ("xi", None),
    ("grand_max_weight", 0), ("orb_max_logistic_weight", 0), ("orb_query_budget", 1),
    ("min_block_errors", 1), ("max_blocks", 1), ("master_seed", 0), ("workers", 1), ("trials_per_batch", 1),
]


def check_number(key: str, value, integer: bool) -> None:
    """Raise a ConfigError naming `key` unless `value` is a non-bool number (integer if `integer`)."""
    kind, what = (numbers.Integral, "an integer") if integer else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{key} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulated operating point.

    `ebn0_db` is a single point; sweeps pass a list of values to
    `harness.run_sweep`, which re-instantiates the config per point.
    """

    scenario: str = SCENARIO_GRAND
    decoder: str = DECODER_GRAND
    channel: str = "awgn"
    ebn0_db: float = 10.0
    alpha1: float = 0.25
    power: float = 1.0
    d1: float = 1.0
    d2: float = 1.0
    xi: float = 2.0
    crc: CrcSpec = DEFAULT_CRC
    grand_max_weight: int = 4
    orb_max_logistic_weight: int | None = None
    orb_query_budget: int = 1_000_000
    min_block_errors: int = 100
    max_blocks: int = 10_000_000
    master_seed: int = 1
    workers: int = 1
    trials_per_batch: int = 256

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.decoder not in DECODERS:
            raise ConfigError(f"decoder must be one of {DECODERS}, got {self.decoder!r}")
        if self.channel not in CHANNELS:
            raise ConfigError(f"channel must be one of {CHANNELS}, got {self.channel!r}")
        for field, lowest in _NUMBERS:
            value, key = getattr(self, field), _KEY_OF.get(field, field)
            if value is None and field == "orb_max_logistic_weight":
                continue
            check_number(key, value, integer=lowest is not None)
            if lowest is not None and value < lowest:
                raise ConfigError(f"{key} must be >= {lowest}, got {value}")
        if not 0.0 < self.alpha1 < 1.0:
            raise ConfigError(f"alpha1 must lie in (0,1), got {self.alpha1}")
        if not math.isfinite(self.ebn0_db):
            raise ConfigError(f"ebn0_db must be finite, got {self.ebn0_db}")
        if not (math.isfinite(self.xi) and self.xi >= 0):
            raise ConfigError(f"xi must be finite and >= 0, got {self.xi}")
        if self.power <= 0:
            raise ConfigError(f"P must be positive, got {self.power}")
        if self.d1 <= 0 or self.d2 <= 0:
            raise ConfigError(f"d1/d2 must be > 0, got {self.d1}, {self.d2}")
        if self.grand_max_weight > self.crc.codeword_len:
            raise ConfigError(f"grand.max_weight out of range: {self.grand_max_weight}")
        if self.alpha1 >= 0.5:
            warnings.warn(
                f"alpha1 = {self.alpha1} >= 0.5: sign-based SIC is meaningless here, because the "
                "sign of the superposed symbol no longer follows the far user's layer "
                "(DECISIONS.md, D1)",
                UserWarning,
                stacklevel=3,
            )

    @property
    def alpha2(self) -> float:
        return 1.0 - self.alpha1

    @property
    def sigma2(self) -> float:
        return ebn0_to_sigma2(self.ebn0_db, self.crc.rate, self.power)

    def at(self, **changes) -> "ScenarioConfig":
        """Copy with fields replaced (sweep helper)."""
        return replace(self, **changes)
