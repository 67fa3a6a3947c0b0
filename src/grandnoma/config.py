"""Experiment configuration shared by the link simulator and the sweep harness."""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace

from .crc import CrcSpec
from .phy import GAIN_FLOOR, ebn0_to_sigma2, path_loss

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

# a pool of `workers` processes starts them all at its first submit
MAX_WORKERS = 256


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


HEX = "hex"  # a hex string or an integer
FLOATS = "floats"  # a number or a list of numbers

# (config-file key, argparse dest, ScenarioConfig field, kind, lowest value,
# flag help), in the order of the flags' help.  A kind is a tuple of
# choices, float, int, HEX or FLOATS; integer kinds give their lowest value.
# The crc.* keys build the CrcSpec and ebn0_db_list the Eb/N0 list, so they
# name no field.
CONFIG_KEYS = [
    ("scenario", "scenario", "scenario", SCENARIOS, None, None),
    ("decoder", "decoder", "decoder", DECODERS, None, None),
    ("channel", "channel", "channel", CHANNELS, None, None),
    ("alpha1", "alpha1", "alpha1", float, None, None),
    ("d1", "d1", "d1", float, None, None),
    ("d2", "d2", "d2", float, None, None),
    ("xi", "xi", "xi", float, None, "path-loss exponent"),
    ("ebn0_db_list", "ebn0", None, FLOATS, None, None),
    ("crc.koopman_hex", "crc_koopman", None, HEX, None, "generator in Koopman hex, e.g. 0x8f3"),
    ("crc.k", "crc_k", None, int, 1, "message length in bits"),
    ("crc.n", "crc_n", None, int, 2, "codeword length in bits"),
    ("grand.max_weight", "grand_max_weight", "grand_max_weight", int, 0, None),
    ("orb.query_budget", "orb_query_budget", "orb_query_budget", int, 1, None),
    ("orb.max_logistic_weight", "orb_max_lw", "orb_max_logistic_weight", int, 0, None),
    ("min_block_errors", "min_block_errors", "min_block_errors", int, 1, None),
    ("max_blocks", "max_blocks", "max_blocks", int, 1, None),
    ("trials_per_batch", "trials_per_batch", "trials_per_batch", int, 1, None),
    ("seed", "seed", "master_seed", int, 0, None),
    ("workers", "workers", "workers", int, 1, None),
]


def check_value(key: str, kind, lowest, value):
    """Return `value`, a HEX string as its integer, if it suits `key`'s kind
    and lowest value; otherwise raise a ConfigError naming `key`."""
    if kind is FLOATS and isinstance(value, list):
        return [check_value(key, float, None, entry) for entry in value]
    if value is None and key == "orb.max_logistic_weight":  # null: no cap
        return value
    if isinstance(kind, tuple):
        if value not in kind:
            raise ConfigError(f"{key} must be one of {kind}, got {value!r}")
        return value
    if kind is HEX and isinstance(value, str):
        try:
            return int(value, 16)
        except ValueError:
            raise ConfigError(f"{key} must be hex or an integer, got {value!r}") from None
    number, what = (numbers.Integral, "an integer") if kind in (int, HEX) else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, number):
        raise ConfigError(f"{key} must be {what}, got {value!r}")
    if lowest is not None and value < lowest:
        raise ConfigError(f"{key} must be >= {lowest}, got {value}")
    return value


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
        for key, _, field, kind, lowest, _ in CONFIG_KEYS:
            if field:
                check_value(key, kind, lowest, getattr(self, field))
        check_value("ebn0_db", float, None, self.ebn0_db)
        if not 0.0 < self.alpha1 < 1.0:
            raise ConfigError(f"alpha1 must lie in (0,1), got {self.alpha1}")
        if self.workers > MAX_WORKERS:
            raise ConfigError(f"workers must be <= {MAX_WORKERS}, got {self.workers}")
        if not (math.isfinite(self.xi) and self.xi >= 0):
            raise ConfigError(f"xi must be finite and >= 0, got {self.xi}")
        for key, value in (("d1", self.d1), ("d2", self.d2)):
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and > 0, got {value}")
        # the noise variance must be a positive float, and so must each user's
        # after path loss and the deepest fade equalize accepts, a gain of GAIN_FLOOR
        for key, what, compute in (
            ("ebn0_db", "noise variance", lambda: self.sigma2),
            ("d1", "effective noise variance", lambda: self.sigma2 / (path_loss(self.d1, self.xi) * GAIN_FLOOR**2)),
            ("d2", "effective noise variance", lambda: self.sigma2 / (path_loss(self.d2, self.xi) * GAIN_FLOOR**2)),
        ):
            try:
                value = compute()
            except ArithmeticError:
                value = math.nan
            if not (math.isfinite(value) and value > 0):
                xi = f" with xi = {self.xi}" if key != "ebn0_db" else ""
                raise ConfigError(f"{key} = {getattr(self, key)}{xi} puts the {what} outside the float range")
        if self.grand_max_weight > self.crc.codeword_len:
            raise ConfigError(f"grand.max_weight out of range: {self.grand_max_weight}")
        if self.alpha1 >= 0.5:
            # name the caller's line, past `at()` and `replace` when they built this copy
            here = sys._getframe()
            level, frame = 3, here.f_back.f_back
            while frame.f_code.co_filename in (here.f_code.co_filename, replace.__code__.co_filename):
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"alpha1 = {self.alpha1} >= 0.5: sign-based SIC is meaningless here, because the "
                "sign of the superposed symbol no longer follows the far user's layer "
                "(DECISIONS.md, D1)",
                UserWarning,
                stacklevel=level,
            )

    @property
    def alpha2(self) -> float:
        return 1.0 - self.alpha1

    @property
    def sigma2(self) -> float:
        return ebn0_to_sigma2(self.ebn0_db, self.crc.rate)

    def at(self, **changes) -> "ScenarioConfig":
        """Copy with fields replaced (sweep helper)."""
        return replace(self, **changes)
