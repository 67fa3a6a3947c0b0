"""Reproducible Monte Carlo engine: per-trial RNG derivation, stopping rules,
parallel batch execution, and record output.

Every trial owns an independent random stream derived from
(master_seed, point_index, trial_index) through a counter-based generator, so
results are bit-identical for any worker count: trials are executed in fixed
batches of `trials_per_batch` and batch totals are merged in index order.
The stopping rule is evaluated on merged batches only.  Within a batch,
trials run through the link in blocks of `TRIALS_PER_BLOCK`, one vectorized
pass per block; the records do not depend on the block size.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import ConfigError, ScenarioConfig
from .link import run_trial

__all__ = [
    "SweepRecord",
    "CSV_FIELDS",
    "WORKERS_ENV_VAR",
    "derive_trial_rng",
    "run_point",
    "run_sweep",
    "write_records",
    "read_records_csv",
]

WORKERS_ENV_VAR = "GRANDNOMA_WORKERS"

# Trials per `run_trial` call.  Speed is flat from 16 to 64; larger blocks
# cost resident memory (DECISIONS.md, D4).
TRIALS_PER_BLOCK = 32

CSV_FIELDS = [
    "scenario", "decoder", "channel", "ebn0_db", "alpha1", "d1", "d2", "user",
    "bits", "bit_errors", "ber", "blocks", "block_errors", "bler",
    "mean_queries", "undetected_rate", "seed", "wall_time_s",
]

SWEEP_AXES = ("ebn0", "alpha1", "d1")


@dataclass
class SweepRecord:
    """Aggregated per-user statistics for one sweep point."""

    scenario: str
    decoder: str
    channel: str
    ebn0_db: float
    alpha1: float
    d1: float
    d2: float
    user: int
    bits: int
    bit_errors: int
    ber: float
    blocks: int
    block_errors: int
    bler: float
    mean_queries: float
    undetected_rate: float
    seed: int
    wall_time_s: float


def derive_trial_rng(master_seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    """Independent, collision-resistant stream for one trial.

    Philox is counter-based; SeedSequence mixes the key material, so equal
    inputs give equal streams and distinct indices give independent ones.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(point_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


@dataclass
class _Totals:
    blocks: int = 0
    bit_errors_u1: int = 0
    bit_errors_u2: int = 0
    block_errors_u1: int = 0
    block_errors_u2: int = 0
    recon_errors: int = 0
    undetected: int = 0
    queries_u1: int = 0
    queries_u2: int = 0
    queries_assist: int = 0

    def add(self, outcome) -> None:
        """Count a block of trials: a TrialOutcome of per-trial arrays."""
        self.blocks += len(outcome.bit_errors_user1)
        self.bit_errors_u1 += int(outcome.bit_errors_user1.sum())
        self.bit_errors_u2 += int(outcome.bit_errors_user2.sum())
        self.block_errors_u1 += int(outcome.block_error_user1.sum())
        self.block_errors_u2 += int(outcome.block_error_user2.sum())
        self.recon_errors += int(outcome.sic_reconstruction_errors.sum())
        self.undetected += int(outcome.undetected_error_user1_assist.sum())
        self.queries_u1 += int(outcome.queries_user1.sum())
        self.queries_u2 += int(outcome.queries_user2.sum())
        self.queries_assist += int(outcome.queries_assist.sum())

    def merge(self, other: "_Totals") -> None:
        for field in dataclasses.fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))


def _run_batch(cfg: ScenarioConfig, point_index: int, start: int, count: int) -> _Totals:
    totals = _Totals()
    end = start + count
    for first in range(start, end, TRIALS_PER_BLOCK):
        trials = range(first, min(first + TRIALS_PER_BLOCK, end))
        totals.add(run_trial(cfg, [derive_trial_rng(cfg.master_seed, point_index, t) for t in trials]))
    return totals


def _stop(cfg: ScenarioConfig, totals: _Totals) -> bool:
    if totals.blocks >= cfg.max_blocks:
        return True
    return (
        totals.block_errors_u1 >= cfg.min_block_errors
        and totals.block_errors_u2 >= cfg.min_block_errors
    )


def _batch_plan(cfg: ScenarioConfig):
    """Batch (start, count) pairs covering trials 0..max_blocks-1 in order."""
    start = 0
    while start < cfg.max_blocks:
        count = min(cfg.trials_per_batch, cfg.max_blocks - start)
        yield start, count
        start += count


def resolve_workers(cfg: ScenarioConfig) -> int:
    """Worker count, with the environment variable taking precedence."""
    env = os.environ.get(WORKERS_ENV_VAR)
    if env is not None:
        try:
            workers = int(env)
        except ValueError as exc:
            raise ConfigError(f"workers: bad {WORKERS_ENV_VAR} value {env!r}") from exc
        if workers < 1:
            raise ConfigError(f"workers: {WORKERS_ENV_VAR} must be >= 1, got {workers}")
        return workers
    return cfg.workers


def run_point(cfg: ScenarioConfig, point_index: int = 0) -> tuple[SweepRecord, SweepRecord]:
    """Run trials at one operating point until every user has accumulated
    `min_block_errors` block errors or `max_blocks` trials have run.

    Returns one record per user.  Results do not depend on the worker count.
    """
    started = time.perf_counter()
    totals = _Totals()
    workers = resolve_workers(cfg)
    if workers == 1:
        for start, count in _batch_plan(cfg):
            totals.merge(_run_batch(cfg, point_index, start, count))
            if _stop(cfg, totals):
                break
    else:
        plan = _batch_plan(cfg)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pending = []
            exhausted = False
            stopped = False
            while not stopped:
                while not exhausted and len(pending) < 2 * workers:
                    nxt = next(plan, None)
                    if nxt is None:
                        exhausted = True
                        break
                    pending.append(pool.submit(_run_batch, cfg, point_index, *nxt))
                if not pending:
                    break
                # merge strictly in submission (= trial index) order
                totals.merge(pending.pop(0).result())
                stopped = _stop(cfg, totals)
            for fut in pending:
                fut.cancel()
    elapsed = time.perf_counter() - started
    return (
        _record(cfg, 1, totals, elapsed),
        _record(cfg, 2, totals, elapsed),
    )


def _record(cfg: ScenarioConfig, user: int, totals: _Totals, elapsed: float) -> SweepRecord:
    blocks = totals.blocks
    bits = blocks * cfg.crc.message_len
    if user == 1:
        bit_errors = totals.bit_errors_u1
        block_errors = totals.block_errors_u1
        queries = totals.queries_u1 + totals.queries_assist
        undetected_rate = totals.undetected / blocks if blocks else 0.0
    else:
        bit_errors = totals.bit_errors_u2
        block_errors = totals.block_errors_u2
        queries = totals.queries_u2
        undetected_rate = 0.0
    return SweepRecord(
        scenario=cfg.scenario,
        decoder=cfg.decoder,
        channel=cfg.channel,
        ebn0_db=cfg.ebn0_db,
        alpha1=cfg.alpha1,
        d1=cfg.d1,
        d2=cfg.d2,
        user=user,
        bits=bits,
        bit_errors=bit_errors,
        ber=bit_errors / bits if bits else 0.0,
        blocks=blocks,
        block_errors=block_errors,
        bler=block_errors / blocks if blocks else 0.0,
        mean_queries=queries / blocks if blocks else 0.0,
        undetected_rate=undetected_rate,
        seed=cfg.master_seed,
        wall_time_s=elapsed,
    )


def run_sweep(
    cfg: ScenarioConfig,
    axis: str,
    values: Sequence[float],
    on_point: Callable[[list[SweepRecord]], None] | None = None,
) -> list[SweepRecord]:
    """Sweep one axis ("ebn0", "alpha1", or "d1") over strictly increasing
    values; every point runs with its own derived random streams.

    `on_point` is called with the two new records after each point, which is
    how the CLI flushes partial results.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError(f"{axis}: sweep axis must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{axis}: sweep values must be strictly increasing, got {values}")
    field = {"ebn0": "ebn0_db", "alpha1": "alpha1", "d1": "d1"}[axis]
    records: list[SweepRecord] = []
    for point_index, value in enumerate(values):
        point_cfg = cfg.at(**{field: value})
        pair = run_point(point_cfg, point_index)
        records.extend(pair)
        if on_point is not None:
            on_point(list(pair))
    return records


def _format_csv_value(name: str, value) -> str:
    # scientific notation with full double precision so that 1e-8-scale rates
    # survive a write/parse round trip exactly
    if name in ("ber", "bler", "mean_queries", "undetected_rate"):
        return f"{value:.17e}"
    if name == "wall_time_s":
        return f"{value:.6f}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records(records: Iterable[SweepRecord], fmt: str = "csv", path: str | TextIO | None = None) -> None:
    """Persist records as CSV (pinned header) or JSON (array of objects)."""
    records = list(records)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")

    def emit(fh: TextIO) -> None:
        if fmt == "csv":
            fh.write(",".join(CSV_FIELDS) + "\n")
            for rec in records:
                row = dataclasses.asdict(rec)
                fh.write(",".join(_format_csv_value(f, row[f]) for f in CSV_FIELDS) + "\n")
        else:
            json.dump([dataclasses.asdict(rec) for rec in records], fh, indent=2)
            fh.write("\n")

    if path is None:
        emit(sys.stdout)
    elif isinstance(path, str):
        try:
            with open(path, "w") as fh:
                emit(fh)
        except OSError as exc:
            raise OSError(f"cannot write records to {path!r}: {exc}") from exc
    else:
        emit(path)


def read_records_csv(path: str) -> list[SweepRecord]:
    """Parse a CSV written by `write_records` back into records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_FIELDS:
            raise ValueError(f"unexpected CSV header in {path!r}: {reader.fieldnames}")
        for row in reader:
            kwargs = {name: _parse_field(name, row[name]) for name in CSV_FIELDS}
            out.append(SweepRecord(**kwargs))
    return out


_INT_FIELDS = {"user", "bits", "bit_errors", "blocks", "block_errors", "seed"}
_STR_FIELDS = {"scenario", "decoder", "channel"}


def _parse_field(name: str, raw: str):
    if name in _STR_FIELDS:
        return raw
    if name in _INT_FIELDS:
        return int(raw)
    return float(raw)
