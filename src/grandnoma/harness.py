"""Reproducible Monte Carlo engine: per-trial RNG derivation, stopping rules,
parallel batch execution, and record output.

Every trial owns an independent random stream derived from
(master_seed, point_index, trial_index) through a counter-based generator, so
results are bit-identical for any worker count: trials are executed in fixed
batches of `trials_per_batch` and batch totals are merged in index order.
The stopping rule is evaluated on merged batches only.  Within a batch,
trials run through the link in blocks of `BLOCK_SYMBOLS // codeword_len`
trials (at least one), one vectorized pass per block, so a block's arrays
have about the same size for any code length; the records do not depend on
the block size.  A batch derives the Philox keys of all its trials in one
vectorized pass and serves every trial from one generator, re-keyed per
trial: the same streams as `derive_trial_rng` (DECISIONS.md, D5).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .config import ConfigError, ScenarioConfig
from .link import OUTCOME, run_trial

# Code symbols per `run_trial` call: 128 trials of the default n = 128 code.
# Larger blocks cost fewer per-block calls per trial but more resident
# memory (DECISIONS.md, D4).
BLOCK_SYMBOLS = 16_384

# sweep axis -> the ScenarioConfig field and record column it sets
SWEEP_AXES = {"ebn0": "ebn0_db", "alpha1": "alpha1", "d1": "d1"}


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


CSV_FIELDS = [f.name for f in dataclasses.fields(SweepRecord)]


def derive_trial_rng(master_seed: int, point_index: int, trial_index: int) -> np.random.Generator:
    """Independent, collision-resistant stream for one trial.

    Philox is counter-based; SeedSequence mixes the key material, so equal
    inputs give equal streams and distinct indices give independent ones.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(point_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, the
# hash constants of its entropy mixing (A) and of `generate_state` (B), and
# the multipliers of `mix`.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n: int) -> list[int]:
    """A non-negative int as SeedSequence splits it: 32-bit words, least
    significant first, at least one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on an int or a uint32 array; returns the mixed
    value and the next hash constant, which does not depend on the value."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _absorb(pool: list, word, hash_const: int):
    """Mix one entropy word into every pool word (SeedSequence's loop over
    the entropy beyond the pool size, with its `mix`)."""
    mixed = []
    for dst in pool:
        value, hash_const = _hashmix(word, hash_const)
        result = (_MIX_MULT_L * dst - _MIX_MULT_R * value) & _MASK32
        mixed.append(result ^ result >> 16)
    return mixed, hash_const


def _philox_keys(master_seed: int, point_index: int, first: int, count: int) -> np.ndarray:
    """The (count, 2) uint64 Philox keys of trials first .. first+count-1.

    Row i equals `SeedSequence(master_seed, spawn_key=(point_index, first +
    i)).generate_state(2, np.uint64)`, the key `derive_trial_rng` gives its
    Philox.  A spawn key pads the seed's words with zeros to the pool size,
    so the trial's words are always mixed last: the pool after the seed and
    point words is `SeedSequence(master_seed, spawn_key=(point_index,))`'s,
    whose mixing makes four hashmix calls per entropy word, and only the
    trial's words and `generate_state` run per trial, vectorized over the
    trials with the same number of words.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(point_index,)).pool.tolist()
    words = max(_POOL_SIZE, len(_words(int(master_seed)))) + len(_words(int(point_index)))
    hash_const = _INIT_A * pow(_MULT_A, 4 * words, 2**32) & _MASK32

    keys = np.empty((count, 2), dtype=np.uint64)
    start, end = first, first + count
    while start < end:
        # trials below 2**32 are one word, the others two
        n_words = len(_words(start))
        stop = min(end, 1 << 32 * n_words)
        trials = np.arange(start, stop, dtype=np.uint64)
        state = [np.full(stop - start, p, dtype=np.uint32) for p in pool]
        h = hash_const
        for j in range(n_words):
            state, h = _absorb(state, (trials >> 32 * j & _MASK32).astype(np.uint32), h)
        h = _INIT_B
        for i, p in enumerate(state):
            state[i], h = _hashmix(p, h, _MULT_B)
        # four 32-bit words, read as two little-endian 64-bit words
        rows = slice(start - first, stop - first)
        keys[rows, 0] = state[0] | state[1].astype(np.uint64) << 32
        keys[rows, 1] = state[2] | state[3].astype(np.uint64) << 32
        start = stop
    return keys


class _TrialStreams:
    """The streams of consecutive trials, served by one generator.

    Iterating re-keys one Philox to each trial's key, with counter 0 and an
    empty buffer, which is the state `Philox(SeedSequence(...))` starts in,
    and yields its Generator.  Every item is that same object, so each must
    be drawn from completely before the next is requested.
    """

    def __init__(self, rng: np.random.Generator, keys: list[list[int]]):
        self.rng = rng
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self):
        state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for key in self.keys:
            state["state"]["key"] = key
            self.rng.bit_generator.state = state
            yield self.rng


def _run_batch(cfg: ScenarioConfig, point_index: int, start: int, count: int) -> Counter:
    keys = _philox_keys(cfg.master_seed, point_index, start, count).tolist()
    rng = np.random.Generator(np.random.Philox())
    block = max(1, BLOCK_SYMBOLS // cfg.crc.codeword_len)
    table = np.concatenate([run_trial(cfg, _TrialStreams(rng, keys[i:i + block])) for i in range(0, count, block)])
    return Counter(blocks=len(table), **{name: int(table[name].sum()) for name in OUTCOME.names})


def _stop(cfg: ScenarioConfig, totals: Counter) -> bool:
    errors = min(totals["block_error_user1"], totals["block_error_user2"])
    return totals["blocks"] >= cfg.max_blocks or errors >= cfg.min_block_errors


def _batches(cfg: ScenarioConfig, point_index: int, pool: ProcessPoolExecutor | None):
    """Batch totals over trials 0..max_blocks-1, in trial order: run here if
    `pool` is None, else with a window of 2 x `cfg.workers` batches
    submitted to it ahead of the one read.  Closing the generator cancels
    the queued ones (running ones finish unread)."""
    plan = ((start, min(cfg.trials_per_batch, cfg.max_blocks - start))
            for start in range(0, cfg.max_blocks, cfg.trials_per_batch))
    if pool is None:
        for start, count in plan:
            yield _run_batch(cfg, point_index, start, count)
        return
    depth = 2 * cfg.workers
    window = deque()
    try:
        for start, count in plan:
            window.append(pool.submit(_run_batch, cfg, point_index, start, count))
            if len(window) == depth:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        for future in window:
            future.cancel()


def run_point(cfg: ScenarioConfig, point_index: int = 0) -> tuple[SweepRecord, SweepRecord]:
    """Run trials at one operating point until every user has accumulated
    `min_block_errors` block errors or `max_blocks` trials have run.

    Returns one record per user.  Results do not depend on the worker count.
    """
    if isinstance(point_index, bool) or not isinstance(point_index, numbers.Integral) or point_index < 0:
        raise ValueError(f"point_index must be a non-negative integer, got {point_index!r}")
    with _pool(cfg) as pool:
        return _run_point(cfg, point_index, pool)


def _pool(cfg: ScenarioConfig):
    """A context giving a process pool of `cfg.workers` workers, or None for
    one worker, that lives as long as the `with` body; `_batches` cancels the
    batches it leaves queued."""
    return nullcontext() if cfg.workers == 1 else ProcessPoolExecutor(max_workers=cfg.workers)


def _run_point(cfg: ScenarioConfig, point_index: int, pool: ProcessPoolExecutor | None):
    """`run_point` on `pool`, or in this process if it is None."""
    started = time.perf_counter()
    totals = Counter()
    with closing(_batches(cfg, point_index, pool)) as batches:
        for batch in batches:
            totals.update(batch)
            if _stop(cfg, totals):
                break
    elapsed = time.perf_counter() - started
    return (
        _record(cfg, 1, totals, elapsed),
        _record(cfg, 2, totals, elapsed),
    )


def _record(cfg: ScenarioConfig, user: int, totals: Counter, elapsed: float) -> SweepRecord:
    blocks = totals["blocks"]
    bits = blocks * cfg.crc.message_len
    bit_errors = totals[f"bit_errors_user{user}"]
    block_errors = totals[f"block_error_user{user}"]
    queries = totals[f"queries_user{user}"] + (totals["queries_assist"] if user == 1 else 0)
    undetected = totals["undetected_error_user1_assist"] if user == 1 else 0
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
        undetected_rate=undetected / blocks if blocks else 0.0,
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
    how the CLI flushes partial results.  With more than one worker, every
    point runs on one process pool, so workers keep their guess-order caches
    from point to point (DECISIONS.md, D9).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {tuple(SWEEP_AXES)}, got {axis!r}")
    values = list(values)
    if not values:
        raise ConfigError(f"{axis}: sweep axis must not be empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{axis}: sweep values must be strictly increasing, got {values}")
    # every value is checked, as its point's config, before the first point runs
    point_cfgs = [cfg.at(**{SWEEP_AXES[axis]: value}) for value in values]
    records: list[SweepRecord] = []
    with _pool(cfg) as pool:
        for point_index, point_cfg in enumerate(point_cfgs):
            # one worker goes through `run_point`, the per-point span that
            # perfbench's tracer wraps
            if pool is None:
                pair = run_point(point_cfg, point_index)
            else:
                pair = _run_point(point_cfg, point_index, pool)
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

