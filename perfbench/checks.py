"""Correctness checks.  Each check is one attempt; a failed check is one
mismatch, and `mismatch_rate` is failed / attempted."""

from __future__ import annotations

import hashlib
import inspect

import numpy as np

from grandnoma import (
    SweepRecord,
    grand_decode,
    hard_grand_decode,
    hard_pattern_stream,
    orb_pattern_stream,
    orbgrand_decode,
    rank_by_reliability,
)

# The 17 CSV fields of the records other than `wall_time_s`.  The digest
# covers exactly these, so columns added to the records later leave it as is.
DIGEST_FIELDS = (
    "scenario", "decoder", "channel", "ebn0_db", "alpha1", "d1", "d2", "user",
    "bits", "bit_errors", "ber", "blocks", "block_errors", "bler",
    "mean_queries", "undetected_rate", "seed",
)


def _canonical(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def records_key(records: list[SweepRecord]) -> list[tuple[str, ...]]:
    return [tuple(_canonical(getattr(r, f)) for f in DIGEST_FIELDS) for r in records]


def records_digest(records: list[SweepRecord]) -> str:
    text = "\n".join(",".join(row) for row in records_key(records))
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Tally of named checks; keeps the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def check_records(checks: Checks, records: list[SweepRecord], point_cfgs) -> None:
    """One check per record: it belongs to its point, the trial cap ended the
    point, and its rates are its counts divided out."""
    checks.check(len(records) == 2 * len(point_cfgs), f"{len(records)} records for {len(point_cfgs)} points")
    for i, rec in enumerate(records):
        cfg = point_cfgs[i // 2]
        k = cfg.crc.message_len
        decoded = cfg.scenario != "pure"
        ok = (
            (rec.scenario, rec.decoder, rec.channel, rec.seed) == (cfg.scenario, cfg.decoder, cfg.channel, cfg.master_seed)
            and (rec.ebn0_db, rec.alpha1, rec.d1, rec.d2) == (cfg.ebn0_db, cfg.alpha1, cfg.d1, cfg.d2)
            and rec.user == 1 + i % 2
            and rec.blocks == cfg.max_blocks
            and rec.bits == rec.blocks * k
            and rec.block_errors <= rec.bit_errors <= rec.block_errors * k
            and rec.block_errors <= rec.blocks
            and rec.ber == rec.bit_errors / rec.bits
            and rec.bler == rec.block_errors / rec.blocks
            and (rec.mean_queries >= 1.0 if decoded else rec.mean_queries == 0.0)
            and 0.0 <= rec.undetected_rate <= 1.0
            and rec.wall_time_s > 0.0
        )
        checks.check(ok, f"record {i} (user {rec.user}, point {i // 2}) is inconsistent: {rec}")


def reference_decode(decoder: str, args: tuple, kwargs: dict):
    """Re-run a captured fast-path decoder call through the generic query
    loop, with the pattern stream as schedule and `CrcCode.check` as
    membership."""
    fast = {"orbgrand_decode": orbgrand_decode, "hard_grand_decode": hard_grand_decode}[decoder]
    bound = inspect.signature(fast).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    word, code = a["word"], a["code"]
    if decoder == "orbgrand_decode":
        patterns = orb_pattern_stream(rank_by_reliability(a["llrs"]), a["max_logistic_weight"],
                                      a["max_hamming_weight"])
    else:
        patterns = hard_pattern_stream(len(word), a["max_weight"])
    return grand_decode(word, code.check, patterns, a["query_budget"])


def check_reference_decodes(checks: Checks, captured) -> None:
    """Each captured call must match the reference in codeword, pattern,
    query count and abandon flag."""
    for decoder, args, kwargs, got in captured:
        want = reference_decode(decoder, args, kwargs)
        ok = (
            np.array_equal(got.codeword, want.codeword)
            and tuple(got.error_pattern) == tuple(want.error_pattern)
            and got.queries == want.queries
            and got.abandoned == want.abandoned
        )
        checks.check(ok, f"{decoder}: fast path gave {got.queries} queries / pattern {got.error_pattern}, "
                         f"reference {want.queries} / {want.error_pattern}")
