"""Host-speed calibration for the timed run.

The machines this benchmark runs on are shared, and their speed changes by
up to about 2x for seconds to minutes at a time, with CPU time tracking wall
time (the process runs, just slower).  A median over one run cannot remove
a change that lasts the whole run, so the timed run also times a fixed
kernel, independent of `grandnoma`, before and after each repetition, and
scales each repetition's wall time by `REFERENCE_S / kernel time`.  A
pooled workload uses every CPU its pool does, so for it the kernel runs in
that many helper processes at once and their mean time is used.  The
kernel mixes what a trial does: small-array numpy calls (a Philox stream per
call, complex arithmetic, a stable argsort) and Python integer loops like
the decoders' XOR search.

`REFERENCE_S` is about the kernel's median time, in one process, on the
2-vCPU Xeon VM the seed numbers were taken on, so scaled times read roughly
as seconds on that machine at its usual speed.  It is a constant: the same
on every commit.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.0040
_TABLE = [(p * 2654435761) % 4096 for p in range(1, 129)]
_TABLE_ARR = np.asarray(_TABLE, dtype=np.uint64)


def _kernel() -> int:
    acc = 0
    for t in range(24):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(3, spawn_key=(1, t))))
        a = g.standard_normal(128) + 1j * g.standard_normal(128)
        bits = (np.real(a) < 0).astype(np.uint8)
        y = a / (0.7 * np.abs(a) + 0.1)
        llr = 4.0 * np.real(y) / (0.3 + np.abs(a) ** 2)
        order = np.argsort(np.abs(llr), kind="stable")
        picked = _TABLE_ARR[bits != 0]
        acc ^= int(np.bitwise_xor.reduce(picked)) if picked.size else 0
        by_rank = [_TABLE[int(p)] for p in order[:48]]
        for i in range(len(by_rank)):
            for j in range(i + 1, min(i + 8, len(by_rank))):
                acc ^= by_rank[i] ^ by_rank[j]
    return acc


def kernel_seconds(samples: int = 9) -> float:
    """Median wall time of `samples` kernel calls."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class HostSpeed:
    """Times the kernel on `cpus` CPUs at once: in this process for one CPU,
    else in `cpus` helper interpreters (`python3 calibrate.py`) that time
    one kernel call per line read from stdin."""

    def __init__(self, cpus: int):
        self._helpers = []
        if cpus > 1:
            for _ in range(cpus):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True))

    def kernel_seconds(self) -> float:
        if not self._helpers:
            return kernel_seconds()
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        return statistics.fmean(float(helper.stdout.readline()) for helper in self._helpers)

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns wall time between two kernel timings into
        seconds at the reference speed."""
        return REFERENCE_S / ((before + after) / 2)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    _kernel()  # first call pays one-off costs
    for _ in sys.stdin:
        print(repr(kernel_seconds()), flush=True)
