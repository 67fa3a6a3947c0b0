"""Named workloads of the benchmark: fixed operating points of the simulator.

Every workload runs `run_point` or `run_sweep` with `min_block_errors` set
out of reach, so each point stops on its trial cap (`max_blocks`) and every
repetition at a given seed does identical work.  Repetition `rep` of a run
with `--seed s` uses `master_seed = s + rep * 2**32`: rep 0 is the seed
itself, and later repetitions draw fresh, non-overlapping inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import grandnoma.harness as harness
from grandnoma import ScenarioConfig, SweepRecord, derive_trial_rng, run_trial

UNREACHABLE_ERRORS = 10**12
DEFAULT_SEED = 1


def pool_workers() -> int:
    """Two workers, or fewer on a machine with fewer usable CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def rep_seed(seed: int, rep: int) -> int:
    return seed + (rep << 32)


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen: BENCHMARK.json and README.md."""

    name: str
    base: ScenarioConfig
    axis: str | None = None  # run_sweep axis; None runs a single run_point
    values: tuple[float, ...] = ()
    trace_reps: int = 1  # repetitions the traced replay covers

    @property
    def points(self) -> int:
        return len(self.values) if self.axis else 1

    @property
    def trials_per_rep(self) -> int:
        return self.base.max_blocks * self.points

    def config(self, master_seed: int, workers: int | None = None) -> ScenarioConfig:
        return self.base.at(master_seed=master_seed,
                            workers=self.base.workers if workers is None else workers)

    def point_configs(self, master_seed: int) -> list[ScenarioConfig]:
        """The config of each sweep point, in point-index order."""
        cfg = self.config(master_seed)
        if self.axis is None:
            return [cfg]
        field = {"ebn0": "ebn0_db", "alpha1": "alpha1", "d1": "d1"}[self.axis]
        return [cfg.at(**{field: v}) for v in self.values]

    def run(self, master_seed: int, workers: int | None = None) -> list[SweepRecord]:
        """One repetition: every point of the workload, through the public API.

        Looked up on the module at call time, so the tracer's wrappers apply."""
        cfg = self.config(master_seed, workers)
        if self.axis is None:
            return list(harness.run_point(cfg))
        return harness.run_sweep(cfg, self.axis, self.values)

    def first_trial(self, master_seed: int):
        cfg = self.point_configs(master_seed)[0]
        return run_trial(cfg, derive_trial_rng(master_seed, 0, 0))


def _workloads() -> dict[str, Workload]:
    awgn14 = dict(channel="awgn", ebn0_db=14.0, min_block_errors=UNREACHABLE_ERRORS)
    table = [
        Workload(
            name="orb-awgn-14db",
            base=ScenarioConfig(scenario="grand", decoder="orbgrand", max_blocks=512,
                                workers=1, **awgn14),
            trace_reps=2,
        ),
        Workload(
            name="hard-awgn-14db",
            base=ScenarioConfig(scenario="grand", decoder="grand", max_blocks=4096,
                                workers=1, **awgn14),
        ),
        Workload(
            name="assist-rayleigh-distance",
            base=ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel="rayleigh",
                                ebn0_db=30.0, d2=3.0, min_block_errors=UNREACHABLE_ERRORS,
                                max_blocks=2048, workers=pool_workers()),
            axis="d1",
            values=(1.0, 1.6, 2.0),
        ),
    ]
    return {w.name: w for w in table}


WORKLOADS = _workloads()
