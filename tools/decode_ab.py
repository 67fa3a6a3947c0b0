"""Decoder CPU time of a parent commit against this checkout, in one process.

    python3 tools/decode_ab.py --workload orb-awgn-14db --parent HEAD~1 [--seed 1] [--rounds 5]

One repetition of the workload (its first, at `--seed`) runs on one worker
under perfbench's span tracer with every decoder call captured
(`Tracer(capture_every=1)`).  The parent's `src/grandnoma` is exported with
`git archive` and imported under another package name; the package uses only
relative imports, so both versions live side by side.  Both sides first
replay every captured call once, untimed, so that their guess-order caches
hold the same.  The calls are grouped into buckets by the query count of
their captured result: `1`, `2-129` and `130+` (a codeword, a match in the
first ORBGRAND chunk, a deeper search).  Then, in each round, each
bucket's calls are replayed in slices of 256 calls that alternate between
the sides, the side that goes first alternating from slice to slice, and
each slice is timed with `time.thread_time()`.  Host speed drifts act on
both sides alike, so the ratio holds where paired end-to-end runs cannot
resolve a decoder change.

Each round prints both sides' CPU seconds, the ratio parent / change
(above 1: the change is faster) and each bucket's ratio, which shows where
a saving lands; the summary gives the median ratios and their ranges over
the rounds.  A round replays 1,024 captured calls of `orb-awgn-14db`,
about 20 ms of CPU per side, so one round resolves little: on code that
did not change, the `130+` bucket read 0.62-1.45 per round, with a median
of 0.936 over 5 rounds and 0.976 over 31 (2-core host).  A per-call claim
of a few percent therefore needs about 30 rounds.

Every result (codeword, pattern, query count, abandon flag) of either side
must equal the captured one, or the script exits with status 1.

The replay times decoder calls only.  Each side gets the captured keywords
that its decoder's signature accepts, so a parent whose decoders lack
`syndrome=` (before DECISIONS.md, D25) takes each word's syndrome inside its
calls, while the change is handed the one that `link` took over the whole
block, outside the replay.  Against such a parent the tool therefore
overstates the per-call saving; the block pass's own cost shows only end to
end (`tools/bench_pairs.py`).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import inspect
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PARENT_PACKAGE = "grandnoma_parent"
SLICE = 256  # calls per timed slice
BUCKETS = (("1", 1), ("2-129", 2), ("130+", 130))  # (name, fewest queries)


def load_package(package_dir: Path, name: str):
    """Import the package at `package_dir` under the module name `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def capture(workload_name: str, seed: int) -> list[tuple[str, tuple, dict, object]]:
    """(decoder name, args, kwargs, result) of every decoder call in one
    one-worker repetition of the workload, from this checkout."""
    from tracer import Tracer
    from workloads import WORKLOADS, rep_seed

    with Tracer(capture_every=1) as tracer:
        WORKLOADS[workload_name].run(rep_seed(seed, 0), workers=1)
    return tracer.captured


def bind(package, captured) -> list[tuple]:
    """The captured calls as (function, args, kwargs) of `package`, with each
    CRC code replaced by that package's code for the same spec, and only the
    keywords that the function's signature accepts."""
    calls = []
    for decoder, args, kwargs, _ in captured:
        fn = getattr(package.grand, decoder)
        accepted = inspect.signature(fn).parameters
        args = tuple(package.get_code(package.CrcSpec(**dataclasses.asdict(a.spec)))
                     if hasattr(a, "spec") else a for a in args)
        calls.append((fn, args, {k: v for k, v in kwargs.items() if k in accepted}))
    return calls


def replay(calls) -> tuple[float, list]:
    """Thread CPU seconds of the calls, and their results."""
    started = time.thread_time()
    results = [fn(*args, **kwargs) for fn, args, kwargs in calls]
    return time.thread_time() - started, results


def bucket_calls(captured) -> dict[str, list[int]]:
    """Indices of the captured calls in each bucket of `BUCKETS`, by the query
    count of the captured result; empty buckets are left out."""
    groups: dict[str, list[int]] = {}
    for i, (_, _, _, result) in enumerate(captured):
        name = next(name for name, fewest in reversed(BUCKETS) if result.queries >= fewest)
        groups.setdefault(name, []).append(i)
    return {name: groups[name] for name, _ in BUCKETS if name in groups}


def first_mismatch(results, captured) -> int | None:
    """Index of the first result that differs from the captured one, or None."""
    for i, (got, (_, _, _, want)) in enumerate(zip(results, captured)):
        same = (np.array_equal(got.codeword, want.codeword)
                and tuple(got.error_pattern) == tuple(want.error_pattern)
                and got.queries == want.queries and got.abandoned == want.abandoned)
        if not same:
            return i
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="commit to compare with, e.g. HEAD~1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]
    import grandnoma
    from bench_pairs import export
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    captured = capture(args.workload, args.seed)
    if not captured:
        parser.error(f"{args.workload} made no decoder call")

    with tempfile.TemporaryDirectory(prefix="decode-ab-") as tmp:
        export(args.parent, Path(tmp))
        parent = load_package(Path(tmp) / "src" / "grandnoma", PARENT_PACKAGE)
    sides = {"parent": bind(parent, captured), "change": bind(grandnoma, captured)}

    for side, calls in sides.items():  # warm both caches, and check every result once
        bad = first_mismatch(replay(calls)[1], captured)
        if bad is not None:
            print(f"{side}: call {bad} ({captured[bad][0]}) differs from the captured result")
            return 1

    groups = bucket_calls(captured)
    ratios: dict[str, list[float]] = {name: [] for name in ["total", *groups]}
    gc.disable()
    try:
        for r in range(args.rounds):
            gc.collect()
            cpu = {name: {"parent": 0.0, "change": 0.0} for name in ratios}
            results = {"parent": [None] * len(captured), "change": [None] * len(captured)}
            for name, indices in groups.items():
                for i, lo in enumerate(range(0, len(indices), SLICE)):
                    picked = indices[lo: lo + SLICE]
                    order = ("parent", "change") if (r + i) % 2 == 0 else ("change", "parent")
                    for side in order:
                        seconds, got = replay([sides[side][j] for j in picked])
                        cpu[name][side] += seconds
                        cpu["total"][side] += seconds
                        for j, result in zip(picked, got):
                            results[side][j] = result
            for side, got in results.items():
                bad = first_mismatch(got, captured)
                if bad is not None:
                    print(f"round {r + 1} {side}: call {bad} ({captured[bad][0]}) differs from the captured result")
                    return 1
            for name, seconds in cpu.items():
                ratios[name].append(seconds["parent"] / seconds["change"])
            buckets = ", ".join(f"{name} {ratios[name][-1]:.3f}" for name in groups)
            print(f"round {r + 1}: parent {cpu['total']['parent']:.4f} s, change {cpu['total']['change']:.4f} s, "
                  f"ratio {ratios['total'][-1]:.3f} (by queries: {buckets})", flush=True)
    finally:
        gc.enable()

    total = ratios["total"]
    print(f"{args.workload} decoder CPU parent / change: median {statistics.median(total):.3f} "
          f"(range {min(total):.3f}-{max(total):.3f}) over {len(total)} rounds of "
          f"{len(captured)} calls; every result equals the captured one")
    for name, indices in groups.items():
        print(f"  queries {name}: {len(indices)} calls, median {statistics.median(ratios[name]):.3f} "
              f"(range {min(ratios[name]):.3f}-{max(ratios[name]):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
