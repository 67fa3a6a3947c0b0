"""Benchmark of the grandnoma simulator, end to end and per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from `src/` next to this
directory.  Workloads are defined in `workloads.py`, metrics are declared
(name and unit) in `BENCHMARK.json` at the repository root.

`--trace 0` measures the end-to-end metrics with tracing off: set-up time in
fresh interpreters, then repetitions of the workload for `--seconds`
seconds, each on fresh inputs derived from the seed.  `--trace 1` runs a
fixed number of repetitions untraced and then again under the span tracer,
and reports the per-layer metrics, so its counts repeat exactly at a seed.

Both modes check the records and re-decode a sample of decoder calls with
the reference decoder.  Human-readable lines go first; the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  A JSON result with the run manifest, and in traced runs the
spans, are written under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
REFERENCE_SAMPLE_TRIALS = 32


def _import_program() -> None:
    package = SRC / "grandnoma"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no grandnoma package at {package}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import grandnoma

    if Path(grandnoma.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported grandnoma from {grandnoma.__file__}, not from {package}")


def declared_metrics() -> dict[str, dict[str, str]]:
    """name -> {"unit", "kind"} for every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        m["name"]: {"unit": m["unit"], "kind": kind}
        for kind in ("end_to_end", "per_layer")
        for m in spec[kind]
    }


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload, seed: int, args) -> dict:
    import numpy
    import scipy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    sources = hashlib.sha256()
    for path in sorted((SRC / "grandnoma").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "workers": workload.base.workers,
        "sweep": {"axis": workload.axis, "values": list(workload.values)},
        "config": dataclasses.asdict(workload.config(seed)),
    }


def setup_seconds(workload, seed: int) -> tuple[list[float], list[float]]:
    """Set-up time of `SETUP_PROBES` fresh interpreters, one after another:
    (raw seconds, seconds scaled to the reference host speed)."""
    from calibrate import REFERENCE_S

    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, kernel = map(float, done.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_S / kernel)
    return raw, scaled


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times the largest pool worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers > 1 else 0
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def reference_sample(workload, seed: int, checks) -> None:
    """Re-decode every decoder call of a few rep-0 trials per point."""
    import grandnoma.harness
    from checks import check_reference_decodes
    from tracer import Tracer

    per_point = max(1, REFERENCE_SAMPLE_TRIALS // workload.points)
    with Tracer(capture_every=1) as tracer:
        for p, cfg in enumerate(workload.point_configs(seed)):
            stride = max(1, cfg.max_blocks // per_point)
            for i in range(0, cfg.max_blocks, stride):
                grandnoma.harness.run_trial(cfg, grandnoma.derive_trial_rng(seed, p, i))
    check_reference_decodes(checks, tracer.captured)


def check_digest(checks, workload, seed: int, records) -> str:
    from checks import records_digest
    from workloads import DEFAULT_SEED

    digest = records_digest(records)
    if seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "pinned.json").read_text())["record_digests"][workload.name]
        checks.check(digest == pinned, f"rep-0 record digest {digest} != pinned {pinned}")
    return digest


def timed_run(workload, seed: int, seconds: float, checks) -> tuple[dict, dict]:
    import grandnoma
    from calibrate import HostSpeed
    from checks import check_records
    from workloads import rep_seed

    # lazy set-up (CRC table, first numpy calls) finishes before timing
    cfg0 = workload.point_configs(seed)[0]
    for i in range(4):
        grandnoma.run_trial(cfg0, grandnoma.derive_trial_rng(seed, 0, i))

    walls, point_walls, scale = [], [], []
    digest = None
    with HostSpeed(workload.base.workers) as host:
        deadline = time.perf_counter() + seconds
        before = host.kernel_seconds()
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            master = rep_seed(seed, rep)
            started = time.perf_counter()
            records = workload.run(master)
            walls.append(time.perf_counter() - started)
            after = host.kernel_seconds()
            scale.append(host.scale(before, after))
            before = after
            point_walls.append(statistics.fmean(r.wall_time_s for r in records[::2]))
            check_records(checks, records, workload.point_configs(master))
            if rep == 0:
                digest = check_digest(checks, workload, seed, records)
            rep += 1
        rss = peak_rss_mb(workload.base.workers)  # before the helpers are reaped

    reference_sample(workload, seed, checks)
    setups, scaled_setups = setup_seconds(workload, seed)
    trials = workload.trials_per_rep
    metrics = {
        "trials_per_s": statistics.median(trials / (w * f) for w, f in zip(walls, scale)),
        "point_s": statistics.median(p * f for p, f in zip(point_walls, scale)),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": rss,
    }
    detail = {
        "reps": rep,
        "raw": {"trials_per_s": statistics.median(trials / w for w in walls),
                "point_s": statistics.median(point_walls),
                "setup_s": statistics.median(setups)},
        "rep_wall_s": walls, "rep_point_s": point_walls, "rep_scale": scale,
        "setup_s_probes": setups, "rep0_digest": digest,
    }
    return metrics, detail


def traced_run(workload, seed: int, checks) -> tuple[dict, dict]:
    import grandnoma.crc
    from calibrate import HostSpeed
    from checks import check_records, check_reference_decodes, records_key
    from layers import check_spans, layer_metrics
    from tracer import Tracer
    from workloads import rep_seed

    seeds = [rep_seed(seed, rep) for rep in range(workload.trace_reps)]
    workers = workload.base.workers

    def replay(n_workers: int) -> tuple[list, float, float]:
        """Records, wall seconds, and wall seconds at the reference speed."""
        records, wall, scaled = [], 0.0, 0.0
        with HostSpeed(n_workers) as host:
            for master in seeds:
                before = host.kernel_seconds()
                started = time.perf_counter()
                records.extend(workload.run(master, workers=n_workers))
                elapsed = time.perf_counter() - started
                wall += elapsed
                scaled += elapsed * host.scale(before, host.kernel_seconds())
        return records, wall, scaled

    raw, scaled = {}, {}
    pooled, raw["pooled"], scaled["pooled"] = replay(workers)
    if workers == 1:
        one, raw["one"], scaled["one"] = pooled, raw["pooled"], scaled["pooled"]
    else:
        one, raw["one"], scaled["one"] = replay(1)
    checks.check(records_key(one) == records_key(pooled),
                 f"records differ between 1 and {workers} workers")

    builds = []
    for _ in range(5):
        started = time.perf_counter()
        grandnoma.crc.CrcCode(workload.base.crc)
        builds.append((time.perf_counter() - started) * 1e3)

    capture_every = max(1, workload.trials_per_rep * len(seeds) // REFERENCE_SAMPLE_TRIALS)
    with Tracer(capture_every=capture_every) as tracer:
        traced, raw["traced"], scaled["traced"] = replay(1)
    checks.check(records_key(traced) == records_key(pooled), "tracing changed the records")

    per_rep = 2 * workload.points
    for i, master in enumerate(seeds):
        check_records(checks, traced[i * per_rep:(i + 1) * per_rep], workload.point_configs(master))
    digest = check_digest(checks, workload, seed, pooled[:per_rep])
    check_spans(checks, tracer, traced)
    check_reference_decodes(checks, tracer.captured)

    metrics = layer_metrics(tracer, traced, raw, scaled, workers=workers,
                            table_build_ms=statistics.median(builds))
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write_csv(spans_path)
    detail = {"wall_s": raw, "scaled_wall_s": scaled, "rep0_digest": digest,
              "reference_decodes": len(tracer.captured), "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.environ.pop("GRANDNOMA_WORKERS", None)  # the workload fixes the worker count
    _import_program()
    from checks import Checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    kind = "per_layer" if args.trace else "end_to_end"
    want = {name for name, d in declared.items() if d["kind"] == kind}

    checks = Checks()
    if args.trace:
        values, detail = traced_run(workload, args.seed, checks)
    else:
        values, detail = timed_run(workload, args.seed, args.seconds, checks)
    if set(values) != want:
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ want)} are computed but not declared, "
                 "or declared but not computed")

    metrics = {name: {"value": values[name], "unit": declared[name]["unit"]} for name in sorted(values)}
    mismatch_rate = checks.failed / checks.attempted
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "manifest": manifest(workload, args.seed, args),
        "metrics": metrics,
        "mismatch_rate": mismatch_rate,
        "checks": {"attempted": checks.attempted, "failed": checks.failed, "failures": checks.failures},
        "detail": detail,
    }, indent=2) + "\n")

    for name, m in metrics.items():
        print(f"{workload.name}  {name} = {m['value']!r} {m['unit']}")
    print(f"{workload.name}  mismatch_rate = {mismatch_rate!r} ({checks.failed}/{checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"{workload.name}  FAILED: {failure}")
    print(f"{workload.name}  result: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
