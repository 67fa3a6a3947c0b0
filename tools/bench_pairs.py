"""Alternating paired benchmark runs: a parent commit against this checkout.

    python3 tools/bench_pairs.py --workload orb-awgn-14db [--workload hard-awgn-14db ...] \\
        --parent HEAD~1 [--pairs 10] [--seed 1] [--seconds 30] [--out pairs.json]

The parent commit is exported with `git archive`, and this checkout's
tracked files as they stand (uncommitted changes included) are copied, each
into its own temporary directory, so that both sides run from the same kind
of tree.  Each pair runs `perfbench/run.py --trace 0` once in each, and the
side that goes first alternates from pair to pair.  `--workload` may be
given more than once: every named workload runs its pairs, in the order
named, from the same two trees, and gets its own summary.  For every
end-to-end metric that `BENCHMARK.json` declares, the summary gives each
side's median and quartiles and the change's wins, losses and ties (a tie
counts for neither side).  It also says whether the gain rule holds: the
change wins at least nine tenths of the pairs, and its median beats the
parent's by more than the parent's interquartile range.  And it checks the
metric's `bound` from `BENCHMARK.json`, a fraction of the parent's median:
the change is "worse" when its median is worse than the parent's by more
than that, and "unresolved" when the parent's interquartile range over its
median already exceeds it, unless every run of the change beats every run
of the parent.  `BENCHMARK.json` is only read.

Each run's minor page faults and CPU seconds (user plus system), its
process and every process it waited for, are stored beside its result
under "rusage", printed on its pair line and summarized per side as
medians.  They explain a reading, such as a heap-state swing in faults
that moves trials/s, and gate nothing.

A run that exits nonzero, or whose last line is not JSON, ends the session:
its workload, pair, side, exit code and the tail of its stderr are printed,
`--out` is written with the runs so far, and the exit code is 1.

`--parent` is required: `HEAD` compares uncommitted changes with the last
commit, and once the change is committed its parent is `HEAD~1`.  The run
stops before the first pair if the parent's `src/grandnoma` is the same as
the checkout's, since the pairs would then compare the program with itself.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
STDERR_TAIL = 20  # lines of a failed run's stderr to print


class RunFailed(RuntimeError):
    """A benchmark run that exited nonzero or did not end with a JSON line."""


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, win counts, the gain rule and the bound check for
    one metric.

    `parent[i]` and `change[i]` are the two runs of pair i; `better` is
    "higher" or "lower"; `bound` is the worsening the benchmark allows, as a
    fraction of the parent's median.  Quartiles are numpy's linear
    percentiles.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need equal, nonzero run counts, got {len(parent)} and {len(change)}")
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75]).tolist()
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75]).tolist()
    margins = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(d > 0 for d in margins)
    losses = sum(d < 0 for d in margins)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else math.inf
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    return {
        "better": better,
        "pairs": len(parent),
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "wins": wins,
        "losses": losses,
        "ties": len(parent) - wins - losses,
        "ratio": c_med / p_med if p_med else None,
        "gain": wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1,
        "bound": bound,
        "parent_spread": spread,
        "worse": sign * (c_med - p_med) < -bound * abs(p_med),
        "unresolved": spread > bound and not every_run_better,
    }


def same_program(a: Path, b: Path) -> bool:
    """Whether the trees at `a` and `b` hold the same `src/grandnoma` files,
    byte for byte (compiled caches aside)."""
    def files(root: Path) -> dict[str, bytes]:
        pkg = root / "src" / "grandnoma"
        return {str(f.relative_to(pkg)): f.read_bytes() for f in sorted(pkg.rglob("*"))
                if f.is_file() and "__pycache__" not in f.parts}
    return files(a) == files(b)


def export(rev: str | None, dest: Path) -> None:
    """Write the tree of commit `rev` of this repository into `dest`; for
    `rev` None, the checkout's tracked files as they stand in it."""
    if rev is None:
        names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True).stdout
        for name in filter(None, names.decode().split("\0")):
            if (ROOT / name).is_file():  # a tracked file deleted in the checkout is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, dest / name)
        return
    done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the tree at `root`: its final JSON line,
    with the run's minor faults and CPU seconds added under "rusage".
    Raises RunFailed, with the exit code and the tail of stderr, if the run
    exits nonzero or its last line is not a JSON object."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last) if done.returncode == 0 else None
    except json.JSONDecodeError:
        result = None
    if isinstance(result, dict):
        result["rusage"] = {
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        }
        return result
    tail = "\n".join(done.stderr.splitlines()[-STDERR_TAIL:])
    raise RunFailed(f"exit code {done.returncode}, last stdout line {last!r}, stderr tail:\n{tail}")


def report(workload: str, declared: list[dict], runs: dict[str, list[dict]]) -> dict:
    """Print one workload's summary lines and return its summaries by metric."""
    summary = {}
    for m in declared:
        name = m["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change"))
        summary[name] = s = summarize(parent, change, m["better"], m["bound"])
        p, c = s["parent"], s["change"]
        verdict = "worse by more than the bound" if s["worse"] else "within the bound"
        if s["unresolved"]:
            verdict += f", unresolved (parent IQR/median {s['parent_spread']:.3f})"
        print(f"{workload} {name} [{m['unit']}, {m['better']} is better]: "
              f"parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], ratio {s['ratio']:.3f}, "
              f"wins {s['wins']}/{s['pairs']} (losses {s['losses']}, ties {s['ties']}), gain rule "
              f"{'met' if s['gain'] else 'not met'}, bound {s['bound']:.0%}: {verdict}", flush=True)
    usage = {side: {key: np.median([r["rusage"][key] for r in rs]) for key in ("minor_faults", "cpu_s")}
             for side, rs in runs.items()}
    print(f"{workload} run medians: " + ", ".join(
        f"{side} {u['minor_faults']:.0f} minor faults, {u['cpu_s']:.2f} CPU s" for side, u in usage.items()),
        flush=True)
    failed = {side: sum(not r["correct"] for r in rs) for side, rs in runs.items()}
    print(f"{workload} runs not correct: parent {failed['parent']}, change {failed['change']}", flush=True)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, action="append",
                        help="a workload to run; give it again for more, each with its own summary")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", required=True, help="commit to compare with, e.g. HEAD~1")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if len(set(args.workload)) != len(args.workload):
        parser.error(f"--workload names a workload more than once: {args.workload}")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results, status = {}, 0
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, roots["parent"])
        export(None, roots["change"])
        if same_program(roots["parent"], roots["change"]):
            parser.error(f"src/grandnoma at {args.parent} is the same as in this checkout; pass the change's parent")
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            try:
                for pair in range(args.pairs):
                    order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                    for side in order:
                        result = run_once(roots[side], workload, args.seed, args.seconds)
                        runs[side].append(result)
                        values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                          for m in declared)
                        usage = result["rusage"]
                        values += f" minor_faults={usage['minor_faults']} cpu_s={usage['cpu_s']:.2f}"
                        print(f"{workload} pair {pair + 1} {side:6s} correct={result['correct']} {values}",
                              flush=True)
            except RunFailed as exc:
                print(f"{workload} pair {pair + 1} {side} failed: {exc}", file=sys.stderr, flush=True)
                results[workload] = {"failed": f"pair {pair + 1} {side}: {exc}", "runs": runs}
                status = 1
                break
            results[workload] = {"summary": report(workload, declared, runs), "runs": runs}
    if args.out:
        args.out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "parent": args.parent,
                                        "workloads": results}, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
