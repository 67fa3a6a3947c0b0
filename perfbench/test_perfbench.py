"""Tests of the benchmark itself (not part of the package's test suite):

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grandnoma  # noqa: E402
from checks import Checks, check_reference_decodes, records_digest, records_key  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    done = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return done


def _result(workload, seed, trace, seconds="1"):
    done = _bench("--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    saved = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, saved


def _small(name, cap=64):
    w = WORKLOADS[name]
    return dataclasses.replace(w, base=w.base.at(max_blocks=cap))


def test_counts_and_digests_repeat_across_invocations():
    # the default seed, so each run also checks the pinned record digest
    runs = [_result("hard-awgn-14db", 1, trace=1) for _ in range(2)]
    (a, saved_a), (b, saved_b) = runs
    assert a["correct"] and b["correct"]
    counts = [n for n, m in a["metrics"].items() if m["unit"] == "count"]
    assert "grand.hard.calls" in counts and "link.trials" in counts
    assert {n: a["metrics"][n] for n in counts} == {n: b["metrics"][n] for n in counts}
    pinned = json.loads((HERE / "pinned.json").read_text())["record_digests"]["hard-awgn-14db"]
    assert saved_a["detail"]["rep0_digest"] == saved_b["detail"]["rep0_digest"] == pinned
    assert a["metrics"]["grand.orb.calls"]["value"] == 0


def test_tracing_does_not_change_records():
    w = _small("assist-rayleigh-distance")
    untraced = w.run(7, workers=1)
    with Tracer(capture_every=8) as tracer:
        traced = w.run(7, workers=1)
    assert records_key(traced) == records_key(untraced)
    assert len(tracer.captured) > 0
    assert grandnoma.harness.run_trial is grandnoma.link.run_trial  # wrappers removed


def test_other_seed_changes_inputs_and_digest():
    w = _small("orb-awgn-14db")
    cfg = w.config(1)
    draw1 = grandnoma.draw_trial(cfg, grandnoma.derive_trial_rng(1, 0, 0))
    draw2 = grandnoma.draw_trial(cfg, grandnoma.derive_trial_rng(2, 0, 0))
    assert not np.array_equal(draw1.n1, draw2.n1)
    assert records_digest(w.run(1)) != records_digest(w.run(2))
    assert records_digest(w.run(1)) == records_digest(w.run(1))


def test_reference_check_catches_a_wrong_decode():
    w = _small("orb-awgn-14db", cap=16)
    with Tracer(capture_every=1) as tracer:
        w.run(4)
    checks = Checks()
    check_reference_decodes(checks, tracer.captured)
    assert checks.attempted == 32 and checks.failed == 0
    decoder, args, kwargs, got = tracer.captured[0]
    wrong = dataclasses.replace(got, queries=got.queries + 1)
    check_reference_decodes(checks, [(decoder, args, kwargs, wrong)])
    assert checks.failed == 1


def test_declared_workloads_are_the_defined_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_declared(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    last, saved = _result("hard-awgn-14db", 2, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {n: m["unit"] for n, m in last["metrics"].items()} == declared
    manifest = saved["manifest"]
    assert manifest["seed"] == 2 and manifest["config"]["decoder"] == "grand"
    assert {"git_sha", "git_dirty", "nproc", "python", "numpy", "scipy", "workers"} <= set(manifest)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "hard-awgn-14db", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
