import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


RUSAGE = {"minor_faults": 1000, "cpu_s": 2.0}  # what `run_once` adds to a run's result


def test_summary_counts_ties_for_neither_side():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0]
    change = [110.0, 102.0, 97.0, 120.0, 105.0]
    s = bench_pairs.summarize(parent, change, "higher", 0.2)
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (3, 1, 1, 5)
    assert s["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert s["change"] == {"median": 105.0, "q1": 102.0, "q3": 110.0}
    assert s["ratio"] == pytest.approx(1.05)
    assert not s["gain"]  # 3 of 5 wins is below nine tenths
    flipped = bench_pairs.summarize(parent, change, "lower", 0.2)
    assert (flipped["wins"], flipped["losses"], flipped["ties"]) == (1, 3, 1)


def test_gain_rule_needs_nine_tenths_and_more_than_the_parent_iqr():
    parent = [10.0 + i for i in range(10)]  # median 14.5, quartiles 12.25 and 16.75
    assert bench_pairs.summarize(parent, [p + 4.6 for p in parent], "higher", 0.2)["gain"]
    # every pair wins, but the medians differ by less than the parent's IQR of 4.5
    assert not bench_pairs.summarize(parent, [p + 4.4 for p in parent], "higher", 0.2)["gain"]
    # 9 of 10 wins with one tie is enough
    assert bench_pairs.summarize(parent, [p - 5.0 for p in parent[:9]] + [parent[9]], "lower", 0.2)["gain"]
    # 8 wins of 10 is not
    change = [p - 5.0 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.summarize(parent, change, "lower", 0.2)["gain"]


def test_bound_check_flags_a_median_worse_by_more_than_the_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]  # median 100, IQR 1
    s = bench_pairs.summarize(parent, [p - 19.0 for p in parent], "higher", 0.2)
    assert (s["worse"], s["unresolved"], s["bound"]) == (False, False, 0.2)
    assert s["parent_spread"] == pytest.approx(0.01)
    assert bench_pairs.summarize(parent, [p - 21.0 for p in parent], "higher", 0.2)["worse"]
    # for a lower-is-better metric, a rise is the worsening
    assert bench_pairs.summarize(parent, [p + 11.0 for p in parent], "lower", 0.1)["worse"]
    assert not bench_pairs.summarize(parent, [p - 50.0 for p in parent], "lower", 0.1)["worse"]


def test_bound_check_is_unresolved_where_the_parent_spreads_wider_than_the_bound():
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]  # median 100, IQR 20
    s = bench_pairs.summarize(parent, parent[::-1], "higher", 0.1)
    assert s["parent_spread"] == pytest.approx(0.2)
    assert s["unresolved"] and not s["worse"]
    assert not bench_pairs.summarize(parent, parent, "higher", 0.25)["unresolved"]
    # unless every run of the change beats every run of the parent
    assert not bench_pairs.summarize(parent, [p + 41.0 for p in parent], "higher", 0.1)["unresolved"]
    assert bench_pairs.summarize(parent, [p + 39.0 for p in parent], "higher", 0.1)["unresolved"]


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher", 0.2)
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "higher", 0.2)
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [2.0], "faster", 0.2)


def test_same_program_compares_the_package_sources(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "src" / "grandnoma" / "__pycache__").mkdir(parents=True)
        (root / "src" / "grandnoma" / "link.py").write_text("x = 1\n")
        (root / "README.md").write_text(str(root))
    (a / "src" / "grandnoma" / "__pycache__" / "link.pyc").write_bytes(b"cache")
    assert bench_pairs.same_program(a, b)  # other files and caches do not count
    (b / "src" / "grandnoma" / "link.py").write_text("x = 2\n")
    assert not bench_pairs.same_program(a, b)
    (b / "src" / "grandnoma" / "link.py").write_text("x = 1\n")
    (b / "src" / "grandnoma" / "phy.py").write_text("")
    assert not bench_pairs.same_program(a, b)


def test_export_of_the_checkout_copies_its_tracked_files_as_they_stand(tmp_path, monkeypatch):
    """The change side is the working tree: an uncommitted edit is exported,
    an untracked file and a deleted tracked file are not."""
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "src").mkdir(parents=True)
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    (repo / "src" / "link.py").write_text("x = 1\n")
    (repo / "gone.py").write_text("")
    subprocess.run(["git", "add", "."], cwd=repo, check=True)
    (repo / "src" / "link.py").write_text("x = 2\n")
    (repo / "gone.py").unlink()
    (repo / "untracked.py").write_text("")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    bench_pairs.export(None, dest)
    assert [p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file()] == ["src/link.py"]
    assert (dest / "src" / "link.py").read_text() == "x = 2\n"


def test_main_prints_each_metric_against_its_declared_bound(monkeypatch, capsys):
    """With the runs stubbed, every end-to-end metric of BENCHMARK.json gets a
    line with its bound and verdict; a noisy parent reads "unresolved"."""
    declared = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    noisy = iter([50.0, 100.0, 150.0, 100.0])  # the parent's trials_per_s spreads wider than 20%
    def run_once(root, workload, seed, seconds):
        values = {m["name"]: 1.0 for m in declared}
        if root.name == "parent":
            values["trials_per_s"] = next(noisy)
        else:
            values["trials_per_s"], values["point_s"] = 100.0, 1.5  # point_s 50% slower
        return {"correct": True, "metrics": {k: {"value": v} for k, v in values.items()}, "rusage": RUSAGE}
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "same_program", lambda a, b: False)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--workload", "w", "--parent", "HEAD", "--pairs", "4"]) == 0
    lines = {line.split()[1]: line for line in capsys.readouterr().out.splitlines() if line.startswith("w ")}
    for m in declared:
        assert f"bound {m['bound']:.0%}: " in lines[m["name"]]
    assert "within the bound, unresolved (parent IQR/median 0.250)" in lines["trials_per_s"]
    assert "worse by more than the bound" in lines["point_s"]
    assert lines["setup_s"].endswith("within the bound")


def test_main_runs_each_named_workload_from_one_export(monkeypatch, capsys, tmp_path):
    """`--workload` given twice exports the two trees once, runs every pair of
    each workload in the order named and prints and saves one summary each."""
    declared = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    exported, ran = [], []
    def run_once(root, workload, seed, seconds):
        ran.append((workload, root.name))
        value = {"a": 10.0, "b": 20.0}[workload] * (1.5 if root.name == "change" else 1.0)
        return {"correct": True, "metrics": {m["name"]: {"value": value} for m in declared}, "rusage": RUSAGE}
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: exported.append(rev))
    monkeypatch.setattr(bench_pairs, "same_program", lambda a, b: False)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "pairs.json"
    argv = ["--workload", "b", "--workload", "a", "--parent", "HEAD", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert exported == ["HEAD", None]
    assert ran == [("b", "parent"), ("b", "change"), ("b", "change"), ("b", "parent"),
                   ("a", "parent"), ("a", "change"), ("a", "change"), ("a", "parent")]
    lines = capsys.readouterr().out.splitlines()
    for workload, parent in (("a", 10), ("b", 20)):
        summary = [line for line in lines if line.startswith(f"{workload} trials_per_s ")]
        assert len(summary) == 1 and f"parent {parent} [{parent}, {parent}]" in summary[0]
        assert f"{workload} runs not correct: parent 0, change 0" in lines
        assert (f"{workload} run medians: parent 1000 minor faults, 2.00 CPU s, "
                "change 1000 minor faults, 2.00 CPU s") in lines
    assert lines[0].startswith("b pair 1 parent correct=True ") and lines[0].endswith(" minor_faults=1000 cpu_s=2.00")
    saved = json.loads(out.read_text())["workloads"]
    assert list(saved) == ["b", "a"]
    assert saved["a"]["summary"]["trials_per_s"]["ratio"] == pytest.approx(1.5)
    assert len(saved["b"]["runs"]["change"]) == 2


@pytest.mark.parametrize("returncode, stdout", [(1, ""), (0, "Traceback, then no JSON\n")])
def test_main_reports_a_failed_run_and_saves_the_runs_before_it(returncode, stdout, monkeypatch, capsys, tmp_path):
    """A run that exits nonzero, or whose last line is not JSON, ends the
    session with exit code 1: the workload, pair, side, exit code and stderr
    tail are printed, and --out holds the runs that came before it."""
    declared = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    good = json.dumps({"correct": True, "metrics": {m["name"]: {"value": 1.0} for m in declared}})
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        if len(calls) < 3:
            return subprocess.CompletedProcess(cmd, 0, stdout=f"progress\n{good}\n", stderr="")
        return subprocess.CompletedProcess(cmd, returncode, stdout=stdout, stderr="early\nMemoryError: late\n")
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: None)
    monkeypatch.setattr(bench_pairs, "same_program", lambda a, b: False)
    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    out = tmp_path / "pairs.json"
    argv = ["--workload", "w", "--workload", "v", "--parent", "HEAD", "--pairs", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert len(calls) == 3  # pair 2 runs the change first, and that run fails
    err = capsys.readouterr().err
    assert err.startswith(f"w pair 2 change failed: exit code {returncode}, ")
    assert "MemoryError: late" in err
    saved = json.loads(out.read_text())["workloads"]
    assert list(saved) == ["w"] and "summary" not in saved["w"]
    assert [len(saved["w"]["runs"][side]) for side in ("parent", "change")] == [1, 1]
    assert saved["w"]["failed"].startswith("pair 2 change: ")


CHILD = """
import json, time
touched = b"\\x01" * (64 << 20)
while time.process_time() < 0.3:
    pass
print(json.dumps({"correct": True, "metrics": {}}))
"""


def test_run_once_stores_the_faults_and_cpu_time_of_a_real_child(tmp_path):
    """A child that touches 64 MB and spins for 0.3 s of CPU reads at least
    half its 16,384 pages in minor faults and at least 0.3 CPU seconds."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(CHILD)
    result = bench_pairs.run_once(tmp_path, "w", 1, 1.0)
    assert result["correct"] is True
    assert set(result["rusage"]) == {"minor_faults", "cpu_s"}
    assert result["rusage"]["minor_faults"] >= (64 << 20) // 4096 // 2
    assert 0.3 <= result["rusage"]["cpu_s"] < 30.0


def test_main_rejects_a_workload_named_twice(capsys):
    with pytest.raises(SystemExit):
        bench_pairs.main(["--workload", "a", "--workload", "a", "--parent", "HEAD"])
    assert "more than once" in capsys.readouterr().err
