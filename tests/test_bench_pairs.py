import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summary_counts_ties_for_neither_side():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0]
    change = [110.0, 102.0, 97.0, 120.0, 105.0]
    s = bench_pairs.summarize(parent, change, "higher")
    assert (s["wins"], s["losses"], s["ties"], s["pairs"]) == (3, 1, 1, 5)
    assert s["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert s["change"] == {"median": 105.0, "q1": 102.0, "q3": 110.0}
    assert s["ratio"] == pytest.approx(1.05)
    assert not s["gain"]  # 3 of 5 wins is below nine tenths
    flipped = bench_pairs.summarize(parent, change, "lower")
    assert (flipped["wins"], flipped["losses"], flipped["ties"]) == (1, 3, 1)


def test_gain_rule_needs_nine_tenths_and_more_than_the_parent_iqr():
    parent = [10.0 + i for i in range(10)]  # median 14.5, quartiles 12.25 and 16.75
    assert bench_pairs.summarize(parent, [p + 4.6 for p in parent], "higher")["gain"]
    # every pair wins, but the medians differ by less than the parent's IQR of 4.5
    assert not bench_pairs.summarize(parent, [p + 4.4 for p in parent], "higher")["gain"]
    # 9 of 10 wins with one tie is enough
    assert bench_pairs.summarize(parent, [p - 5.0 for p in parent[:9]] + [parent[9]], "lower")["gain"]
    # 8 wins of 10 is not
    change = [p - 5.0 for p in parent[:8]] + parent[8:]
    assert not bench_pairs.summarize(parent, change, "lower")["gain"]


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0, 2.0], [1.0], "higher")
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], "higher")
    with pytest.raises(ValueError):
        bench_pairs.summarize([1.0], [2.0], "faster")


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
