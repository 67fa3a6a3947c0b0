import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grandnoma import DecodeResult

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("decode_ab", ROOT / "tools" / "decode_ab.py")
decode_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(decode_ab)


def test_first_mismatch_finds_any_differing_field():
    word = np.zeros(8, np.uint8)
    want = DecodeResult(word, (), 3, False)
    captured = [("orbgrand_decode", (), {}, want)] * 2
    assert decode_ab.first_mismatch([want, want], captured) is None
    flipped = word.copy()
    flipped[2] = 1
    for got in (DecodeResult(flipped, (), 3, False), DecodeResult(word, (2,), 3, False),
                DecodeResult(word, (), 4, False), DecodeResult(word, (), 3, True)):
        assert decode_ab.first_mismatch([want, got], captured) == 1


def test_calls_are_bucketed_by_the_query_count_of_the_captured_result():
    word = np.zeros(8, np.uint8)
    counts = [1, 2, 129, 130, 5_000, 1, 129]
    captured = [("orbgrand_decode", (), {}, DecodeResult(word, (), q, False)) for q in counts]
    assert decode_ab.bucket_calls(captured) == {"1": [0, 5], "2-129": [1, 2, 6], "130+": [3, 4]}
    assert decode_ab.bucket_calls(captured[:1]) == {"1": [0]}


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export the parent")
def test_replay_against_head_gives_the_captured_results():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "decode_ab.py"), "--workload", "orb-awgn-14db",
         "--parent", "HEAD", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"over 1 rounds of \d+ calls; every result equals the captured one", done.stdout)
