import importlib.util
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import grandnoma
from grandnoma import CrcSpec, DecodeResult
from grandnoma.crc import get_code

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


def test_bind_passes_each_side_only_the_keywords_its_decoder_accepts():
    """A parent decoder without `syndrome=` or `positions=` replays the
    captured call without them; a decoder that takes them keeps them."""
    code = get_code(CrcSpec(0x5, 4, 7))
    word = np.zeros(7, np.uint8)
    failing, llrs = np.eye(7, dtype=np.uint8)[3], np.linspace(-1.0, 2.0, 7)
    positions, syndrome = grandnoma.rank_by_reliability(llrs), code.syndrome(failing)
    captured = [("hard_grand_decode", (word, code), {"max_weight": 2, "syndrome": 0}, None),
                ("orbgrand_decode", (failing, llrs, code),
                 {"query_budget": 9, "syndrome": syndrome, "positions": positions}, None)]

    def hard_grand_decode(word, code, max_weight=4):
        return DecodeResult(word, (), 1, False)

    def orbgrand_decode(word, llrs, code, max_logistic_weight=None, query_budget=1_000_000, *, syndrome=None):
        return DecodeResult(word, (), 1, False)

    grand = types.SimpleNamespace(hard_grand_decode=hard_grand_decode, orbgrand_decode=orbgrand_decode)
    parent = types.SimpleNamespace(grand=grand, get_code=get_code, CrcSpec=CrcSpec)
    [(fn, args, kwargs), (orb, orb_args, orb_kwargs)] = decode_ab.bind(parent, captured)
    assert fn is hard_grand_decode and kwargs == {"max_weight": 2}
    assert args[0] is word and args[1] is code
    assert orb is orbgrand_decode and orb_kwargs == {"query_budget": 9, "syndrome": syndrome}
    [(fn, args, kwargs), (orb, orb_args, orb_kwargs)] = decode_ab.bind(grandnoma, captured)
    assert fn is grandnoma.grand.hard_grand_decode and kwargs == {"max_weight": 2, "syndrome": 0}
    assert fn(*args, **kwargs).queries == 1
    assert orb is grandnoma.grand.orbgrand_decode and orb_kwargs["positions"] is positions
    assert orb(*orb_args, **orb_kwargs).error_pattern == (3,)


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="needs a git checkout to export the parent")
def test_replay_against_head_gives_the_captured_results():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "decode_ab.py"), "--workload", "orb-awgn-14db",
         "--parent", "HEAD", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.search(r"over 1 rounds of \d+ calls; every result equals the captured one", done.stdout)
