"""Golden records: fixed-seed `run_point` results pinned field for field.

Each CSV under `tests/golden/` holds the records of a few fixed-seed
points, every field except `wall_time_s`, written with the library's own
CSV formatting (17 significant digits for rates), so a record that differs
in any bit of any field fails.  The cases cover every scenario with both
decoders on both channels, `d1 != d2`, a point that reaches
`min_block_errors` inside a batch at one and two workers, batch and trial
caps that are not multiples of the harness's trial block, decoder budgets
that abandon, and a CRC with an odd message length.

Regenerate the files (only on purpose, from the commit whose records are
to be pinned):

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import sys
from pathlib import Path

import pytest

from grandnoma import CrcSpec, ScenarioConfig, run_point, write_records
from grandnoma.harness import CSV_FIELDS

GOLDEN = Path(__file__).parent / "golden"
FIELDS = [f for f in CSV_FIELDS if f != "wall_time_s"]
UNREACHABLE = 10**9
MODES = [(s, d) for s in ("pure", "grand", "grand-assist") for d in ("grand", "orbgrand")]


def _modes(prefix: str, **common) -> dict[str, ScenarioConfig]:
    return {
        f"{prefix}-{scenario}-{decoder}": ScenarioConfig(scenario=scenario, decoder=decoder, **common)
        for scenario, decoder in MODES
    }


CASES: dict[str, dict[str, ScenarioConfig]] = {
    "awgn": _modes("awgn", channel="awgn", ebn0_db=9.0, max_blocks=97, min_block_errors=UNREACHABLE,
                   orb_query_budget=20_000, master_seed=101),
    "rayleigh": _modes("rayleigh", channel="rayleigh", ebn0_db=24.0, d1=1.6, d2=3.0, max_blocks=97,
                       min_block_errors=UNREACHABLE, orb_query_budget=20_000, master_seed=202),
    "stops": {
        f"stop-pure-workers{w}": ScenarioConfig(
            scenario="pure", channel="awgn", ebn0_db=15.0, min_block_errors=25,
            max_blocks=100_000, trials_per_batch=48, workers=w, master_seed=303)
        for w in (1, 2)
    } | {
        f"stop-assist-orbgrand-workers{w}": ScenarioConfig(
            scenario="grand-assist", decoder="orbgrand", channel="rayleigh", ebn0_db=18.0,
            d2=1.5, min_block_errors=12, max_blocks=100_000, trials_per_batch=40,
            orb_query_budget=5_000, workers=w, master_seed=304)
        for w in (1, 2)
    },
    "odd_crc": _modes("crc8-57", channel="awgn", ebn0_db=7.0, alpha1=0.2, max_blocks=75,
                      min_block_errors=UNREACHABLE, grand_max_weight=2, orb_query_budget=3_000,
                      crc=CrcSpec(koopman=0xA6, message_len=57, codeword_len=65), master_seed=405),
}


def golden_rows(name: str) -> list[list[str]]:
    """The case name and the CSV fields, except wall_time_s, of each record."""
    rows = []
    for case, cfg in CASES[name].items():
        buf = io.StringIO()
        write_records(run_point(cfg), "csv", buf)
        for record in csv.DictReader(io.StringIO(buf.getvalue())):
            rows.append([case] + [record[f] for f in FIELDS])
    return rows


def _path(name: str) -> Path:
    return GOLDEN / f"{name}.csv"


@pytest.mark.parametrize("name", list(CASES))
def test_records_match_golden(name, monkeypatch):
    monkeypatch.delenv("GRANDNOMA_WORKERS", raising=False)
    with open(_path(name), newline="") as fh:
        header, *want = list(csv.reader(fh))
    assert header == ["case"] + FIELDS
    got = golden_rows(name)
    assert [row[0] for row in got] == [row[0] for row in want]
    for g, w in zip(got, want):
        assert g == w, f"case {g[0]}: " + ", ".join(
            f"{f}: {a} != {b}" for f, a, b in zip(FIELDS, g[1:], w[1:]) if a != b)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with open(_path(name), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["case"] + FIELDS)
            writer.writerows(golden_rows(name))
        print(f"wrote {_path(name)}", file=sys.stderr)
