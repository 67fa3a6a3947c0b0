import dataclasses
import json
import warnings

import numpy as np
import pytest

from grandnoma import (
    ConfigError,
    ScenarioConfig,
    derive_trial_rng,
    read_records_csv,
    run_point,
    run_sweep,
    write_records,
)
from grandnoma import harness
from grandnoma.harness import CSV_FIELDS, WORKERS_ENV_VAR

EXPECTED_HEADER = (
    "scenario,decoder,channel,ebn0_db,alpha1,d1,d2,user,bits,bit_errors,ber,"
    "blocks,block_errors,bler,mean_queries,undetected_rate,seed,wall_time_s"
)


def records_equal(a, b):
    return all(
        getattr(a, f.name) == getattr(b, f.name)
        for f in dataclasses.fields(a)
        if f.name != "wall_time_s"
    )


def test_trial_rng_is_deterministic():
    a = derive_trial_rng(42, 3, 17).standard_normal(64)
    b = derive_trial_rng(42, 3, 17).standard_normal(64)
    assert np.array_equal(a, b)


def test_trial_rng_streams_are_distinct():
    base = derive_trial_rng(42, 0, 0).standard_normal(64)
    for point, trial in ((0, 1), (1, 0), (2, 5)):
        other = derive_trial_rng(42, point, trial).standard_normal(64)
        assert not np.array_equal(base, other)
    assert not np.array_equal(base, derive_trial_rng(43, 0, 0).standard_normal(64))


def test_worker_count_does_not_change_records():
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=20, max_blocks=600, master_seed=9)
    rec1 = run_point(cfg, 0)
    rec2 = run_point(cfg.at(workers=2), 0)
    assert records_equal(rec1[0], rec2[0]) and records_equal(rec1[1], rec2[1])


@pytest.mark.parametrize("block", [1, 5, 300])
def test_block_size_does_not_change_records(block, monkeypatch):
    """Records are the same for any number of trials per vectorized block,
    with batches that are not multiples of it and a stop inside the run."""
    cfg = ScenarioConfig(scenario="grand-assist", decoder="orbgrand", channel="rayleigh",
                         ebn0_db=18.0, d2=1.5, min_block_errors=8, max_blocks=10_000,
                         trials_per_batch=45, orb_query_budget=5000, master_seed=17)
    base = run_point(cfg, 3)
    monkeypatch.setattr(harness, "TRIALS_PER_BLOCK", block)
    other = run_point(cfg, 3)
    assert base[0].blocks % 45 == 0 and base[0].blocks > 45
    assert records_equal(base[0], other[0]) and records_equal(base[1], other[1])


def test_workers_env_var_override(monkeypatch):
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=10, max_blocks=300, master_seed=9)
    base = run_point(cfg, 0)
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    override = run_point(cfg, 0)
    assert records_equal(base[0], override[0])
    monkeypatch.setenv(WORKERS_ENV_VAR, "zero")
    with pytest.raises(ConfigError):
        run_point(cfg, 0)


def test_stopping_rule_min_errors():
    cfg = ScenarioConfig(scenario="pure", channel="rayleigh", ebn0_db=6.0,
                         min_block_errors=30, max_blocks=100_000, trials_per_batch=64)
    rec1, rec2 = run_point(cfg, 0)
    assert rec1.block_errors >= 30 and rec2.block_errors >= 30
    assert rec1.blocks % 64 == 0
    assert rec1.blocks <= 100_000


def test_stopping_rule_max_blocks_exact():
    cfg = ScenarioConfig(scenario="pure", ebn0_db=60.0,  # error-free regime
                         min_block_errors=5, max_blocks=500, trials_per_batch=64)
    rec1, rec2 = run_point(cfg, 0)
    assert rec1.blocks == 500
    assert rec1.block_errors < 5
    assert rec1.bits == 500 * cfg.crc.message_len


def test_expected_block_count_tracks_bler():
    cfg = ScenarioConfig(scenario="pure", channel="rayleigh", ebn0_db=14.0,
                         min_block_errors=50, max_blocks=100_000, trials_per_batch=32)
    rec1, rec2 = run_point(cfg, 0)
    worst = min(rec1.bler, rec2.bler)
    expected = 50 / worst
    assert expected / 3 <= rec1.blocks <= 3 * expected


def test_coin_flip_regime_at_very_low_snr():
    # at -20 dB the BPSK margins still bias decisions to ~0.45, so the
    # +-0.02 coin-flip window only opens a decade deeper into the noise
    cfg = ScenarioConfig(scenario="pure", ebn0_db=-32.0, min_block_errors=10, max_blocks=256)
    rec1, rec2 = run_point(cfg, 0)
    assert abs(rec1.ber - 0.5) < 0.02
    assert abs(rec2.ber - 0.5) < 0.02


def test_record_arithmetic_consistency():
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=10, max_blocks=300)
    rec1, rec2 = run_point(cfg, 0)
    for rec in (rec1, rec2):
        assert rec.bits == rec.blocks * cfg.crc.message_len
        assert rec.ber == pytest.approx(rec.bit_errors / rec.bits)
        assert rec.bler == pytest.approx(rec.block_errors / rec.blocks)
        assert rec.seed == cfg.master_seed


def test_run_sweep_axes_and_validation():
    cfg = ScenarioConfig(scenario="pure", ebn0_db=4.0, min_block_errors=5, max_blocks=64,
                         trials_per_batch=32)
    seen = []
    records = run_sweep(cfg, "ebn0", [0.0, 4.0], on_point=lambda pair: seen.append(pair))
    assert len(records) == 4 and len(seen) == 2
    assert records[0].ebn0_db == 0.0 and records[2].ebn0_db == 4.0

    power = run_sweep(cfg, "alpha1", [0.2, 0.4])
    assert power[0].alpha1 == 0.2 and power[2].alpha1 == 0.4

    dist = run_sweep(cfg, "d1", [1.0, 2.0])
    assert dist[0].d1 == 1.0 and dist[2].d1 == 2.0

    with pytest.raises(ConfigError):
        run_sweep(cfg, "ebn0", [])
    with pytest.raises(ConfigError):
        run_sweep(cfg, "ebn0", [4.0, 2.0])
    with pytest.raises(ConfigError):
        run_sweep(cfg, "nope", [1.0])


def test_csv_header_and_roundtrip(tmp_path):
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=5, max_blocks=128)
    records = list(run_point(cfg, 0))
    path = tmp_path / "records.csv"
    write_records(records, "csv", str(path))
    text = path.read_text().splitlines()
    assert text[0] == EXPECTED_HEADER
    parsed = read_records_csv(str(path))
    assert len(parsed) == 2
    for a, b in zip(parsed, records):
        for f in dataclasses.fields(a):
            if f.name == "wall_time_s":
                assert getattr(a, f.name) == pytest.approx(getattr(b, f.name), abs=1e-6)
            else:
                assert getattr(a, f.name) == getattr(b, f.name)


def test_small_rates_survive_csv():
    cfg = ScenarioConfig(ebn0_db=8.0, min_block_errors=5, max_blocks=64)
    rec = run_point(cfg, 0)[0]
    rec = dataclasses.replace(rec, ber=2e-8, bler=3.5e-7)
    import io

    buf = io.StringIO()
    write_records([rec], "csv", buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert float(row[CSV_FIELDS.index("ber")]) == 2e-8
    assert "e-" in row[CSV_FIELDS.index("ber")]


def test_empty_record_list_gives_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_records([], "csv", str(path))
    assert path.read_text() == EXPECTED_HEADER + "\n"


def test_json_roundtrip(tmp_path):
    cfg = ScenarioConfig(ebn0_db=8.0, min_block_errors=5, max_blocks=128)
    records = list(run_point(cfg, 0))
    path = tmp_path / "records.json"
    write_records(records, "json", str(path))
    data = json.loads(path.read_text())
    assert [d["user"] for d in data] == [1, 2]
    assert data[0]["ber"] == records[0].ber
    assert set(data[0]) == set(CSV_FIELDS)


def test_write_records_errors(tmp_path):
    with pytest.raises(ConfigError):
        write_records([], "xml", str(tmp_path / "x"))
    with pytest.raises(OSError) as err:
        write_records([], "csv", str(tmp_path / "nodir" / "x.csv"))
    assert "nodir" in str(err.value)


def test_config_validation_names_offending_key():
    with pytest.raises(ConfigError, match="alpha1"):
        ScenarioConfig(alpha1=1.5)
    with pytest.raises(ConfigError, match="scenario"):
        ScenarioConfig(scenario="bogus")
    with pytest.raises(ConfigError, match="d1/d2"):
        ScenarioConfig(d1=0.0)
    with pytest.raises(ConfigError, match="min_block_errors"):
        ScenarioConfig(min_block_errors=0)


@pytest.mark.parametrize("key,field,value", [
    ("ebn0_db", "ebn0_db", float("inf")),
    ("ebn0_db", "ebn0_db", float("nan")),
    ("xi", "xi", float("nan")),
    ("xi", "xi", float("inf")),
    ("xi", "xi", -1.0),
    ("orb.max_logistic_weight", "orb_max_logistic_weight", -3),
])
def test_config_rejects_nonfinite_and_negative_values(key, field, value):
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("alpha1", [0.5, 0.65, 0.95])
def test_sign_sic_warning_at_or_above_equal_power(alpha1):
    with pytest.warns(UserWarning, match="sign-based SIC.*DECISIONS.md, D1"):
        ScenarioConfig(alpha1=alpha1)


def test_no_sign_sic_warning_below_equal_power():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ScenarioConfig(alpha1=0.49)
        ScenarioConfig(xi=0.0, orb_max_logistic_weight=0)


def test_ber_monotone_in_snr():
    cfg = ScenarioConfig(scenario="pure", min_block_errors=50, max_blocks=1024,
                         trials_per_batch=256)
    records = run_sweep(cfg, "ebn0", [4.0, 8.0, 12.0])
    user1 = [r.ber for r in records if r.user == 1]
    user2 = [r.ber for r in records if r.user == 2]
    assert user1[0] > user1[1] > user1[2]
    assert user2[0] > user2[1] > user2[2]
