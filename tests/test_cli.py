import json

import pytest

from grandnoma.cli import main
from grandnoma.harness import read_records_csv


def run_cli(args):
    return main(args)


def test_sweep_snr_writes_csv(tmp_path):
    out = tmp_path / "snr.csv"
    code = run_cli([
        "sweep-snr", "--ebn0", "4,8", "--scenario", "grand", "--decoder", "grand",
        "--min-block-errors", "5", "--max-blocks", "128", "--seed", "3",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    records = read_records_csv(str(out))
    assert [r.ebn0_db for r in records] == [4.0, 4.0, 8.0, 8.0]
    assert {r.user for r in records} == {1, 2}


def test_sweep_power_and_distance(tmp_path):
    out = tmp_path / "pw.csv"
    code = run_cli([
        "sweep-power", "--ebn0", "8", "--alpha1-list", "0.2,0.4",
        "--min-block-errors", "5", "--max-blocks", "64", "--out", str(out), "--quiet",
    ])
    assert code == 0
    assert [r.alpha1 for r in read_records_csv(str(out))] == [0.2, 0.2, 0.4, 0.4]

    out2 = tmp_path / "d.csv"
    code = run_cli([
        "sweep-distance", "--ebn0", "8", "--d1-list", "1,2", "--d2", "3",
        "--min-block-errors", "5", "--max-blocks", "64", "--out", str(out2), "--quiet",
    ])
    assert code == 0
    recs = read_records_csv(str(out2))
    assert [r.d1 for r in recs] == [1.0, 1.0, 2.0, 2.0]
    assert all(r.d2 == 3.0 for r in recs)


def test_sweep_snr_requires_ebn0(capsys):
    assert run_cli(["sweep-snr", "--quiet"]) == 1
    assert "ebn0" in capsys.readouterr().err


def test_analyze_emits_theory_records(tmp_path):
    out = tmp_path / "theory.json"
    code = run_cli([
        "analyze", "--ebn0", "0,8,16", "--channel", "awgn", "--p-ue", "0.001",
        "--format", "json", "--out", str(out), "--quiet",
    ])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data) == 6
    assert all(d["decoder"] == "theory" for d in data)
    user1 = [d["ber"] for d in data if d["user"] == 1]
    assert user1[0] > user1[1] > user1[2]  # monotone in Eb/N0
    assert all(0.0 <= d["bler"] <= 1.0 for d in data)


def test_config_file_defaults_and_flag_override(tmp_path):
    config = {
        "scenario": "pure",
        "channel": "rayleigh",
        "alpha1": 0.3,
        "ebn0_db_list": [6.0],
        "min_block_errors": 5,
        "max_blocks": 64,
        "crc.koopman_hex": "0x8f3",
        "crc.k": 116,
        "crc.n": 128,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out.csv"
    code = run_cli([
        "sweep-snr", "--config", str(cfg_path), "--alpha1", "0.25",
        "--out", str(out), "--quiet",
    ])
    assert code == 0
    recs = read_records_csv(str(out))
    assert recs[0].scenario == "pure"          # from config file
    assert recs[0].alpha1 == 0.25              # flag wins
    assert recs[0].ebn0_db == 6.0              # from config file


def test_unknown_config_key_fails(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"bogus": 1}))
    assert run_cli(["sweep-snr", "--ebn0", "4", "--config", str(cfg_path), "--quiet"]) == 1


@pytest.mark.parametrize("entry", [
    {"workers": "2"}, {"alpha1": "0.3"}, {"trials_per_batch": 16.5}, {"max_blocks": 40.5},
    {"seed": True}, {"orb.max_logistic_weight": 2.0}, {"P": None},
    {"crc.n": 128.9, "crc.k": 116}, {"crc.k": 116.2}, {"crc.k": "116"}, {"crc.n": True},
    {"crc.koopman_hex": 2291.7}, {"crc.koopman_hex": "0xzz"}, {"crc.koopman_hex": None},
    {"ebn0_db_list": ["x"]}, {"ebn0_db_list": [4.0, True]}, {"ebn0_db_list": "4"},
])
def test_config_file_value_of_the_wrong_type_fails(tmp_path, capsys, entry):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(entry))
    assert run_cli(["sweep-snr", "--ebn0", "10", "--config", str(cfg_path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(entry)) in err


def test_bad_flag_value_fails(capsys):
    assert run_cli(["sweep-snr", "--ebn0", "4", "--alpha1", "1.4", "--quiet"]) == 1
    assert "alpha1" in capsys.readouterr().err


def test_records_to_stdout(capsys):
    code = run_cli([
        "sweep-snr", "--ebn0", "8", "--min-block-errors", "2", "--max-blocks", "32", "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,decoder,channel,")
    assert len(out.strip().splitlines()) == 3


def test_selfcheck_passes(capsys):
    assert run_cli(["selfcheck", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 5
