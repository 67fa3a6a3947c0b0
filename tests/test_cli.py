import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest

from grandnoma import cli, harness
from grandnoma.cli import _build_config, build_parser, main
from grandnoma.config import CONFIG_KEYS, MAX_WORKERS, ConfigError, ScenarioConfig
from oracles import read_records_csv
from test_harness import _count_pools


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


ANALYZE_GOLDEN = Path(__file__).parent / "golden" / "analyze.csv"
ANALYZE_ARGS = ["analyze", "--ebn0", "0,8,16", "--p-ue", "0.001", "--alpha1", "0.2", "--d1", "1.6",
                "--d2", "3", "--theory-samples", "2000", "--quiet"]


def analyze_csv(directory) -> str:
    """`analyze`'s CSV on AWGN, then its rows on Rayleigh, under one header."""
    texts = []
    for channel in ("awgn", "rayleigh"):
        out = directory / f"{channel}.csv"
        assert run_cli(ANALYZE_ARGS + ["--channel", channel, "--out", str(out)]) == 0
        texts.append(out.read_text())
    return texts[0] + texts[1].split("\n", 1)[1]


def test_analyze_records_match_golden(tmp_path):
    """Every field of every theory record, pinned byte for byte.  Regenerate
    only on purpose, from the commit whose records are to be pinned:

        PYTHONPATH=src:tests python -c "import pathlib, tempfile, test_cli as t; \\
            t.ANALYZE_GOLDEN.write_text(t.analyze_csv(pathlib.Path(tempfile.mkdtemp())))"
    """
    assert analyze_csv(tmp_path).splitlines() == ANALYZE_GOLDEN.read_text().splitlines()


HELP_GOLDEN = Path(__file__).parent / "golden" / "help.txt"
HELP_COMMANDS = ["", "sweep-snr", "sweep-power", "sweep-distance", "analyze", "selfcheck"]


def help_text() -> str:
    """`grandnoma --help` and each subcommand's `--help` at 80 columns, each
    under the command line that prints it."""
    texts = []
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for command in HELP_COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
                build_parser().parse_args([*command.split(), "--help"])
            texts.append(f"$ grandnoma {command + ' ' if command else ''}--help\n{out.getvalue()}")
    return "\n".join(texts)


def test_help_texts_match_golden():
    """Every help text, pinned byte for byte (argparse's layout, so a new
    Python version may move it).  Regenerate only on purpose:

        PYTHONPATH=src:tests python -c "import test_cli as t; t.HELP_GOLDEN.write_text(t.help_text())"
    """
    assert help_text() == HELP_GOLDEN.read_text()


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


def test_total_power_is_neither_a_key_nor_a_flag(tmp_path, capsys):
    """The link runs at unit total power: "P" is an unknown key and --power
    a usage error."""
    cfg_path = tmp_path / "power.json"
    cfg_path.write_text(json.dumps({"P": 2.0}))
    assert run_cli(["sweep-snr", "--ebn0", "4", "--config", str(cfg_path), "--quiet"]) == 1
    assert "unknown keys ['P']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep-snr", "--ebn0", "4", "--power", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("via_file", [False, True])
def test_config_build_rejects_too_many_workers(tmp_path, via_file):
    """A pool starts all its workers at its first submit, so the count is
    capped before any pool opens."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"workers": 100_000}))
    flags = ["--config", str(cfg_path)] if via_file else ["--workers", "100000"]
    with pytest.raises(ConfigError, match="workers"):
        _build_config(build_parser().parse_args(["sweep-snr", *flags]))
    cfg, _ = _build_config(build_parser().parse_args(["sweep-snr", "--workers", str(MAX_WORKERS)]))
    assert cfg.workers == MAX_WORKERS


# (file entry, flags); a flag that overrides a bad file value must not hide it
WRONG_TYPE_CASES = [(entry, []) for entry in [
    {"workers": "2"}, {"alpha1": "0.3"}, {"trials_per_batch": 16.5}, {"max_blocks": 40.5},
    {"seed": True}, {"orb.max_logistic_weight": 2.0}, {"xi": None},
    {"crc.n": 128.9, "crc.k": 116}, {"crc.k": 116.2}, {"crc.k": "116"}, {"crc.n": True},
    {"crc.koopman_hex": 2291.7}, {"crc.koopman_hex": "0xzz"}, {"crc.koopman_hex": None},
    {"ebn0_db_list": ["x"]}, {"ebn0_db_list": [4.0, True]}, {"ebn0_db_list": "4"},
]] + [
    ({"alpha1": "0.3"}, ["--alpha1", "0.25"]),
    ({"workers": "2"}, ["--workers", "1"]),
    ({"scenario": "bogus"}, ["--scenario", "pure"]),
    ({"trials_per_batch": 16.5}, ["--trials-per-batch", "32"]),
]


@pytest.mark.parametrize("entry,flags", WRONG_TYPE_CASES,
                         ids=[f"entry{i}" for i in range(len(WRONG_TYPE_CASES))])
def test_config_file_value_of_the_wrong_type_fails(tmp_path, capsys, entry, flags):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(entry))
    assert run_cli(["sweep-snr", "--ebn0", "10", "--config", str(cfg_path), "--quiet", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and next(iter(entry)) in err


@pytest.mark.parametrize("text", ['[{"a": 1}]', '"scenario"', "[1, 2]"])
def test_config_file_that_is_not_a_json_object_fails(tmp_path, capsys, text):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(text)
    assert run_cli(["sweep-snr", "--ebn0", "10", "--config", str(cfg_path), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: config file must be a JSON object")


def test_config_file_null_max_logistic_weight_means_no_cap(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"orb.max_logistic_weight": None}))
    cfg, _ = _build_config(build_parser().parse_args(["sweep-snr", "--config", str(cfg_path)]))
    assert cfg.orb_max_logistic_weight is None


# config key -> (its flag, a valid non-default value, flags that both runs
# need for that value to make a valid config)
NON_DEFAULT = {
    "scenario": ("--scenario", "grand-assist", []),
    "decoder": ("--decoder", "orbgrand", []),
    "channel": ("--channel", "rayleigh", []),
    "alpha1": ("--alpha1", 0.3, []),
    "d1": ("--d1", 2.0, []),
    "d2": ("--d2", 3.0, []),
    "xi": ("--xi", 3.0, []),
    "crc.koopman_hex": ("--crc-koopman", "0xc07", []),
    "crc.k": ("--crc-k", 118, ["--crc-n", "130"]),
    "crc.n": ("--crc-n", 130, ["--crc-k", "118"]),
    "grand.max_weight": ("--grand-max-weight", 3, []),
    "orb.query_budget": ("--orb-query-budget", 5000, []),
    "orb.max_logistic_weight": ("--orb-max-lw", 9, []),
    "min_block_errors": ("--min-block-errors", 7, []),
    "max_blocks": ("--max-blocks", 640, []),
    "trials_per_batch": ("--trials-per-batch", 32, []),
    "seed": ("--seed", 7, []),
    "workers": ("--workers", 2, []),
}


@pytest.mark.parametrize("key", [key for key, *_ in CONFIG_KEYS if key != "ebn0_db_list"])
def test_a_flag_and_a_file_entry_give_the_same_config(tmp_path, key):
    flag, value, extra = NON_DEFAULT[key]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    parser = build_parser()
    from_flag, _ = _build_config(parser.parse_args(["sweep-snr", flag, str(value), *extra]))
    from_file, _ = _build_config(parser.parse_args(["sweep-snr", "--config", str(cfg_path), *extra]))
    assert from_flag == from_file != ScenarioConfig()


@pytest.mark.parametrize("via_file", [False, True])
@pytest.mark.parametrize("command,axis", [("sweep-power", "--alpha1-list"), ("sweep-distance", "--d1-list")])
def test_single_point_sweeps_reject_an_ebn0_list(tmp_path, capsys, command, axis, via_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ebn0_db_list": [8, 30]}))
    ebn0 = ["--config", str(cfg_path)] if via_file else ["--ebn0", "8,30"]
    args = [command, axis, "0.2", *ebn0, "--min-block-errors", "2", "--max-blocks", "32", "--quiet"]
    assert run_cli(args) == 1
    assert "ebn0_db_list" in capsys.readouterr().err


@pytest.mark.parametrize("via_file", [False, True])
@pytest.mark.parametrize("command,axis", [("sweep-power", "--alpha1-list"), ("sweep-distance", "--d1-list")])
def test_single_point_sweeps_require_an_ebn0_point(tmp_path, capsys, command, axis, via_file):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"min_block_errors": 2}))  # a config file with no ebn0_db_list
    config = ["--config", str(cfg_path)] if via_file else []
    args = [command, axis, "0.2", *config, "--min-block-errors", "2", "--max-blocks", "32", "--quiet"]
    assert run_cli(args) == 1
    assert "ebn0_db_list" in capsys.readouterr().err


def test_bad_flag_value_fails(capsys):
    assert run_cli(["sweep-snr", "--ebn0", "4", "--alpha1", "1.4", "--quiet"]) == 1
    assert "alpha1" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,key", [("--d1", "nan", "d1"), ("--d2", "inf", "d2"), ("--xi", "inf", "xi")])
def test_non_finite_flag_value_fails(capsys, flag, value, key):
    assert run_cli(["sweep-snr", "--ebn0", "10", flag, value, "--max-blocks", "64", "--quiet"]) == 1
    assert f"{key} must be finite" in capsys.readouterr().err


def test_orbgrand_at_a_huge_ebn0_runs_without_overflow():
    """LLRs near 1e300 at 3000 dB: a codeword's NaN check must not square them."""
    assert run_cli(["sweep-snr", "--ebn0", "3000", "--decoder", "orbgrand", "--max-blocks", "8", "--quiet"]) == 0


def test_sweep_with_an_invalid_last_value_writes_no_record(tmp_path):
    out = tmp_path / "power.csv"
    args = ["sweep-power", "--ebn0", "10", "--alpha1-list", "0.1 0.2 nan", "--max-blocks", "64", "--quiet"]
    assert run_cli(args + ["--out", str(out)]) == 1
    assert not out.exists()


def test_unwritable_out_fails_before_any_batch(monkeypatch, tmp_path, capsys):
    """An --out that cannot be written stops the sweep before its first
    point, and the check creates no file: a missing directory, a directory,
    an empty path, and a path under a regular file."""
    batches = []
    monkeypatch.setattr(harness, "_run_batch", lambda *args: batches.append(args))
    base = ["sweep-snr", "--ebn0", "4 6", "--min-block-errors", "20", "--max-blocks", "300"]
    regular = tmp_path / "regular"
    regular.write_text("")
    for out in ("/nonexistent/x.csv", str(tmp_path), "", str(regular / "x.csv")):
        assert run_cli(base + ["--out", out]) == 1
        assert "cannot write records" in capsys.readouterr().err
    assert batches == []
    assert list(tmp_path.iterdir()) == [regular] and regular.read_text() == ""


@pytest.mark.parametrize("decoder", ["grand", "orbgrand"])
@pytest.mark.parametrize("flags, key", [
    (["--ebn0", "10 4000"], "ebn0_db"),
    (["--ebn0", "-4000"], "ebn0_db"),
    (["--ebn0", "10", "--d1", "0.001", "--xi", "200"], "d1"),
    (["--ebn0", "10", "--d1", "1e200"], "d1"),
    (["--ebn0", "10", "--d2", "1e200"], "d2"),
])
def test_sweep_outside_the_float_range_fails_before_any_batch(flags, key, decoder, monkeypatch, tmp_path, capsys):
    """A noise variance or path loss that is no positive float is one error
    line naming its key, with no traceback, no record and no batch; before,
    such points overflowed, divided by zero or ran with a zero path loss."""
    batches = []
    monkeypatch.setattr(harness, "_run_batch", lambda *args: batches.append(args))
    out = tmp_path / "x.csv"
    assert run_cli(["sweep-snr", *flags, "--decoder", decoder, "--max-blocks", "8", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {key} = ") and captured.err.count("\n") == 1
    assert batches == [] and not out.exists()


def test_analyze_checks_out_before_any_point(monkeypatch, capsys):
    """`analyze` rejects an unwritable --out before it computes a point."""
    computed = []
    monkeypatch.setattr(cli, "ber_user1", lambda *args: computed.append(args))
    assert run_cli(["analyze", "--ebn0", "0 8 16", "--channel", "rayleigh", "--out", "/nonexistent/x.csv"]) == 1
    assert "cannot write records" in capsys.readouterr().err
    assert computed == []


@pytest.mark.parametrize("channel", ["awgn", "rayleigh"])
@pytest.mark.parametrize("flag,value", [
    ("--theory-samples", "0"), ("--theory-samples", "-3"),
    ("--p-ue", "-0.1"), ("--p-ue", "1.5"), ("--p-ue", "nan"),
])
def test_analyze_checks_its_own_flags_before_out_and_any_point(monkeypatch, capsys, channel, flag, value):
    """A bad --theory-samples or --p-ue stops `analyze` before it checks
    --out or computes a point, on AWGN (which takes one sample) too, and
    the error names the flag."""
    computed = []
    monkeypatch.setattr(cli, "ber_user1", lambda *args: computed.append(args))
    args = ["analyze", "--ebn0", "0 8", "--channel", channel, "--out", "/nonexistent/x.csv", flag, value]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} ")
    assert computed == []


# the config keys that no theory record reads
ANALYZE_IGNORES = ["decoder", "orb.query_budget", "orb.max_logistic_weight", "min_block_errors", "max_blocks",
                   "trials_per_batch", "workers"]


@pytest.mark.parametrize("key", ANALYZE_IGNORES)
def test_analyze_has_no_flag_for_a_key_only_the_simulation_reads(tmp_path, capsys, key):
    """Such a flag is a usage error, while a config file shared with the
    sweeps may set the key and leaves the records as they are."""
    flag, value, _ = NON_DEFAULT[key]
    with pytest.raises(SystemExit) as exc:
        run_cli(["analyze", "--ebn0", "8", flag, str(value)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    plain, shared = tmp_path / "plain.csv", tmp_path / "shared.csv"
    args = ANALYZE_ARGS + ["--channel", "rayleigh"]
    assert run_cli(args + ["--out", str(plain)]) == 0
    assert run_cli(args + ["--config", str(cfg_path), "--out", str(shared)]) == 0
    assert shared.read_text() == plain.read_text()


@pytest.mark.parametrize("via_file", [False, True])
def test_a_negative_koopman_value_fails(tmp_path, capsys, via_file):
    """A negative generator used to pass the bit-length check on its
    magnitude and run with other low bits."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"crc.koopman_hex": "-0x8f3"}))
    flags = ["--config", str(cfg_path)] if via_file else ["--crc-koopman=-0x8f3"]
    assert run_cli(["sweep-snr", "--ebn0", "8", "--max-blocks", "4", "--quiet", *flags]) == 1
    assert capsys.readouterr().err == "error: Koopman value must be positive, got -0x8f3\n"


def test_records_to_stdout(capsys):
    code = run_cli([
        "sweep-snr", "--ebn0", "8", "--min-block-errors", "2", "--max-blocks", "32", "--quiet",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario,decoder,channel,")
    assert len(out.strip().splitlines()) == 3


def test_selfcheck_passes(capsys):
    assert run_cli(["selfcheck"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("PASS") >= 5


def test_selfcheck_opens_a_pool(monkeypatch, capsys):
    """The worker-count check compares one worker with two."""
    opened = _count_pools(monkeypatch)
    assert run_cli(["selfcheck"]) == 0
    assert "worker-count reproducibility: PASS" in capsys.readouterr().out
    assert len(opened) >= 1


@pytest.mark.parametrize("flags", [
    ["--crc-k", "5", "--crc-n", "4"], ["--workers", "3"], ["--out", "x.csv"], ["--format", "json"],
    ["--config", "c.json"], ["--ebn0", "8"], ["--quiet"],
])
def test_selfcheck_rejects_config_flags(capsys, flags):
    """selfcheck runs fixed checks and prints no progress, so a flag it would
    ignore is a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli(["selfcheck", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


_REAL_RUN_BATCH = harness._run_batch


def _failing_batch(cfg, point_index, start, count):
    if point_index == 1:
        raise RuntimeError("batch failed")
    return _REAL_RUN_BATCH(cfg, point_index, start, count)


SWEEP_TO_STDOUT = ["sweep-snr", "--ebn0", "8 30", "--min-block-errors", "2", "--max-blocks", "32", "--quiet"]


def _without_wall_time(text: str) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in text.splitlines()]


def test_csv_on_stdout_is_written_point_by_point(tmp_path, capsys, monkeypatch):
    """A finished sweep prints what --out holds, and the header and the first
    point's rows are on stdout before the second point fails.  JSON on
    stdout stays one array."""
    out = tmp_path / "sweep.csv"
    assert run_cli(SWEEP_TO_STDOUT + ["--out", str(out)]) == 0
    assert run_cli(SWEEP_TO_STDOUT) == 0
    whole = capsys.readouterr().out
    assert _without_wall_time(whole) == _without_wall_time(out.read_text())
    assert len(whole.splitlines()) == 5

    assert run_cli(SWEEP_TO_STDOUT + ["--format", "json"]) == 0
    assert [r["ebn0_db"] for r in json.loads(capsys.readouterr().out)] == [8.0, 8.0, 30.0, 30.0]

    monkeypatch.setattr(harness, "_run_batch", _failing_batch)
    with pytest.raises(RuntimeError, match="batch failed"):
        run_cli(SWEEP_TO_STDOUT)
    assert _without_wall_time(capsys.readouterr().out) == _without_wall_time(whole)[:3]
