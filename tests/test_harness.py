import dataclasses
import json
import multiprocessing
import signal
import tracemalloc
import warnings

import numpy as np
import pytest

from grandnoma import (
    DEFAULT_CRC,
    ConfigError,
    CrcSpec,
    ScenarioConfig,
    derive_trial_rng,
    read_records_csv,
    run_point,
    run_sweep,
    run_trial,
    write_records,
)
from grandnoma import harness
from grandnoma.cli import main as cli_main
from grandnoma.harness import CSV_FIELDS

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


KEY_SEEDS = [0, 1, 2**31, 2**32 - 1, 5 + (3 << 32), 2**64 + 5, 2**200 + 12345]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_philox_keys_match_seed_sequence(seed):
    """The batch key helper gives every trial the key SeedSequence gives:
    one-word trials, trials on both sides of 2**32 and at 2**40, two- and
    three-word points, two- and three-word seeds, and a seed longer than the
    pool."""
    for point in (0, 1, 2**32, 2**64 + 7):
        for first, count in ((0, 300), (2**32 - 1, 2), (2**40, 1)):
            keys = harness._philox_keys(seed, point, first, count)
            assert keys.shape == (count, 2) and keys.dtype == np.uint64
            for i, key in enumerate(keys):
                ss = np.random.SeedSequence(seed, spawn_key=(point, first + i))
                assert np.array_equal(key, ss.generate_state(2, np.uint64)), (point, first + i)
    assert np.array_equal(harness._philox_keys(seed, 2, 9, 1)[0],
                          derive_trial_rng(seed, 2, 9).bit_generator.state["state"]["key"])


def test_trial_streams_equal_derived_streams():
    """Each item of the re-keyed streams draws what `derive_trial_rng`
    draws, although the previous trial left half a 64-bit word buffered."""
    keys = harness._philox_keys(42, 3, 10, 5).tolist()
    streams = harness._TrialStreams(np.random.Generator(np.random.Philox()), keys)
    assert len(streams) == 5
    for trial, rng in zip(range(10, 15), streams):
        ref = derive_trial_rng(42, 3, trial)
        assert np.array_equal(rng.integers(0, 2, 7), ref.integers(0, 2, 7))
        assert np.array_equal(rng.standard_normal(9), ref.standard_normal(9))
        assert np.array_equal(rng.integers(0, 2, 3), ref.integers(0, 2, 3))


@pytest.mark.parametrize("block", [32, 3])
def test_run_batch_across_the_two_word_trial_boundary(block, monkeypatch):
    """A batch whose trials straddle 2**32 counts what run_trial counts on
    the derived generators of the same trials."""
    cfg = ScenarioConfig(scenario="grand-assist", decoder="grand", channel="rayleigh",
                         ebn0_db=4.0, master_seed=2**32 + 3)
    monkeypatch.setattr(harness, "BLOCK_SYMBOLS", block * cfg.crc.codeword_len)
    trials = range(2**32 - 2, 2**32 + 2)
    table = run_trial(cfg, [derive_trial_rng(cfg.master_seed, 2, t) for t in trials])
    want = {"blocks": len(table), **{name: table[name].sum() for name in table.dtype.names}}
    assert want["blocks"] == 4 and want["bit_errors_user1"] > 0 and want["queries_assist"] > 4
    assert harness._run_batch(cfg, 2, trials.start, len(trials)) == want


def test_worker_count_does_not_change_records(monkeypatch):
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=20, max_blocks=600, master_seed=9)
    rec1 = run_point(cfg, 0)
    opened = _count_pools(monkeypatch)
    rec2 = run_point(cfg.at(workers=2), 0)
    assert len(opened) == 1
    assert records_equal(rec1[0], rec2[0]) and records_equal(rec1[1], rec2[1])


@pytest.mark.parametrize("block, symbols, overrides", [
    pytest.param(1, 128, {}, id="1"),
    pytest.param(5, 5 * 128, {}, id="5"),
    pytest.param(300, 300 * 128, {}, id="300"),
    # a long code, whose 16,384 symbols are 52 trials, which do not divide the batch
    pytest.param(52, 16_384, dict(crc=CrcSpec(0x8F3, 300, 312), trials_per_batch=60, min_block_errors=100),
                 id="n312"),
    # fewer symbols than one codeword still run one trial per block
    pytest.param(1, 127, {}, id="below-n"),
])
def test_block_size_does_not_change_records(block, symbols, overrides, monkeypatch):
    """Records are the same for any number of trials per vectorized block,
    with batches that are not multiples of it and a stop inside the run.  A
    block is `BLOCK_SYMBOLS // codeword_len` trials of its batch, at least one."""
    cfg = ScenarioConfig(**{**dict(scenario="grand-assist", decoder="orbgrand", channel="rayleigh",
                                   ebn0_db=18.0, d2=1.5, min_block_errors=8, max_blocks=10_000,
                                   trials_per_batch=45, orb_query_budget=5000, master_seed=17), **overrides})
    batch = cfg.trials_per_batch
    monkeypatch.setattr(harness, "BLOCK_SYMBOLS", 7 * cfg.crc.codeword_len)
    base = run_point(cfg, 3)
    monkeypatch.setattr(harness, "BLOCK_SYMBOLS", symbols)
    lengths = []  # the trials of each block handed to run_trial, in call order

    def recorded(cfg, rngs):
        lengths.append(len(rngs))
        return run_trial(cfg, rngs)
    monkeypatch.setattr(harness, "run_trial", recorded)
    other = run_point(cfg, 3)
    assert base[0].blocks % batch == 0 and base[0].blocks > batch
    assert records_equal(base[0], other[0]) and records_equal(base[1], other[1])
    per_batch = [min(block, batch - first) for first in range(0, batch, block)]
    assert lengths == per_batch * (other[0].blocks // batch)


@pytest.mark.parametrize("crc", [DEFAULT_CRC, CrcSpec(0x8F3, 1024, 1036)], ids=["n128", "n1036"])
def test_batch_memory_is_bounded_by_the_block_symbols(crc):
    """The symbol budget caps a block's arrays whatever the code length.  A
    pure Rayleigh batch builds no decoder caches, so its tracemalloc peak is
    one block's draws and receiver arrays: 2.8 MB at n = 128 and 2.6 MB at
    n = 1,036 with 16,384 symbols per block, where flat blocks of 32 or 128
    trials of n = 1,036 peak at 5.6 and 22 MB."""
    cfg = ScenarioConfig(scenario="pure", channel="rayleigh", ebn0_db=10.0, crc=crc)
    harness._run_batch(cfg, 0, 0, cfg.trials_per_batch)  # the CRC table and other first-call state
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        harness._run_batch(cfg, 0, 0, cfg.trials_per_batch)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


def test_the_environment_does_not_set_the_worker_count(monkeypatch):
    """`cfg.workers` is the only worker count: a GRANDNOMA_WORKERS variable,
    which once overrode it, neither keeps a two-worker point from opening a
    pool nor makes it fail."""
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=10, max_blocks=300, master_seed=9)
    base = run_point(cfg, 0)
    opened = _count_pools(monkeypatch)
    for value in ("1", "zero"):
        monkeypatch.setenv("GRANDNOMA_WORKERS", value)
        pooled = run_point(cfg.at(workers=2), 0)
        assert len(opened) == 1, value
        assert all(map(records_equal, base, pooled))
        opened.clear()


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


@pytest.mark.parametrize("axis,values", [
    ("alpha1", [0.1, 0.2, float("nan")]),
    ("ebn0", [0.0, 4.0, float("inf")]),
    ("d1", [1.0, 2.0, float("nan")]),
])
def test_run_sweep_checks_every_value_before_the_first_point(axis, values):
    """NaN passes the strictly-increasing check, so the last value's config
    must fail before any point runs."""
    cfg = ScenarioConfig(scenario="pure", min_block_errors=5, max_blocks=64, trials_per_batch=32)
    seen = []
    with pytest.raises(ConfigError):
        run_sweep(cfg, axis, values, on_point=seen.append)
    assert seen == []


# points 0 and 1 stop on min_block_errors after their first batch, with the
# next batches in flight; point 2 runs all 20 batches to max_blocks
POOL_SWEEP = ScenarioConfig(scenario="grand", decoder="grand", min_block_errors=6,
                            max_blocks=320, trials_per_batch=16, master_seed=5)
POOL_SWEEP_EBN0 = [10.0, 12.0, 16.0]


def _count_pools(monkeypatch) -> list:
    opened = []

    class CountingPool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    return opened


def test_pooled_sweep_equals_serial_sweep_on_one_pool(monkeypatch):
    serial = run_sweep(POOL_SWEEP, "ebn0", POOL_SWEEP_EBN0)
    opened = _count_pools(monkeypatch)
    seen = []
    pooled = run_sweep(POOL_SWEEP.at(workers=2), "ebn0", POOL_SWEEP_EBN0, on_point=seen.append)
    assert len(opened) == 1
    assert [r.blocks for r in serial[::2]] == [16, 16, 320]
    assert serial[0].block_errors >= 6 and serial[1].block_errors >= 6
    assert len(pooled) == len(serial) and all(map(records_equal, serial, pooled))
    assert seen == [pooled[0:2], pooled[2:4], pooled[4:6]]
    assert [pair[0].ebn0_db for pair in seen] == POOL_SWEEP_EBN0

    point = run_point(POOL_SWEEP.at(workers=2, ebn0_db=16.0), 2)
    assert len(opened) == 2 and all(map(records_equal, serial[4:], point))
    assert multiprocessing.active_children() == []


def test_pooled_point_keeps_a_window_of_two_batches_per_worker(monkeypatch):
    """A pooled point submits 2 x workers batches before it reads the first,
    and one more only after a merged batch lets it go on, so a point that
    stops on its first merged batch submits exactly 2 x workers, with the
    one-worker records."""
    cfg = POOL_SWEEP.at(ebn0_db=10.0)
    serial = run_point(cfg, 0)
    submitted = []

    class CountingPool(harness.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(args[1:])
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    pooled = run_point(cfg.at(workers=2), 0)
    assert serial[0].blocks == 16
    assert len(submitted) == 2 * 2
    assert [start for _, _, start, _ in submitted] == [0, 16, 32, 48]
    assert all(map(records_equal, serial, pooled))
    assert multiprocessing.active_children() == []


def _timed_out(signum, frame):
    raise TimeoutError("run_point did not return within 1 s")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("point_index", [-1, np.int64(-3), 1.5, True])
def test_run_point_rejects_a_bad_point_index_before_any_batch(point_index, workers, monkeypatch):
    """A negative, non-integer or bool point index fails within a second,
    before a pool opens or a batch runs; a negative one used to loop for
    ever splitting itself into 32-bit words, and 1.5 ran point 1."""
    opened = _count_pools(monkeypatch)
    batches = []
    monkeypatch.setattr(harness, "_run_batch", lambda *args: batches.append(args))
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ValueError, match="point_index"):
            run_point(POOL_SWEEP.at(workers=workers), point_index)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert opened == [] and batches == []


_REAL_RUN_BATCH = harness._run_batch


def _failing_batch(cfg, point_index, start, count):
    """A batch that fails on the second point; forked workers inherit it."""
    if point_index == 1:
        raise RuntimeError("batch failed")
    return _REAL_RUN_BATCH(cfg, point_index, start, count)


def test_a_failing_batch_reaches_the_caller_and_leaves_no_workers(monkeypatch):
    monkeypatch.setattr(harness, "_run_batch", _failing_batch)
    seen = []
    with pytest.raises(RuntimeError, match="batch failed"):
        run_sweep(POOL_SWEEP.at(workers=2), "ebn0", POOL_SWEEP_EBN0, on_point=seen.append)
    assert len(seen) == 1
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="batch failed"):
        run_point(POOL_SWEEP.at(workers=2), 1)
    assert multiprocessing.active_children() == []


def test_a_failing_on_point_reaches_the_caller_and_leaves_no_workers(monkeypatch):
    opened = _count_pools(monkeypatch)
    seen = []

    def on_point(pair):
        seen.append(pair)
        raise KeyError("on_point failed")

    with pytest.raises(KeyError, match="on_point failed"):
        run_sweep(POOL_SWEEP.at(workers=2), "ebn0", POOL_SWEEP_EBN0, on_point=on_point)
    assert len(seen) == 1 and len(opened) == 1
    assert multiprocessing.active_children() == []


def test_sweep_snr_with_an_empty_ebn0_list_is_a_config_error(capsys):
    assert cli_main(["sweep-snr", "--ebn0", "", "--quiet"]) == 1
    assert "requires --ebn0" in capsys.readouterr().err


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
    with pytest.raises(ConfigError, match="d1 must be"):
        ScenarioConfig(d1=0.0)
    with pytest.raises(ConfigError, match="d2 must be"):
        ScenarioConfig(d2=0.0)
    with pytest.raises(ConfigError, match="min_block_errors"):
        ScenarioConfig(min_block_errors=0)


@pytest.mark.parametrize("seed", [-1, 2.0, "7", True, None])
def test_config_rejects_a_bad_seed(seed):
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(master_seed=seed)


def test_config_accepts_numpy_and_python_numbers():
    cfg = ScenarioConfig(alpha1=np.float64(0.3), d1=2, ebn0_db=np.int64(8), workers=np.int64(2),
                         max_blocks=np.uint32(64), orb_max_logistic_weight=None)
    assert (cfg.alpha1, cfg.d1, cfg.workers, cfg.max_blocks) == (0.3, 2, 2, 64)
    assert ScenarioConfig(orb_max_logistic_weight=np.int32(9)).orb_max_logistic_weight == 9


def test_config_accepts_any_non_negative_integer_seed():
    for seed in (0, np.int64(7), 2**64 + 5):
        assert ScenarioConfig(master_seed=seed).master_seed == seed


@pytest.mark.parametrize("key,field,value", [
    ("ebn0_db", "ebn0_db", float("inf")),
    ("ebn0_db", "ebn0_db", float("nan")),
    ("xi", "xi", float("nan")),
    ("xi", "xi", float("inf")),
    ("xi", "xi", -1.0),
    ("orb.max_logistic_weight", "orb_max_logistic_weight", -3),
    ("workers", "workers", "2"),
    ("workers", "workers", 2.0),
    ("alpha1", "alpha1", "0.3"),
    ("trials_per_batch", "trials_per_batch", 16.5),
    ("max_blocks", "max_blocks", 40.5),
    ("min_block_errors", "min_block_errors", True),
    ("grand.max_weight", "grand_max_weight", None),
    ("orb.query_budget", "orb_query_budget", 1e6),
    ("orb.max_logistic_weight", "orb_max_logistic_weight", 2.5),
    ("P", "power", True),
    ("d2", "d2", None),
    ("ebn0_db", "ebn0_db", "10"),
    ("xi", "xi", [2.0]),
    ("P", "power", float("nan")),
    ("P", "power", float("inf")),
    ("d1", "d1", float("nan")),
    ("d1", "d1", float("inf")),
    ("d2", "d2", float("nan")),
    ("d2", "d2", float("inf")),
    ("ebn0_db", "ebn0_db", float("-inf")),
])
def test_config_rejects_nonfinite_and_negative_values(key, field, value):
    """Non-finite, negative and wrongly typed values all name their key."""
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig(**{field: value})


@pytest.mark.parametrize("kwargs, match", [
    (dict(ebn0_db=4000.0), "ebn0_db"),  # 10^400 overflows
    (dict(ebn0_db=-4000.0), "ebn0_db"),  # 10^-400 is 0, the divisor of the noise variance
    (dict(ebn0_db=-300.0, power=1e300), "ebn0_db"),  # an infinite noise variance
    (dict(d1=0.001, xi=200.0), "d1 .* xi"),  # 10^600 overflows
    (dict(d1=1e200), "d1 .* xi"),  # 10^-400 is a zero path loss
    (dict(d2=1e200), "d2 .* xi"),
])
def test_config_rejects_operating_points_outside_the_float_range(kwargs, match):
    """The noise variance and both path losses must be positive floats."""
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig(**kwargs)


@pytest.mark.parametrize("alpha1", [0.5, 0.65, 0.95])
def test_sign_sic_warning_at_or_above_equal_power(alpha1):
    with pytest.warns(UserWarning, match="sign-based SIC.*DECISIONS.md, D1"):
        ScenarioConfig(alpha1=alpha1)


def test_sign_sic_warning_names_the_callers_line():
    """Whether the config is built directly or by `at()`, the warning points
    at the line that asked for it, not into the config or dataclasses code."""
    with pytest.warns(UserWarning, match="sign-based SIC") as direct:
        ScenarioConfig(alpha1=0.6)
    base = ScenarioConfig()
    with pytest.warns(UserWarning, match="sign-based SIC") as copied:
        base.at(alpha1=0.6)
    assert [w.filename for w in direct] == [__file__]
    assert [w.filename for w in copied] == [__file__]


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
