"""Per-layer metrics from the spans of a traced replay.

Times are per call unless the name says otherwise: `_us` means microseconds
per call (mean, or the percentile in the name), `_self_us` is the mean self
time (duration minus child spans).  A layer not called on a workload reports
0 calls and 0 time.
"""

from __future__ import annotations

import numpy as np

from checks import Checks

LAYERS = ("link", "phy", "crc", "grand")  # layers that run inside a trial


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def check_spans(checks: Checks, tracer, records) -> None:
    """Self times partition the traced run_point wall time: every span sits
    inside a run_point span and no child outlasts its parent."""
    s = tracer.spans()
    root = s["parent"] < 0
    point = tracer.names.index("harness.run_point")
    checks.check(bool(np.all(s["name"][root] == point)), "a span outside run_point")
    checks.check(bool(np.all(s["self_ns"] >= 0)), "a child span outlasts its parent")
    span_s = s["dur_ns"][root] / 1e9
    walls = np.array([r.wall_time_s for r in records[::2]])
    checks.check(len(span_s) == len(walls) and bool(np.all(span_s >= walls - 1e-6)),
                 f"run_point spans {span_s} shorter than the records' wall times {walls}")


def layer_metrics(tracer, records, raw: dict[str, float], scaled: dict[str, float], *,
                  workers: int, table_build_ms: float) -> dict[str, float]:
    """`raw` and `scaled` give wall seconds, as measured and at the reference
    host speed (calibrate.py), of three replays of the same trials: "traced"
    (one worker, traced), "one" (one worker) and "pooled" (the workload's
    worker count)."""
    s = tracer.spans()
    names = tracer.names
    ids = {n: i for i, n in enumerate(names)}

    def pick(name: str, column: str = "dur_ns") -> np.ndarray:
        if name not in ids:
            return np.zeros(0)
        return s[column][s["name"] == ids[name]] / 1e3  # ns -> us

    m: dict[str, float] = {}
    trial_us = pick("link.trial")
    trial_total_us = float(trial_us.sum())
    in_trial = s["trial"] >= 0
    for layer in LAYERS:
        mask = in_trial & np.isin(s["name"], [i for n, i in ids.items() if n.startswith(layer + ".")])
        m[f"{layer}.trial_share"] = float(s["self_ns"][mask].sum() / 1e3 / trial_total_us) if trial_total_us else 0.0

    dspan = np.frombuffer(tracer.decoder_span, dtype=np.int64)
    queries = np.frombuffer(tracer.queries, dtype=np.int64)
    abandoned = np.frombuffer(tracer.abandoned, dtype=np.int8)
    for kind in ("orb", "hard"):
        name = f"grand.{kind}"
        mine = s["name"][dspan] == ids.get(name, -1) if len(dspan) else np.zeros(0, dtype=bool)
        q = queries[mine]
        dur = pick(name)
        m[f"{name}.decode_us_p50"] = _pct(dur, 50)
        m[f"{name}.decode_us_p99"] = _pct(dur, 99)
        m[f"{name}.decode_us_max"] = _pct(dur, 100)
        if kind == "orb":
            m[f"{name}.self_us"] = _mean(pick(name, "self_ns"))
        m[f"{name}.queries_mean"] = _mean(q)
        m[f"{name}.queries_p99"] = _pct(q, 99)
        m[f"{name}.queries_max"] = int(q.max()) if len(q) else 0
        m[f"{name}.queries_per_s"] = float(q.sum() / (dur.sum() / 1e6)) if len(q) else 0.0
        m[f"{name}.abandon_rate"] = _mean(abandoned[mine].astype(float))
        m[f"{name}.calls"] = int(len(q))
    m["grand.rank_us"] = _mean(pick("grand.rank"))

    for user, label in ((1, "near"), (2, "far")):
        mine = [r for r in records if r.user == user]
        m[f"grand.{label}.queries_mean"] = sum(r.mean_queries * r.blocks for r in mine) / sum(r.blocks for r in mine)

    for what in ("channel", "propagate", "equalize", "hard_demod"):
        m[f"phy.{what}_us"] = _mean(pick(f"phy.{what}"))
    llr = pick("phy.llr")
    m["phy.llr_us"] = float((llr.sum() + pick("phy.noise_variance").sum()) / len(llr)) if len(llr) else 0.0
    m["phy.calls"] = int(sum(len(pick(n)) for n in names if n.startswith("phy.")))

    m["crc.encode_us"] = _mean(pick("crc.encode"))
    m["crc.syndrome_us"] = _mean(pick("crc.syndrome"))
    m["crc.table_build_ms"] = table_build_ms

    m["link.trial_us_p50"] = _pct(trial_us, 50)
    m["link.trial_us_p99"] = _pct(trial_us, 99)
    m["link.trial_us_max"] = _pct(trial_us, 100)
    m["link.draw_us"] = _mean(pick("link.draw"))
    m["link.transmit_us"] = _mean(pick("link.transmit"))
    for what in ("receive_user2", "sic_user1", "receive_user1"):
        m[f"link.{what}_self_us"] = _mean(pick(f"link.{what}", "self_ns"))
    m["link.trials"] = int(len(trial_us))

    m["harness.rng_us"] = _mean(pick("harness.rng"))
    m["harness.overhead_s"] = raw["traced"] - trial_total_us / 1e6
    # busy time of the trials, untraced: the one-worker wall of the same
    # trials.  Raw walls: the scaling kernel runs on a different number of
    # CPUs for the two.
    m["harness.parallel_eff"] = raw["one"] / (workers * raw["pooled"])
    m["harness.batches"] = int(len(pick("harness.batch")))

    m["trace.overhead_s"] = scaled["traced"] - scaled["one"]
    m["trace.spans"] = int(len(s["start"]))
    return m
