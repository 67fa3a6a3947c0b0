"""Command-line interface: sweeps, theory curves, and a quick self check.

Subcommands: sweep-snr, sweep-power, sweep-distance, analyze, selfcheck.
Every config key has one flag, built from its `CONFIG_KEYS` row, except
that `analyze` has none for the keys only the simulation reads; a JSON
config file with flat dotted keys ("crc.koopman_hex", "grand.max_weight",
...) may supply defaults that explicit flags override, and may set any key
for any command.  `selfcheck` takes no flags.  Records go to stdout or
--out; progress and diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from collections import Counter

import numpy as np

from .config import CONFIG_KEYS, DEFAULT_CRC, ConfigError, ScenarioConfig, check_value
from .crc import CrcSpec
from .harness import CSV_FIELDS, SWEEP_AXES, SweepRecord, _record, run_point, run_sweep, write_records
from .phy import path_loss
from .theory import TheoryInputs, ber_user1, ber_user2, bler_upper_bound


# sweep command -> (its `run_sweep` axis, help); a command that sweeps an
# axis other than ebn0 takes its values from --<axis>-list at one Eb/N0 point
SWEEPS = {
    "sweep-snr": ("ebn0", "BER/BLER vs Eb/N0"),
    "sweep-power": ("alpha1", "BER/BLER vs power allocation alpha1"),
    "sweep-distance": ("d1", "BER/BLER vs near-user distance d1"),
}

# the dests of the config keys that no theory record reads: `analyze` has no
# flag for them, though a config file it shares with the sweeps may set them
SIMULATION_ONLY = ("decoder", "orb_query_budget", "orb_max_lw", "min_block_errors", "max_blocks",
                   "trials_per_batch", "workers")


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    parser.add_argument("--config", help="JSON file with flat config keys; flags override")
    for _, dest, _, kind, _, text in CONFIG_KEYS:
        if dest != "ebn0" and dest not in skip:  # each command gives --ebn0 its own help
            choices = kind if isinstance(kind, tuple) else None
            parser.add_argument("--" + dest.replace("_", "-"), choices=choices,
                                type=kind if kind in (int, float) else None, help=text)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grandnoma",
        description="Two-user downlink NOMA link simulator with CRC-only "
                    "error correction via guess-and-check decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for command, (axis, text) in SWEEPS.items():
        p = sub.add_parser(command, help=text)
        _add_common(p)
        if axis == "ebn0":
            p.add_argument("--ebn0", type=_float_list, help="Eb/N0 points in dB, e.g. '0,2,4'")
        else:
            p.add_argument("--ebn0", type=_float_list, help="single Eb/N0 point in dB")
            p.add_argument(f"--{axis}-list", type=_float_list, required=True)

    p = sub.add_parser("analyze", help="theoretical BER curves and BLER bound")
    _add_common(p, skip=SIMULATION_ONLY)
    p.add_argument("--ebn0", type=_float_list, help="Eb/N0 points in dB")
    p.add_argument("--p-ue", type=float, default=0.0,
                   help="undetected-error probability for the near-user mixture")
    p.add_argument("--theory-samples", type=int, default=100_000,
                   help="Monte Carlo samples for fading expectations")

    sub.add_parser("selfcheck", help="fast internal consistency checks")

    return parser


def _load_config_file(path: str) -> dict:
    """The file's values keyed by argparse dest, each checked as it loads."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"config file must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {key for key, *_ in CONFIG_KEYS}
    if unknown:
        raise ConfigError(f"config file: unknown keys {sorted(unknown)}")
    return {dest: check_value(key, kind, lowest, data[key])
            for key, dest, _, kind, lowest, _ in CONFIG_KEYS if key in data}


def _build_config(args: argparse.Namespace) -> tuple[ScenarioConfig, list[float]]:
    """Merge defaults < config file < flags into a ScenarioConfig at the first
    Eb/N0 point, plus the Eb/N0 list."""
    merged = _load_config_file(args.config) if args.config else {}
    for key, dest, _, kind, lowest, _ in CONFIG_KEYS:
        if getattr(args, dest, None) is not None:
            merged[dest] = check_value(key, kind, lowest, getattr(args, dest))

    crc = CrcSpec(koopman=merged.get("crc_koopman", DEFAULT_CRC.koopman),
                  message_len=merged.get("crc_k", DEFAULT_CRC.message_len),
                  codeword_len=merged.get("crc_n", DEFAULT_CRC.codeword_len))
    ebn0 = merged.get("ebn0", [])
    ebn0_list = [float(v) for v in (ebn0 if isinstance(ebn0, list) else [ebn0])]

    kwargs = {field: merged[dest] for _, dest, field, *_ in CONFIG_KEYS if field and dest in merged}
    if ebn0_list:
        kwargs["ebn0_db"] = ebn0_list[0]
    return ScenarioConfig(crc=crc, **kwargs), ebn0_list


class _Flusher:
    """Writes records as points finish: the whole file again to --out, and
    on stdout each point's CSV rows (the header first) or, for JSON, one
    array at the end."""

    def __init__(self, fmt: str, out: str | None):
        if out is not None:  # checked before any trial runs, without creating the file
            new = not os.path.exists(out)
            target = (os.path.dirname(out) or ".") if new else out
            # an existing path must be a file, a new file's parent a directory
            if not out or os.path.isdir(target) != new or not os.access(target, os.W_OK):
                raise OSError(f"cannot write records to {out!r}: not a writable file path")
        self.fmt = fmt
        self.out = out
        self.records: list[SweepRecord] = []

    def __call__(self, new_records: list[SweepRecord]) -> None:
        first = not self.records
        self.records.extend(new_records)
        if self.out is not None:
            write_records(self.records, self.fmt, self.out)
        elif self.fmt == "csv":
            text = io.StringIO()
            write_records(new_records, "csv", text)
            sys.stdout.write(text.getvalue() if first else text.getvalue().split("\n", 1)[1])
            sys.stdout.flush()

    def finish(self) -> None:
        if self.out is None and self.fmt == "json":
            write_records(self.records, "json", None)


def _progress(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _run_simulation_sweep(args: argparse.Namespace) -> int:
    axis = SWEEPS[args.command][0]
    cfg, ebn0_list = _build_config(args)
    if not ebn0_list:
        raise ConfigError(f"ebn0_db_list: {args.command} requires --ebn0")
    if axis != "ebn0" and len(ebn0_list) > 1:
        raise ConfigError(f"ebn0_db_list: {args.command} takes a single Eb/N0 point, got {ebn0_list}")
    values = ebn0_list if axis == "ebn0" else getattr(args, f"{axis}_list")
    flusher = _Flusher(args.format, args.out)

    def on_point(pair: list[SweepRecord]) -> None:
        rec = pair[0]
        _progress(
            args,
            f"[{args.command}] {axis}={getattr(rec, SWEEP_AXES[axis]):g} "
            f"blocks={rec.blocks} ber1={pair[0].ber:.3e} ber2={pair[1].ber:.3e} "
            f"({rec.wall_time_s:.1f}s)",
        )
        flusher(pair)

    run_sweep(cfg, axis, values, on_point=on_point)
    flusher.finish()
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    if args.theory_samples < 1:
        raise ConfigError(f"--theory-samples must be >= 1, got {args.theory_samples}")
    if not 0.0 <= args.p_ue <= 1.0:
        raise ConfigError(f"--p-ue must lie in [0,1], got {args.p_ue}")
    cfg, ebn0_list = _build_config(args)
    if not ebn0_list:
        raise ConfigError("ebn0_db_list: analyze requires --ebn0")
    n = cfg.crc.codeword_len
    losses = (path_loss(cfg.d1, cfg.xi), path_loss(cfg.d2, cfg.xi))
    flusher = _Flusher(args.format, args.out)
    for value in ebn0_list:
        point = cfg.at(ebn0_db=float(value))
        inputs = TheoryInputs(alpha1=point.alpha1, sigma2=point.sigma2, codeword_len=n, p_ue=args.p_ue,
                              channel=cfg.channel, path_loss=losses, n_samples=args.theory_samples)
        rng = np.random.default_rng(point.master_seed)
        ber1 = ber_user1(inputs, rng)
        ber2 = ber_user2(inputs, rng)
        pair = [dataclasses.replace(_record(point, user, Counter(), 0.0), decoder="theory", ber=ber,
                                    bler=bler_upper_bound(ber, n, point.grand_max_weight),
                                    undetected_rate=args.p_ue if user == 1 else 0.0)
                for user, ber in ((1, ber1), (2, ber2))]
        _progress(args, f"[analyze] ebn0={value:g} ber1={ber1:.3e} ber2={ber2:.3e}")
        flusher(pair)
    flusher.finish()
    return 0


def _run_selfcheck(args: argparse.Namespace) -> int:
    import itertools

    from .crc import crc_check, crc_encode, get_code, koopman_to_normal
    from .grand import hard_grand_decode
    from .theory import q_function

    checks = []  # (name, passed, detail)
    coeffs = list(koopman_to_normal(DEFAULT_CRC))
    checks.append(("crc generator expansion", coeffs == [1, 0, 0, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1], ""))

    # hard guess-and-check realizes minimum-distance decoding on a toy code
    toy = CrcSpec(0x5, 4, 7)
    messages = np.array(list(itertools.product((0, 1), repeat=4)), dtype=np.uint8)
    codebook = np.array([crc_encode(m, toy) for m in messages])
    words = np.array(list(itertools.product((0, 1), repeat=7)), dtype=np.uint8)
    nearest = (words[:, None, :] != codebook).sum(axis=-1).min(axis=1)
    results = [hard_grand_decode(w, get_code(toy), max_weight=7) for w in words]
    checks.append(("toy-code maximum-likelihood equivalence", all(
        not r.abandoned and np.count_nonzero(w != r.codeword) == d
        for w, r, d in zip(words, results, nearest)), ""))

    # single-user BPSK calibration against the Gaussian tail at 4 dB
    rng = np.random.default_rng(7)
    n_bits = 200_000
    ebn0 = 10.0 ** 0.4
    bits = rng.integers(0, 2, n_bits)
    rx = (1.0 - 2.0 * bits) + np.sqrt(1.0 / (2.0 * ebn0)) * rng.standard_normal(n_bits)
    ber = np.mean((rx < 0) != bits)
    expect = float(q_function(np.sqrt(2.0 * ebn0)))
    tol = 4.0 * np.sqrt(expect * (1.0 - expect) / n_bits)
    checks.append(("bpsk awgn calibration", abs(ber - expect) <= tol, f"ber={ber:.3e} expect={expect:.3e}"))

    # reproducibility across worker counts on a tiny point
    cfg = ScenarioConfig(scenario="grand", decoder="grand", ebn0_db=8.0,
                         min_block_errors=5, max_blocks=200, master_seed=11)
    one, two = (run_point(cfg.at(workers=w), 0) for w in (1, 2))
    same = all(getattr(a, f) == getattr(b, f)
               for a, b in zip(one, two) for f in CSV_FIELDS if f != "wall_time_s")
    checks.append(("worker-count reproducibility", same, ""))

    msg = np.random.default_rng(3).integers(0, 2, DEFAULT_CRC.message_len).astype(np.uint8)
    checks.append(("encode/check round trip", crc_check(crc_encode(msg, DEFAULT_CRC), DEFAULT_CRC), ""))

    for name, ok, detail in checks:
        print(f"[selfcheck] {name}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    return 0 if all(ok for _, ok, _ in checks) else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in SWEEPS:
            return _run_simulation_sweep(args)
        if args.command == "analyze":
            return _run_analyze(args)
        return _run_selfcheck(args)
    except (ValueError, OSError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
