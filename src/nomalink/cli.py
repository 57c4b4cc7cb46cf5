"""Command-line front end: config ingestion, experiment commands, outputs.

Commands
--------
run-scenario   replay the two-stage experiment, write the metric timeseries
sweep-ber      Monte Carlo BER-vs-SNR curves under mobile impairments
estimate-k     maximum-likelihood Rician K fit of an envelope file
selftest       quick invariant checks, exit status reports the result

Every command writes a ``manifest.json`` recording the command, a digest
of the fully-resolved configuration, the seed, timestamps, and the output
paths, which is sufficient to reproduce the data files exactly. A sweep
also lists the SNR points that stopped at the frame cap with some user
short of the bit budget. Data files are byte-identical across runs for
identical config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Literal, get_args

import numpy as np

from . import __version__
from .channel import ChannelParams, MobilityState, apply_channel, doppler_shift, estimate_k_factor
from .frame_codec import FrameConfig, _field_value
from .noma import PowerAllocation, build_downlink_frame
from .receiver import receive_user
from .scenario import (
    MIN_BITS_PER_POINT,
    _CONFIG_BLOCKS,
    _CONFIG_PATHS,
    _RUN_SET,
    BerCurve,
    MetricsTimeSeries,
    ScenarioConfig,
    run_v2x_scenario,
    sweep_ber_vs_snr,
)

__all__ = ["RunManifest", "load_config", "execute", "write_outputs", "config_to_dict", "main"]

SCHEMA_VERSION = 1

TIMESERIES_COLUMNS = ("time_s", "user", "est_snr_db", "est_cfo_hz", "ber", "outage", "detected")
SWEEP_COLUMNS = ("snr_db", "user", "ber", "ci_low", "ci_high", "bits", "lost_frames")

_COMMANDS = {
    "run-scenario": "replay the two-stage vehicular experiment",
    "sweep-ber": "Monte Carlo BER-vs-SNR curves",
    "estimate-k": "ML Rician K-factor fit of an envelope file",
    "selftest": "run quick invariant checks",
}
_FORMAT = Literal["text", "records"]


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record accompanying every output file.

    Together with the resolved config written next to the outputs, the
    manifest is sufficient to regenerate every data file exactly.
    """

    command: str
    config_digest: str
    seed: int
    started_at: str
    finished_at: str
    outputs: tuple
    config_file: str = ""
    # sweep points where some user got fewer than min_bits bits before the frame cap
    under_budget_snr_db: tuple = ()
    version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _settable(cls) -> list[str]:
    return [f.name for f in fields(cls) if f.name not in _RUN_SET.get(cls, ())]


def _to_json(value):
    """A config value in its JSON layout: a dataclass as an object of its
    settable fields, a sequence as a list, a dataclass in a list as a row."""
    if is_dataclass(value):
        return {name: _to_json(getattr(value, name)) for name in _settable(type(value))}
    if isinstance(value, (tuple, list)):
        return [list(_to_json(v).values()) if is_dataclass(v) else v for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    flat = _to_json(cfg)
    for block, keys in _CONFIG_BLOCKS.items():
        flat[block] = {key: flat.pop(name) for key, name in keys.items()}
    return flat


def config_digest(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _object(name: str, value) -> dict:
    if type(value) is not dict:
        raise ValueError(f"config field {name!r} must be an object, got {value!r}")
    return value


def _load(default, entries, block: str = ""):
    """``default`` with each (JSON name, field, value) entry set; absent
    fields keep their default. The dataclass checks every value it is given."""
    settable = _settable(type(default))
    changes = {}
    for name, key, value in entries:
        if key not in settable:
            raise ValueError(f"unknown config field {name!r}")
        current = getattr(default, key)
        if is_dataclass(current):
            sub = [(f"{name}.{k}", k, v) for k, v in _object(name, value).items()]
            value = _load(current, sub, name)
        changes[key] = value
    try:
        return replace(default, **changes)
    except ValueError as exc:
        if not block:  # ScenarioConfig's own messages name their field
            raise
        # a block's dataclass begins each message with the field it rejects
        raise ValueError(f"config field {block!r}: {block}.{exc}") from exc


def _build_config(raw: dict) -> ScenarioConfig:
    """Construct a validated ScenarioConfig from a parsed mapping."""
    entries = []  # (JSON name, field or None where unknown, value)
    for key, value in raw.items():
        if key in _CONFIG_BLOCKS:
            sub = _object(key, value)
            entries += [(f"{key}.{k}", _CONFIG_BLOCKS[key].get(k), v) for k, v in sub.items()]
        else:  # a field that sits in a block is unknown at the top level
            entries.append((key, None if key in _CONFIG_PATHS else key, value))
    return _load(ScenarioConfig(), entries)


class _LongInteger:
    """A JSON integer with more digits than Python converts: not a number to
    any field, and shown by its size in the message that names the field."""

    def __init__(self, digits: int):
        self.digits = digits

    def __repr__(self) -> str:
        limit = sys.get_int_max_str_digits()
        return f"an integer of {self.digits} digits, more than the {limit} a config may hold"


def _parse_int(text: str):
    try:
        return int(text)
    except ValueError:
        return _LongInteger(len(text.lstrip("-")))


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario config; absent fields default.

    An empty file yields the full default (testbed) configuration. An
    unknown key, a block that is not an object, or a value that the
    config dataclasses reject (a wrong type or an invariant violation,
    checked as for a config built in Python) raises ValueError naming the
    field.
    """
    text = Path(path).read_text()
    if not text.strip():
        return ScenarioConfig()
    try:
        raw = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return _build_config(raw)


# columns written as integers and as 0/1 flags; every other column is a float
_INT_COLUMNS = ("user", "bits", "lost_frames")
_FLAG_COLUMNS = ("outage", "detected")


def _columns(result) -> tuple[tuple, list]:
    """Column names and, per column, its values as a 1-D float, int64 or bool array."""
    if isinstance(result, MetricsTimeSeries):
        names = TIMESERIES_COLUMNS
        arrays = [getattr(result, name) for name in names]
    elif isinstance(result, BerCurve):
        names = SWEEP_COLUMNS
        users, points = result.n_users, result.snr_db.size
        arrays = [np.repeat(result.snr_db, users), np.tile(np.arange(1, users + 1), points)]
        arrays += [np.ravel(getattr(result, name)) for name in names[2:]]
    else:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    dtypes = [
        bool if name in _FLAG_COLUMNS else np.int64 if name in _INT_COLUMNS else float
        for name in names
    ]
    return names, [np.asarray(a, dtype=t) for a, t in zip(arrays, dtypes)]


def write_outputs(result, fmt: str, path) -> Path:
    """Serialize a timeseries or sweep result to delimited text or records.

    Text output is CSV with a fixed column schema; records output is one
    JSON object per line with the same keys, where a NaN or infinite
    float, which JSON cannot hold, is null. Identical inputs produce
    byte-identical files.
    """
    fmt = _field_value("fmt", _FORMAT, fmt)
    names, arrays = _columns(result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "text":
        # flags are written as 1/0: the repr of their integer values
        columns = [(a.view(np.uint8) if a.dtype == bool else a).tolist() for a in arrays]
        lines = [",".join(names)]
        lines += [",".join(map(repr, row)) for row in zip(*columns)]
    else:
        nulled = [np.where(np.isfinite(a), a, None) if a.dtype == float else a for a in arrays]
        rows = zip(*(a.tolist() for a in nulled))
        lines = [json.dumps(dict(zip(names, r)), sort_keys=True, allow_nan=False) for r in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_envelopes(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        return np.load(path)
    return np.loadtxt(path, dtype=float).ravel()


def _selftest() -> list[tuple[str, bool]]:
    """Fast invariant checks through the layers: transmit, channel, receive."""
    cfg = FrameConfig()
    alloc = PowerAllocation.testbed_default()
    rng = np.random.default_rng(7)
    payloads = [rng.integers(0, 2, cfg.payload_bits) for _ in range(alloc.n_users)]
    tx = build_downlink_frame(payloads, cfg, alloc, 11)
    prefix, tail = tx[: cfg.cp_length], tx[cfg.fft_size : cfg.symbol_samples]
    clean = ChannelParams(rician_k=1e12)
    rx, _ = apply_channel(tx, cfg.sample_rate, clean, MobilityState.static(1.0), seed=1)
    reports = [receive_user(rx, cfg, alloc, k, 11) for k in range(1, alloc.n_users + 1)]
    return [
        ("frame length", len(tx) == cfg.frame_samples),
        ("cyclic prefix", bool(np.allclose(prefix, tail, atol=1e-12))),
        ("doppler formula", abs(doppler_shift(0.876, 2.34e9) - 6.8375) < 0.01),
        (
            "transparent end-to-end",
            all(r.detected and np.array_equal(r.bits, p) for r, p in zip(reports, payloads)),
        ),
    ]


def execute(
    command: str,
    cfg: ScenarioConfig,
    out_dir,
    fmt: str = "text",
    snr_grid=None,
    min_bits: int = MIN_BITS_PER_POINT,
    input_path=None,
) -> RunManifest:
    """Run one command and emit its outputs plus a manifest; returns it.
    A rejected command writes nothing, not even ``out_dir``."""
    command = _field_value("command", Literal[tuple(_COMMANDS)], command)
    fmt = _field_value("fmt", _FORMAT, fmt)
    out = Path(out_dir)
    started = datetime.now(timezone.utc).isoformat()
    outputs: list[str] = []
    under_budget: list[float] = []
    suffix = "csv" if fmt == "text" else "jsonl"

    if command == "run-scenario":
        series = run_v2x_scenario(cfg)
        outputs.append(str(write_outputs(series, fmt, out / f"timeseries.{suffix}")))
    elif command == "sweep-ber":
        if snr_grid is None or len(snr_grid) == 0:
            raise ValueError("sweep-ber requires --snr-grid")
        curve = sweep_ber_vs_snr(cfg, snr_grid, min_bits_per_point=min_bits)
        under_budget = curve.snr_db[(curve.bits < min_bits).any(axis=1)].tolist()
        outputs.append(str(write_outputs(curve, fmt, out / f"sweep.{suffix}")))
    elif command == "estimate-k":
        if input_path is None:
            raise ValueError("estimate-k requires --input with an envelope file")
        envelopes = _read_envelopes(Path(input_path))
        k, nu, sigma = estimate_k_factor(envelopes)
        result = {
            "k_factor": k,
            "non_centrality": nu,
            "scale": sigma,
            "samples": int(envelopes.size),
        }
        target = out / "k_estimate.json"
        out.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        outputs.append(str(target))
    else:
        checks = _selftest()
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not all(ok for _, ok in checks):
            raise RuntimeError("selftest failed")

    # the directory comes with the first file written, so a rejected command leaves none
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "resolved_config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
    manifest = RunManifest(
        command=command,
        config_digest=config_digest(cfg),
        seed=cfg.seed,
        started_at=started,
        finished_at=datetime.now(timezone.utc).isoformat(),
        outputs=tuple(outputs),
        config_file=str(config_path),
        under_budget_snr_db=tuple(under_budget),
    )
    manifest.write(out / "manifest.json")
    return manifest


def _parse_grid(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad SNR grid {text!r}: {exc}") from exc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nomalink",
        description="Deterministic 3-user downlink NOMA OFDM link simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, brief in _COMMANDS.items():
        p = sub.add_parser(name, help=brief)
        p.add_argument("--config", type=Path, help="JSON scenario config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--format", choices=get_args(_FORMAT), default="text", dest="fmt")
        if name == "sweep-ber":
            p.add_argument("--snr-grid", type=_parse_grid, help="comma-separated dB values")
            p.add_argument("--min-bits", type=int, default=MIN_BITS_PER_POINT)
        if name == "estimate-k":
            p.add_argument("--input", type=Path, help="envelope file (.npy or text)")

    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value such as -20,20 as an option: bind it to its flag
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--snr-grid":
            argv[i : i + 2] = [f"--snr-grid={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        manifest = execute(
            args.command,
            cfg,
            args.out,
            fmt=args.fmt,
            snr_grid=getattr(args, "snr_grid", None),
            min_bits=getattr(args, "min_bits", MIN_BITS_PER_POINT),
            input_path=getattr(args, "input", None),
        )
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for snr in manifest.under_budget_snr_db:
        print(
            f"warning: sweep point {snr} dB stopped at the frame cap with some user"
            f" below {args.min_bits} bits; its BER is NaN or rests on fewer bits",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
