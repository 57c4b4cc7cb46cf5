"""Command-line front end: config ingestion, experiment commands, outputs.

Commands
--------
run-scenario   replay the two-stage experiment, write the metric timeseries
sweep-ber      Monte Carlo BER-vs-SNR curves under mobile impairments
estimate-k     maximum-likelihood Rician K fit of an envelope file
selftest       quick invariant checks, exit status reports the result

Every command writes a ``manifest.json`` recording the command, a digest
of the fully-resolved configuration, the seed, timestamps, and the output
paths, which is sufficient to reproduce the data files exactly. Data
files are byte-identical across runs for identical config and seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .channel import ChannelParams, estimate_k_factor
from .frame_codec import FrameConfig
from .scenario import (
    BerCurve,
    MetricsTimeSeries,
    ScenarioConfig,
    UserPath,
    run_v2x_scenario,
    sweep_ber_vs_snr,
)

__all__ = ["RunManifest", "load_config", "execute", "write_outputs", "config_to_dict", "main"]

SCHEMA_VERSION = 1

TIMESERIES_COLUMNS = ("time_s", "user", "est_snr_db", "est_cfo_hz", "ber", "outage", "detected")
SWEEP_COLUMNS = ("snr_db", "user", "ber", "ci_low", "ci_high", "bits", "lost_frames")


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
    version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "frame": asdict(cfg.frame),
        "channel": {
            k: v
            for k, v in asdict(cfg.channel).items()
            if k not in ("target_snr_db", "noise_power_dbm")
        },
        "users": [[u.start_distance, u.end_distance] for u in cfg.users],
        "power": {
            "policy": cfg.power_policy,
            "coefficients": list(cfg.power_coefficients),
        },
        "timing": {
            "stationary_duration": cfg.stationary_duration,
            "travel_duration": cfg.travel_duration,
            "total_duration": cfg.total_duration,
        },
        "speed": cfg.speed,
        "anchor_snr_db": cfg.anchor_snr_db,
        "outage_threshold_db": cfg.outage_threshold_db,
        "sync_threshold": cfg.sync_threshold,
        "pilot_seed": cfg.pilot_seed,
        "seed": cfg.seed,
    }


def config_digest(cfg: ScenarioConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _build_config(raw: dict) -> ScenarioConfig:
    """Construct a validated ScenarioConfig from a parsed mapping."""
    known = {
        "frame",
        "channel",
        "users",
        "power",
        "timing",
        "speed",
        "anchor_snr_db",
        "outage_threshold_db",
        "sync_threshold",
        "pilot_seed",
        "seed",
    }
    for key in raw:
        if key not in known:
            raise ValueError(f"unknown config field {key!r}")
    for block, keys in (
        ("power", {"policy", "coefficients"}),
        ("timing", {"stationary_duration", "travel_duration", "total_duration"}),
    ):
        entries = raw.get(block, {})
        if not isinstance(entries, dict):
            raise ValueError(f"config field {block!r} must be an object")
        for key in entries:
            if key not in keys:
                raise ValueError(f"unknown config field '{block}.{key}'")

    defaults = ScenarioConfig()
    try:
        frame = FrameConfig(**raw.get("frame", {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'frame': {exc}") from exc
    try:
        base = {
            k: v
            for k, v in asdict(defaults.channel).items()
            if k not in ("target_snr_db", "noise_power_dbm")
        }
        base.update(raw.get("channel", {}))
        chan = ChannelParams(**base)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"config field 'channel': {exc}") from exc

    power = raw.get("power", {})
    policy = power.get("policy", defaults.power_policy)
    coefficients = tuple(power.get("coefficients", defaults.power_coefficients))
    timing = raw.get("timing", {})
    users_raw = raw.get("users")
    users = (
        defaults.users
        if users_raw is None
        else tuple(UserPath(*u) for u in users_raw)
    )
    try:
        return ScenarioConfig(
            frame=frame,
            channel=chan,
            users=users,
            power_policy=policy,
            power_coefficients=coefficients,
            stationary_duration=timing.get(
                "stationary_duration", defaults.stationary_duration
            ),
            travel_duration=timing.get("travel_duration", defaults.travel_duration),
            total_duration=timing.get("total_duration", defaults.total_duration),
            speed=raw.get("speed", defaults.speed),
            anchor_snr_db=raw.get("anchor_snr_db", defaults.anchor_snr_db),
            outage_threshold_db=raw.get("outage_threshold_db", defaults.outage_threshold_db),
            sync_threshold=raw.get("sync_threshold", defaults.sync_threshold),
            pilot_seed=raw.get("pilot_seed", defaults.pilot_seed),
            seed=raw.get("seed", defaults.seed),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(str(exc)) from exc


def load_config(path) -> ScenarioConfig:
    """Parse and validate a JSON scenario config; absent fields default.

    An empty file yields the full default (testbed) configuration.
    Invariant violations raise ValueError naming the offending field.
    """
    text = Path(path).read_text()
    if not text.strip():
        return ScenarioConfig()
    try:
        raw = json.loads(text)
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
    JSON object per line with the same keys. Identical inputs produce
    byte-identical files.
    """
    names, arrays = _columns(result)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "text":
        # flags are written as 1/0: the repr of their integer values
        columns = [(a.view(np.uint8) if a.dtype == bool else a).tolist() for a in arrays]
        lines = [",".join(names)]
        lines += [",".join(map(repr, row)) for row in zip(*columns)]
    elif fmt == "records":
        columns = [a.tolist() for a in arrays]
        lines = [json.dumps(dict(zip(names, row)), sort_keys=True) for row in zip(*columns)]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _read_envelopes(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        return np.load(path)
    return np.loadtxt(path, dtype=float).ravel()


def _selftest() -> list[tuple[str, bool]]:
    """Fast invariant checks covering each processing layer."""
    from .channel import MobilityState, apply_channel, doppler_shift
    from .frame_codec import assemble_frame, qam_demodulate, qam_modulate
    from .noma import PowerAllocation, build_downlink_frame, superpose
    from .receiver import receive_user
    from .scenario import compute_ber

    checks: list[tuple[str, bool]] = []
    cfg = FrameConfig()
    rng = np.random.default_rng(7)

    bits = rng.integers(0, 2, cfg.payload_bits)
    checks.append(
        ("qam roundtrip", bool(np.array_equal(qam_demodulate(qam_modulate(bits)), bits)))
    )
    wave, _ = assemble_frame(bits, cfg, 11)
    checks.append(("frame length", len(wave) == cfg.frame_samples))
    body = wave.samples[: cfg.symbol_samples]
    checks.append(
        (
            "cyclic prefix",
            bool(np.allclose(body[: cfg.cp_length], body[cfg.fft_size :], atol=1e-12)),
        )
    )
    alloc = PowerAllocation.testbed_default()
    ones = [wave, wave, wave]
    total = superpose(ones, alloc).samples
    expected = sum(np.sqrt(c) for c in alloc.coefficients)
    checks.append(
        ("superposition", bool(np.allclose(total, expected * wave.samples)))
    )
    checks.append(("doppler formula", abs(doppler_shift(0.876, 2.34e9) - 6.8375) < 0.01))

    payloads = [rng.integers(0, 2, cfg.payload_bits) for _ in range(3)]
    tx, _ = build_downlink_frame(payloads, cfg, alloc, 11)
    clean = ChannelParams(rician_k=1e12)
    rx, _ = apply_channel(tx, clean, MobilityState.static(1.0), seed=1)
    ok = True
    for k in range(1, 4):
        report = receive_user(rx, cfg, alloc, k, 11)
        ok = ok and report.detected and compute_ber(payloads[k - 1], report.bits, True) == 0.0
    checks.append(("transparent end-to-end", ok))
    return checks


def execute(
    command: str,
    cfg: ScenarioConfig,
    out_dir,
    fmt: str = "text",
    snr_grid=None,
    min_bits: int = 100_000,
    input_path=None,
) -> RunManifest:
    """Run one command and emit its outputs plus a manifest; returns it."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()
    outputs: list[str] = []
    suffix = "csv" if fmt == "text" else "jsonl"

    if command == "run-scenario":
        series = run_v2x_scenario(cfg)
        outputs.append(str(write_outputs(series, fmt, out / f"timeseries.{suffix}")))
    elif command == "sweep-ber":
        if snr_grid is None or len(snr_grid) == 0:
            raise ValueError("sweep-ber requires --snr-grid")
        curve = sweep_ber_vs_snr(cfg, snr_grid, min_bits_per_point=min_bits)
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
        target.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        outputs.append(str(target))
    elif command == "selftest":
        checks = _selftest()
        for name, ok in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not all(ok for _, ok in checks):
            raise RuntimeError("selftest failed")
    else:
        raise ValueError(f"unknown command {command!r}")

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
    for name, brief in (
        ("run-scenario", "replay the two-stage vehicular experiment"),
        ("sweep-ber", "Monte Carlo BER-vs-SNR curves"),
        ("estimate-k", "ML Rician K-factor fit of an envelope file"),
        ("selftest", "run quick invariant checks"),
    ):
        p = sub.add_parser(name, help=brief)
        p.add_argument("--config", type=Path, help="JSON scenario config")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument(
            "--format", choices=("text", "records"), default="text", dest="fmt"
        )
        if name == "sweep-ber":
            p.add_argument("--snr-grid", type=_parse_grid, help="comma-separated dB values")
            p.add_argument("--min-bits", type=int, default=100_000)
        if name == "estimate-k":
            p.add_argument("--input", type=Path, help="envelope file (.npy or text)")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        execute(
            args.command,
            cfg,
            args.out,
            fmt=args.fmt,
            snr_grid=getattr(args, "snr_grid", None),
            min_bits=getattr(args, "min_bits", 100_000),
            input_path=getattr(args, "input", None),
        )
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
