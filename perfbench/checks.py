"""Output gates of the benchmark workloads.

Every rep's data file is checked for its structure and for the acceptance
tolerance the workload carries: criteria 2 and 4 of the acceptance suite
on every seed, criterion 1 on the default seed only. Criterion 1 is not a
property of every seed: a static vehicle keeps one fading draw for the
whole stationary stage, and seeds 1, 2 and 3 of the default replay end at
stationary BERs of 6.0e-3, 4.4e-3 and 3.5e-2 for their worst user. On
the workload's default seed, and on the library versions the digests were
taken on, the SHA-256 of the data file must also match. ``inspect_output`` returns the problems found, empty when
the output is correct, together with the counts read from the output.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from workloads import K_FIT_SAMPLES, K_FIT_TARGET

STATIONARY_BER_MAX = 2e-3  # criterion 1
MIN_STATIONARY_BITS = 100_000
FLOOR_BER_RANGE = (2e-4, 5e-3)  # criterion 2
K_TOLERANCE = 0.05  # criterion 4
FRAME_CAP = 20  # sweep_ber_vs_snr stops a point at 20x the frames its budget needs


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_csv(path, columns):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != columns:
        raise ValueError(f"{Path(path).name}: header is not {','.join(columns)}")
    if any(len(r) != len(columns) for r in rows[1:]):
        raise ValueError(f"{Path(path).name}: ragged row")
    return np.array(rows[1:], dtype=float).reshape(-1, len(columns))


def _timeseries(workload, cfg, path, counts, problems, default_seed):
    from nomalink.cli import TIMESERIES_COLUMNS

    data = _read_csv(path, TIMESERIES_COLUMNS)
    time_s, user, ber, outage, detected = data[:, 0], data[:, 1], data[:, 4], data[:, 5], data[:, 6]
    frame = cfg.frame
    n_frames = int(np.floor(cfg.total_duration / frame.frame_duration))
    expected_rows = n_frames * frame.symbols_per_frame * cfg.n_users
    if len(data) != expected_rows:
        problems.append(f"{len(data)} timeseries rows, expected {expected_rows}")
    if not (np.isin(detected, (0, 1)).all() and np.isin(outage, (0, 1)).all()):
        problems.append("detected/outage flags are not 0 or 1")
    if not ((ber >= 0) & (ber <= 1)).all():
        problems.append("BER outside [0, 1]")
    counts["user_frames"] = len(data) // frame.symbols_per_frame
    counts["samples"] = counts["user_frames"] * frame.frame_samples
    counts["detected_frames"] = int(detected.sum()) // frame.symbols_per_frame
    if workload.gate == "criterion_1" and default_seed:
        bits_per_row = frame.data_subcarriers * frame.bits_per_symbol
        for k in range(1, cfg.n_users + 1):
            sel = (user == k) & (detected == 1) & (time_s < cfg.stationary_duration)
            bits = int(sel.sum()) * bits_per_row
            mean_ber = float(ber[sel].mean()) if sel.any() else float("nan")
            if bits < MIN_STATIONARY_BITS or not mean_ber <= STATIONARY_BER_MAX:
                problems.append(
                    f"criterion 1: user {k} stationary BER {mean_ber:.3e} over {bits} bits"
                )


def _sweep(workload, cfg, path, counts, problems, default_seed):
    from nomalink.cli import SWEEP_COLUMNS

    data = _read_csv(path, SWEEP_COLUMNS)
    grid = np.sort(np.asarray(workload.snr_grid, dtype=float))
    n_users = cfg.n_users
    if len(data) != grid.size * n_users:
        problems.append(f"{len(data)} sweep rows, expected {grid.size * n_users}")
        return
    snr, ber, lo, hi = (data[:, i].reshape(grid.size, n_users) for i in (0, 2, 3, 4))
    bits = data[:, 5].reshape(grid.size, n_users).astype(np.int64)
    lost = data[:, 6].reshape(grid.size, n_users).astype(np.int64)
    payload = cfg.frame.payload_bits
    cap = FRAME_CAP * -(-workload.min_bits // payload)
    if not np.array_equal(snr[:, 0], grid) or not (snr == snr[:, :1]).all():
        problems.append("sweep SNR column does not follow the grid")
    if (bits % payload).any():
        problems.append("sweep bits are not whole frames")
    frames = lost + bits // payload  # each trial yields one frame per user
    if not (frames == frames[:, :1]).all():
        problems.append("users of one sweep point saw different frame counts")
    under = bits < workload.min_bits
    if (under.any(axis=1) & (frames[:, 0] != cap)).any():
        problems.append("a sweep point stopped under budget before the frame cap")
    if not (np.isnan(ber) == (bits == 0)).all():
        problems.append("BER is NaN where bits were counted, or finite where none were")
    finite = bits > 0
    if not ((lo[finite] <= ber[finite]) & (ber[finite] <= hi[finite])).all():
        problems.append("BER outside its confidence interval")
    counts["user_frames"] = int(frames.sum())
    counts["samples"] = counts["user_frames"] * cfg.frame.frame_samples
    counts["detected_frames"] = int((bits // payload).sum())
    counts["under_budget_points"] = int(under.sum())
    if workload.gate == "criterion_2":
        low, high = FLOOR_BER_RANGE
        if (bits < 1_000_000).any() or not ((ber >= low) & (ber <= high)).all():
            problems.append(f"criterion 2: floor {ber.tolist()} over {bits.min()} bits")
        elif (ber[-1] < ber[0] / 3.0).any():
            problems.append("criterion 2: the highest SNR point fell below a third of the lowest")


def _k_estimate(workload, cfg, path, counts, problems, default_seed):
    result = json.loads(Path(path).read_text())
    k = float(result["k_factor"])
    if result.get("samples") != K_FIT_SAMPLES:
        problems.append(f"K fit used {result.get('samples')} samples, expected {K_FIT_SAMPLES}")
    if not abs(k - K_FIT_TARGET) <= K_TOLERANCE * K_FIT_TARGET:
        problems.append(f"criterion 4: K estimate {k} not within 5% of {K_FIT_TARGET}")
    counts["samples"] = K_FIT_SAMPLES


_READERS = {"run-scenario": _timeseries, "sweep-ber": _sweep, "estimate-k": _k_estimate}


def inspect_output(workload, cfg, out_dir, seed: int, versions_pinned: bool):
    """Return (problems, counts) for one rep's output directory."""
    out_dir = Path(out_dir)
    path = out_dir / workload.data_file
    problems: list[str] = []
    counts = {
        "user_frames": 0,
        "detected_frames": 0,
        "under_budget_points": 0,
        "samples": 0,
        "bytes_written": 0,
    }
    if not path.is_file():
        return [f"{workload.data_file} was not written"], counts
    counts["digest"] = sha256(path)
    default_seed = seed == workload.default_seed
    try:
        _READERS[workload.command](workload, cfg, path, counts, problems, default_seed)
    except (ValueError, KeyError) as exc:
        problems.append(f"unreadable {workload.data_file}: {exc}")
    if workload.digest and default_seed and versions_pinned:
        if counts["digest"] != workload.digest:
            problems.append(f"{workload.data_file} digest {counts['digest'][:16]} != pinned")
    manifest = out_dir / "manifest.json"
    if manifest.is_file():
        written = json.loads(manifest.read_text())
        files = [*written["outputs"], written["config_file"], str(manifest)]
        counts["bytes_written"] = sum(Path(f).stat().st_size for f in files)
    else:
        problems.append("manifest.json was not written")
    return problems, counts
