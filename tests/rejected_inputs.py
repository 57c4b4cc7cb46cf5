"""Inputs that every nomalink command must reject, and the check each one gets.

A rejected input ends the command with exit status 1 and one line on
stderr, ``error: <message>``, with no traceback and no output directory.
Each row is an argv, the files it names and a pattern that the message
(after ``error: ``) must match. The patterns are regular expressions that
Python's ``re.search`` and ``grep -E`` read alike.

tests/test_cli.py runs every row through ``nomalink.cli.main`` in-process.
Run as a script, it writes each row's files under a directory and prints
one line per row, the pattern and then the argv, tab-separated, for a
shell loop over the installed ``nomalink`` command:

    python tests/rejected_inputs.py DIR
"""

import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from nomalink.channel import ChannelParams, generate_fading

# 10**5000, which json.dumps cannot print: a config holds it as this string,
# and config_text writes it as the raw JSON integer
HUGE = "10**5000"

# vehicles near 10 m: path-loss exponents near -300 give path gains near the
# top of the float range
FAR_USERS = [[9.9, 9.5], [9.8, 9.4], [9.7, 9.3]]


def config_text(raw) -> str:
    """A config file's text: ``raw`` as it is when it is a string, else as JSON."""
    if isinstance(raw, str):
        return raw
    return json.dumps(raw).replace(json.dumps(HUGE), "1" + "0" * 5000)


class Rejection(NamedTuple):
    argv: tuple
    files: dict  # name in argv -> a config for config_text, or an envelope array
    pattern: str

    def write(self, where: Path) -> list[str]:
        """Write the row's files into ``where``; the argv with their paths,
        and an output directory there."""
        where.mkdir(parents=True, exist_ok=True)
        for name, content in self.files.items():
            if isinstance(content, np.ndarray):
                np.save(where / name, content)
            else:
                (where / name).write_text(config_text(content))
        argv = [str(where / arg) if arg in self.files else arg for arg in self.argv]
        return argv + ["--out", str(where / "out")]


def _config(raw, pattern: str) -> Rejection:
    return Rejection(("run-scenario", "--config", "config.json"), {"config.json": raw}, pattern)


def _envelopes(samples: np.ndarray, pattern: str) -> Rejection:
    argv = ("estimate-k", "--input", "envelopes.npy")
    return Rejection(argv, {"envelopes.npy": samples}, pattern)


_NAN, _INF = float("nan"), float("inf")

REJECTED = [_config(raw, pattern) for raw, pattern in [
    ({"anchor_snr_db": _NAN}, "anchor_snr_db"),
    ({"speed": _NAN}, "speed"),
    ({"timing": {"total_duration": _INF}}, "total_duration"),
    ({"channel": {"cfo_hz": _NAN}}, "channel.cfo_hz"),
    ({"users": [[4.27, 1.25], [4.02, _NAN], [3.9, 0.57]]}, "users"),
    ({"frame": {"symbols_per_frame": 1}}, "frame.symbols_per_frame"),
    ({"frame": {"cp_length": 0}}, "frame.cp_length"),
    ({"power": {"polcy": "fixed"}}, "power.polcy"),
    ({"timing": {"total_duraton": 1.0}}, "timing.total_duraton"),
    ({"power": 3}, "power"),
    ({"channel": {"delay_samples": 2.5}}, "channel.delay_samples"),
    ({"channel": {"n_sinusoids": 8.5}}, "channel.n_sinusoids"),
    ({"seed": 1.5}, "seed"),
    ({"pilot_seed": False}, "pilot_seed"),
    ({"sync_threshold": "x"}, "sync_threshold"),
    ({"anchor_snr_db": None}, "anchor_snr_db"),
    ({"channel": {"cfo_hz": "1"}}, "channel.cfo_hz"),
    ({"outage_threshold_db": True}, "outage_threshold_db"),
    ({"frame": {"fft_size": 256.0}}, "frame.fft_size"),
    ({"power": {"coefficients": [10**400, 0.191, 0.048]}}, "power.coefficients"),
    ({"users": [[4.0, 1.0, 2.0]]}, "users"),
    ({"users": 5}, "users"),
    ({"users": [[4.27, True], [4.02, 1.12], [3.9, 0.57]]}, "users"),
    ({"channel": {"doppler_hz": 50}}, "channel.doppler_hz"),
    ({"channel": {"target_snr_db": 20.0}}, "channel.target_snr_db"),
    ({"channel": {"noise_power_dbm": -60.0}}, "channel.noise_power_dbm"),
    ({"frame": {"fft_size": 100}}, "config field 'frame'"),
    ({"frame": {"fft_sise": 256}}, "frame.fft_sise"),
    ({"channel": {"rician_k": -1.0}}, "config field 'channel'"),
    ({"users": [[4.0, 1.0], [-3.0, 0.5], [2.0, 0.4]]}, r"users\[1\]"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"pilot_seed": -5}, "pilot_seed must be >= 0"),
    ({"channel": {"cfo_hz": 5000}}, "channel.cfo_hz"),
    ({"channel": {"cfo_hz": -970.0}}, "channel.cfo_hz"),
    ({"channel": {"cfo_hz": 960}}, "channel.cfo_jitter_hz"),
    ({"channel": {"cfo_hz": 100, "cfo_jitter_hz": 250}}, "channel.cfo_jitter_hz"),
    ({"frame": {"pilot_subcarriers": 1}}, "frame.pilot_subcarriers"),
    ({"frame": {"carrier_frequency": 0.0}}, "frame.carrier_frequency"),
    ({"frame": {"carrier_frequency": -2.34e9}}, "frame.carrier_frequency"),
    ({"frame": {"carrier_frequency": 3e11}}, "frame.carrier_frequency"),
    ({"channel": {"path_loss_exponent": 1e6}}, "channel.path_loss_exponent"),
    ({"channel": {"path_loss_exponent": -1e6}}, "channel.path_loss_exponent"),
    ({"channel": {"delay_samples": 320}}, "channel.delay_samples"),
    ({"channel": {"delay_samples": 640}}, "channel.delay_samples"),
    ({"timing": {"stationary_duration": 0.001, "travel_duration": 0.001,
                 "total_duration": 0.002}}, "timing.total_duration"),
    ({"channel": {"delay_samples": 257}}, "channel.delay_samples"),
    ({"channel": {"delay_samples": 319}}, "channel.delay_samples"),
    ({"frame": {"bandwidth": 8.0e5}}, "frame.bandwidth"),
    ({"timing": {"travel_duration": 0.0}}, r"timing\.travel_duration"),
    ({"timing": {"stationary_duration": -1.0}}, r"timing\.stationary_duration"),
    ({"timing": {"stationary_duration": _NAN}}, r"timing\.stationary_duration"),
    ({"timing": {"total_duration": 2.0}}, r"timing\.total_duration"),
    ({"channel": {"cfo_jitter_hz": -1.0}}, r"channel\.cfo_jitter_hz"),
    ({"channel": {"cfo_jitter_tau_s": 0.0}}, r"channel\.cfo_jitter_tau_s"),
    ({"users": []}, "^users"),
    ({"power": {"policy": "equal"}}, r"power\.policy"),
    ({"power": {"coefficients": [0.8, 0.2]}}, r"power\.coefficients"),
    ({"power": {"coefficients": [0.7, 0.15, 0.05]}}, r"power\.coefficients"),
    ({"power": {"coefficients": [_NAN, 0.2, 0.1]}}, r"power\.coefficients\[0\]"),
    ({"frame": {"data_subcarriers": 0}}, r"frame\.data_subcarriers"),
    ({"frame": {"pilot_subcarriers": 0}}, r"frame\.pilot_subcarriers"),
    ({"users": FAR_USERS, "channel": {"path_loss_exponent": -307}},
     r"channel\.path_loss_exponent"),
    ({"anchor_snr_db": -3083}, "^anchor_snr_db"),
    ({"anchor_snr_db": -3082}, "^anchor_snr_db"),
    ({"channel": {"reference_distance": 0}}, r"channel\.reference_distance"),
    ({"channel": {"delay_samples": -1}}, r"channel\.delay_samples"),
    ({"channel": {"n_sinusoids": 0}}, r"channel\.n_sinusoids"),
    ({"frame": {"cp_length": 300}}, r"frame\.cp_length"),
    ({"users": [[4.27, 1.0], [4.02, 1.12], [3.9, 0.57]]}, "^users .* end line"),
    ({"speed": -1}, "^speed must be >= 0"),
    ([1], "must hold a JSON object"),
    # sizes beyond their limits: 2**16 bins and sinusoids, order 4**16
    ({"frame": {"fft_size": 2**1100}}, r"frame\.fft_size must be <= 65536"),
    ({"frame": {"fft_size": 2**17}}, r"frame\.fft_size must be <= 65536"),
    ({"frame": {"modulation_order": 4**17}}, r"frame\.modulation_order"),
    ({"frame": {"modulation_order": 4**31}}, r"frame\.modulation_order"),
    ({"frame": {"modulation_order": 4**32}}, r"frame\.modulation_order"),
    ({"frame": {"modulation_order": 2**1100}}, r"frame\.modulation_order"),
    ({"channel": {"n_sinusoids": 2**17}}, r"channel\.n_sinusoids must be <= 65536"),
    ({"channel": {"n_sinusoids": 2**40}}, r"channel\.n_sinusoids must be <= 65536"),
    ({"channel": {"n_sinusoids": 2**64}}, r"channel\.n_sinusoids must be <= 65536"),
]] + [
    _config("{not json", "is not valid JSON"),
    _config({"users": FAR_USERS, "channel": {"path_loss_exponent": -307}},
            r"^channel\.path_loss_exponent and channel\.reference_distance give"),
    _envelopes(np.ones(5000), "^degenerate envelope: all samples equal$"),
    # complex gains in place of envelope magnitudes
    _envelopes(
        generate_fading(ChannelParams(rician_k=10.92, doppler_hz=0.4), 5000, 1.0, seed=17),
        "^envelope samples must be real magnitudes",
    ),
    _config({"channel": {"reference_distance": 5e-324}}, r"channel\.reference_distance give"),
    _config({"channel": {"reference_distance": 1e308}}, r"channel\.reference_distance give"),
    _config({"frame": {"symbols_per_frame": 2**10 + 1}},
            r"frame\.symbols_per_frame must be <= 1024"),
    _config({"frame": {"symbols_per_frame": 2**1100}},
            r"frame\.symbols_per_frame must be <= 1024"),
    _config({"frame": {"modulation_order": 1}},
            r"frame\.modulation_order must be a power of 4 from 4"),
    # integers longer than Python converts, named by their size
    _config({"seed": HUGE}, "^seed must be an integer, got an integer of 5001 digits"),
    _config({"speed": HUGE}, "^speed must be a number, got an integer of 5001 digits"),
    _config({"users": [[HUGE, 1.0], [4.02, 1.12], [3.9, 0.57]]},
            r"^users\[0\]: start_distance must be a number, got an integer of 5001 digits"),
    # timelines of more frames than a run holds
    _config({"timing": {"total_duration": 1e9}}, r"^timing\.total_duration .* 1 to 262144"),
    _config({"timing": {"total_duration": 1e308}}, r"^timing\.total_duration .* 1 to 262144"),
    _config({"frame": {"sample_rate": 1e308}}, r"^timing\.total_duration .*sample_rate 1e\+308"),
    # equal coefficients cancel 15 of the 25 composite pilots exactly at pilot_seed 295
    _config({"users": [[4.27, 1.25], [4.02, 1.12]], "power": {"coefficients": [0.5, 0.5]}},
            r"^power\.coefficients \(0\.5, 0\.5\) and pilot_seed 295 give 15 of 25 composite"),
    _config({"frame": {"data_subcarriers": 300}},
            r"fft_size 256 too small .*\(data_subcarriers 300 \+ pilot_subcarriers 25\)"),
    # the sweep's own argument check, run after the config loads
    Rejection(("sweep-ber", "--snr-grid", "nan"), {}, r"^snr_grid\[0\] must be finite, got nan$"),
    # distance-squared coefficients whose squares overflow, and whose sum underflows to 0
    _config({"users": [[1e200, 1e199], [1e199, 1e198]], "power": {"policy": "distance-squared"},
             "channel": {"path_loss_exponent": 0.01}},
            r"^users with power\.policy 'distance-squared': distances \(1e\+200, 1e\+199\)"),
    _config({"users": [[1e-170, 1e-171], [1e-171, 1e-172]],
             "power": {"policy": "distance-squared"}, "channel": {"path_loss_exponent": 0.01}},
            r"^users with power\.policy 'distance-squared': .* underflow the float range$"),
]

if __name__ == "__main__":
    for i, row in enumerate(REJECTED):
        print("\t".join([row.pattern, *row.write(Path(sys.argv[1]) / str(i))]))
