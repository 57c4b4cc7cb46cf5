"""Workload table of the nomalink benchmark.

Each workload is one CLI-equivalent command run to completion through
``nomalink.cli.execute`` (a closed loop with a single client). The seed is
a benchmark argument; the pinned digest of the data file holds only on the
workload's default seed and on the library versions in ``PINNED_VERSIONS``.
This module uses only the standard library, so the parent process can read
it without importing numpy or nomalink.
"""

from __future__ import annotations

from dataclasses import dataclass

# Versions the digests below were taken on. Floating-point output bytes may
# change with any of them, so a digest is compared only where all match.
PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

# Acceptance criterion 9's short config: 0.11 s of replay.
SMOKE_CONFIG = (
    '{"timing": {"stationary_duration": 0.05, "travel_duration": 0.06,'
    ' "total_duration": 0.11}}'
)

# The default testbed timeline cut to a tenth, stage proportions kept: 179
# frames x 3 users, of which 38% are stationary.
SHORT_REPLAY_CONFIG = (
    '{"timing": {"stationary_duration": 0.2165, "travel_duration": 0.358,'
    ' "total_duration": 0.574}}'
)

K_FIT_SAMPLES = 1_000_000
K_FIT_TARGET = 10.92
K_FIT_DOPPLER_HZ = 0.4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    data_file: str
    default_seed: int
    digest: str
    gate: str = ""  # acceptance criterion the output must meet, if any
    config: str = ""  # JSON config text; empty selects the testbed defaults
    snr_grid: tuple = ()
    min_bits: int = 100_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay",
            command="run-scenario",
            data_file="timeseries.csv",
            default_seed=10,
            digest="cfcaa3be3f795e0282ecd9302fc06a3c9859cc3233135e9cf848a4ee5aeef220",
            gate="criterion_1",
        ),
        Workload(
            name="floor_sweep",
            command="sweep-ber",
            data_file="sweep.csv",
            default_seed=7,
            digest="0f8f7bf9de0358de360c4acd48244c6e4fedfb1235c5ef15fa90531940b313ff",
            gate="criterion_2",
            snr_grid=(30.0, 35.0, 40.0),
            min_bits=1_000_000,
        ),
        Workload(
            name="edge_sweep",
            command="sweep-ber",
            data_file="sweep.csv",
            default_seed=7,
            digest="e433c0b559e439eb358349db1da1440f9c1eaf8230e19ed05a198dbd99d0bbde",
            snr_grid=(-5.0, 0.0, 5.0),
            min_bits=100_000,
        ),
        Workload(
            name="k_fit",
            command="estimate-k",
            data_file="k_estimate.json",
            default_seed=17,
            digest="f749e17ad9878b2ccb6b67d39cdb2fa67742e4e316ab78d73e302f8c03c85dd9",
            gate="criterion_4",
        ),
        Workload(
            name="replay_short",
            command="run-scenario",
            data_file="timeseries.csv",
            default_seed=10,
            digest="cd31009d293eb6911c2e74cb118237320063df214d8f9eb53fc1c93c9b020d05",
            config=SHORT_REPLAY_CONFIG,
        ),
        Workload(
            name="edge_short",
            command="sweep-ber",
            data_file="sweep.csv",
            default_seed=7,
            digest="4b4ce055ac265413301de911e837668ea08f9913544460c134ded1aa6619ec70",
            snr_grid=(0.0, 5.0),
            min_bits=100_000,
        ),
        # Not in BENCHMARK.json: criterion 9's 0.11 s replay for the smoke test.
        Workload(
            name="smoke",
            command="run-scenario",
            data_file="timeseries.csv",
            default_seed=10,
            digest="e9f92990d55a29fb7697edcd5486f7110541370afeb912907a9ca9baba5e7a62",
            config=SMOKE_CONFIG,
        ),
    )
}

# The workloads of BENCHMARK.json. Their reps are short, about 1 to 2 s on
# a shared 2-vCPU host, so the reference kernel timed at the edges of each
# rep measures the host speed the rep ran at (see run.py). The full-size
# workloads' reps take 3 to 22 s, too long for that, and their raw times
# spread by 0.20 to 0.26 (quartile distance over median) over ten runs,
# against a largest allowed bound of 0.25. They run by name and in
# `--workload all`.
BENCHMARK_WORKLOADS = ("replay_short", "edge_short")
ALL_WORKLOADS = (*BENCHMARK_WORKLOADS, "replay", "floor_sweep", "edge_sweep", "k_fit")
