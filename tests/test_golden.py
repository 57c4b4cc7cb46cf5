"""Golden digests of the data files for acceptance criterion 9's config.

Criterion 9 only compares two reruns in one process, so a change that
alters every output byte consistently still passes it. These digests pin
the bytes themselves. Floating-point results depend on the interpreter
and library builds, so the test runs only on the versions the digests
were taken with.
"""

import hashlib
import platform

import numpy as np
import pytest
import scipy

from nomalink.cli import execute, load_config

PINNED_VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}

GOLDEN = {
    "timeseries.csv": "e9f92990d55a29fb7697edcd5486f7110541370afeb912907a9ca9baba5e7a62",
    "sweep.csv": "0599e16b7d5e9a94c0c77061f3b867d2224e72b68c5bf373e4ca87865a5a7ce6",
}

_versions = {
    "python": platform.python_version(),
    "numpy": np.__version__,
    "scipy": scipy.__version__,
}


@pytest.mark.skipif(
    _versions != PINNED_VERSIONS,
    reason=f"digests pinned for {PINNED_VERSIONS}, running {_versions}",
)
def test_criterion_9_data_files_match_golden_digests(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(
        '{"timing": {"stationary_duration": 0.05, "travel_duration": 0.06,'
        ' "total_duration": 0.11}}'
    )
    cfg = load_config(cfg_file)
    execute("run-scenario", cfg, tmp_path)
    execute("sweep-ber", cfg, tmp_path, snr_grid=[20.0], min_bits=100_000)
    for name, digest in GOLDEN.items():
        actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert actual == digest, f"{name} bytes changed"
