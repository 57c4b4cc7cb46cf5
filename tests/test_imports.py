"""Start-up cost: only the K-factor fit loads scipy.

In-process tests cannot see this, because other test modules import
scipy at collection. Each test here runs a fresh interpreter on the
package sources.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nomalink.channel import ChannelParams, generate_fading

SRC = Path(__file__).resolve().parents[1] / "src"

# every command but estimate-k, run through cli.execute in one process
_SCIPY_FREE_RUN = """
import json, sys
import nomalink
from nomalink import cli

out, config = sys.argv[1], sys.argv[2]
cfg = cli.load_config(config)
cli.execute("run-scenario", cfg, out + "/replay")
cli.execute("sweep-ber", cfg, out + "/sweep", snr_grid=[20.0])
cli.execute("selftest", cfg, out + "/selftest")
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _fresh_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def test_commands_other_than_estimate_k_never_load_scipy(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        '{"timing": {"stationary_duration": 0.05, "travel_duration": 0.06,'
        ' "total_duration": 0.11}}'
    )
    done = _fresh_python(["-c", _SCIPY_FREE_RUN, str(tmp_path), str(config)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_estimate_k_loads_scipy_on_demand(tmp_path):
    envelopes = np.abs(generate_fading(ChannelParams(doppler_hz=0.4), 2_000, 1.0, seed=17))
    source = tmp_path / "envelopes.npy"
    np.save(source, envelopes)
    done = _fresh_python(
        ["-m", "nomalink", "estimate-k", "--input", str(source), "--out", str(tmp_path / "fit")],
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "fit" / "k_estimate.json").read_text())
    assert np.isfinite(result["k_factor"])
    assert result["samples"] == 2_000


# criterion 9's replay and the 0/5 dB sweep, with the send half forked and
# then inline
_MA_FREE_RUN = """
import sys
from dataclasses import replace
from nomalink import scenario

short = dict(stationary_duration=0.05, travel_duration=0.06, total_duration=0.11)
for forked in (True, False):
    scenario._can_fork = lambda: forked
    scenario.run_v2x_scenario(scenario.ScenarioConfig(**short))
    scenario.sweep_ber_vs_snr(replace(scenario.ScenarioConfig(), seed=7), [0.0, 5.0])
print("numpy.ma" in sys.modules)
"""


def test_runs_never_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call, 12-14 ms that a forked
    # send half would pay again in each fresh child. A child's modules are
    # out of sight here; the inline run calls the child's code in this process
    done = _fresh_python(["-c", _MA_FREE_RUN], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
