"""Config ingestion, command execution, and output-file contracts."""

import json
import re
import warnings
from dataclasses import replace
from functools import lru_cache
from math import inf, nan, nextafter
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from nomalink.channel import ChannelParams, MobilityState, apply_channel, generate_fading
from nomalink.cli import (
    SWEEP_COLUMNS,
    TIMESERIES_COLUMNS,
    config_to_dict,
    execute,
    load_config,
    main,
)
from nomalink.frame_codec import INF, FrameConfig, _field_hints
from nomalink.noma import build_downlink_frame
from nomalink.receiver import cp_ml_sync
from nomalink.scenario import (
    _CONFIG_PATHS,
    _RUN_SET,
    ScenarioConfig,
    resolve_allocation,
    run_v2x_scenario,
)
from rejected_inputs import FAR_USERS, HUGE, REJECTED, config_text


SHORT = {
    "timing": {
        "stationary_duration": 0.05,
        "travel_duration": 0.06,
        "total_duration": 0.11,
    }
}

class TestLoadConfig:
    def test_empty_file_gives_testbed_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = load_config(path)
        assert cfg.power_coefficients == (0.761, 0.191, 0.048)
        assert cfg.frame.carrier_frequency == 2.34e9
        assert cfg.frame.sample_rate == 5.0e5
        assert cfg.speed == 0.876
        assert cfg.stationary_duration == 2.165
        assert cfg.total_duration == 5.74
        assert cfg.channel.rician_k == 10.92
        assert [u.start_distance for u in cfg.users] == [4.27, 4.02, 3.90]
        assert [u.end_distance for u in cfg.users] == [1.25, 1.12, 0.57]

    def test_roundtrip_of_defaults(self, tmp_path):
        defaults = ScenarioConfig()
        for cfg in (
            defaults,
            replace(defaults, channel=replace(defaults.channel, cfo_hz=250.0, delay_samples=3)),
            replace(defaults, power_policy="distance-squared"),
            replace(defaults, users=((4.0, 1.0), (2.0, 0.5)), power_coefficients=(0.8, 0.2)),
            replace(defaults, frame=FrameConfig(modulation_order=16), speed=1),
        ):
            path = tmp_path / "resolved_config.json"
            path.write_text(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
            assert load_config(path) == cfg

    def test_integer_in_float_field_is_written_back_unchanged(self, tmp_path):
        path = tmp_path / "int.json"
        path.write_text(json.dumps({"speed": 1, "users": [[4, 1], [2, 0.5], [1.5, 0.25]]}))
        written = json.dumps(config_to_dict(load_config(path)), sort_keys=True)
        assert '"speed": 1,' in written
        assert '"users": [[4, 1], [2, 0.5], [1.5, 0.25]]' in written
        assert "doppler_hz" not in written

    def test_bad_coefficient_sum_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"power": {"coefficients": [0.7, 0.15, 0.05]}}))
        with pytest.raises(ValueError, match="sum to 1"):
            load_config(path)

    def test_negative_distance_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"users": [[4.0, 1.0], [-3.0, 0.5], [2.0, 0.4]]}))
        with pytest.raises(ValueError, match=r"users\[1\]: start_distance must be > 0"):
            load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bandwith": 1e6}))
        with pytest.raises(ValueError, match="bandwith"):
            load_config(path)

    # every row of the rejection table, which CI runs through the installed command
    @pytest.mark.parametrize("raw, field", [(row, row.pattern) for row in REJECTED])
    def test_config_that_cannot_run_is_rejected_by_field(self, tmp_path, capsys, raw, field):
        code = main(raw.write(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert re.search(field, err.removeprefix("error: ")), err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("exponent", [-300, -304])
    def test_large_path_gain_loads_and_replays_without_warning(self, tmp_path, exponent):
        path = tmp_path / "far.json"
        path.write_text(json.dumps(_run_config(
            **{"users": FAR_USERS, "channel.path_loss_exponent": exponent}
        )))
        cfg = load_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run_v2x_scenario(cfg)
        assert np.all(np.isfinite(series.est_snr_db[series.detected]))

    def test_low_anchor_snr_loads_and_replays_without_warning(self, tmp_path):
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(_run_config(anchor_snr_db=-3000.0)))
        cfg = load_config(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = run_v2x_scenario(cfg)
        assert np.all(np.isfinite(series.est_snr_db[series.detected]))

    def test_delay_up_to_fft_size_loads(self, tmp_path):
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"channel": {"delay_samples": 256}}))
        assert load_config(path).channel.delay_samples == 256

    def test_infinite_anchor_snr_loads_as_noiseless(self, tmp_path):
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps({"anchor_snr_db": float("inf")}))
        assert load_config(path).anchor_snr_db == float("inf")

    def test_partial_override(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"seed": 77, "channel": {"cfo_hz": 250.0}}))
        cfg = load_config(path)
        assert cfg.seed == 77
        assert cfg.channel.cfo_hz == 250.0
        assert cfg.channel.rician_k == 10.92


# Every key a config may set, with its default, and keys that load must
# reject: the channel keys each run sets itself and unknown ones.
_DEFAULTS = config_to_dict(ScenarioConfig())
_KEYS = list(_DEFAULTS.items()) + [
    (f"{block}.{key}", value)
    for block, entries in _DEFAULTS.items()
    if isinstance(entries, dict)
    for key, value in entries.items()
]
_KEYS += [
    (key, None)
    for key in ("channel.doppler_hz", "channel.target_snr_db", "channel.noise_power_dbm",
                "frame.bogus", "power.bogus", "bogus", "power_policy")
]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([2.0, 0.0, -1, 1, 10**400])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _raw_configs(draw):
    raw = {}
    keys = draw(st.lists(st.sampled_from(_KEYS), max_size=6, unique_by=lambda kv: kv[0]))
    for path, default in keys:
        value = draw(st.just(default) | _JSON)
        block, _, key = path.partition(".")
        if not key:
            raw[block] = value
        elif isinstance(raw.setdefault(block, {}), dict):
            raw[block][key] = value
    return raw


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=_raw_configs())
def test_load_returns_a_config_or_raises_value_error(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = load_config(path)
    except ValueError:
        return
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def _number_draws(hint) -> list:
    """A number field's draws: each marked limit and its nearest neighbours on
    both sides, then the extremes; none for a field that holds no number."""
    base, *marks = get_args(hint) if get_origin(hint) is Annotated else (hint,)
    if base not in (int, float):
        return []
    limits = [mark[1] for mark in marks if mark != INF]
    if base is int:
        near = [(x - 1, x, x + 1) for x in limits]
    else:
        near = [(nextafter(x, -inf), x, nextafter(x, inf)) for x in limits]
    draws = [value for values in near for value in values] + [
        0, 1, -1, 1e308, -1e308, 5e-324, 2**1100, HUGE, inf, -inf, nan
    ]
    # each once: 0 and 0.0 are different JSON numbers
    return list({(type(value), value): value for value in draws}.values())


# Every number field a config sets, by its path in the file, with its draws
_FIELD_DRAWS = {
    f"{block}.{name}" if block else _CONFIG_PATHS.get(name, name): draws
    for cls, block in ((FrameConfig, "frame"), (ChannelParams, "channel"), (ScenarioConfig, ""))
    for name, hint in _field_hints(cls)
    if name not in _RUN_SET.get(cls, ()) and (draws := _number_draws(hint))
}
# and the draws no annotation implies: six distinct distances, far to near,
# for three vehicles that keep their order, or any three rows
_RUN_FIELDS = {name: st.sampled_from(draws) for name, draws in _FIELD_DRAWS.items()}
_RUN_FIELDS["users"] = (
    st.lists(st.floats(0.05, 10.0), min_size=6, max_size=6, unique=True)
    .map(lambda d: sorted(d, reverse=True))
    .map(lambda d: [[d[0], d[3]], [d[1], d[4]], [d[2], d[5]]])
    | st.lists(st.lists(st.floats(0.05, 10.0), min_size=2, max_size=2), min_size=3, max_size=3)
)
# timelines of 0.01-0.02 s (3-6 frames) or 0.5-4 ms, around one 3.2 ms frame
_TIMELINES = st.floats(0.01, 0.02) | st.floats(0.0005, 0.004)


def _run_config(total=0.015, **fields):
    """A config file's mapping: a timeline of ``total`` seconds whose stages
    each take half of it, then the given fields, keyed by their dotted names."""
    raw = {"timing": {"stationary_duration": total / 2, "travel_duration": total / 2,
                      "total_duration": total}}
    for name, value in fields.items():
        block, _, key = name.rpartition(".")
        (raw.setdefault(block, {}) if block else raw)[key] = value
    return raw


@st.composite
def _run_configs(draw):
    names = draw(st.lists(st.sampled_from(sorted(_RUN_FIELDS)), max_size=4, unique=True))
    return _run_config(draw(_TIMELINES), **{name: draw(_RUN_FIELDS[name]) for name in names})


def _each_field_draw(test):
    """``test`` with one example per field draw, each on its own on a
    one-frame timeline."""
    for name, draws in _FIELD_DRAWS.items():
        for value in draws:
            test = example(raw=_run_config(0.0035, **{name: value}))(test)
    return test


def _field_names(raw):
    """What an error message may call a field set in ``raw``: its name, or
    the block that holds it."""
    names = set()
    for name, value in raw.items():
        names |= {f"config field '{name}'", *value} if isinstance(value, dict) else {name}
    return names


@lru_cache(maxsize=None)
def _sync_offsets(frame, delay, alloc, pilot_seed, frames=8):
    """CP sync's timing estimates on noiseless line-of-sight frames of a
    config's frame, allocation and pilots, delayed by ``delay`` samples."""
    los = ChannelParams(rician_k=np.inf, delay_samples=delay)
    offsets = set()
    for seed in range(frames):
        payloads = np.random.default_rng(seed).integers(0, 2, (alloc.n_users, frame.payload_bits))
        tx = build_downlink_frame(list(payloads), frame, alloc, pilot_seed)
        rx, _ = apply_channel(tx, frame.sample_rate, los, MobilityState.static(1.0), seed=seed)
        offsets.add(cp_ml_sync(rx, frame).timing_offset)
    return offsets


@settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=_run_configs())
@example(raw=_run_config(**{"frame.pilot_subcarriers": 1}))
@example(raw=_run_config(**{"frame.carrier_frequency": -2.34e9}))
@example(raw=_run_config(0.02, **{"channel.path_loss_exponent": 1e6}))
@example(raw=_run_config(**{"channel.path_loss_exponent": -1e6}))
@example(raw=_run_config(**{"channel.delay_samples": 320}))
@example(raw=_run_config(**{"channel.delay_samples": 319}))
@example(raw=_run_config(0.002))
@example(raw=_run_config(**{"users": FAR_USERS, "channel.path_loss_exponent": -304}))
@example(raw=_run_config(**{"users": FAR_USERS, "channel.path_loss_exponent": -307}))
@_each_field_draw
def test_config_is_rejected_at_load_or_runs_to_the_end(tmp_path, raw):
    path = tmp_path / "cfg.json"
    path.write_text(config_text(raw))
    try:
        cfg = load_config(path)
    except ValueError as exc:
        assert any(name in str(exc) for name in _field_names(raw)), str(exc)
        return
    # timing acquisition finds the frame start at every delay that loads
    delay = cfg.channel.delay_samples
    assert _sync_offsets(cfg.frame, delay, resolve_allocation(cfg), cfg.pilot_seed) == {delay}
    execute("run-scenario", cfg, tmp_path / "out")
    lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    frames = int(np.floor(cfg.total_duration / cfg.frame.frame_duration))
    assert len(lines) - 1 == frames * cfg.frame.symbols_per_frame * cfg.n_users > 0
    rows = dict(zip(lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2).T))
    for flag in ("detected", "outage"):
        assert set(np.unique(rows[flag])) <= {0.0, 1.0}
    detected = rows["detected"] == 1.0
    assert np.all(np.isfinite(rows["est_snr_db"][detected]))
    assert np.all(np.isfinite(rows["est_cfo_hz"][detected]))
    assert np.all((rows["ber"] >= 0.0) & (rows["ber"] <= 1.0))


class TestRunScenarioCommand:
    def test_writes_timeseries_with_expected_rows(self, tmp_path):
        cfg = load_config(self._cfg_file(tmp_path))
        manifest = execute("run-scenario", cfg, tmp_path / "out")
        data = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert data[0] == ",".join(TIMESERIES_COLUMNS)
        frames = int(0.11 / cfg.frame.frame_duration)
        assert len(data) - 1 == frames * 5 * 3
        assert manifest.outputs == (str(tmp_path / "out" / "timeseries.csv"),)
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = load_config(self._cfg_file(tmp_path))
        execute("run-scenario", cfg, tmp_path / "a")
        execute("run-scenario", cfg, tmp_path / "b")
        assert (tmp_path / "a" / "timeseries.csv").read_bytes() == (
            tmp_path / "b" / "timeseries.csv"
        ).read_bytes()
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["config_digest"] == mb["config_digest"]

    def test_records_format(self, tmp_path):
        cfg = load_config(self._cfg_file(tmp_path))
        execute("run-scenario", cfg, tmp_path / "out", fmt="records")
        lines = (tmp_path / "out" / "timeseries.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        assert set(record) == set(TIMESERIES_COLUMNS)
        assert isinstance(record["detected"], bool)

    def test_records_write_null_for_the_estimates_of_lost_frames(self, tmp_path):
        cfg = replace(load_config(self._cfg_file(tmp_path)), anchor_snr_db=-3.0)
        execute("run-scenario", cfg, tmp_path / "out", fmt="records")
        lines = (tmp_path / "out" / "timeseries.jsonl").read_text().splitlines()

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert not all(r["detected"] for r in records)
        for r in records:
            nulls = {key for key, value in r.items() if value is None}
            assert nulls == (set() if r["detected"] else {"est_snr_db", "est_cfo_hz"})

    @staticmethod
    def _cfg_file(tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(SHORT))
        return path


class TestSweepCommand:
    def test_sorted_output_and_schema(self, tmp_path):
        cfg = ScenarioConfig()
        execute(
            "sweep-ber",
            cfg,
            tmp_path / "out",
            snr_grid=[24.0, 12.0],
            min_bits=100_000,
        )
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        rows = [line.split(",") for line in lines[1:]]
        keys = [(float(r[0]), int(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert len(rows) == 2 * 3

    def test_flags_points_that_stop_under_budget(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["sweep-ber", "--snr-grid=-20,20", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["under_budget_snr_db"] == [-20.0]
        warnings = [line for line in capsys.readouterr().err.splitlines() if line]
        assert len(warnings) == 1 and warnings[0].startswith("warning: sweep point -20.0 dB")
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        assert [int(r[5]) for r in rows if float(r[0]) == -20.0] == [0, 0, 0]

    def test_requires_grid(self, tmp_path):
        with pytest.raises(ValueError, match="snr-grid"):
            execute("sweep-ber", ScenarioConfig(), tmp_path / "out")


class TestEstimateKCommand:
    def test_recovers_k_from_npy(self, tmp_path):
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        env = np.abs(generate_fading(params, 300_000, 1.0, seed=17))
        source = tmp_path / "envelopes.npy"
        np.save(source, env)
        execute("estimate-k", ScenarioConfig(), tmp_path / "out", input_path=source)
        result = json.loads((tmp_path / "out" / "k_estimate.json").read_text())
        assert 10.4 <= result["k_factor"] <= 11.5
        assert result["samples"] == 300_000

    def test_full_scale_envelope_file(self, tmp_path):
        # 6.2 million envelopes, the measurement campaign's sample count;
        # drawn from an independent Rician generator
        k = 10.92
        nu = np.sqrt(k / (k + 1.0))
        sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
        env = stats.rice.rvs(
            nu / sigma,
            scale=sigma,
            size=6_200_000,
            random_state=np.random.default_rng(40),
        )
        source = tmp_path / "envelopes.npy"
        np.save(source, env)
        execute("estimate-k", ScenarioConfig(), tmp_path / "out", input_path=source)
        result = json.loads((tmp_path / "out" / "k_estimate.json").read_text())
        assert 10.4 <= result["k_factor"] <= 11.5
        assert result["samples"] == 6_200_000

    def test_reads_plain_text(self, tmp_path):
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        env = np.abs(generate_fading(params, 20_000, 1.0, seed=23))
        source = tmp_path / "envelopes.txt"
        np.savetxt(source, env)
        execute("estimate-k", ScenarioConfig(), tmp_path / "out", input_path=source)
        result = json.loads((tmp_path / "out" / "k_estimate.json").read_text())
        assert 9.0 < result["k_factor"] < 13.0

    def test_requires_input(self, tmp_path):
        with pytest.raises(ValueError, match="input"):
            execute("estimate-k", ScenarioConfig(), tmp_path / "out")


class TestMainEntry:
    def test_selftest_exits_zero(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_run_scenario_cli(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SHORT))
        code = main(
            [
                "run-scenario",
                "--config",
                str(cfg_path),
                "--seed",
                "3",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["command"] == "run-scenario"
        assert manifest["under_budget_snr_db"] == []

    def test_negative_seed_exits_nonzero_naming_the_field(self, tmp_path, capsys):
        code = main(["run-scenario", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_anchor_snr_whose_noise_overflows_exits_with_one_error_line(self, tmp_path, capsys):
        bad = tmp_path / "noisy.json"
        bad.write_text(json.dumps({"anchor_snr_db": -3083}))
        code = main(["run-scenario", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: anchor_snr_db")
        assert "Traceback" not in err

    def test_nan_snr_grid_exits_nonzero(self, tmp_path, capsys):
        code = main(["sweep-ber", "--snr-grid", "nan", "--out", str(tmp_path)])
        assert code == 1
        assert "snr_grid" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_a_grid_that_is_not_numbers_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["sweep-ber", "--snr-grid", "0,five", "--out", str(tmp_path / "out")])
        assert stop.value.code == 2
        assert "bad SNR grid '0,five'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_grid_with_a_leading_negative_value_is_read_as_the_grid(self, tmp_path, capsys):
        code = main(["sweep-ber", "--snr-grid", "-5,nan", "--out", str(tmp_path)])
        assert code == 1
        assert "snr_grid" in capsys.readouterr().err
