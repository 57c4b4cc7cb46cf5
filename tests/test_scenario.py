"""Experiment replay, metric computation, and Monte Carlo sweep checks."""

import re
from dataclasses import replace
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest

from nomalink.channel import ChannelParams, MobilityState
from nomalink.cli import config_digest
from nomalink.frame_codec import _OPS, INF, FrameConfig, _field_hints, _field_value
from nomalink.noma import PowerAllocation
from nomalink.scenario import (
    _CONFIG_PATHS,
    ScenarioConfig,
    UserPath,
    calibrate_noise_floor,
    compute_ber,
    resolve_allocation,
    run_v2x_scenario,
    snr_histogram,
    sweep_ber_vs_snr,
)


class TestComputeBer:
    def test_identical_blocks(self):
        bits = np.random.default_rng(0).integers(0, 2, 1000)
        assert compute_ber(bits, bits, True) == 0.0

    def test_undetected_frame_is_one(self):
        assert compute_ber([], [], False) == 1.0

    def test_single_flip_in_1250(self):
        tx = np.zeros(1250, dtype=int)
        rx = tx.copy()
        rx[17] = 1
        assert compute_ber(tx, rx, True) == pytest.approx(8.0e-4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_ber([0, 1], [0, 1, 1], True)


class TestSnrHistogram:
    def test_constant_series_single_bin(self):
        times = np.linspace(0.0, 1.9, 50)
        stationary, mobile = snr_histogram(
            times, np.full(50, 23.0), 1.0, stage_split_s=2.0, total_duration_s=2.0
        )
        assert mobile.counts.size == 0
        assert stationary.counts.sum() == 50
        assert (stationary.counts > 0).sum() == 1
        assert stationary.bin_centers[stationary.counts.argmax()] == 23.0

    def test_named_bin_rate(self):
        times = np.linspace(0.0, 0.99, 100)
        values = np.concatenate([np.full(40, 23.2), np.full(60, 27.0)])
        stationary, _ = snr_histogram(times, values, 1.0, 1.0, total_duration_s=1.0)
        assert stationary.rate_at(23.0) == pytest.approx(40.0)
        assert stationary.rate_at(27.0) == pytest.approx(60.0)
        assert stationary.rate_at(50.0) == 0.0

    def test_single_bin_rate_uses_the_bin_width(self):
        times = np.array([0.0, 0.3, 0.6])
        stationary, _ = snr_histogram(
            times, [20.0, 20.1, 20.2], 0.5, 1.0, total_duration_s=1.0
        )
        assert stationary.counts.tolist() == [3]
        assert stationary.rate_at(20.2) == pytest.approx(3.0)
        assert stationary.rate_at(20.5) == 0.0

    def test_a_value_half_a_bin_above_a_centre_falls_in_the_bin_above(self):
        # the 23 dB bin covers [22.5, 23.5), in the counts and in rate_at
        times = np.array([0.0, 0.3, 0.6])
        stationary, _ = snr_histogram(
            times, [21.5, 22.5, 23.5], 1.0, 1.0, total_duration_s=1.0
        )
        assert stationary.bin_centers.tolist() == [22.0, 23.0, 24.0]
        assert stationary.counts.tolist() == [1, 1, 1]
        assert stationary.rate_at(22.5) == stationary.rate_at(23.0) == pytest.approx(1.0)
        assert stationary.rate_at(24.49) == pytest.approx(1.0)
        assert stationary.rate_at(24.5) == 0.0

    def test_rate_at_a_counted_value_finds_its_count(self):
        # 0.55 is counted in bin 6, centred on 0.6000000000000001: measured
        # from that centre, 0.55 would fall just below the bin
        stationary, _ = snr_histogram([0.0], [0.55], 0.1, 1.0, total_duration_s=2.0)
        assert stationary.counts.tolist() == [1]
        assert stationary.rate_at(0.55) == pytest.approx(1.0)

    @pytest.mark.parametrize("value_db", [np.nan, np.inf, -np.inf])
    def test_rate_at_a_non_finite_value_is_zero(self, value_db):
        # the histograms drop non-finite values, so no bin holds one
        stationary, _ = snr_histogram(
            [0.0, 0.3], [23.0, np.nan], 1.0, 1.0, total_duration_s=1.0
        )
        assert stationary.counts.tolist() == [1]
        assert stationary.rate_at(value_db) == 0.0

    def test_stage_split(self):
        times = np.array([0.0, 1.0, 3.0, 4.0])
        values = np.array([20.0, 20.0, 30.0, 30.0])
        stationary, mobile = snr_histogram(times, values, 1.0, 2.0, total_duration_s=5.0)
        assert stationary.counts.sum() == 2 and mobile.counts.sum() == 2
        assert stationary.duration_s == 2.0 and mobile.duration_s == 3.0

    def test_rejects_bad_bin_width(self):
        with pytest.raises(ValueError):
            snr_histogram([0.0], [1.0], 0.0, 1.0, total_duration_s=2.0)

    @pytest.mark.parametrize(
        "bin_width_db, stage_split_s, name",
        [
            (np.nan, 1.0, "bin_width_db"),
            (np.inf, 1.0, "bin_width_db"),
            (1.0, np.nan, "stage_split_s"),
            (1.0, np.inf, "stage_split_s"),
        ],
    )
    def test_rejects_a_non_finite_argument(self, bin_width_db, stage_split_s, name):
        with pytest.raises(ValueError, match=f"^{name}"):
            snr_histogram([0.0], [1.0], bin_width_db, stage_split_s, total_duration_s=2.0)

    @pytest.mark.parametrize("total_duration_s", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_total_duration(self, total_duration_s):
        with pytest.raises(ValueError, match="^total_duration_s"):
            snr_histogram([0.0, 2.0], [1.0, 2.0], 1.0, 1.0, total_duration_s)


class TestScenarioConfig:
    def test_default_is_three_user_testbed(self):
        cfg = ScenarioConfig()
        assert cfg.n_users == 3
        assert cfg.users[0].start_distance == 4.27
        assert cfg.users[2].end_distance == 0.57
        assert cfg.total_duration == 5.74
        assert resolve_allocation(cfg).coefficients == (0.761, 0.191, 0.048)

    def test_distance_squared_policy(self):
        cfg = ScenarioConfig(power_policy="distance-squared")
        assert resolve_allocation(cfg).coefficients == pytest.approx(
            (0.368, 0.326, 0.307), abs=1e-3
        )

    def test_rejects_unordered_users(self):
        with pytest.raises(ValueError):
            ScenarioConfig(users=(UserPath(3.9, 0.57), UserPath(4.02, 1.12)))

    def test_rejects_receding_vehicle(self):
        with pytest.raises(ValueError):
            UserPath(1.0, 2.0)

    @pytest.mark.parametrize("start, end", [(np.nan, 1.0), (4.0, np.nan), (np.inf, 1.0)])
    def test_rejects_a_distance_that_is_not_finite(self, start, end):
        with pytest.raises(ValueError, match="^(start|end)_distance must be finite"):
            UserPath(start, end)

    def test_rejects_coefficient_count_mismatch(self):
        with pytest.raises(ValueError):
            ScenarioConfig(power_coefficients=(0.8, 0.2))

    def test_rejects_negative_seeds(self):
        for name in ("seed", "pilot_seed"):
            with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
                replace(ScenarioConfig(), **{name: -1})

    def test_rejects_cfo_beyond_half_the_subcarrier_spacing(self):
        # 976.6 Hz with the defaults; the Doppler shift at speed (6.8 Hz) counts
        # too. No carrier wander here: its share is checked below
        channel = replace(ScenarioConfig().channel, cfo_jitter_hz=0.0)
        ScenarioConfig(channel=replace(channel, cfo_hz=-965.0))
        with pytest.raises(ValueError, match="channel.cfo_hz"):
            ScenarioConfig(channel=replace(channel, cfo_hz=-972.0))
        ScenarioConfig(channel=replace(channel, cfo_hz=-972.0), speed=0.0)

    def test_rejects_carrier_wander_that_can_alias_while_moving(self):
        # 100 + 6.8 + 4 x 55 = 327 Hz with the defaults
        channel = ScenarioConfig().channel
        ScenarioConfig(channel=replace(channel, cfo_hz=-745.0))
        for cfo_hz, jitter in ((-752.0, 55.0), (0.0, 243.0), (900.0, 55.0)):
            with pytest.raises(ValueError, match=r"channel\.cfo_hz .*channel\.cfo_jitter_hz"):
                ScenarioConfig(channel=replace(channel, cfo_hz=cfo_hz, cfo_jitter_hz=jitter))
        # the wander is gated on motion; a still run checks the offset alone
        ScenarioConfig(channel=replace(channel, cfo_hz=900.0), speed=0.0)

    def test_noise_floor_tracks_anchor(self):
        quiet = calibrate_noise_floor(ScenarioConfig(anchor_snr_db=30.0))
        loud = calibrate_noise_floor(ScenarioConfig(anchor_snr_db=20.0))
        assert loud - quiet == pytest.approx(10.0)


def _short_cfg(**kwargs):
    base = dict(
        stationary_duration=0.06,
        travel_duration=0.10,
        total_duration=0.16,
        seed=5,
    )
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestRunScenario:
    def test_row_structure(self):
        cfg = _short_cfg()
        series = run_v2x_scenario(cfg)
        frames = int(0.16 / cfg.frame.frame_duration)
        assert series.time_s.size == frames * 5 * 3
        assert np.all(np.diff(series.time_s) >= 0)
        for k in (1, 2, 3):
            times = series.time_s[series.user_mask(k)]
            assert np.all(np.diff(times) > 0)
        assert np.all((series.ber >= 0) & (series.ber <= 1))

    def test_transparent_variant_is_error_free(self):
        cfg = _short_cfg(
            channel=ChannelParams(rician_k=np.inf, cfo_hz=0.0, cfo_jitter_hz=0.0),
            anchor_snr_db=np.inf,
        )
        series = run_v2x_scenario(cfg)
        assert np.all(series.detected)
        assert np.all(series.ber == 0.0)

    def test_bit_identical_reproducibility(self):
        a = run_v2x_scenario(_short_cfg())
        b = run_v2x_scenario(_short_cfg())
        assert np.array_equal(a.ber, b.ber)
        assert np.array_equal(a.est_snr_db, b.est_snr_db)
        assert np.array_equal(a.est_cfo_hz, b.est_cfo_hz)
        assert a.lost_frames == b.lost_frames

    def test_seed_changes_realization(self):
        a = run_v2x_scenario(_short_cfg(seed=5))
        b = run_v2x_scenario(_short_cfg(seed=6))
        assert not np.array_equal(a.est_snr_db, b.est_snr_db)


@pytest.fixture
def default_run(default_replay):
    return default_replay[0]


class TestDefaultScenarioProperties:
    def test_stationary_stage_bers(self, default_run):
        for k in (1, 2, 3):
            assert default_run.mean_ber(k, mobile=False) <= 1e-3

    def test_cfo_variance_rises_with_motion(self, default_run):
        s = default_run
        for k in (1, 2, 3):
            sel = s.user_mask(k) & s.detected
            stat = s.est_cfo_hz[sel & s.stage_mask(False)]
            mob = s.est_cfo_hz[sel & s.stage_mask(True)]
            assert np.var(mob) > np.var(stat)

    def test_snr_variance_rises_with_motion(self, default_run):
        s = default_run
        for k in (1, 2, 3):
            sel = s.user_mask(k) & s.detected
            stat = s.est_snr_db[sel & s.stage_mask(False)]
            mob = s.est_snr_db[sel & s.stage_mask(True)]
            assert np.var(mob) > np.var(stat)

    def test_mean_snr_rises_as_vehicles_approach(self, default_run):
        # fixed transmit power and shrinking distance: late-mobile mean
        # estimated SNR must exceed the stationary mean
        s = default_run
        late = s.time_s >= 4.5
        for k in (1, 2, 3):
            sel = s.user_mask(k) & s.detected
            assert np.nanmean(s.est_snr_db[sel & late]) > np.nanmean(
                s.est_snr_db[sel & s.stage_mask(False)]
            )

    def test_mobile_symbols_show_excursions(self, default_run):
        s = default_run
        fractions = []
        for k in (1, 2, 3):
            sel = s.user_mask(k) & s.detected & s.stage_mask(True)
            fractions.append(np.mean(s.ber[sel] >= 1e-2))
        assert max(fractions) >= 0.01

    def test_outage_flags_match_threshold(self, default_run):
        s = default_run
        sel = s.detected
        assert np.array_equal(s.outage[sel], s.est_snr_db[sel] < 10.0)


class TestSweep:
    def test_rejects_small_bit_budget(self):
        with pytest.raises(ValueError):
            sweep_ber_vs_snr(ScenarioConfig(), [10.0], min_bits_per_point=1000)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError, match="empty SNR grid"):
            sweep_ber_vs_snr(ScenarioConfig(), [])

    @pytest.mark.parametrize("grid", [[float("nan")], [20.0, float("-inf")]])
    def test_rejects_grid_point_without_noise_level(self, grid):
        with pytest.raises(ValueError, match="snr_grid"):
            sweep_ber_vs_snr(ScenarioConfig(), grid)

    def test_infinite_snr_is_a_noiseless_point(self):
        curve = sweep_ber_vs_snr(ScenarioConfig(seed=2), [np.inf])
        assert np.all(curve.bits >= 100_000)
        assert np.all(curve.lost_frames == 0)

    def test_monotone_waterfall_and_grid_order(self):
        cfg = ScenarioConfig(seed=2)
        curve = sweep_ber_vs_snr(cfg, [18.0, 6.0], min_bits_per_point=100_000)
        assert np.array_equal(curve.snr_db, [6.0, 18.0])
        assert curve.ber.shape == (2, 3)
        assert np.all(curve.bits >= 100_000)
        # BER falls from 6 dB to 18 dB for every user
        assert np.all(curve.ber[1] < curve.ber[0])
        assert np.all(curve.ci_low <= curve.ber) and np.all(curve.ber <= curve.ci_high)

    def test_noise_only_is_coin_flipping(self):
        # with detection disabled, decoding pure noise gives BER ~ 0.5
        cfg = replace(ScenarioConfig(), sync_threshold=0.0, seed=3)
        curve = sweep_ber_vs_snr(cfg, [-40.0], min_bits_per_point=100_000)
        assert np.all(np.abs(curve.ber[0] - 0.5) < 0.02)

    def test_lost_frames_counted_not_averaged(self):
        # default detection threshold at very low SNR: frames are lost and
        # reported, while the averaged BER only covers detected frames
        curve = sweep_ber_vs_snr(ScenarioConfig(seed=4), [-10.0], min_bits_per_point=100_000)
        assert np.all(curve.lost_frames[0] > 0)


_CHANNEL = ScenarioConfig().channel


@pytest.mark.parametrize(
    "build, field",
    [
        pytest.param(lambda: ScenarioConfig(seed=1.5), "seed", id="float-seed"),
        pytest.param(lambda: ScenarioConfig(pilot_seed=True), "pilot_seed", id="bool-pilot-seed"),
        pytest.param(lambda: FrameConfig(fft_size=256.0), "fft_size", id="float-fft-size"),
        pytest.param(lambda: FrameConfig(cp_length=64.5), "cp_length", id="float-cp-length"),
        pytest.param(lambda: ChannelParams(delay_samples=2.5), "delay_samples", id="float-delay"),
        pytest.param(
            lambda: ChannelParams(n_sinusoids=8.5), "n_sinusoids", id="float-sinusoids"
        ),
        pytest.param(lambda: UserPath("4", 1.0), "start_distance", id="string-distance"),
        pytest.param(
            lambda: ScenarioConfig(users=[(4.0, 1.0, 2.0)], power_coefficients=(1.0,)),
            r"users\[0\]",
            id="three-value-row",
        ),
        pytest.param(lambda: ScenarioConfig(users=5), "users", id="users-not-a-list"),
        pytest.param(
            lambda: ScenarioConfig(channel=replace(_CHANNEL, doppler_hz=50.0)),
            r"channel\.doppler_hz",
            id="run-set-doppler",
        ),
        pytest.param(
            lambda: ScenarioConfig(channel=replace(_CHANNEL, target_snr_db=-30.0)),
            r"channel\.target_snr_db",
            id="run-set-snr",
        ),
        pytest.param(
            lambda: ScenarioConfig(channel=replace(_CHANNEL, noise_power_dbm=100.0)),
            r"channel\.noise_power_dbm",
            id="run-set-noise",
        ),
        pytest.param(
            lambda: FrameConfig(fft_size=2**1100),
            "fft_size must be <= 65536, got an integer of 1101 bits",
            id="fft-size-2**1100",
        ),
        # an integer past the 4300 digits that str() prints is named by its size
        pytest.param(
            lambda: FrameConfig(cp_length=10**5000),
            "cp_length must be <= fft_size, got an integer of 16610 bits",
            id="cp-length-10**5000",
        ),
        pytest.param(
            lambda: ChannelParams(n_sinusoids=-(10**5000)),
            "n_sinusoids must be >= 1, got a negative integer of 16610 bits",
            id="sos-minus-10**5000",
        ),
        pytest.param(
            lambda: FrameConfig(data_subcarriers=10**5000),
            "fft_size 256 too small",
            id="wide-10**5000",
        ),
        pytest.param(lambda: ScenarioConfig(users=10**5000), "users must be", id="users-10**5000"),
        pytest.param(
            lambda: ScenarioConfig(channel=replace(_CHANNEL, delay_samples=10**5000)),
            r"channel\.delay_samples \(an integer of 16610 bits\)",
            id="delay-10**5000",
        ),
        pytest.param(
            lambda: FrameConfig(modulation_order=4**31), "modulation_order", id="order-4**31"
        ),
        pytest.param(
            lambda: FrameConfig(modulation_order=4**32), "modulation_order", id="order-4**32"
        ),
        pytest.param(
            lambda: FrameConfig(modulation_order=2**1100), "modulation_order", id="order-2**1100"
        ),
        # 4**0: one point, no bits
        pytest.param(
            lambda: FrameConfig(modulation_order=1),
            "modulation_order must be a power of 4 from 4 to 4\\*\\*16, got 1",
            id="order-1",
        ),
        pytest.param(
            lambda: FrameConfig(symbols_per_frame=2**1100),
            "symbols_per_frame must be <= 1024, got an integer of 1101 bits",
            id="symbols-2**1100",
        ),
        pytest.param(
            lambda: ChannelParams(n_sinusoids=2**40), "n_sinusoids must be <= 65536", id="sos-2**40"
        ),
        pytest.param(
            lambda: ChannelParams(n_sinusoids=2**64), "n_sinusoids must be <= 65536", id="sos-2**64"
        ),
        pytest.param(
            lambda: ScenarioConfig(power_policy="equal"),
            "power.policy must be one of 'fixed', 'distance-squared', got 'equal'",
            id="unknown-policy",
        ),
    ],
)
def test_a_config_built_in_python_is_rejected_by_field(build, field):
    # a TypeError, or a config that replays as another one, fails here
    with pytest.raises(ValueError, match=f"^{field}"):
        build()


def test_numpy_scalars_and_lists_load_as_the_python_config():
    cfg = ScenarioConfig(
        seed=np.int64(3),
        speed=np.float64(0.5),
        users=[[4.27, 1.25], [4.02, 1.12], [3.90, 0.57]],
        power_coefficients=[0.761, 0.191, 0.048],
    )
    expected = replace(ScenarioConfig(), seed=3, speed=0.5)
    assert cfg == expected and hash(cfg) == hash(expected)
    assert type(cfg.seed) is int and type(cfg.speed) is float
    assert config_digest(cfg) == config_digest(expected)


@pytest.mark.parametrize(
    "changes",
    [
        # no carrier offset and no motion: a 2**16-bin FFT spaces subcarriers 7.6 Hz apart
        pytest.param(
            {"frame": FrameConfig(fft_size=2**16), "channel": ChannelParams(), "speed": 0.0},
            id="fft_size",
        ),
        pytest.param({"frame": FrameConfig(modulation_order=4**16)}, id="modulation_order"),
        pytest.param({"channel": replace(_CHANNEL, n_sinusoids=2**16)}, id="n_sinusoids"),
        pytest.param({"frame": FrameConfig(symbols_per_frame=2**10)}, id="symbols_per_frame"),
    ],
)
def test_each_size_limit_replays_one_frame(changes):
    cfg = replace(ScenarioConfig(), stationary_duration=0.0, **changes)
    series = run_v2x_scenario(replace(cfg, total_duration=cfg.frame.frame_duration))
    assert len(series.ber) == cfg.frame.symbols_per_frame * cfg.n_users
    assert np.all(np.isfinite(series.est_snr_db[series.detected]))


def test_a_timeline_loads_up_to_the_frame_count_limit():
    frame_duration = FrameConfig().frame_duration
    ScenarioConfig(total_duration=2**18 * frame_duration)
    with pytest.raises(ValueError, match=r"^timing\.total_duration .* 1 to 262144 frames"):
        ScenarioConfig(total_duration=(2**18 + 1.5) * frame_duration)


_CONFIG_CLASSES = [
    FrameConfig(),
    ChannelParams(),
    UserPath(4.27, 1.25),
    ScenarioConfig(),
    MobilityState(4.02, 1.12, stationary_end=2.165, mobile_end=5.74, speed=0.876),
    PowerAllocation.testbed_default(),
]


@pytest.mark.parametrize("default", _CONFIG_CLASSES, ids=lambda c: type(c).__name__)
def test_the_field_rule_covers_every_config_field(default):
    # a field whose annotation the rule does not know raises TypeError here
    for name, hint in _field_hints(type(default)):
        value = getattr(default, name)
        assert _field_value(name, hint, value) == value, name
        for wrong in (True, object()):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                _field_value(name, hint, wrong)


def test_an_annotation_outside_the_rule_is_a_type_error():
    with pytest.raises(TypeError, match="no field rule"):
        _field_value("table", dict, {})


def _bounds(default):
    """(label, field, type, op, limit, on items) of each bound that the
    annotations of ``default``'s class declare; label is the message's."""
    for name, hint in _field_hints(type(default)):
        label = _CONFIG_PATHS.get(name, name) if isinstance(default, ScenarioConfig) else name
        items = get_origin(hint) is tuple
        if items:
            hint, label = get_args(hint)[0], f"{label}[0]"
        if get_origin(hint) is Annotated:
            kind, *marks = get_args(hint)
            yield from ((label, name, kind, *mark, items) for mark in marks if mark != INF)


@pytest.mark.parametrize("default", _CONFIG_CLASSES, ids=lambda c: type(c).__name__)
def test_each_bound_on_an_annotation_holds_at_its_limit(default):
    bounds = list(_bounds(default))
    assert bounds
    for label, name, kind, op, limit, items in bounds:

        def field(value):
            return {name: (value,) if items else value}

        if op in (">=", "<="):  # a closed limit is a value the field takes
            assert getattr(replace(default, **field(limit)), name) == field(limit)[name]
        if op in (">", "<"):
            past = limit
        elif kind is int:
            past = limit - 1 if op == ">=" else limit + 1
        else:
            past = np.nextafter(limit, -np.inf if op == ">=" else np.inf)
        with pytest.raises(ValueError, match=f"^{re.escape(label)} must be {op} "):
            replace(default, **field(past))


@pytest.mark.parametrize("default", _CONFIG_CLASSES, ids=lambda c: type(c).__name__)
def test_infinity_is_taken_only_where_marked(default):
    for name, hint in _field_hints(type(default)):
        marks = get_args(hint)[1:] if get_origin(hint) is Annotated else ()
        bounds = [mark for mark in marks if mark != INF]
        for inf in (np.inf, -np.inf):
            if INF in marks and all(_OPS[op](inf, limit) for op, limit in bounds):
                assert _field_value(name, hint, inf) == inf, name
            else:
                with pytest.raises(ValueError, match=f"^{name} must be"):
                    _field_value(name, hint, inf)
