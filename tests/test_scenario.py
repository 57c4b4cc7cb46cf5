"""Experiment replay, metric computation, and Monte Carlo sweep checks."""

import numpy as np
import pytest
from dataclasses import replace

from nomalink.channel import ChannelParams
from nomalink.scenario import (
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
        with pytest.raises(ValueError, match="^distances"):
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
