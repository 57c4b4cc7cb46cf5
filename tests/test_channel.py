"""Fading statistics, channel application, and K-factor estimation."""

import numpy as np
import pytest
from scipy import signal, stats

from nomalink.channel import (
    ChannelParams,
    MobilityState,
    apply_channel,
    doppler_shift,
    estimate_k_factor,
    generate_fading,
)


def rice_args(k):
    """scipy.stats.rice parameters of the unit-power Rician envelope."""
    nu = np.sqrt(k / (k + 1.0))
    sigma = np.sqrt(1.0 / (2.0 * (k + 1.0)))
    return nu / sigma, 0, sigma


class TestDopplerShift:
    def test_testbed_speed(self):
        # v f_c / c = 0.876 * 2.34e9 / 2.99792458e8 = 6.8375 Hz by hand
        # (reported elsewhere rounded down to ~6 Hz)
        assert doppler_shift(0.876, 2.34e9) == pytest.approx(6.84, abs=0.01)

    def test_zero_speed(self):
        assert doppler_shift(0.0, 2.34e9) == 0.0

    def test_linear_in_speed(self):
        assert doppler_shift(2.0, 1e9) == pytest.approx(2 * doppler_shift(1.0, 1e9))

    def test_rejects_negative_speed(self):
        with pytest.raises(ValueError):
            doppler_shift(-1.0, 1e9)


class TestGenerateFading:
    def test_pure_los_limit(self):
        params = ChannelParams(rician_k=1e9, doppler_hz=0.1)
        gain = generate_fading(params, 1000, 1.0, seed=1)
        assert np.allclose(np.abs(gain), 1.0, atol=1e-4)

    def test_rayleigh_mean_power(self):
        params = ChannelParams(rician_k=0.0, doppler_hz=0.2)
        gain = generate_fading(params, 1_000_000, 1.0, seed=42)
        assert np.mean(np.abs(gain) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_rician_envelope_distribution(self):
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        gain = generate_fading(params, 100_000, 1.0, seed=43)
        result = stats.kstest(np.abs(gain), "rice", args=rice_args(10.92))
        assert result.pvalue > 0.01

    def test_deterministic(self):
        params = ChannelParams(rician_k=5.0, doppler_hz=0.3)
        a = generate_fading(params, 5000, 1.0, seed=7)
        b = generate_fading(params, 5000, 1.0, seed=7)
        c = generate_fading(params, 5000, 1.0, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_normalization_for_any_k(self):
        for k in (0.0, 1.0, 10.92):
            params = ChannelParams(rician_k=k, doppler_hz=0.25)
            gain = generate_fading(params, 1_000_000, 1.0, seed=11)
            assert np.mean(np.abs(gain) ** 2) == pytest.approx(1.0, abs=0.02)

    def test_diffuse_spectrum_band_limited(self):
        # spectral lines of the scattered component stay inside +-doppler;
        # windowed periodogram keeps leakage below the 40 dB requirement
        fd, fs, n = 0.05, 1.0, 1 << 17
        params = ChannelParams(rician_k=0.0, doppler_hz=fd)
        gain = generate_fading(params, n, fs, seed=3)
        window = signal.windows.blackmanharris(n)
        spectrum = np.abs(np.fft.fftshift(np.fft.fft(gain * window))) ** 2
        freqs = np.fft.fftshift(np.fft.fftfreq(n, 1 / fs))
        in_band = spectrum[np.abs(freqs) <= 1.05 * fd]
        out_band = spectrum[np.abs(freqs) > 1.25 * fd]
        assert 10 * np.log10(out_band.max() / in_band.max()) < -40.0

    def test_rejects_bad_sizes(self):
        params = ChannelParams()
        with pytest.raises(ValueError):
            generate_fading(params, 0, 1.0, seed=1)
        with pytest.raises(ValueError):
            generate_fading(params, 10, 0.0, seed=1)

    @pytest.mark.parametrize("sample_rate", [np.nan, np.inf])
    def test_rejects_a_sample_rate_that_is_not_finite(self, sample_rate):
        with pytest.raises(ValueError, match="^sample_rate"):
            generate_fading(ChannelParams(), 10, sample_rate, seed=1)


class TestMobilityState:
    def test_two_stage_profile(self):
        m = MobilityState(4.02, 1.12, stationary_end=2.165, mobile_end=5.74, speed=0.876)
        assert m.distance(0.0) == 4.02
        assert m.distance(2.0) == 4.02
        assert m.distance(5.74) == pytest.approx(1.12)
        assert m.distance(10.0) == pytest.approx(1.12)
        mid = m.distance(0.5 * (2.165 + 5.74))
        assert mid == pytest.approx(0.5 * (4.02 + 1.12))
        assert not m.is_moving(1.0)
        assert m.is_moving(3.0)
        assert not m.is_moving(6.0)

    def test_static_factory(self):
        m = MobilityState.static(2.5)
        assert m.distance(100.0) == 2.5
        assert not m.is_moving(50.0)
        assert m.motion_time(50.0) == 0.0

    def test_always_moving_factory(self):
        m = MobilityState.always_moving(1.0)
        assert m.is_moving(0.0)
        assert m.motion_time(3.0) == pytest.approx(3.0)

    def test_rejects_bad_distances(self):
        with pytest.raises(ValueError):
            MobilityState(-1.0, stationary_end=2.165, mobile_end=5.745, speed=0.876)

    @pytest.mark.parametrize(
        "change, field",
        [
            ({"start_distance": np.nan}, "start_distance"),
            ({"end_distance": np.nan}, "start_distance and end_distance"),
            ({"start_distance": np.inf}, "start_distance"),
            ({"stationary_end": np.nan}, "mobile_end"),
            ({"mobile_end": np.nan}, "mobile_end"),
            ({"speed": np.nan}, "speed"),
            ({"speed": np.inf}, "speed"),
        ],
    )
    def test_rejects_nan_and_meaningless_infinity(self, change, field):
        profile = {"start_distance": 4.02, "end_distance": 1.12, "stationary_end": 2.165}
        with pytest.raises(ValueError, match=f"^{field}"):
            MobilityState(**{**profile, "mobile_end": 5.74, "speed": 0.876, **change})

    @pytest.mark.parametrize("speed", [np.nan, np.inf])
    def test_doppler_shift_rejects_a_non_finite_speed(self, speed):
        with pytest.raises(ValueError, match="^speed"):
            doppler_shift(speed, 2.34e9)


FS = 5e5


@pytest.fixture
def no_draw(monkeypatch):
    """Fails the test if the channel draws its fading."""

    def draw(*args):
        raise AssertionError("fading drawn before the arguments were checked")

    monkeypatch.setattr("nomalink.channel._sos_parameters", draw)


def _unit_frame(n=1600, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n) + 1j * rng.normal(size=n)) / np.sqrt(2)


class TestChannelParams:
    @pytest.mark.parametrize(
        "level",
        [
            {"target_snr_db": float("nan")},
            {"target_snr_db": float("-inf")},
            {"noise_power_dbm": float("nan")},
            {"noise_power_dbm": float("inf")},
        ],
    )
    def test_rejects_nan_or_infinite_noise_power(self, level):
        with pytest.raises(ValueError, match=next(iter(level))):
            ChannelParams(**level)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rician_k", np.nan),
            ("doppler_hz", np.nan),
            ("doppler_hz", np.inf),
            ("cfo_hz", np.nan),
            ("cfo_hz", np.inf),
            ("cfo_jitter_hz", np.nan),
            ("cfo_jitter_hz", np.inf),
            ("cfo_jitter_tau_s", np.nan),
            ("cfo_jitter_tau_s", np.inf),
            ("path_loss_exponent", np.nan),
            ("path_loss_exponent", -np.inf),
            ("reference_distance", np.nan),
            ("reference_distance", np.inf),
        ],
    )
    def test_rejects_nan_and_meaningless_infinity(self, field, value):
        # the message begins with the field, as the config loader expects
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ChannelParams(**{field: value})

    def test_infinite_snr_and_zero_noise_power_are_noiseless(self):
        tx = _unit_frame()
        for level in ({"target_snr_db": np.inf}, {"noise_power_dbm": -np.inf}):
            params = ChannelParams(rician_k=np.inf, **level)
            rx, truth = apply_channel(tx, FS, params, MobilityState.static(1.0), seed=5)
            assert truth.noise_power == 0.0
            assert np.array_equal(rx, tx)


class TestApplyChannel:
    def test_transparent_channel(self):
        tx = _unit_frame()
        params = ChannelParams(rician_k=np.inf)
        rx, truth = apply_channel(tx, FS, params, MobilityState.static(1.0), seed=5)
        assert np.array_equal(rx, tx)
        assert truth.applied_cfo_hz == 0.0
        assert truth.applied_delay == 0

    def test_delay_shifts_samples(self):
        tx = _unit_frame()
        params = ChannelParams(rician_k=np.inf, delay_samples=50)
        rx, truth = apply_channel(tx, FS, params, MobilityState.static(1.0), seed=5)
        assert truth.applied_delay == 50
        assert np.all(rx[:50] == 0)
        assert np.array_equal(rx[50:], tx)

    def test_inverse_square_path_loss(self):
        # doubling the distance drops received power by 6.02 dB
        tx = _unit_frame()
        params = ChannelParams(rician_k=np.inf)
        rx1, _ = apply_channel(tx, FS, params, MobilityState.static(2.0), seed=5)
        rx2, _ = apply_channel(tx, FS, params, MobilityState.static(4.0), seed=5)
        drop = 10 * np.log10(
            np.mean(np.abs(rx1) ** 2) / np.mean(np.abs(rx2) ** 2)
        )
        assert drop == pytest.approx(6.02, abs=0.1)

    def test_cfo_phase_ramp(self):
        # phase-unwrap oracle: the rx/tx phase advances 2 pi f / fs per sample
        tx = _unit_frame()
        params = ChannelParams(rician_k=np.inf, cfo_hz=100.0)
        rx, truth = apply_channel(tx, FS, params, MobilityState.static(1.0), seed=5)
        assert truth.applied_cfo_hz == pytest.approx(100.0)
        phase = np.unwrap(np.angle(rx / tx))
        slopes = np.diff(phase)
        assert np.allclose(slopes, 2 * np.pi * 100.0 / FS, atol=1e-9)

    def test_deterministic(self):
        tx = _unit_frame()
        params = ChannelParams(rician_k=10.92, doppler_hz=6.84, target_snr_db=20.0)
        mob = MobilityState.always_moving(2.0)
        rx1, _ = apply_channel(tx, FS, params, mob, seed=9, t0=1.25)
        rx2, _ = apply_channel(tx, FS, params, mob, seed=9, t0=1.25)
        assert np.array_equal(rx1, rx2)

    def test_noise_streams_differ_per_frame(self):
        tx = _unit_frame()
        params = ChannelParams(rician_k=10.92, target_snr_db=20.0)
        mob = MobilityState.static(1.0)
        rx1, _ = apply_channel(tx, FS, params, mob, seed=9, t0=0.0)
        rx2, _ = apply_channel(tx, FS, params, mob, seed=9, t0=1600 / FS)
        assert not np.array_equal(rx1, rx2)

    def test_target_snr_calibration(self):
        # empirical SNR of rx against the noiseless channel output matches
        # the requested target within 0.2 dB over one frame
        tx = _unit_frame(seed=2)
        mob = MobilityState.static(1.0)
        for target in (10.0, 20.0, 30.0):
            noisy, _ = apply_channel(
                tx, FS, ChannelParams(rician_k=10.92, target_snr_db=target), mob, seed=3
            )
            clean, _ = apply_channel(tx, FS, ChannelParams(rician_k=10.92), mob, seed=3)
            noise = noisy - clean
            snr = 10 * np.log10(
                np.mean(np.abs(clean) ** 2) / np.mean(np.abs(noise) ** 2)
            )
            assert snr == pytest.approx(target, abs=0.2)

    def test_fading_continues_across_calls(self):
        # same seed, consecutive t0: the mobile fading is one process
        fs = 1e3
        params = ChannelParams(rician_k=0.0, doppler_hz=40.0)
        mob = MobilityState.always_moving(1.0)
        two, _ = apply_channel(np.ones(2000, dtype=complex), fs, params, mob, seed=4)
        first, _ = apply_channel(np.ones(1000, dtype=complex), fs, params, mob, seed=4, t0=0.0)
        second, _ = apply_channel(np.ones(1000, dtype=complex), fs, params, mob, seed=4, t0=1.0)
        stitched = np.concatenate([first, second])
        assert np.allclose(stitched, two, atol=1e-6)

    def test_rejects_empty_waveform(self):
        with pytest.raises(ValueError):
            apply_channel(
                np.empty(0, dtype=complex),
                1.0,
                ChannelParams(),
                MobilityState.static(1.0),
                seed=1,
            )

    @pytest.mark.parametrize("frames", [None, 3])
    @pytest.mark.parametrize("snr_db", [None, 10.0])
    @pytest.mark.parametrize("delay", [0, 17])
    def test_leaves_the_transmit_samples_untouched(self, delay, snr_db, frames):
        # without a delay the frame block itself is the channel input
        rng = np.random.default_rng(delay)
        shape = (400,) if frames is None else (frames, 400)
        tx = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        before = tx.tobytes()
        params = ChannelParams(doppler_hz=40.0, target_snr_db=snr_db, delay_samples=delay)
        t0 = 0.0 if frames is None else np.arange(frames) * 0.04
        rx, _ = apply_channel(tx, 1e4, params, MobilityState.always_moving(1.0), seed=5, t0=t0)
        assert tx.tobytes() == before
        assert not np.shares_memory(rx, tx)
        assert rx.shape == shape[:-1] + (400 + delay,)

    @pytest.mark.parametrize(
        "seed, t0, name",
        [
            ([[7, f] for f in range(3)], 0.0, "seed"),
            ([[7, f] for f in range(5)], 0.0, "seed"),
            (7, np.arange(3) * 0.04, "t0"),
        ],
        ids=["3_seed_rows", "5_seed_rows", "3_start_times"],
    )
    def test_mismatched_block_arguments_are_rejected_before_any_draw(
        self, no_draw, seed, t0, name
    ):
        tx = np.ones((4, 400), dtype=complex)
        with pytest.raises(ValueError, match=f"^{name} must"):
            apply_channel(tx, 1e4, ChannelParams(), MobilityState.static(1.0), seed=seed, t0=t0)

    @pytest.mark.parametrize(
        "tx, sample_rate, name",
        [
            (np.empty(0, dtype=complex), 1e4, "tx"),
            (np.empty((4, 0), dtype=complex), 1e4, "tx"),
            (np.ones((2, 4, 400), dtype=complex), 1e4, "tx"),
            (np.array([1.0, np.nan] * 200), 1e4, "tx"),
            (np.array([[1.0, 1j * np.inf] * 200] * 4), 1e4, "tx"),
            (np.ones(400, dtype=complex), 0.0, "sample_rate"),
            (np.ones(400, dtype=complex), -1e4, "sample_rate"),
            (np.ones(400, dtype=complex), np.nan, "sample_rate"),
            (np.ones(400, dtype=complex), np.inf, "sample_rate"),
        ],
        ids=[
            "empty", "empty_rows", "3d", "nan_sample", "inf_sample",
            "zero_rate", "negative_rate", "nan_rate", "inf_rate",
        ],
    )
    def test_bad_input_is_rejected_before_any_draw(self, no_draw, tx, sample_rate, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            apply_channel(tx, sample_rate, ChannelParams(), MobilityState.static(1.0), seed=7)


class TestKFactorEstimation:
    def test_recovers_testbed_k(self):
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        gain = generate_fading(params, 1_000_000, 1.0, seed=17)
        k, nu, sigma = estimate_k_factor(np.abs(gain))
        assert 10.4 <= k <= 11.5
        assert k == pytest.approx(nu**2 / (2 * sigma**2))

    def test_rayleigh_limit(self):
        # unit-power Rayleigh envelopes drawn independently of the fading
        # generator: the fitted line-of-sight power must vanish
        x = stats.rayleigh.rvs(
            scale=np.sqrt(0.5), size=1_000_000, random_state=np.random.default_rng(18)
        )
        k, _, _ = estimate_k_factor(x)
        assert k < 0.1

    def test_matches_reference_mle(self):
        # cross-check the EM fixed point against an independent generator
        # and the parameter inversion K = nu^2 / (2 sigma^2)
        b, loc, sc = rice_args(4.0)
        x = stats.rice.rvs(b, scale=sc, size=200_000, random_state=np.random.default_rng(5))
        k, nu, sigma = estimate_k_factor(x)
        assert k == pytest.approx(4.0, rel=0.05)

    def test_estimate_sharpens_with_samples(self):
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        gain = generate_fading(params, 1_000_000, 1.0, seed=19)
        k_small, _, _ = estimate_k_factor(np.abs(gain[:10_000]))
        k_large, _, _ = estimate_k_factor(np.abs(gain))
        assert abs(k_large - 10.92) < abs(k_small - 10.92)

    def test_degenerate_samples_fail(self):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_k_factor(np.ones(5000))

    def test_requires_enough_samples(self):
        with pytest.raises(ValueError):
            estimate_k_factor(np.abs(np.random.default_rng(0).normal(size=500)))

    def test_rejects_complex_gains(self):
        # a float cast would fit the real parts: K 10.10 here, against 10.88
        # for the magnitudes of the same gains
        params = ChannelParams(rician_k=10.92, doppler_hz=0.4)
        gain = generate_fading(params, 200_000, 1.0, seed=17)
        with pytest.raises(ValueError, match="real magnitudes"):
            estimate_k_factor(gain)
        k, _, _ = estimate_k_factor(np.abs(gain))
        assert 10.4 <= k <= 11.5

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            estimate_k_factor(np.linspace(-1, 1, 2000))
