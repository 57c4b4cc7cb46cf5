"""Synchronization, estimation, equalization, and full-decode checks."""

import numpy as np
import pytest

from nomalink.channel import ChannelParams, MobilityState, apply_channel
from nomalink.frame_codec import (
    FrameConfig,
    _levels_to_bits,
    pilot_mask,
)
from nomalink import receiver
from nomalink.noma import PowerAllocation, build_downlink_frame, composite_pilot_values
from nomalink.receiver import (
    SYNC_DETECTION_THRESHOLD,
    correct_cfo,
    cp_ml_sync,
    evm_snr,
    ls_estimate_channel,
    receive_user,
    zf_equalize,
)

CFG = FrameConfig()
SCS = CFG.subcarrier_spacing
ALLOC = PowerAllocation.testbed_default()
PILOT_SEED = 21


def stage_errors(report, payloads):
    """Bit errors of each SIC stage's decisions against the sent payloads."""
    return tuple(
        int(np.count_nonzero(_levels_to_bits(levels, CFG.modulation_order) != sent))
        for levels, sent in zip(report.stage_levels, payloads, strict=True)
    )


def make_frame(seed, n_users=3):
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 2, CFG.payload_bits) for _ in range(n_users)]
    alloc = ALLOC if n_users == 3 else PowerAllocation((1.0,))
    tx = build_downlink_frame(payloads, CFG, alloc, PILOT_SEED)
    return payloads, tx


def _bad_row(samples, bad):
    """A frame's samples with a NaN or an infinite sample, or as a 2-D array."""
    if bad == "2-D":
        return np.stack([samples, samples])
    row = samples.copy()
    row[700] = np.nan if bad == "nan" else np.inf
    return row


class TestCpMlSync:
    def test_null_offsets(self):
        _, tx = make_frame(0)
        sync = cp_ml_sync(tx, CFG)
        assert sync.timing_offset == 0
        assert abs(sync.fractional_cfo_hz) < 1e-6 * SCS
        assert sync.metric_peak == pytest.approx(1.0, abs=1e-9)

    def test_integer_delay_recovered_exactly(self):
        _, tx = make_frame(1)
        params = ChannelParams(rician_k=np.inf, delay_samples=50)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=2)
        assert cp_ml_sync(rx, CFG).timing_offset == 50

    def test_fractional_cfo_at_30db(self):
        # truth comparison: injected 0.1 subcarrier-spacing offset comes
        # back within 1% of the injected value
        _, tx = make_frame(2)
        injected = 0.1 * SCS
        params = ChannelParams(rician_k=np.inf, cfo_hz=injected, target_snr_db=30.0)
        rx, truth = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=3)
        sync = cp_ml_sync(rx, CFG)
        assert truth.applied_cfo_hz == pytest.approx(injected)
        assert abs(sync.fractional_cfo_hz - injected) < 0.01 * injected

    def test_noise_only_peaks_below_the_detection_threshold(self):
        rng = np.random.default_rng(4)
        noise = (rng.normal(size=3200) + 1j * rng.normal(size=3200)) / np.sqrt(2)
        sync = cp_ml_sync(noise, CFG)
        assert sync.metric_peak < SYNC_DETECTION_THRESHOLD

    @pytest.mark.parametrize("bad", ["nan", "inf", "2-D"])
    def test_rejects_a_row_that_is_not_finite_or_not_1d(self, bad):
        _, tx = make_frame(28)
        with pytest.raises(ValueError, match="one 1-D row of finite samples"):
            cp_ml_sync(_bad_row(tx, bad), CFG)

    def test_requires_two_symbol_periods(self):
        with pytest.raises(ValueError):
            cp_ml_sync(np.ones(500, dtype=complex), CFG)


class TestCorrectCfo:
    def test_exact_inverse(self):
        _, tx = make_frame(5)
        params = ChannelParams(rician_k=np.inf, cfo_hz=123.0)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=6)
        restored = correct_cfo(rx, 123.0, CFG.sample_rate)
        assert np.allclose(restored, tx, atol=1e-9)

    @pytest.mark.parametrize("cfo_hz", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_offset(self, cfo_hz):
        _, tx = make_frame(6)
        with pytest.raises(ValueError, match="cfo_hz"):
            correct_cfo(tx, cfo_hz, CFG.sample_rate)

    @pytest.mark.parametrize("sample_rate", [0.0, -5e5, np.nan, np.inf])
    def test_rejects_a_sample_rate_that_is_not_positive_and_finite(self, sample_rate):
        _, tx = make_frame(6)
        with pytest.raises(ValueError, match="sample_rate"):
            correct_cfo(tx, 10.0, sample_rate)

    def test_zero_is_identity(self):
        _, tx = make_frame(6)
        assert correct_cfo(tx, 0.0, CFG.sample_rate) is tx

    def test_residual_after_estimated_correction(self):
        _, tx = make_frame(7)
        injected = 0.2 * SCS
        params = ChannelParams(rician_k=np.inf, cfo_hz=injected, target_snr_db=30.0)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=8)
        sync = cp_ml_sync(rx, CFG)
        corrected = correct_cfo(rx, sync.fractional_cfo_hz, CFG.sample_rate)
        residual = cp_ml_sync(corrected, CFG).fractional_cfo_hz
        assert abs(residual) < 0.02 * SCS


class TestLsEstimateChannel:
    MASK = pilot_mask(CFG)
    PILOTS = composite_pilot_values(CFG, ALLOC, PILOT_SEED)

    def _row_for_channel(self, h):
        row = np.zeros(CFG.total_subcarriers, dtype=complex)
        row[self.MASK] = h[self.MASK] * self.PILOTS
        row[~self.MASK] = h[~self.MASK] * 1.0
        return row

    def test_flat_channel(self):
        h = np.ones(CFG.total_subcarriers, dtype=complex)
        estimate = ls_estimate_channel(self._row_for_channel(h), self.MASK, self.PILOTS)
        assert np.allclose(estimate, 1.0, atol=1e-9)

    def test_linear_channel_exact(self):
        # complex-linear gain across subcarriers is inside the model class:
        # recovery is exact at pilots and everywhere between
        k = np.arange(CFG.total_subcarriers)
        h = (1.0 + 0.3j) + (0.002 - 0.001j) * k
        estimate = ls_estimate_channel(self._row_for_channel(h), self.MASK, self.PILOTS)
        assert np.allclose(estimate[self.MASK], h[self.MASK], atol=1e-6)
        assert np.allclose(estimate, h, atol=1e-6)

    def test_gentle_phase_ramp_within_5_percent(self):
        # residual timing of 0.12 samples leaves exp(-j 2 pi d k / N): the
        # straight-line fit tracks it within 5% on every subcarrier
        delta = 0.12
        k = np.arange(CFG.total_subcarriers)
        centred = k - (CFG.total_subcarriers - 1) / 2
        h = np.exp(-2j * np.pi * delta * centred / CFG.fft_size)
        estimate = ls_estimate_channel(self._row_for_channel(h), self.MASK, self.PILOTS)
        assert np.all(np.abs(estimate - h) <= 0.05 * np.abs(h))

    def test_consumes_25_pilots(self):
        assert int(self.MASK.sum()) == 25 == self.PILOTS.size

    def test_rejects_single_pilot(self):
        mask = np.zeros(CFG.total_subcarriers, dtype=bool)
        mask[0] = True
        with pytest.raises(ValueError):
            ls_estimate_channel(np.ones(CFG.total_subcarriers, dtype=complex), mask, np.ones(1))


class TestZfEqualize:
    def test_exact_inverse(self):
        rng = np.random.default_rng(9)
        h = np.exp(1j * rng.uniform(0, 2 * np.pi, 150)) * rng.uniform(0.5, 2.0, 150)
        x = rng.normal(size=150) + 1j * rng.normal(size=150)
        eq, erased = zf_equalize(h * x, h)
        assert not erased.any()
        assert np.allclose(eq, x, atol=1e-9)

    def test_singular_subcarrier_flagged(self):
        h = np.ones(10, dtype=complex)
        h[3] = 0.0
        eq, erased = zf_equalize(np.ones(10, dtype=complex), h)
        assert erased[3] and erased.sum() == 1
        assert eq[3] == 0
        assert np.allclose(np.delete(eq, 3), 1.0)

    def test_all_erased_is_symbol_loss(self):
        eq, erased = zf_equalize(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))
        assert erased.all()
        assert np.array_equal(eq, np.zeros(4, dtype=complex))

    def test_post_equalization_evm_at_20db(self):
        # Monte Carlo: unit-magnitude random-phase channel, 20 dB noise;
        # equalized error power must sit within 1 dB of the noise level
        rng = np.random.default_rng(10)
        sigma2 = 10 ** (-20 / 10)
        errs = []
        for _ in range(200):
            h = np.exp(1j * rng.uniform(0, 2 * np.pi, 150))
            x = np.exp(1j * rng.uniform(0, 2 * np.pi, 150))
            noise = rng.normal(0, np.sqrt(sigma2 / 2), (150, 2)) @ np.array([1, 1j])
            eq, _ = zf_equalize(h * x + noise, h)
            errs.append(np.mean(np.abs(eq - x) ** 2))
        evm_db = -10 * np.log10(np.mean(errs))
        assert evm_db == pytest.approx(20.0, abs=1.0)


class TestEvmSnr:
    def test_definition_anchor(self):
        # EVM of exactly 0.1 reads 20 dB
        x = np.ones(10, dtype=complex)
        y = x + 0.1 * np.exp(1j * np.linspace(0, 2 * np.pi, 10, endpoint=False))
        assert evm_snr(y, x) == pytest.approx(20.0, abs=1e-9)

    def test_noiseless_hits_cap(self):
        x = np.ones(5, dtype=complex)
        assert evm_snr(x, x) == 60.0

    def test_zero_power_reference_rejected(self):
        with pytest.raises(ValueError):
            evm_snr(np.ones(4, dtype=complex), np.zeros(4, dtype=complex))

    def test_awgn_23db_frame_average(self):
        # 125 pilots at true 23 dB: estimate lands within +-1 dB
        rng = np.random.default_rng(11)
        sigma2 = 10 ** (-23 / 10)
        x = np.tile(composite_pilot_values(CFG, ALLOC, PILOT_SEED), 5)
        estimates = []
        for _ in range(60):
            noise = rng.normal(0, np.sqrt(sigma2 / 2), (x.size, 2)) @ np.array([1, 1j])
            estimates.append(evm_snr(x + noise, x))
        assert np.mean(estimates) == pytest.approx(23.0, abs=1.0)


class TestReceiveUser:
    def test_transparent_channel_all_users(self):
        payloads, tx = make_frame(12)
        params = ChannelParams(rician_k=np.inf)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=13)
        for k in (1, 2, 3):
            report = receive_user(rx, CFG, ALLOC, k, PILOT_SEED)
            assert report.detected
            assert np.array_equal(report.bits, payloads[k - 1])
            assert abs(report.estimated_cfo_hz) < 1e-6 * SCS
            assert report.estimated_snr_db.shape == (5,)

    def test_static_rician_25db_under_1e3(self):
        # 3-user downlink at 25 dB receive SNR, motionless Rician fading:
        # every user's BER stays at or below 1e-3 over >= 1e5 bits
        params = ChannelParams(rician_k=10.92, target_snr_db=25.0)
        errors = np.zeros(3, dtype=int)
        n_frames = 80
        for f in range(n_frames):
            payloads, tx = make_frame(1000 + f)
            rx, _ = apply_channel(
                tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=[14, f]
            )
            for k in (1, 2, 3):
                report = receive_user(rx, CFG, ALLOC, k, PILOT_SEED)
                assert report.detected
                errors[k - 1] += np.count_nonzero(report.bits != payloads[k - 1])
        total = n_frames * CFG.payload_bits
        assert total >= 1e5
        assert np.all(errors / total <= 1e-3)

    def test_uncorrected_cfo_stress(self):
        # forcing a 20% subcarrier-spacing correction error drives the BER
        # above 1e-2 (intercarrier interference dominates)
        params = ChannelParams(rician_k=10.92, target_snr_db=25.0)
        errors = 0
        n_frames = 20
        for f in range(n_frames):
            payloads, tx = make_frame(2000 + f)
            rx, _ = apply_channel(
                tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=[15, f]
            )
            report = receive_user(
                rx, CFG, ALLOC, 1, PILOT_SEED, cfo_error_hz=0.2 * SCS
            )
            errors += np.count_nonzero(report.bits != payloads[0])
        assert errors / (n_frames * CFG.payload_bits) > 1e-2

    def test_sync_failure_reports_lost_frame(self):
        rng = np.random.default_rng(16)
        noise = (rng.normal(size=1600) + 1j * rng.normal(size=1600)) / np.sqrt(2)
        report = receive_user(noise, CFG, ALLOC, 1, PILOT_SEED)
        assert not report.detected
        assert report.bits.size == 0
        assert report.estimated_snr_db.size == 0

    def test_lost_frame_keeps_its_correlation_peak(self):
        rng = np.random.default_rng(24)
        noise = (rng.normal(size=1600) + 1j * rng.normal(size=1600)) / np.sqrt(2)
        report = receive_user(noise, CFG, ALLOC, 2, PILOT_SEED)
        assert not report.detected
        assert np.isfinite(report.sync_metric)
        assert 0.0 < report.sync_metric < SYNC_DETECTION_THRESHOLD
        assert report.sync_metric == cp_ml_sync(noise, CFG).metric_peak

    @pytest.mark.parametrize("user", [0, 4])
    def test_user_outside_the_allocation_is_rejected_before_sync(self, monkeypatch, user):
        _, tx = make_frame(27)

        def sync(*args, **kwargs):
            raise AssertionError("sync ran")

        monkeypatch.setattr(receiver, "cp_ml_sync", sync)
        with pytest.raises(ValueError, match=f"user index {user} outside 1..3"):
            receive_user(tx, CFG, ALLOC, user, PILOT_SEED)

    def test_nan_sync_threshold_is_rejected_before_sync(self, monkeypatch):
        # a NaN threshold would pass pure noise as a detected frame
        noise = np.random.default_rng(4).normal(size=(CFG.frame_samples, 2)) @ [1, 1j]

        def sync(*args, **kwargs):
            raise AssertionError("sync ran")

        monkeypatch.setattr(receiver, "cp_ml_sync", sync)
        with pytest.raises(ValueError, match="^sync_threshold"):
            receive_user(noise, CFG, ALLOC, 2, PILOT_SEED, sync_threshold=np.nan)

    def test_threshold_above_one_loses_every_frame(self):
        _, tx = make_frame(0)
        report = receive_user(tx, CFG, ALLOC, 1, PILOT_SEED, sync_threshold=1.5)
        assert not report.detected
        assert report.sync_metric == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "2-D"])
    def test_row_that_is_not_finite_or_not_1d_is_rejected_before_any_work(
        self, monkeypatch, bad
    ):
        _, tx = make_frame(29)

        def stage(*args, **kwargs):
            raise AssertionError("a stage after the row check ran")

        monkeypatch.setattr(receiver, "correct_cfo", stage)
        with pytest.raises(ValueError, match="one 1-D row of finite samples"):
            receive_user(_bad_row(tx, bad), CFG, ALLOC, 2, PILOT_SEED, sync_threshold=0.0)

    def test_buffer_shorter_than_a_frame_is_rejected(self):
        payloads, tx = make_frame(25)
        params = ChannelParams(rician_k=np.inf)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=26)
        assert len(rx) == CFG.frame_samples
        for k in (1, 2, 3):
            report = receive_user(rx, CFG, ALLOC, k, PILOT_SEED)
            assert report.detected
            assert np.count_nonzero(report.bits != payloads[k - 1]) == 0
        short = rx[:-1]
        need = f"{CFG.frame_samples - 1} samples.*{CFG.frame_samples}"
        with pytest.raises(ValueError, match=need):
            receive_user(short, CFG, ALLOC, 1, PILOT_SEED, sync_threshold=0.0)

    def test_all_erased_frame_is_reported_lost(self):
        # a silent frame passes a zero threshold, then every subcarrier erases
        rx = np.zeros(CFG.frame_samples, dtype=complex)
        report = receive_user(rx, CFG, ALLOC, 2, PILOT_SEED, sync_threshold=0.0)
        assert not report.detected
        assert report.sync_metric == 0.0
        assert report.bits.size == 0
        assert report.stage_levels == ()

    def test_stage_levels_count_no_errors_on_a_clean_channel(self):
        payloads, tx = make_frame(17)
        params = ChannelParams(rician_k=np.inf)
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=18)
        report = receive_user(rx, CFG, ALLOC, 3, PILOT_SEED)
        assert [levels.shape for levels in report.stage_levels] == [(625, 2), (625, 2)]
        assert stage_errors(report, payloads[:2]) == (0, 0)

    def test_cfo_estimator_unbiased_at_30db(self):
        # mean estimation error over 1000 noisy frames below 1% of the
        # subcarrier spacing
        injected = 0.1 * SCS
        params = ChannelParams(rician_k=np.inf, cfo_hz=injected, target_snr_db=30.0)
        _, tx = make_frame(19)
        errors = []
        for f in range(1000):
            rx, truth = apply_channel(
                tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=[20, f]
            )
            sync = cp_ml_sync(rx, CFG)
            errors.append(sync.fractional_cfo_hz - truth.applied_cfo_hz)
        assert abs(np.mean(errors)) < 0.01 * SCS

    def test_cfo_error_injection_lowers_estimated_snr(self):
        # a known CFO estimation error must depress the SNR estimate
        params = ChannelParams(rician_k=10.92, target_snr_db=30.0)
        clean, degraded = [], []
        for f in range(25):
            _, tx = make_frame(3000 + f)
            rx, _ = apply_channel(
                tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=[21, f]
            )
            clean.append(
                np.mean(receive_user(rx, CFG, ALLOC, 1, PILOT_SEED).estimated_snr_db)
            )
            degraded.append(
                np.mean(
                    receive_user(
                        rx, CFG, ALLOC, 1, PILOT_SEED, cfo_error_hz=0.05 * SCS
                    ).estimated_snr_db
                )
            )
        assert np.mean(degraded) < np.mean(clean)

    def test_sic_error_propagation_nonnegative(self):
        # frames where an early stage decided wrongly never show fewer own
        # errors than the same frames decoded with genie-corrected stages
        params = ChannelParams(rician_k=10.92, target_snr_db=16.0)
        extra = []
        for f in range(40):
            payloads, tx = make_frame(4000 + f)
            rx, _ = apply_channel(
                tx, CFG.sample_rate, params, MobilityState.static(1.0), seed=[22, f]
            )
            report = receive_user(rx, CFG, ALLOC, 3, PILOT_SEED)
            if not report.detected or stage_errors(report, payloads[:2]) == (0, 0):
                continue
            extra.append(np.count_nonzero(report.bits != payloads[2]))
        assert len(extra) > 0
        assert np.mean(extra) > 0
