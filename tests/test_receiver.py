"""Synchronization, estimation, equalization, and full-decode checks."""

import numpy as np
import pytest

from nomalink.channel import (
    ChannelParams,
    MobilityState,
    apply_channel,
    doppler_shift,
    generate_fading,
)
from nomalink.cli import execute, write_outputs
from nomalink.frame_codec import (
    FrameConfig,
    _levels_to_bits,
    assemble_frame,
    disassemble_symbol,
    pilot_mask,
    pilot_values,
    qam_demodulate,
    qam_modulate,
)
from nomalink import receiver
from nomalink.noma import (
    PowerAllocation,
    allocate_power_by_distance,
    build_downlink_frame,
    composite_pilot_values,
    sic_decode,
    user_pilot_seed,
)
from nomalink.scenario import (
    BerCurve,
    ScenarioConfig,
    compute_ber,
    snr_histogram,
    sweep_ber_vs_snr,
)
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


def decode_with_cfo_error(rx, cfo_error_hz, user=1):
    """receive_user's decode composed from the public stages, with a known
    error added to the CFO correction: its bits and per-symbol SNR estimates."""
    sync = cp_ml_sync(rx, CFG)
    corrected = correct_cfo(rx, sync.fractional_cfo_hz + cfo_error_hz, CFG.sample_rate)
    frame = corrected[sync.timing_offset : sync.timing_offset + CFG.frame_samples]
    rows = disassemble_symbol(frame.reshape(CFG.symbols_per_frame, -1), CFG, CFG.cp_length)
    mask = pilot_mask(CFG)
    reference = composite_pilot_values(CFG, ALLOC, PILOT_SEED)
    equalized, _ = zf_equalize(rows, ls_estimate_channel(rows, mask, reference))
    own, _ = sic_decode(equalized[:, ~mask].reshape(-1), ALLOC, user)
    return qam_demodulate(own), evm_snr(equalized[:, mask], reference)


def _bad_row(samples, bad):
    """A frame's samples with a NaN or an infinite sample, or as a 2-D array."""
    if bad == "2-D":
        return np.stack([samples, samples])
    row = samples.copy()
    row[700] = np.nan if bad == "nan" else np.inf
    return row


@pytest.fixture
def no_decode_work(monkeypatch):
    """Fail the test if receive_user builds its plan or runs a stage kernel,
    so an argument check that raises is known to run before any work."""

    def work(*args, **kwargs):
        raise AssertionError("decoding work ran before the argument check")

    for name in ("_rx_plan", "_sync", "_derotate", "_demap", "_sic"):
        monkeypatch.setattr(receiver, name, work)


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

    def test_rejects_a_row_whose_power_overflows(self):
        # the squared magnitudes of samples near 1e154 pass the float range
        _, tx = make_frame(28)
        log_power = np.log10(np.vdot(tx, tx).real) + 2 * 154
        match = rf"^rx holds a power .* of 10\^{log_power:.1f}, above"
        with pytest.raises(ValueError, match=match):
            cp_ml_sync(tx * 1e154, CFG)


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
            bits, _ = decode_with_cfo_error(rx, 0.2 * SCS)
            errors += np.count_nonzero(bits != payloads[0])
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
    def test_user_outside_the_allocation_is_rejected_before_sync(self, no_decode_work, user):
        _, tx = make_frame(27)
        with pytest.raises(ValueError, match=f"user index {user} outside 1..3"):
            receive_user(tx, CFG, ALLOC, user, PILOT_SEED)

    def test_nan_sync_threshold_is_rejected_before_sync(self, no_decode_work):
        # a NaN threshold would pass pure noise as a detected frame
        noise = np.random.default_rng(4).normal(size=(CFG.frame_samples, 2)) @ [1, 1j]
        with pytest.raises(ValueError, match="^sync_threshold"):
            receive_user(noise, CFG, ALLOC, 2, PILOT_SEED, sync_threshold=np.nan)

    def test_threshold_above_one_loses_every_frame(self):
        _, tx = make_frame(0)
        report = receive_user(tx, CFG, ALLOC, 1, PILOT_SEED, sync_threshold=1.5)
        assert not report.detected
        assert report.sync_metric == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "2-D"])
    def test_row_that_is_not_finite_or_not_1d_is_rejected_before_any_work(
        self, no_decode_work, bad
    ):
        _, tx = make_frame(29)
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

    def test_a_short_buffer_or_a_bad_cfo_error_is_named_before_any_work(self, no_decode_work):
        _, tx = make_frame(30)
        match = "^buffer of 1599 samples is shorter than one frame of 1600"
        with pytest.raises(ValueError, match=match):
            receive_user(tx[:-1], CFG, ALLOC, 2, PILOT_SEED, 0.0)

    @pytest.mark.parametrize("scale, log_power", [(1e154, "311.2"), (1e160, "323.2")])
    def test_a_row_whose_power_overflows_cp_sync_is_named_before_any_work(
        self, no_decode_work, scale, log_power
    ):
        _, tx = make_frame(30)
        assert np.log10(np.vdot(tx, tx).real) == pytest.approx(3.2, abs=0.04)
        match = rf"^rx holds a power \(sum of squared magnitudes\) of 10\^{log_power}, above"
        with pytest.raises(ValueError, match=match):
            receive_user(tx * scale, CFG, ALLOC, 2, PILOT_SEED)

    def test_a_row_of_large_finite_power_decodes(self):
        # any overflow warning would fail the test
        payloads, tx = make_frame(30)
        for k in (1, 2, 3):
            report = receive_user(tx * 1e150, CFG, ALLOC, k, PILOT_SEED)
            assert report.detected
            assert np.count_nonzero(report.bits != payloads[k - 1]) == 0

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
            degraded.append(np.mean(decode_with_cfo_error(rx, 0.05 * SCS)[1]))
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


@pytest.fixture
def no_work(monkeypatch, no_decode_work):
    """Fail the test if a channel draws its fading, a run sends or decodes a
    block, a histogram counts or a command runs, as no_decode_work does for
    decoding. A block sent in a forked child raises its error in the run."""

    def work(*args, **kwargs):
        raise AssertionError("work ran before the argument check")

    for name in (
        "channel._sos_parameters",
        "scenario._downlink",
        "scenario._propagate_block",
        "scenario._decode_block",
        "scenario._stage_histogram",
        "cli.run_v2x_scenario",
        "cli.sweep_ber_vs_snr",
        "cli.estimate_k_factor",
        "cli._selftest",
    ):
        monkeypatch.setattr(f"nomalink.{name}", work)


def _stage_calls():
    """One bad call per check of a public function's arguments, each of which
    that function's own check rejects: receive_user skips the stages' checks,
    the stages keep them."""
    _, tx = make_frame(31)
    rows = np.ones((CFG.symbols_per_frame, CFG.total_subcarriers), dtype=complex)
    reference = composite_pilot_values(CFG, ALLOC, PILOT_SEED)
    nan_symbols = np.array([1.0 + 1.0j, np.nan])
    mask = pilot_mask(CFG)
    payload = np.zeros((2, CFG.payload_bits), dtype=np.int64)
    yield "cp_ml_sync", lambda: cp_ml_sync(_bad_row(tx, "nan"), CFG), "finite samples"
    yield "cp_ml_sync-short", lambda: cp_ml_sync(tx[:500], CFG), "need at least 640 samples"
    yield "correct_cfo", lambda: correct_cfo(tx, np.nan, CFG.sample_rate), "^cfo_hz must be finite"
    yield "disassemble_symbol", lambda: disassemble_symbol(tx[:255], CFG), "segment too short"
    yield (
        "ls_estimate_channel",
        lambda: ls_estimate_channel(rows, pilot_mask(CFG), reference[:-1]),
        "pilot reference length",
    )
    yield (
        "zf_equalize",
        lambda: zf_equalize(rows, np.where(rows.real > 0, np.nan, 1.0)),
        "channel estimate must be finite",
    )
    yield "evm_snr", lambda: evm_snr(rows[:, :24], reference), "need equal, non-empty"
    yield "sic_decode", lambda: sic_decode(nan_symbols, ALLOC, 2), "symbols must be finite"
    yield "sic_decode-user", lambda: sic_decode(rows[0], ALLOC, 4), "user index 4"
    yield "qam_demodulate", lambda: qam_demodulate(nan_symbols, 4), "symbols must be finite"
    yield "qam_modulate-2-D", lambda: qam_modulate(np.zeros((2, 4))), "^bits must be one-dim"
    yield (
        "cp_ml_sync-no-prefix",
        lambda: cp_ml_sync(tx, FrameConfig(cp_length=0)),
        "^cp_ml_sync requires a cyclic prefix$",
    )
    yield (
        "ls_estimate_channel-zero-reference",
        lambda: ls_estimate_channel(rows, mask, np.where(np.arange(25) == 3, 0.0, 1.0)),
        "^pilot reference contains zero-power entries$",
    )
    # 1e-200 is not zero, but its power underflows to 0
    yield (
        "ls_estimate_channel-degenerate",
        lambda: ls_estimate_channel(rows, mask, np.full(25, 1e-200)),
        "^degenerate pilot layout$",
    )
    yield (
        "ls_estimate_channel-overflow",
        lambda: ls_estimate_channel(rows, mask, np.full(25, 1e200)),
        "^pilot power overflows$",
    )
    yield (
        "PowerAllocation-empty",
        lambda: PowerAllocation(()),
        "^allocation needs at least one coefficient$",
    )
    yield (
        "allocate_power_by_distance-empty",
        lambda: allocate_power_by_distance([]),
        "^distances must be a non-empty 1-D sequence$",
    )
    yield (
        "build_downlink_frame-unequal-blocks",
        lambda: build_downlink_frame([payload, payload, payload[:1]], CFG, ALLOC, PILOT_SEED),
        "^user waveforms must have equal length$",
    )
    yield (
        "compute_ber-empty",
        lambda: compute_ber([], [], True),
        "^cannot compute BER of empty blocks$",
    )
    yield (
        "snr_histogram-unequal",
        lambda: snr_histogram([0.0, 1.0], [20.0], 1.0, 1.0, 2.0),
        "^times and values must be equal-length, non-empty$",
    )
    yield from _argument_calls(tx)


def _argument_calls(tx):
    """Per number or choice argument that the config field rule checks: one
    call with a bool or a string and one past the argument's bound."""
    params, static = ChannelParams(), MobilityState.static(1.0)
    cfg, curve = ScenarioConfig(), BerCurve(*[np.zeros((1, 1))] * 7)
    yield (
        "doppler_shift-speed-bool",
        lambda: doppler_shift(True, 2.34e9),
        "^speed must be a number, got True$",
    )
    yield (
        "doppler_shift-speed",
        lambda: doppler_shift(-1.0, 2.34e9),
        "^speed must be >= 0, got -1.0$",
    )
    yield (
        "generate_fading-n_samples-string",
        lambda: generate_fading(params, "10", 1.0, seed=1),
        "^n_samples must be an integer, got '10'$",
    )
    yield (
        "generate_fading-n_samples",
        lambda: generate_fading(params, 0, 1.0, seed=1),
        "^n_samples must be > 0, got 0$",
    )
    yield (
        "generate_fading-sample_rate-bool",
        lambda: generate_fading(params, 10, True, seed=1),
        "^sample_rate must be a number, got True$",
    )
    yield (
        "generate_fading-sample_rate",
        lambda: generate_fading(params, 10, 0.0, seed=1),
        "^sample_rate must be > 0, got 0.0$",
    )
    yield (
        "apply_channel-sample_rate-string",
        lambda: apply_channel(tx, "5e5", params, static, seed=1),
        "^sample_rate must be a number, got '5e5'$",
    )
    yield (
        "apply_channel-sample_rate",
        lambda: apply_channel(tx, -5e5, params, static, seed=1),
        "^sample_rate must be > 0, got -500000.0$",
    )
    yield (
        "correct_cfo-cfo_hz-bool",
        lambda: correct_cfo(tx, True, CFG.sample_rate),
        "^cfo_hz must be a number, got True$",
    )
    yield (
        "correct_cfo-sample_rate-string",
        lambda: correct_cfo(tx, 10.0, "5e5"),
        "^sample_rate must be a number, got '5e5'$",
    )
    yield (
        "correct_cfo-sample_rate",
        lambda: correct_cfo(tx, 10.0, 0),
        "^sample_rate must be > 0, got 0$",
    )
    yield (
        "receive_user-sync_threshold-string",
        lambda: receive_user(tx, CFG, ALLOC, 2, PILOT_SEED, "0.5"),
        "^sync_threshold must be a number, got '0.5'$",
    )
    yield (
        "receive_user-sync_threshold",
        lambda: receive_user(tx, CFG, ALLOC, 2, PILOT_SEED, np.nan),
        "^sync_threshold must be finite, got nan$",
    )
    for name, distances, match in [
        ("bool", [4.0, True], r"distances\[1\] must be a number, got True"),
        ("string", ["4", 1.0], r"distances\[0\] must be a number, got '4'"),
        ("nan", [4.0, np.nan], r"distances\[1\] must be finite, got nan"),
        ("inf", [4.0, np.inf], r"distances\[1\] must be finite, got inf"),
        ("zero", [4.0, 0], r"distances\[1\] must be > 0, got 0"),
    ]:
        yield (
            f"allocate_power_by_distance-{name}",
            lambda d=distances: allocate_power_by_distance(d),
            f"^{match}$",
        )
    for name, args, match in [
        ("bin_width_db-bool", (True, 1.0, 2.0), "bin_width_db must be a number, got True"),
        ("bin_width_db", (0.0, 1.0, 2.0), "bin_width_db must be > 0, got 0.0"),
        ("stage_split_s-string", (1.0, "1", 2.0), "stage_split_s must be a number, got '1'"),
        ("stage_split_s", (1.0, np.inf, 2.0), "stage_split_s must be finite, got inf"),
        ("total_duration_s-bool", (1.0, 1.0, True), "total_duration_s must be a number, got True"),
        ("total_duration_s", (1.0, 1.0, np.nan), "total_duration_s must be finite, got nan"),
    ]:
        yield f"snr_histogram-{name}", lambda a=args: snr_histogram([0.0], [1.0], *a), f"^{match}$"
    yield (
        "sweep_ber_vs_snr-min_bits_per_point-bool",
        lambda: sweep_ber_vs_snr(cfg, [10.0], min_bits_per_point=True),
        "^min_bits_per_point must be an integer, got True$",
    )
    yield (
        "sweep_ber_vs_snr-min_bits_per_point",
        lambda: sweep_ber_vs_snr(cfg, [10.0], min_bits_per_point=99_999),
        "^min_bits_per_point must be >= 100000, got 99999$",
    )
    yield (
        "sweep_ber_vs_snr-snr_grid-string",
        lambda: sweep_ber_vs_snr(cfg, np.array([10.0, "x"], dtype=object)),
        r"^snr_grid\[1\] must be a number, got 'x'$",
    )
    yield (
        "sweep_ber_vs_snr-snr_grid",
        lambda: sweep_ber_vs_snr(cfg, np.array([10.0, np.nan])),
        r"^snr_grid\[1\] must be finite, got nan$",
    )
    for name, times in (("nan", [np.nan, 1.0, 0.2]), ("inf", [0.0, np.inf, 0.2])):
        yield (
            f"snr_histogram-times_s-{name}",
            lambda t=times: snr_histogram(t, [1.0, 2.0, 3.0], 1.0, 0.5, 2.0),
            "^times_s must be finite$",
        )
    # an integer argument takes no bool and no float, not even a whole one
    symbols = np.ones(4, dtype=complex)
    for name, call, whole in [
        ("receive_user-user", lambda v: receive_user(tx, CFG, ALLOC, v, PILOT_SEED), 2.0),
        ("sic_decode-user", lambda v: sic_decode(symbols, ALLOC, v), 2.0),
        ("sic_decode-order", lambda v: sic_decode(symbols, ALLOC, 2, v), 16.0),
        ("qam_modulate-order", lambda v: qam_modulate(np.zeros(8, dtype=int), v), 16.0),
        ("qam_demodulate-order", lambda v: qam_demodulate(symbols, v), 16.0),
        ("disassemble_symbol-symbol_start", lambda v: disassemble_symbol(tx, CFG, v), 64.0),
        ("user_pilot_seed-user", lambda v: user_pilot_seed(PILOT_SEED, v), 1.0),
    ]:
        arg = name.split("-")[1]
        for kind, value in (("bool", True), ("float", whole)):
            yield (
                f"{name}-{kind}",
                lambda c=call, v=value: c(v),
                f"^{arg} must be an integer, got {value!r}$",
            )
    # a seed is a non-negative integer or a list of them
    bits = np.zeros((ALLOC.n_users, CFG.payload_bits), dtype=np.int64)
    for name, call in [
        ("generate_fading-seed", lambda v: generate_fading(params, 10, 1.0, seed=v)),
        ("apply_channel-seed", lambda v: apply_channel(tx, CFG.sample_rate, params, static, v)),
        ("assemble_frame-pilot_seed", lambda v: assemble_frame(bits[0], CFG, v)),
        ("build_downlink_frame-pilot_seed", lambda v: build_downlink_frame(bits, CFG, ALLOC, v)),
        ("receive_user-pilot_seed", lambda v: receive_user(tx, CFG, ALLOC, 2, v)),
        ("pilot_values-pilot_seed", lambda v: pilot_values(CFG, v)),
        ("composite_pilot_values-pilot_seed", lambda v: composite_pilot_values(CFG, ALLOC, v)),
        ("user_pilot_seed-pilot_seed", lambda v: user_pilot_seed(v, 1)),
    ]:
        arg = name.split("-")[1]
        for kind, value, match in [
            ("float", 7.9, f"{arg} must be an integer, got 7.9"),
            ("bool", True, f"{arg} must be an integer, got True"),
            ("string", "a", f"{arg} must be an integer, got 'a'"),
            ("negative", -1, f"{arg} must be >= 0, got -1"),
            ("word", [5, 1.5], rf"{arg}\[1\] must be an integer, got 1.5"),
        ]:
            yield f"{name}-{kind}", lambda c=call, v=value: c(v), f"^{match}$"
    block = np.stack([tx, tx])
    for kind, seed, match in [
        ("row-word", [[1, 2], [3, -4]], r"seed\[1\]\[1\] must be >= 0, got -4"),
        ("row-length", [[1, 2], [3]], r"seed rows must be of equal length, got \[2, 1\]"),
    ]:
        yield (
            f"apply_channel-seed-{kind}",
            lambda s=seed: apply_channel(block, CFG.sample_rate, params, static, s),
            f"^{match}$",
        )
    choices = "'run-scenario', 'sweep-ber', 'estimate-k', 'selftest'"
    yield (
        "execute-command-bool",
        lambda: execute(True, cfg, "out"),
        f"^command must be one of {choices}, got True$",
    )
    yield (
        "execute-command",
        lambda: execute("run_scenario", cfg, "out"),
        f"^command must be one of {choices}, got 'run_scenario'$",
    )
    yield (
        "execute-fmt-bool",
        lambda: execute("run-scenario", cfg, "out", fmt=False),
        "^fmt must be one of 'text', 'records', got False$",
    )
    yield (
        "execute-fmt",
        lambda: execute("run-scenario", cfg, "out", fmt="csv"),
        "^fmt must be one of 'text', 'records', got 'csv'$",
    )
    yield (
        "write_outputs-fmt",
        lambda: write_outputs(curve, "csv", "out/sweep.csv"),
        "^fmt must be one of 'text', 'records', got 'csv'$",
    )


@pytest.mark.parametrize(
    "call, match", [pytest.param(c, m, id=i) for i, c, m in _stage_calls()]
)
def test_each_public_stage_keeps_its_checks(no_work, tmp_path, monkeypatch, call, match):
    # a rejected call does no work: execute and write_outputs make no "out"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=match):
        call()
    assert not (tmp_path / "out").exists()
