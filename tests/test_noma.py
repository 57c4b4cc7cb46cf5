"""Power allocation, superposition, and SIC decoder checks."""

import math

import numpy as np
import pytest

from nomalink.frame_codec import (
    FrameConfig,
    _levels_to_bits,
    disassemble_symbol,
    pilot_mask,
    qam_demodulate,
    qam_modulate,
)
from nomalink.noma import (
    PowerAllocation,
    allocate_power_by_distance,
    build_downlink_frame,
    composite_pilot_values,
    sic_decode,
    superpose,
    user_pilot_seed,
)


class TestPowerAllocation:
    def test_testbed_preset(self):
        alloc = PowerAllocation.testbed_default()
        assert alloc.coefficients == (0.761, 0.191, 0.048)
        assert sum(alloc.coefficients) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            PowerAllocation((0.7, 0.2))

    def test_rejects_increasing_order(self):
        with pytest.raises(ValueError):
            PowerAllocation((0.2, 0.8))

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            PowerAllocation((1.2, -0.2))

    @pytest.mark.parametrize("coefficients", [(np.nan,), (0.5, np.nan)])
    def test_rejects_nan(self, coefficients):
        with pytest.raises(ValueError, match=r"coefficients\[\d\] must be finite"):
            PowerAllocation(coefficients)

    def test_equal_coefficients_allowed(self):
        PowerAllocation((1 / 3, 1 / 3, 1 / 3))


class TestDistancePolicy:
    def test_testbed_start_distances(self):
        # normalize squared distances by hand:
        # (4.27^2, 4.02^2, 3.90^2) / 49.6033 = (0.368, 0.326, 0.307)
        alloc = allocate_power_by_distance([4.27, 4.02, 3.90])
        assert alloc.coefficients == pytest.approx((0.368, 0.326, 0.307), abs=1e-3)

    def test_equal_distances(self):
        alloc = allocate_power_by_distance([1.0, 1.0, 1.0])
        assert alloc.coefficients == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_single_user(self):
        assert allocate_power_by_distance([5.0]).coefficients == pytest.approx((1.0,))

    def test_farthest_gets_most_power(self):
        alloc = allocate_power_by_distance([2.0, 5.0, 3.0])
        assert alloc.coefficients[0] == pytest.approx(25 / 38)

    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            allocate_power_by_distance([4.0, -1.0])

    @pytest.mark.parametrize("distances", [[1e200, 1.0], [1e-170, 1e-171], [1e150, 1e-150]])
    def test_rejects_squares_beyond_the_float_range(self, distances):
        # an overflowing square, a sum that underflows to 0, a coefficient that underflows
        with pytest.raises(ValueError, match=r"^distances \(.* overflow or underflow"):
            allocate_power_by_distance(distances)


class TestSuperpose:
    def test_single_user_identity(self):
        x = np.random.default_rng(0).normal(size=8) + 0j
        out = superpose([x], PowerAllocation((1.0,)))
        assert np.allclose(out, x)

    def test_all_zero(self):
        alloc = PowerAllocation.testbed_default()
        out = superpose([np.zeros(4)] * 3, alloc)
        assert np.all(out == 0)

    def test_common_symbol_amplitude_sum(self):
        # sqrt(0.761) + sqrt(0.191) + sqrt(0.048), computed independently
        expected = math.sqrt(0.761) + math.sqrt(0.191) + math.sqrt(0.048)
        s = (1 + 1j) / math.sqrt(2)
        out = superpose([[s]] * 3, PowerAllocation.testbed_default())
        assert out[0] == pytest.approx(expected * s, abs=1e-12)

    def test_rejects_length_mismatch(self):
        alloc = PowerAllocation((0.8, 0.2))
        with pytest.raises(ValueError):
            superpose([np.zeros(4), np.zeros(5)], alloc)

    def test_rejects_user_count_mismatch(self):
        with pytest.raises(ValueError):
            superpose([np.zeros(4)], PowerAllocation((0.8, 0.2)))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        alloc = PowerAllocation.testbed_default()
        a = [rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(3)]
        b = [rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(3)]
        left = superpose([x + y for x, y in zip(a, b)], alloc)
        right = (
            superpose(a, alloc)
            + superpose(b, alloc)
        )
        assert np.allclose(left, right)

    def test_power_conservation(self):
        # independent unit-power QPSK streams: mean |sum|^2 -> sum alpha = 1
        rng = np.random.default_rng(2)
        alloc = PowerAllocation.testbed_default()
        n = 10_000
        waves = [qam_modulate(rng.integers(0, 2, 2 * n), 4) for _ in range(3)]
        power = np.mean(np.abs(superpose(waves, alloc)) ** 2)
        assert power == pytest.approx(1.0, rel=1e-2)


class TestSicDecode:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def _composite(self, alloc, n_symbols=500):
        bits = [self.rng.integers(0, 2, 2 * n_symbols) for _ in alloc.coefficients]
        syms = [qam_modulate(b, 4) for b in bits]
        composite = sum(a * s for a, s in zip(alloc.amplitudes, syms))
        return bits, syms, composite

    def test_two_user_strong_noiseless(self):
        alloc = PowerAllocation((0.8, 0.2))
        bits, _, composite = self._composite(alloc)
        own, stages = sic_decode(composite, alloc, 2)
        assert len(stages) == 1
        assert np.array_equal(_levels_to_bits(stages[0], 4), bits[0])
        assert np.array_equal(qam_demodulate(own, 4), bits[1])

    def test_weak_user_runs_zero_stages(self):
        alloc = PowerAllocation.testbed_default()
        bits, _, composite = self._composite(alloc)
        own, stages = sic_decode(composite, alloc, 1)
        assert stages == []
        assert np.array_equal(qam_demodulate(own, 4), bits[0])

    def test_three_user_residual_is_exact(self):
        # symbolic subtraction oracle: removing the true scaled symbols of
        # users 1 and 2 must leave sqrt(alpha_3) x_3 exactly
        alloc = PowerAllocation.testbed_default()
        bits, syms, composite = self._composite(alloc)
        own, stages = sic_decode(composite, alloc, 3)
        expected_residual = (
            composite - alloc.amplitudes[0] * syms[0] - alloc.amplitudes[1] * syms[1]
        )
        assert np.allclose(own * alloc.amplitudes[2], expected_residual, atol=1e-12)
        assert np.allclose(own, syms[2], atol=1e-9)
        decided = [_levels_to_bits(s, 4) for s in stages]
        assert [np.array_equal(d, b) for d, b in zip(decided, bits)] == [True, True]

    def test_rejects_bad_user_index(self):
        alloc = PowerAllocation((0.8, 0.2))
        with pytest.raises(ValueError):
            sic_decode(np.zeros(4, dtype=complex), alloc, 3)

    def test_noise_monotonicity(self):
        # mean BER of each user is nondecreasing in the injected noise power
        alloc = PowerAllocation.testbed_default()
        n = 40_000
        bits = [self.rng.integers(0, 2, 2 * n) for _ in range(3)]
        syms = [qam_modulate(b, 4) for b in bits]
        composite = sum(a * s for a, s in zip(alloc.amplitudes, syms))
        noise = self.rng.normal(size=(n, 2)) @ np.array([1, 1j])
        bers = []
        for snr_db in (24.0, 18.0, 12.0):
            sigma = np.sqrt(10 ** (-snr_db / 10) / 2)
            noisy = composite + sigma * noise
            row = []
            for k in (1, 2, 3):
                own, _ = sic_decode(noisy, alloc, k)
                row.append(np.mean(qam_demodulate(own, 4) != bits[k - 1]))
            bers.append(row)
        bers = np.asarray(bers)
        assert np.all(np.diff(bers, axis=0) >= 0)


class TestDownlinkFrame:
    def test_composite_pilot_reference_matches_transmission(self):
        cfg = FrameConfig()
        alloc = PowerAllocation.testbed_default()
        rng = np.random.default_rng(4)
        payloads = [rng.integers(0, 2, cfg.payload_bits) for _ in range(3)]
        tx = build_downlink_frame(payloads, cfg, alloc, pilot_seed=21)
        symbols = tx.reshape(cfg.symbols_per_frame, cfg.symbol_samples)
        composite_grid = disassemble_symbol(symbols, cfg, cfg.cp_length)
        reference = composite_pilot_values(cfg, alloc, 21)
        assert np.allclose(composite_grid[:, pilot_mask(cfg)], reference)
        assert len(tx) == cfg.frame_samples

    def test_per_user_pilot_sequences_differ(self):
        cfg = FrameConfig()
        a = np.asarray(user_pilot_seed(21, 1))
        b = np.asarray(user_pilot_seed(21, 2))
        assert not np.array_equal(a, b)

    def test_rejects_payload_count_mismatch(self):
        cfg = FrameConfig()
        with pytest.raises(ValueError):
            build_downlink_frame(
                [np.zeros(cfg.payload_bits, dtype=int)],
                cfg,
                PowerAllocation((0.8, 0.2)),
                7,
            )
