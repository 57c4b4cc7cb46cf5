"""Bit mapping, frame assembly, and transform-inverse checks."""

import numpy as np
import pytest

from nomalink.frame_codec import (
    FrameConfig,
    _modulate,
    _pilot_values,
    assemble_frame,
    disassemble_symbol,
    occupied_bins,
    pilot_mask,
    qam_demodulate,
)
from nomalink.noma import PowerAllocation, _composite_pilots, build_downlink_frame

RT2 = np.sqrt(2.0)


def _subcarriers(wave, cfg):
    """The occupied subcarriers of every symbol of a frame, read back from its waveform."""
    symbols = wave.reshape(cfg.symbols_per_frame, cfg.symbol_samples)
    return disassemble_symbol(symbols, cfg, cfg.cp_length)


def _sent_grid(bits, cfg, pilot_seed):
    """The symbols x occupied subcarriers a frame carries, from the pilots and the Gray map."""
    mask = pilot_mask(cfg)
    grid = np.empty((cfg.symbols_per_frame, cfg.total_subcarriers), dtype=complex)
    grid[:, mask] = _pilot_values(cfg, pilot_seed)
    grid[:, ~mask] = _modulate(bits, cfg.modulation_order).reshape(
        cfg.symbols_per_frame, cfg.data_subcarriers
    )
    return grid


@pytest.fixture
def cfg():
    return FrameConfig()


class TestFrameConfig:
    def test_defaults(self, cfg):
        assert cfg.total_subcarriers == 150
        assert cfg.payload_bits == 1250
        assert cfg.frame_samples == 5 * (256 + 64) == 1600
        assert cfg.subcarrier_spacing == pytest.approx(500_000 / 256)

    def test_occupied_fit_validation(self):
        with pytest.raises(ValueError):
            FrameConfig(fft_size=128)

    def test_order_must_be_square(self):
        with pytest.raises(ValueError):
            FrameConfig(modulation_order=8)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sample_rate", np.nan),
            ("sample_rate", np.inf),
            ("carrier_frequency", np.nan),
            ("carrier_frequency", -1.0),
        ],
    )
    def test_rejects_a_rate_that_is_not_positive_and_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}"):
            FrameConfig(**{field: value})


class TestQamMapping:
    def test_gray_corners(self):
        # (b1, b0) -> ((1-2 b1) + j (1-2 b0)) / sqrt(2)
        assert _modulate(np.array([0, 0]), 4)[0] == pytest.approx((1 + 1j) / RT2)
        assert _modulate(np.array([1, 1]), 4)[0] == pytest.approx((-1 - 1j) / RT2)
        assert _modulate(np.array([0, 1]), 4)[0] == pytest.approx((1 - 1j) / RT2)
        assert _modulate(np.array([1, 0]), 4)[0] == pytest.approx((-1 + 1j) / RT2)

    def test_1250_bits_make_625_symbols(self):
        bits = np.random.default_rng(0).integers(0, 2, 1250)
        assert _modulate(bits, 4).size == 625

    def test_unit_average_energy(self):
        rng = np.random.default_rng(1)
        for order in (4, 16, 64):
            bits = rng.integers(0, 2, 6000 * int(np.log2(order)))
            syms = _modulate(bits, order)
            assert np.mean(np.abs(syms) ** 2) == pytest.approx(1.0, abs=2e-2)
        # 4QAM is exactly unit energy symbol by symbol
        assert np.abs(_modulate(np.array([1, 0]), 4)) == pytest.approx(1.0)

    def test_deterministic(self):
        bits = np.random.default_rng(2).integers(0, 2, 100)
        assert np.array_equal(_modulate(bits, 4), _modulate(bits, 4))


class TestQamDemodulation:
    def test_exact_points(self):
        assert np.array_equal(qam_demodulate([(1 + 1j) / RT2], 4), [0, 0])
        assert np.array_equal(qam_demodulate([(-1 - 1j) / RT2], 4), [1, 1])

    def test_nearest_neighbour(self):
        assert np.array_equal(qam_demodulate([(0.9 + 1.1j) / RT2], 4), [0, 0])

    def test_roundtrip_1250_bits(self):
        bits = np.random.default_rng(3).integers(0, 2, 1250)
        assert np.array_equal(qam_demodulate(_modulate(bits, 4), 4), bits)

    @pytest.mark.parametrize("order", [4, 16, 64])
    def test_roundtrip_higher_orders(self, order):
        bits = np.random.default_rng(4).integers(0, 2, 300 * int(np.log2(order)))
        assert np.array_equal(qam_demodulate(_modulate(bits, order), order), bits)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            qam_demodulate([np.inf + 0j], 4)


class TestPilots:
    def test_layout(self, cfg):
        mask = pilot_mask(cfg)
        assert mask.sum() == 25
        assert np.array_equal(np.flatnonzero(mask), np.arange(25) * 6)

    def test_values_reproducible_bpsk(self, cfg):
        a = _pilot_values(cfg, 99)
        b = _pilot_values(cfg, 99)
        c = _pilot_values(cfg, 100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert np.all(np.isin(a.real, (-1.0, 1.0))) and np.all(a.imag == 0)

    @pytest.mark.parametrize(
        "table",
        [
            occupied_bins,
            pilot_mask,
            lambda cfg: _pilot_values(cfg, (295, 2)),
            lambda cfg: _composite_pilots(cfg, PowerAllocation.testbed_default(), 295),
        ],
        ids=["occupied_bins", "pilot_mask", "pilot_values", "composite_pilot_values"],
    )
    def test_layout_tables_are_shared_and_read_only(self, cfg, table):
        # every frame reads the same cached array: a write would change them all
        first = table(cfg)
        assert table(FrameConfig()) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0] = first[1]


class TestAssembleFrame:
    def test_waveform_length(self, cfg):
        bits = np.random.default_rng(5).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        assert len(wave) == 1600

    def test_rejects_wrong_payload_length(self, cfg):
        with pytest.raises(ValueError):
            assemble_frame(np.zeros(100, dtype=int), cfg, 7)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, bool, np.float64])
    def test_integer_bool_and_whole_float_bits_give_the_same_samples(self, cfg, dtype):
        alloc = PowerAllocation.testbed_default()
        bits = np.random.default_rng(14).integers(0, 2, (3, 2, cfg.payload_bits))
        frame = assemble_frame(bits[0].astype(dtype), cfg, 7)
        assert frame.tobytes() == assemble_frame(bits[0], cfg, 7).tobytes()
        tx = build_downlink_frame(list(bits.astype(dtype)), cfg, alloc, 7)
        assert tx.tobytes() == build_downlink_frame(list(bits), cfg, alloc, 7).tobytes()

    def test_all_zero_payload_constant_data(self, cfg):
        wave = assemble_frame(np.zeros(cfg.payload_bits, dtype=int), cfg, 7)
        data = _subcarriers(wave, cfg)[:, ~pilot_mask(cfg)]
        assert np.allclose(data, (1 + 1j) / RT2)

    def test_cyclic_prefix_property(self, cfg):
        bits = np.random.default_rng(6).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        for s in range(cfg.symbols_per_frame):
            sym = wave[s * cfg.symbol_samples : (s + 1) * cfg.symbol_samples]
            head, tail = sym[: cfg.cp_length], sym[cfg.fft_size :]
            corr = np.abs(np.vdot(head, tail)) / np.sqrt(
                np.sum(np.abs(head) ** 2) * np.sum(np.abs(tail) ** 2)
            )
            assert corr == pytest.approx(1.0, abs=1e-12)

    def test_occupied_subcarrier_energy(self, cfg):
        bits = np.random.default_rng(7).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        assert np.mean(np.abs(_subcarriers(wave, cfg)) ** 2) == pytest.approx(1.0, abs=1e-9)

    def test_pilot_positions_stable_across_frames(self, cfg):
        rng = np.random.default_rng(8)
        mask = pilot_mask(cfg)
        for _ in range(3):
            wave = assemble_frame(rng.integers(0, 2, cfg.payload_bits), cfg, 7)
            assert np.allclose(_subcarriers(wave, cfg)[:, mask], _pilot_values(cfg, 7), atol=1e-9)

    def test_dc_bin_unoccupied(self, cfg):
        assert 0 not in occupied_bins(cfg)

    def test_unit_mean_body_power(self, cfg):
        # per-symbol FFT body carries unit mean power (the prefix repeats a
        # tail segment, so whole-waveform power wiggles with the payload)
        bits = np.random.default_rng(9).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        bodies = wave.reshape(cfg.symbols_per_frame, -1)[:, cfg.cp_length :]
        assert np.mean(np.abs(bodies) ** 2) == pytest.approx(1.0, rel=1e-9)


class TestDisassembleSymbol:
    def test_exact_inverse(self, cfg):
        bits = np.random.default_rng(10).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        grid = _sent_grid(bits, cfg, 7)
        for s in range(cfg.symbols_per_frame):
            row = disassemble_symbol(
                wave, cfg, s * cfg.symbol_samples + cfg.cp_length
            )
            assert np.allclose(row, grid[s], atol=1e-9)

    def test_offset_within_cp_recoverable_with_phase_ramp(self, cfg):
        # starting 3 samples inside the CP circularly rotates the body; a
        # per-bin phase ramp exp(+j 2 pi k m / N) undoes it (brute-force
        # oracle over the occupied bin indices)
        m = 3
        bits = np.random.default_rng(11).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        row = disassemble_symbol(wave, cfg, cfg.cp_length - m)
        bins = occupied_bins(cfg)
        ramp = np.exp(2j * np.pi * bins * m / cfg.fft_size)
        assert np.allclose(row * ramp, _sent_grid(bits, cfg, 7)[0], atol=1e-9)
        recovered = qam_demodulate((row * ramp)[~pilot_mask(cfg)], 4)
        assert np.array_equal(recovered, bits[: 125 * 2])

    def test_offset_beyond_cp_breaks_decisions(self, cfg):
        # starting 130 samples early reaches well past the prefix into the
        # previous symbol: even with the matching phase ramp applied, the
        # intersymbol interference produces decision errors (simulation
        # oracle; an offset within the prefix decodes cleanly above)
        bits = np.random.default_rng(12).integers(0, 2, cfg.payload_bits)
        wave = assemble_frame(bits, cfg, 7)
        early = 130
        start = 2 * cfg.symbol_samples + cfg.cp_length - early
        row = disassemble_symbol(wave, cfg, start)
        bins = occupied_bins(cfg)
        ramp = np.exp(2j * np.pi * bins * early / cfg.fft_size)
        recovered = qam_demodulate((row * ramp)[~pilot_mask(cfg)], 4)
        sent = bits[2 * 250 : 3 * 250]
        assert np.count_nonzero(recovered != sent) > 0

    def test_short_segment_is_rejected(self, cfg):
        with pytest.raises(ValueError, match="segment too short"):
            disassemble_symbol(np.zeros(100, dtype=complex), cfg, 0)

    def test_full_roundtrip_bits(self, cfg):
        rng = np.random.default_rng(13)
        for seed in (1, 2):
            bits = rng.integers(0, 2, cfg.payload_bits)
            wave = assemble_frame(bits, cfg, seed)
            out = []
            for s in range(cfg.symbols_per_frame):
                row = disassemble_symbol(
                    wave, cfg, s * cfg.symbol_samples + cfg.cp_length
                )
                out.append(qam_demodulate(row[~pilot_mask(cfg)], 4))
            assert np.array_equal(np.concatenate(out), bits)
