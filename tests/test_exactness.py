"""Trimmed per-frame stages against the code they replaced, bit for bit.

QAM decisions and modulation (now a level-table lookup), SIC
remodulation (a per-level lookup), the level decision's clipping (now
the ufuncs np.clip runs), the CP correlation and its accumulation over
symbols, the CFO correction (a cosine and sine of a real phase),
zero-forcing, the pilot EVM, the channel's noise addition, the sampled
fading of short rows, the channel's unit phasors, the keyed random
generators (seeded from uint32 words), the carrier wander (a block
longer than its row cut to the row) and the transmit chain's subcarrier
mapping were rewritten to do less work per frame.
``receive_user`` checks its row once and then runs unchecked stage
kernels; it is compared with the composition of the public stage
functions it once called. Each test keeps the replaced code here as the
reference and compares raw bytes, so even a changed sign of zero fails.
"""

import platform
import re
from dataclasses import replace

import numpy as np
import pytest

from nomalink.channel import (
    ChannelParams,
    MobilityState,
    _block_wander,
    _diffuse_gain,
    _diffuse_gain_sampled,
    _fading_seed,
    _keyed_rng,
    _noise_seed,
    _phasor,
    _sos_parameters,
    apply_channel,
)
from nomalink.frame_codec import (
    FrameConfig,
    _decide_levels,
    _levels_to_bits,
    assemble_frame,
    disassemble_symbol,
    occupied_bins,
    pilot_mask,
    pilot_values,
    qam_demodulate,
    qam_modulate,
)
from nomalink.noma import (
    PowerAllocation,
    build_downlink_frame,
    composite_pilot_values,
    sic_decode,
)
from nomalink.receiver import (
    SYNC_DETECTION_THRESHOLD,
    UserRxReport,
    correct_cfo,
    cp_ml_sync,
    evm_snr,
    ls_estimate_channel,
    receive_user,
    zf_equalize,
)
from nomalink.scenario import ScenarioConfig, run_v2x_scenario, sweep_ber_vs_snr

CFG = FrameConfig()
ALLOC = PowerAllocation.testbed_default()


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _axis_norm(order):
    return np.sqrt(2.0 * (order - 1) / 3.0)


def _reference_qam_demodulate(symbols, order):
    """Per-axis decisions with a per-bit loop, as before the change."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    p = int(np.log2(order)) // 2
    levels = int(np.sqrt(order))
    norm = _axis_norm(order)

    def axis_decision(vals):
        idx = np.clip(np.round(((levels - 1) - vals * norm) / 2.0), 0, levels - 1)
        v = idx.astype(np.int64)
        v = v ^ (v >> 1)
        out = np.empty((vals.size, p), dtype=np.uint8)
        for j in range(p):
            out[:, j] = (v >> (p - 1 - j)) & 1
        return out

    bits_i = axis_decision(symbols.real)
    bits_q = axis_decision(symbols.imag)
    return np.concatenate([bits_i, bits_q], axis=1).reshape(-1)


def _reference_qam_modulate(bits, order):
    p = int(np.log2(order)) // 2
    levels = int(np.sqrt(order))
    weights = 1 << np.arange(p - 1, -1, -1)
    groups = np.asarray(bits, dtype=np.int64).reshape(-1, 2 * p)

    def gray_decode(g):
        b = g.copy()
        shift = 1
        while shift < p:
            b ^= b >> shift
            shift *= 2
        return b

    amp_i = (levels - 1) - 2.0 * gray_decode(groups[:, :p] @ weights)
    amp_q = (levels - 1) - 2.0 * gray_decode(groups[:, p:] @ weights)
    return (amp_i + 1j * amp_q) / _axis_norm(order)


def _reference_sic_decode(symbols, alloc, user, order):
    """Stage decisions as bits, remodulated through the bit mapping."""
    residual = np.asarray(symbols, dtype=np.complex128).copy()
    amps = alloc.amplitudes
    stage_bits = []
    for j in range(user - 1):
        bits_j = _reference_qam_demodulate(residual / amps[j], order)
        stage_bits.append(bits_j)
        residual -= amps[j] * _reference_qam_modulate(bits_j, order)
    return residual / amps[user - 1], stage_bits


def _hard_axis_values(order, rng):
    """Axis values on and next to every decision threshold, signed zeros,
    huge magnitudes and random values."""
    levels = int(np.sqrt(order))
    thresholds = np.arange(-(levels - 2), levels - 1, 2) / _axis_norm(order)
    near = np.concatenate(
        [thresholds, np.nextafter(thresholds, np.inf), np.nextafter(thresholds, -np.inf)]
    )
    special = np.array([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324])
    return np.concatenate([near, special, rng.normal(0.0, 1.0, 200)])


@pytest.mark.parametrize("order", [4, 16, 64, 256, 1024])
def test_qam_decisions_and_sic_match_the_bit_round_trip(order):
    rng = np.random.default_rng(order)
    axis = _hard_axis_values(order, rng)
    # every axis value meets every other on the other axis
    symbols = (axis[:, None] + 1j * axis[None, :]).ravel()
    assert _same_bytes(qam_demodulate(symbols, order), _reference_qam_demodulate(symbols, order))

    bits = rng.integers(0, 2, 600 * int(np.log2(order)))
    assert _same_bytes(qam_modulate(bits, order), _reference_qam_modulate(bits, order))

    sent = [qam_modulate(rng.integers(0, 2, 2000 * int(np.log2(order))), order) for _ in range(3)]
    composite = sum(a * s for a, s in zip(ALLOC.amplitudes, sent))
    noisy = composite + 0.05 * (rng.normal(size=2000) + 1j * rng.normal(size=2000))
    for received in (noisy, symbols):
        for user in (1, 2, 3):
            own, stages = sic_decode(received, ALLOC, user, order)
            ref_own, ref_stages = _reference_sic_decode(received, ALLOC, user, order)
            assert _same_bytes(own, ref_own)
            assert len(stages) == len(ref_stages) == user - 1
            assert all(
                _same_bytes(_levels_to_bits(s, order), r) for s, r in zip(stages, ref_stages)
            )


def _reference_decide_levels(symbols, order):
    """The level decision with np.round and np.clip, as before the change."""
    levels = int(np.sqrt(order))
    vals = symbols.view(np.float64).reshape(-1, 2)
    idx = ((levels - 1) - vals * _axis_norm(order)) / 2.0
    return np.clip(np.round(idx), 0, levels - 1).astype(np.intp)


@pytest.mark.parametrize("order", [4, 16, 64])
def test_level_decisions_match_the_clip_form(order):
    levels = int(np.sqrt(order))
    # axis values whose unrounded level index is a half-way tie, and the
    # values one unit in the last place either side; ties between the
    # levels, half a level outside them and far outside them
    ties = ((levels - 1) - 2.0 * np.arange(-3.5, levels + 3.0)) / _axis_norm(order)
    near = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    axis = np.concatenate([near, [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324]])
    symbols = (axis[:, None] + 1j * axis[None, :]).ravel()
    idx = ((levels - 1) - symbols.view(np.float64) * _axis_norm(order)) / 2.0
    assert np.count_nonzero(idx % 1.0 == 0.5) >= levels  # exact ties are present
    got = _decide_levels(symbols, order)
    assert _same_bytes(got, _reference_decide_levels(symbols, order))
    assert got.min() == 0 and got.max() == levels - 1


def _reference_assemble_frame(payload, cfg, pilot_seed):
    """Pilots and data laid out on a symbols x occupied subcarriers grid
    first, then the grid mapped onto the FFT bins, as before the change."""
    payload = np.asarray(payload, dtype=np.int64)
    frames = payload.shape[:-1]
    mask = pilot_mask(cfg)
    data = qam_modulate(payload.reshape(-1), cfg.modulation_order)
    grid = np.empty((*frames, cfg.symbols_per_frame, cfg.total_subcarriers), dtype=np.complex128)
    grid[..., mask] = pilot_values(cfg, pilot_seed)
    grid[..., ~mask] = data.reshape(*frames, cfg.symbols_per_frame, cfg.data_subcarriers)
    spectra = np.zeros((*frames, cfg.symbols_per_frame, cfg.fft_size), dtype=np.complex128)
    spectra[..., occupied_bins(cfg)] = grid
    bodies = np.fft.ifft(spectra, axis=-1) * (cfg.fft_size / np.sqrt(cfg.total_subcarriers))
    with_cp = np.concatenate([bodies[..., cfg.fft_size - cfg.cp_length :], bodies], axis=-1)
    return with_cp.reshape(*frames, -1)


@pytest.mark.parametrize("order", [4, 16, 64])
@pytest.mark.parametrize("frames", [(), (3,)])
def test_direct_bin_mapping_matches_the_grid_route(order, frames):
    cfg = FrameConfig(modulation_order=order)
    payload = np.random.default_rng(order).integers(0, 2, (*frames, cfg.payload_bits))
    wave = assemble_frame(payload, cfg, (295, 2))
    assert _same_bytes(wave, _reference_assemble_frame(payload, cfg, (295, 2)))


def _reference_cp_ml_sync(r, cfg, detection_threshold=0.5):
    """The per-offset loop: four gathers per symbol period."""
    n_fft, cp, block = cfg.fft_size, cfg.cp_length, cfg.symbol_samples
    n_sym = min(cfg.symbols_per_frame, len(r) // block)
    theta_max = len(r) - n_sym * block
    prod = r[:-n_fft] * np.conj(r[n_fft:])
    power = 0.5 * (np.abs(r[:-n_fft]) ** 2 + np.abs(r[n_fft:]) ** 2)
    cum_prod = np.concatenate([[0.0 + 0.0j], np.cumsum(prod)])
    cum_power = np.concatenate([[0.0], np.cumsum(power)])
    theta = np.arange(theta_max + 1)
    gamma = np.zeros(theta.size, dtype=np.complex128)
    phi = np.zeros(theta.size, dtype=float)
    for s in range(n_sym):
        lo = theta + s * block
        gamma += cum_prod[lo + cp] - cum_prod[lo]
        phi += cum_power[lo + cp] - cum_power[lo]
    with np.errstate(invalid="ignore", divide="ignore"):
        metric = np.where(phi > 0, np.abs(gamma) / phi, 0.0)
    best = int(np.argmax(metric))
    peak = float(min(metric[best], 1.0))
    if peak < detection_threshold:
        return None
    cfo = -np.angle(gamma[best]) * cfg.sample_rate / (2.0 * np.pi * n_fft)
    return best, float(cfo).hex(), peak.hex()


def _sync_buffers():
    rng = np.random.default_rng(5)
    payloads = [rng.integers(0, 2, CFG.payload_bits) for _ in range(ALLOC.n_users)]
    tx = build_downlink_frame(payloads, CFG, ALLOC, 295)
    for delay, snr_db in ((17, 30.0), (200, 10.0), (1000, 3.0)):
        params = ChannelParams(
            rician_k=10.92, cfo_hz=310.0, delay_samples=delay, target_snr_db=snr_db
        )
        rx, _ = apply_channel(tx, CFG.sample_rate, params, MobilityState.static(2.0), seed=delay)
        yield rx
    # fewer whole symbol periods than a frame, and a tail past the last one
    yield rx[: 3 * CFG.symbol_samples + 140]
    # noise alone: the peak stays under the detection threshold
    yield rng.normal(size=4 * CFG.symbol_samples + 90) + 1j * rng.normal(
        size=4 * CFG.symbol_samples + 90
    )


@pytest.mark.parametrize("buffer", list(_sync_buffers()))
def test_cp_sync_matches_the_per_offset_loop(buffer):
    n_sym = min(CFG.symbols_per_frame, buffer.size // CFG.symbol_samples)
    assert buffer.size - n_sym * CFG.symbol_samples > 0  # several timing candidates
    expected = _reference_cp_ml_sync(buffer, CFG, detection_threshold=0.0)
    got = cp_ml_sync(buffer, CFG)
    assert (got.timing_offset, got.fractional_cfo_hz.hex(), got.metric_peak.hex()) == expected
    lost = _reference_cp_ml_sync(buffer, CFG) is None
    assert (got.metric_peak < SYNC_DETECTION_THRESHOLD) == lost


def _sync_edge_buffers():
    """Buffers of exactly one frame, as the replay hands them over (one
    timing candidate); a buffer led by silence, whose first candidates see
    no power; and a one-symbol frame whose only window sums to -0 on the
    quadrature axis."""
    rng = np.random.default_rng(9)
    payloads = [rng.integers(0, 2, CFG.payload_bits) for _ in range(ALLOC.n_users)]
    tx = build_downlink_frame(payloads, CFG, ALLOC, 295)
    frames = {}
    for snr_db in (30.0, 10.0, 0.0):
        params = ChannelParams(rician_k=10.92, cfo_hz=310.0, target_snr_db=snr_db)
        rx, _ = apply_channel(
            tx, CFG.sample_rate, params, MobilityState.static(2.0), seed=int(snr_db) + 1
        )
        frames[snr_db] = rx
        yield pytest.param(CFG, rx, id=f"one-frame-{snr_db:g}dB")
    yield pytest.param(CFG, np.zeros(CFG.frame_samples, dtype=complex), id="one-frame-silent")
    silence = np.zeros(CFG.frame_samples + 100, dtype=complex)
    yield pytest.param(CFG, np.concatenate([silence, frames[30.0]]), id="silence-first")
    # real samples whose repetition is negated: every product is negative
    # real with a -0 imaginary part, so the sign of zero picks the angle
    one = replace(CFG, symbols_per_frame=1)
    x = rng.uniform(0.5, 1.5, 2 * one.symbol_samples)
    x[one.fft_size : one.fft_size + one.cp_length] = -x[: one.cp_length]
    yield pytest.param(one, x.astype(complex), id="one-symbol-negative-zero")


@pytest.mark.parametrize("cfg, buffer", list(_sync_edge_buffers()))
def test_cp_sync_edge_cases_match_the_per_offset_loop(cfg, buffer):
    # the reference at threshold 0 returns every estimate, a zero metric included
    expected = _reference_cp_ml_sync(buffer, cfg, detection_threshold=0.0)
    got = cp_ml_sync(buffer, cfg)
    assert (got.timing_offset, got.fractional_cfo_hz.hex(), got.metric_peak.hex()) == expected
    lost = _reference_cp_ml_sync(buffer, cfg) is None
    assert (got.metric_peak < SYNC_DETECTION_THRESHOLD) == lost


@pytest.mark.parametrize(
    "cfo_hz, samples",
    [
        pytest.param(310.0, "noise", id="310.0"),
        pytest.param(-977.0, "noise", id="-977.0"),
        pytest.param(1e-3, "noise", id="0.001"),
        *(
            pytest.param(cfo_hz, samples, id=f"{cfo_hz}-{samples}")
            for cfo_hz in (-310.0, 977.0, 1e-300, -1e-300)
            for samples in ("noise", "signed-zeros")
        ),
        pytest.param(310.0, "signed-zeros", id="310.0-signed-zeros"),
        pytest.param(-977.0, "signed-zeros", id="-977.0-signed-zeros"),
    ],
)
def test_cfo_correction_of_a_row_matches_the_waveform_product(cfo_hz, samples):
    # the correction once multiplied the waveform's samples by the rotation
    rng = np.random.default_rng(13)
    row = rng.normal(size=CFG.frame_samples) + 1j * rng.normal(size=CFG.frame_samples)
    if samples == "signed-zeros":
        # every sign of zero on both axes, -0-0j at n = 0: a rotation whose
        # zero phase there had the wrong sign would change these bytes
        row = np.copysign(0.0, row.view(np.float64)).view(np.complex128)
        row[0] = complex(-0.0, -0.0)
    n = np.arange(row.size)
    expected = row * np.exp(-2j * np.pi * cfo_hz * n / CFG.sample_rate)
    assert _same_bytes(correct_cfo(row, cfo_hz, CFG.sample_rate), expected)


@pytest.mark.parametrize(
    "words, from_uint32",
    [
        ([0], True),
        ([2**32 - 1], True),
        ([10, 1, 3, 0], True),
        ([7, 20, 0, 5, 2], True),
        ([2**32], False),
        ([7, 2**64, 1], False),
    ],
)
def test_keyed_generators_equal_default_rng_of_the_words(words, from_uint32):
    got, expected = _keyed_rng(words), np.random.default_rng(words)
    # words of 2**32 and above split into several uint32 words in numpy's
    # coercion of the list, which then builds the generator
    assert isinstance(got.bit_generator.seed_seq.entropy, np.ndarray) == from_uint32
    assert got.bit_generator.state == expected.bit_generator.state
    assert _same_bytes(got.normal(size=64), expected.normal(size=64))
    assert _same_bytes(got.integers(0, 2, 64), expected.integers(0, 2, 64))
    assert _same_bytes(got.uniform(0.0, 2.0 * np.pi, 64), expected.uniform(0.0, 2.0 * np.pi, 64))


def test_a_negative_key_word_raises_as_default_rng_does():
    with pytest.raises(ValueError) as expected:
        np.random.default_rng([3, -1])
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        _keyed_rng([3, -1])


@pytest.mark.parametrize(
    "seed",
    [17, np.int64(3), np.array(9), [10, 1, 2], (4, 5), np.array([7, 20, 0, 5, 2]), [2**40]],
)
def test_key_words_are_those_of_atleast_1d(seed):
    words = [int(s) for s in np.atleast_1d(seed)]
    assert _fading_seed(seed) == words + [0]
    assert _noise_seed(seed, 4800) == words + [1, 4800]


def _reference_evm_snr(equalized_pilots, pilot_reference, cap_db=60.0):
    y = np.asarray(equalized_pilots, dtype=np.complex128)
    x = np.asarray(pilot_reference, dtype=np.complex128)
    evm = np.sqrt(np.mean(np.abs(y - x) ** 2, axis=-1) / float(np.mean(np.abs(x) ** 2)))
    with np.errstate(divide="ignore"):
        snr = np.minimum(-20.0 * np.log10(evm), cap_db)
    snr = np.where(evm <= 10.0 ** (-cap_db / 20.0), cap_db, snr)
    return float(snr) if snr.ndim == 0 else snr


def test_evm_snr_matches_the_errstate_formula():
    cap = 10.0 ** (-60.0 / 20.0)
    evms = np.array([0.0, np.nextafter(cap, 0.0), cap, np.nextafter(cap, 1.0), 0.3, np.nan])
    # one unit pilot and a quadrature error: the EVM is the error itself
    x = np.ones(1, dtype=complex)
    y = x + 1j * evms[:, None]
    assert _same_bytes(np.sqrt(np.mean(np.abs(y - x) ** 2, axis=-1)), evms)
    for row in y:
        assert evm_snr(row, x).hex() == _reference_evm_snr(row, x).hex()
    assert _same_bytes(evm_snr(y, x), _reference_evm_snr(y, x))
    assert evm_snr(y, x)[2] == 60.0

    rng = np.random.default_rng(12)
    pilots = composite_pilot_values(CFG, ALLOC, 295)
    for scale in (1e-4, 1e-2, 1.0):
        noisy = pilots + scale * (rng.normal(size=(5, 25)) + 1j * rng.normal(size=(5, 25)))
        assert _same_bytes(evm_snr(noisy, pilots), _reference_evm_snr(noisy, pilots))
        assert evm_snr(noisy[0], pilots).hex() == _reference_evm_snr(noisy[0], pilots).hex()


def _reference_zf_equalize(row, estimate, threshold=1e-8):
    erased = np.abs(estimate) < threshold
    out = np.zeros_like(row)
    ok = ~erased
    out[ok] = row[ok] / estimate[ok]
    return out, erased


@pytest.mark.parametrize("shape", [(150,), (5, 150)])
def test_zf_equalize_matches_masked_division_with_erasures(shape):
    rng = np.random.default_rng(2)
    row = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    estimate = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = estimate.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = 1e-9 * (1 - 1j)
    flat[5::13] = 2e-8  # just above the threshold: divided, not erased
    out, erased = zf_equalize(row, estimate)
    ref_out, ref_erased = _reference_zf_equalize(row, estimate)
    assert erased.any() and not erased.all()
    assert _same_bytes(out, ref_out)
    assert _same_bytes(erased, ref_erased)


@pytest.mark.parametrize(
    "params, per_frame_seeds",
    [
        (ChannelParams(rician_k=3.0, doppler_hz=6.8, cfo_hz=100.0, cfo_jitter_hz=55.0,
                       noise_power_dbm=-5.0), False),
        (ChannelParams(rician_k=10.92, doppler_hz=6.8, cfo_jitter_hz=55.0,
                       target_snr_db=4.0, delay_samples=9), True),
    ],
)
def test_noisy_channel_block_matches_complex_noise_sum(params, per_frame_seeds):
    frames = 6
    rng = np.random.default_rng(8)
    tx = rng.normal(size=(frames, 800)) + 1j * rng.normal(size=(frames, 800))
    mobility = MobilityState(2.0, 1.0, stationary_end=0.002, mobile_end=1.0, speed=0.876)
    t0 = np.arange(frames) * 800 / CFG.sample_rate
    seeds = [[4, t, 1] for t in range(frames)] if per_frame_seeds else [4, 1]
    rx, truth = apply_channel(tx, CFG.sample_rate, params, mobility, seed=seeds, t0=t0)
    quiet = replace(params, target_snr_db=None, noise_power_dbm=None)
    noiseless, _ = apply_channel(tx, CFG.sample_rate, quiet, mobility, seed=seeds, t0=t0)

    fs = CFG.sample_rate
    n = noiseless.shape[1]
    for f in range(frames):
        seed = seeds[f] if per_frame_seeds else seeds
        draws = np.random.default_rng(_noise_seed(seed, int(round(t0[f] * fs))))
        # the wander comes first
        _block_wander(draws, n, params.cfo_jitter_hz, params.cfo_jitter_tau_s * fs)
        w = draws.normal(0.0, np.sqrt(truth.noise_power[f] / 2.0), (n, 2))
        expected = noiseless[f] + w[:, 0] + 1j * w[:, 1]
        assert _same_bytes(rx[f], expected), f"frame {f}"


# the row of a default frame; a wander block of 320 samples, one of the row's
# length, one just short of and just past it, and one three rows long
@pytest.mark.parametrize("block_samples", [320.0, 1599.4, 1599.5, 1600.0, 1600.7, 4800.0])
def test_wander_blocks_match_the_unclamped_repeat(block_samples):
    n = 1600
    step = max(1, int(round(block_samples)))
    old, new = np.random.default_rng(3), np.random.default_rng(3)
    expected = np.repeat(old.normal(0.0, 55.0, -(-n // step)), step)[:n]
    assert _same_bytes(_block_wander(new, n, 55.0, block_samples), expected)
    # the noise draws that follow from the same generator are the same too
    assert new.bit_generator.state == old.bit_generator.state


@pytest.mark.parametrize("n, spacing_s", [(4, 1e-4), (4, 2e-6), (40, 5e-4)])
def test_rows_with_a_knot_per_sample_equal_the_direct_sum(n, spacing_s):
    # at 2 kHz each of these rows needs at least as many knots as samples
    rng = np.random.default_rng(n)
    rows = 6
    drawn = [_sos_parameters(np.random.default_rng([5, r]), 64) for r in range(rows)]
    angles, phases = (np.stack(v) for v in zip(*drawn))
    tau = rng.uniform(0.0, 2.0, (rows, 1)) + np.arange(n) * spacing_s
    out = _diffuse_gain_sampled(angles, phases, 2000.0, tau)
    for r in range(rows):
        assert _same_bytes(out[r], _diffuse_gain(angles[r], phases[r], 2000.0, tau[r])), r


_PHASOR_PINNED = {"python": "3.11.7", "numpy": "2.4.6"}
_phasor_versions = {"python": platform.python_version(), "numpy": np.__version__}


def _channel_phases():
    """Every phase array one moving, offset, wandering apply_channel call
    turns into a phasor: the sampled fading's knot arguments and the
    carrier rotation's ramp."""
    seen = []

    def recording(theta, out=None):
        seen.append(np.array(theta))
        return _phasor(theta, out)

    params = ChannelParams(doppler_hz=6.8, cfo_hz=-350.0, cfo_jitter_hz=55.0, delay_samples=9)
    mobility = MobilityState(2.0, 1.0, stationary_end=0.001, mobile_end=1.0, speed=0.876)
    rng = np.random.default_rng(12)
    tx = rng.normal(size=(4, 1600)) + 0j
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nomalink.channel._phasor", recording)
        apply_channel(tx, CFG.sample_rate, params, mobility, seed=[6, 2], t0=np.arange(4) * 0.0032)
    # the knots come in one call per knot count, the carrier ramp last
    assert len(seen) >= 2 and np.ptp(seen[-1]) > 1.0
    return seen


def _long_row_phases():
    """Fading arguments of a 1e6-sample row at 1 Hz sampling and 0.4 Hz
    Doppler, up to about 2.5e6 rad, for four of its sinusoids."""
    angles, phases = _sos_parameters(np.random.default_rng([17, 0]), 64)
    rates = 2.0 * np.pi * 0.4 * np.cos(angles[:4])
    tau = np.arange(1_000_000) / 1.0
    return [rate * tau + phi for rate, phi in zip(rates, phases[:4])]


_phasor_pinned = pytest.mark.skipif(
    _phasor_versions != _PHASOR_PINNED,
    reason=f"identity pinned for {_PHASOR_PINNED}, running {_phasor_versions}",
)


@_phasor_pinned
def test_phasor_matches_complex_exp_of_an_imaginary_phase():
    # np.exp(1j * theta) multiplies exp(+-0.0) = 1 into libm's cosine and
    # sine; a numpy whose sin or cos leave libm fails here by name instead
    # of through a golden digest
    quarter_turns = np.arange(-16, 17) * (np.pi / 2)
    large = np.geomspace(1.0, 1e8, 400)
    thetas = [
        *_channel_phases(),
        *_long_row_phases(),
        np.concatenate([[0.0], quarter_turns, large, -large]),
        np.random.default_rng(3).uniform(-1e8, 1e8, 10_000),
    ]
    for theta in thetas:
        assert _same_bytes(_phasor(theta), np.exp(1j * theta))
    # -0.0 is the one input where the two differ: 1j * -0.0 has a +0.0
    # imaginary part, so only the sign of the sine's zero changes
    at_negative_zero, reference = _phasor(np.array([-0.0])), np.exp(1j * np.array([-0.0]))
    assert at_negative_zero == reference
    assert np.signbit(at_negative_zero.imag) and not np.signbit(reference.imag)


@_phasor_pinned
@pytest.mark.parametrize(
    "params, mobility",
    [
        # a negative CFO that underflows to a -0.0 phase step: with Rayleigh
        # gains in every quadrant, the noiseless delay prefix's zero
        # samples carry the rotation's sign of zero into rx
        (
            ChannelParams(rician_k=0.0, cfo_hz=-1e-320, delay_samples=9),
            MobilityState.static(1.0),
        ),
        (
            ChannelParams(rician_k=0.0, cfo_hz=-1e-320, doppler_hz=6.8, delay_samples=9),
            MobilityState(2.0, 1.0, stationary_end=0.001, mobile_end=1.0, speed=0.876),
        ),
        (
            ChannelParams(doppler_hz=6.8, cfo_hz=-350.0, cfo_jitter_hz=55.0, delay_samples=17),
            MobilityState(2.0, 1.0, stationary_end=0.001, mobile_end=1.0, speed=0.876),
        ),
    ],
    ids=["subnormal_cfo_static", "subnormal_cfo_starts_moving", "wander_offset"],
)
def test_channel_output_equals_the_complex_exp_rotation(params, mobility):
    rng = np.random.default_rng(21)
    tx = rng.normal(size=(3, 1600)) + 1j * rng.normal(size=(3, 1600))
    t0 = np.arange(3) * 0.0008
    rx, truth = apply_channel(tx, CFG.sample_rate, params, mobility, seed=[6, 2], t0=t0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nomalink.channel._phasor", lambda theta, out=None: np.exp(1j * theta))
        ref_rx, ref_truth = apply_channel(tx, CFG.sample_rate, params, mobility, seed=[6, 2], t0=t0)
    assert _same_bytes(rx, ref_rx)
    assert _same_bytes(truth.tap_gain, ref_truth.tap_gain)


@pytest.mark.parametrize("shape", [(8, 1600), (8, 1856), (3, 2100), (2, 20_000), (2,)])
def test_channel_products_in_place_equal_the_named_products(shape):
    # apply_channel multiplies path loss, fading, signal and carrier rotation
    # into one buffer; a one-sample product takes another numpy loop and may
    # round differently, so no shape here has a single element
    rng = np.random.default_rng(shape[-1])
    for _ in range(5):
        amp = rng.uniform(0.1, 2.0, shape)
        h, x = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
        rotation = _phasor(rng.uniform(0.0, 2.0 * np.pi, shape))
        gain = amp * h
        carried = gain * x
        expected = carried * rotation
        got = amp * h
        got *= x
        got *= rotation
        assert _same_bytes(got, expected)


def _staged_receive(rx, cfg, alloc, user, pilot_seed, sync_threshold):
    """receive_user as the composition of the public stage functions: the
    whole buffer corrected for the CFO, every check run at every stage."""
    sync = cp_ml_sync(rx, cfg)
    if sync.metric_peak < sync_threshold:
        return UserRxReport.lost(sync.metric_peak)
    corrected = correct_cfo(rx, sync.fractional_cfo_hz, cfg.sample_rate)
    frame = corrected[sync.timing_offset : sync.timing_offset + cfg.frame_samples]
    mask = pilot_mask(cfg)
    reference = composite_pilot_values(cfg, alloc, pilot_seed)
    rows = disassemble_symbol(
        frame.reshape(cfg.symbols_per_frame, cfg.symbol_samples), cfg, cfg.cp_length
    )
    estimate = ls_estimate_channel(rows, mask, reference)
    equalized, erased = zf_equalize(rows, estimate)
    if np.any(np.all(erased, axis=-1)):
        return UserRxReport.lost(sync.metric_peak)
    snr_db = evm_snr(equalized[:, mask], reference)
    data_symbols = equalized[:, ~mask].reshape(-1)
    own, stage_levels = sic_decode(data_symbols, alloc, user, cfg.modulation_order)
    return UserRxReport(
        bits=qam_demodulate(own, cfg.modulation_order),
        estimated_snr_db=snr_db,
        estimated_cfo_hz=sync.fractional_cfo_hz,
        detected=True,
        stage_levels=tuple(stage_levels),
        sync_metric=sync.metric_peak,
    )


def _report_bytes(report):
    return (
        report.detected,
        report.bits.dtype.str,
        report.bits.tobytes(),
        np.asarray(report.estimated_snr_db).dtype.str,
        np.asarray(report.estimated_snr_db).shape,
        np.asarray(report.estimated_snr_db).tobytes(),
        float(report.estimated_cfo_hz).hex(),
        float(report.sync_metric).hex(),
        tuple((levels.dtype.str, levels.shape, levels.tobytes()) for levels in report.stage_levels),
    )


def _assert_receive_matches_the_stages(rx, cfg, alloc, users, pilot_seed, sync_threshold):
    for user in users:
        got = receive_user(rx, cfg, alloc, user, pilot_seed, sync_threshold)
        expected = _staged_receive(rx, cfg, alloc, user, pilot_seed, sync_threshold)
        assert _report_bytes(got) == _report_bytes(expected), user


def _pipeline_rows():
    """The rows the replay and a 0 dB sweep point hand to receive_user, with
    their arguments: detected rows and rows lost to a low sync peak."""
    recorded = []

    def record(rx, cfg, alloc, user, pilot_seed, sync_threshold):
        recorded.append((np.array(rx), cfg, alloc, user, pilot_seed, sync_threshold))
        return receive_user(rx, cfg, alloc, user, pilot_seed, sync_threshold=sync_threshold)

    # the benchmark's short replay: 179 frames x 3 users, both stages
    short = ScenarioConfig(stationary_duration=0.2165, travel_duration=0.358, total_duration=0.574)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("nomalink.scenario.receive_user", record)
        run_v2x_scenario(short)
        replay_rows = len(recorded)
        sweep_ber_vs_snr(ScenarioConfig(seed=7), [0.0], min_bits_per_point=100_000)
    assert replay_rows == 179 * 3
    return recorded


def test_receive_user_matches_the_stages_on_pipeline_rows():
    rows = _pipeline_rows()
    lost = 0
    for rx, cfg, alloc, user, pilot_seed, sync_threshold in rows:
        _assert_receive_matches_the_stages(rx, cfg, alloc, [user], pilot_seed, sync_threshold)
        lost += cp_ml_sync(rx, cfg).metric_peak < sync_threshold
    assert 0 < lost < len(rows)


def _constructed_rows():
    """Rows the pipeline never builds: sync at a timing past 0, a delayed
    frame, noiseless frames, one of them with a CFO estimate of -0.0, rows
    lost to a low peak or to erasure, and 16QAM. Each gives the row, the
    sync threshold, the expected timing (None for a low peak) and whether
    the CFO estimate is zero."""
    rng = np.random.default_rng(33)
    qam16 = FrameConfig(modulation_order=16)
    for cfg in (CFG, qam16):
        payloads = [rng.integers(0, 2, cfg.payload_bits) for _ in range(ALLOC.n_users)]
        tx = build_downlink_frame(payloads, cfg, ALLOC, 295)
        params = ChannelParams(rician_k=10.92, cfo_hz=310.0, target_snr_db=30.0)
        rx, _ = apply_channel(tx, cfg.sample_rate, params, MobilityState.static(2.0), seed=34)
        name = f"{cfg.modulation_order}qam"
        yield pytest.param(cfg, rx, 0.5, 0, False, id=f"{name}-one-frame")
        noise = 0.03 * (rng.normal(size=(2, 300)) + 1j * rng.normal(size=(2, 300)))
        longer = np.concatenate([noise[0, :150], rx, noise[1, :90]])
        yield pytest.param(cfg, longer, 0.5, 150, False, id=f"{name}-longer-buffer")
        delayed = replace(params, cfo_hz=-220.0, target_snr_db=25.0, delay_samples=17)
        rx, _ = apply_channel(tx, cfg.sample_rate, delayed, MobilityState.static(2.0), seed=35)
        yield pytest.param(cfg, rx, 0.5, 17, False, id=f"{name}-delay-17")
    payloads = [rng.integers(0, 2, CFG.payload_bits) for _ in range(ALLOC.n_users)]
    tx = build_downlink_frame(payloads, CFG, ALLOC, 295)
    yield pytest.param(CFG, tx, 0.5, 0, False, id="noiseless")
    # real samples make every product real: the estimate is -0.0, and a
    # correction of -0.0 leaves the samples as they are
    real = tx.real.astype(complex)
    yield pytest.param(CFG, real, 0.5, 0, True, id="noiseless-real-zero-cfo")
    silent = np.zeros(CFG.frame_samples, dtype=complex)
    yield pytest.param(CFG, silent, 0.0, 0, True, id="all-erased")
    noise = rng.normal(size=CFG.frame_samples + 40) + 1j * rng.normal(size=CFG.frame_samples + 40)
    yield pytest.param(CFG, noise, 0.5, None, False, id="low-sync-peak")


@pytest.mark.parametrize("cfg, rx, sync_threshold, timing, zero_cfo", list(_constructed_rows()))
def test_receive_user_matches_the_stages_on_constructed_rows(
    cfg, rx, sync_threshold, timing, zero_cfo
):
    sync = cp_ml_sync(rx, cfg)
    if timing is None:
        assert sync.metric_peak < sync_threshold
    else:
        assert sync.timing_offset == timing and sync.metric_peak >= sync_threshold
    assert (sync.fractional_cfo_hz == 0.0) == zero_cfo
    users = range(1, ALLOC.n_users + 1)
    _assert_receive_matches_the_stages(rx, cfg, ALLOC, users, 295, sync_threshold)
