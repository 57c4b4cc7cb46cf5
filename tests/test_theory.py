"""The simulated link against a closed-form NOMA bit error rate.

Over a line-of-sight channel with no carrier offset, no wander and no
motion, the link reduces to AWGN, LS estimation, zero-forcing and hard
SIC. The BER of Gray 4QAM superposition under hard SIC then has an exact
form (after Kara & Kaya, "BER performances of downlink and uplink NOMA
in the presence of SIC errors over fading channels", IET Communications
12(15), 2018): each axis carries one bit of every user, and the received
axis value is the sum of the users' signed amplitudes plus Gaussian
noise. Averaging over the 2^K sign patterns, the error probability of
user k is the Gaussian mass of the intervals where the successive sign
decisions end with a wrong decision for k.

The simulated BER must sit between that curve with perfect channel
knowledge and the same curve with the SNR lowered by the loss of a
two-parameter LS fit on the pilots. The checks cover the measured fixed
allocation and the distance-squared allocation. For 16QAM each axis
carries a Gray 4-PAM level of every user instead of a sign, and SIC
decides and cancels levels; the same construction gives its exact BER.

The mobile-stage error floor of acceptance criterion 2 has a different
cause: the carrier wander draws a new offset for every OFDM symbol,
while CP sync estimates one offset per frame. The residual offset of
each symbol leaks into the other subcarriers. The last test pins that
cause: without the wander, or with one wander draw per frame, the floor
vanishes.
"""

import itertools
import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from nomalink.channel import ChannelParams
from nomalink.frame_codec import FrameConfig
from nomalink.scenario import ScenarioConfig, resolve_allocation, sweep_ber_vs_snr

SNR_GRID_DB = (6.0, 10.0, 14.0)
BITS_PER_POINT = 200_000


def _gaussian_mass(lo, hi, mean, sigma):
    """P(lo < mean + sigma * Z < hi) for a standard normal Z."""
    def upper_tail(x):
        return 0.5 * math.erfc((x - mean) / (sigma * math.sqrt(2.0)))

    return upper_tail(lo) - upper_tail(hi)


def _axis_levels(order):
    """Unit-energy axis values of square QAM, level index 0 (the largest) first."""
    levels = math.isqrt(order)
    norm = math.sqrt(2.0 * (order - 1) / 3.0)
    return [((levels - 1) - 2 * i) / norm for i in range(levels)]


def _sic_decisions(y, amplitudes, values):
    """Level decisions of every user on one axis value, far user first,
    each subtracting the earlier users' remodulated decisions."""
    residual, decided = y, []
    for amp in amplitudes:
        level = min(range(len(values)), key=lambda i: abs(residual - amp * values[i]))
        decided.append(level)
        residual -= amp * values[level]
    return decided


def theory_ber(snr_db, coefficients, user, order=4):
    """Exact BER of one user of Gray square-QAM superposition under hard SIC.

    ``snr_db`` is the per-subcarrier SNR: the composite symbol has unit
    power, and the complex noise on a subcarrier has power 10^(-snr/10).
    Each axis carries a Gray-mapped PAM level of every user, so the BER is
    that of one axis.
    """
    values = _axis_levels(order)
    bits_per_axis = int(math.log2(len(values)))
    gray = [i ^ (i >> 1) for i in range(len(values))]
    amplitudes = [math.sqrt(c) for c in coefficients]
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    # every decision threshold any SIC path can use on the received axis value
    midpoints = [(a + b) / 2 for a, b in zip(values, values[1:])]
    breaks = set()
    for j, amp in enumerate(amplitudes):
        for earlier in itertools.product(values, repeat=j):
            offset = sum(v * a for v, a in zip(earlier, amplitudes))
            breaks.update(offset + amp * m for m in midpoints)
    edges = [-math.inf, *sorted(breaks), math.inf]
    intervals = []
    for lo, hi in zip(edges, edges[1:]):
        mid = hi - 1.0 if lo == -math.inf else lo + 1.0 if hi == math.inf else (lo + hi) / 2
        intervals.append((lo, hi, _sic_decisions(mid, amplitudes, values)[user - 1]))
    patterns = list(itertools.product(range(len(values)), repeat=len(amplitudes)))
    error = 0.0
    for levels in patterns:
        sent = sum(values[i] * a for i, a in zip(levels, amplitudes))
        wrong_bits = [bin(gray[d] ^ gray[levels[user - 1]]).count("1") for d in range(len(values))]
        error += sum(
            _gaussian_mass(lo, hi, sent, sigma) * wrong_bits[decided]
            for lo, hi, decided in intervals
            if decided != levels[user - 1]
        )
    return error / (len(patterns) * bits_per_axis)


def test_single_user_matches_the_4qam_formula():
    # one user: the per-axis BER of Gray 4QAM, Q(sqrt(snr))
    for snr_db in (0.0, 6.0, 12.0):
        snr = 10.0 ** (snr_db / 10.0)
        expected = 0.5 * math.erfc(math.sqrt(snr / 2.0))
        assert theory_ber(snr_db, (1.0,), 1) == pytest.approx(expected, rel=1e-12)


def test_single_user_matches_the_16qam_formula():
    # one user: the mean BER of the two Gray bits of 4-PAM on each axis
    for snr_db in (0.0, 6.0, 12.0, 18.0):
        d = math.sqrt(10.0 ** (snr_db / 10.0) / 5.0)  # half level spacing / noise deviation
        q = [0.5 * math.erfc(m * d / math.sqrt(2.0)) for m in (1, 3, 5)]
        expected = (3.0 * q[0] + 2.0 * q[1] - q[2]) / 4.0
        assert theory_ber(snr_db, (1.0,), 1, 16) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("policy", ["fixed", "distance-squared"])
def test_sweep_ber_lies_between_perfect_and_ls_limited_theory(policy):
    cfg = ScenarioConfig(
        channel=ChannelParams(rician_k=math.inf, cfo_hz=0.0, cfo_jitter_hz=0.0),
        speed=0.0,
        power_policy=policy,
        seed=3,
    )
    curve = sweep_ber_vs_snr(cfg, SNR_GRID_DB, min_bits_per_point=BITS_PER_POINT)
    coefficients = resolve_allocation(cfg).coefficients
    frame = cfg.frame
    # the noise spreads over every FFT bin, the signal over the occupied ones
    bin_gain_db = 10.0 * math.log10(frame.fft_size / frame.total_subcarriers)
    # LS estimation of two parameters from the pilots adds noise to every decision
    ls_loss_db = 10.0 * math.log10(1.0 + 2.0 / frame.pilot_subcarriers)
    assert np.all(curve.bits >= BITS_PER_POINT)
    for i, snr_db in enumerate(curve.snr_db):
        for k in range(1, cfg.n_users + 1):
            band = [
                theory_ber(snr_db + bin_gain_db - loss, coefficients, k)
                for loss in (0.0, ls_loss_db)
            ]
            low, high = curve.ci_low[i, k - 1], curve.ci_high[i, k - 1]
            assert low <= max(band) and high >= min(band), (
                f"user {k} at {snr_db} dB: BER {curve.ber[i, k - 1]:.4g}"
                f" [{low:.4g}, {high:.4g}], theory {band[0]:.4g} to {band[1]:.4g}"
            )


def test_16qam_sweep_ber_lies_between_perfect_and_ls_limited_theory():
    # the fixed allocation overlaps the three 16QAM constellations, so SIC
    # decisions clip at the outer levels and the curves carry error floors
    cfg = ScenarioConfig(
        frame=FrameConfig(modulation_order=16),
        channel=ChannelParams(rician_k=math.inf, cfo_hz=0.0, cfo_jitter_hz=0.0),
        speed=0.0,
        seed=3,
    )
    curve = sweep_ber_vs_snr(cfg, SNR_GRID_DB, min_bits_per_point=BITS_PER_POINT)
    coefficients = resolve_allocation(cfg).coefficients
    frame = cfg.frame
    bin_gain_db = 10.0 * math.log10(frame.fft_size / frame.total_subcarriers)
    ls_loss_db = 10.0 * math.log10(1.0 + 2.0 / frame.pilot_subcarriers)
    # the two bits of one 4-PAM decision err together, which at most doubles
    # the variance of the error count; the z keeps all points jointly at 95%
    points = curve.ber.size
    z = statistics.NormalDist().inv_cdf(1.0 - 0.025 / points)
    assert np.all(curve.bits >= BITS_PER_POINT)
    for i, snr_db in enumerate(curve.snr_db):
        for k in range(1, cfg.n_users + 1):
            band = [
                theory_ber(snr_db + bin_gain_db - loss, coefficients, k, 16)
                for loss in (0.0, ls_loss_db)
            ]
            ber = curve.ber[i, k - 1]
            half = z * math.sqrt(2.0 * ber * (1.0 - ber) / curve.bits[i, k - 1])
            assert ber - half <= max(band) and ber + half >= min(band), (
                f"user {k} at {snr_db} dB: BER {ber:.4g} +- {half:.2g},"
                f" theory {band[0]:.4g} to {band[1]:.4g}"
            )


FLOOR_FRAME = FrameConfig()


@pytest.mark.parametrize(
    "channel_change, floor",
    [
        pytest.param({}, True, id="default"),
        pytest.param({"cfo_jitter_hz": 0.0}, False, id="no-wander"),
        pytest.param(
            {"cfo_jitter_tau_s": FLOOR_FRAME.frame_duration}, False, id="one-wander-draw-per-frame"
        ),
    ],
)
def test_the_error_floor_comes_from_carrier_wander_inside_a_frame(channel_change, floor):
    # criterion 2's config at its highest SNR point: the default gives
    # about 4.5e-4, 1.1e-3 and 3.3e-3 per user over 3e5 bits each
    cfg = ScenarioConfig(seed=7)
    assert cfg.frame == FLOOR_FRAME
    cfg = replace(cfg, channel=replace(cfg.channel, **channel_change))
    curve = sweep_ber_vs_snr(cfg, [40.0], min_bits_per_point=300_000)
    assert np.all(curve.bits >= 300_000)
    assert np.all(curve.lost_frames == 0)
    if floor:
        assert np.all(curve.ber > 0.0), curve.ber
    else:
        assert np.all(curve.ber == 0.0), curve.ber
