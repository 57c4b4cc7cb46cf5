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
allocation and the distance-squared allocation.
"""

import itertools
import math

import numpy as np
import pytest

from nomalink.channel import ChannelParams
from nomalink.scenario import ScenarioConfig, resolve_allocation, sweep_ber_vs_snr

SNR_GRID_DB = (6.0, 10.0, 14.0)
BITS_PER_POINT = 200_000


def _gaussian_mass(lo, hi, mean, sigma):
    """P(lo < mean + sigma * Z < hi) for a standard normal Z."""
    def upper_tail(x):
        return 0.5 * math.erfc((x - mean) / (sigma * math.sqrt(2.0)))

    return upper_tail(lo) - upper_tail(hi)


def _sic_decisions(y, amplitudes):
    """Sign decisions of every user on one axis value, far user first,
    each subtracting the earlier users' remodulated decisions."""
    residual, signs = y, []
    for amp in amplitudes:
        sign = 1.0 if residual >= 0.0 else -1.0
        signs.append(sign)
        residual -= amp * sign
    return signs


def theory_ber(snr_db, coefficients, user):
    """Exact BER of one user of Gray 4QAM superposition under hard SIC.

    ``snr_db`` is the per-subcarrier SNR: the composite symbol has unit
    power, and the complex noise on a subcarrier has power 10^(-snr/10).
    """
    # per-axis amplitude of each user, and the per-axis noise deviation
    amplitudes = [math.sqrt(c / 2.0) for c in coefficients]
    sigma = math.sqrt(10.0 ** (-snr_db / 10.0) / 2.0)
    # every decision threshold any SIC path can use on the received axis value
    breaks = {0.0}
    for j in range(1, len(amplitudes)):
        for signs in itertools.product((-1.0, 1.0), repeat=j):
            breaks.add(sum(s * a for s, a in zip(signs, amplitudes)))
    edges = [-math.inf, *sorted(breaks), math.inf]
    intervals = []
    for lo, hi in zip(edges, edges[1:]):
        mid = hi - 1.0 if lo == -math.inf else lo + 1.0 if hi == math.inf else (lo + hi) / 2
        intervals.append((lo, hi, _sic_decisions(mid, amplitudes)[user - 1]))
    patterns = list(itertools.product((-1.0, 1.0), repeat=len(amplitudes)))
    error = 0.0
    for signs in patterns:
        sent = sum(s * a for s, a in zip(signs, amplitudes))
        error += sum(
            _gaussian_mass(lo, hi, sent, sigma)
            for lo, hi, decided in intervals
            if decided != signs[user - 1]
        )
    return error / len(patterns)


def test_single_user_matches_the_4qam_formula():
    # one user: the per-axis BER of Gray 4QAM, Q(sqrt(snr))
    for snr_db in (0.0, 6.0, 12.0):
        snr = 10.0 ** (snr_db / 10.0)
        expected = 0.5 * math.erfc(math.sqrt(snr / 2.0))
        assert theory_ber(snr_db, (1.0,), 1) == pytest.approx(expected, rel=1e-12)


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
