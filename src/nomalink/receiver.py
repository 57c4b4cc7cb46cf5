"""Per-vehicle receiver: sync, CFO correction, LS estimation, ZF, SIC.

The pipeline mirrors the downlink transmitter: cyclic-prefix based joint
maximum-likelihood time/frequency synchronization, frequency correction,
per-symbol FFT demapping, least-squares channel estimation by linear
regression over the pilots, zero-forcing equalization, pilot-EVM SNR
estimation, and successive interference cancellation down to the user's
own bits. A bad argument, such as a short or non-finite buffer, is a
``ValueError`` raised before any work. A channel outcome is a value:
each stage returns its estimate, however poor, and ``receive_user``
reports a frame undetected when its sync metric falls below the
detection threshold or zero-forcing erases a whole symbol; the scenario
layer assigns it BER 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .frame_codec import (
    FrameConfig,
    _frozen,
    disassemble_symbol,
    pilot_mask,
    qam_demodulate,
)
from .noma import PowerAllocation, composite_pilot_values, sic_decode

__all__ = [
    "SyncEstimate",
    "UserRxReport",
    "cp_ml_sync",
    "correct_cfo",
    "ls_estimate_channel",
    "zf_equalize",
    "evm_snr",
    "receive_user",
    "SNR_CAP_DB",
    "ZF_SINGULARITY_THRESHOLD",
    "SYNC_DETECTION_THRESHOLD",
]

SNR_CAP_DB = 60.0
ZF_SINGULARITY_THRESHOLD = 1e-8
SYNC_DETECTION_THRESHOLD = 0.5
_EVM_AT_CAP = 10.0 ** (-SNR_CAP_DB / 20.0)


@dataclass(frozen=True)
class SyncEstimate:
    """Joint time/frequency estimate from the cyclic prefix correlation."""

    timing_offset: int
    fractional_cfo_hz: float
    metric_peak: float


@dataclass
class UserRxReport:
    """Everything one vehicle learns from one frame.

    ``stage_levels`` holds the (symbols, 2) level indices that each SIC
    stage decided for a user cancelled ahead of this one; a caller that
    knows the transmitted bits counts the stage errors from them.
    """

    bits: np.ndarray
    estimated_snr_db: np.ndarray
    estimated_cfo_hz: float
    detected: bool
    stage_levels: tuple = ()
    sync_metric: float = field(default=float("nan"))

    @classmethod
    def lost(cls, metric: float) -> "UserRxReport":
        return cls(
            bits=np.empty(0, dtype=np.uint8),
            estimated_snr_db=np.empty(0, dtype=float),
            estimated_cfo_hz=float("nan"),
            detected=False,
            sync_metric=metric,
        )


def cp_ml_sync(rx, cfg: FrameConfig) -> SyncEstimate:
    """Joint ML time/frequency offset estimate from the cyclic prefix.

    The correlation of each prefix with its repetition fft_size samples
    later is accumulated over all symbol periods that fit the buffer. The
    timing estimate is the argmax of the normalized metric |gamma|/Phi in
    [0, 1]; the fractional CFO follows from the correlation phase as
    -angle(gamma) * sample_rate / (2 pi fft_size), unambiguous up to half
    the subcarrier spacing. The estimate is returned whatever its peak:
    judging the peak is the caller's decision. ``rx`` must be one 1-D
    row of finite samples at ``cfg.sample_rate``.
    """
    r = np.asarray(rx, dtype=np.complex128)
    if r.ndim != 1 or not np.isfinite(r).all():
        raise ValueError(f"rx must be one 1-D row of finite samples, got shape {r.shape}")
    n_fft, cp = cfg.fft_size, cfg.cp_length
    block = cfg.symbol_samples
    if len(r) < 2 * block:
        raise ValueError(f"need at least {2 * block} samples, got {len(r)}")
    if cp < 1:
        raise ValueError("cp_ml_sync requires a cyclic prefix")

    n_sym = min(cfg.symbols_per_frame, len(r) // block)
    span = n_sym * block
    theta_max = len(r) - span

    prod = r[:-n_fft] * np.conj(r[n_fft:])
    sq = np.abs(r) ** 2
    power = 0.5 * (sq[:-n_fft] + sq[n_fft:])
    cum_prod = np.zeros(prod.size + 1, dtype=np.complex128)
    np.cumsum(prod, out=cum_prod[1:])
    cum_power = np.zeros(power.size + 1)
    np.cumsum(power, out=cum_power[1:])

    # one window per symbol period (rows) and timing candidate (columns),
    # summed row by row in order: a reduction over rows may round differently.
    # A cumulative sum adds in that order; adding +0 gives the sum from zero
    # its sign where every window holds -0.
    lo = np.arange(0, n_sym * block, block)[:, None] + np.arange(theta_max + 1)
    gamma = np.cumsum(cum_prod[lo + cp] - cum_prod[lo], axis=0)[-1] + 0.0
    phi = np.cumsum(cum_power[lo + cp] - cum_power[lo], axis=0)[-1]

    metric = np.divide(np.abs(gamma), phi, out=np.zeros_like(phi), where=phi > 0)
    best = int(np.argmax(metric))
    peak = float(min(metric[best], 1.0))
    cfo = -np.angle(gamma[best]) * cfg.sample_rate / (2.0 * np.pi * n_fft)
    return SyncEstimate(timing_offset=best, fractional_cfo_hz=float(cfo), metric_peak=peak)


def correct_cfo(rx, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """Remove a frequency offset: rx[n] * exp(-j 2 pi f n / fs); samples pass unchecked."""
    if not math.isfinite(cfo_hz):
        raise ValueError(f"cfo_hz must be finite, got {cfo_hz}")
    if not 0.0 < sample_rate < math.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    rx = np.asarray(rx, dtype=np.complex128)
    if cfo_hz == 0.0:
        return rx
    n = np.arange(rx.shape[-1])
    # np.exp stays (the channel's cos/sin phasor would not keep the bytes):
    # numpy divides this complex phase by the sample rate with a rounding
    # that neither b * n / fs nor (b * n) * (1 / fs) reproduces in floats,
    # and taking .imag of the complex phase matches but saves nothing
    rotation = np.exp(-2j * np.pi * cfo_hz * n / sample_rate)
    return rx * rotation


class _PilotLine(NamedTuple):
    """Terms of the pilot regression that depend only on the pilot layout."""

    k_pilot: np.ndarray
    k_all: np.ndarray
    conj_x: np.ndarray
    conj_x_k: np.ndarray
    g00: float
    g01: float
    g11: float
    det: float


@lru_cache(maxsize=64)
def _pilot_line_cached(mask_bytes: bytes, reference_bytes: bytes) -> _PilotLine:
    mask = np.frombuffer(mask_bytes, dtype=bool)
    x = np.frombuffer(reference_bytes, dtype=np.complex128)
    k_pilot = np.flatnonzero(mask)
    if k_pilot.size < 2:
        raise ValueError("need at least 2 pilots for the regression")
    if x.size != k_pilot.size:
        raise ValueError("pilot reference length does not match pilot mask")
    if np.any(np.abs(x) == 0):
        raise ValueError("pilot reference contains zero-power entries")
    px = np.abs(x) ** 2
    g00 = np.sum(px)
    g01 = np.sum(px * k_pilot)
    g11 = np.sum(px * k_pilot * k_pilot)
    det = g00 * g11 - g01 * g01
    if det <= 0 or not np.isfinite(det):
        raise ValueError("degenerate pilot layout for the regression")
    k_all = np.arange(mask.size)
    conj_x = np.conj(x)
    conj_x_k = conj_x * k_pilot
    for arr in (k_pilot, k_all, conj_x, conj_x_k):
        _frozen(arr)
    return _PilotLine(k_pilot, k_all, conj_x, conj_x_k, g00, g01, g11, det)


def ls_estimate_channel(row, mask, pilot_reference) -> np.ndarray:
    """Least-squares channel estimate for one OFDM symbol.

    Pilot observations follow Y_p = H(k) X_p with H modelled as a
    straight line a + b*k over the occupied-subcarrier index; a and b are
    solved in the least-squares sense (equivalently, a pilot-power
    weighted regression of the per-pilot ratios Y_p/X_p) and the line is
    evaluated on every occupied subcarrier. Rows with a leading symbol
    axis give one line per symbol.
    """
    row = np.asarray(row, dtype=np.complex128)
    mask = np.asarray(mask, dtype=bool)
    x = np.asarray(pilot_reference, dtype=np.complex128)
    line = _pilot_line_cached(mask.tobytes(), x.tobytes())
    # 2-parameter normal equations of min ||y - (a + b k) x||^2
    y = np.ascontiguousarray(row[..., line.k_pilot])
    r0 = np.sum(line.conj_x * y, axis=-1)
    r1 = np.sum(line.conj_x_k * y, axis=-1)
    a = (line.g11 * r0 - line.g01 * r1) / line.det
    b = (line.g00 * r1 - line.g01 * r0) / line.det
    return np.asarray(a)[..., None] + np.asarray(b)[..., None] * line.k_all


def zf_equalize(row, estimate):
    """Zero-forcing equalization Y/H with erasure flagging.

    Subcarriers whose estimate magnitude falls below
    ``ZF_SINGULARITY_THRESHOLD`` are zeroed and flagged instead of
    divided. Returns the equalized row and the erasure mask. Rows with a
    leading symbol axis are equalized symbol by symbol.
    """
    row = np.asarray(row, dtype=np.complex128)
    estimate = np.asarray(estimate, dtype=np.complex128)
    if not np.all(np.isfinite(estimate.view(np.float64))):
        raise ValueError("channel estimate must be finite")
    erased = np.abs(estimate) < ZF_SINGULARITY_THRESHOLD
    out = np.divide(row, estimate, out=np.zeros_like(row), where=~erased)
    return out, erased


@lru_cache(maxsize=64)
def _reference_power(reference_bytes: bytes) -> float:
    """Mean pilot power, a constant of the pilot layout."""
    x = np.frombuffer(reference_bytes, dtype=np.complex128)
    power = float(np.mean(np.abs(x) ** 2))
    if power == 0.0:
        raise ValueError("pilot reference has zero power")
    return power


def evm_snr(equalized_pilots, pilot_reference):
    """SNR estimate from the pilot error vector magnitude.

    EVM_rms = sqrt(mean|y - x|^2 / mean|x|^2) and the estimate is
    -20 log10(EVM_rms), capped at ``SNR_CAP_DB`` for vanishing error. Pilots
    with a leading symbol axis give an array with one estimate per symbol.
    """
    y = np.ascontiguousarray(equalized_pilots, dtype=np.complex128)
    x = np.asarray(pilot_reference, dtype=np.complex128)
    if y.size == 0 or y.shape[-1] != x.size:
        raise ValueError("need equal, non-empty pilot and reference vectors")
    evm = np.sqrt(np.mean(np.abs(y - x) ** 2, axis=-1) / _reference_power(x.tobytes()))
    # the logarithm runs only above the capped EVM, so it never sees a zero;
    # the capped entries keep -SNR_CAP_DB / 20, and a NaN EVM stays NaN
    log_evm = np.log10(
        evm, out=np.full_like(evm, -SNR_CAP_DB / 20.0), where=~(evm <= _EVM_AT_CAP)
    )
    snr = np.minimum(-20.0 * log_evm, SNR_CAP_DB)
    return float(snr) if snr.ndim == 0 else snr


@lru_cache(maxsize=64)
def _data_columns(cfg: FrameConfig) -> np.ndarray:
    """Indices of the data subcarriers among the occupied ones."""
    return _frozen(np.flatnonzero(~pilot_mask(cfg)))


def receive_user(
    rx,
    cfg: FrameConfig,
    alloc: PowerAllocation,
    user: int,
    pilot_seed: int,
    sync_threshold: float = SYNC_DETECTION_THRESHOLD,
    cfo_error_hz: float = 0.0,
) -> UserRxReport:
    """Full decode of one frame at one vehicle from one row of samples.

    Pipeline: cp_ml_sync -> correct_cfo -> one FFT of all symbol bodies
    -> ls_estimate_channel -> zf_equalize -> evm_snr -> sic_decode ->
    qam_demodulate; the stages from the FFT to the EVM take all of the
    frame's symbols at once. A buffer under one frame or not finite is a
    ValueError; sync never places a frame past the end of a longer one. A
    sync peak below ``sync_threshold`` or a symbol that zero-forcing
    erases on every subcarrier yields detected=False with empty bits; the
    report keeps the sync peak; a NaN threshold is a ValueError, and one
    above 1 loses every frame. ``cfo_error_hz`` adds a known error to the
    applied correction (estimation-error injection for stress tests); the
    reported CFO stays the estimator output.
    """
    if not 1 <= user <= alloc.n_users:
        raise ValueError(f"user index {user} outside 1..{alloc.n_users}")
    # a NaN threshold would pass every frame as detected
    if math.isnan(sync_threshold):
        raise ValueError("sync_threshold must be a number, got nan")
    rx = np.asarray(rx, dtype=np.complex128)
    if rx.size < cfg.frame_samples:
        raise ValueError(
            f"buffer of {rx.size} samples is shorter than one frame of {cfg.frame_samples}"
        )
    sync = cp_ml_sync(rx, cfg)
    if sync.metric_peak < sync_threshold:
        return UserRxReport.lost(sync.metric_peak)

    corrected = correct_cfo(rx, sync.fractional_cfo_hz + cfo_error_hz, cfg.sample_rate)
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
    # erased subcarriers equalize to 0 and decide to a fixed bit pattern
    data_symbols = equalized[:, _data_columns(cfg)].reshape(-1)

    own_symbols, stage_levels = sic_decode(
        data_symbols, alloc, user, cfg.modulation_order
    )
    return UserRxReport(
        bits=qam_demodulate(own_symbols, cfg.modulation_order),
        estimated_snr_db=snr_db,
        estimated_cfo_hz=sync.fractional_cfo_hz,
        detected=True,
        stage_levels=tuple(stage_levels),
        sync_metric=sync.metric_peak,
    )
