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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Annotated, NamedTuple

import numpy as np

from .channel import _phasor
from .frame_codec import (
    INF,
    FrameConfig,
    _demap,
    _demodulate,
    _field_value,
    _frozen,
    _seed_value,
    _spectrum_scale,
    occupied_bins,
    pilot_mask,
)
from .noma import PowerAllocation, _check_user, _composite_pilots, _sic

__all__ = [
    "UserRxReport",
    "receive_user",
    "SNR_CAP_DB",
    "ZF_SINGULARITY_THRESHOLD",
    "SYNC_DETECTION_THRESHOLD",
]

# cp_ml_sync, correct_cfo, ls_estimate_channel, zf_equalize and evm_snr are
# stage functions that no run calls. The traced benchmark wraps them by name,
# so they stay defined, outside __all__, until ROADMAP item 5 retires its
# stage spans

SNR_CAP_DB = 60.0
ZF_SINGULARITY_THRESHOLD = 1e-8
SYNC_DETECTION_THRESHOLD = 0.5
_THRESHOLD = Annotated[float, INF]  # -inf detects every frame, +inf none, NaN would pass all
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
    row of finite samples at ``cfg.sample_rate`` whose sum of squared
    magnitudes stays under half the float range, so that the correlation
    sums cannot overflow.
    """
    r = _sync_row(rx, cfg)
    return SyncEstimate(*_sync(r, cfg, *_sync_windows(cfg, len(r))))


# CP sync sums the squared magnitudes of a row; a row whose sum stays under
# this limit never overflows in sync or in the stages after it
_ROW_POWER_LIMIT = np.finfo(float).max / 2.0


def _sync_row(rx, cfg: FrameConfig) -> np.ndarray:
    """``rx`` as a row that CP sync can take, or a ValueError."""
    r = np.asarray(rx, dtype=np.complex128)
    # the sum of squared magnitudes is NaN or infinite for a NaN or infinite
    # sample, so one pass checks both the samples and the power
    power = np.vdot(r, r).real if r.ndim == 1 else np.nan
    if not power < _ROW_POWER_LIMIT:
        if r.ndim != 1 or not np.isfinite(r).all():
            raise ValueError(f"rx must be one 1-D row of finite samples, got shape {r.shape}")
        peak = np.abs(r).max()
        log_power = 2.0 * np.log10(peak) + np.log10(np.vdot(r / peak, r / peak).real)
        raise ValueError(
            f"rx holds a power (sum of squared magnitudes) of 10^{log_power:.1f},"
            f" above {_ROW_POWER_LIMIT:.3g} for cyclic-prefix sync"
        )
    if len(r) < 2 * cfg.symbol_samples:
        raise ValueError(f"need at least {2 * cfg.symbol_samples} samples, got {len(r)}")
    if cfg.cp_length < 1:
        raise ValueError("cp_ml_sync requires a cyclic prefix")
    return r


def _sync_windows(cfg: FrameConfig, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Start and end of each prefix window in a row of ``length`` samples:
    one row per symbol period, one column per timing candidate."""
    block = cfg.symbol_samples
    n_sym = min(cfg.symbols_per_frame, length // block)
    theta_max = length - n_sym * block
    lo = np.arange(0, n_sym * block, block)[:, None] + np.arange(theta_max + 1)
    return _frozen(lo), _frozen(lo + cfg.cp_length)


def _sync(r: np.ndarray, cfg: FrameConfig, lo, hi) -> tuple[int, float, float]:
    """cp_ml_sync's timing, CFO and peak for a row that ``_sync_row`` passed,
    with the row's prefix windows ``lo`` and ``hi`` from ``_sync_windows``."""
    n_fft = cfg.fft_size
    prod = r[:-n_fft] * np.conj(r[n_fft:])
    sq = np.abs(r) ** 2
    power = 0.5 * (sq[:-n_fft] + sq[n_fft:])
    cum_prod = np.zeros(prod.size + 1, dtype=np.complex128)
    prod.cumsum(out=cum_prod[1:])
    cum_power = np.zeros(power.size + 1)
    power.cumsum(out=cum_power[1:])

    # one window per symbol period (rows) and timing candidate (columns),
    # summed row by row in order: a reduction over rows may round differently.
    # A cumulative sum adds in that order; adding +0 gives the sum from zero
    # its sign where every window holds -0.
    gamma = (cum_prod[hi] - cum_prod[lo]).cumsum(axis=0)[-1] + 0.0
    phi = (cum_power[hi] - cum_power[lo]).cumsum(axis=0)[-1]

    metric = np.divide(np.abs(gamma), phi, out=np.zeros(phi.shape), where=phi > 0)
    best = int(metric.argmax())
    peak = float(min(metric[best], 1.0))
    # np.angle's ufunc, without its wrapper
    g = gamma[best]
    cfo = -np.arctan2(g.imag, g.real) * cfg.sample_rate / (2.0 * np.pi * n_fft)
    return best, float(cfo), peak


def correct_cfo(rx, cfo_hz: float, sample_rate: float) -> np.ndarray:
    """Remove a frequency offset: rx[n] * exp(-j 2 pi f n / fs); samples pass unchecked."""
    cfo_hz = _field_value("cfo_hz", float, cfo_hz)
    sample_rate = _field_value("sample_rate", Annotated[float, (">", 0)], sample_rate)
    rx = np.asarray(rx, dtype=np.complex128)
    if cfo_hz == 0.0:
        return rx
    return _derotate(rx, cfo_hz, np.arange(rx.shape[-1]), sample_rate)


def _derotate(samples: np.ndarray, cfo_hz: float, n: np.ndarray, sample_rate: float):
    """correct_cfo's product for samples at integer sample indices ``n``, unchecked."""
    # the bytes of samples * np.exp(-2j * np.pi * cfo_hz * n / sample_rate):
    # numpy divides that purely imaginary phase by the rate as its imaginary
    # part times 1 / sample_rate, and + 0.0 gives the phase at n = 0 the
    # +0.0 it has there for either sign of the CFO. The samples stay the
    # left operand: the vectorised complex product is not commutative bytewise
    theta = n * (-2j * np.pi * cfo_hz).imag
    theta += 0.0
    theta *= 1.0 / sample_rate
    return samples * _phasor(theta, np.empty(theta.shape, np.complex128))


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


def _pilot_line(mask: np.ndarray, x: np.ndarray) -> _PilotLine:
    """The regression terms of a 1-D pilot mask and its 1-D complex reference."""
    k_pilot = np.flatnonzero(mask)
    if k_pilot.size < 2:
        raise ValueError("need at least 2 pilots for the regression")
    if x.size != k_pilot.size:
        raise ValueError("pilot reference length does not match pilot mask")
    if np.any(np.abs(x) == 0):
        raise ValueError("pilot reference contains zero-power entries")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        px = np.abs(x) ** 2
        g00 = np.sum(px)
        g01 = np.sum(px * k_pilot)
        g11 = np.sum(px * k_pilot * k_pilot)
        det = g00 * g11 - g01 * g01
    if not 0 < det < np.inf:
        raise ValueError("degenerate pilot layout" if det <= 0 else "pilot power overflows")
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
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    x = np.asarray(pilot_reference, dtype=np.complex128).reshape(-1)
    return _ls_line(row, _pilot_line(mask, x))


def _ls_line(row: np.ndarray, line: _PilotLine) -> np.ndarray:
    """ls_estimate_channel's line for complex rows, unchecked."""
    # 2-parameter normal equations of min ||y - (a + b k) x||^2; np.take
    # lays each symbol's pilots out contiguously for the sums
    y = row.take(line.k_pilot, axis=-1)
    r0 = np.add.reduce(line.conj_x * y, axis=-1)
    r1 = np.add.reduce(line.conj_x_k * y, axis=-1)
    a = (line.g11 * r0 - line.g01 * r1) / line.det
    b = (line.g00 * r1 - line.g01 * r0) / line.det
    return a[..., None] + b[..., None] * line.k_all


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
    return _zf(row, estimate)


def _zf(row: np.ndarray, estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zf_equalize's rows and erasures for a finite complex estimate, unchecked."""
    erased = np.abs(estimate) < ZF_SINGULARITY_THRESHOLD
    out = np.divide(row, estimate, out=np.zeros(row.shape, np.complex128), where=~erased)
    return out, erased


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
    power = float(np.mean(np.abs(x) ** 2))
    if power == 0.0:
        raise ValueError("pilot reference has zero power")
    snr = _evm_snr(y, x, power)
    return float(snr) if snr.ndim == 0 else snr


def _evm_snr(y: np.ndarray, x: np.ndarray, reference_power: float) -> np.ndarray:
    """evm_snr's estimates for C-contiguous pilots, unchecked."""
    # the mean is the sum over the count, as ndarray.mean takes it
    evm = np.sqrt(np.add.reduce(np.abs(y - x) ** 2, axis=-1) / y.shape[-1] / reference_power)
    # the logarithm runs only above the capped EVM, so it never sees a zero;
    # the capped entries keep -SNR_CAP_DB / 20, and a NaN EVM stays NaN
    log_evm = np.empty(evm.shape)
    log_evm.fill(-SNR_CAP_DB / 20.0)
    np.log10(evm, out=log_evm, where=~(evm <= _EVM_AT_CAP))
    return np.minimum(-20.0 * log_evm, SNR_CAP_DB)


class _RxPlan(NamedTuple):
    """What decoding a frame needs that depends only on the frame layout,
    the power allocation, the pilot seed and the row length."""

    reference: np.ndarray
    line: _PilotLine
    reference_power: float
    data_index: np.ndarray
    bins: np.ndarray
    scale: float
    body_index: np.ndarray
    amplitudes: np.ndarray
    windows: tuple[np.ndarray, np.ndarray]


@lru_cache(maxsize=64)
def _rx_plan(cfg: FrameConfig, alloc: PowerAllocation, pilot_seed, length: int) -> _RxPlan:
    mask = pilot_mask(cfg)
    reference = _composite_pilots(cfg, alloc, pilot_seed)
    # sample index of each symbol body within a frame, one row per symbol
    starts = np.arange(cfg.symbols_per_frame)[:, None] * cfg.symbol_samples + cfg.cp_length
    # flat index of each data subcarrier in the (symbols, occupied) rows
    rows = np.arange(cfg.symbols_per_frame)[:, None] * cfg.total_subcarriers
    return _RxPlan(
        reference=reference,
        line=_pilot_line(mask, reference),
        reference_power=float(np.mean(np.abs(reference) ** 2)),
        data_index=_frozen((rows + np.flatnonzero(~mask)).reshape(-1)),
        bins=occupied_bins(cfg),
        scale=_spectrum_scale(cfg),
        body_index=_frozen(starts + np.arange(cfg.fft_size)),
        amplitudes=_frozen(alloc.amplitudes),
        windows=_sync_windows(cfg, length),
    )


def receive_user(
    rx,
    cfg: FrameConfig,
    alloc: PowerAllocation,
    user: int,
    pilot_seed: int,
    sync_threshold: float = SYNC_DETECTION_THRESHOLD,
) -> UserRxReport:
    """Full decode of one frame at one vehicle from one row of samples.

    Pipeline: cp_ml_sync -> correct_cfo -> one FFT of all symbol bodies
    -> ls_estimate_channel -> zf_equalize -> evm_snr -> sic_decode ->
    qam_demodulate; the stages from the FFT to the EVM take all of the
    frame's symbols at once. The arguments are checked once, before any
    work: a buffer under one frame, not 1-D, not finite or whose power
    would overflow CP sync, a NaN threshold, a user that is not an integer
    index into the allocation or a pilot seed that is neither a
    non-negative integer nor a list of them is a ValueError. The stages
    then run unchecked, with the bytes of the stage functions, on one plan
    cached per (cfg, alloc, pilot_seed, row length): a single cache lookup
    per call gives the pilot terms, the indices and the CP-sync windows.
    Only the symbol bodies at the chosen timing are corrected for the CFO.
    Sync never places a frame past the end of a longer buffer. A sync peak
    below ``sync_threshold`` or a symbol that zero-forcing erases on every
    subcarrier yields detected=False with empty bits; the report keeps the
    sync peak; a threshold above 1 loses every frame.
    """
    user = _check_user(user, alloc)
    pilot_seed = _seed_value("pilot_seed", pilot_seed)
    sync_threshold = _field_value("sync_threshold", _THRESHOLD, sync_threshold)
    rx = np.asarray(rx, dtype=np.complex128)
    if rx.size < cfg.frame_samples:
        raise ValueError(
            f"buffer of {rx.size} samples is shorter than one frame of {cfg.frame_samples}"
        )
    r = _sync_row(rx, cfg)
    plan = _rx_plan(cfg, alloc, pilot_seed, len(r))

    timing, cfo, peak = _sync(r, cfg, *plan.windows)
    if peak < sync_threshold:
        return UserRxReport.lost(peak)
    frame = r[timing : timing + cfg.frame_samples].reshape(cfg.symbols_per_frame, -1)
    bodies = frame[:, cfg.cp_length :]
    if cfo != 0.0:
        bodies = _derotate(bodies, cfo, plan.body_index + timing, cfg.sample_rate)

    rows = _demap(bodies, plan.bins, plan.scale)
    estimate = _ls_line(rows, plan.line)
    equalized, erased = _zf(rows, estimate)
    # a symbol erased on every subcarrier
    if np.logical_or.reduce(np.logical_and.reduce(erased, axis=-1)):
        return UserRxReport.lost(peak)
    snr_db = _evm_snr(
        equalized.take(plan.line.k_pilot, axis=-1), plan.reference, plan.reference_power
    )
    # erased subcarriers equalize to 0 and decide to a fixed bit pattern
    own_symbols, stage_levels = _sic(
        equalized.take(plan.data_index), plan.amplitudes, user, cfg.modulation_order
    )
    return UserRxReport(
        bits=_demodulate(own_symbols, cfg.modulation_order),
        estimated_snr_db=snr_db,
        estimated_cfo_hz=cfo,
        detected=True,
        stage_levels=tuple(stage_levels),
        sync_metric=peak,
    )
