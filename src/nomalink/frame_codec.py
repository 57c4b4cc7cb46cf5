"""Bit/symbol mapping and OFDM frame assembly for a single user payload.

A frame is a fixed number of OFDM symbols. Each symbol carries data and
pilot subcarriers interleaved on a fixed grid, mapped onto the centre of
an oversized FFT (DC nulled, outer bins zero-padded), and protected by a
cyclic prefix. All operations are pure functions of their inputs, so they
are safe to call from concurrent Monte Carlo workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log2

import numpy as np

__all__ = [
    "FrameConfig",
    "qam_modulate",
    "qam_demodulate",
    "assemble_frame",
    "disassemble_symbol",
    "occupied_bins",
    "pilot_mask",
    "pilot_values",
]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class FrameConfig:
    """Waveform dimensioning for one OFDM frame.

    Defaults describe the 3-vehicle downlink testbed: 125 data + 25 pilot
    subcarriers per symbol, 5 symbols per frame, 4QAM, 64-sample cyclic
    prefix, 500 kS/s complex baseband at a 2.34 GHz carrier. All timing
    derives from ``sample_rate``.
    """

    data_subcarriers: int = 125
    pilot_subcarriers: int = 25
    symbols_per_frame: int = 5
    fft_size: int = 256
    cp_length: int = 64
    modulation_order: int = 4
    sample_rate: float = 5.0e5
    carrier_frequency: float = 2.34e9

    def __post_init__(self) -> None:
        # the comparison fails on NaN too
        counts = ("data_subcarriers", "pilot_subcarriers", "symbols_per_frame")
        for name in (*counts, "sample_rate", "carrier_frequency"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not _is_power_of_two(self.fft_size):
            raise ValueError("fft_size must be a power of two")
        # DC is nulled, so the occupied span needs fft_size > total.
        if self.total_subcarriers >= self.fft_size:
            raise ValueError(
                f"fft_size {self.fft_size} too small for "
                f"{self.total_subcarriers} occupied subcarriers plus DC"
            )
        if not (0 <= self.cp_length <= self.fft_size):
            raise ValueError("cp_length must lie in [0, fft_size]")
        _check_order(self.modulation_order, "modulation_order")

    @property
    def total_subcarriers(self) -> int:
        return self.data_subcarriers + self.pilot_subcarriers

    @property
    def bits_per_symbol(self) -> int:
        return int(log2(self.modulation_order))

    @property
    def payload_bits(self) -> int:
        """Data bits carried by one frame (1250 for the defaults)."""
        return self.data_subcarriers * self.symbols_per_frame * self.bits_per_symbol

    @property
    def symbol_samples(self) -> int:
        return self.fft_size + self.cp_length

    @property
    def frame_samples(self) -> int:
        return self.symbols_per_frame * self.symbol_samples

    @property
    def subcarrier_spacing(self) -> float:
        return self.sample_rate / self.fft_size

    @property
    def frame_duration(self) -> float:
        return self.frame_samples / self.sample_rate


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def occupied_bins(cfg: FrameConfig) -> np.ndarray:
    """FFT bin indices of the occupied subcarriers, in ascending frequency.

    Subcarriers are centred around DC with the DC bin nulled: for N
    occupied positions the offsets are -N//2..-1 and 1..ceil(N/2).
    """
    total = cfg.total_subcarriers
    n_neg = total // 2
    n_pos = total - n_neg
    offsets = np.concatenate([np.arange(-n_neg, 0), np.arange(1, n_pos + 1)])
    return _frozen(offsets % cfg.fft_size)


@lru_cache(maxsize=64)
def pilot_mask(cfg: FrameConfig) -> np.ndarray:
    """Boolean pilot mask over the occupied subcarriers (fixed per config).

    Pilots sit on every (total/pilots)-th occupied position starting at
    index 0, i.e. every 6th position for the 150/25 defaults.
    """
    stride = cfg.total_subcarriers // cfg.pilot_subcarriers
    mask = np.zeros(cfg.total_subcarriers, dtype=bool)
    mask[np.arange(cfg.pilot_subcarriers) * stride] = True
    return _frozen(mask)


@lru_cache(maxsize=256)
def pilot_values(cfg: FrameConfig, pilot_seed: int | tuple[int, ...]) -> np.ndarray:
    """Unit-magnitude BPSK pilot sequence, reproducible from the seed."""
    rng = np.random.default_rng(pilot_seed)
    values = (2.0 * rng.integers(0, 2, cfg.pilot_subcarriers) - 1.0).astype(np.complex128)
    return _frozen(values)


def _axis_bits(order: int) -> int:
    return int(log2(order)) // 2


def _gray_encode(n: np.ndarray) -> np.ndarray:
    return n ^ (n >> 1)


def _gray_decode(g: np.ndarray, width: int) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < width:
        b ^= b >> shift
        shift *= 2
    return b


def _axis_norm(order: int) -> float:
    # unit average energy for the square constellation
    return np.sqrt(2.0 * (order - 1) / 3.0)


def _check_order(order: int, name: str = "order") -> None:
    if not _is_power_of_two(order) or int(log2(order)) % 2 != 0:
        raise ValueError(f"{name} must be a power of 4 (square QAM)")


@lru_cache(maxsize=8)
def _axis_levels(order: int) -> np.ndarray:
    """Unit-energy axis value of each level index, the one table that
    modulation and SIC cancellation read."""
    levels = int(np.sqrt(order))
    return _frozen(((levels - 1) - 2.0 * np.arange(levels)) * (1.0 / _axis_norm(order)))


def _decide_levels(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest level index on both axes of contiguous complex symbols, (n, 2)."""
    levels = int(np.sqrt(order))
    vals = symbols.view(np.float64).reshape(-1, 2)
    idx = np.clip(np.round(((levels - 1) - vals * _axis_norm(order)) / 2.0), 0, levels - 1)
    return idx.astype(np.intp)


def _levels_to_bits(idx: np.ndarray, order: int) -> np.ndarray:
    """Gray bits of (n, 2) level indices: the in-phase bits, then the quadrature
    bits of each symbol, most significant first."""
    p = _axis_bits(order)
    v = _gray_encode(idx)
    return ((v[..., None] >> np.arange(p - 1, -1, -1)) & 1).astype(np.uint8).reshape(-1)


def qam_modulate(bits, order: int = 4) -> np.ndarray:
    """Gray-map a bit sequence onto the unit-energy square QAM constellation.

    Bits are consumed log2(order) at a time; the first half of each group
    selects the in-phase level, the second half the quadrature level. For
    4QAM the pair (b1, b0) maps to ((1 - 2*b1) + 1j*(1 - 2*b0)) / sqrt(2).
    """
    _check_order(order)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must contain only 0 and 1")
    k = 2 * _axis_bits(order)
    if bits.size % k != 0:
        raise ValueError(f"bit count {bits.size} not divisible by {k} bits/symbol")

    p = _axis_bits(order)
    weights = 1 << np.arange(p - 1, -1, -1)
    idx = _gray_decode(bits.reshape(-1, 2, p) @ weights, p)
    return _axis_levels(order)[idx].view(np.complex128).reshape(-1)


def qam_demodulate(symbols, order: int = 4) -> np.ndarray:
    """Hard minimum-distance decision back to bits; inverse of qam_modulate."""
    _check_order(order)
    symbols = np.ascontiguousarray(symbols, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(symbols.view(np.float64))):
        raise ValueError("symbols must be finite")
    return _levels_to_bits(_decide_levels(symbols, order), order)


def _spectrum_scale(cfg: FrameConfig) -> float:
    # keeps unit-power occupied subcarriers mapping to unit mean sample power
    return cfg.fft_size / np.sqrt(cfg.total_subcarriers)


def assemble_frame(payload, cfg: FrameConfig, pilot_seed) -> np.ndarray:
    """Build one frame: modulate, interleave pilots, IFFT, prepend prefixes.

    Returns the time-domain samples at ``cfg.sample_rate``
    (symbols_per_frame * (fft + cp) of them). A payload block of shape
    (frames, payload_bits) builds one frame per row, and the samples
    carry the same leading frame axis.
    """
    payload = np.asarray(payload, dtype=np.int64)
    if payload.ndim not in (1, 2) or payload.shape[-1] != cfg.payload_bits:
        raise ValueError(
            f"payload must be {cfg.payload_bits} bits per frame, got shape {payload.shape}"
        )
    frames = payload.shape[:-1]
    bins = occupied_bins(cfg)
    mask = pilot_mask(cfg)
    data_syms = qam_modulate(payload.reshape(-1), cfg.modulation_order)

    spectra = np.zeros((*frames, cfg.symbols_per_frame, cfg.fft_size), dtype=np.complex128)
    spectra[..., bins[mask]] = pilot_values(cfg, pilot_seed)
    spectra[..., bins[~mask]] = data_syms.reshape(
        *frames, cfg.symbols_per_frame, cfg.data_subcarriers
    )
    bodies = np.fft.ifft(spectra, axis=-1) * _spectrum_scale(cfg)
    with_cp = np.concatenate([bodies[..., cfg.fft_size - cfg.cp_length :], bodies], axis=-1)
    return with_cp.reshape(*frames, -1)


def disassemble_symbol(samples, cfg: FrameConfig, symbol_start: int = 0) -> np.ndarray:
    """Recover one symbol's occupied subcarriers from fft_size samples
    starting after the prefix.

    Exactly inverts the per-symbol transform of assemble_frame when the
    segment is aligned and the channel is transparent. Samples with a
    leading symbol axis, one symbol period per row, give one row of
    subcarriers per symbol through a single FFT.
    """
    samples = np.asarray(samples, dtype=np.complex128)
    if symbol_start < 0 or samples.shape[-1] - symbol_start < cfg.fft_size:
        raise ValueError(
            f"segment too short: need {cfg.fft_size} samples at offset {symbol_start}"
        )
    body = samples[..., symbol_start : symbol_start + cfg.fft_size]
    spectrum = np.fft.fft(body, axis=-1) / _spectrum_scale(cfg)
    # a gather on the last axis may lay the gathered axis out first in
    # memory; later row sums must run over contiguous rows
    return np.ascontiguousarray(spectrum[..., occupied_bins(cfg)])
