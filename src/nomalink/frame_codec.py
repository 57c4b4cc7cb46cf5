"""Bit/symbol mapping and OFDM frame assembly for a single user payload.

A frame is a fixed number of OFDM symbols. Each symbol carries data and
pilot subcarriers interleaved on a fixed grid, mapped onto the centre of
an oversized FFT (DC nulled, outer bins zero-padded), and protected by a
cyclic prefix. All operations are pure functions of their inputs, so they
are safe to call from concurrent Monte Carlo workers.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property, lru_cache
from math import isfinite, isnan, log2
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

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

# A field's bounds ride on its annotation, Annotated[type, *marks]: a mark
# (op, limit) asks for value op limit, and INF lets a float field hold +-inf
INF = "INF"
_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def _shown(value) -> str:
    """repr(value), or the size of an integer too long to print."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {value.bit_length()} bits"
    return repr(value)


@lru_cache(maxsize=None)
def _field_hints(cls) -> tuple:
    hints = get_type_hints(cls, include_extras=True)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _check_fields(obj, names: dict | None = None) -> None:
    """The config dataclasses' field rule on each field of ``obj``, named as ``names``
    maps it; a numpy scalar is stored as the Python number, a list as a tuple."""
    names = names or {}
    for name, hint in _field_hints(type(obj)):
        value = _field_value(names.get(name, name), hint, getattr(obj, name))
        object.__setattr__(obj, name, value)


@lru_cache(maxsize=None)
def _parsed_hint(hint) -> tuple:
    """``hint`` parsed once for the field rule: its base type, the base's
    origin and arguments, its (op, limit) marks and whether it is marked ``INF``."""
    marks = ()
    if get_origin(hint) is Annotated:
        hint, *marks = get_args(hint)
    bounds = tuple(m for m in marks if m != INF)
    return hint, get_origin(hint), get_args(hint), bounds, INF in marks


def _field_value(name: str, hint, value, infinite: bool = False):
    """``value`` as a field annotated ``hint`` holds it: ``int`` takes an
    integer and ``float`` a finite number (±inf where marked ``INF``), neither
    a bool; ``tuple[X, ...]`` takes a tuple or list of X; ``Literal`` one of
    its choices; a value of an ``Annotated`` type meets each of its marks."""
    hint, origin, args, bounds, marked_inf = _parsed_hint(hint)
    value = _base_value(name, hint, origin, args, value, infinite or marked_inf)
    for op, limit in bounds:
        if value is not None and not _OPS[op](value, limit):
            raise ValueError(f"{name} must be {op} {limit}, got {_shown(value)}")
    return value


def _base_value(name: str, hint, origin, args, value, infinite: bool):
    """``value`` as a field of the unannotated type ``hint`` holds it."""
    if hint is int:
        if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
            return int(value)
        raise ValueError(f"{name} must be an integer, got {_shown(value)}")
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a number, got {_shown(value)}")
        if isinstance(value, (int, np.integer)):
            value = int(value)
            if abs(value) <= sys.float_info.max:
                return value
            raise ValueError(f"{name} must be finite, got an integer beyond the float range")
        number = float(value)
        if isfinite(number) or (infinite and not isnan(number)):
            return number
        raise ValueError(f"{name} must be finite, got {number!r}")
    if hint == float | None:
        return None if value is None else _field_value(name, float, value, infinite)
    if origin is tuple:
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{name} must be a list, got {_shown(value)}")
        return tuple(_field_value(f"{name}[{i}]", args[0], v) for i, v in enumerate(value))
    if origin is Literal:
        if isinstance(value, str) and value in args:
            return value
        choices = ", ".join(map(repr, args))
        raise ValueError(f"{name} must be one of {choices}, got {_shown(value)}")
    if is_dataclass(hint):
        if isinstance(value, hint):
            return value
        raise ValueError(f"{name} must be a {hint.__name__}, got {_shown(value)}")
    raise TypeError(f"no field rule for {name}: {hint!r}")


@dataclass(frozen=True)
class FrameConfig:
    """Waveform dimensioning for one OFDM frame.

    Defaults describe the 3-vehicle downlink testbed: 125 data + 25 pilot
    subcarriers per symbol, 5 symbols per frame, 4QAM, 64-sample cyclic
    prefix, 500 kS/s complex baseband at a 2.34 GHz carrier. All timing
    derives from ``sample_rate``. The derived dimensions are computed on
    first use and kept on the instance, since the receiver reads them on
    every frame.
    """

    data_subcarriers: Annotated[int, (">", 0)] = 125
    pilot_subcarriers: Annotated[int, (">", 0)] = 25
    # one frame at either limit replays; at 2**1100 its duration overflows. A
    # frame of 2**10 default symbols is as long as 5 symbols of 2**16 bins
    symbols_per_frame: Annotated[int, (">", 0), ("<=", 2**10)] = 5
    fft_size: Annotated[int, ("<=", 2**16)] = 256
    cp_length: Annotated[int, (">=", 0)] = 64
    modulation_order: int = 4
    sample_rate: Annotated[float, (">", 0)] = 5.0e5
    carrier_frequency: Annotated[float, (">", 0)] = 2.34e9

    def __post_init__(self) -> None:
        _check_fields(self)
        if not _is_power_of_two(self.fft_size):
            raise ValueError(f"fft_size must be a power of two, got {_shown(self.fft_size)}")
        # DC is nulled, so the occupied span needs fft_size > total.
        if self.total_subcarriers >= self.fft_size:
            raise ValueError(
                f"fft_size {self.fft_size} too small for {_shown(self.total_subcarriers)}"
                f" occupied subcarriers (data_subcarriers {_shown(self.data_subcarriers)}"
                f" + pilot_subcarriers {_shown(self.pilot_subcarriers)}) plus DC"
            )
        if self.cp_length > self.fft_size:
            raise ValueError(f"cp_length must be <= fft_size, got {_shown(self.cp_length)}")
        _check_order(self.modulation_order, "modulation_order")

    @cached_property
    def total_subcarriers(self) -> int:
        return self.data_subcarriers + self.pilot_subcarriers

    @cached_property
    def bits_per_symbol(self) -> int:
        return int(log2(self.modulation_order))

    @cached_property
    def payload_bits(self) -> int:
        """Data bits carried by one frame (1250 for the defaults)."""
        return self.data_subcarriers * self.symbols_per_frame * self.bits_per_symbol

    @cached_property
    def symbol_samples(self) -> int:
        return self.fft_size + self.cp_length

    @cached_property
    def frame_samples(self) -> int:
        return self.symbols_per_frame * self.symbol_samples

    @cached_property
    def subcarrier_spacing(self) -> float:
        return self.sample_rate / self.fft_size

    @cached_property
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


def _gray_decode(g: np.ndarray, width: int) -> np.ndarray:
    b = g.copy()
    shift = 1
    while shift < width:
        b ^= b >> shift
        shift *= 2
    return b


@lru_cache(maxsize=8)
def _axis_norm(order: int) -> float:
    # unit average energy for the square constellation
    return np.sqrt(2.0 * (order - 1) / 3.0)


def _check_order(order: int, name: str = "order") -> None:
    # square QAM: an axis holds sqrt(order) levels, from 2 up to 2**16 of them
    if not _is_power_of_two(order) or int(log2(order)) % 2 != 0 or not 4 <= order <= 4**16:
        raise ValueError(f"{name} must be a power of 4 from 4 to 4**16, got {_shown(order)}")


@lru_cache(maxsize=8)
def _axis_levels(order: int) -> np.ndarray:
    """Unit-energy axis value of each level index, the one table that
    modulation and SIC cancellation read."""
    levels = int(np.sqrt(order))
    return _frozen(((levels - 1) - 2.0 * np.arange(levels)) * (1.0 / _axis_norm(order)))


def _decide_levels(symbols: np.ndarray, order: int) -> np.ndarray:
    """Nearest level index on both axes of contiguous complex symbols, (n, 2)."""
    top = _axis_levels(order).size - 1
    # ((levels - 1) - vals * norm) / 2, rounded half to even by rint (np.round
    # at zero decimals) and clipped to the levels by the ufuncs np.clip runs
    idx = symbols.view(np.float64).reshape(-1, 2) * _axis_norm(order)
    np.subtract(top, idx, out=idx)
    idx /= 2.0
    np.rint(idx, out=idx)
    np.maximum(idx, 0, out=idx)
    np.minimum(idx, top, out=idx)
    return idx.astype(np.intp)


@lru_cache(maxsize=8)
def _bit_shifts(order: int) -> np.ndarray:
    """Right shift of each bit of an axis level, most significant first."""
    return _frozen(np.arange(_axis_bits(order) - 1, -1, -1))


def _levels_to_bits(idx: np.ndarray, order: int) -> np.ndarray:
    """Gray bits of (n, 2) level indices: the in-phase bits, then the quadrature
    bits of each symbol, most significant first."""
    gray = idx ^ (idx >> 1)
    return ((gray[..., None] >> _bit_shifts(order)) & 1).astype(np.uint8).reshape(-1)


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
    return _demodulate(symbols, order)


def _demodulate(symbols: np.ndarray, order: int) -> np.ndarray:
    """qam_demodulate's decisions on contiguous finite symbols, unchecked."""
    return _levels_to_bits(_decide_levels(symbols, order), order)


def _spectrum_scale(cfg: FrameConfig) -> float:
    # keeps unit-power occupied subcarriers mapping to unit mean sample power
    return cfg.fft_size / np.sqrt(cfg.total_subcarriers)


class _BlockBuffers:
    """One reusable array per role, for the arrays a block of frames needs.

    ``get`` returns a C-contiguous view, along the leading axis, of the
    role's array, so a block of fewer frames reuses the array of a longer
    one. A role's array is made zero-filled, and made anew only when the
    trailing axes or the dtype change or the leading axis outgrows it. A
    view is valid until the next call that gets the same role. A set is
    private to one run, which passes it to every block.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def get(self, role: str, shape: tuple, dtype=np.complex128) -> np.ndarray:
        arr = self._arrays.get(role)
        if arr is None or arr.dtype != dtype or arr.shape[1:] != shape[1:] or len(arr) < shape[0]:
            arr = self._arrays[role] = np.zeros(shape, dtype)
        return arr[: shape[0]]


def _assemble(payload, cfg: FrameConfig, pilot_seed, work: _BlockBuffers) -> np.ndarray:
    """assemble_frame's samples, written to the ``symbols`` array of ``work``."""
    payload = np.asarray(payload, dtype=np.int64)
    if payload.ndim not in (1, 2) or payload.shape[-1] != cfg.payload_bits:
        raise ValueError(
            f"payload must be {cfg.payload_bits} bits per frame, got shape {payload.shape}"
        )
    frames = payload.shape[:-1]
    rows = (len(payload) if payload.ndim == 2 else 1, cfg.symbols_per_frame)
    bins = occupied_bins(cfg)
    mask = pilot_mask(cfg)
    data_syms = qam_modulate(payload.reshape(-1), cfg.modulation_order)

    # zero when made; every call writes the same occupied bins, so the
    # others stay zero
    spectra = work.get("spectra", (*rows, cfg.fft_size))
    spectra[..., bins[mask]] = pilot_values(cfg, pilot_seed)
    spectra[..., bins[~mask]] = data_syms.reshape(*rows, cfg.data_subcarriers)
    symbols = work.get("symbols", (*rows, cfg.symbol_samples))
    bodies = symbols[..., cfg.cp_length :]
    np.fft.ifft(spectra, axis=-1, out=bodies)
    bodies *= _spectrum_scale(cfg)
    symbols[..., : cfg.cp_length] = symbols[..., cfg.fft_size :]
    return symbols.reshape(*frames, -1)


def assemble_frame(payload, cfg: FrameConfig, pilot_seed) -> np.ndarray:
    """Build one frame: modulate, interleave pilots, IFFT, prepend prefixes.

    Returns the time-domain samples at ``cfg.sample_rate``
    (symbols_per_frame * (fft + cp) of them). A payload block of shape
    (frames, payload_bits) builds one frame per row, and the samples
    carry the same leading frame axis.
    """
    return _assemble(payload, cfg, pilot_seed, _BlockBuffers())


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
    return _demap(body, occupied_bins(cfg), _spectrum_scale(cfg))


def _demap(body: np.ndarray, bins: np.ndarray, scale: float) -> np.ndarray:
    """disassemble_symbol's subcarriers of fft_size-sample bodies, unchecked."""
    # np.take lays the rows out contiguously, as later row sums need; the
    # kept bins divided alone hold the values of the whole spectrum divided
    occupied = np.fft.fft(body, axis=-1).take(bins, axis=-1)
    occupied /= scale
    return occupied
