"""Power-domain superposition, power allocation, and the SIC decoder.

Users are indexed 1..K ordered far/weak to near/strong: user 1 holds the
largest power coefficient and decodes directly, treating everyone else as
noise; user k first detects and subtracts users 1..k-1 (hard-decision
remodulation), then decodes its own signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Annotated, Sequence

import numpy as np

from .frame_codec import (
    FrameConfig,
    _assemble,
    _axis_levels,
    _BlockBuffers,
    _check_fields,
    _check_order,
    _decide_levels,
    _field_value,
    _frozen,
    _payload_bits,
    _pilot_values,
    _seed_value,
)

__all__ = [
    "PowerAllocation",
    "DEFAULT_POWER_COEFFICIENTS",
    "allocate_power_by_distance",
    "build_downlink_frame",
]

# superpose and sic_decode are stage functions that no run calls. The traced
# benchmark wraps them by name, so they stay defined, outside __all__, until
# ROADMAP item 5 retires its stage spans

# Measured testbed preset (far to near). Distinct from the distance-squared
# policy, which yields near-equal coefficients for the testbed geometry.
DEFAULT_POWER_COEFFICIENTS = (0.761, 0.191, 0.048)

_SUM_TOL = 1e-9
_DISTANCES = tuple[Annotated[float, (">", 0)], ...]


@dataclass(frozen=True)
class PowerAllocation:
    """Per-user power coefficients, ordered far/weak to near/strong."""

    coefficients: tuple[Annotated[float, (">", 0)], ...]

    def __post_init__(self) -> None:
        _check_fields(self)
        coeffs = self.coefficients
        if len(coeffs) == 0:
            raise ValueError("allocation needs at least one coefficient")
        if abs(sum(coeffs) - 1.0) > _SUM_TOL:
            raise ValueError(f"power coefficients must sum to 1, got {sum(coeffs):.9f}")
        if any(a < b - _SUM_TOL for a, b in zip(coeffs, coeffs[1:])):
            raise ValueError("coefficients must be non-increasing (weak user first)")

    @property
    def n_users(self) -> int:
        return len(self.coefficients)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.coefficients))

    @classmethod
    def testbed_default(cls) -> "PowerAllocation":
        return cls(DEFAULT_POWER_COEFFICIENTS)


def allocate_power_by_distance(distances) -> PowerAllocation:
    """Coefficients proportional to squared base-station distance.

    alpha_k = d_k^2 / sum_j d_j^2, ordered so the farthest user holds the
    largest coefficient.
    """
    d = np.asarray(distances, dtype=object)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a non-empty 1-D sequence")
    d = np.array(_field_value("distances", _DISTANCES, d.tolist()), dtype=float)
    # squares or a sum that overflow to inf or underflow to 0 give
    # coefficients of 0 or NaN
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        squares = d**2
        alpha = squares / np.sum(squares)
    if not np.all(alpha > 0):
        raise ValueError(
            f"distances {tuple(d.tolist())} have squares or a sum of squares that"
            " overflow or underflow the float range"
        )
    alpha = np.sort(alpha)[::-1]
    # renormalise away float rounding so the invariant holds exactly
    alpha = alpha / alpha.sum()
    return PowerAllocation(tuple(alpha))


def superpose(waveforms: Sequence, alloc: PowerAllocation) -> np.ndarray:
    """Amplitude-weighted sum of per-user samples: sum_k sqrt(alpha_k) x_k.

    Samples holding a block of frames are summed frame by frame.
    """
    if len(waveforms) != alloc.n_users:
        raise ValueError(
            f"got {len(waveforms)} waveforms for {alloc.n_users} coefficients"
        )
    waves = [np.asarray(w, dtype=np.complex128) for w in waveforms]
    shapes = {w.shape for w in waves}
    if len(shapes) != 1:
        raise ValueError("user waveforms must have equal length")
    out = np.zeros(shapes.pop(), dtype=np.complex128)
    for amp, wave in zip(alloc.amplitudes, waves):
        out += amp * wave
    return out


def sic_decode(
    symbols,
    alloc: PowerAllocation,
    user: int,
    order: int = 4,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Successive interference cancellation on equalized composite symbols.

    For stage j = 1..user-1: decide user j's constellation levels
    (remaining users act as noise), remodulate them, scale by sqrt(alpha_j)
    and subtract. The returned own-symbol sequence is the final residual
    scaled by 1/sqrt(alpha_user); each stage's decisions are returned as
    its (symbols, 2) in-phase and quadrature level indices, which
    ``frame_codec._levels_to_bits`` maps to that user's bits.
    User 1 performs zero stages. Decision errors propagate as symbol
    errors by design: imperfect cancellation is a measured phenomenon,
    not a failure mode.
    """
    user = _check_user(user, alloc)
    order = _check_order(order)
    residual = np.array(symbols, dtype=np.complex128, order="C")
    if not np.all(np.isfinite(residual)):
        raise ValueError("symbols must be finite")
    return _sic(residual, alloc.amplitudes, user, order)


def _check_user(user, alloc: PowerAllocation) -> int:
    """``user`` as an integer index into the allocation's users, 1 to n_users."""
    user = _field_value("user", int, user)
    if not 1 <= user <= alloc.n_users:
        raise ValueError(f"user index {user} outside 1..{alloc.n_users}")
    return user


def _sic(
    residual: np.ndarray, amps: np.ndarray, user: int, order: int
) -> tuple[np.ndarray, list[np.ndarray]]:
    """sic_decode's stages on finite, C-contiguous symbols, unchecked; the
    stages subtract from ``residual`` in place."""
    stage_levels: list[np.ndarray] = []
    # per-axis values looked up by level: the same bits as subtracting
    # the remodulated complex symbols
    axis_values = residual.view(np.float64).reshape(-1, 2)
    for j in range(user - 1):
        idx = _decide_levels(residual / amps[j], order)
        stage_levels.append(idx)
        axis_values -= (amps[j] * _axis_levels(order))[idx]
    return residual / amps[user - 1], stage_levels


def _user_pilot_seed(pilot_seed, user: int) -> tuple[int, ...]:
    """User ``user``'s pilot seed: the checked seed's words, then the user."""
    return (*pilot_seed, user) if isinstance(pilot_seed, tuple) else (pilot_seed, user)


@lru_cache(maxsize=256)
def _composite_pilots(cfg: FrameConfig, alloc: PowerAllocation, pilot_seed) -> np.ndarray:
    """Superposed pilots of a checked pilot seed, one shared array per key."""
    out = np.zeros(cfg.pilot_subcarriers, dtype=np.complex128)
    for k, amp in enumerate(alloc.amplitudes, start=1):
        out += amp * _pilot_values(cfg, _user_pilot_seed(pilot_seed, k))
    return _frozen(out)


def build_downlink_frame(
    payloads: Sequence,
    cfg: FrameConfig,
    alloc: PowerAllocation,
    pilot_seed: int,
) -> np.ndarray:
    """Assemble one frame per user and superpose them for transmission.

    Returns the samples at ``cfg.sample_rate``, a new array. Each payload
    may be a block of shape (frames, payload_bits); the samples then carry
    that leading frame axis. The samples are those of ``superpose`` over
    ``assemble_frame``'s frames. A payload that ``assemble_frame`` rejects,
    or payload blocks of unequal frame counts, are a ValueError.
    """
    if len(payloads) != alloc.n_users:
        raise ValueError(f"need {alloc.n_users} payloads, got {len(payloads)}")
    pilot_seed = _seed_value("pilot_seed", pilot_seed)
    payloads = [_payload_bits(payload, cfg) for payload in payloads]
    if len({payload.shape for payload in payloads}) != 1:
        raise ValueError("user waveforms must have equal length")
    return _downlink(payloads, cfg, alloc, pilot_seed, _BlockBuffers())


def _downlink(
    payloads, cfg: FrameConfig, alloc: PowerAllocation, pilot_seed, work: _BlockBuffers, out=None
):
    """build_downlink_frame's samples of checked payload bits of one shape,
    unchecked, written to ``out`` if given, else to the ``tx`` array of ``work``."""
    for k, (amp, payload) in enumerate(zip(alloc.amplitudes, payloads), start=1):
        wave = _assemble(payload, cfg, _user_pilot_seed(pilot_seed, k), work)
        if k == 1:
            out = work.get("tx", wave.shape) if out is None else out
            out[...] = 0.0
        # superpose's sum, with the frame's buffer as the scaled term
        wave *= amp
        out += wave
    return out
