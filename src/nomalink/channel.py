"""Mobile Rician fading channel with Doppler, CFO, path loss, and AWGN.

The fading is flat (single tap): a fixed zero-phase line-of-sight
component of power K/(K+1) plus a diffuse sum-of-sinusoids component of
power 1/(K+1) band-limited to the Doppler frequency. Mobility maps time
to base-station distance and gates when the Doppler shift, the diffuse
process, and any frequency wander are active. A maximum-likelihood
Rician K-factor estimator closes the loop between generated envelopes
and the parameter driving them.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Annotated

import numpy as np

from .frame_codec import INF, _BlockBuffers, _check_fields, _field_value, _seed_value

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelParams",
    "MobilityState",
    "ChannelRealization",
    "doppler_shift",
    "generate_fading",
    "apply_channel",
    "estimate_k_factor",
]

SPEED_OF_LIGHT = 2.99792458e8  # m/s


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and impairment parameters for one receiver.

    ``doppler_hz`` is both the line-of-sight shift while the vehicle moves
    and the bandwidth of the diffuse component. ``cfo_hz`` is the constant
    residual oscillator offset on top of it. ``cfo_jitter_hz`` is the
    standard deviation of a block-wise carrier wander active only while
    moving; it models the mobile-stage frequency estimation errors that a
    frame-rate tracker cannot follow. Noise is set either as an absolute
    floor (``noise_power_dbm``, with 0 dBW = 30 dBm meaning unit sample
    power) or per-frame relative to the received signal
    (``target_snr_db``); leave both unset for a noiseless channel.
    """

    # +inf K is pure line of sight; +inf dB SNR and -inf dBm mean noiseless,
    # and no infinite noise can be drawn
    rician_k: Annotated[float, INF, (">=", 0)] = 10.92
    doppler_hz: Annotated[float, (">=", 0)] = 0.0
    cfo_hz: float = 0.0
    cfo_jitter_hz: Annotated[float, (">=", 0)] = 0.0
    cfo_jitter_tau_s: Annotated[float, (">", 0)] = 6.4e-4
    target_snr_db: Annotated[float | None, INF, (">", -np.inf)] = None
    noise_power_dbm: Annotated[float | None, INF, ("<", np.inf)] = None
    path_loss_exponent: float = 2.0
    reference_distance: Annotated[float, (">", 0)] = 1.0
    delay_samples: Annotated[int, (">=", 0)] = 0
    # each fading call draws an angle and a phase per sinusoid
    n_sinusoids: Annotated[int, (">=", 1), ("<=", 2**16)] = 64

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.target_snr_db is not None and self.noise_power_dbm is not None:
            raise ValueError("target_snr_db and noise_power_dbm exclude each other: set one")


@dataclass(frozen=True)
class MobilityState:
    """Piecewise-linear motion: hold at start distance, travel, then stop.

    The vehicle is motionless before ``stationary_end``, moves with
    constant ``speed`` until ``mobile_end`` while its distance to the
    base station interpolates linearly from ``start_distance`` to
    ``end_distance``, and is motionless again afterwards.
    """

    start_distance: Annotated[float, (">", 0)]
    end_distance: Annotated[float | None, (">", 0)] = None
    _: KW_ONLY
    stationary_end: Annotated[float, INF]
    mobile_end: Annotated[float, INF]
    speed: Annotated[float, (">=", 0)]

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.end_distance is None:
            object.__setattr__(self, "end_distance", self.start_distance)
        if not self.mobile_end >= self.stationary_end:
            raise ValueError("mobile_end must be a time not before stationary_end")

    @classmethod
    def static(cls, distance: float) -> "MobilityState":
        """Never moves; distance fixed for all time."""
        return cls(distance, distance, stationary_end=np.inf, mobile_end=np.inf, speed=0.0)

    @classmethod
    def always_moving(cls, distance: float, speed: float = 0.876) -> "MobilityState":
        """In motion from t=0 onward at a fixed distance (gates Doppler on)."""
        return cls(distance, distance, stationary_end=0.0, mobile_end=np.inf, speed=speed)

    @property
    def travel_time(self) -> float:
        return self.mobile_end - self.stationary_end

    def motion_time(self, t) -> np.ndarray:
        """Seconds spent moving up to time t (the clock driving the fading)."""
        t = np.asarray(t, dtype=float)
        return self._motion_time(t, np.empty(t.shape))

    def _motion_time(self, t: np.ndarray, out: np.ndarray) -> np.ndarray:
        upper = self.travel_time if np.isfinite(self.travel_time) else np.inf
        np.subtract(t, self.stationary_end, out=out)
        return np.clip(out, 0.0, upper, out=out)

    def is_moving(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (t >= self.stationary_end) & (t < self.mobile_end) & (self.speed > 0)

    def distance(self, t) -> np.ndarray:
        return self._distance(self.motion_time(t))

    def _distance(self, moved: np.ndarray) -> np.ndarray:
        """Distance after ``moved`` seconds of motion, written over ``moved``."""
        if not np.isfinite(self.travel_time) or self.travel_time <= 0:
            moved.fill(float(self.start_distance))
            return moved
        moved /= self.travel_time
        moved *= self.end_distance - self.start_distance
        moved += self.start_distance
        return moved


@dataclass(frozen=True)
class ChannelRealization:
    """Ground truth of one apply_channel call, for oracle comparison.

    For one frame ``tap_gain`` holds one gain per received sample and
    ``applied_cfo_hz`` and ``noise_power`` are floats. For a block of
    frames ``tap_gain`` is ``(frames, samples)`` and ``applied_cfo_hz``
    and ``noise_power`` hold one entry per frame.
    """

    tap_gain: np.ndarray
    applied_cfo_hz: float | np.ndarray
    applied_delay: int
    noise_power: float | np.ndarray


def doppler_shift(speed: float, carrier_frequency: float) -> float:
    """Doppler frequency v * f_c / c in Hz."""
    speed = _field_value("speed", Annotated[float, (">=", 0)], speed)
    return speed * carrier_frequency / SPEED_OF_LIGHT


def _sos_parameters(rng: np.random.Generator, n_sinusoids: int):
    """Arrival angles and phases of the diffuse sum-of-sinusoids process."""
    angles = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    return angles, phases


def _phasor(theta, out=None) -> np.ndarray:
    """exp(1j * theta) for real theta, from one cosine and one sine pass.

    On the pinned numpy this is byte for byte ``np.exp(1j * theta)``,
    whose complex exp multiplies exp(0) = 1 into the same libm cosine and
    sine, without its complex argument array and complex exponential.
    The one exception is theta = -0.0: ``1j * -0.0`` has a +0.0
    imaginary part, so np.exp gives 1+0j where this gives 1-0j. The
    fading arguments add a draw in [0, 2 pi), and apply_channel adds
    +0.0 to the carrier phase, so no channel phase reaching here is -0.0.
    The phasors are written to ``out`` if given.
    """
    if out is None:
        out = np.empty(np.shape(theta), dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _diffuse_gain(angles, phases, doppler_hz: float, tau) -> np.ndarray:
    """Unit-power diffuse component evaluated at fading times tau.

    A 2-D tau holds one row of times per frame; angles and phases are
    then shared by every row or hold one row per frame.
    """
    tau = np.asarray(tau, dtype=float)
    n = angles.shape[-1]
    rates = 2.0 * np.pi * doppler_hz * np.cos(angles)
    # the choice goes by row length, so a row of a block is evaluated as
    # it would be on its own
    if tau.shape[-1] * n <= 1_000_000:
        terms = _phasor(tau[..., :, None] * rates[..., None, :] + phases[..., None, :])
        return terms.sum(axis=-1) / np.sqrt(n)
    out = np.zeros(tau.shape, dtype=np.complex128)
    for rate, phi in zip(np.moveaxis(rates, -1, 0), np.moveaxis(phases, -1, 0)):
        out += _phasor(rate[..., None] * tau + phi[..., None])
    return out / np.sqrt(n)


# max sinusoid phase advance between interpolation knots (rad); keeps the
# interpolation error of the sampled process about 70 dB down
_KNOT_PHASE_STEP = 0.05


def _diffuse_gain_sampled(angles, phases, doppler_hz: float, tau, out=None) -> np.ndarray:
    """Diffuse gain over rows of slowly-varying times via knot interpolation.

    ``tau`` holds one row of times per frame; ``angles`` and ``phases``
    are shared by all rows or hold one row per frame. The process is
    band-limited to doppler_hz, so within a frame it moves through a tiny
    phase angle; evaluating the sinusoid sum on a few knots and
    interpolating is exact to well below the noise floor while avoiding a
    per-sample triple product. Every row gets exactly the knots it would
    get on its own. The gain is written to ``out`` if given.
    """
    rows, n = tau.shape
    angles = np.broadcast_to(angles, (rows, angles.shape[-1]))
    phases = np.broadcast_to(phases, angles.shape)
    span = np.ptp(tau, axis=1)
    # a row that needs a knot per sample gets one: np.interp returns knot values exactly
    n_knots = np.minimum(
        np.ceil(2.0 * np.pi * doppler_hz * span / _KNOT_PHASE_STEP).astype(int) + 2, n
    )
    if out is None:
        out = np.empty(tau.shape, dtype=np.complex128)

    flat = (span == 0.0) | (doppler_hz == 0.0)
    if flat.any():
        out[flat] = _diffuse_gain(angles[flat], phases[flat], doppler_hz, tau[flat, :1])
    sample = np.arange(n, dtype=float)
    # np.unique would import numpy.ma, about 13 ms in each fresh process;
    # the rounded knot positions never decrease, so dropping a repeat of
    # the previous one keeps each once
    for count in sorted(set(n_knots[~flat].tolist())):
        sel = np.flatnonzero(~flat & (n_knots == count))
        idx = np.linspace(0, n - 1, count).round().astype(int)
        idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
        at_knots = np.ascontiguousarray(tau[sel][:, idx])
        knots = _diffuse_gain(angles[sel], phases[sel], doppler_hz, at_knots)
        for r, row in zip(sel, knots):
            out[r].real = np.interp(sample, idx, row.real)
            out[r].imag = np.interp(sample, idx, row.imag)
    return out


def _rician_weights(k: float) -> tuple[float, float]:
    """(LOS, diffuse) amplitude weights; exact pure-LOS limit for K=inf."""
    if np.isinf(k):
        return 1.0, 0.0
    return float(np.sqrt(k / (k + 1.0))), float(np.sqrt(1.0 / (k + 1.0)))


def _seed_words(seed) -> list[int]:
    """The entries of ``seed`` as ints, or ``seed`` itself if it is one number."""
    try:
        entries = iter(seed)
    except TypeError:
        return [int(seed)]
    return [int(s) for s in entries]


def _per_frame(seed) -> bool:
    """Whether a seed list holds one seed row per frame: a list of lists."""
    return isinstance(seed, (tuple, list)) and len(seed) > 0 and all(
        isinstance(row, (tuple, list)) for row in seed
    )


def _seed_rows(seed, frames: int):
    """apply_channel's ``seed``, checked: one seed for every row, or a 2-D
    array or list with one seed row per frame, as a tuple of rows."""
    if isinstance(seed, np.ndarray):
        seed = seed.tolist()
    if not _per_frame(seed):
        return _seed_value("seed", seed)
    rows = tuple(_seed_value(f"seed[{i}]", row) for i, row in enumerate(seed))
    if len(rows) != frames:
        raise ValueError(f"seed must hold one row per frame: {len(rows)} rows for {frames} frames")
    if len({len(row) for row in rows}) > 1:
        raise ValueError(f"seed rows must be of equal length, got {[len(row) for row in rows]}")
    return rows


def _fading_seed(seed):
    return _seed_words(seed) + [0]


def _noise_seed(seed, start_sample: int):
    return _seed_words(seed) + [1, int(start_sample)]


def _keyed_rng(words: list[int]) -> np.random.Generator:
    """``np.random.default_rng(words)``: the same state and draws, seeded
    from an array of uint32 words, which skips numpy's coercion of a list.
    A word below 0 or above 2**32 - 1 leaves that coercion to decide."""
    try:
        key = np.array(words, dtype=np.uint32)
    except OverflowError:
        return np.random.default_rng(words)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def generate_fading(
    params: ChannelParams, n_samples: int, sample_rate: float, seed
) -> np.ndarray:
    """Rician flat-fading gain sequence, deterministic for a given seed.

    LOS power K/(K+1) at fixed zero phase plus a diffuse component of
    power 1/(K+1) whose spectrum is confined to +-doppler_hz.
    """
    n_samples = _field_value("n_samples", Annotated[int, (">", 0)], n_samples)
    sample_rate = _field_value("sample_rate", Annotated[float, (">", 0)], sample_rate)
    rng = _keyed_rng(_fading_seed(_seed_value("seed", seed)))
    angles, phases = _sos_parameters(rng, params.n_sinusoids)
    tau = np.arange(n_samples) / sample_rate
    los, diff = _rician_weights(params.rician_k)
    return los + diff * _diffuse_gain(angles, phases, params.doppler_hz, tau)


def _block_wander(
    rng: np.random.Generator, n: int, std_hz: float, block_samples: float
) -> np.ndarray:
    """Piecewise-constant frequency wander over ``n`` samples, one draw per
    block of ``block_samples`` samples rounded. A block that outlasts the row
    is cut to the row first: one draw either way, and no array past the row."""
    step = max(1, int(round(min(block_samples, n))))
    draws = rng.normal(0.0, std_hz, -(-n // step))
    return np.repeat(draws, step)[:n]


def apply_channel(
    tx,
    sample_rate: float,
    params: ChannelParams,
    mobility: MobilityState,
    seed,
    t0=0.0,
) -> tuple[np.ndarray, ChannelRealization]:
    """Propagate transmit samples at ``sample_rate`` through the mobile
    fading channel.

    rx[n] = a(d(t_n)) * h[n] * tx[n - delay] * exp(j*phi[n]) + w[n], where
    phi integrates the instantaneous frequency offset (constant CFO, plus
    the Doppler shift and carrier wander while the vehicle moves), a() is
    the amplitude path loss (d0/d)^(exponent/2), and w is complex white
    Gaussian noise at the configured level. The fading realization is a
    function of ``seed`` alone, so consecutive calls with increasing
    ``t0`` continue the same channel; noise and wander draws are keyed by
    (seed, start sample) and therefore differ per call deterministically.

    ``tx`` is one frame's samples or a block of frames, one row each. A
    block is propagated row by row in one call, exactly as one call per
    row would: ``t0`` then gives each row's start time, and ``seed`` is
    either one seed shared by the rows or a 2-D array with one seed row
    per frame. A seed is a non-negative integer or a list of them. The
    realization's fields then hold one row or value per frame. An empty
    ``tx``, one that is not 1-D or 2-D or holds a non-finite sample, a
    ``sample_rate`` that is not a finite number > 0, a seed or seed row
    of another form or count, or a ``t0`` that is neither one finite time
    nor one per frame is a ValueError before any draw. The received
    samples and the tap gain are new arrays.
    """
    tx = np.asarray(tx, dtype=np.complex128)
    if tx.ndim not in (1, 2) or tx.size == 0:
        raise ValueError(f"tx must be a non-empty 1-D or 2-D array, got shape {tx.shape}")
    if not np.isfinite(tx).all():
        raise ValueError("tx must hold finite samples")
    sample_rate = _field_value("sample_rate", Annotated[float, (">", 0)], sample_rate)
    block = tx.reshape(-1, tx.shape[-1])
    frames = block.shape[0]
    seed = _seed_rows(seed, frames)
    t0 = np.asarray(t0, dtype=float)
    if t0.ndim > 1 or t0.size not in (1, frames):
        raise ValueError(
            f"t0 must be one start time or one per frame ({frames}), got shape {t0.shape}"
        )
    if not np.isfinite(t0).all():
        raise ValueError(f"t0 must be finite, got {t0}")
    rx, h, cfo, noise = _propagate(block, sample_rate, params, mobility, seed, t0, _BlockBuffers())
    if tx.ndim == 1:
        rx, h, cfo, noise = rx[0], h[0], float(cfo[0]), float(noise[0])
    return rx, ChannelRealization(h, cfo, params.delay_samples, noise)


def _propagate(block, sample_rate, params, mobility, seed, t0, work: _BlockBuffers):
    """apply_channel on a (frames, samples) block, unchecked: the received
    samples and the tap gain, in arrays of ``work``, then per frame the
    mean applied offset and the noise power."""
    frames = block.shape[0]
    per_frame = _per_frame(seed)
    delay = params.delay_samples
    n = block.shape[1] + delay
    shape = (frames, n)
    if delay:
        x = np.concatenate([np.zeros((frames, delay), dtype=np.complex128), block], axis=1)
    else:
        x = block
    t0 = np.broadcast_to(t0, (frames,))
    # Each block array below is written in place, into one buffer per
    # role, with the operands and order of the named expression beside it.
    t = np.add(t0[:, None], np.arange(n) / sample_rate, out=work.get("t", shape, float))
    seeds = list(seed) if per_frame else [seed] * frames

    drawn = [
        _sos_parameters(_keyed_rng(_fading_seed(s)), params.n_sinusoids)
        for s in (seeds if per_frame else [seed])
    ]
    angles, phases = (np.stack(v) for v in zip(*drawn))
    los, diff = _rician_weights(params.rician_k)
    # amp holds the motion time, then the distance, then the path loss
    amp = mobility._motion_time(t, work.get("amp", shape, float))
    h = _diffuse_gain_sampled(angles, phases, params.doppler_hz, amp, out=work.get("h", shape))
    # los + diff * h
    h *= diff
    h += los
    # (reference_distance / distance(t)) ** (exponent / 2)
    amp = np.divide(params.reference_distance, mobility._distance(amp), out=amp)
    amp **= params.path_loss_exponent / 2.0
    # amp * h * x, then times the rotation below: on the pinned numpy an
    # in-place complex multiply has the bytes of a new array for two or
    # more samples (pinned in tests/test_exactness.py), not always for one
    rx = np.multiply(amp, h, out=work.get("rx", shape))
    rx *= x

    draw_rngs = [
        _keyed_rng(_noise_seed(s, int(round(start * sample_rate))))
        for s, start in zip(seeds, t0)
    ]
    moving = mobility.is_moving(t)
    # f_inst = cfo_hz + doppler_hz * moving, with t's buffer for the product
    f_inst = amp
    f_inst.fill(params.cfo_hz)
    f_inst += np.multiply(params.doppler_hz, moving, out=t)
    if params.cfo_jitter_hz > 0:
        block_samples = params.cfo_jitter_tau_s * sample_rate
        for row, rng, row_moving in zip(f_inst, draw_rngs, moving):
            row += _block_wander(rng, n, params.cfo_jitter_hz, block_samples) * row_moving
    applied_cfo = np.mean(f_inst, axis=1)
    f_inst *= 2.0 * np.pi
    f_inst /= sample_rate
    phase = t
    phase[:, 0] = 0.0
    np.cumsum(f_inst[:, :-1], axis=1, out=phase[:, 1:])
    # a negative CFO that underflows leaves -0.0 phases, where _phasor's
    # sine keeps the sign that np.exp(1j * phase) drops
    phase += 0.0
    rx *= _phasor(phase, out=work.get("rotation", shape))

    if params.target_snr_db is not None:
        # np.abs(rx) ** 2, in phase's buffer
        power = np.abs(rx, out=phase)
        power **= 2
        signal_power = np.mean(power, axis=1)
        noise_power = signal_power / 10.0 ** (params.target_snr_db / 10.0)
    elif params.noise_power_dbm is not None:
        noise_power = np.full(frames, 10.0 ** ((params.noise_power_dbm - 30.0) / 10.0))
    else:
        noise_power = np.zeros(frames)

    # each draw's (n, 2) rows are one sample's in-phase and quadrature noise
    interleaved = rx.view(np.float64).reshape(frames, n, 2)
    for f in np.flatnonzero(noise_power > 0):
        interleaved[f] += draw_rngs[f].normal(0.0, np.sqrt(noise_power[f] / 2.0), (n, 2))

    return rx, h, applied_cfo, noise_power


def _rician_moment_start(m2: float, m4: float) -> tuple[float, float]:
    nc2 = float(np.sqrt(max(2.0 * m2 * m2 - m4, 0.0)))
    s2 = max((m2 - nc2) / 2.0, 1e-12 * m2)
    return np.sqrt(nc2), s2


def estimate_k_factor(envelope_samples) -> tuple[float, float, float]:
    """Maximum-likelihood Rician fit of envelope magnitudes.

    Returns (K, non_centrality, scale) with K = nu^2 / (2 sigma^2). The
    likelihood is maximised by the EM fixed point nu <- E[x * I1/I0(x
    nu/sigma^2)], sigma^2 <- (E[x^2] - nu^2)/2, run on a fine histogram
    of the samples so that a million-sample fit stays fast.
    """
    # scipy is loaded here, on the only call that needs it, so that importing
    # nomalink and every other command start without it
    from scipy import special

    x = np.asarray(envelope_samples)
    # a complex gain cast to float would keep only its real part
    if np.iscomplexobj(x):
        raise ValueError("envelope samples must be real magnitudes: pass np.abs of complex gains")
    x = np.asarray(x, dtype=float).ravel()
    if x.size < 1000:
        raise ValueError(f"need at least 1000 samples, got {x.size}")
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise ValueError("envelope samples must be finite and non-negative")
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate envelope: all samples equal")

    counts, edges = np.histogram(x, bins=4096)
    centers = 0.5 * (edges[:-1] + edges[1:])
    keep = counts > 0
    centers, weights = centers[keep], counts[keep] / counts.sum()

    m2 = float(np.sum(weights * centers**2))
    m4 = float(np.sum(weights * centers**4))
    nu, s2 = _rician_moment_start(m2, m4)
    scale_ref = np.sqrt(m2)
    for _ in range(2000):
        kappa = centers * nu / s2
        ratio = special.i1e(kappa) / special.i0e(kappa)
        nu_new = float(np.sum(weights * centers * ratio))
        s2_new = max((m2 - nu_new**2) / 2.0, 1e-300)
        converged = abs(nu_new - nu) <= 1e-10 * scale_ref and abs(s2_new - s2) <= 1e-10 * m2
        nu, s2 = nu_new, s2_new
        if converged:
            break
    sigma = float(np.sqrt(s2))
    k = float(nu**2 / (2.0 * s2))
    return k, float(nu), sigma
