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

import numpy as np

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

    rician_k: float = 10.92
    doppler_hz: float = 0.0
    cfo_hz: float = 0.0
    cfo_jitter_hz: float = 0.0
    cfo_jitter_tau_s: float = 6.4e-4
    target_snr_db: float | None = None
    noise_power_dbm: float | None = None
    path_loss_exponent: float = 2.0
    reference_distance: float = 1.0
    delay_samples: int = 0
    n_sinusoids: int = 64

    def __post_init__(self) -> None:
        # each comparison fails on NaN; only K and the noise level may be infinite
        if not self.rician_k >= 0:
            raise ValueError(f"rician_k must be >= 0, got {self.rician_k}")
        if not 0 <= self.doppler_hz < np.inf:
            raise ValueError(f"doppler_hz must be >= 0 and finite, got {self.doppler_hz}")
        if not np.isfinite(self.cfo_hz):
            raise ValueError(f"cfo_hz must be finite, got {self.cfo_hz}")
        if not 0 <= self.cfo_jitter_hz < np.inf:
            raise ValueError(f"cfo_jitter_hz must be >= 0 and finite, got {self.cfo_jitter_hz}")
        if not 0 < self.cfo_jitter_tau_s < np.inf:
            raise ValueError(f"cfo_jitter_tau_s must be > 0 and finite, got {self.cfo_jitter_tau_s}")
        if self.target_snr_db is not None and self.noise_power_dbm is not None:
            raise ValueError("target_snr_db and noise_power_dbm exclude each other: set one")
        # a NaN level would draw no noise at all, and an infinite noise
        # power cannot be drawn; +inf dB SNR and -inf dBm mean noiseless
        snr, floor = self.target_snr_db, self.noise_power_dbm
        if snr is not None and not snr > -np.inf:
            raise ValueError(f"target_snr_db must be a number above -inf, got {snr}")
        if floor is not None and not floor < np.inf:
            raise ValueError(f"noise_power_dbm must be a number below inf, got {floor}")
        if not np.isfinite(self.path_loss_exponent):
            raise ValueError(f"path_loss_exponent must be finite, got {self.path_loss_exponent}")
        if not 0 < self.reference_distance < np.inf:
            raise ValueError("reference_distance must be > 0 and finite")
        if not self.delay_samples >= 0:
            raise ValueError("delay_samples must be >= 0")
        if not self.n_sinusoids >= 1:
            raise ValueError("n_sinusoids must be >= 1")


@dataclass(frozen=True)
class MobilityState:
    """Piecewise-linear motion: hold at start distance, travel, then stop.

    The vehicle is motionless before ``stationary_end``, moves with
    constant ``speed`` until ``mobile_end`` while its distance to the
    base station interpolates linearly from ``start_distance`` to
    ``end_distance``, and is motionless again afterwards.
    """

    start_distance: float
    end_distance: float | None = None
    _: KW_ONLY
    stationary_end: float
    mobile_end: float
    speed: float

    def __post_init__(self) -> None:
        if self.end_distance is None:
            object.__setattr__(self, "end_distance", self.start_distance)
        if not (0 < self.start_distance < np.inf and 0 < self.end_distance < np.inf):
            raise ValueError("start_distance and end_distance must be > 0 and finite")
        if not self.mobile_end >= self.stationary_end:
            raise ValueError("mobile_end must be a time not before stationary_end")
        if not 0 <= self.speed < np.inf:
            raise ValueError(f"speed must be >= 0 and finite, got {self.speed}")

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
        upper = self.travel_time if np.isfinite(self.travel_time) else np.inf
        return np.clip(t - self.stationary_end, 0.0, upper)

    def is_moving(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return (t >= self.stationary_end) & (t < self.mobile_end) & (self.speed > 0)

    def distance(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if not np.isfinite(self.travel_time) or self.travel_time <= 0:
            return np.full(t.shape, float(self.start_distance))
        frac = self.motion_time(t) / self.travel_time
        return self.start_distance + (self.end_distance - self.start_distance) * frac


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
    if not 0 <= speed < np.inf:
        raise ValueError(f"speed must be >= 0 and finite, got {speed}")
    return speed * carrier_frequency / SPEED_OF_LIGHT


def _sos_parameters(rng: np.random.Generator, n_sinusoids: int):
    """Arrival angles and phases of the diffuse sum-of-sinusoids process."""
    angles = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    phases = rng.uniform(0.0, 2.0 * np.pi, n_sinusoids)
    return angles, phases


def _phasor(theta) -> np.ndarray:
    """exp(1j * theta) for real theta, from one cosine and one sine pass.

    On the pinned numpy this is byte for byte ``np.exp(1j * theta)``,
    whose complex exp multiplies exp(0) = 1 into the same libm cosine and
    sine, without its complex argument array and complex exponential.
    The one exception is theta = -0.0: ``1j * -0.0`` has a +0.0
    imaginary part, so np.exp gives 1+0j where this gives 1-0j. The
    fading arguments add a draw in [0, 2 pi), and apply_channel adds
    +0.0 to the carrier phase, so no channel phase reaching here is -0.0.
    """
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


def _diffuse_gain_sampled(angles, phases, doppler_hz: float, tau) -> np.ndarray:
    """Diffuse gain over rows of slowly-varying times via knot interpolation.

    ``tau`` holds one row of times per frame; ``angles`` and ``phases``
    are shared by all rows or hold one row per frame. The process is
    band-limited to doppler_hz, so within a frame it moves through a tiny
    phase angle; evaluating the sinusoid sum on a few knots and
    interpolating is exact to well below the noise floor while avoiding a
    per-sample triple product. Every row gets exactly the knots it would
    get on its own.
    """
    rows, n = tau.shape
    angles = np.broadcast_to(angles, (rows, angles.shape[-1]))
    phases = np.broadcast_to(phases, angles.shape)
    span = np.ptp(tau, axis=1)
    # a row that needs a knot per sample gets one: np.interp returns knot values exactly
    n_knots = np.minimum(
        np.ceil(2.0 * np.pi * doppler_hz * span / _KNOT_PHASE_STEP).astype(int) + 2, n
    )
    out = np.empty(tau.shape, dtype=np.complex128)

    flat = (span == 0.0) | (doppler_hz == 0.0)
    if flat.any():
        out[flat] = _diffuse_gain(angles[flat], phases[flat], doppler_hz, tau[flat, :1])
    sample = np.arange(n, dtype=float)
    for count in np.unique(n_knots[~flat]):
        sel = np.flatnonzero(~flat & (n_knots == count))
        idx = np.unique(np.linspace(0, n - 1, count).round().astype(int))
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


def _fading_seed(seed):
    return [int(s) for s in np.atleast_1d(seed)] + [0]


def _noise_seed(seed, start_sample: int):
    return [int(s) for s in np.atleast_1d(seed)] + [1, int(start_sample)]


def generate_fading(
    params: ChannelParams, n_samples: int, sample_rate: float, seed
) -> np.ndarray:
    """Rician flat-fading gain sequence, deterministic for a given seed.

    LOS power K/(K+1) at fixed zero phase plus a diffuse component of
    power 1/(K+1) whose spectrum is confined to +-doppler_hz.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if not 0 < sample_rate < np.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    rng = np.random.default_rng(_fading_seed(seed))
    angles, phases = _sos_parameters(rng, params.n_sinusoids)
    tau = np.arange(n_samples) / sample_rate
    los, diff = _rician_weights(params.rician_k)
    return los + diff * _diffuse_gain(angles, phases, params.doppler_hz, tau)


def _block_wander(
    rng: np.random.Generator, n: int, std_hz: float, block_samples: int
) -> np.ndarray:
    """Piecewise-constant frequency wander, one draw per block."""
    n_blocks = -(-n // block_samples)
    draws = rng.normal(0.0, std_hz, n_blocks)
    return np.repeat(draws, block_samples)[:n]


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
    per frame. The realization's fields then hold one row or value per
    frame. An empty ``tx``, one that is not 1-D or 2-D or holds a
    non-finite sample, a ``sample_rate`` that is not positive and finite,
    another seed row count, or a ``t0`` that is neither one time nor one
    per frame is a ValueError before any draw.
    """
    tx = np.asarray(tx, dtype=np.complex128)
    if tx.ndim not in (1, 2) or tx.size == 0:
        raise ValueError(f"tx must be a non-empty 1-D or 2-D array, got shape {tx.shape}")
    if not np.isfinite(tx).all():
        raise ValueError("tx must hold finite samples")
    if not 0 < sample_rate < np.inf:
        raise ValueError(f"sample_rate must be positive and finite, got {sample_rate}")
    block = tx.reshape(-1, tx.shape[-1])
    frames = block.shape[0]
    per_frame = np.ndim(seed) == 2
    if per_frame and len(seed) != frames:
        raise ValueError(
            f"seed must hold one row per frame: {len(seed)} rows for {frames} frames"
        )
    t0 = np.asarray(t0, dtype=float)
    if t0.ndim > 1 or t0.size not in (1, frames):
        raise ValueError(
            f"t0 must be one start time or one per frame ({frames}), got shape {t0.shape}"
        )
    delay = params.delay_samples
    n = tx.shape[-1] + delay
    if delay:
        x = np.concatenate([np.zeros((frames, delay), dtype=np.complex128), block], axis=1)
    else:
        x = block
    t0 = np.broadcast_to(t0, (frames,))
    t = t0[:, None] + np.arange(n) / sample_rate
    seeds = list(seed) if per_frame else [seed] * frames

    drawn = [
        _sos_parameters(np.random.default_rng(_fading_seed(s)), params.n_sinusoids)
        for s in (seeds if per_frame else [seed])
    ]
    angles, phases = (np.stack(v) for v in zip(*drawn))
    los, diff = _rician_weights(params.rician_k)
    h = _diffuse_gain_sampled(angles, phases, params.doppler_hz, mobility.motion_time(t))
    # in place, with the bytes of los + diff * h: the same scalar multiply
    # and add on the same operands, without two block temporaries
    h *= diff
    h += los
    amp = (params.reference_distance / mobility.distance(t)) ** (params.path_loss_exponent / 2.0)

    draw_rngs = [
        np.random.default_rng(_noise_seed(s, int(round(start * sample_rate))))
        for s, start in zip(seeds, t0)
    ]
    moving = mobility.is_moving(t)
    del t
    f_inst = np.full((frames, n), params.cfo_hz, dtype=float)
    f_inst += params.doppler_hz * moving
    if params.cfo_jitter_hz > 0:
        step = max(1, int(round(params.cfo_jitter_tau_s * sample_rate)))
        for row, rng, row_moving in zip(f_inst, draw_rngs, moving):
            row += _block_wander(rng, n, params.cfo_jitter_hz, step) * row_moving
    del moving
    applied_cfo = np.mean(f_inst, axis=1)
    f_inst *= 2.0 * np.pi
    f_inst /= sample_rate
    phase = np.zeros((frames, n), dtype=float)
    np.cumsum(f_inst[:, :-1], axis=1, out=phase[:, 1:])
    del f_inst
    # a negative CFO that underflows leaves -0.0 phases, where _phasor's
    # sine keeps the sign that np.exp(1j * phase) drops
    phase += 0.0
    rotation = _phasor(phase)
    del phase
    # One block buffer for the products: on the pinned numpy an in-place
    # complex multiply has the bytes of a new array for two or more
    # samples (pinned in tests/test_exactness.py), not always for one.
    # Each input is freed once used: a lower peak keeps the block's memory
    # from going back to the system, and faulting in, on every call.
    rx = amp * h
    del amp
    rx *= x
    rx *= rotation
    del rotation

    if params.target_snr_db is not None:
        signal_power = np.mean(np.abs(rx) ** 2, axis=1)
        noise_power = signal_power / 10.0 ** (params.target_snr_db / 10.0)
    elif params.noise_power_dbm is not None:
        noise_power = np.full(frames, 10.0 ** ((params.noise_power_dbm - 30.0) / 10.0))
    else:
        noise_power = np.zeros(frames)

    # each draw's (n, 2) rows are one sample's in-phase and quadrature noise
    interleaved = rx.view(np.float64).reshape(frames, n, 2)
    for f in np.flatnonzero(noise_power > 0):
        interleaved[f] += draw_rngs[f].normal(0.0, np.sqrt(noise_power[f] / 2.0), (n, 2))

    if tx.ndim == 1:
        rx, h = rx[0], h[0]
        applied_cfo, noise_power = float(applied_cfo[0]), float(noise_power[0])
    truth = ChannelRealization(
        tap_gain=h,
        applied_cfo_hz=applied_cfo,
        applied_delay=delay,
        noise_power=noise_power,
    )
    return rx, truth


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
