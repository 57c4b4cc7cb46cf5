"""Two-stage vehicular experiment replay and BER-vs-SNR Monte Carlo sweeps.

The default scenario replays the three-vehicle downlink run: all
vehicles hold still for the stationary stage, then approach the base
station at constant speed until the run ends. Frames are streamed
back-to-back at the sample rate; per OFDM symbol and user the estimated
SNR, estimated CFO, BER, and outage flag are recorded. A frame is lost
when its sync peak falls below the detection threshold or zero-forcing
erases a whole symbol; lost frames are assigned BER 1 and counted
separately, outside the averaged statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Annotated, Literal

import numpy as np

from .channel import ChannelParams, MobilityState, _keyed_rng, _propagate, doppler_shift
from .frame_codec import INF, FrameConfig, _BlockBuffers, _check_fields, _field_value, _shown
from .noma import (
    DEFAULT_POWER_COEFFICIENTS,
    PowerAllocation,
    _composite_pilots,
    _downlink,
    allocate_power_by_distance,
)
from .receiver import SYNC_DETECTION_THRESHOLD, receive_user

__all__ = [
    "UserPath",
    "ScenarioConfig",
    "MetricsTimeSeries",
    "BerCurve",
    "StageHistogram",
    "compute_ber",
    "snr_histogram",
    "run_v2x_scenario",
    "sweep_ber_vs_snr",
    "MIN_BITS_PER_POINT",
]

# Smallest bit budget a sweep point may ask of each user
MIN_BITS_PER_POINT = 100_000
_BIT_BUDGET = Annotated[int, (">=", MIN_BITS_PER_POINT)]

# Most frames a replay's timeline may hold
_MAX_FRAMES = 2**18

# Table of start/end base-station distances (m), far user first.
DEFAULT_USER_PATHS = ((4.27, 1.25), (4.02, 1.12), (3.90, 0.57))


@dataclass(frozen=True)
class UserPath:
    """Start and end distance to the base station for one vehicle."""

    start_distance: Annotated[float, (">", 0)]
    end_distance: Annotated[float, (">", 0)]

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.start_distance <= self.end_distance:
            raise ValueError("vehicles approach the base station: start > end")


# The blocks of a config file that group top-level fields, key -> field;
# messages name a field by its path in the file
_CONFIG_BLOCKS = {
    "power": {"policy": "power_policy", "coefficients": "power_coefficients"},
    "timing": {k: k for k in ("stationary_duration", "travel_duration", "total_duration")},
}
_CONFIG_PATHS = {f: f"{b}.{k}" for b, keys in _CONFIG_BLOCKS.items() for k, f in keys.items()}

# Channel fields that every run sets itself, from speed and anchor_snr_db or
# from the SNR grid; a config neither sets nor records them.
_RUN_SET = {ChannelParams: ("doppler_hz", "target_snr_db", "noise_power_dbm")}


def _user_path(i: int, row) -> UserPath:
    """Row ``i`` of ``users`` as a UserPath; a ValueError names the row."""
    if isinstance(row, UserPath):
        return row
    if not isinstance(row, (tuple, list)) or len(row) != 2:
        raise ValueError(f"users[{i}] must hold a start and an end distance, got {_shown(row)}")
    try:
        return UserPath(*row)
    except ValueError as exc:
        raise ValueError(f"users[{i}]: {exc}") from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment run."""

    frame: FrameConfig = field(default_factory=FrameConfig)
    channel: ChannelParams = field(
        default_factory=lambda: ChannelParams(cfo_hz=100.0, cfo_jitter_hz=55.0)
    )
    users: tuple[UserPath, ...] = tuple(UserPath(*p) for p in DEFAULT_USER_PATHS)
    power_policy: Literal["fixed", "distance-squared"] = "fixed"
    power_coefficients: tuple[float, ...] = DEFAULT_POWER_COEFFICIENTS
    stationary_duration: Annotated[float, (">=", 0)] = 2.165
    travel_duration: Annotated[float, (">", 0)] = 3.58
    total_duration: float = 5.74
    speed: Annotated[float, (">=", 0)] = 0.876
    # +inf dB is a noiseless receiver
    anchor_snr_db: Annotated[float, INF] = 23.5
    outage_threshold_db: float = 10.0
    sync_threshold: float = SYNC_DETECTION_THRESHOLD
    pilot_seed: Annotated[int, (">=", 0)] = 295
    seed: Annotated[int, (">=", 0)] = 10

    def __post_init__(self) -> None:
        if not isinstance(self.users, (tuple, list)):
            raise ValueError(f"users must be a list of (start, end) rows, got {_shown(self.users)}")
        object.__setattr__(self, "users", tuple(_user_path(i, u) for i, u in enumerate(self.users)))
        _check_fields(self, names=_CONFIG_PATHS)
        unset = ChannelParams()
        for name in _RUN_SET[ChannelParams]:
            if (value := getattr(self.channel, name)) != getattr(unset, name):
                raise ValueError(f"channel.{name} is set by each run itself, got {value}")
        # CP sync correlates a prefix over two symbol periods; the pilot regression fits 2 pilots
        for name, least in (("symbols_per_frame", 2), ("cp_length", 1), ("pilot_subcarriers", 2)):
            _field_value(f"frame.{name}", Annotated[int, (">=", least)], getattr(self.frame, name))
        # a timing candidate more than fft_size samples early lays its prefix
        # windows over the previous symbol's prefix and can outscore the frame
        if self.channel.delay_samples > self.frame.fft_size:
            raise ValueError(
                f"channel.delay_samples ({_shown(self.channel.delay_samples)}) must be at most"
                f" frame.fft_size ({self.frame.fft_size})"
            )
        if not self.users:
            raise ValueError("users must hold at least one vehicle")
        starts = [u.start_distance for u in self.users]
        ends = [u.end_distance for u in self.users]
        if any(a <= b for a, b in zip(starts, starts[1:])):
            raise ValueError("users must be ordered far to near at the start line")
        if any(a <= b for a, b in zip(ends, ends[1:])):
            raise ValueError("users must be ordered far to near at the end line")
        # the channel scales each user by this path gain, which changes monotonically
        # between the start and end distance. CP sync sums the received power over
        # a frame and its delay: the sum stays inside the float range with a factor
        # 100 to spare for fading peaks and noise. The noise power obeys the same limit
        with np.errstate(over="ignore", under="ignore"):
            gains = (self.channel.reference_distance / np.array(starts + ends)) ** (
                self.channel.path_loss_exponent
            )
        samples = self.frame.frame_samples + self.channel.delay_samples
        sync_limit = np.finfo(float).max / (100.0 * samples)
        if not np.all((gains > 0) & (gains < sync_limit)):
            raise ValueError(
                "channel.path_loss_exponent and channel.reference_distance give a path gain"
                f" that is zero, or above {sync_limit:.3g} for cyclic-prefix sync over"
                f" {samples} samples, at some user's start or end distance"
            )
        if self.power_policy == "fixed" and len(self.power_coefficients) != len(self.users):
            raise ValueError("power.coefficients must hold one value per user")
        # the quantities a run reads are worked out once, here, and kept on the
        # instance: the runs read the values that the checks below passed
        try:
            self.allocation
        except ValueError as exc:
            if self.power_policy == "fixed":
                raise ValueError(f"power.coefficients: {exc}") from exc
            raise ValueError(f"users with power.policy {self.power_policy!r}: {exc}") from exc
        if self.total_duration <= self.stationary_duration:
            raise ValueError("timing.total_duration must exceed timing.stationary_duration")
        self.n_frames
        # the CP sync resolves offsets within half a subcarrier spacing;
        # beyond it the offset aliases and every frame decodes as noise.
        # Carrier wander runs while vehicles move: four of its standard
        # deviations count against the bound too
        half_spacing = self.frame.subcarrier_spacing / 2.0
        offset = abs(self.channel.cfo_hz) + self.doppler_hz
        wander = ""
        if self.speed > 0:
            offset += 4.0 * self.channel.cfo_jitter_hz
            wander = " plus 4 x channel.cfo_jitter_hz"
        if not offset < half_spacing:
            raise ValueError(
                f"channel.cfo_hz plus the Doppler shift at speed and"
                f" frame.carrier_frequency{wander} ({offset:.1f} Hz)"
                f" must be below half the subcarrier spacing ({half_spacing:.1f} Hz)"
            )
        # in the log domain, where a noise power beyond the float range stays a number
        signal, bin_ratio = self._anchor_signal
        with np.errstate(divide="ignore"):
            noise_log10 = np.log10(signal * bin_ratio) - self.anchor_snr_db / 10.0
        if not noise_log10 < np.log10(sync_limit):
            raise ValueError(
                f"anchor_snr_db ({self.anchor_snr_db}) gives a noise power of"
                f" 10^{noise_log10:.1f}, above {sync_limit:.3g} for cyclic-prefix sync"
                f" over {samples} samples"
            )

    @property
    def n_users(self) -> int:
        return len(self.users)

    def mobility(self, user: int) -> MobilityState:
        path = self.users[user - 1]
        return MobilityState(
            start_distance=path.start_distance,
            end_distance=path.end_distance,
            stationary_end=self.stationary_duration,
            mobile_end=self.stationary_duration + self.travel_duration,
            speed=self.speed,
        )

    @cached_property
    def allocation(self) -> PowerAllocation:
        """The power coefficients of the configured policy."""
        if self.power_policy == "distance-squared":
            return allocate_power_by_distance([u.start_distance for u in self.users])
        return PowerAllocation(self.power_coefficients)

    @cached_property
    def doppler_hz(self) -> float:
        """The Doppler shift at ``speed`` and the frame's carrier frequency."""
        return doppler_shift(self.speed, self.frame.carrier_frequency)

    @cached_property
    def n_frames(self) -> int:
        """Frames in the replay's timeline, 1 to 2**18: the run's record takes
        about 7 KB per frame of the default shape, so they stay under 2 GB."""
        frames = np.floor(self.total_duration / self.frame.frame_duration)
        if not 1 <= frames <= _MAX_FRAMES:
            raise ValueError(
                f"timing.total_duration ({self.total_duration} s) must hold 1 to {_MAX_FRAMES}"
                f" frames of {self.frame.frame_duration:.4g} s (frame.sample_rate"
                f" {self.frame.sample_rate:.4g}), got {frames:.4g}"
            )
        return int(frames)

    @cached_property
    def _anchor_signal(self) -> tuple[float, float]:
        """The anchor user's received composite pilot power at its start
        distance, and the ratio of FFT bins to occupied subcarriers: the noise
        power is their product over the anchor SNR."""
        pilots = _composite_pilots(self.frame, self.allocation, self.pilot_seed)
        # equal power coefficients can cancel some composite pilots exactly
        if not pilots.all():
            raise ValueError(
                f"power.coefficients {self.allocation.coefficients} and pilot_seed"
                f" {self.pilot_seed} give {pilots.size - np.count_nonzero(pilots)} of"
                f" {pilots.size} composite pilots of exactly 0, and the receiver's pilot"
                " regression needs every one nonzero"
            )
        d = self.users[min(2, self.n_users) - 1].start_distance
        amp2 = (self.channel.reference_distance / d) ** self.channel.path_loss_exponent
        pilot_power = float(np.mean(np.abs(pilots) ** 2))
        # per-subcarrier SNR -> time-domain variance: noise spreads over all
        # fft bins while the signal occupies total_subcarriers of them
        return amp2 * pilot_power, self.frame.fft_size / self.frame.total_subcarriers

    @cached_property
    def noise_floor_dbm(self) -> float:
        """Receiver noise floor (dBm) anchoring the second user's stationary SNR.

        The floor is constant over the run and set so the anchor user's
        pilot-estimated SNR at its start distance lands on ``anchor_snr_db``;
        every other user's SNR follows from its own distance through the
        squared-distance path loss. Unit transmit sample power is taken as
        30 dBm. The realized composite pilot power enters so the anchor holds
        for any pilot seed and power allocation.
        """
        signal, bin_ratio = self._anchor_signal
        noise_power = signal * 10.0 ** (-self.anchor_snr_db / 10.0) * bin_ratio
        if noise_power == 0.0:
            return -np.inf
        return 10.0 * np.log10(noise_power) + 30.0

    def run_channel(self, target_snr_db: float | None = None) -> ChannelParams:
        """The channel with the ``_RUN_SET`` fields a run sets: the Doppler shift at
        speed, and noise at the anchored floor or, given ``target_snr_db``, at that SNR."""
        return replace(
            self.channel,
            doppler_hz=self.doppler_hz,
            target_snr_db=target_snr_db,
            noise_power_dbm=self.noise_floor_dbm if target_snr_db is None else None,
        )


def compute_ber(tx_bits, rx_bits, detected: bool) -> float:
    """Bit error ratio; undetected frames are assigned BER 1 by convention."""
    if not detected:
        return 1.0
    tx = np.asarray(tx_bits).ravel()
    rx = np.asarray(rx_bits).ravel()
    if tx.size != rx.size:
        raise ValueError(f"bit blocks differ in length: {tx.size} vs {rx.size}")
    if tx.size == 0:
        raise ValueError("cannot compute BER of empty blocks")
    return float(np.count_nonzero(tx != rx)) / tx.size


@dataclass(frozen=True)
class StageHistogram:
    """Occurrence counts of estimated SNR values within one test stage."""

    bin_centers: np.ndarray
    counts: np.ndarray
    duration_s: float
    bin_width_db: float

    def rate_at(self, value_db: float) -> float:
        """Per-second occurrence rate of the bin containing value_db (0 if not finite)."""
        if self.bin_centers.size == 0 or self.duration_s <= 0 or not np.isfinite(value_db):
            return 0.0
        # both bins by the counting rule, so that a counted value finds its count
        first, idx = _bin_index([self.bin_centers[0], value_db], self.bin_width_db)
        idx = int(idx - first)
        if not 0 <= idx < self.counts.size:
            return 0.0
        return float(self.counts[idx]) / self.duration_s


def _bin_index(values, bin_width: float):
    """Bin number of each value, as a float: bin i is centred on i * bin_width
    and holds its lower edge, (i - 1/2) * bin_width, but not its upper one."""
    return np.floor(np.asarray(values, dtype=float) / bin_width + 0.5)


def _stage_histogram(values: np.ndarray, bin_width: float, duration: float) -> StageHistogram:
    values = values[np.isfinite(values)]
    if values.size == 0:
        return StageHistogram(np.empty(0), np.empty(0, dtype=int), duration, bin_width)
    idx = _bin_index(values, bin_width).astype(int)
    lo, hi = idx.min(), idx.max()
    counts = np.bincount(idx - lo, minlength=hi - lo + 1)
    centers = np.arange(lo, hi + 1) * bin_width
    return StageHistogram(centers, counts, duration, bin_width)


def snr_histogram(
    times_s, snr_db, bin_width_db: float, stage_split_s: float, total_duration_s: float
) -> tuple[StageHistogram, StageHistogram]:
    """Stationary and mobile occurrence histograms of an SNR series.

    Bins are centred on integer multiples of the bin width, so the
    "23 dB" bin covers [22.5, 23.5) for a 1 dB width. Non-finite SNR
    values, those of lost frames, are not counted; every time must be finite.
    """
    bin_width_db = _field_value("bin_width_db", Annotated[float, (">", 0)], bin_width_db)
    stage_split_s = _field_value("stage_split_s", float, stage_split_s)
    total_duration_s = _field_value("total_duration_s", float, total_duration_s)
    t = np.asarray(times_s, dtype=float)
    v = np.asarray(snr_db, dtype=float)
    if t.size != v.size or t.size == 0:
        raise ValueError("times and values must be equal-length, non-empty")
    if not np.isfinite(t).all():
        raise ValueError("times_s must be finite")
    stationary = _stage_histogram(v[t < stage_split_s], bin_width_db, stage_split_s)
    mobile = _stage_histogram(
        v[t >= stage_split_s], bin_width_db, total_duration_s - stage_split_s
    )
    return stationary, mobile


@dataclass(frozen=True)
class MetricsTimeSeries:
    """Per-symbol, per-user metric record of one scenario run.

    Rows are ordered by (time, user). ``lost_frames`` counts each user's
    lost frames, those with a low sync peak or an all-erased symbol; their
    rows carry BER 1 and no SNR or CFO estimate, and are excluded from
    averaged BER by the stage helpers.
    """

    time_s: np.ndarray
    user: np.ndarray
    est_snr_db: np.ndarray
    est_cfo_hz: np.ndarray
    ber: np.ndarray
    outage: np.ndarray
    detected: np.ndarray
    lost_frames: tuple
    stationary_end_s: float
    total_duration_s: float

    def user_mask(self, user: int) -> np.ndarray:
        return self.user == user

    def stage_mask(self, mobile: bool) -> np.ndarray:
        if mobile:
            return self.time_s >= self.stationary_end_s
        return self.time_s < self.stationary_end_s

    def mean_ber(self, user: int, mobile: bool | None = None) -> float:
        """Average BER over detected symbols of one user (optionally one stage)."""
        sel = self.user_mask(user) & self.detected
        if mobile is not None:
            sel &= self.stage_mask(mobile)
        if not np.any(sel):
            return float("nan")
        return float(np.mean(self.ber[sel]))

    def user_histograms(
        self, user: int, bin_width_db: float = 1.0
    ) -> tuple[StageHistogram, StageHistogram]:
        sel = self.user_mask(user) & self.detected
        return snr_histogram(
            self.time_s[sel],
            self.est_snr_db[sel],
            bin_width_db,
            self.stationary_end_s,
            self.total_duration_s,
        )


# Frames sent, propagated and decoded together. It changes no byte: each
# channel draw is keyed by seed and start sample, each sweep trial by its
# index, and PCG64 draws the payload stream alike at any chunking. It
# trades time against memory: a block costs about 940 interpreter calls
# whatever its length, and its arrays and payload bits take about 0.25 MB
# a frame. Against blocks of 8, 16 frames cut a short replay's time by 7%
# for 2 MB more peak memory; 24 and more add memory faster than they save time.
_BLOCK_FRAMES = 16


def _run_block(cfg: ScenarioConfig, payloads, channels, t0, work):
    """Send one block of frames, decode every frame at every vehicle and
    count its bit errors against the payloads.

    ``payloads`` is (frames, users, payload_bits) and ``t0`` gives each
    frame's start time. ``channels`` holds one (params, mobility, seed)
    triple per user; the seed is shared by the block's frames or holds
    one seed row per frame. ``work`` is the run's buffer set: the
    transmit and channel arrays of every block reuse its arrays. Returns
    the block's decode record:
    ``detected`` and ``cfo`` per (frame, user), then bit ``errors`` and
    ``snr`` per (frame, OFDM symbol, user). Undetected frames hold 0
    errors and NaN estimates.
    """
    frame_cfg = cfg.frame
    n_frames, k_users, _ = payloads.shape
    n_sym = frame_cfg.symbols_per_frame
    tx = _downlink(list(payloads.swapaxes(0, 1)), frame_cfg, cfg.allocation, cfg.pilot_seed, work)
    detected = np.zeros((n_frames, k_users), dtype=bool)
    cfo = np.full((n_frames, k_users), np.nan)
    errors = np.zeros((n_frames, n_sym, k_users), dtype=np.int64)
    snr = np.full((n_frames, n_sym, k_users), np.nan)
    for k, (params, mobility, seed) in enumerate(channels):
        rx, *_ = _propagate(tx, frame_cfg.sample_rate, params, mobility, seed, t0, work)
        reports = [
            receive_user(
                row,
                frame_cfg,
                cfg.allocation,
                k + 1,
                cfg.pilot_seed,
                sync_threshold=cfg.sync_threshold,
            )
            for row in rx
        ]
        got = [r for r in reports if r.detected]
        if not got:
            continue
        hit = np.array([r.detected for r in reports])
        detected[:, k] = hit
        cfo[hit, k] = [r.estimated_cfo_hz for r in got]
        snr[hit, :, k] = np.stack([r.estimated_snr_db for r in got])
        wrong = np.stack([r.bits for r in got]) != payloads[hit, k]
        errors[hit, :, k] = np.count_nonzero(wrong.reshape(len(got), n_sym, -1), axis=2)
    return detected, cfo, errors, snr


def run_v2x_scenario(cfg: ScenarioConfig) -> MetricsTimeSeries:
    """Replay the two-stage experiment and collect all per-symbol metrics.

    Frames are streamed back-to-back for the configured duration. Per
    frame: draw payloads, superpose with the configured allocation, pass
    through each vehicle's channel (Doppler and carrier wander gate on
    with motion), run the full receiver, and append metrics. The result
    is a deterministic function of the configuration, seed included.
    Frames go through the pipeline in blocks, with the same bytes as one
    frame at a time.
    """
    frame_cfg = cfg.frame
    k_users, n_frames = cfg.n_users, cfg.n_frames
    params = cfg.run_channel()
    channels = [
        (params, cfg.mobility(k), [cfg.seed, 1, k]) for k in range(1, k_users + 1)
    ]

    n_sym = frame_cfg.symbols_per_frame
    bits_per_ofdm_symbol = frame_cfg.data_subcarriers * frame_cfg.bits_per_symbol
    payload_rng = _keyed_rng([cfg.seed, 0])

    # (frames, symbols, users) is the (time, user) row order of the output
    shape = (n_frames, n_sym, k_users)
    detected = np.empty((n_frames, k_users), dtype=bool)
    cfos = np.empty((n_frames, k_users))
    errors = np.empty(shape, dtype=np.int64)
    snrs = np.empty(shape)
    frame_starts = np.arange(n_frames) * frame_cfg.frame_duration

    work = _BlockBuffers()
    for first in range(0, n_frames, _BLOCK_FRAMES):
        block = slice(first, min(first + _BLOCK_FRAMES, n_frames))
        payloads = payload_rng.integers(
            0, 2, (block.stop - first, k_users, frame_cfg.payload_bits), dtype=np.int64
        )
        decode = _run_block(cfg, payloads, channels, frame_starts[block], work)
        detected[block], cfos[block], errors[block], snrs[block] = decode

    symbol_times = frame_starts[:, None] + np.arange(n_sym) * (
        frame_cfg.symbol_samples / frame_cfg.sample_rate
    )
    per_symbol = np.broadcast_to(detected[:, None], shape)
    return MetricsTimeSeries(
        time_s=np.repeat(symbol_times.ravel(), k_users),
        user=np.tile(np.arange(1, k_users + 1), n_frames * n_sym),
        est_snr_db=snrs.ravel(),
        est_cfo_hz=np.broadcast_to(cfos[:, None], shape).ravel(),
        ber=np.where(per_symbol, errors / bits_per_ofdm_symbol, 1.0).ravel(),
        outage=(per_symbol & (snrs < cfg.outage_threshold_db)).ravel(),
        detected=per_symbol.ravel(),
        lost_frames=tuple(int(n) for n in np.count_nonzero(~detected, axis=0)),
        stationary_end_s=cfg.stationary_duration,
        total_duration_s=cfg.total_duration,
    )


@dataclass(frozen=True)
class BerCurve:
    """Per-user mean BER over an SNR grid with binomial confidence bounds."""

    snr_db: np.ndarray
    ber: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    bits: np.ndarray
    lost_frames: np.ndarray
    frames: np.ndarray

    @property
    def n_users(self) -> int:
        return self.ber.shape[1]


def sweep_ber_vs_snr(
    cfg: ScenarioConfig, snr_grid_db, min_bits_per_point: int = MIN_BITS_PER_POINT
) -> BerCurve:
    """Monte Carlo BER curve under mobile-stage impairments.

    Each grid point runs independent frames (fresh fading, wander, and
    noise per trial) with the Doppler shift and carrier wander active, at
    the target per-frame receive SNR, until every user has accumulated
    the bit budget. Undetected frames carry BER 1, are excluded from the
    averaged curve, and are reported through ``lost_frames``. Trials run
    in blocks no longer than the trials still certain to be needed, so
    the blocks run exactly the trials that one trial at a time would.
    """
    min_bits_per_point = _field_value("min_bits_per_point", _BIT_BUDGET, min_bits_per_point)
    # bounded as ChannelParams.target_snr_db: +inf dB is noiseless, a NaN would draw no noise
    points = np.asarray(snr_grid_db, dtype=object).tolist()
    points = _field_value("snr_grid", tuple[Annotated[float, INF, (">", -np.inf)], ...], points)
    if not points:
        raise ValueError("empty SNR grid")
    grid = np.sort(np.array(points, dtype=float))

    frame_cfg = cfg.frame
    k_users, seed = cfg.n_users, cfg.seed
    mobility = MobilityState.always_moving(
        cfg.channel.reference_distance, speed=cfg.speed
    )

    shape = (grid.size, k_users)
    errors = np.zeros(shape, dtype=np.int64)
    bits = np.zeros(shape, dtype=np.int64)
    lost = np.zeros(shape, dtype=np.int64)
    frames = np.zeros(grid.size, dtype=np.int64)

    needed_frames = -(-min_bits_per_point // frame_cfg.payload_bits)
    max_frames = 20 * needed_frames

    work = _BlockBuffers()
    for i, snr in enumerate(grid):
        params = cfg.run_channel(float(snr))
        trial = 0
        while np.min(bits[i]) < min_bits_per_point and trial < max_frames:
            # every user gains at most payload_bits a trial, so the loop
            # runs at least this many more trials: none is computed in vain
            shortfall = min_bits_per_point - int(np.min(bits[i]))
            count = min(
                _BLOCK_FRAMES, -(-shortfall // frame_cfg.payload_bits), max_frames - trial
            )
            trials = range(trial, trial + count)
            payloads = np.stack(
                [
                    _keyed_rng([seed, 10, i, t]).integers(
                        0, 2, (k_users, frame_cfg.payload_bits), dtype=np.int64
                    )
                    for t in trials
                ]
            )
            channels = [
                (params, mobility, [[seed, 20, i, t, k] for t in trials])
                for k in range(1, k_users + 1)
            ]
            detected, _, block_errors, _ = _run_block(cfg, payloads, channels, 0.0, work)
            hits = np.count_nonzero(detected, axis=0)
            errors[i] += block_errors.sum(axis=(0, 1))
            bits[i] += hits * frame_cfg.payload_bits
            lost[i] += count - hits
            trial += count
        frames[i] = trial

    with np.errstate(invalid="ignore", divide="ignore"):
        ber = np.where(bits > 0, errors / np.maximum(bits, 1), np.nan)
        half = 1.96 * np.sqrt(ber * (1.0 - ber) / np.maximum(bits, 1))
    return BerCurve(
        snr_db=grid,
        ber=ber,
        ci_low=np.clip(ber - half, 0.0, 1.0),
        ci_high=np.clip(ber + half, 0.0, 1.0),
        bits=bits,
        lost_frames=lost,
        frames=frames,
    )
