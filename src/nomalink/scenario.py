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

import os
import pickle
import select
import struct
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Annotated, Literal, NamedTuple

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


def _propagate_block(cfg: ScenarioConfig, channels, t0, rows, slot, work) -> None:
    """The propagate step of a block: the first ``rows`` transmitted frames
    of ``slot`` through every vehicle's channel, into its received rows.

    ``channels`` holds one (params, mobility, seed) triple per user; the
    seed is shared by the block's frames or holds one seed row per frame,
    and ``t0`` gives each frame's start time. ``work`` is the run's buffer
    set: the channel arrays of every block reuse its arrays.
    """
    tx = slot.tx[:rows]
    for k, (params, mobility, seed) in enumerate(channels):
        rx, *_ = _propagate(tx, cfg.frame.sample_rate, params, mobility, seed, t0, work)
        slot.rx[k, :rows] = rx


def _decode_block(cfg: ScenarioConfig, payloads, rx):
    """The decode half of a block: decode every frame at every vehicle and
    count its bit errors against the payloads.

    ``payloads`` is (frames, users, payload_bits) and ``rx`` holds each
    user's (frames, samples) received rows. Returns the block's decode
    record: ``detected`` and ``cfo`` per (frame, user), then bit
    ``errors`` and ``snr`` per (frame, OFDM symbol, user). Undetected
    frames hold 0 errors and NaN estimates.
    """
    frame_cfg = cfg.frame
    n_frames, k_users, _ = payloads.shape
    n_sym = frame_cfg.symbols_per_frame
    detected = np.zeros((n_frames, k_users), dtype=bool)
    cfo = np.full((n_frames, k_users), np.nan)
    errors = np.zeros((n_frames, n_sym, k_users), dtype=np.int64)
    snr = np.full((n_frames, n_sym, k_users), np.nan)
    for k, rows in enumerate(rx):
        reports = [
            receive_user(
                row,
                frame_cfg,
                cfg.allocation,
                k + 1,
                cfg.pilot_seed,
                sync_threshold=cfg.sync_threshold,
            )
            for row in rows
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


class _Slot(NamedTuple):
    """One block in flight between the send and decode halves."""

    payloads: np.ndarray  # (frames, users, payload_bits) bits as uint8
    tx: np.ndarray  # (frames, samples) transmitted frames
    rx: np.ndarray  # (users, frames, samples) received rows


def _can_fork() -> bool:
    """Whether a run may fork its send half: forking needs os.fork, a
    second usable CPU to run on, and no other Python thread, whose locks
    the child could inherit held."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


# An ask for a block: point, first row, rows, and whether the block is
# transmitted already, as four int64. It is shorter than PIPE_BUF, so each
# write reaches the pipe whole
_ASK = struct.Struct("4q")


def _holds(block, point: int, first: int) -> bool:
    """Whether ``block`` (point, first row, rows, ...) holds row ``first`` of ``point``."""
    return block[0] == point and block[1] <= first < block[1] + block[2]


class _BlockFeed:
    """The send half of a run, one block ahead of its decode half.

    A run is a list of points with a number of rows each: the replay is
    one point whose rows are its frames, the sweep one point per SNR whose
    rows are its trials. A block of rows ``first`` to ``first + rows - 1``
    of a point goes through three steps, each writing its part of a slot:
    ``draw(point, first, payloads)`` draws the payload bits, the
    feed's transmit step builds the frames (``_downlink``), and
    ``propagate(point, first, rows, slot)`` the received rows. ``take``
    returns the rows that the decode half asks for. ``take`` alone decides
    which rows each block holds: it asks for a block, and it keeps the
    blocks asked for in order. It draws each block's payloads as it asks,
    so the draws run in the calling process, in the order of the asks.

    Entered where ``_can_fork()`` holds, the feed forks a child that
    serves the asks in turn: it reads an ask from a pipe, transmits and
    propagates the block into the next of two slots in one anonymous
    shared mapping, and writes one token byte on a second pipe. Once
    ``take`` holds a block, it asks for the next ``_BLOCK_FRAMES`` rows of
    the point, or the rows it has left, so that the child sends while the
    decode half decodes; a block of a point that the decode half has left
    is dropped unread. Before ``take`` waits for a token, it polls for it.
    If the token has not come, the queue holds that block alone, so the
    block ``take`` needs next is not asked yet and its slot is free: it
    transmits that block itself and asks for it with the flag set, and
    the child only propagates it. So when the child is the slower half,
    the decode half takes over transmit steps. Where
    ``_can_fork()`` does not hold, all three steps run in the calling
    process, into one slot, on exactly the rows asked for. An exception in
    the child is raised again in the parent. The child leaves by
    ``os._exit`` when the ask pipe is closed; on leaving the feed, the
    parent ends a child that still runs, reaps it and closes both pipes.
    """

    _SLOTS = 2

    def __init__(self, cfg: ScenarioConfig, draw, propagate, rows_per_point) -> None:
        import mmap

        self._cfg = cfg
        self._draw = draw
        self._propagate = propagate
        self._points = tuple(rows_per_point)
        # the transmit step's arrays, in whichever process transmits
        self._work = _BlockBuffers()
        frames, k_users = _BLOCK_FRAMES, cfg.n_users
        layout = (
            ((frames, k_users, cfg.frame.payload_bits), np.uint8),
            ((frames, cfg.frame.frame_samples), np.complex128),
            ((k_users, frames, cfg.frame.frame_samples + cfg.channel.delay_samples), np.complex128),
        )
        # each array starts on a 64-byte boundary
        sizes = [np.dtype(dtype).itemsize * int(np.prod(shape)) for shape, dtype in layout]
        sizes = [-(-size // 64) * 64 for size in sizes]
        self._memory = mmap.mmap(-1, self._SLOTS * sum(sizes))
        self._slots = []
        offset = 0
        for _ in range(self._SLOTS):
            arrays = []
            for (shape, dtype), size in zip(layout, sizes):
                arrays.append(np.ndarray(shape, dtype, self._memory, offset))
                offset += size
            self._slots.append(_Slot(*arrays))
        self._pid = None
        self._fds = ()
        # the blocks asked for and not yet taken, oldest first, and the
        # block taken last: (point, first row, rows, slot)
        self._asked = []
        self._held = None
        self._asks = 0

    def __enter__(self) -> _BlockFeed:
        if _can_fork():
            self._fork()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _fork(self) -> None:
        ask_r, ask_w = os.pipe()
        ready_r, ready_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (ask_r, ask_w, ready_r, ready_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(ask_w)
                os.close(ready_r)
                self._serve(ask_r, ready_w)
                status = 0
            # whatever ends the child goes to the parent, and the child
            # leaves by os._exit even if the report fails
            except BaseException as exc:
                _report(ready_w, exc)
            finally:
                os._exit(status)
        os.close(ask_r)
        os.close(ready_w)
        self._pid, self._fds = pid, (ask_w, ready_r)

    def _serve(self, asks, ready) -> None:
        """The child's loop: transmit, unless the parent has, and propagate
        each asked block into the next slot, in turn, and write a token,
        until the parent closes the ask pipe."""
        sent = 0
        while ask := os.read(asks, _ASK.size):
            point, first, rows, transmitted = _ASK.unpack(ask)
            slot = self._slots[sent % self._SLOTS]
            if not transmitted:
                self._transmit(rows, slot)
            self._propagate(point, first, rows, slot)
            os.write(ready, b"+")
            sent += 1

    def _transmit(self, rows: int, slot: _Slot) -> None:
        """The transmit step: the frames of the slot's first ``rows`` payload rows."""
        payloads = list(slot.payloads[:rows].swapaxes(0, 1))
        cfg = self._cfg
        _downlink(payloads, cfg.frame, cfg.allocation, cfg.pilot_seed, self._work, slot.tx[:rows])

    def take(self, point: int, first: int, rows: int):
        """The payloads and received rows of rows ``first`` to ``first + rows
        - 1`` of ``point``, as views of a slot valid until the next call;
        from a forked child, only those up to the end of the block that
        holds ``first``."""
        held = self._held
        while held is None or not _holds(held, point, first):
            if not self._asked:
                self._ask(point, first, rows)
            held = self._held = self._pop(point, first, rows)
        _, start, count, slot = held
        if self._fds and not self._asked and (block := self._next(held, point, first, rows)):
            self._ask(*block)
        offset = first - start
        stop = min(offset + rows, count)
        return slot.payloads[offset:stop], slot.rx[:, offset:stop]

    def _next(self, block, point: int, first: int, rows: int):
        """The block that ``take(point, first, rows)`` asks for once it has
        ``block``, or None at the point's end."""
        if not _holds(block, point, first):
            return point, first, rows
        end = block[1] + block[2]
        left = self._points[point] - end
        return (point, end, min(_BLOCK_FRAMES, left)) if left > 0 else None

    def _ask(self, point: int, first: int, rows: int, transmit: bool = False) -> None:
        """Ask for a block, with its payloads drawn into the next slot and,
        inline or when ``transmit`` is set, its frames transmitted there.
        The slot is free: it held the block taken last, or none."""
        slot = self._slots[self._asks % self._SLOTS]
        self._draw(point, first, slot.payloads[:rows])
        transmit = transmit or not self._fds
        if transmit:
            self._transmit(rows, slot)
        if self._fds:
            self._asks += 1
            os.write(self._fds[0], _ASK.pack(point, first, rows, transmit))
        self._asked.append((point, first, rows, slot))

    def _pop(self, point: int, first: int, rows: int):
        """The oldest block asked for, once it is in its slot. If the child
        is still sending it, the block that ``take`` asks for next is
        transmitted here first: the queue holds this block alone, so the
        next ask's slot is free."""
        block = self._asked.pop(0)
        if not self._fds:
            self._propagate(*block)
            return block
        ready = self._fds[1]
        if not select.select([ready], [], [], 0)[0] and (
            after := self._next(block, point, first, rows)
        ):
            self._ask(*after, transmit=True)
        token = os.read(ready, 1)
        if token == b"+":
            return block
        report = b"".join(iter(lambda: os.read(ready, 1 << 16), b""))
        pid, self._pid = self._pid, None
        _, status = os.waitpid(pid, 0)
        if token == b"!":
            raise pickle.loads(report)
        raise RuntimeError(f"the send process ended with wait status {status}")

    def close(self) -> None:
        """End and reap the child, if one runs, and close both pipes."""
        import signal

        pid, self._pid = self._pid, None
        fds, self._fds = self._fds, ()
        try:
            if pid is not None:
                # a block it still sends is one the decode half does not need
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            for fd in fds:
                os.close(fd)


def _report(fd: int, exc: BaseException) -> None:
    """Write ``exc`` to the parent: an error token, then the exception
    pickled, with the child's traceback as a note."""
    import traceback

    if hasattr(exc, "add_note"):
        exc.add_note("raised in the send process:\n" + "".join(traceback.format_exception(exc)))
    view = memoryview(b"!" + pickle.dumps(exc))
    while view:
        view = view[os.write(fd, view) :]


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

    def draw(point, first, out):
        out[...] = payload_rng.integers(0, 2, out.shape, dtype=np.int64)

    def propagate(point, first, rows, slot):
        _propagate_block(cfg, channels, frame_starts[first : first + rows], rows, slot, work)

    with _BlockFeed(cfg, draw, propagate, [n_frames]) as feed:
        for first in range(0, n_frames, _BLOCK_FRAMES):
            block = slice(first, min(first + _BLOCK_FRAMES, n_frames))
            decode = _decode_block(cfg, *feed.take(0, first, block.stop - first))
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
    averaged curve, and are reported through ``lost_frames``. Trials are
    decoded in blocks no longer than the trials still certain to be
    needed, so the blocks decode exactly the trials that one trial at a
    time would; a forked send half may send one more block a point, which
    is dropped.
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
    point_params = [cfg.run_channel(float(snr)) for snr in grid]

    def draw(i, first, out):
        for t, row in enumerate(out, start=first):
            row[...] = _keyed_rng([seed, 10, i, t]).integers(0, 2, row.shape, dtype=np.int64)

    def propagate(i, first, rows, slot):
        trials = range(first, first + rows)
        channels = [
            (point_params[i], mobility, [[seed, 20, i, t, k] for t in trials])
            for k in range(1, k_users + 1)
        ]
        _propagate_block(cfg, channels, 0.0, rows, slot, work)

    with _BlockFeed(cfg, draw, propagate, [max_frames] * grid.size) as feed:
        for i in range(grid.size):
            trial = 0
            while np.min(bits[i]) < min_bits_per_point and trial < max_frames:
                # every user gains at most payload_bits a trial, so the loop
                # runs at least this many more trials: none is decoded in vain
                shortfall = min_bits_per_point - int(np.min(bits[i]))
                count = min(
                    _BLOCK_FRAMES, -(-shortfall // frame_cfg.payload_bits), max_frames - trial
                )
                payloads, rx = feed.take(i, trial, count)
                count = len(payloads)
                detected, _, block_errors, _ = _decode_block(cfg, payloads, rx)
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
