"""Blocks of frames against frame-by-frame calls, bit for bit.

The replay and the sweep send, propagate and decode frames in blocks. A
block must give exactly the bytes that one call per frame gives, so
these tests compare with ``np.array_equal`` and no tolerance. The
driver calls the transmit and channel kernels with one buffer set per
run; a block written there must give the bytes of the public functions,
which make new arrays. A run sends its blocks from a forked child or, where
it cannot fork, from the calling process; both give the same bytes.
"""

import gc
import inspect
import os
import sys
import threading
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import nomalink
from nomalink import cli, scenario
from nomalink.channel import (
    ChannelParams,
    MobilityState,
    _propagate,
    apply_channel,
    doppler_shift,
)
from nomalink.frame_codec import FrameConfig, _BlockBuffers, disassemble_symbol, pilot_mask
from nomalink.noma import (
    PowerAllocation,
    _composite_pilots,
    _downlink,
    build_downlink_frame,
)
from nomalink.receiver import evm_snr, ls_estimate_channel, receive_user, zf_equalize
from nomalink.scenario import ScenarioConfig, run_v2x_scenario, sweep_ber_vs_snr
from test_layer_names import _layer_functions

CFG = FrameConfig()
ALLOC = PowerAllocation.testbed_default()
PILOT_SEED = 295
# the driver's block length, so that the tail-block cases stay partial blocks
FRAMES = scenario._BLOCK_FRAMES
# criterion 9's short timing: 34 frames
SHORT_REPLAY = ScenarioConfig(stationary_duration=0.05, travel_duration=0.06, total_duration=0.11)


def _payloads(frames, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, (frames, ALLOC.n_users, CFG.payload_bits), dtype=np.int64)


def _tx_block(frames=FRAMES, seed=0):
    payloads = _payloads(frames, seed)
    return build_downlink_frame(list(payloads.swapaxes(0, 1)), CFG, ALLOC, PILOT_SEED)


def test_downlink_block_equals_single_frames():
    payloads = _payloads(5)
    tx = build_downlink_frame(list(payloads.swapaxes(0, 1)), CFG, ALLOC, PILOT_SEED)
    assert tx.shape == (5, CFG.frame_samples)
    for f in range(5):
        one = build_downlink_frame(list(payloads[f]), CFG, ALLOC, PILOT_SEED)
        assert np.array_equal(tx[f], one)


def _assert_block_matches_frames(
    tx, params, mobility, block_seed, frame_seeds, t0, rows=None
):
    """One call on the block against one call per frame, for the frames in
    ``rows`` (all of them by default)."""
    rx, truth = apply_channel(tx, CFG.sample_rate, params, mobility, seed=block_seed, t0=t0)
    assert rx.shape == (tx.shape[0], tx.shape[1] + params.delay_samples)
    for f in range(len(t0)) if rows is None else rows:
        rx_f, truth_f = apply_channel(
            tx[f], CFG.sample_rate, params, mobility, seed=frame_seeds[f], t0=float(t0[f])
        )
        assert np.array_equal(rx[f], rx_f), f"frame {f}"
        assert np.array_equal(truth.tap_gain[f], truth_f.tap_gain)
        assert truth.applied_cfo_hz[f] == truth_f.applied_cfo_hz
        assert truth.noise_power[f] == truth_f.noise_power


REPLAY_PARAMS = ChannelParams(
    rician_k=10.92,
    doppler_hz=doppler_shift(0.876, CFG.carrier_frequency),
    cfo_hz=100.0,
    cfo_jitter_hz=55.0,
    noise_power_dbm=-5.0,
)


@pytest.mark.parametrize(
    "first_frame, params",
    [
        # the block straddles the stationary-to-mobile boundary at 2.165 s
        (672, REPLAY_PARAMS),
        # ... and the end of travel at 5.745 s, where the fading stops
        (1793, REPLAY_PARAMS),
        (672, replace(REPLAY_PARAMS, noise_power_dbm=None, delay_samples=17)),
    ],
)
def test_channel_block_with_one_seed_per_user(first_frame, params):
    mobility = ScenarioConfig().mobility(2)
    t0 = (first_frame + np.arange(FRAMES)) * CFG.frame_duration
    assert (t0[0] < mobility.stationary_end < t0[-1]) or (
        t0[0] < mobility.mobile_end < t0[-1]
    )
    seed = [10, 1, 2]
    _assert_block_matches_frames(_tx_block(), params, mobility, seed, [seed] * FRAMES, t0)


@pytest.mark.parametrize("snr_db", [-5.0, 25.0])
def test_channel_block_with_one_seed_per_trial(snr_db):
    params = replace(REPLAY_PARAMS, noise_power_dbm=None, target_snr_db=snr_db)
    seeds = [[7, 20, 1, trial, 3] for trial in range(40, 40 + FRAMES)]
    _assert_block_matches_frames(
        _tx_block(seed=1),
        params,
        MobilityState.always_moving(1.0),
        seeds,
        seeds,
        np.zeros(FRAMES),
    )


def test_channel_rows_evaluate_as_single_frames_at_any_block_size():
    # The fading sum switches to a chunked evaluator past 1e6 terms; the
    # switch must follow the row length, not the size of the whole block.
    rng = np.random.default_rng(0)
    params = ChannelParams(rician_k=3.0, doppler_hz=5.0, noise_power_dbm=-20.0)
    mobility = MobilityState(1.0, stationary_end=1.8, mobile_end=2.0, speed=1.0)
    many = rng.standard_normal((20_000, 4)) + 0j
    t0 = np.arange(20_000) * 1e-4  # 18,000 rows motionless: 1.15e6 terms
    _assert_block_matches_frames(
        many, params, mobility, 3, [3] * 20_000, t0, rows=[0, 17_999, 18_001, 19_999]
    )

    # 20,108 knots per row at 2 kHz: each row alone is past the switch
    long_rows = rng.standard_normal((2, 40_000)) + 0j
    seeds = [[1, 2], [1, 3]]
    _assert_block_matches_frames(
        long_rows,
        replace(params, doppler_hz=2000.0),
        MobilityState.always_moving(1.0),
        seeds,
        seeds,
        np.array([0.0, 0.1]),
    )


def test_receiver_stages_take_a_symbol_axis():
    tx = _tx_block(frames=1, seed=2)
    rx, _ = apply_channel(
        tx[0],
        CFG.sample_rate,
        replace(REPLAY_PARAMS, noise_power_dbm=None, target_snr_db=12.0),
        MobilityState.always_moving(1.0),
        seed=3,
    )
    mask = pilot_mask(CFG)
    reference = _composite_pilots(CFG, ALLOC, PILOT_SEED)
    periods = rx.reshape(CFG.symbols_per_frame, CFG.symbol_samples)
    rows = disassemble_symbol(periods, CFG, CFG.cp_length)
    estimates = ls_estimate_channel(rows, mask, reference)
    equalized, erased = zf_equalize(rows, estimates)
    snrs = evm_snr(equalized[:, mask], reference)
    for s in range(CFG.symbols_per_frame):
        row = disassemble_symbol(rx, CFG, s * CFG.symbol_samples + CFG.cp_length)
        estimate = ls_estimate_channel(row, mask, reference)
        eq, er = zf_equalize(row, estimate)
        assert np.array_equal(rows[s], row)
        assert np.array_equal(estimates[s], estimate)
        assert np.array_equal(equalized[s], eq) and np.array_equal(erased[s], er)
        assert snrs[s] == evm_snr(eq[mask], reference)


def _sweep_trial_by_trial(cfg, snr_db, min_bits, seed):
    """The sweep as one frame per loop turn: the reference the blocks must match."""
    frame_cfg, alloc, params = cfg.frame, cfg.allocation, cfg.run_channel(snr_db)
    mobility = MobilityState.always_moving(cfg.channel.reference_distance, speed=cfg.speed)
    k_users = cfg.n_users
    errors, bits, lost = (np.zeros(k_users, dtype=np.int64) for _ in range(3))
    max_frames = 20 * -(-min_bits // frame_cfg.payload_bits)
    trial = 0
    while np.min(bits) < min_bits and trial < max_frames:
        payloads = np.random.default_rng([seed, 10, 0, trial]).integers(
            0, 2, (k_users, frame_cfg.payload_bits), dtype=np.int64
        )
        tx = build_downlink_frame(list(payloads), frame_cfg, alloc, cfg.pilot_seed)
        for k in range(1, k_users + 1):
            rx, _ = apply_channel(
                tx, frame_cfg.sample_rate, params, mobility, seed=[seed, 20, 0, trial, k]
            )
            report = receive_user(
                rx, frame_cfg, alloc, k, cfg.pilot_seed, sync_threshold=cfg.sync_threshold
            )
            if report.detected:
                errors[k - 1] += np.count_nonzero(report.bits != payloads[k - 1])
                bits[k - 1] += frame_cfg.payload_bits
            else:
                lost[k - 1] += 1
        trial += 1
    return trial, errors, bits, lost


@pytest.mark.parametrize(
    "cfg, snr_db, min_bits, expect_cap",
    [
        # 81 frames of budget, not a whole number of blocks, no losses
        (ScenarioConfig(), 30.0, 100_001, False),
        # losses decide when the budget is met
        (ScenarioConfig(), 0.0, 100_000, False),
        # every frame lost: the point stops at the 20x cap of 220 frames,
        # not a whole number of blocks (10,000-bit frames keep it short)
        (ScenarioConfig(frame=FrameConfig(symbols_per_frame=40)), -20.0, 105_000, True),
    ],
)
def test_sweep_blocks_run_the_same_trials(cfg, snr_db, min_bits, expect_cap):
    seed = 5
    frames, errors, bits, lost = _sweep_trial_by_trial(cfg, snr_db, min_bits, seed)
    curve = sweep_ber_vs_snr(replace(cfg, seed=seed), [snr_db], min_bits_per_point=min_bits)
    assert frames % FRAMES != 0
    assert curve.frames[0] == frames
    assert np.array_equal(curve.bits[0], bits)
    assert np.array_equal(curve.lost_frames[0], lost)
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.array_equal(curve.ber[0], errors / bits, equal_nan=True)
    cap = 20 * -(-min_bits // cfg.frame.payload_bits)
    assert (frames == cap) == expect_cap


def _replay_frame_by_frame(cfg):
    """The replay as one frame per loop turn, columns in (time, user) row order."""
    frame_cfg, alloc, params = cfg.frame, cfg.allocation, cfg.run_channel()
    k_users, n_sym, n_frames = cfg.n_users, frame_cfg.symbols_per_frame, cfg.n_frames
    symbol_period = frame_cfg.symbol_samples / frame_cfg.sample_rate
    # the replay draws its payloads a block at a time; one draw of the whole
    # stream gives the same bits, because each bit takes one 32-bit word and
    # PCG64 keeps the spare half of a 64-bit output in its state between draws
    payloads = np.random.default_rng([cfg.seed, 0]).integers(
        0, 2, (n_frames, k_users, frame_cfg.payload_bits)
    )
    names = ("time_s", "user", "est_snr_db", "est_cfo_hz", "ber", "detected")
    columns = {name: [] for name in names}
    lost = [0] * k_users
    for f in range(n_frames):
        tx = build_downlink_frame(list(payloads[f]), frame_cfg, alloc, cfg.pilot_seed)
        t0 = f * frame_cfg.frame_duration
        reports = []
        for k in range(1, k_users + 1):
            rx, _ = apply_channel(
                tx, frame_cfg.sample_rate, params, cfg.mobility(k), seed=[cfg.seed, 1, k], t0=t0
            )
            reports.append(
                receive_user(
                    rx,
                    frame_cfg,
                    alloc,
                    k,
                    cfg.pilot_seed,
                    sync_threshold=cfg.sync_threshold,
                )
            )
            lost[k - 1] += not reports[-1].detected
        for s in range(n_sym):
            for k, report in enumerate(reports, start=1):
                columns["time_s"].append(t0 + s * symbol_period)
                columns["user"].append(k)
                columns["detected"].append(report.detected)
                if not report.detected:
                    columns["est_snr_db"].append(np.nan)
                    columns["est_cfo_hz"].append(np.nan)
                    columns["ber"].append(1.0)
                    continue
                sent = payloads[f, k - 1].reshape(n_sym, -1)[s]
                got = report.bits.reshape(n_sym, -1)[s]
                columns["est_snr_db"].append(report.estimated_snr_db[s])
                columns["est_cfo_hz"].append(report.estimated_cfo_hz)
                columns["ber"].append(np.count_nonzero(got != sent) / sent.size)
    columns = {name: np.array(values) for name, values in columns.items()}
    columns["outage"] = columns["detected"] & (columns["est_snr_db"] < cfg.outage_threshold_db)
    return columns, tuple(lost)


@pytest.mark.parametrize("anchor_snr_db", [-3.0, -6.0])
def test_replay_blocks_keep_the_lost_frame_rows(anchor_snr_db):
    cfg = replace(SHORT_REPLAY, anchor_snr_db=anchor_snr_db)
    columns, lost = _replay_frame_by_frame(cfg)
    assert 34 % FRAMES != 0  # the run ends on a partial block
    series = run_v2x_scenario(cfg)
    if anchor_snr_db == -3.0:
        assert all(0 < n < 34 for n in lost)
    else:
        assert lost[0] == 34
    for name, expected in columns.items():
        assert np.array_equal(getattr(series, name), expected, equal_nan=True), name
    assert series.lost_frames == lost


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "params, per_frame_seeds",
    [
        # the replay: one seed per user, a start time per frame
        (REPLAY_PARAMS, False),
        (replace(REPLAY_PARAMS, delay_samples=16), False),
        # the sweep: a seed row per trial, every trial from t = 0
        (replace(REPLAY_PARAMS, noise_power_dbm=None, target_snr_db=3.0), True),
        (replace(REPLAY_PARAMS, noise_power_dbm=None, target_snr_db=3.0, delay_samples=16), True),
    ],
    ids=["replay", "replay_delay", "sweep", "sweep_delay"],
)
def test_a_carried_buffer_set_gives_the_bytes_of_new_arrays(params, per_frame_seeds):
    # a whole block, then a 3-frame tail as the replay and the sweep end,
    # through one buffer set
    if per_frame_seeds:
        mobility = MobilityState.always_moving(1.0)
    else:
        mobility = ScenarioConfig().mobility(2)
    work = _BlockBuffers()
    first_rx = None
    for first, frames in ((672, FRAMES), (672 + FRAMES, 3)):
        payloads = list(_payloads(frames, seed=first).swapaxes(0, 1))
        tx = _downlink(payloads, CFG, ALLOC, PILOT_SEED, work)
        assert _same_bytes(tx, build_downlink_frame(payloads, CFG, ALLOC, PILOT_SEED))
        if per_frame_seeds:
            seed, t0 = [[7, 20, 1, trial, 2] for trial in range(first, first + frames)], 0.0
        else:
            seed, t0 = [10, 1, 2], (first + np.arange(frames)) * CFG.frame_duration
        args = (CFG.sample_rate, params, mobility)
        rx, tap_gain, applied_cfo, noise_power = _propagate(tx, *args, seed, t0, work)
        new_rx, new_truth = apply_channel(tx, *args, seed=seed, t0=t0)
        assert _same_bytes(rx, new_rx)
        assert _same_bytes(tap_gain, new_truth.tap_gain)
        assert _same_bytes(applied_cfo, new_truth.applied_cfo_hz)
        assert _same_bytes(noise_power, new_truth.noise_power)
        first_rx = rx if first_rx is None else first_rx
    # the tail block's samples are written over the first block's
    assert np.shares_memory(rx, first_rx)


def test_calls_without_a_buffer_set_return_new_arrays():
    payloads = list(_payloads(3).swapaxes(0, 1))
    tx = build_downlink_frame(payloads, CFG, ALLOC, PILOT_SEED)
    assert not np.shares_memory(tx, build_downlink_frame(payloads, CFG, ALLOC, PILOT_SEED))
    args = (CFG.sample_rate, REPLAY_PARAMS, MobilityState.always_moving(1.0))
    outputs = [
        array
        for rx, truth in (apply_channel(tx, *args, seed=4), apply_channel(tx, *args, seed=4))
        for array in (rx, truth.tap_gain)
    ]
    for i, array in enumerate(outputs):
        assert not np.shares_memory(array, tx)
        assert not any(np.shares_memory(array, other) for other in outputs[i + 1 :])


def test_runs_in_one_process_leave_no_state_behind():
    sweep_cfg = replace(ScenarioConfig(), seed=5)
    first = sweep_ber_vs_snr(sweep_cfg, [0.0], min_bits_per_point=100_000)
    run_v2x_scenario(SHORT_REPLAY)
    again = sweep_ber_vs_snr(sweep_cfg, [0.0], min_bits_per_point=100_000)
    for name in ("ber", "ci_low", "ci_high", "bits", "lost_frames", "frames"):
        assert _same_bytes(getattr(again, name), getattr(first, name)), name


REPLAY_FIELDS = ("time_s", "user", "est_snr_db", "est_cfo_hz", "ber", "outage", "detected")
SWEEP_FIELDS = ("snr_db", "ber", "ci_low", "ci_high", "bits", "lost_frames", "frames")


# criterion 9's sweep config
SWEEP_7 = replace(ScenarioConfig(), seed=7)


def _criterion_9_runs():
    """Criterion 9's replay and the 0/5 dB sweep at seed 7."""
    return run_v2x_scenario(SHORT_REPLAY), sweep_ber_vs_snr(SWEEP_7, [0.0, 5.0])


@pytest.fixture(scope="module")
def default_runs():
    return _criterion_9_runs()


def _assert_same_runs(runs, expected):
    (series, curve), (replay, sweep) = runs, expected
    for name in REPLAY_FIELDS:
        assert _same_bytes(getattr(series, name), getattr(replay, name)), name
    assert series.lost_frames == replay.lost_frames
    for name in SWEEP_FIELDS:
        assert _same_bytes(getattr(curve, name), getattr(sweep, name)), name


@pytest.mark.parametrize("frames", [1, 5, 32])
def test_the_block_length_changes_no_byte(monkeypatch, default_runs, frames):
    # channel draws are keyed by seed and start sample, sweep trials by their
    # index, and the payload stream is the same at any chunking
    monkeypatch.setattr(scenario, "_BLOCK_FRAMES", frames)
    _assert_same_runs(_criterion_9_runs(), default_runs)


def test_the_runs_call_the_kernels_not_the_public_transmit_and_channel(
    monkeypatch, default_runs
):
    # the public functions check their arguments; the runs build their own
    # blocks and skip those checks, so no run calls a public function but
    # receive_user. The runs' configs are module constants, built before the
    # patch: their validator calls doppler_shift
    named = {f"nomalink.{name}" for name in nomalink.__all__}
    named |= {f"nomalink.{m}.{f}" for m, f in _layer_functions()}
    allowed = {receive_user, run_v2x_scenario, sweep_ber_vs_snr}
    public = set()
    for name in named:
        module, _, attr = name.rpartition(".")
        value = getattr(sys.modules[module], attr)
        # the cli functions are the front end that starts the runs
        if inspect.isfunction(value) and value not in allowed and module != "nomalink.cli":
            public.add(value)
    assert len(public) == 18

    def public_call(*args, **kwargs):
        raise AssertionError("a run called a public function")

    for key, module in list(sys.modules.items()):
        if key == "nomalink" or key.startswith("nomalink."):
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in public:
                    monkeypatch.setattr(module, name, public_call)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return receive_user(*args, **kwargs)

    monkeypatch.setattr(scenario, "receive_user", counted)

    def runs():
        calls.clear()
        result = _criterion_9_runs()
        series, curve = result
        # one receive_user call per user-frame, each user once per frame
        user_frames = series.time_s.size // CFG.symbols_per_frame + curve.frames.sum() * 3
        assert len(calls) == user_frames
        assert calls.count(1) == calls.count(2) == calls.count(3)
        return result

    for result in _on_both_transports(monkeypatch, runs):
        _assert_same_runs(result, default_runs)


@contextmanager
def _nothing_left_behind():
    """No child process to reap and no unclosed resource after the block."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        yield
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _on_both_transports(monkeypatch, run):
    """``run()`` with its send half in a forked child, then in the calling
    process; each time the run forks, or does not, and leaves nothing
    behind."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    results = []
    for forked in (True, False):
        monkeypatch.setattr(scenario, "_can_fork", lambda: forked)
        forks.clear()
        with _nothing_left_behind():
            results.append(run())
        assert bool(forks) is forked
    return results


NEEDS_FORK = pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no os.fork")


@NEEDS_FORK
@pytest.mark.parametrize("frames", [FRAMES, 1, 5, 32])
def test_the_forked_and_the_inline_send_half_give_the_same_bytes(monkeypatch, frames):
    # criterion 9's replay and sweep
    monkeypatch.setattr(scenario, "_BLOCK_FRAMES", frames)
    forked, inline = _on_both_transports(monkeypatch, _criterion_9_runs)
    _assert_same_runs(forked, inline)


@NEEDS_FORK
@pytest.mark.parametrize(
    "cfg, grid, min_bits",
    [
        # 0 dB loses frames
        (replace(ScenarioConfig(), seed=5), [0.0, 30.0], 100_001),
        # a peak never reaches 1.5, so every frame is lost up to each point's
        # cap: 200 trials of 10,000-bit frames, 12.5 blocks
        (
            ScenarioConfig(frame=FrameConfig(symbols_per_frame=40), sync_threshold=1.5, seed=5),
            [10.0, 20.0],
            100_000,
        ),
    ],
    ids=["lost_frames", "frame_cap"],
)
def test_the_forked_and_the_inline_sweep_run_the_same_trials(monkeypatch, cfg, grid, min_bits):
    forked, inline = _on_both_transports(
        monkeypatch, lambda: sweep_ber_vs_snr(cfg, grid, min_bits_per_point=min_bits)
    )
    for name in SWEEP_FIELDS:
        assert _same_bytes(getattr(forked, name), getattr(inline, name)), name
    # no point ends on a block's edge: the last block of a point at its cap
    # is short, and a point that meets its budget leaves a block it asked for
    assert np.all(forked.frames % FRAMES != 0)
    assert forked.lost_frames.sum() > 0
    cap = 20 * -(-min_bits // cfg.frame.payload_bits)
    assert np.all(forked.frames == cap) == (cfg.sync_threshold > 1)


# Per point of a feed: its rows, the rows the decode half takes, and the
# take lengths it asks for, in turn, the last one repeated
_FEED_POINTS = [
    # whole, partial, and cut at a block's end; the point ends at its cap
    (10, 10, [4, 2, 3]),
    # the point ends inside a block
    (12, 5, [4]),
    # the point ends after its first take, and the next one starts at row 0
    (20, 3, [4]),
    # takes of 3 rows, which the blocks of 4 after the first do not line up with
    (9, 9, [3]),
]


def _marking_steps(monkeypatch, log, pause):
    """A draw, transmit and propagate step that call no kernel. Each marks
    its rows' point and row index in its part of the slot, from the part
    the step before wrote, and appends a line (step, pid, point, first,
    rows) to ``log``; propagate sleeps ``pause`` seconds first."""

    def note(step, point, first, rows):
        with open(log, "a") as f:
            f.write(f"{step} {os.getpid()} {point} {first} {rows}\n")

    def draw(point, first, out):
        out[:, 0, 0] = point
        out[:, 0, 1] = np.arange(first, first + len(out))
        note("draw", point, first, len(out))

    def transmit(payloads, cfg, alloc, pilot_seed, work, out):
        out[:, :2] = payloads[0][:, :2]
        note("transmit", int(out[0, 0].real), int(out[0, 1].real), len(out))

    def propagate(point, first, rows, slot):
        time.sleep(pause)
        tx = slot.tx[:rows, :2].real
        if not np.array_equal(tx, np.c_[np.full(rows, point), np.arange(first, first + rows)]):
            raise AssertionError(f"the slot does not hold the frames of {point, first, rows}")
        slot.rx[:, :rows, :2] = tx
        note("propagate", point, first, rows)

    monkeypatch.setattr(scenario, "_downlink", transmit)
    return draw, propagate


@NEEDS_FORK
def test_the_feed_sends_the_blocks_that_the_decode_half_takes(monkeypatch, tmp_path):
    monkeypatch.setattr(scenario, "_BLOCK_FRAMES", 4)
    log = tmp_path / "steps.log"

    def run(decode_s, send_s):
        """Each take (point, first, rows asked, rows got), and each step's
        calls as (pid, point, first, rows), for a decode half and a send
        half that take ``decode_s`` and ``send_s`` seconds a block."""
        log.unlink(missing_ok=True)
        takes = []
        caps = [cap for cap, _, _ in _FEED_POINTS]
        steps = _marking_steps(monkeypatch, log, send_s)
        with scenario._BlockFeed(ScenarioConfig(), *steps, caps) as feed:
            for point, (_, end, lengths) in enumerate(_FEED_POINTS):
                first, n = 0, 0
                while first < end:
                    rows = min(lengths[min(n, len(lengths) - 1)], end - first)
                    payloads, rx = feed.take(point, first, rows)
                    got = len(payloads)
                    rows_got = np.arange(first, first + got)
                    assert np.all(payloads[:, 0, 0] == point) and np.all(rx[:, :, 0] == point)
                    assert np.array_equal(payloads[:, 0, 1], rows_got)
                    assert np.all(rx[:, :, 1].real == rows_got)
                    takes.append((point, first, rows, got))
                    first, n = first + got, n + 1
                    time.sleep(decode_s)
        calls = {"draw": [], "transmit": [], "propagate": []}
        for line in log.read_text().splitlines():
            step, *numbers = line.split()
            calls[step].append(tuple(map(int, numbers)))
        return takes, calls

    wanted = {(p, row) for p, (_, end, _) in enumerate(_FEED_POINTS) for row in range(end)}
    here = os.getpid()
    steals = []
    # the decode half is the slower one, then the send half
    for decode_s, send_s in ((0.01, 0.0), (0.0, 0.02)):
        forked, inline = _on_both_transports(monkeypatch, lambda: run(decode_s, send_s))
        for (takes, calls), transport in ((forked, "forked"), (inline, "inline")):
            assert all(1 <= got <= rows for _, _, rows, got in takes)
            # the decode half gets every row it takes, once
            taken = {(p, row) for p, first, _, got in takes for row in range(first, first + got)}
            assert len(taken) == sum(got for *_, got in takes)
            assert taken == wanted
            # the calling process draws each block it asks for, once, in row
            # order within a point; every block is transmitted once, by one of
            # the two processes, and propagated once
            draws = [block for pid, *block in calls["draw"]]
            assert {pid for pid, *_ in calls["draw"]} == {here}, transport
            for p in range(len(_FEED_POINTS)):
                blocks = [(first, rows) for q, first, rows in draws if q == p]
                assert [first for first, _ in blocks] == [0] + [f + r for f, r in blocks[:-1]]
            for step in ("transmit", "propagate"):
                blocks = [block for pid, *block in calls[step]]
                assert sorted(blocks) == sorted(draws), (transport, step)
            sent = [(p, row) for p, first, rows in draws for row in range(first, first + rows)]
            assert len(set(sent)) == len(sent), f"{transport}: a row was sent twice"
            assert all(row < _FEED_POINTS[p][0] for p, row in sent), f"{transport}: past a cap"
            unused = [(p, f, r) for p, f, r in draws if not taken & {(p, f + i) for i in range(r)}]
            per_point = [p for p, _, _ in unused]
            assert all(per_point.count(p) <= 1 for p in per_point), (transport, unused)
        # inline, every step runs in the calling process on exactly the rows
        # asked for; forked, the child propagates, a take was cut at a
        # block's end, and a block that the decode half dropped was sent
        takes, calls = inline
        assert all(got == rows for *_, rows, got in takes)
        for step in ("draw", "transmit", "propagate"):
            assert calls[step] == [(here, p, first, rows) for p, first, rows, _ in takes]
        takes, calls = forked
        assert any(got < rows for *_, rows, got in takes)
        assert (here, 1, 8, 4) in calls["draw"]
        assert here not in {pid for pid, *_ in calls["propagate"]}
        steals.append(sum(pid == here for pid, *_ in calls["transmit"]))
    # a slower send half leaves the transmit step of a block to the decode half
    assert steals[1] > 0


@NEEDS_FORK
def test_a_run_forks_with_fork_a_second_cpu_and_no_other_thread(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert scenario._can_fork()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(10.0,))
    thread.start()
    try:
        assert not scenario._can_fork()
    finally:
        stop.set()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert scenario._can_fork()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert not scenario._can_fork()
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert not scenario._can_fork()


def _raising_on_call(n, function, exc):
    """``function``, but its ``n``-th call in this process raises ``exc``."""
    calls = []

    def raising(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise exc
        return function(*args, **kwargs)

    return raising


TRANSPORTS = pytest.mark.parametrize(
    "forked", [pytest.param(True, marks=NEEDS_FORK), False], ids=["forked", "inline"]
)


def _assert_the_run_raises(monkeypatch, tmp_path, capsys, name, n, error):
    """Criterion 9's replay, and its CLI command, with ``scenario.<name>``
    raising ``error`` on its ``n``-th call in each process: the run raises
    it, the command returns 1 with one error line, and nothing is left."""
    function = getattr(scenario, name)
    config = tmp_path / "short.json"
    config.write_text(
        '{"timing": {"stationary_duration": 0.05, "travel_duration": 0.06,'
        ' "total_duration": 0.11}}'
    )
    with _nothing_left_behind():
        monkeypatch.setattr(scenario, name, _raising_on_call(n, function, error))
        with pytest.raises(type(error)) as raised:
            run_v2x_scenario(SHORT_REPLAY)
        assert str(raised.value) == str(error)
        monkeypatch.setattr(scenario, name, _raising_on_call(n, function, error))
        argv = ["run-scenario", "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


@TRANSPORTS
def test_a_send_half_error_is_raised_in_the_run(monkeypatch, tmp_path, capsys, forked):
    monkeypatch.setattr(scenario, "_can_fork", lambda: forked)
    error = ValueError("the channel failed on its third call")
    _assert_the_run_raises(monkeypatch, tmp_path, capsys, "_propagate", 3, error)


def _slow_propagate(monkeypatch, pause=0.02):
    """Each channel call sleeps ``pause`` seconds first, so that the send
    half is the slower one and the decode half transmits blocks itself."""
    propagate = scenario._propagate

    def slow(*args, **kwargs):
        time.sleep(pause)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(scenario, "_propagate", slow)


@pytest.mark.parametrize(
    "forked, slow_send",
    [
        pytest.param(True, False, marks=NEEDS_FORK),
        pytest.param(True, True, marks=NEEDS_FORK),
        (False, False),
    ],
    ids=["forked", "forked_slow_send", "inline"],
)
def test_a_transmit_error_is_raised_in_the_run(monkeypatch, tmp_path, capsys, forked, slow_send):
    # with a slow send half, the decode half's own transmit calls raise too
    monkeypatch.setattr(scenario, "_can_fork", lambda: forked)
    if slow_send:
        _slow_propagate(monkeypatch)
    error = ValueError("the transmitter failed on its second call")
    _assert_the_run_raises(monkeypatch, tmp_path, capsys, "_downlink", 2, error)


@NEEDS_FORK
def test_a_slow_send_half_leaves_blocks_to_transmit_to_the_decode_half(monkeypatch):
    _slow_propagate(monkeypatch)
    here = os.getpid()
    transmits, receives = [], []
    downlink = scenario._downlink

    # a forked child appends to its own copy of the lists, out of sight
    def counted_downlink(*args, **kwargs):
        transmits.append(None)
        return downlink(*args, **kwargs)

    def counted_receive(*args, **kwargs):
        receives.append(os.getpid())
        return receive_user(*args, **kwargs)

    monkeypatch.setattr(scenario, "_downlink", counted_downlink)
    monkeypatch.setattr(scenario, "receive_user", counted_receive)

    def runs():
        transmits.clear()
        receives.clear()
        series = run_v2x_scenario(SHORT_REPLAY)
        # the 0 dB point ends inside a block, before the 30 dB one starts
        curve = sweep_ber_vs_snr(replace(ScenarioConfig(), seed=5), [0.0, 30.0], 100_001)
        return (series, curve), len(transmits), list(receives)

    (forked, transmitted, received), (inline, _, _) = _on_both_transports(monkeypatch, runs)
    _assert_same_runs(forked, inline)
    assert transmitted > 0
    series, curve = forked
    user_frames = series.time_s.size // CFG.symbols_per_frame + curve.frames.sum() * 3
    assert received == [here] * user_frames


@TRANSPORTS
@pytest.mark.parametrize("run", ["replay", "sweep"])
def test_a_decode_half_error_ends_the_send_half(monkeypatch, forked, run):
    monkeypatch.setattr(scenario, "_can_fork", lambda: forked)
    error = RuntimeError("the receiver failed on its 40th call")
    monkeypatch.setattr(scenario, "receive_user", _raising_on_call(40, receive_user, error))
    with _nothing_left_behind():
        with pytest.raises(RuntimeError, match="^the receiver failed on its 40th call$"):
            if run == "replay":
                run_v2x_scenario(SHORT_REPLAY)
            else:
                sweep_ber_vs_snr(replace(ScenarioConfig(), seed=7), [0.0, 5.0])
