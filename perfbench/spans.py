"""Per-layer spans and interpreter call counts, recorded from outside nomalink.

The layers are the modules of the package. Their public functions are
replaced by span-recording wrappers for the length of a run. The modules
import each other's functions by name (``from .receiver import
receive_user``), so a wrapper must go wherever a caller looks the name up:
every ``nomalink`` module attribute bound to the original function object
is replaced, and restored afterwards. A function bound as a default
argument (``sic_decode``'s ``demodulate=qam_demodulate``) is not looked up
at call time, so those calls count in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function) pairs wrapped by the traced run, in pipeline order.
LAYER_FUNCTIONS = (
    ("cli", "execute"),
    ("cli", "write_outputs"),
    ("scenario", "run_v2x_scenario"),
    ("scenario", "sweep_ber_vs_snr"),
    ("scenario", "compute_ber"),
    ("noma", "build_downlink_frame"),
    ("frame_codec", "assemble_frame"),
    ("noma", "superpose"),
    ("channel", "apply_channel"),
    ("channel", "generate_fading"),
    ("channel", "estimate_k_factor"),
    ("receiver", "receive_user"),
    ("receiver", "cp_ml_sync"),
    ("receiver", "correct_cfo"),
    ("frame_codec", "disassemble_symbol"),
    ("receiver", "ls_estimate_channel"),
    ("receiver", "zf_equalize"),
    ("receiver", "evm_snr"),
    ("noma", "sic_decode"),
    ("frame_codec", "qam_demodulate"),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, f in LAYER_FUNCTIONS)

# Spans that run once per frame, user-frame or OFDM symbol: enough calls
# for a median and a 99th percentile of their durations.
PER_FRAME_SPANS = frozenset(SPAN_NAMES) - {
    "cli.execute",
    "cli.write_outputs",
    "scenario.run_v2x_scenario",
    "scenario.sweep_ber_vs_snr",
    "channel.generate_fading",
    "channel.estimate_k_factor",
}


def _nomalink_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "nomalink" or name.startswith("nomalink."))
    ]


class SpanRecorder:
    """Records one span per call of each layer function while installed.

    Spans stay in memory as ``[parent, name, start_ns, end_ns]`` lists whose
    index is the span id; ``parent`` is -1 for a root span.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter_ns

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            record = [open_spans[-1] if open_spans else -1, name, clock(), 0]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                open_spans.pop()

        return recorded

    def install(self) -> None:
        defining = {m: importlib.import_module(f"nomalink.{m}") for m, _ in LAYER_FUNCTIONS}
        modules = _nomalink_modules()
        for module_name, func_name in LAYER_FUNCTIONS:
            original = getattr(defining[module_name], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self) -> bool:
        """Put every original function back; True if all names now hold them."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        restored = all(getattr(m, a) is o for m, a, o in self._patches)
        self._patches.clear()
        return restored

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for span_id, (parent, name, start, end) in enumerate(self.spans):
                out.write(f"{self.run_id},{span_id},{parent},{name},{start},{end}\n")


def summarize(spans) -> dict:
    """Per-name calls, total and self time, and per-call durations.

    Self time is a span's duration minus the time its child spans cover;
    the run is single-threaded, so children never overlap.
    """
    durations = [end - start for _, _, start, end in spans]
    child_ns = [0] * len(spans)
    for (parent, _, _, _), duration in zip(spans, durations):
        if parent >= 0:
            child_ns[parent] += duration
    out: dict = {}
    for (_, name, _, _), duration, covered in zip(spans, durations, child_ns):
        entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations_ns": []})
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - covered
        entry["durations_ns"].append(duration)
    return out


def count_calls(fn):
    """Run ``fn()`` and count the Python and C function calls it makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
