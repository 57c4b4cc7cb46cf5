"""nomalink benchmark: host time, set-up time and memory of fixed workloads.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all [--save FILE]

Each workload runs in fresh single-process workers, one at a time. With
``--trace 0`` a worker runs untraced reps for about S seconds (at least
one) and the end-to-end metrics are printed. The first rep is a warm-up:
it is checked, not timed, when more reps follow. Set-up time is sampled
in separate fresh workers. The host's speed swings by up to 2x within
seconds and stays slow for minutes at a time, so each time is divided by
the time of a fixed reference kernel run next to it and multiplied by
REFERENCE_S: the bounded times are those of a host on which the kernel
takes REFERENCE_S. Medians are taken over reps and over set-up workers;
the raw times are printed beside them. With ``--trace 1`` three workers
each run one rep: untraced, with per-layer spans, and with every call
counted; the per-layer metrics are printed. Every rep's output is
checked; a rep fails if its command raises or its output check fails.
``--workload all`` runs every workload but ``smoke`` on its default
seed, in both modes. The last stdout line is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_FRAME_SPANS, SPAN_NAMES
from workloads import ALL_WORKLOADS, K_FIT_SAMPLES, PINNED_VERSIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# The reference kernel's fastest-decile time on the host the baseline was
# taken on, so that normalised times read as that host's uncontended times.
REFERENCE_S = 0.028

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "norm_samples_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
        if name in PER_FRAME_SPANS:
            units.update({f"{name}.p50_us": "us", f"{name}.p99_us": "us"})
    units.update(
        {
            "channel.generate_fading.ns_per_sample_sinusoid": "ns",
            "scenario.user_frames": "count",
            "receiver.detected_ratio": "ratio",
            "scenario.under_budget_points": "count",
            "cli.bytes_written": "bytes",
            "interp.calls": "count",
            "interp.calls_per_user_frame": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


PER_LAYER_UNITS = _per_layer_units()


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def environment(versions: dict) -> dict:
    """Host and library versions; digests are pinned for PINNED_VERSIONS only."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        **versions,
        "digests_pinned": all(versions[k] == v for k, v in PINNED_VERSIONS.items()),
    }


def worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload]
    command += ["--seed", str(seed), "--seconds", repr(seconds)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker of {workload}")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker of {workload} ran past the deadline") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker of {workload} exited with {done.returncode}")
    return json.loads(lines[-1])


def _rep_failures(label: str, reps: list) -> int:
    failed = 0
    for i, rep in enumerate(reps):
        for problem in rep["problems"]:
            print(f"FAILED {label} rep {i}: {problem}", file=sys.stderr)
        failed += bool(rep["problems"])
    return failed


def decile(values, k: int) -> float:
    """The k-th decile (1 to 9) of values, interpolated between samples."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def normalised_wall(rep: dict) -> float:
    """A rep's wall time on a host where the reference kernel takes REFERENCE_S."""
    return rep["wall_s"] * REFERENCE_S / rep["reference_s"]


def measure_end_to_end(name: str, seed: int, seconds: float, deadline: float):
    setups = [worker("setup", name, seed, 0.0, deadline) for _ in range(SETUP_SAMPLES)]
    plain = worker("plain", name, seed, seconds, deadline)
    reps = plain["reps"]
    timed = reps[1:] or reps  # the first rep warms caches and lazy imports
    walls = [r["wall_s"] for r in timed]
    norm_walls = [normalised_wall(r) for r in timed]
    metrics = {
        "norm_wall_s": statistics.median(norm_walls),
        "norm_samples_per_s": statistics.median(
            r["samples"] / w for r, w in zip(timed, norm_walls)
        ),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["reference_s"] for s in setups),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    extra = {
        "versions": plain["versions"],
        "timed_reps": len(timed),
        "wall_s": statistics.median(walls),
        "wall_p10_s": decile(walls, 1),
        "wall_p90_s": decile(walls, 9),
        "reference_s": statistics.median(r["reference_s"] for r in timed),
        "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_reference_s": [r["reference_s"] for r in reps],
        "setup_samples": setups,
        "digests": sorted({r.get("digest", "") for r in reps}),
    }
    # The workload's own rate, printed by name; norm_samples_per_s is its bounded form.
    if WORKLOADS[name].command == "estimate-k":
        extra["envelope_samples_per_s"] = metrics["norm_samples_per_s"]
    else:
        extra["user_frames_per_s"] = statistics.median(
            r["user_frames"] / w for r, w in zip(timed, norm_walls)
        )
    return metrics, extra, len(reps), _rep_failures(name, reps)


def measure_per_layer(name: str, seed: int, deadline: float):
    plain = worker("plain", name, seed, 0.0, deadline)
    traced = worker("spans", name, seed, 0.0, deadline)
    counted = worker("calls", name, seed, 0.0, deadline)
    reps = [plain["reps"][0], traced["reps"][0], counted["reps"][0]]
    reference = reps[0].get("digest")
    for label, rep in (("traced", reps[1]), ("counted", reps[2])):
        if rep.get("digest") != reference:
            rep["problems"].append(f"{label} output differs from the untraced output")
    rep = reps[1]
    spans = traced["spans"]
    if rep["user_frames"] != spans.get("receiver.receive_user", {}).get("calls", 0):
        rep["problems"].append("receive_user spans do not match the user-frames in the output")

    metrics = {}
    for key in PER_LAYER_UNITS:
        span, _, stat = key.rpartition(".")
        if span in SPAN_NAMES:
            metrics[key] = spans.get(span, {}).get(stat, 0)
    fading = spans.get("channel.generate_fading", {})
    metrics["channel.generate_fading.ns_per_sample_sinusoid"] = (
        fading.get("total_s", 0.0) * 1e9 / (K_FIT_SAMPLES * traced["n_sinusoids"])
        if fading
        else 0.0
    )
    user_frames = rep["user_frames"]
    metrics["scenario.user_frames"] = user_frames
    metrics["receiver.detected_ratio"] = rep["detected_frames"] / user_frames if user_frames else 0.0
    metrics["scenario.under_budget_points"] = rep["under_budget_points"]
    metrics["cli.bytes_written"] = rep["bytes_written"]
    metrics["interp.calls"] = counted["interp_calls"]
    metrics["interp.calls_per_user_frame"] = (
        counted["interp_calls"] / user_frames if user_frames else 0.0
    )
    metrics["trace.overhead_s"] = normalised_wall(reps[1]) - normalised_wall(reps[0])
    extra = {"versions": plain["versions"], "spans_file": traced["spans_file"]}
    return metrics, extra, len(reps), _rep_failures(name, reps)


def report(name: str, seed: int, trace: int, metrics: dict, extra: dict, units: dict) -> None:
    print(f"{name} seed={seed} trace={trace}")
    for key, value in metrics.items():
        print(f"  {key:<52} {value:>16.6g} {units[key]}")
    for key, unit in (
        ("wall_s", "s"),
        ("wall_p10_s", "s"),
        ("wall_p90_s", "s"),
        ("reference_s", "s"),
        ("raw_setup_s", "s"),
        ("timed_reps", "count"),
        ("user_frames_per_s", "1/s"),
        ("envelope_samples_per_s", "1/s"),
    ):
        if key in extra:
            print(f"  {key:<52} {extra[key]:>16.6g} {unit}")
    print(f"  {'failed_ratio':<52} {extra['failed_ratio']:>16.6g} ratio")


def run(name: str, seed: int, seconds: float, trace: int):
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        metrics, extra, attempted, failed = measure_per_layer(name, seed, deadline)
        units = PER_LAYER_UNITS
    else:
        metrics, extra, attempted, failed = measure_end_to_end(name, seed, seconds, deadline)
        units = END_TO_END_UNITS
    extra["failed_ratio"] = failed / attempted
    report(name, seed, trace, metrics, extra, units)
    return metrics, extra, attempted, failed, units


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nomalink benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, help="workload seed (default: the pinned one)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="also write the full result record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nomalink" / "__init__.py").is_file():
        print(f"error: no nomalink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        plan = [(w, t) for w in ALL_WORKLOADS for t in (0, 1)]
    else:
        plan = [(args.workload, args.trace)]
    record = {"argv": sys.argv[1:], "runs": []}
    metrics_out, attempted, failed = {}, 0, 0
    try:
        for name, trace in plan:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            metrics, extra, n, bad, units = run(name, seed, args.seconds, trace)
            attempted += n
            failed += bad
            prefix = f"{name}." if args.workload == "all" else ""
            metrics_out.update(
                {prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
            )
            record["runs"].append(
                {"workload": name, "seed": seed, "trace": trace, "attempted": n, "failed": bad,
                 "metrics": metrics, "extra": extra}
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record["env"] = env = environment(record["runs"][0]["extra"]["versions"])
    print("env " + json.dumps(env, sort_keys=True))
    if not env["digests_pinned"]:
        print("note: library versions differ from the pinned ones; digests were not compared")
    OUT.mkdir(exist_ok=True)
    tag = "all" if args.workload == "all" else f"{args.workload}-s{seed}-t{args.trace}"
    for path in filter(None, (OUT / f"result-{tag}.json", args.save)):
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_out}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
