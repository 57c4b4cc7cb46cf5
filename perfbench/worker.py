"""One fresh benchmark worker process: set up, run a workload, check it.

Usage: python3 perfbench/worker.py MODE --workload NAME --seed N [--seconds S]

MODE is one of
  setup   import nomalink and resolve the config, then time the reference
          kernel;
  plain   untraced reps of the workload for about S seconds (at least one),
          with the reference kernel timed before the first rep and after
          each rep;
  spans   one rep with every layer function wrapped by a span recorder,
          with the reference kernel timed before and after it;
  calls   one rep with every Python and C call counted.

The worker imports the nomalink sources of the checkout it sits in, never
an installed copy, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE_ITERATIONS = 1000  # about 30 ms on a 2-vCPU Xeon host


def reference_s() -> float:
    """Time one run of a fixed kernel that does not use nomalink.

    The kernel has the shape of the frame pipeline: FFTs of the 64-point
    blocks of a 1,600-sample frame, small elementwise numpy calls and some
    interpreter work. The host's speed swings by up to 2x within seconds;
    timed next to a rep, the kernel measures the speed the rep ran at.
    """
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 50.0, 1600))
    step = np.exp(1j * 0.01)
    acc = 0.0
    begin = time.perf_counter()
    for _ in range(REFERENCE_ITERATIONS):
        power = np.abs(np.fft.fft(x.reshape(25, 64), axis=1)) ** 2
        acc += float(power.mean()) + sum(k * 0.5 for k in range(30))
        x = x * step
    elapsed = time.perf_counter() - begin
    if not np.isfinite(acc):
        raise RuntimeError("the reference kernel went wrong")
    return elapsed


def setup(workload, seed: int):
    """Import nomalink from the checkout and resolve the workload config."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nomalink
    from nomalink import channel, cli

    source = Path(nomalink.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise RuntimeError(f"imported nomalink from {source}, not from this checkout")
    config = OUT / f"{workload.name}.config.json"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(workload.config)
    cfg = replace(cli.load_config(config), seed=seed)
    params = None
    if workload.command == "estimate-k":
        from workloads import K_FIT_DOPPLER_HZ, K_FIT_TARGET

        params = channel.ChannelParams(rician_k=K_FIT_TARGET, doppler_hz=K_FIT_DOPPLER_HZ)
    return time.perf_counter() - start, cfg, params


def run_once(workload, cfg, params, out: Path) -> None:
    """One CLI-equivalent command, run to completion. Layer functions are
    looked up on their modules at call time, so the span recorder sees them."""
    import numpy as np
    from nomalink import channel, cli

    if workload.command == "estimate-k":
        from workloads import K_FIT_SAMPLES

        envelopes = out / "envelopes.npy"
        out.mkdir(parents=True, exist_ok=True)
        np.save(envelopes, np.abs(channel.generate_fading(params, K_FIT_SAMPLES, 1.0, cfg.seed)))
        cli.execute("estimate-k", cfg, out, input_path=envelopes)
    else:
        cli.execute(
            workload.command,
            cfg,
            out,
            snr_grid=list(workload.snr_grid) or None,
            min_bits=workload.min_bits,
        )


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "plain", "spans", "calls"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    from workloads import PINNED_VERSIONS, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, cfg, params = setup(workload, args.seed)
    result: dict = {"setup_s": setup_s}
    if args.mode == "setup":
        reference_s()  # warm-up: the first FFT of a size plans it
        result["reference_s"] = sorted(reference_s() for _ in range(3))[1]
        print(json.dumps(result))
        return 0

    import numpy as np

    import checks
    import spans

    tag = f"{workload.name}-s{args.seed}-{args.mode}"
    walls, problems, outs = [], [], []
    recorder = spans.SpanRecorder(run_id=f"{tag}-{os.getpid()}")
    started = time.perf_counter()
    # The call counter slows every call, so its rep's time is not used.
    references = [reference_s()] if args.mode != "calls" else []
    while True:
        out = OUT / f"{tag}-r{len(walls)}"
        shutil.rmtree(out, ignore_errors=True)
        rep_problems: list[str] = []
        begin = time.perf_counter()
        try:
            if args.mode == "plain":
                run_once(workload, cfg, params, out)
            elif args.mode == "spans":
                recorder.install()
                try:
                    run_once(workload, cfg, params, out)
                finally:
                    if not recorder.restore():
                        rep_problems.append("a wrapped layer function was not restored")
            else:
                result["interp_calls"] = spans.count_calls(
                    lambda: run_once(workload, cfg, params, out)
                )
        except Exception:  # a failed command is counted, and the run goes on
            rep_problems.append(traceback.format_exc(limit=3))
        walls.append(time.perf_counter() - begin)
        if references:
            references.append(reference_s())
        if os.environ.get("PERFBENCH_CORRUPT_OUTPUT"):  # self-test of the output gate
            data = out / workload.data_file
            if data.is_file():
                data.write_text("".join(data.read_text().splitlines(keepends=True)[:-1]))
        problems.append(rep_problems)
        outs.append(out)
        elapsed = time.perf_counter() - started
        if args.mode != "plain" or elapsed + elapsed / len(walls) > args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result["versions"] = versions()
    pinned = all(result["versions"][k] == v for k, v in PINNED_VERSIONS.items())
    result["reps"] = []
    for i, (wall, rep_problems, out) in enumerate(zip(walls, problems, outs)):
        found, counts = checks.inspect_output(workload, cfg, out, args.seed, pinned)
        # A command that raised leaves no trustworthy output to check.
        rep_problems = rep_problems or found
        rep = {"wall_s": wall, "problems": rep_problems, **counts}
        if references:  # the kernel timed just before and just after the rep
            rep["reference_s"] = (references[i] + references[i + 1]) / 2
        result["reps"].append(rep)
        if not rep_problems:  # keep only failed outputs, for inspection
            shutil.rmtree(out)

    if args.mode == "spans":
        summary = spans.summarize(recorder.spans)
        result["spans"] = {}
        for name, entry in summary.items():
            stats = {
                "calls": entry["calls"],
                "total_s": entry["total_ns"] / 1e9,
                "self_s": entry["self_ns"] / 1e9,
            }
            if name in spans.PER_FRAME_SPANS:
                p50, p99 = np.percentile(entry["durations_ns"], (50, 99)) / 1e3
                stats.update(p50_us=float(p50), p99_us=float(p99))
            result["spans"][name] = stats
        spans_file = OUT / f"spans-{workload.name}.csv"
        recorder.write(spans_file)
        result["spans_file"] = str(spans_file.relative_to(ROOT))
    if workload.command == "estimate-k":
        result["n_sinusoids"] = params.n_sinusoids
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
