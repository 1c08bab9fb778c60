"""roitrack benchmark: one workload per invocation, printed as one JSON line.

    python3 bench/run.py --workload closed_loop_batch --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory.  With ``--trace 0`` the result holds the end-to-end metrics
(setup_s, run_s, samples_per_s, peak_rss_mb); with ``--trace 1`` it holds the
per-layer metrics of a traced run, including ``trace.overhead``.  Human
readable lines (environment, exact counts, output digest, tail latency and
error rate) come first; the last line of stdout is the JSON result.  A full
record is also written to ``.bench_out/results/``.

Set-up is measured in separate fresh processes (one discarded warm-up that
fills the bytecode cache, then SETUP_RUNS timed ones) and reported as their
median; the workload itself runs in one more fresh process.  All reported
times are calibrated seconds (calibrate.py); host seconds are printed too.
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

from calibrate import reference_seconds, scale

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOAD_NAMES = ("closed_loop_batch", "cli_simulate_report", "replay_30hz")
SETUP_RUNS = 9
# Every worker must end by this many seconds after start, so a run ends
# within 180 s: set-up takes a few seconds and a measurement its budget of
# at most 60 s plus one last pass.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def run_worker(args: list[str], deadline: float) -> dict:
    """Start the worker, wait for it to end, and return its JSON line; the
    worker is killed if it is still running at ``deadline`` (monotonic)."""
    cmd = [sys.executable, "-I", str(WORKER), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker still running at the deadline: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {' '.join(args)}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int, deadline: float) -> tuple[float, list[float]]:
    """Median set-up time of fresh worker processes in calibrated seconds,
    and the host seconds of each.  Each start is bracketed by the median of
    three reference loops on either side."""
    base = ["--workload", workload, "--seed", str(seed), "--setup-only"]

    def reference() -> float:
        return statistics.median(reference_seconds() for _ in range(3))

    calibrated, host = [], []
    before = reference()
    for i in range(SETUP_RUNS + 1):
        spawned_at = time.monotonic()
        result = run_worker(base + ["--spawned-at", repr(spawned_at)], deadline)
        after = reference()
        if i > 0:  # the first start fills the bytecode cache and is discarded
            calibrated.append(result["setup_s"] * scale(before, after))
            host.append(result["setup_s"])
        before = after
    return statistics.median(calibrated), host


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it, as (label, value);
    None when that would not be above the median."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f}", ordered[n - 11]


def environment(args, result: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sizes": result["sizes"],
        "input_properties": result["properties"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if not (ROOT / "src" / "roitrack" / "__init__.py").is_file():
        print(f"error: no roitrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup, host_setup = (None, []) if args.trace else measure_setup(args.workload, args.seed, deadline)
        result = run_worker(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_s = result["run_s"]
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["per_layer"]
    else:
        values = {
            "setup_s": setup,
            "run_s": statistics.median(run_s),
            "samples_per_s": result["samples_per_pass"] / statistics.median(run_s),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        print("error: measured metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    env = environment(args, result)
    pinned = result["pinned"]
    print("env " + json.dumps(env, sort_keys=True))
    print("counts " + json.dumps(result["counts"], sort_keys=True))
    print(f"digest {result['digest']} "
          + ("(no pinned digest for this seed)" if pinned is None
             else "(matches the pinned digest)" if pinned == result["digest"] else "(DIFFERS from the pinned digest)"))
    for label, values in (("run_s", run_s), ("host run_s", result["host_run_s"])):
        high = tail(values)
        print(f"{label} median {statistics.median(values):.4f} s over {len(values)} passes; "
              + (f"{high[0]} {high[1]:.4f} s" if high else "too few passes for a tail percentile"))
    if host_setup:
        print(f"setup_s median {setup:.4f} s (host {statistics.median(host_setup):.4f} s)"
              f" over {len(host_setup)} fresh processes")
    print(f"error_rate {failed}/{attempted} = {failed / attempted:.4f}")
    for problem in result["problems"]:
        print(f"problem: {problem}")

    record = {"env": env, "counts": result["counts"], "digest": result["digest"], "digests": result["digests"],
              "run_s": run_s, "host_run_s": result["host_run_s"], "traced_run_s": result["traced_run_s"],
              "traced_host_run_s": result["traced_host_run_s"], "setup_s": setup, "host_setup_s": host_setup,
              "attempted": attempted, "failed": failed, "problems": result["problems"], "metrics": metrics}
    results_dir = ROOT / ".bench_out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
