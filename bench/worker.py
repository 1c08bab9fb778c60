"""One workload in one fresh process: set up, then timed passes until the
time budget is spent, then one JSON line with the measurements.

    python3 -I bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 -I bench/worker.py --workload NAME --seed N --setup-only --spawned-at T

``bench/run.py`` starts this script; it is not meant to be run by hand.  The
program is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import logging
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

# The geometry calls behind P and the sector, which the controller makes and
# its callers (run_trial, replay) repeat.
GEOMETRY_PER_SAMPLE = ("relative_position", "to_polar", "classify_sector")


def import_program():
    """Import roitrack from this checkout's src/ and fail if it comes from elsewhere."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import roitrack

    origin = Path(roitrack.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"roitrack imported from {origin}, not from {SRC}")


class ClampCounter(logging.Handler):
    """Counts the rate-clamp warnings ``roitrack.world`` logs."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def load_pins() -> dict:
    return json.loads((BENCH / "digests.json").read_text())


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an already sorted list."""
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def per_layer(stats: dict, counters: dict, passes: int, samples: int, traced_s: float,
              traced_median: float, untraced_median: float, clamps: int, log_seconds: float) -> dict:
    """Per-layer metrics of the traced passes, each per pass."""
    from roitrack.protocol import BITS_PER_BYTE_ON_WIRE, LINE_RATE_BPS
    from spans import LAYERS

    def get(name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0)

    def calls(name: str) -> float:
        return get(name, "calls") / passes

    def seconds(name: str, field: str) -> float:
        return get(name, field) / 1e9 / passes

    m = {}
    m["arenas.pursue.calls"] = calls("arenas.pursue")
    m["arenas.pursue.self_s"] = seconds("arenas.pursue", "self_ns")
    m["arenas.pursue.share"] = get("arenas.pursue", "total_ns") / 1e9 / traced_s
    m["arenas.build_arena.calls"] = calls("arenas.build_arena")
    m["world.closed_loop_step.calls"] = calls("world.closed_loop_step")
    m["world.closed_loop_step.total_s"] = seconds("world.closed_loop_step", "total_ns")
    for fn in ("usv_step", "project", "gimbal_step"):
        m[f"world.{fn}.self_s"] = seconds(f"world.{fn}", "self_ns")
    m["world.invisible_samples"] = counters.get("world.invisible_samples", 0) / passes
    m["world.rate_clamps"] = clamps / passes
    step_calls = get("controller.step", "calls")
    m["controller.step.calls"] = step_calls / passes
    m["controller.step.self_s"] = seconds("controller.step", "self_ns")
    durations = sorted(stats.get("controller.step", {}).get("durations", [])) or [0]
    m["controller.step.us_p50"] = quantile(durations, 0.5) / 1e3
    m["controller.step.us_p999"] = quantile(durations, 0.999) / 1e3
    m["controller.active_share"] = counters.get("controller.active", 0) / step_calls if step_calls else 0.0
    for fn in GEOMETRY_PER_SAMPLE:
        m[f"geometry.{fn}.calls"] = calls(f"geometry.{fn}")
    m["geometry.calls_per_sample"] = sum(m[f"geometry.{fn}.calls"] for fn in GEOMETRY_PER_SAMPLE) / samples
    m["trials.run_trial.calls"] = calls("trials.run_trial")
    m["trials.run_trial.total_s"] = seconds("trials.run_trial", "total_ns")
    m["trials.run_trial.self_s"] = seconds("trials.run_trial", "self_ns")
    m["metrics.summarize.calls"] = calls("metrics.summarize")
    m["metrics.summarize.self_s"] = seconds("metrics.summarize", "self_ns")
    m["metrics.excursions"] = counters.get("metrics.excursions", 0) / passes
    m["telemetry.write_trial_csv.total_s"] = seconds("telemetry.write_trial_csv", "total_ns")
    m["telemetry.write_trial_csv.bytes"] = counters.get("telemetry.write_trial_csv.bytes", 0) / passes
    m["telemetry.read_trial_csv.total_s"] = seconds("telemetry.read_trial_csv", "total_ns")
    m["telemetry.read_trial_csv.rows"] = counters.get("telemetry.read_trial_csv.rows", 0) / passes
    m["telemetry.sample_row.calls"] = calls("telemetry.sample_row")
    m["telemetry.sample_row.self_s"] = seconds("telemetry.sample_row", "self_ns")
    sends = get("protocol.link_send", "calls")
    frames = counters.get("protocol.frames", 0)
    wire_bytes = counters.get("protocol.wire_bytes", 0)
    m["protocol.link_send.calls"] = sends / passes
    m["protocol.encode.calls"] = calls("protocol.encode")
    m["protocol.frames"] = frames / passes
    m["protocol.wire_bytes"] = wire_bytes / passes
    m["protocol.frames_per_send"] = frames / sends if sends else 0.0
    m["protocol.link_utilisation"] = (
        wire_bytes / passes * BITS_PER_BYTE_ON_WIRE / (log_seconds * LINE_RATE_BPS) if log_seconds else 0.0
    )
    m["protocol.saturations"] = counters.get("protocol.transport_send.errors", 0) / passes
    for cmd in ("cmd_simulate", "cmd_report", "cmd_replay"):
        m[f"cli.{cmd}.self_s"] = seconds(f"cli.{cmd}", "self_ns")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s["self_ns"] for name, s in stats.items()
                                   if name.startswith(layer + ".")) / 1e9 / passes
    m["trace.overhead"] = traced_median / untraced_median
    return m


def merge_stats(total: dict, stats: dict, factor: float) -> None:
    """Add one traced pass's span statistics, times scaled by ``factor``;
    call durations are kept only for ``controller.step``."""
    for name, s in stats.items():
        t = total.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "durations": []})
        t["calls"] += s["calls"]
        t["total_ns"] += s["total_ns"] * factor
        t["self_ns"] += s["self_ns"] * factor
        if name == "controller.step":
            t["durations"].extend(d * factor for d in s["durations"])


def measure(wl, name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Timed passes for ``seconds``; the second half traced when ``trace``.

    Pass times are in calibrated seconds (see calibrate.py); the host seconds
    are kept beside them.
    """
    from calibrate import reference_seconds, scale
    from spans import Tracer

    clamps = ClampCounter()
    logging.getLogger("roitrack.world").addHandler(clamps)
    pin = load_pins().get(name, {}).get(str(seed))
    out = {"attempted": 0, "failed": 0, "problems": [],
           "run_s": [], "host_run_s": [], "traced_run_s": [], "traced_host_run_s": []}
    first = {}

    def one_pass(tracer=None):
        wl.prepare()
        clamps.count = 0
        results, elapsed, calibrated = [], 0.0, 0.0
        if tracer is not None:
            tracer.install()
        try:
            for call in wl.calls():
                before = reference_seconds()
                t0 = time.perf_counter()
                results.append(call())
                seconds = time.perf_counter() - t0
                elapsed += seconds
                calibrated += seconds * scale(before, reference_seconds())
        finally:
            if tracer is not None:
                tracer.uninstall()
        res = wl.check(results)
        digest = res.digest()
        counts = dict(res.counts, rate_clamps=clamps.count)
        first.setdefault("digest", digest)
        first.setdefault("counts", counts)
        if digest != first["digest"] or counts != first["counts"]:
            res.failed = res.attempted
            res.problems.append(f"outputs differ between passes: {digest} {counts} != {first}")
        elif pin is not None and digest != pin:
            res.failed = res.attempted
            res.problems.append(f"outputs differ from the pinned digest for seed {seed}: {digest} != {pin}")
        out["attempted"] += res.attempted
        out["failed"] += res.failed
        out["problems"].extend(res.problems[: max(0, 5 - len(out["problems"]))])
        out.setdefault("digests", res.digests)
        out.setdefault("properties", res.properties)
        prefix = "" if tracer is None else "traced_"
        out[prefix + "run_s"].append(calibrated)
        out[prefix + "host_run_s"].append(elapsed)
        return calibrated / elapsed

    untraced_budget = seconds / 2 if trace else seconds
    start = time.monotonic()
    while not out["run_s"] or time.monotonic() - start < untraced_budget:
        one_pass()
    if trace:
        total_stats: dict = {}
        counters: dict = {}
        clamp_total = 0
        start = time.monotonic()
        while not out["traced_run_s"] or time.monotonic() - start < seconds / 2:
            tracer = Tracer()
            factor = one_pass(tracer)
            clamp_total += clamps.count
            merge_stats(total_stats, tracer.aggregate(), factor)
            for key, value in tracer.counters.items():
                counters[key] = counters.get(key, 0) + value
        tracer.dump(str(WORK_ROOT / f"{name}.spans.jsonl.gz"))
        passes = len(out["traced_run_s"])
        layer = per_layer(
            total_stats, counters, passes, wl.samples, sum(out["traced_run_s"]),
            statistics.median(out["traced_run_s"]), statistics.median(out["run_s"]),
            clamp_total, getattr(wl, "log_seconds", 0.0),
        )
        out["per_layer"] = layer
        first["counts"]["controller_calls"] = round(layer["controller.step.calls"])
        first["counts"]["geometry_calls"] = round(layer["geometry.calls_per_sample"] * wl.samples)
        first["counts"]["geometry_calls_per_sample"] = layer["geometry.calls_per_sample"]
    out["counts"] = first["counts"]
    out["digest"] = first["digest"]
    out["pinned"] = pin
    out["samples_per_pass"] = wl.samples
    out["sizes"] = wl.sizes
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS  # only importable once import_program() set sys.path

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent just before it started this process")
    args = parser.parse_args(argv)

    workdir = WORK_ROOT / f"work-{args.workload}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            result = {"setup_s": ready - args.spawned_at}
        else:
            result = measure(wl, args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
