"""The three benchmark workloads: input generation, one pass, and the output
checks that decide which operations failed.

A pass is a short list of calls into the program (``calls()``), each timed on
its own; ``check`` receives their results in order.

Each workload is driven closed-loop from one process, one call at a time.
Inputs are a pure function of the benchmark seed; the program only sees the
generated inputs (trial seeds, CLI arguments, a replay log file).

* ``closed_loop_batch`` - the paper's acceptance batch, in process: 20
  baseline trials per arena (22,020 steps) and ``summarize`` per arena.  Pure
  stepping (pursue, usv_step, project, controller, gimbal_step), no file I/O.
* ``cli_simulate_report`` - the artifact pipeline users run:
  ``simulate --arena 1 --trials 13`` then ``report`` over the CSVs.  Adds CSV
  write and readback, summary and manifest hashing to 9,360 steps.
* ``replay_30hz`` - ``replay`` of a 20-minute 30 Hz raw-pixel tracker log
  (36,000 rows): the controller open-loop, the serial encoder and the
  command link, with no simulator at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import struct
from pathlib import Path

from roitrack import cli, metrics, protocol, telemetry, trials
from roitrack.geometry import EllipseRoi, FrameSpec

# Per-trial excursion-count bands of the acceptance suite (criterion 6), which
# asserts them for trial seeds 1-20 only.  Other seeds fall outside now and
# then (about 1 in 10 arena-1 seeds, none of arena 2, over seeds -20..399), so
# there a trial outside its band is counted, not failed.
EXCURSION_BANDS = {1: (13, 23), 2: (9, 17)}
ACCEPTANCE_TRIAL_SEEDS = range(1, 21)


def band_problem(arena: int, trial_seed: int, n: int, outside: list) -> list[str]:
    """Record a trial outside its band; a failure only on an acceptance seed."""
    lo, hi = EXCURSION_BANDS[arena]
    if lo <= n <= hi:
        return []
    outside.append(trial_seed)
    if trial_seed not in ACCEPTANCE_TRIAL_SEEDS:
        return []
    return [f"arena {arena} trial seed {trial_seed}: {n} excursions outside [{lo}, {hi}]"]
BATCH_TRIALS = 20
CLI_TRIALS = 13
REPLAY_ROWS = 36_000  # 20 minutes at 30 Hz
REPLAY_RATE_HZ = 30.0
# Share of replay rows outside the ellipse (P > 1), fixed exactly so that
# every seed gives the controller and link the same amount of work.
REPLAY_OUTSIDE_SHARE = 0.20
REPLAY_REVERSION = 0.02  # mean reversion per row: a correlation time of ~1.7 s


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_excursions(p_values) -> int:
    """Maximal runs of P > 1, counting a run still open at the end."""
    runs, outside = 0, False
    for p in p_values:
        if p > 1.0 and not outside:
            runs += 1
        outside = p > 1.0
    return runs


class Result:
    """Outcome of checking one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.counts: dict[str, int] = {}
        self.properties: dict[str, float] = {}

    def operation(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def digest(self) -> str:
        return sha256("".join(f"{k}={v}\n" for k, v in sorted(self.digests.items())).encode())


def _capture(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run ``roitrack.cli.main`` in process: (exit code, stdout, error)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed operation, not a crash
        return None, out.getvalue(), f"{argv[0]} raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), None


def _check_csv_rows(text: str, source: str, problems: list[str]) -> list[float]:
    """Parse telemetry CSV text with the benchmark's own reader; return P."""
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(telemetry.CSV_COLUMNS):
        problems.append(f"{source}: bad header")
        return []
    p_values = []
    for line in lines[1:]:
        try:
            t, x, y, p, sector, yaw, pitch, visible = line.split(",")
            p, yaw, pitch = float(p), float(yaw), float(pitch)
        except ValueError:
            problems.append(f"{source}: malformed row {line!r}")
            continue
        if visible != "true":
            problems.append(f"{source}: invisible sample at t={t}")
        if yaw != 0.0 and pitch != 0.0:
            problems.append(f"{source}: yaw and pitch both active at t={t}")
        if (yaw != 0.0 or pitch != 0.0) != (p > 1.0):
            problems.append(f"{source}: command does not match P={p} at t={t}")
        p_values.append(p)
    return p_values


class ClosedLoopBatch:
    name = "closed_loop_batch"
    arenas = (1, 2)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seeds = list(range(seed, seed + BATCH_TRIALS))
        self.configs = {arena: trials.TrialConfig.baseline(arena) for arena in self.arenas}
        self.samples = sum(
            BATCH_TRIALS * round(cfg.duration / cfg.dt) for cfg in self.configs.values()
        )
        self.sizes = {"trials_per_arena": BATCH_TRIALS, "arenas": len(self.arenas), "steps": self.samples}

    def prepare(self) -> None:
        pass

    def calls(self) -> list:
        return [lambda arena=arena: self._arena(arena) for arena in self.arenas]

    def _arena(self, arena: int):
        try:
            records = trials.run_batch(self.configs[arena], BATCH_TRIALS, self.seeds)
            return records, metrics.summarize(records), None
        except Exception as exc:
            return None, None, f"arena {arena}: {type(exc).__name__}: {exc}"

    def check(self, out: list) -> Result:
        res = Result()
        steps = excursions = active = 0
        outside: list[int] = []
        for arena, (records, report, error) in zip(self.arenas, out):
            if error is not None:
                for _ in self.seeds:
                    res.operation([error])
                continue
            text = telemetry.serialize_report(report)
            res.digests[f"arena{arena}.report"] = sha256(text.encode())
            sample_hash = hashlib.sha256()
            report_problems = []
            if not report.success or report.overlap_s != 0.0:
                report_problems.append(f"arena {arena}: success={report.success} overlap_s={report.overlap_s}")
            for seed, record in zip(self.seeds, records):
                p_values = [s.p for s in record.samples]
                n = count_excursions(p_values)
                problems = report_problems + band_problem(arena, seed, n, outside)
                for s in record.samples:
                    if not s.visible:
                        problems.append(f"arena {arena} seed {seed}: target lost at t={s.t}")
                        break
                    if s.yaw_cmd != 0.0 and s.pitch_cmd != 0.0:
                        problems.append(f"arena {arena} seed {seed}: yaw/pitch overlap at t={s.t}")
                        break
                    sample_hash.update(
                        struct.pack("<6d", s.t, s.x, s.y, s.p, s.yaw_cmd, s.pitch_cmd)
                        + s.sector.value.encode()
                    )
                res.operation(problems)
                steps += len(record.samples)
                excursions += n
                active += sum(1 for p in p_values if p > 1.0)
            res.digests[f"arena{arena}.samples"] = sample_hash.hexdigest()
        res.counts = {"steps": steps, "excursions": excursions, "trials_outside_band": len(outside)}
        res.properties = {"active_share": active / steps if steps else 0.0}
        return res


class CliSimulateReport:
    name = "cli_simulate_report"
    arena = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.out_dir = workdir / "simulate"
        self.argv_simulate = [
            "simulate", "--arena", str(self.arena), "--trials", str(CLI_TRIALS),
            "--seed", str(seed), "--out-dir", str(self.out_dir),
        ]
        self.csvs = [self.out_dir / f"trial_{i:03d}.csv" for i in range(1, CLI_TRIALS + 1)]
        self.trial_seeds = [seed + i for i in range(CLI_TRIALS)]  # as `simulate` assigns them
        self.argv_report = ["report"] + [str(p) for p in self.csvs]
        cfg = trials.TrialConfig.baseline(self.arena)
        self.samples = CLI_TRIALS * round(cfg.duration / cfg.dt)
        self.sizes = {"trials": CLI_TRIALS, "steps": self.samples}

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def calls(self) -> list:
        return [lambda: _capture(self.argv_simulate), lambda: _capture(self.argv_report)]

    def check(self, out: list) -> Result:
        (sim_code, _, sim_error), (rep_code, rep_stdout, rep_error) = out
        res = Result()
        problems = [sim_error] if sim_error else []
        if sim_code != cli.EXIT_OK:
            problems.append(f"simulate exited {sim_code}")
        summary_path = self.out_dir / "summary.txt"
        summary = summary_path.read_text() if summary_path.exists() else ""
        res.digests["summary.txt"] = sha256(summary.encode())
        values = dict(line.split(" = ", 1) for line in summary.splitlines() if " = " in line)
        if values.get("success") != "true" or values.get("overlap_s") != "0":
            problems.append(f"summary.txt: success={values.get('success')} overlap_s={values.get('overlap_s')}")
        steps = excursions = active = 0
        outside: list[int] = []
        for trial_seed, path in zip(self.trial_seeds, self.csvs):
            if not path.exists():
                problems.append(f"{path.name}: missing")
                continue
            data = path.read_bytes()
            res.digests[path.name] = sha256(data)
            p_values = _check_csv_rows(data.decode(), path.name, problems)
            n = count_excursions(p_values)
            problems += band_problem(self.arena, trial_seed, n, outside)
            steps += len(p_values)
            excursions += n
            active += sum(1 for p in p_values if p > 1.0)
        if steps != self.samples:
            problems.append(f"expected {self.samples} telemetry rows, found {steps}")
        res.operation(problems)

        problems = [rep_error] if rep_error else []
        if rep_code != cli.EXIT_OK:
            problems.append(f"report exited {rep_code}")
        if rep_stdout != summary:
            problems.append("report stdout differs from summary.txt")
        res.operation(problems)
        res.counts = {"steps": steps, "excursions": excursions, "summary_n": int(values.get("n", -1)),
                      "trials_outside_band": len(outside)}
        res.properties = {"active_share": active / steps if steps else 0.0}
        return res


def write_replay_log(path: Path, seed: int) -> None:
    """A seeded 30 Hz raw-pixel log: a mean-reverting random walk of the
    target around the frame centre, scaled so that exactly
    ``REPLAY_OUTSIDE_SHARE`` of the rows fall outside the default ROI, and
    clamped to the frame (which keeps outside rows outside)."""
    frame = FrameSpec()
    roi = EllipseRoi.from_fractions(frame)  # the replay command's default ROI
    k = REPLAY_REVERSION
    gain = math.sqrt(2.0 * k - k * k)  # unit stationary spread
    rng = random.Random(seed)
    u, v = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
    walk = []
    for _ in range(REPLAY_ROWS):
        u += -k * u + gain * rng.gauss(0.0, 1.0)
        v += -k * v + gain * rng.gauss(0.0, 1.0)
        walk.append((u, v))
    # P = (u^2 + v^2) / q with q the (1 - share) quantile of u^2 + v^2
    q = sorted(a * a + b * b for a, b in walk)[round((1.0 - REPLAY_OUTSIDE_SHARE) * REPLAY_ROWS)]
    sx, sy = roi.a / math.sqrt(q), roi.b / math.sqrt(q)
    lines = ["t,x,y"]
    for i, (a, b) in enumerate(walk):
        x = min(frame.width, max(0.0, frame.width / 2 + sx * a))
        y = min(frame.height, max(0.0, frame.height / 2 - sy * b))
        lines.append(f"{i / REPLAY_RATE_HZ:.4f},{x:.2f},{y:.2f}")
    path.write_text("\n".join(lines) + "\n")


class Replay30Hz:
    name = "replay_30hz"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.log = workdir / "replay_log.csv"
        write_replay_log(self.log, seed)
        self.out_dir = workdir / "replay"
        self.argv = ["replay", str(self.log), "--out-dir", str(self.out_dir)]
        self.samples = REPLAY_ROWS
        self.log_seconds = (REPLAY_ROWS - 1) / REPLAY_RATE_HZ
        self.sizes = {"rows": REPLAY_ROWS, "rate_hz": REPLAY_RATE_HZ}

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def calls(self) -> list:
        return [lambda: _capture(self.argv)]

    def check(self, out: list) -> Result:
        ((code, _, error),) = out
        res = Result()
        problems = [error] if error else []
        if code != cli.EXIT_OK:
            problems.append(f"replay exited {code}")
        telemetry_path = self.out_dir / "replay_telemetry.csv"
        frames_path = self.out_dir / "replay_frames.csv"
        p_values: list[float] = []
        frames: list[tuple[float, str]] = []
        if telemetry_path.exists() and frames_path.exists():
            data = telemetry_path.read_bytes()
            res.digests["replay_telemetry.csv"] = sha256(data)
            p_values = _check_csv_rows(data.decode(), telemetry_path.name, problems)
            data = frames_path.read_bytes()
            res.digests["replay_frames.csv"] = sha256(data)
            lines = data.decode().splitlines()
            if lines[:1] != ["t,frame"]:
                problems.append("replay_frames.csv: bad header")
            for line in lines[1:]:
                try:
                    t, text = line.split(",")
                    frames.append((float(t), text))
                except ValueError:
                    problems.append(f"replay_frames.csv: malformed row {line!r}")
        else:
            problems.append("replay outputs missing")
        if len(p_values) != REPLAY_ROWS:
            problems.append(f"expected {REPLAY_ROWS} telemetry rows, found {len(p_values)}")
        wire_bytes = sum(len(text) + 1 for _, text in frames)
        for (t0, text), (t1, _) in zip(frames, frames[1:]):
            # each frame must finish on the 9600 bps line before the next starts
            if t1 - t0 < (len(text) + 1) * protocol.BITS_PER_BYTE_ON_WIRE / protocol.LINE_RATE_BPS:
                problems.append(f"frames at t={t0} and t={t1} overlap on the wire")
        res.operation(problems)
        res.counts = {
            "rows": len(p_values),
            "excursions": count_excursions(p_values),
            "frames": len(frames),
            "wire_bytes": wire_bytes,
        }
        res.properties = {
            "active_share": sum(1 for p in p_values if p > 1.0) / len(p_values) if p_values else 0.0,
            "frames_per_send": len(frames) / len(p_values) if p_values else 0.0,
            "link_utilisation": wire_bytes * protocol.BITS_PER_BYTE_ON_WIRE / (self.log_seconds * protocol.LINE_RATE_BPS),
        }
        return res


WORKLOADS = {w.name: w for w in (ClosedLoopBatch, CliSimulateReport, Replay30Hz)}
