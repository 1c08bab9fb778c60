"""Command-line entry point: simulate trial batches, replay coordinate logs,
and report metrics over telemetry CSVs.

Exit codes are scriptable: 0 success, 1 usage or malformed input, 2 ran but
lost tracking, 3 I/O failure.  All artifacts are byte-stable: rerunning the
same command (or a run manifest) reproduces them bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path

from . import __version__
from .arenas import DEFAULT_LOOKAHEAD_M, arena_fixture_bytes, parse_kv_text
from .controller import MAX_RATE_RAD_S, ControllerConfig, decide
from .geometry import DEFAULT_ROI_FRAC, EllipseRoi, FrameSpec, to_centered
from .metrics import summarize
from .protocol import CommandLink, MockTransport, TransportSaturated
from .telemetry import fmt_float, format_kv_text, read_trial_csv, serialize_report, write_trial_csv
from .trials import (
    BASELINE_DURATION_S,
    BASELINE_JITTER_M,
    BASELINE_USV_SPEED_MPS,
    DEFAULT_DT_S,
    DEFAULT_UAV,
    TrialConfig,
    TrialSample,
    run_batch,
)
from .world import CameraModel, UavPose

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRACKING_LOST = 2
EXIT_IO = 3

OUT_DIR_ENV = "ROITRACK_OUT_DIR"

# Every setting, in manifest order: key -> (type, default).  Flags (whose
# dest is the key), --config files and run manifests all go through this
# table.  A None default means the arena's baseline (speed, duration).
SETTINGS = {
    "arena": (int, None),
    "trials": (int, 1),
    "seed": (int, 1),
    "duration_s": (float, None),
    "dt_s": (float, DEFAULT_DT_S),
    "usv_speed_mps": (float, None),
    "jitter_m": (float, BASELINE_JITTER_M),
    "lookahead_m": (float, DEFAULT_LOOKAHEAD_M),
    "roi_frac_x": (float, DEFAULT_ROI_FRAC),
    "roi_frac_y": (float, DEFAULT_ROI_FRAC),
    "rate_rad_s": (float, MAX_RATE_RAD_S),
    "fov_deg": (float, math.degrees(CameraModel.horizontal_fov)),
    "frame_width_px": (int, FrameSpec.width),
    "frame_height_px": (int, FrameSpec.height),
    "uav_x_m": (float, DEFAULT_UAV.x),
    "uav_y_m": (float, DEFAULT_UAV.y),
    "altitude_m": (float, DEFAULT_UAV.altitude),
}
# Manifest bookkeeping keys that a rerun may safely ignore.
_INFO_KEYS = {"tool_version", "seeds", "arena_fixture_sha256"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the exit-code contract
        raise UsageError(message)


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text: {exc}") from None


def _settings(args) -> dict:
    """Resolve every setting: its table default < the --config file < its flag."""
    values = {key: default for key, (_, default) in SETTINGS.items()}
    if args.config:
        try:
            raw = parse_kv_text(_read_text(args.config), source=args.config)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        for key, text in raw.items():
            if key in _INFO_KEYS or key.startswith("artifact_"):
                continue
            if key not in SETTINGS:
                raise UsageError(f"{args.config}: unknown config key {key!r}")
            try:
                values[key] = SETTINGS[key][0](text)
            except ValueError:
                raise UsageError(f"{args.config}: bad value for {key}: {text!r}") from None
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise UsageError(f"{key} must be finite, got {values[key]}")
    return values


def _controller(settings: dict) -> tuple[FrameSpec, ControllerConfig]:
    try:
        frame = FrameSpec(width=settings["frame_width_px"], height=settings["frame_height_px"])
        roi = EllipseRoi.from_fractions(frame, frac_x=settings["roi_frac_x"], frac_y=settings["roi_frac_y"])
        return frame, ControllerConfig(roi=roi, frame=frame, rate_magnitude=settings["rate_rad_s"])
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "runs"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_simulate(args) -> int:
    settings = _settings(args)
    arena, trials, seed = settings["arena"], settings["trials"], settings["seed"]
    if arena is None:
        raise UsageError("an arena id is required (--arena or config)")
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    for key, baseline in (("duration_s", BASELINE_DURATION_S), ("usv_speed_mps", BASELINE_USV_SPEED_MPS)):
        if settings[key] is None:
            settings[key] = baseline.get(arena)
    frame, controller = _controller(settings)
    try:
        cfg = TrialConfig(
            arena_id=arena,
            usv_speed=settings["usv_speed_mps"],
            duration=settings["duration_s"],
            seed=seed,
            jitter_amplitude=settings["jitter_m"],
            controller=controller,
            camera=CameraModel(frame=frame, horizontal_fov=math.radians(settings["fov_deg"])),
            uav=UavPose(x=settings["uav_x_m"], y=settings["uav_y_m"], altitude=settings["altitude_m"]),
            dt=settings["dt_s"],
            lookahead=settings["lookahead_m"],
        )
    except (ValueError, OverflowError) as exc:  # OverflowError: duration / dt overflows
        raise UsageError(str(exc)) from None

    seeds = [seed + i for i in range(trials)]
    records = run_batch(cfg, trials, seeds)

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    for i, record in enumerate(records, start=1):
        path = out / f"trial_{i:03d}.csv"
        write_trial_csv(record.samples, path)
        csv_paths.append(path)

    # The batch summary is computed from the written artifacts so that
    # `report` over the same CSVs reproduces it byte for byte.
    readback = [read_trial_csv(path, dt=cfg.dt) for path in csv_paths]
    report = summarize(readback)
    summary_path = out / "summary.txt"
    summary_path.write_text(serialize_report(report))

    manifest = {"tool_version": __version__}
    for key, value in settings.items():
        manifest[key] = repr(value)
        if key == "seed":
            manifest["seeds"] = " ".join(map(str, seeds))
    manifest["arena_fixture_sha256"] = hashlib.sha256(arena_fixture_bytes(arena)).hexdigest()
    for i, path in enumerate(csv_paths, start=1):
        manifest[f"artifact_{i:03d}"] = path.name
        manifest[f"artifact_{i:03d}_sha256"] = _sha256(path)
    manifest["artifact_summary"] = summary_path.name
    manifest["artifact_summary_sha256"] = _sha256(summary_path)
    (out / "manifest.txt").write_text(format_kv_text(manifest))

    print(f"wrote {len(csv_paths)} trial CSVs, summary, and manifest to {out}")
    mean_text = fmt_float(report.mean_s) if report.mean_s is not None else "absent"
    print(f"n = {report.n}, mean_s = {mean_text}, success = {'true' if report.success else 'false'}")
    return EXIT_OK if report.success else EXIT_TRACKING_LOST


def _read_coordinate_log(path: Path) -> list[tuple[float, float, float]]:
    """Parse a replay log: header 't,x,y', raw top-left pixel coordinates."""
    text = _read_text(path)
    if not text.strip():
        return []
    rows: list[tuple[float, float, float]] = []
    lines = text.splitlines()
    header = [cell.strip() for cell in lines[0].split(",")]
    if header != ["t", "x", "y"]:
        raise UsageError(f"{path}: expected header 't,x,y', got {lines[0]!r}")
    last_t = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise UsageError(f"{path}: line {lineno}: expected 3 columns, got {len(cells)}")
        try:
            t, x, y = (float(cell) for cell in cells)
        except ValueError:
            raise UsageError(f"{path}: line {lineno}: non-numeric value in {line!r}") from None
        if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y)):
            raise UsageError(f"{path}: line {lineno}: non-finite value in {line!r}")
        if last_t is not None and t <= last_t:
            raise UsageError(f"{path}: line {lineno}: non-monotonic time {t} after {last_t}")
        last_t = t
        rows.append((t, x, y))
    return rows


def _replay_samples(rows, frame: FrameSpec, controller: ControllerConfig, link: CommandLink):
    """Decide each logged position, send the command, and yield its sample."""
    for t, raw_x, raw_y in rows:
        img = to_centered(row=raw_y, col=raw_x, frame=frame)
        p, sector, cmd = decide(img, controller)
        link.send(cmd, now=t)
        yield TrialSample(
            t=t,
            x=img.x,
            y=img.y,
            p=p,
            sector=sector,
            yaw_cmd=cmd.yaw_rate,
            pitch_cmd=cmd.pitch_rate,
            visible=True,
        )


def cmd_replay(args) -> int:
    frame, controller = _controller(_settings(args))
    rows = _read_coordinate_log(Path(args.log))

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    transport = MockTransport()
    link = CommandLink(transport=transport)
    telemetry_path = out / "replay_telemetry.csv"
    try:
        write_trial_csv(_replay_samples(rows, frame, controller, link), telemetry_path)
    except TransportSaturated as exc:
        telemetry_path.unlink()
        raise UsageError(f"{args.log}: rows too dense for the serial link: {exc}") from None
    frames_path = out / "replay_frames.csv"
    frame_lines = ["t,frame"] + [f"{fmt_float(t)},{text}" for t, text in transport.log]
    frames_path.write_text("\n".join(frame_lines) + "\n")
    print(f"replayed {len(rows)} rows: {len(transport.log)} frames -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    records = []
    for name in args.csvs:
        path = Path(name)
        try:
            records.append(read_trial_csv(path, dt=args.dt_s))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    try:
        report = summarize(records)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    print(serialize_report(report), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="roitrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setting(p, key, **kwargs):
        p.add_argument("--" + key.replace("_", "-"), type=SETTINGS[key][0], **kwargs)

    def add_common(p):
        add_setting(p, "roi_frac_x", help="ROI horizontal semi-axis as a frame-width fraction")
        add_setting(p, "roi_frac_y", help="ROI vertical semi-axis as a frame-height fraction")
        add_setting(p, "rate_rad_s", help=f"command magnitude in rad/s (max {MAX_RATE_RAD_S})")
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
        p.add_argument("--config", default=None, help="key-value config file; flags override it")

    sim = sub.add_parser("simulate", help="run a batch of simulated trials")
    add_setting(sim, "arena", choices=(1, 2))
    for key in ("trials", "seed", "duration_s", "dt_s"):
        add_setting(sim, key)
    add_setting(sim, "fov_deg", help="horizontal field of view in degrees")
    add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    rep = sub.add_parser("replay", help="run a recorded coordinate log through the controller")
    rep.add_argument("log", help="CSV with header t,x,y in raw top-left pixel coordinates")
    add_common(rep)
    rep.set_defaults(func=cmd_replay)

    rpt = sub.add_parser("report", help="summarize telemetry CSVs")
    rpt.add_argument("csvs", nargs="+", help="telemetry CSV files")
    rpt.add_argument("--dt-s", type=float, default=DEFAULT_DT_S, help="loop period the CSVs were recorded at")
    rpt.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
