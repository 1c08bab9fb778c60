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
from .arenas import arena_fixture_bytes, parse_kv_text
from .controller import ControllerConfig, decide
from .geometry import EllipseRoi, FrameSpec, to_centered
from .metrics import summarize
from .protocol import CommandLink, MockTransport
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

# Keys accepted in --config files (also written to run manifests).
CONFIG_KEYS = {
    "arena": int,
    "trials": int,
    "seed": int,
    "duration_s": float,
    "dt_s": float,
    "usv_speed_mps": float,
    "jitter_m": float,
    "lookahead_m": float,
    "roi_frac_x": float,
    "roi_frac_y": float,
    "rate_rad_s": float,
    "fov_deg": float,
    "frame_width_px": int,
    "frame_height_px": int,
    "uav_x_m": float,
    "uav_y_m": float,
    "altitude_m": float,
}
# Manifest bookkeeping keys that a rerun may safely ignore.
_INFO_KEYS = {"tool_version", "seeds", "arena_fixture_sha256"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the exit-code contract
        raise UsageError(message)


def _load_config_file(path: str) -> dict:
    text = Path(path).read_text()
    try:
        raw = parse_kv_text(text, source=path)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    values = {}
    for key, value in raw.items():
        if key in _INFO_KEYS or key.startswith("artifact_"):
            continue
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](value)
        except ValueError:
            raise UsageError(f"{path}: bad value for {key}: {value!r}") from None
    return values


def _resolve(flag_value, config: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _controller_settings(args, config: dict) -> tuple[FrameSpec, ControllerConfig, CameraModel]:
    try:
        frame = FrameSpec(
            width=_resolve(None, config, "frame_width_px", 1920),
            height=_resolve(None, config, "frame_height_px", 720),
        )
        roi = EllipseRoi.from_fractions(
            frame,
            frac_x=_resolve(args.roi_frac_x, config, "roi_frac_x", 0.30),
            frac_y=_resolve(args.roi_frac_y, config, "roi_frac_y", 0.30),
        )
        controller = ControllerConfig(
            roi=roi, frame=frame, rate_magnitude=_resolve(args.rate_rad_s, config, "rate_rad_s", 0.3)
        )
        fov_deg = _resolve(args.fov_deg, config, "fov_deg", 90.0)
        camera = CameraModel(frame=frame, horizontal_fov=math.radians(fov_deg))
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return frame, controller, camera


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        return Path(args.out_dir)
    return Path(os.environ.get(OUT_DIR_ENV, "runs"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cmd_simulate(args) -> int:
    config = _load_config_file(args.config) if args.config else {}
    arena = _resolve(args.arena, config, "arena", None)
    if arena is None:
        raise UsageError("an arena id is required (--arena or config)")
    trials = _resolve(args.trials, config, "trials", 1)
    seed = _resolve(args.seed, config, "seed", 1)
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    frame, controller, camera = _controller_settings(args, config)
    try:
        cfg = TrialConfig(
            arena_id=arena,
            usv_speed=_resolve(None, config, "usv_speed_mps", BASELINE_USV_SPEED_MPS.get(arena)),
            duration=_resolve(args.duration_s, config, "duration_s", BASELINE_DURATION_S.get(arena)),
            seed=seed,
            jitter_amplitude=_resolve(None, config, "jitter_m", BASELINE_JITTER_M),
            controller=controller,
            camera=camera,
            uav=UavPose(
                x=_resolve(None, config, "uav_x_m", DEFAULT_UAV.x),
                y=_resolve(None, config, "uav_y_m", DEFAULT_UAV.y),
                altitude=_resolve(None, config, "altitude_m", DEFAULT_UAV.altitude),
            ),
            dt=_resolve(args.dt_s, config, "dt_s", DEFAULT_DT_S),
            lookahead=_resolve(None, config, "lookahead_m", 0.5),
        )
    except (ValueError, TypeError) as exc:
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

    manifest = {
        "tool_version": __version__,
        "arena": str(arena),
        "trials": str(trials),
        "seed": str(seed),
        "seeds": " ".join(str(s) for s in seeds),
        "duration_s": repr(cfg.duration),
        "dt_s": repr(cfg.dt),
        "usv_speed_mps": repr(cfg.usv_speed),
        "jitter_m": repr(cfg.jitter_amplitude),
        "lookahead_m": repr(cfg.lookahead),
        "roi_frac_x": repr(controller.roi.a / frame.width),
        "roi_frac_y": repr(controller.roi.b / frame.height),
        "rate_rad_s": repr(controller.rate_magnitude),
        "fov_deg": repr(math.degrees(camera.horizontal_fov)),
        "frame_width_px": str(frame.width),
        "frame_height_px": str(frame.height),
        "uav_x_m": repr(cfg.uav.x),
        "uav_y_m": repr(cfg.uav.y),
        "altitude_m": repr(cfg.uav.altitude),
        "arena_fixture_sha256": hashlib.sha256(arena_fixture_bytes(arena)).hexdigest(),
    }
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
    text = path.read_text()
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
    config = _load_config_file(args.config) if args.config else {}
    frame, controller, _ = _controller_settings(args, config)
    rows = _read_coordinate_log(Path(args.log))

    out = _out_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    transport = MockTransport()
    link = CommandLink(transport=transport)
    write_trial_csv(_replay_samples(rows, frame, controller, link), out / "replay_telemetry.csv")
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

    def add_common(p):
        p.add_argument("--roi-frac-x", type=float, default=None, help="ROI horizontal semi-axis as a frame-width fraction")
        p.add_argument("--roi-frac-y", type=float, default=None, help="ROI vertical semi-axis as a frame-height fraction")
        p.add_argument("--rate-rad-s", type=float, default=None, help="command magnitude in rad/s (max 0.3)")
        p.add_argument("--fov-deg", type=float, default=None, help="horizontal field of view in degrees")
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
        p.add_argument("--config", default=None, help="key-value config file; flags override it")

    sim = sub.add_parser("simulate", help="run a batch of simulated trials")
    sim.add_argument("--arena", type=int, default=None, choices=(1, 2))
    sim.add_argument("--trials", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--duration-s", type=float, default=None)
    sim.add_argument("--dt-s", type=float, default=None)
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
