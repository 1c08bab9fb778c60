"""Command-line entry point: simulate trial batches, replay coordinate logs,
and report metrics over telemetry CSVs; ``simulate`` tallies each CSV it has
written with ``report``'s own ``telemetry.tally_csv``.  All three spread
their work through ``trials._fan_out``, the helper that ``trials.run_batch``
runs on, with the same result: ``simulate`` its trials, ``report`` its CSVs
and ``replay`` the ranges of its log's blocks.  ``trials._split`` alone
decides how many processes each gets and where its work splits.  Each
setting of ``trials.SETTINGS`` is resolved here, from its default, a --config
file and its flag; ``simulate`` builds its run with
``TrialConfig.from_settings``.  A --config is read, and a manifest written, by
``trials``' manifest codec.  A config whose ``tool_version`` is not this one's
gets a one-line notice on stderr, and runs as it would otherwise.

Exit codes are scriptable: 0 success, 1 usage or malformed input, 2 ran but
lost tracking, 3 I/O failure.  A refused input is a ``ValueError`` carrying its
own message, raised here or in the library, and ``main`` alone turns it into
one ``error:`` line and exit 1.  Both ``simulate`` and ``replay`` write their
files under hidden temporary names and put them in place through ``_staged``
only once all are written, so a failed run leaves its output directory as it
was; a directory that ``_out_dir`` made for the run is removed again.
``replay``'s engine is ``roitrack.replay``.  A file is named in a message as
it was given.  All artifacts are byte-stable: rerunning the same command (or a
run manifest) reproduces them bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import itertools
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .arenas import ARENA_FILES, arena_fixture_bytes
from .controller import MAX_RATE_RAD_S, GimbalCommand
from .protocol import FrameError, TransportSaturated, encode
from .metrics import summarize_tallies
from .replay import replay_log
from .telemetry import row_lines, serialize_report, tally_csv, write_trial_csv
from .text import fmt_bool, fmt_float, parse_number, read_text
from .trials import (DEFAULT_DT_S, MANIFEST_NAME, MAX_TRIALS_PER_BATCH, SETTINGS, TrialConfig, _fan_out,
                     _note_as_imported, _sha256, format_manifest, iter_trial, parse_manifest, settings_controller)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TRACKING_LOST = 2
EXIT_IO = 3

OUT_DIR_ENV = "ROITRACK_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep the exit-code contract
        raise ValueError(message)


def _settings(args) -> dict:
    """Resolve every setting: its table default < the --config file < its flag."""
    values = {key: default for key, (_, default) in SETTINGS.items()}
    if args.config:
        settings, info, _ = parse_manifest(read_text(args.config), source=args.config)
        version = info.get("tool_version", __version__)
        if version != __version__:  # a notice: the rerun goes ahead
            print(f"note: {args.config}: tool_version = {version}, but this is roitrack {__version__}", file=sys.stderr)
        values.update(settings)
        recorded, arena = info.get("arena_fixture_sha256"), values["arena"]  # the config's arena, not the flag's
        if recorded is not None and arena in ARENA_FILES and recorded != (current := _fixture_sha256(arena)):
            raise ValueError(f"{args.config}: arena_fixture_sha256 = {recorded}, but arena {arena}'s fixture"
                             f" hashes to {current}")
        recorded, seed, trials = info.get("seeds"), values["seed"], values["trials"]  # the config's, as above
        if recorded is not None and (len(words := recorded.split()) != trials  # counted before a list is built
                                     or words != [str(seed + i) for i in range(trials)]):
            raise ValueError(f"{args.config}: seeds = {recorded}, but seed = {seed} and trials = {trials}"
                             f" run seeds {seed} to {seed + trials - 1}")
    for key in SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
        if isinstance(values[key], float) and not math.isfinite(values[key]):
            raise ValueError(f"{key} must be finite, got {values[key]}")
    return values


@contextlib.contextmanager
def _out_dir(args):
    """Create the output directory, only once every check has passed, and
    yield it.  If the block raises, each directory made here is removed again,
    deepest first, while it is empty; one that was there before is never
    removed."""
    out = Path(args.out_dir if args.out_dir is not None else os.environ.get(OUT_DIR_ENV, "runs"))
    missing = list(itertools.takewhile(lambda path: not path.exists(), (out, *out.parents)))
    try:
        out.mkdir(parents=True, exist_ok=True)
        yield out
    except BaseException:
        for path in missing:  # one not made, or not empty, stays
            with contextlib.suppress(OSError):
                path.rmdir()
        raise


@contextlib.contextmanager
def _staged(paths):
    """Yield each output path's temporary, a hidden ``.<name>.tmp`` beside it
    that no ``trial_*.csv`` glob matches, for the block to write.  Once the
    block has written them all, the files are put in place in the order given,
    after a directory where one goes is refused, since a rename onto it fails.
    Every temporary is removed on any exception, so a failed run leaves the
    directory as it was."""
    staged = {path: path.with_name(f".{path.name}.tmp") for path in paths}
    try:
        yield staged
        for path in staged:
            if path.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for path, temporary in staged.items():
            os.replace(temporary, path)
    finally:  # on success every temporary has been renamed; after a failure none is left
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)


def _fixture_sha256(arena: int) -> str:
    return hashlib.sha256(arena_fixture_bytes(arena)).hexdigest()


def cmd_simulate(args) -> int:
    settings = _settings(args)
    arena, trials, seed = settings["arena"], settings["trials"], settings["seed"]
    if arena is None:
        raise ValueError("an arena id is required (--arena or config)")
    if not 1 <= trials <= MAX_TRIALS_PER_BATCH:
        raise ValueError(f"--trials must be in [1, {MAX_TRIALS_PER_BATCH}], got {trials}")
    cfg = TrialConfig.from_settings(settings)

    seeds = [seed + i for i in range(trials)]
    with _out_dir(args) as out:
        csv_paths = [out / f"trial_{i:03d}.csv" for i in range(1, trials + 1)]
        summary_path, manifest_path = out / "summary.txt", out / MANIFEST_NAME
        # The manifest is put in place last, so a directory with a manifest holds
        # the run it describes.
        with _staged((*csv_paths, summary_path, manifest_path)) as staged:
            def write_and_tally(i):
                write_trial_csv(row_lines(iter_trial(replace(cfg, seed=seeds[i]))), staged[csv_paths[i]])
                return tally_csv(staged[csv_paths[i]], cfg.dt)

            report = summarize_tallies(_fan_out(write_and_tally, range(trials)))
            staged[summary_path].write_text(serialize_report(report), encoding="utf-8")

            artifacts = {path.name: _sha256(staged[path]) for path in (*csv_paths, summary_path)}
            manifest = format_manifest(settings, seeds, _fixture_sha256(arena), artifacts)
            staged[manifest_path].write_text(manifest, encoding="utf-8")

            # an earlier run's, which a failed rename would leave beside other trials
            for path in (manifest_path, summary_path):
                path.unlink(missing_ok=True)
    for stale in out.glob("trial_*.csv"):  # an earlier, larger batch's; any other name or a directory is the user's
        digits = stale.name[len("trial_"):-len(".csv")]
        i = int(digits) if digits.isdecimal() else 0
        if trials < i <= MAX_TRIALS_PER_BATCH and stale.name == f"trial_{i:03d}.csv" and stale.is_file():
            stale.unlink()

    print(f"wrote {len(csv_paths)} trial CSVs, summary, and manifest to {out}")
    mean_text = fmt_float(report.mean_s) if report.mean_s is not None else "absent"
    print(f"n = {report.n}, mean_s = {mean_text}, success = {fmt_bool(report.success)}")
    return EXIT_OK if report.success else EXIT_TRACKING_LOST


def cmd_replay(args) -> int:
    controller = settings_controller(_settings(args))
    rate = controller.rate_magnitude
    try:  # the gimbal acts on the frame's rate, so the frame must carry this one
        encode(GimbalCommand(yaw_rate=rate))
    except FrameError as exc:
        raise ValueError(f"rate_rad_s = {rate!r} cannot go on the serial link: {exc}") from None
    with _out_dir(args) as out:
        telemetry_path, frames_path = out / "replay_telemetry.csv", out / "replay_frames.csv"
        with _staged((telemetry_path, frames_path)) as staged:
            try:  # the two temporaries, in order; replay splits the log as ``trials._split`` says
                count, frames = replay_log(args.log, controller, *staged.values())
            except TransportSaturated as exc:
                raise ValueError(f"{args.log}: rows too dense for the serial link: {exc}") from None
    print(f"replayed {count} rows: {frames} frames -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    dt = args.dt_s
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"--dt-s must be finite and positive, got {dt}")
    report = summarize_tallies(_fan_out(lambda path: tally_csv(path, dt), args.csvs))
    print(serialize_report(report), end="")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="roitrack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_setting(p, key, **kwargs):
        def convert(text, kind=SETTINGS[key][0]):
            return parse_number(kind, text)
        convert.__name__ = SETTINGS[key][0].__name__  # argparse names it: "invalid int value: 'abc'"
        p.add_argument("--" + key.replace("_", "-"), type=convert, **kwargs)

    def add_common(p):
        add_setting(p, "roi_frac_x", help="ROI horizontal semi-axis as a frame-width fraction")
        add_setting(p, "roi_frac_y", help="ROI vertical semi-axis as a frame-height fraction")
        add_setting(p, "rate_rad_s", help=f"command magnitude in rad/s (max {MAX_RATE_RAD_S})")
        p.add_argument("--out-dir", default=None, help=f"output directory (default ${OUT_DIR_ENV} or ./runs)")
        p.add_argument("--config", default=None, help="key-value config file; flags override it")

    sim = sub.add_parser("simulate", help="run a batch of simulated trials")
    add_setting(sim, "arena", choices=ARENA_FILES)
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
    add_setting(rpt, "dt_s", default=DEFAULT_DT_S, help="loop period the CSVs were recorded at")
    rpt.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # every refused input, from cli's own checks or the library's
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


# The package modules loaded since ``trials`` (this one among them) join its
# record of the functions as imported: ``_split`` gives more than one process
# only while each is still bound.
_note_as_imported()


if __name__ == "__main__":
    sys.exit(main())
