"""Command-line entry point: simulate trial batches, replay coordinate logs,
and report metrics over telemetry CSVs; ``simulate`` tallies each CSV it has
written with ``report``'s own ``telemetry.tally_csv``.  Both spread their
trials or CSVs over the usable CPUs through ``trials._fan_out``, the helper
that ``trials.run_batch`` runs on, with the same result.  Each setting of
``trials.SETTINGS`` is resolved here, from its default, a --config file and
its flag; ``simulate`` builds its run with ``TrialConfig.from_settings``.  A
--config is read, and a manifest written, by ``trials``' manifest codec.  A
config whose ``tool_version`` is not this one's gets a one-line notice on
stderr, and runs as it would otherwise.

Exit codes are scriptable: 0 success, 1 usage or malformed input, 2 ran but
lost tracking, 3 I/O failure.  A refused input is a ``ValueError`` carrying its
own message, raised here or in the library, and ``main`` alone turns it into
one ``error:`` line and exit 1.  Both ``simulate`` and ``replay`` write their
files under hidden temporary names and put them in place through ``_staged``
only once all are written, so a failed run leaves its output directory as it
was; a directory that ``_out_dir`` made for the run is removed again.
``replay`` reads its log as it replays it, a block at a time, so its memory
does not grow with the log: the header and the first row are checked before
any output is made, and a row refused later fails the run like any other
failure, leaving no output.  All artifacts are byte-stable: rerunning the
same command (or a run manifest) reproduces them bit for bit.
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
from typing import Iterator

from . import __version__
from .arenas import ARENA_FILES, arena_fixture_bytes
from .controller import _IDLE, MAX_RATE_RAD_S, ControllerConfig, GimbalCommand, decide
from .geometry import FrameSpec
from .protocol import CommandLink, FrameError, MockTransport, TransportSaturated, encode
from .metrics import summarize_tallies
from .telemetry import row_lines, serialize_report, tally_csv, write_trial_csv
from .text import fmt_bool, fmt_float, is_plain, open_text, parse_number, read_text
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


# Characters read from a replay log at a time: its lines are split, and
# checked as ASCII without "_", a block at a time.
_LOG_BLOCK_CHARS = 1 << 16
_NOT_PLAIN = "{}: line {}: non-ASCII character or '_' in {!r}"


def _log_lines(fh) -> Iterator[tuple[list[str], bool]]:
    """The lines of an open log, without their ``"\\n"``, exactly as
    ``text.split("\\n")`` would give them, read ``_LOG_BLOCK_CHARS``
    characters at a time: for each block that ends a line, a list of the lines
    it ends, with a flag that is True only if all of them are ``is_plain``;
    then the last line, maybe empty, in a list of its own, flagged alike.  A
    line split across blocks is kept in pieces and joined once, in the list of
    the block that ends it."""
    pieces: list[str] = []  # the line that no "\n" has ended yet
    while block := fh.read(_LOG_BLOCK_CHARS):
        lines = block.split("\n")
        pieces.append(lines[0])
        if len(lines) > 1:
            lines[0] = "".join(pieces)
            pieces = [lines.pop()]
            yield lines, is_plain(block) and is_plain(lines[0])
    last = "".join(pieces)
    yield [last], is_plain(last)


def _read_coordinate_log(path: Path, frame: FrameSpec) -> Iterator[tuple[float, float, float]]:
    """Parse a replay log as it is read, yielding each row's ``(t, x, y)``:
    header 't,x,y', then at least one row of raw top-left pixel coordinates,
    each inside ``frame``, edges included (``simulate`` calls a target outside
    it lost), and increasing times whose 9-digit telemetry texts differ.
    Numbers are ASCII, with no ``_``: each block of ``_log_lines`` is checked
    whole, and its lines one by one only when it fails.  The first line, in
    file order, that breaks a rule is named, once the reading reaches it, so a
    caller that must refuse a bad header or first row before it writes
    anything takes the first row before it does.  A log with no row has no
    telemetry that ``report`` could read, so it is refused like any other
    malformed log.  No more than one block and one line is held at a time."""
    with open_text(path) as fh:
        blocks = _log_lines(fh)
        lines, plain = next(blocks)
        header = lines[0]
        if [cell.strip() for cell in header.split(",")] != ["t", "x", "y"]:
            if not any(line.strip() for more, _ in itertools.chain([(lines, plain)], blocks) for line in more):
                raise ValueError(f"{path}: empty log, expected header 't,x,y' and at least one row")
            raise ValueError(f"{path}: expected header 't,x,y', got {header!r}")
        if not plain and not is_plain(header):  # float() takes any script's digits and "_" groups
            raise ValueError(_NOT_PLAIN.format(path, 1, header))
        del lines[0]
        last_t, rows, lineno = -math.inf, 0, 1
        to_float, isfinite, width, height = float, math.isfinite, float(frame.width), float(frame.height)
        for lines, plain in itertools.chain([(lines, plain)], blocks):
            for lineno, line in enumerate(lines, start=lineno + 1):
                if not plain and not is_plain(line):
                    raise ValueError(_NOT_PLAIN.format(path, lineno, line))
                try:
                    t_text, x_text, y_text = line.split(",")
                    t, x, y = to_float(t_text), to_float(x_text), to_float(y_text)
                except ValueError:  # split again only to name what is wrong
                    columns = len(line.split(","))
                    if columns != 3:
                        if not line.strip():  # a blank line has no comma, so it lands here
                            continue
                        raise ValueError(f"{path}: line {lineno}: expected 3 columns, got {columns}") from None
                    raise ValueError(f"{path}: line {lineno}: non-numeric value in {line!r}") from None
                if not (isfinite(t) and 0.0 <= x <= width and 0.0 <= y <= height):  # a NaN fails every comparison
                    raise ValueError(f"{path}: line {lineno}: non-finite time or position outside the frame"
                                     f" in {line!r}")
                # Over 1e-8 of the larger |time| apart (t or -last_t, for t > last_t), two
                # times print as different 9-digit texts; closer, their texts are compared.
                # The first row has no last time.
                if t - last_t <= 1e-8 * (t if t > -last_t else -last_t) and rows:
                    if t <= last_t:
                        raise ValueError(f"{path}: line {lineno}: non-monotonic time {t} after {last_t}")
                    if fmt_float(t) == fmt_float(last_t):
                        raise ValueError(f"{path}: line {lineno}: time {t} is too close to {last_t}"
                                         " to print apart from it")
                last_t = t
                rows += 1
                yield t, x, y
        if not rows:
            raise ValueError(f"{path}: no rows after the header 't,x,y'")


def _replay_samples(rows, controller: ControllerConfig, link: CommandLink):
    """Decide each logged position, send the command, and yield its row.

    A row is a plain tuple in ``TrialSample``'s field order, which
    ``row_lines``, its only reader, reads by position.  Steps on plain floats:
    the centring is ``to_centered``'s arithmetic, and ``decide``'s command,
    one of the controller's five, goes to the link as it is: only when the
    command changes to or from idle or stays non-idle.  A repeated idle send
    does nothing (an idle one only forgets the last frame sent), so the frames
    and their times are unchanged."""
    half_w, half_h = controller.frame.width / 2, controller.frame.height / 2
    send, idle, last = link.send, _IDLE, None  # None: the first row always goes to the link
    for t, raw_x, raw_y in rows:
        x = raw_x - half_w
        y = half_h - raw_y
        p, sector, cmd = decide(x, y, controller)
        if cmd is not idle or last is not idle:
            send(cmd, t)
            last = cmd
        yield t, x, y, p, sector, cmd.yaw_rate, cmd.pitch_rate, True


def cmd_replay(args) -> int:
    controller = settings_controller(_settings(args))
    rate = controller.rate_magnitude
    try:  # the gimbal acts on the frame's rate, so the frame must carry this one
        encode(GimbalCommand(yaw_rate=rate))
    except FrameError as exc:
        raise ValueError(f"rate_rad_s = {rate!r} cannot go on the serial link: {exc}") from None
    transport = MockTransport()
    link = CommandLink(transport=transport)
    with contextlib.closing(_read_coordinate_log(Path(args.log), controller.frame)) as log:
        rows = itertools.chain([next(log)], log)  # a bad header or first row makes no output directory
        with _out_dir(args) as out:
            telemetry_path, frames_path = out / "replay_telemetry.csv", out / "replay_frames.csv"
            with _staged((telemetry_path, frames_path)) as staged:
                try:
                    count = write_trial_csv(row_lines(_replay_samples(rows, controller, link)),
                                            staged[telemetry_path])
                except TransportSaturated as exc:
                    raise ValueError(f"{args.log}: rows too dense for the serial link: {exc}") from None
                frame_lines = ["t,frame"] + [f"{fmt_float(t)},{text}" for t, text in transport.log]
                staged[frames_path].write_text("\n".join(frame_lines) + "\n", encoding="utf-8")
    print(f"replayed {count} rows: {len(transport.log)} frames -> {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    dt = args.dt_s
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"--dt-s must be finite and positive, got {dt}")
    report = summarize_tallies(_fan_out(lambda path: tally_csv(Path(path), dt), args.csvs))
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
# record of the functions as imported: ``_fan_out`` forks only while each is still bound.
_note_as_imported()


if __name__ == "__main__":
    sys.exit(main())
