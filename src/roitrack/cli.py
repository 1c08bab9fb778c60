"""Command-line entry point: simulate trial batches, replay coordinate logs,
and report metrics over telemetry CSVs; ``simulate`` tallies each CSV it has
written with ``report``'s own ``telemetry.tally_csv``.  All three spread
their work over the usable CPUs through ``trials._fan_out``, the helper that
``trials.run_batch`` runs on, with the same result: ``simulate`` its trials,
``report`` its CSVs and ``replay`` the ranges of its log's blocks.  Each
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
``replay`` splits the blocks of its log into one range per usable CPU.  Each
range reads the log from its start, counting the lines before its own blocks,
and replays the lines that its blocks end as they are read, into its part of
the telemetry and a record of its sends; then the one serial link sends the
records in file order and writes each frame as it goes out.  So replay's
memory grows neither with the log nor with its frames, and its bytes are the
same on any number of CPUs.  The header and the first row are checked before
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
import shutil
import stat
import struct
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterator

from . import __version__
from . import trials as _trials
from .arenas import ARENA_FILES, arena_fixture_bytes
from .controller import _IDLE, MAX_RATE_RAD_S, ControllerConfig, GimbalCommand, decide
from .geometry import FrameSpec
from .protocol import CommandLink, FrameError, MockTransport, TransportSaturated, encode
from .metrics import summarize_tallies
from .telemetry import row_lines, serialize_report, tally_csv, write_trial_csv
from .text import decode_blocks, fmt_bool, fmt_float, is_plain, parse_number, read_text, split_lines
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


# Bytes read from a replay log at a time.  A range of the log is a run of
# these blocks, and every range reads the log from its start: a block's lines
# are split, and checked as ASCII without "_", together.
_LOG_BLOCK_BYTES = 1 << 14
# A send that a range records for the link: the row's time and its command's number.
_SEND = struct.Struct("<dB")
_NOT_PLAIN = "{}: line {}: non-ASCII character or '_' in {!r}"


def _log_text(path: Path) -> Iterator[str]:
    """The text of the log, ``text.decode_blocks``' blocks of
    ``_LOG_BLOCK_BYTES``.  The log must be a regular file, since it is read
    more than once: a pipe would give its bytes only once."""
    with open(path, "rb") as fh:
        if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            raise ValueError(f"{path}: not a regular file")
        yield from decode_blocks(fh, path, _LOG_BLOCK_BYTES)


def _log_rows(path: Path, blocks, frame: FrameSpec, lineno: int, last_t: float) -> Iterator[tuple[float, float, float]]:
    """Each row's ``(t, x, y)``, read from ``split_lines``' ``blocks``, whose
    first line is line ``lineno + 1`` of the log at ``path``, after a row at time
    ``last_t`` (``-math.inf``: no row).  A row is raw top-left pixel
    coordinates, each inside ``frame``, edges included (``simulate`` calls a
    target outside it lost), at a time after the last whose 9-digit telemetry
    text differs; its numbers are ASCII, with no ``_``.  A blank line is
    skipped.  The first line that breaks a rule is named, once the reading
    reaches it."""
    to_float, isfinite, width, height = float, math.isfinite, float(frame.width), float(frame.height)
    for lines, plain in blocks:
        for lineno, line in enumerate(lines, start=lineno + 1):
            if not plain and not is_plain(line):  # float() takes any script's digits and "_" groups
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
            if t - last_t <= 1e-8 * (t if t > -last_t else -last_t) and isfinite(last_t):
                if t <= last_t:
                    raise ValueError(f"{path}: line {lineno}: non-monotonic time {t} after {last_t}")
                if fmt_float(t) == fmt_float(last_t):
                    raise ValueError(f"{path}: line {lineno}: time {t} is too close to {last_t}"
                                     " to print apart from it")
            last_t = t
            yield t, x, y


def _after_header(path: Path, blocks) -> Iterator[tuple[list[str], bool]]:
    """``split_lines``' ``blocks`` of the log, once its first line is checked
    as the header 't,x,y' and taken out of the list of the block that ends it."""
    for first, plain in blocks:
        if first:
            break
        yield first, plain
    header = first[0] if first else ""  # an empty log has no line at all
    if [cell.strip() for cell in header.split(",")] != ["t", "x", "y"]:
        if not any(line.strip() for more, _ in itertools.chain([(first, plain)], blocks) for line in more):
            raise ValueError(f"{path}: empty log, expected header 't,x,y' and at least one row")
        raise ValueError(f"{path}: expected header 't,x,y', got {header!r}")
    if not plain and not is_plain(header):
        raise ValueError(_NOT_PLAIN.format(path, 1, header))
    del first[0]
    yield first, plain
    yield from blocks


def _read_coordinate_log(path: Path, frame: FrameSpec, first: int = 0,
                         end: int | None = None) -> Iterator[tuple[float, float, float]]:
    """Each row's ``(t, x, y)`` of the lines that end in blocks ``first`` to
    ``end`` (None: to the end) of a replay log, parsed as they are read
    (``_log_rows``); the first line of the log is the header 't,x,y'.  The log
    is read from its start: the lines of the blocks before ``first`` are only
    counted, so that every line is named by its number in the file, and the
    last of them that is not blank, if it is a row, is the row before the first
    one here.  If it is not, the range that holds it refuses it.  The first
    line, in file order, that breaks a rule is named, once the reading reaches
    it, so a caller that must refuse a bad header or first row before it writes
    anything takes the first row before it does.  No more than one block of
    ``_LOG_BLOCK_BYTES`` and one line is held at a time."""
    blocks = _after_header(path, split_lines(_log_text(path)))
    lineno, before, last_t = 1, None, -math.inf  # the header is line 1
    for lines, _ in itertools.islice(blocks, first):
        lineno += len(lines)
        before = next((line for line in reversed(lines) if line.strip()), before)
    if before is not None:
        with contextlib.suppress(ValueError):
            ((last_t, _, _),) = _log_rows(path, [([before], False)], frame, 0, -math.inf)
    return _log_rows(path, itertools.islice(blocks, None if end is None else end - first), frame, lineno, last_t)


def _log_ranges(path: Path, count: int) -> list[tuple[int, int | None]]:
    """Up to ``count`` runs of the ``_LOG_BLOCK_BYTES`` blocks of the log at
    ``path``, in file order, each ``(first, end)`` for
    ``_read_coordinate_log``, the last to the end (None); their lengths differ
    by at most one block."""
    blocks = -(-os.stat(path).st_size // _LOG_BLOCK_BYTES)
    count = max(1, min(count, blocks))
    edges = [blocks * k // count for k in range(count)]
    return list(zip(edges, [*edges[1:], None]))


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


class _SendRecord:
    """The link of a range of the log: it writes each send to ``fh`` as a
    ``_SEND`` record of its time and its command's number in ``commands``, for
    the one link to send in file order."""

    def __init__(self, fh, commands: tuple[GimbalCommand, ...]):
        # by identity, as decide gives the controller's own objects: a GimbalCommand hashes in Python
        self.write, self.numbers = fh.write, {id(cmd): number for number, cmd in enumerate(commands)}

    def send(self, cmd: GimbalCommand, now: float) -> None:
        self.write(_SEND.pack(now, self.numbers[id(cmd)]))


def _recorded_sends(path: Path) -> Iterator[Iterator[tuple[float, int]]]:
    """The ``(time, number)`` of each whole ``_SEND`` record of the file, a block at a time."""
    with open(path, "rb") as fh:
        while data := fh.read(_SEND.size << 12):
            yield _SEND.iter_unpack(data[:len(data) - len(data) % _SEND.size])


class _FrameFile(MockTransport):
    """``MockTransport``'s 9600 bps line, which writes each frame's line of
    ``replay_frames.csv`` to ``fh`` as it goes out, and counts it, keeping none."""

    def __init__(self, fh):
        super().__init__()
        self.write, self.frames = fh.write, 0

    def _keep(self, now: float, text: str) -> None:
        self.write(f"{fmt_float(now)},{text}\n")
        self.frames += 1


def _replay_ranges(log: Path, ranges: list, controller: ControllerConfig, telemetry: Path,
                   frames: Path) -> tuple[int, int]:
    """Replay the ``ranges`` of ``log`` (``_log_ranges``) into the files
    ``telemetry`` and ``frames``, in up to one process per usable CPU
    (``_fan_out``): the numbers of rows and of frames written.

    Each range writes its telemetry rows to a part, the first range to
    ``telemetry`` itself, and records its sends (``_SendRecord``).  Then, in
    file order, each range's sends go through the one link, each frame written
    as it goes out, and its part is appended to ``telemetry``.  A range that
    ended in a refusal or an I/O error raises it once its sends have gone, so
    the first failure in file order is raised, the link's ``TransportSaturated``
    included.  The parts and the records are hidden temporaries beside
    ``telemetry``, removed whatever the outcome."""
    commands = (_IDLE, *controller._commands.values())  # a recorded send's command, by its number
    parts = [telemetry, *(telemetry.with_name(f".replay_telemetry.{k}.tmp") for k in range(1, len(ranges)))]
    sends = [telemetry.with_name(f".replay_sends.{k}.tmp") for k in range(len(ranges))]

    def replay_range(k):
        """Range ``k``'s row count, and the refusal or I/O error that ended it, if any."""
        try:
            rows = _read_coordinate_log(log, controller.frame, *ranges[k])
            with open(sends[k], "wb") as fh, contextlib.closing(rows):
                samples = _replay_samples(rows, controller, _SendRecord(fh, commands))
                return write_trial_csv(row_lines(samples), parts[k]), None
        except (ValueError, OSError) as exc:
            return 0, exc

    try:
        results = _fan_out(replay_range, range(len(ranges)))
        with open(frames, "w", encoding="utf-8") as fh:
            fh.write("t,frame\n")
            transport = _FrameFile(fh)
            send, count = CommandLink(transport=transport).send, 0
            for k, (rows, error) in enumerate(results):
                for block in _recorded_sends(sends[k]):
                    for t, number in block:
                        send(commands[number], t)
                if error is not None:
                    raise error
                if k:
                    with open(parts[k], "rb") as part, open(telemetry, "ab") as whole:
                        part.readline()  # its header: the telemetry has one
                        shutil.copyfileobj(part, whole)
                count += rows
        return count, transport.frames
    finally:
        for path in (*parts[1:], *sends):
            path.unlink(missing_ok=True)


def cmd_replay(args) -> int:
    controller = settings_controller(_settings(args))
    rate = controller.rate_magnitude
    try:  # the gimbal acts on the frame's rate, so the frame must carry this one
        encode(GimbalCommand(yaw_rate=rate))
    except FrameError as exc:
        raise ValueError(f"rate_rad_s = {rate!r} cannot go on the serial link: {exc}") from None
    log = Path(args.log)
    with contextlib.closing(_read_coordinate_log(log, controller.frame)) as rows:
        if next(rows, None) is None:  # a bad header or first row, or no row at all, makes no output directory
            raise ValueError(f"{log}: no rows after the header 't,x,y'")
    ranges = _log_ranges(log, _trials._usable_cpus())  # looked up now, so a test may set it
    with _out_dir(args) as out:
        telemetry_path, frames_path = out / "replay_telemetry.csv", out / "replay_frames.csv"
        with _staged((telemetry_path, frames_path)) as staged:
            try:
                count, frames = _replay_ranges(log, ranges, controller, staged[telemetry_path], staged[frames_path])
            except TransportSaturated as exc:
                raise ValueError(f"{args.log}: rows too dense for the serial link: {exc}") from None
    print(f"replayed {count} rows: {frames} frames -> {out}")
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
