"""Replay a log of the tracker's pixel coordinates through ``controller.track``
into telemetry and serial frames.  ``replay_log`` splits the log's blocks into
one range per process that ``trials._split`` gives them.  Each range reads the
log from its start, counting the lines before its own blocks, and replays the
lines that its blocks end as they are read, into its part of the telemetry and
a record of its sends; then the one serial link sends the records in file
order and writes each frame as it goes out.  A log that is not a regular file,
such as a pipe, is one range, read once, as is any log where only one process
may run.  So replay's memory grows neither with the log nor with its frames,
and its bytes are the same on any number of CPUs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import stat
import struct
from pathlib import Path
from typing import Iterator

from .controller import _IDLE, ControllerConfig, track
from .geometry import FrameSpec
from .protocol import CommandLink, MockTransport
from .telemetry import row_lines, write_trial_csv
from .text import decode_blocks, fmt_float, is_plain, split_lines
from .trials import _fan_out, _split

# Bytes read from a replay log at a time.  A range of the log is a run of
# these blocks, and every range reads the log from its start: a block's lines
# are split, and checked as ASCII without "_", together.
_LOG_BLOCK_BYTES = 1 << 14
# A send that a range records for the link: the row's time and its command's number.
_SEND = struct.Struct("<dB")
_NOT_PLAIN = "{}: line {}: non-ASCII character or '_' in {!r}"


def _log_text(path) -> Iterator[str]:
    """The text of the log, ``text.decode_blocks``' blocks of
    ``_LOG_BLOCK_BYTES``, from one open of any readable file (a stream is
    read once, as one range: ``_log_ranges``)."""
    with open(path, "rb") as fh:
        yield from decode_blocks(fh, path, _LOG_BLOCK_BYTES)


def _log_rows(path, blocks, frame: FrameSpec, lineno: int, last_t: float) -> Iterator[tuple[float, float, float]]:
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


def _after_header(path, blocks) -> Iterator[tuple[list[str], bool]]:
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


def _read_coordinate_log(path, frame: FrameSpec, first: int, end: int | None) -> Iterator[tuple[float, float, float]]:
    """Each row's ``(t, x, y)`` of the lines that end in blocks ``first`` to
    ``end`` (None: to the end) of a replay log, parsed as they are read
    (``_log_rows``); the first line of the log is the header 't,x,y'.  The log
    is read from its start: the lines of the blocks before ``first`` are only
    counted, so that every line is named by its number in the file, and the
    last of them that is not blank, if it is a row, is the row before the first
    one here.  If it is not, the range that holds it refuses it.  The first
    line, in file order, that breaks a rule is named, once the reading reaches
    it.  No more than one block of ``_LOG_BLOCK_BYTES`` and one line is held
    at a time."""
    blocks = _after_header(path, split_lines(_log_text(path)))
    lineno, before, last_t = 1, None, -math.inf  # the header is line 1
    for lines, _ in itertools.islice(blocks, first):
        lineno += len(lines)
        before = next((line for line in reversed(lines) if line.strip()), before)
    if before is not None:
        with contextlib.suppress(ValueError):
            ((last_t, _, _),) = _log_rows(path, [([before], False)], frame, 0, -math.inf)
    return _log_rows(path, itertools.islice(blocks, None if end is None else end - first), frame, lineno, last_t)


def _log_ranges(path) -> list[tuple[int, int | None]]:
    """The runs of the ``_LOG_BLOCK_BYTES`` blocks of the log at ``path``
    that ``_split`` gives its blocks, in file order, each ``(first, end)`` for
    ``_read_coordinate_log``, the last to the end (None).  Only a regular file
    has blocks to count: any other file (a pipe, a FIFO, a device) is one
    range, read once."""
    info = os.stat(path)
    blocks = -(-info.st_size // _LOG_BLOCK_BYTES) if stat.S_ISREG(info.st_mode) else 0
    edges = _split(blocks)
    return list(zip(edges[:-1], [*edges[1:-1], None]))


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


def replay_log(log, controller: ControllerConfig, telemetry: Path, frames: Path) -> tuple[int, int]:
    """Replay ``log`` into the files ``telemetry`` and ``frames``, as the
    ranges of ``_log_ranges``, run through ``_fan_out``: the numbers of rows
    and of frames written.

    Each range writes its telemetry rows to a part, the first range to
    ``telemetry`` itself, and records each send as a ``_SEND`` record of its
    time and its command's number.  Then, in file order, each range's sends go
    through the one link, each frame written as it goes out, and its part is
    appended to ``telemetry``.  A range that ended in a refusal or an I/O
    error raises it once its sends have gone, so the first failure in file
    order is raised, the link's ``TransportSaturated`` included; a log with no
    row is refused once every range is done.  The parts and the records are
    hidden temporaries beside ``telemetry``, removed whatever the outcome."""
    ranges = _log_ranges(log)
    commands = (_IDLE, *controller._commands.values())  # a recorded send's command, by its number
    numbers = {id(cmd): number for number, cmd in enumerate(commands)}  # by identity: a command hashes in Python
    parts = [telemetry, *(telemetry.with_name(f".replay_telemetry.{k}.tmp") for k in range(1, len(ranges)))]
    sends = [telemetry.with_name(f".replay_sends.{k}.tmp") for k in range(len(ranges))]

    def replay_range(k):
        """Range ``k``'s row count, and the refusal or I/O error that ended it, if any."""
        try:
            rows = _read_coordinate_log(log, controller.frame, *ranges[k])
            with open(sends[k], "wb") as fh, contextlib.closing(rows):
                write, pack = fh.write, _SEND.pack
                samples = track(rows, controller, lambda cmd, now: write(pack(now, numbers[id(cmd)])))
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
        if not count:
            raise ValueError(f"{log}: no rows after the header 't,x,y'")
        return count, transport.frames
    finally:
        for path in (*parts[1:], *sends):
            path.unlink(missing_ok=True)
