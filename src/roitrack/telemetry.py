"""Bit-stable file formats: telemetry CSV and reports.

Floats are serialized with 9 significant digits, decimal point, no locale
formatting, so fixtures diff cleanly and identical runs produce identical
bytes.  The telemetry column set and order are fixed.

Telemetry rows have one codec, ``row_lines``, and every writer goes through
it.  A row is one ``%``-format of t, x, y and P, each as ``fmt_float`` prints
it, and the row's tail: the sector word, both commands and ``visible``.  The
tail is built once per distinct (sector, yaw, pitch, visible) and reused, so
a run's five commands give at most 16 tails.  A zero command prints ``0``
whatever its sign.

Telemetry rows have one reader, ``tally_rows``.  It parses the four numbers
of every row but checks each distinct tail once, as the writer builds it,
keeping a bounded number of verdicts.  ``tally_csv`` tallies one CSV's rows
through it: ``report`` runs it over its arguments and ``simulate`` over each
CSV it has just written, each maybe in another process, which pickles the
finished tally back.  So ``summary.txt`` is what ``report`` prints over the
batch's CSVs by construction.  A report is the key-value text of
``text.format_kv_text``.
"""

from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator

from .controller import _SECTOR_SIGNS, MAX_RATE_RAD_S
from .metrics import RecordTally, SensitivityReport
from .text import fmt_bool, fmt_float, format_kv_text, is_plain, open_text

CSV_COLUMNS = ["t", "x", "y", "P", "sector", "yaw_cmd", "pitch_cmd", "visible"]
_BLOCK_LINES = 4096  # rows per write: under 0.5 MB of text
_SIGNS = {sector.value: signs for sector, signs in _SECTOR_SIGNS.items()}  # a sector's word -> its command's signs
_TAIL_VERDICTS = 64  # tail verdicts one tally_rows call keeps: a run writes at most 16 tails
_WRONG_COLUMNS = (f"expected {len(CSV_COLUMNS)} columns", 0.0, 0.0, False, None, None)


def row_lines(samples: Iterable[tuple]) -> Iterator[str]:
    """The codec: each sample's CSV line, newline included, consuming
    ``samples`` as it goes.  A sample is read by position, in ``TrialSample``'s
    field order, so a plain 8-tuple (replay's rows) writes the same line.
    Each call keeps its own tails.  Every field is a formatted number or a
    fixed word, none of which needs CSV quoting."""
    tails: dict[tuple, str] = {}
    for t, x, y, p, sector, yaw, pitch, visible in samples:
        key = (sector, yaw, pitch, visible)
        tail = tails.get(key)
        if tail is None:
            yaw_text, pitch_text = fmt_float(yaw) if yaw else "0", fmt_float(pitch) if pitch else "0"
            tail = tails[key] = f"{sector.value},{yaw_text},{pitch_text},{fmt_bool(visible)}"
        yield "%.9g,%.9g,%.9g,%.9g,%s\n" % (t, x, y, p, tail)


def write_trial_csv(lines: Iterable[str], path: Path) -> None:
    """Write the header and then ``row_lines``' lines, consuming ``lines`` as
    it goes: each block of ``_BLOCK_LINES`` lines is joined and written in one
    call, so no more than one block is held, never the whole file."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        while block := "".join(islice(lines, _BLOCK_LINES)):
            fh.write(block)


def _tail_verdict(tail: str) -> tuple:
    """What a row's tail, the text after its fourth comma, says about the row,
    whatever its numbers: ``(refusal, yaw, pitch, visible, command,
    wrong_sign)``.

    ``refusal`` is the message of the first tail rule the text breaks, in
    ``tally_rows``' order (the yaw and pitch parse, the cap, one axis, the
    sector word, the ``visible`` word), or None.  A tail of other than four
    fields gives ``_WRONG_COLUMNS``, whose refusal comes before any number's.
    ``command`` is None for a zero command and otherwise the command's text as
    refusals name it; ``wrong_sign`` is the refusal of a nonzero command off
    its sector's axis or sign, which applies only where ``P`` calls for one.
    """
    fields = tail.rstrip("\n").split(",")
    if len(fields) != 4:
        return _WRONG_COLUMNS
    sector_text, yaw_text, pitch_text, visible_text = fields
    try:
        yaw, pitch = float(yaw_text), float(pitch_text)
    except ValueError as exc:
        return str(exc), 0.0, 0.0, False, None, None
    command = f"command ({yaw_text}, {pitch_text})"
    if not (abs(yaw) <= MAX_RATE_RAD_S and abs(pitch) <= MAX_RATE_RAD_S):
        refusal = f"{command} is outside [-{MAX_RATE_RAD_S}, {MAX_RATE_RAD_S}] rad/s"
    elif yaw != 0.0 and pitch != 0.0:
        refusal = f"{command} drives both axes"
    elif sector_text not in _SIGNS:
        refusal = f"{sector_text!r} is not a valid Sector"
    elif visible_text not in ("true", "false"):
        refusal = f"expected true/false, got {visible_text!r}"
    elif yaw == 0.0 and pitch == 0.0:
        return None, yaw, pitch, visible_text == "true", None, None
    else:
        signs = (yaw > 0.0) - (yaw < 0.0), (pitch > 0.0) - (pitch < 0.0)
        wrong_sign = None if signs == _SIGNS[sector_text] else f"{command} is not sector {sector_text}'s axis and sign"
        return None, yaw, pitch, visible_text == "true", command, wrong_sign
    return refusal, 0.0, 0.0, False, None, None


def tally_rows(lines: Iterable[str], acc: RecordTally, source: str | Path) -> None:
    """The one reader of telemetry rows: check each line and feed its sample
    to ``acc``, consuming ``lines`` as it goes.

    ``lines`` are the rows after the header, each with its newline or, the
    last, without; ``source`` names them in errors, as ``{source}: line N``,
    counting the header as line 1.  A row is split once, at its first four
    commas, into t, x, y, P and its tail; no field is quoted, as no writer
    quotes one.  Once the rows are exhausted, none at all is refused as
    ``{source}: record has no samples``; otherwise the caller finishes ``acc``.

    The CSV carries sample times but not the loop period: that is ``acc.dt``,
    the period the caller built the tally with.  Consecutive times must be
    ``dt`` apart, up to the rounding of their 9-digit text and within
    ``dt / 2``; any other gap means a wrong ``dt``, missing rows, or a ``t``
    text too coarse to resolve ``dt``.  A row no run can write is rejected: a
    character outside ASCII or a ``_``, which ``float()`` reads as digits; a
    non-finite ``t``, ``x``, ``y`` or ``P``, a negative ``P``, a command beyond
    the actuator cap or on both axes at once, or a command that contradicts
    ``P``.  A run commands nothing while ``P < 1`` or the target is lost, and
    the sector's axis and sign while a visible target has ``P > 1``; a ``P``
    that reads exactly 1 may carry either, since true values in (1, 1 + 5e-9]
    print as 1.  The magnitude is the run's ``rate_rad_s``, which the CSV does
    not record, so it is not checked.

    The rules are checked, and a row refused by the first it breaks, in the
    order above, column count first.  Each distinct tail text is checked once
    per call by ``_tail_verdict``, whose verdict is kept for the rows after it:
    a run writes at most 16 tails, and no more than ``_TAIL_VERDICTS`` are
    kept, so rows of ever new tails are checked each on its own.  Per row,
    only its characters, the four numbers, the gap and the command against
    ``P`` are checked.
    """
    add, dt, to_float, isfinite, plain = acc.add, acc.dt, float, math.isfinite, is_plain
    verdicts: dict[str, tuple] = {}
    last_t = last_abs_t = None
    for lineno, line in enumerate(lines, start=2):
        fields = line.split(",", 4)
        verdict = verdicts.get(fields[-1])
        if verdict is None:
            verdict = _tail_verdict(fields[-1])
            if len(verdicts) < _TAIL_VERDICTS:
                verdicts[fields[-1]] = verdict
        # A line of under five fields ends in a field with no comma: a wrong column count too.
        if verdict is _WRONG_COLUMNS:
            raise ValueError(f"{source}: line {lineno}: {verdict[0]}")
        t_text, x_text, y_text, p_text, _ = fields
        refusal, yaw_cmd, pitch_cmd, visible, command, wrong_sign = verdict
        try:
            if not plain(line):
                raise ValueError("non-ASCII character or '_' in %r" % line.rstrip("\r\n"))
            t, x, y, p = to_float(t_text), to_float(x_text), to_float(y_text), to_float(p_text)
            if not (isfinite(t) and isfinite(x) and isfinite(y) and isfinite(p)):
                raise ValueError(f"non-finite value in t, x, y or P: {t_text},{x_text},{y_text},{p_text}")
            if p < 0.0:
                raise ValueError(f"P = {p_text} is negative")
            abs_t = abs(t)
            if last_t is not None:
                scale = abs_t if abs_t > last_abs_t else last_abs_t
                miss = abs(t - last_t - dt)
                if not (miss <= 1e-8 * (scale if scale > 1.0 else 1.0) and miss < 0.5 * dt):
                    raise ValueError(f"sample time {t_text} is not dt = {dt} after {fmt_float(last_t)}")
            if refusal is not None:
                raise ValueError(refusal)
            if command is None:
                if visible and p > 1.0:
                    raise ValueError(f"P = {p_text} with the target visible, but the command is zero")
            elif not visible or p < 1.0:
                raise ValueError(f"{command} with P = {p_text} and visible = {fmt_bool(visible)}")
            elif wrong_sign is not None:
                raise ValueError(wrong_sign)
            add(t, p, yaw_cmd, pitch_cmd, visible)
        except ValueError as exc:
            raise ValueError(f"{source}: line {lineno}: {exc}") from None
        last_t, last_abs_t = t, abs_t
    if last_t is None:
        raise ValueError(f"{source}: record has no samples")


def tally_csv(path: Path, dt: float) -> RecordTally:
    """The finished tally of one telemetry CSV recorded at loop period ``dt``:
    check the file's header, then tally its rows through ``tally_rows``, one
    line at a time, which refuses a file with no row after the header."""
    acc = RecordTally(dt)
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        tally_rows(fh, acc, path)
    return acc.finish()


def serialize_report(report: SensitivityReport) -> str:
    """Machine-readable key-value rendering of a sensitivity report.

    ``normalized_s`` and ``mean_s`` are omitted entirely when there are no
    excursions (absent, not zero).
    """
    values = {"n": str(report.n)}
    if report.per_peak_s:
        values["per_peak_s"] = " ".join(fmt_float(s) for s in report.per_peak_s)
    if report.mean_s is not None:
        values["mean_s"] = fmt_float(report.mean_s)
    if report.normalized_s is not None:
        values["normalized_s"] = fmt_float(report.normalized_s)
    values["success"] = fmt_bool(report.success)
    values["yaw_active_s"] = fmt_float(report.yaw_active_s)
    values["pitch_active_s"] = fmt_float(report.pitch_active_s)
    values["overlap_s"] = fmt_float(report.overlap_s)
    return format_kv_text(values)
