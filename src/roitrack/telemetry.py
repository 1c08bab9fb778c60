"""Bit-stable file formats: telemetry CSV, key-value manifests, reports.

Floats are serialized with 9 significant digits, decimal point, no locale
formatting, so fixtures diff cleanly and identical runs produce identical
bytes.  The telemetry column set and order are fixed.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable

from .geometry import Sector
from .metrics import SensitivityReport
from .trials import TrialRecord, TrialSample

CSV_COLUMNS = ["t", "x", "y", "P", "sector", "yaw_cmd", "pitch_cmd", "visible"]


def fmt_float(value: float) -> str:
    return f"{value:.9g}"


def fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def sample_row(sample: TrialSample) -> list[str]:
    return [
        fmt_float(sample.t),
        fmt_float(sample.x),
        fmt_float(sample.y),
        fmt_float(sample.p),
        sample.sector.value,
        fmt_float(sample.yaw_cmd),
        fmt_float(sample.pitch_cmd),
        fmt_bool(sample.visible),
    ]


def write_trial_csv(samples: Iterable[TrialSample], path: Path) -> None:
    """Write a header and one row per sample, consuming ``samples`` as it goes.

    Every field is a formatted number or a fixed word, none of which needs
    CSV quoting, so rows are joined directly.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(",".join(sample_row(sample)) + "\n" for sample in samples)


def read_trial_csv(path: Path, dt: float) -> TrialRecord:
    """Load a telemetry CSV back into a record.

    The CSV carries sample times but not the loop period, so ``dt`` must be
    supplied by the caller (it is needed for sample-count based quantities).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header!r}")
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"{path}: line {lineno}: expected {len(CSV_COLUMNS)} columns")
            try:
                samples.append(
                    TrialSample(
                        t=float(row[0]),
                        x=float(row[1]),
                        y=float(row[2]),
                        p=float(row[3]),
                        sector=Sector(row[4]),
                        yaw_cmd=float(row[5]),
                        pitch_cmd=float(row[6]),
                        visible=_parse_bool(row[7]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return TrialRecord(samples=tuple(samples), dt=dt, config=None)


def serialize_report(report: SensitivityReport) -> str:
    """Machine-readable key-value rendering of a sensitivity report.

    ``normalized_s`` and ``mean_s`` are omitted entirely when there are no
    excursions (absent, not zero).
    """
    lines = [f"n = {report.n}"]
    if report.per_peak_s:
        lines.append("per_peak_s = " + " ".join(fmt_float(s) for s in report.per_peak_s))
    if report.mean_s is not None:
        lines.append(f"mean_s = {fmt_float(report.mean_s)}")
    if report.normalized_s is not None:
        lines.append(f"normalized_s = {fmt_float(report.normalized_s)}")
    lines.append(f"success = {fmt_bool(report.success)}")
    lines.append(f"yaw_active_s = {fmt_float(report.yaw_active_s)}")
    lines.append(f"pitch_active_s = {fmt_float(report.pitch_active_s)}")
    lines.append(f"overlap_s = {fmt_float(report.overlap_s)}")
    return "\n".join(lines) + "\n"


def format_kv_text(values: dict[str, str]) -> str:
    buffer = io.StringIO()
    for key, value in values.items():
        buffer.write(f"{key} = {value}\n")
    return buffer.getvalue()
