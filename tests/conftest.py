from __future__ import annotations

import csv
import math
from pathlib import Path

import pytest
from hypothesis import settings

from roitrack.controller import MAX_RATE_RAD_S
from roitrack.geometry import Sector
from roitrack.telemetry import CSV_COLUMNS
from roitrack.text import fmt_float

# the whole artifact is determinism-first; property tests follow suit
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
from roitrack.trials import TrialRecord, TrialSample
from roitrack.world import CameraModel, GimbalState, UavPose


def record_from_p(p_values, dt=1.0, t0=0.0, yaw=None, pitch=None, visible=None):
    """Build a synthetic record from a P trace; commands default to zero."""
    samples = []
    for i, p in enumerate(p_values):
        samples.append(
            TrialSample(
                t=t0 + i * dt,
                x=0.0,
                y=0.0,
                p=p,
                sector=Sector.RIGHT,
                yaw_cmd=0.0 if yaw is None else yaw[i],
                pitch_cmd=0.0 if pitch is None else pitch[i],
                visible=True if visible is None else visible[i],
            )
        )
    return TrialRecord(samples=tuple(samples), dt=dt)


# The telemetry row rules written out one after another: the tests' reference.
# ``roitrack.telemetry.tally_rows`` must accept the rows that
# ``reference_read_rows`` accepts, with the same tally, and reject the rest
# with the same message.
_REFERENCE_SECTORS = {sector.value: sector for sector in Sector}
_REFERENCE_SIGNS = {Sector.RIGHT: (1, 0), Sector.LEFT: (-1, 0), Sector.TOP: (0, 1), Sector.BOTTOM: (0, -1)}


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return text == "true"


def reference_read_rows(reader, path: Path, dt: float) -> TrialRecord:
    """The row validator, one rule after another in their documented order."""
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, expected a header row") from None
    if header != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    samples = []
    last_t = None
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(CSV_COLUMNS):
            raise ValueError(f"{path}: line {lineno}: expected {len(CSV_COLUMNS)} columns")
        try:
            t, x, y, p = float(row[0]), float(row[1]), float(row[2]), float(row[3])
            if not (math.isfinite(t) and math.isfinite(x) and math.isfinite(y) and math.isfinite(p)):
                raise ValueError(f"non-finite value in t, x, y or P: {','.join(row[:4])}")
            if p < 0.0:
                raise ValueError(f"P = {row[3]} is negative")
            if last_t is not None:
                miss = abs(t - last_t - dt)
                if not (miss <= 1e-8 * max(1.0, abs(t), abs(last_t)) and miss < dt / 2):
                    raise ValueError(f"sample time {row[0]} is not dt = {dt} after {fmt_float(last_t)}")
            yaw_cmd, pitch_cmd = float(row[5]), float(row[6])
            if not (abs(yaw_cmd) <= MAX_RATE_RAD_S and abs(pitch_cmd) <= MAX_RATE_RAD_S):
                raise ValueError(
                    f"command ({row[5]}, {row[6]}) is outside [-{MAX_RATE_RAD_S}, {MAX_RATE_RAD_S}] rad/s"
                )
            if yaw_cmd != 0.0 and pitch_cmd != 0.0:
                raise ValueError(f"command ({row[5]}, {row[6]}) drives both axes")
            sector = _REFERENCE_SECTORS.get(row[4])
            if sector is None:
                raise ValueError(f"{row[4]!r} is not a valid Sector")
            visible = _parse_bool(row[7])
            if yaw_cmd == 0.0 and pitch_cmd == 0.0:
                if visible and p > 1.0:
                    raise ValueError(f"P = {row[3]} with the target visible, but the command is zero")
            elif not visible or p < 1.0:
                raise ValueError(f"command ({row[5]}, {row[6]}) with P = {row[3]} and visible = {row[7]}")
            else:
                signs = (yaw_cmd > 0.0) - (yaw_cmd < 0.0), (pitch_cmd > 0.0) - (pitch_cmd < 0.0)
                if signs != _REFERENCE_SIGNS[sector]:
                    raise ValueError(f"command ({row[5]}, {row[6]}) is not sector {row[4]}'s axis and sign")
            samples.append(TrialSample(t, x, y, p, sector, yaw_cmd, pitch_cmd, visible))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        last_t = t
    return TrialRecord(samples=tuple(samples), dt=dt)


def read_record(path: Path, dt: float) -> TrialRecord:
    """A telemetry file read back by the reference."""
    with open(path, encoding="utf-8", newline="") as fh:
        return reference_read_rows(csv.reader(fh), path, dt)


def back_project(u: float, v: float, uav: UavPose, g: GimbalState, cam: CameraModel):
    """Ground-plane point whose projection is the pixel (u, v), or None if the
    ray does not hit the ground."""
    f = cam.focal_px
    sp, cp = math.sin(g.pan), math.cos(g.pan)
    st, ct = math.sin(g.tilt), math.cos(g.tilt)
    right = (cp, -sp, 0.0)
    up = (-st * sp, -st * cp, ct)
    fwd = (ct * sp, ct * cp, st)
    d = tuple(u / f * r + v / f * w + fw for r, w, fw in zip(right, up, fwd))
    if d[2] >= -1e-9:
        return None
    s = -uav.altitude / d[2]
    return (uav.x + s * d[0], uav.y + s * d[1], 0.0)


@pytest.fixture
def make_record():
    return record_from_p
