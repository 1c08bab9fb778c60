"""The telemetry row validator against a reference copy of its rules.

``reference_read_rows`` is the validator as it was written rule by rule, one
helper call per check and a ``TrialSample(...)`` per row.  ``_read_rows`` is
the flat rewrite that ``read_trial_csv`` runs.  Both must accept the same rows
with the same record, to the bit, and reject the same rows with the same
message.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roitrack.arenas import parse_kv_text
from roitrack.cli import _replay_samples
from roitrack.controller import MAX_RATE_RAD_S, ControllerConfig
from roitrack.geometry import EllipseRoi, FrameSpec, Sector
from roitrack.metrics import SensitivityReport
from roitrack.protocol import CommandLink, MockTransport
from roitrack.telemetry import CSV_COLUMNS, _read_rows, fmt_float, read_trial_csv, row_lines, serialize_report
from roitrack.trials import DEFAULT_DT_S, TrialConfig, TrialRecord, TrialSample, iter_trial

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


def _replay_lines() -> list[str]:
    """Replay telemetry at 30 Hz: a sweep over every sector, then a hold outside."""
    frame = FrameSpec(1920, 720)
    controller = ControllerConfig(roi=EllipseRoi.from_fractions(frame), frame=frame)
    points = [(960 + (i * 37) % 1400 - 700, 360 + (i * 53) % 640 - 320) for i in range(90)]
    points += [(1900.0, 360.0)] * 20 + [(960.0, 360.0)] * 5
    rows = [(i / 30, x, y) for i, (x, y) in enumerate(points)]
    return list(row_lines(_replay_samples(rows, controller, CommandLink(MockTransport()))))


# Valid telemetry: simulate's rows (arena 1 with the target lost, arena 2) and replay's.
SOURCES = [
    list(row_lines(iter_trial(TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=8.0)))),
    list(row_lines(iter_trial(TrialConfig.baseline(2, seed=7, duration=4.0)))),
    _replay_lines(),
]
PATH = Path("trial.csv")


def record_bits(record: TrialRecord):
    """Every bit of a record, and the type of each of its samples."""
    samples = [
        (type(s), struct.pack("<6d", s.t, s.x, s.y, s.p, s.yaw_cmd, s.pitch_cmd), s.sector, s.visible)
        for s in record.samples
    ]
    return samples, struct.pack("<d", record.dt)


def outcome(read_rows, text: str, dt: float):
    """A reader's record, every bit of it, or the text of its ValueError."""
    try:
        return "read", record_bits(read_rows(csv.reader(io.StringIO(text)), PATH, dt))
    except ValueError as exc:
        return "rejected", str(exc)


def _put(i: int, text: str):
    """The mutation that sets field ``i`` of a row to ``text``."""
    return lambda fields: fields[:i] + [text] + fields[i + 1:]


_NONZERO_RATES = st.sampled_from(["0.3", "-0.3", "0.2", "-0.05", "1e-300"])

# One mutation per rule: a function from a row's fields to the changed fields.
MUTATIONS = {
    "non-finite": st.builds(_put, st.integers(0, 3), st.sampled_from(["nan", "inf", "-inf", "NaN", "1e999"])),
    "negative P": st.builds(_put, st.just(3), st.sampled_from(["-0.5", "-1e-300", "-0", "-3"])),
    "dt gap": st.one_of(
        st.sampled_from([1e-9, -5e-9, 2e-9, 1e-7, -1e-7, DEFAULT_DT_S, -DEFAULT_DT_S]), st.floats(-1.0, 1.0)
    ).map(lambda gap: lambda fields: [fmt_float(float(fields[0]) + gap)] + fields[1:]),
    "over the cap": st.builds(
        _put, st.sampled_from([5, 6]), st.sampled_from(["0.31", "-0.300001", "1e9", "0.3000000001", "-inf"])
    ),
    "both axes": st.tuples(_NONZERO_RATES, _NONZERO_RATES).map(
        lambda rates: lambda fields: fields[:5] + list(rates) + fields[7:]
    ),
    "bad sector": st.builds(_put, st.just(4), st.sampled_from(["Top", "", "up", "right ", "RIGHT"])),
    "bad bool": st.builds(_put, st.just(7), st.sampled_from(["True", "1", "", "yes", "false "])),
    "command contradicting P": st.tuples(
        st.sampled_from(["0.5", "1", "1.5", "2", "0"]),
        st.sampled_from([sector.value for sector in Sector]),
        st.sampled_from([("0", "0"), ("0.3", "0"), ("-0.3", "0"), ("0", "0.3"), ("0", "-0.3"), ("-0", "0")]),
        st.sampled_from(["true", "false"]),
    ).map(lambda v: lambda fields: fields[:3] + [v[0], v[1], *v[2], v[3]]),
    "column count": st.sampled_from([-1, 1]).map(lambda n: lambda fields: fields[:n] if n < 0 else fields + ["0"]),
}


@st.composite
def telemetry_text(draw):
    """A window of valid rows, often from the start, where times are below 1 s,
    with one row changed by up to two rules' mutations, so that the order of
    the rules shows too."""
    lines = draw(st.sampled_from(SOURCES))
    start = draw(st.one_of(st.integers(0, 5), st.integers(0, len(lines) - 1)))
    window = [line[:-1].split(",") for line in lines[start:start + draw(st.integers(1, 40))]]
    i = draw(st.integers(0, len(window) - 1))
    for rule in draw(st.lists(st.sampled_from(list(MUTATIONS)), max_size=2)):
        window[i] = draw(MUTATIONS[rule])(window[i])
    return "".join(",".join(row) + "\n" for row in [CSV_COLUMNS, *window])


class TestRowValidator:
    @settings(max_examples=400, deadline=None)
    @given(telemetry_text(), st.sampled_from([DEFAULT_DT_S, 1 / 30, 0.04]))
    def test_matches_the_reference_validator(self, text, dt):
        expected = outcome(reference_read_rows, text, dt)
        assert outcome(_read_rows, text, dt) == expected
        if expected[0] == "read":
            assert all(kind is TrialSample for kind, *_ in expected[1][0])

    def test_each_rule_rejects_with_the_reference_message(self):
        """One hand-made bad row per rule, between two good ones: both readers
        reject it with the same message, naming the file and line 3."""
        base = SOURCES[0][100:103]
        fields = base[1][:-1].split(",")
        cases = [
            ("non-finite value", fields[:1] + ["nan"] + fields[2:]),
            ("is negative", fields[:3] + ["-1"] + fields[4:]),
            ("is not dt", [fmt_float(float(fields[0]) + 1e-3)] + fields[1:]),
            ("is outside", fields[:5] + ["0.31"] + fields[6:]),
            ("drives both axes", fields[:5] + ["0.3", "0.3"] + fields[7:]),
            ("is not a valid Sector", fields[:4] + ["up"] + fields[5:]),
            ("expected true/false", fields[:7] + ["yes"]),
            ("but the command is zero", fields[:3] + ["2", fields[4], "0", "0", "true"]),
            ("and visible = false", fields[:3] + ["2", "right", "0.3", "0", "false"]),
            ("axis and sign", fields[:3] + ["2", "right", "-0.3", "0", "true"]),
            ("expected 8 columns", fields[:-1]),
            # two faults in one row: the earlier rule names it
            ("non-finite value", fields[:1] + ["nan", fields[2], "-1"] + fields[4:]),
            ("is outside", fields[:5] + ["0.31", "0.31"] + fields[7:]),
            ("is not a valid Sector", fields[:4] + ["up"] + fields[5:7] + ["yes"]),
        ]
        for message, row in cases:
            text = "".join([",".join(CSV_COLUMNS) + "\n", base[0], ",".join(row) + "\n", base[2]])
            expected = outcome(reference_read_rows, text, DEFAULT_DT_S)
            assert expected[0] == "rejected" and message in expected[1], message
            assert expected[1].startswith(f"{PATH}: line 3: ")
            assert outcome(_read_rows, text, DEFAULT_DT_S) == expected

    @pytest.mark.parametrize("lines", SOURCES, ids=["simulate-lost", "simulate-arena-2", "replay"])
    def test_read_trial_csv_returns_trial_samples(self, tmp_path, lines):
        path = tmp_path / "trial.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(lines))
        record = read_trial_csv(path, dt=DEFAULT_DT_S)
        assert len(record.samples) == len(lines)
        for sample in record.samples:
            assert type(sample) is TrialSample
            assert sample == TrialSample(*sample)
        with open(path, newline="") as fh:
            expected = reference_read_rows(csv.reader(fh), path, DEFAULT_DT_S)
        assert record_bits(record) == record_bits(expected)


SERIALIZED_REPORTS = [
    pytest.param(
        SensitivityReport(n=0, per_peak_s=(), mean_s=None, normalized_s=None, success=True,
                          yaw_active_s=0.0, pitch_active_s=0.0, overlap_s=0.0),
        "n = 0\nsuccess = true\nyaw_active_s = 0\npitch_active_s = 0\noverlap_s = 0\n",
        id="no-excursions",
    ),
    pytest.param(
        SensitivityReport(n=0, per_peak_s=(), mean_s=None, normalized_s=None, success=False,
                          yaw_active_s=1 / 3, pitch_active_s=2.5, overlap_s=-0.0),
        "n = 0\nsuccess = false\nyaw_active_s = 0.333333333\npitch_active_s = 2.5\noverlap_s = -0\n",
        id="no-excursions-lost",
    ),
    pytest.param(
        SensitivityReport(n=1, per_peak_s=(12.0,), mean_s=12.0, normalized_s=12.0, success=True,
                          yaw_active_s=0.1, pitch_active_s=0.0, overlap_s=0.0),
        "n = 1\nper_peak_s = 12\nmean_s = 12\nnormalized_s = 12\nsuccess = true\n"
        "yaw_active_s = 0.1\npitch_active_s = 0\noverlap_s = 0\n",
        id="one-excursion",
    ),
    pytest.param(
        SensitivityReport(n=3, per_peak_s=(0.123456789123, 5e-324, 1e300), mean_s=1e300 / 3,
                          normalized_s=1e300 / 9, success=False, yaw_active_s=24.0,
                          pitch_active_s=1 / 30, overlap_s=0.0),
        "n = 3\nper_peak_s = 0.123456789 4.94065646e-324 1e+300\nmean_s = 3.33333333e+299\n"
        "normalized_s = 1.11111111e+299\nsuccess = false\nyaw_active_s = 24\n"
        "pitch_active_s = 0.0333333333\noverlap_s = 0\n",
        id="three-excursions",
    ),
]


@pytest.mark.parametrize("report,text", SERIALIZED_REPORTS)
def test_serialize_report_writes_the_fixed_text(report, text):
    assert serialize_report(report) == text
    values = parse_kv_text(text)
    assert int(values["n"]) == report.n
    assert ("mean_s" in values) == ("normalized_s" in values) == ("per_peak_s" in values) == (report.n > 0)
