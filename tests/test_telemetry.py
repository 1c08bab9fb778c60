"""The telemetry row reader against a reference copy of its rules.

``conftest.reference_read_rows`` is the validator as it was written
rule by rule.  ``tally_rows`` is the one reader that ``simulate`` and
``report`` run.  Both must accept the same rows with the same tally, to the
bit, and reject the same rows with the same message.
"""

from __future__ import annotations

import csv
import io
import itertools
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_record, reference_read_rows
from roitrack.controller import ControllerConfig, track
from roitrack.geometry import EllipseRoi, FrameSpec, Sector
from roitrack.metrics import RecordTally, SensitivityReport, tally
from roitrack.protocol import CommandLink, MockTransport
from roitrack.telemetry import CSV_COLUMNS, row_lines, serialize_report, tally_rows, write_trial_csv
from roitrack.text import fmt_float, parse_kv_text
from roitrack.trials import DEFAULT_DT_S, TrialConfig, TrialSample, iter_trial


def _replay_lines() -> list[str]:
    """Replay telemetry at 30 Hz: a sweep over every sector, then a hold outside."""
    frame = FrameSpec(1920, 720)
    controller = ControllerConfig(roi=EllipseRoi.from_fractions(frame), frame=frame)
    points = [(960 + (i * 37) % 1400 - 700, 360 + (i * 53) % 640 - 320) for i in range(90)]
    points += [(1900.0, 360.0)] * 20 + [(960.0, 360.0)] * 5
    rows = [(i / 30, x, y) for i, (x, y) in enumerate(points)]
    return list(row_lines(track(rows, controller, CommandLink(MockTransport()).send)))


# Valid telemetry: simulate's rows (arena 1 with the target lost, arena 2) and replay's.
SOURCES = [
    list(row_lines(iter_trial(TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=8.0)))),
    list(row_lines(iter_trial(TrialConfig.baseline(2, seed=7, duration=4.0)))),
    _replay_lines(),
]
PATH = Path("trial.csv")


def tally_bits(acc: RecordTally):
    """Every bit of a finished tally: its excursions, counts, success and dt."""
    excursions = [(struct.pack("<3d", e.t_start, e.t_end, e.p_max), e.closed) for e in acc.excursions]
    return excursions, acc.yaw_n, acc.pitch_n, acc.overlap_n, acc.success, struct.pack("<d", acc.dt)


def reference_outcome(text: str, dt: float):
    """The reference's record, tallied, every bit of it, or the text of its ValueError."""
    try:
        return "read", tally_bits(tally(reference_read_rows(csv.reader(io.StringIO(text)), PATH, dt)))
    except ValueError as exc:
        return "rejected", str(exc)


def reader_outcome(text: str, dt: float):
    """``tally_rows``' tally over the lines after the header, every bit of it,
    or the text of its ValueError."""
    lines = list(io.StringIO(text))[1:]
    acc = RecordTally(dt)
    try:
        tally_rows(lines, acc, PATH)
        return "read", tally_bits(acc.finish())
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
        assert reader_outcome(text, dt) == reference_outcome(text, dt)

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
            expected = reference_outcome(text, DEFAULT_DT_S)
            assert expected[0] == "rejected" and message in expected[1], message
            assert expected[1].startswith(f"{PATH}: line 3: ")
            assert reader_outcome(text, DEFAULT_DT_S) == expected

    def test_rows_are_read_at_the_tallys_period_and_none_is_refused(self):
        """``tally_rows`` checks each gap against the ``dt`` its tally was built
        with, and refuses a record with no row, naming its source."""
        def rows(step):
            return [f"{fmt_float(i * step)},0,0,0,right,0,0,true\n" for i in range(1, 4)]

        acc = RecordTally(0.5)
        tally_rows(rows(0.5), acc, PATH)
        assert acc.finish().success and acc.excursions == []
        with pytest.raises(ValueError) as refused:
            tally_rows(rows(1 / 30), RecordTally(0.5), PATH)
        assert str(refused.value) == f"{PATH}: line 3: sample time 0.0666666667 is not dt = 0.5 after 0.0333333333"
        with pytest.raises(ValueError) as refused:
            tally_rows([], RecordTally(0.5), PATH)
        assert str(refused.value) == f"{PATH}: record has no samples"

    @pytest.mark.parametrize("tail,good_p,bad_p,message", [
        ("right,0.3,0,true", "1.5", "0.5", "command (0.3, 0) with P = 0.5 and visible = true"),
        ("right,0,0,true", "0.5", "2", "P = 2 with the target visible, but the command is zero"),
    ])
    def test_a_tail_checked_once_is_still_refused_where_p_contradicts_it(self, tail, good_p, bad_p, message):
        """A tail's verdict is kept from its first row, but each later row's
        ``P`` is still held against its command."""
        rows = [f"{fmt_float(i / 30)},0,0,{bad_p if i == 5 else good_p},{tail}\n" for i in range(1, 8)]
        text = ",".join(CSV_COLUMNS) + "\n" + "".join(rows)
        expected = reference_outcome(text, DEFAULT_DT_S)
        assert expected == ("rejected", f"{PATH}: line 6: {message}")
        assert reader_outcome(text, DEFAULT_DT_S) == expected

    @pytest.mark.parametrize("last_p", ["1.5", "0.5"], ids=["accepted", "refused"])
    def test_a_last_line_without_its_newline_is_read_like_the_others(self, last_p):
        """The last line's tail lacks the newline the earlier rows' tails end
        in; it is checked as the same tail."""
        rows = [f"{fmt_float(i / 30)},0,0,1.5,right,0.3,0,true" for i in range(1, 5)]
        rows[-1] = rows[-1].replace(",1.5,", f",{last_p},")
        text = ",".join(CSV_COLUMNS) + "\n" + "\n".join(rows)
        assert not text.endswith("\n")
        assert reader_outcome(text, DEFAULT_DT_S) == reference_outcome(text, DEFAULT_DT_S)
        assert reader_outcome(text, DEFAULT_DT_S)[0] == ("read" if last_p == "1.5" else "rejected")

    def test_rows_of_ever_new_tails_are_read_in_bounded_memory(self):
        """20,000 rows, each with its own tail, tally as the reference's record
        does, and the verdicts kept stay bounded: a verdict per tail would hold
        over 5 MiB."""
        def rows():
            return (f"{fmt_float(k / 30)},0,0,2,right,{k}e-12,0,true\n" for k in range(1, 20_001))

        acc = RecordTally(DEFAULT_DT_S)
        tracemalloc.start()
        try:
            tally_rows(rows(), acc, PATH)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"tallying 20,000 distinct tails peaked at {peak / 2**20:.1f} MiB"
        assert acc.finish().yaw_n == 20_000
        header = [",".join(CSV_COLUMNS) + "\n"]
        record = reference_read_rows(csv.reader(itertools.chain(header, rows())), PATH, DEFAULT_DT_S)
        assert tally_bits(acc) == tally_bits(tally(record))

    @pytest.mark.parametrize("lines", SOURCES, ids=["simulate-lost", "simulate-arena-2", "replay"])
    def test_read_trial_csv_returns_trial_samples(self, tmp_path, lines):
        """A written file reads back, by the reference, as one ``TrialSample``
        per line that prints that line again, and ``tally_rows`` tallies its
        lines as the reference's record tallies."""
        path = tmp_path / "trial.csv"
        write_trial_csv(lines, path)
        record = read_record(path, DEFAULT_DT_S)
        assert all(type(sample) is TrialSample for sample in record.samples)
        assert list(row_lines(record.samples)) == lines
        acc = RecordTally(DEFAULT_DT_S)
        tally_rows(lines, acc, path)
        assert tally_bits(acc.finish()) == tally_bits(tally(record))


# Where the rows' times start: all negative, crossing 0, and near +-1e6, where
# the 9-digit text of t resolves only 0.01 s and the gap rule scales with |t|.
TIME_STARTS = {
    "negative": st.floats(-1000.0, -2.0),
    "crossing-zero": st.floats(-1.2, -0.01),
    "near-1e6": st.floats(1e6 - 5.0, 1e6 + 5.0),
    "near-minus-1e6": st.floats(-1e6 - 5.0, -1e6 + 5.0),
}


@st.composite
def shifted_telemetry_text(draw, start: st.SearchStrategy, perturbed: bool):
    """A window of valid rows whose times are rewritten as ``t0 + i / 30`` from
    a drawn ``t0``; if ``perturbed``, one row's time then moves by a drawn gap."""
    lines = draw(st.sampled_from(SOURCES))
    first = draw(st.integers(0, len(lines) - 2))
    window = [line[:-1].split(",") for line in lines[first:first + draw(st.integers(2, 60))]]
    t0 = draw(start)
    times = [t0 + i / 30 for i in range(len(window))]
    if perturbed:
        i = draw(st.integers(0, len(window) - 1))
        times[i] += draw(st.one_of(st.sampled_from([1e-9, -1e-7, 1e-3, -0.004, 0.011, 1 / 60, -1 / 30]),
                                   st.floats(-1.0, 1.0)))
    for row, t in zip(window, times):
        row[0] = fmt_float(t)
    return "".join(",".join(row) + "\n" for row in [CSV_COLUMNS, *window])


class TestSampleTimes:
    """The gap rule at times of either sign and far from 0: ``tally_rows``
    carries the last row's ``|t|`` to the next, and must scale its tolerance as
    the reference does."""

    @pytest.mark.parametrize("where", list(TIME_STARTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_evenly_spaced_rows_are_read_as_the_reference_reads_them(self, where, data):
        text = data.draw(shifted_telemetry_text(TIME_STARTS[where], perturbed=False))
        outcome = reader_outcome(text, 1 / 30)
        assert outcome == reference_outcome(text, 1 / 30)
        assert outcome[0] == "read"

    @pytest.mark.parametrize("where", list(TIME_STARTS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_moved_row_is_judged_as_the_reference_judges_it(self, where, data):
        text = data.draw(shifted_telemetry_text(TIME_STARTS[where], perturbed=True))
        assert reader_outcome(text, 1 / 30) == reference_outcome(text, 1 / 30)


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
