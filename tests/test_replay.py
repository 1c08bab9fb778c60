"""Replay's engine, run through the command: the log read a block at a
time, and the ranges of blocks that replay runs side by side."""

from __future__ import annotations

import contextlib
import errno
import io
import itertools
import os
import re
import tempfile
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (_BLOCK, _HEADER, _LATER_LINE, _SPLIT_LINE, SWEEP_ROWS, assert_no_child_left, centre_log,
                      counted_forks, replay_controller, run_cli, workers, write_log)
from roitrack import replay, telemetry, trials
from roitrack.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main
from roitrack.controller import track
from roitrack.protocol import CommandLink, MockTransport
from roitrack.telemetry import row_lines, write_trial_csv
from roitrack.text import decode_blocks, fmt_float


class TestReplayBlocks:
    def test_a_row_split_across_blocks_is_read_whole(self, tmp_path, capsys):
        # the first block ends inside the hard-right row's x: "0004095,19" | "00,360"
        row = f"{_SPLIT_LINE - 2:07d},1900,360"
        text = centre_log(_SPLIT_LINE + 10, [(_SPLIT_LINE, row)])
        start = text.index(row)
        assert start < _BLOCK < start + len(row) and text.count("\n", 0, start) == _SPLIT_LINE - 1
        log, out = tmp_path / "log.csv", tmp_path / "r"
        log.write_text(text)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert capsys.readouterr() == (f"replayed {_SPLIT_LINE + 10} rows: 1 frames -> {out}\n", "")
        rows = [(float(i), 1900.0 if i == _SPLIT_LINE - 2 else 960.0, 360.0) for i in range(_SPLIT_LINE + 10)]
        transport = MockTransport()
        samples = track(rows, replay_controller()[1], CommandLink(transport=transport).send)
        assert (out / "replay_telemetry.csv").read_text() == _HEADER + "".join(row_lines(samples))
        assert (out / "replay_frames.csv").read_text() == f"t,frame\n{_SPLIT_LINE - 2},Yaw 0.3\n"
        assert transport.log == [(float(_SPLIT_LINE - 2), "Yaw 0.3")]

    def test_a_crlf_across_blocks_reads_as_its_newline_twin(self, tmp_path):
        # header padding that puts a newline last in the first block; its CRLF
        # twin has the "\r" there and the "\n" first in the second block
        def padded(pad):
            lines = [(1, "t,x,y" + " " * pad), (_SPLIT_LINE, f"{_SPLIT_LINE - 2:07d},1900,360")]
            return centre_log(_SPLIT_LINE + 10, lines)

        twin = next(text for text in map(padded, range(16)) if text[_BLOCK - 1] == "\n")
        crlf = twin[:_BLOCK - 1] + "\r\n" + twin[_BLOCK:]
        outputs = []
        for name, text in [("lf", twin), ("crlf", crlf)]:
            log, out = tmp_path / f"{name}.csv", tmp_path / name
            log.write_bytes(text.encode())
            assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] == outputs[1] and b"Yaw 0.3" in outputs[0]["replay_frames.csv"]

    # The header and the first row are refused as a later row is: once the
    # output directory is there, with the earlier replay's files in it.
    @pytest.mark.parametrize("lineno,line,message", [
        (_LATER_LINE, f"{_LATER_LINE - 2:07d},960", f"line {_LATER_LINE}: expected 3 columns, got 2"),
        (1, "t,x,z", "expected header 't,x,y', got 't,x,z'"),
        (2, "0000000,960", "line 2: expected 3 columns, got 2"),
    ], ids=["later-block", "header", "first-row"])
    def test_a_bad_row_in_a_later_block_leaves_the_earlier_replay_as_it_was(self, tmp_path, capsys, lineno, line,
                                                                             message):
        out, log = tmp_path / "r", tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        log.write_text(centre_log(_LATER_LINE + 20, [(lineno, line)]))
        capsys.readouterr()
        assert run_cli("replay", log, "--out-dir", out) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {log}: {message}\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def fixed_log(points, dt=1 / 32):
    """A log of one row per ``(x, y)`` at times ``i * dt``, every line of one
    width, so that a row's content can change and every range stays where it is."""
    return "t,x,y\n" + "".join(f"{i * dt:010.5f},{x:04d},{y:03d}\n" for i, (x, y) in enumerate(points))


def first_lines_of_ranges(log, count):
    """The number of the first line of each range after the first, as
    ``replay`` splits ``log`` for ``count`` workers: one more than the line
    breaks that universal newlines read before its first block.  A "\\r" last
    before it may start a "\\r\\n", so it is held, and counts in that block."""
    data, block = log.read_bytes(), replay._LOG_BLOCK_BYTES
    with mock.patch.object(trials, "_usable_cpus", lambda: count):
        ranges = replay._log_ranges(log)
    return [io.IncrementalNewlineDecoder(None, translate=True).decode(
        data[:first * block].decode(errors="replace")).count("\n") + 1 for first, _ in ranges[1:]]


def outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log, *argv):
    """Replay ``log`` on 1, 2 and 3 workers, check that each gives the same
    outcome, and return it: the exit code, stdout and stderr, and each file of
    the output directory, which holds the two outputs and nothing else (None if
    the run was refused and made no directory)."""
    seen = []
    for count in (1, 2, 3):
        workers(monkeypatch, count)
        out = log.parent / f"out{count}"
        code = run_cli("replay", log, "--out-dir", out, *argv)
        stdout, stderr = capsys.readouterr()
        files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
        seen.append((code, stdout.replace(str(out), "OUT"), stderr, files))
        assert_no_child_left()
    assert seen[1] == seen[0] and seen[2] == seen[0]
    code, _, _, files = seen[0]
    if code == EXIT_OK:
        assert sorted(files) == ["replay_frames.csv", "replay_telemetry.csv"]
    else:
        assert files is None
    return seen[0]


CENTRE, RIGHT, LEFT = (960, 360), (1900, 360), (20, 360)
# 64 rows 1/32 s apart in blocks of 137 bytes: on 2 workers the second range
# starts at line 35, row 33
RANGE_2 = 35


class TestReplayRanges:
    """``replay`` splits its log into one run of blocks per usable CPU;
    whatever the worker count, the outcome is the one-range run's, byte for byte."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(replay, "_LOG_BLOCK_BYTES", 137)

    def write(self, tmp_path, text, line=None):
        log = tmp_path / "log.csv"
        log.write_bytes(text if isinstance(text, bytes) else text.encode())
        if line is not None:  # the case sits where it should
            assert first_lines_of_ranges(log, 2) == [line]
        return log

    @pytest.mark.parametrize("points,frames", [
        # held hard right from row 2: its keep-alive is due at row 34, the second range's second row
        pytest.param([CENTRE] * 2 + [RIGHT] * 62, [(2, "Yaw 0.3"), (34, "Yaw 0.3")], id="keep-alive"),
        pytest.param([CENTRE] * 33 + [RIGHT] * 31, [(33, "Yaw 0.3")], id="idle-to-hard-right"),
        # the idle row that starts the second range makes the link send the same frame again
        pytest.param([CENTRE] * 31 + [RIGHT] * 2 + [CENTRE] + [RIGHT] * 30, [(31, "Yaw 0.3"), (34, "Yaw 0.3")],
                     id="hard-right-to-idle-and-back"),
        pytest.param([LEFT] * 33 + [RIGHT] * 31, [(0, "Yaw -0.3"), (32, "Yaw -0.3"), (33, "Yaw 0.3")],
                     id="hard-left-to-hard-right"),
    ])
    def test_a_command_at_a_boundary_is_sent_as_in_one_range(self, tmp_path, monkeypatch, capsys, points, frames):
        log = self.write(tmp_path, fixed_log(points), RANGE_2)
        code, stdout, stderr, files = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        assert (code, stdout, stderr) == (EXIT_OK, f"replayed 64 rows: {len(frames)} frames -> OUT\n", "")
        expected = "".join(f"{fmt_float(row / 32)},{frame}\n" for row, frame in frames)
        assert files["replay_frames.csv"].decode() == "t,frame\n" + expected

    def test_a_time_rule_refusal_at_a_ranges_first_row(self, tmp_path, monkeypatch, capsys):
        lines = fixed_log([CENTRE] * 64).split("\n")
        lines[RANGE_2 - 1] = lines[RANGE_2 - 2]  # row 33 at row 32's time, 1.0
        log = self.write(tmp_path, "\n".join(lines), RANGE_2)
        outcome = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        assert outcome[:3] == (EXIT_USAGE, "", f"error: {log}: line {RANGE_2}: non-monotonic time 1.0 after 1.0\n")

    # Rows 10 and 11 alternate hard left and hard right 1 ms apart, which the
    # link cannot carry; row 40 has two columns.  The first in file order is named.
    @pytest.mark.parametrize("dense,bad,message", [
        (10, 40, "rows too dense for the serial link: line busy until t=0.321875, cannot send at t=0.313500"),
        (40, 10, "line 12: expected 3 columns, got 2"),
    ], ids=["saturated-link-in-range-1", "bad-row-in-range-1"])
    def test_the_first_failure_in_file_order_is_named(self, tmp_path, monkeypatch, capsys, dense, bad, message):
        lines = fixed_log([CENTRE] * dense + [LEFT, RIGHT] + [CENTRE] * (62 - dense)).split("\n")
        lines[dense + 2] = f"{dense / 32 + 0.001:010.5f},1900,360"
        lines[bad + 1] = f"{bad / 32:010.5f},19000000"
        log = self.write(tmp_path, "\n".join(lines), RANGE_2)
        outcome = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        assert outcome[:3] == (EXIT_USAGE, "", f"error: {log}: {message}\n")

    # Two ranges read the byte and the bad row in different ranges, each from the
    # log's start.  Either way, the first in file order is named, and the byte's
    # position is counted from the start of the file.
    @pytest.mark.parametrize("bad_row", [False, True], ids=["byte", "bad-row-before-the-byte"])
    def test_bytes_not_utf8_in_the_second_range(self, tmp_path, monkeypatch, capsys, bad_row):
        lines = fixed_log([CENTRE] * 64).split("\n")
        if bad_row:
            lines[11] = f"{10 / 32:010.5f},19000000"
        text = "\n".join(lines).encode()
        at = text.index(b"\n", text.index(f"{40 / 32:010.5f}".encode())) - 1  # row 40's last byte
        log = self.write(tmp_path, text[:at] + b"\xff" + text[at + 1:], RANGE_2)
        outcome = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        message = ("line 12: expected 3 columns, got 2" if bad_row else
                   f"not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte")
        assert outcome[:3] == (EXIT_USAGE, "", f"error: {log}: {message}\n")

    def test_the_lines_before_a_range_are_counted_at_every_line_break(self, tmp_path, monkeypatch, capsys):
        # rows 0-9 end in a lone "\r" and rows 10-19 in "\r\n"; row 40, in the second range, has two columns
        lines = fixed_log([CENTRE] * 64).split("\n")
        lines[41] = f"{40 / 32:010.5f},19000000"
        text = "".join(line + ("\r" if 1 <= i <= 10 else "\r\n" if i <= 20 else "\n") for i, line in enumerate(lines))
        log = self.write(tmp_path, text)
        assert first_lines_of_ranges(log, 2)[0] < 42
        outcome = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        assert outcome[:3] == (EXIT_USAGE, "", f"error: {log}: line 42: expected 3 columns, got 2\n")

    @pytest.mark.parametrize("repeat", [False, True], ids=["rows", "row-31s-time-again"])
    def test_blank_lines_before_a_range_are_passed_over(self, tmp_path, monkeypatch, capsys, repeat):
        # rows 32 and 33, the second range's first line, are blank: the row
        # before its first row, row 34, is row 31, whose time row 34 may repeat
        lines = fixed_log([LEFT] * 64).split("\n")
        lines[RANGE_2 - 2] = lines[RANGE_2 - 1] = " " * len(lines[1])
        if repeat:
            lines[RANGE_2] = lines[RANGE_2 - 3]
        log = self.write(tmp_path, "\n".join(lines), RANGE_2)
        outcome = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        if repeat:
            message = f"error: {log}: line {RANGE_2 + 1}: non-monotonic time 0.96875 after 0.96875\n"
            assert outcome[:3] == (EXIT_USAGE, "", message)
        else:
            assert outcome[:2] == (EXIT_OK, "replayed 62 rows: 2 frames -> OUT\n")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_other_line_ends_give_the_newline_bytes(self, tmp_path, monkeypatch, capsys, end):
        text = fixed_log([LEFT] * 20 + [CENTRE] * 20 + [RIGHT] * 24)
        expected = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, self.write(tmp_path, text))
        log = tmp_path / "ends" / "log.csv"
        log.parent.mkdir()
        log.write_bytes(text.replace("\n", end).encode())
        assert len(first_lines_of_ranges(log, 2)) == 1
        assert outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log) == expected

    def test_a_range_whose_blocks_end_no_line_replays_nothing(self, tmp_path, monkeypatch, capsys):
        lines = fixed_log([CENTRE] * 20 + [RIGHT] * 20).split("\n")
        lines[11] = " " * 2000 + lines[11]  # row 10, line 12, spans the whole middle range of 3
        log = self.write(tmp_path, "\n".join(lines), None)
        assert first_lines_of_ranges(log, 3) == [12, 12]
        forks = counted_forks(monkeypatch)
        code, stdout, _, _ = outcomes_on_one_two_and_three_workers(monkeypatch, capsys, log)
        # 2 workers fork once and 3 twice: the empty range runs in a child too
        assert (code, stdout, len(forks)) == (EXIT_OK, "replayed 40 rows: 1 frames -> OUT\n", 3)

    @pytest.mark.parametrize("cause", ["counting-stub", "second-thread"])
    def test_a_replay_that_cannot_fork_reads_its_log_once(self, tmp_path, monkeypatch, capsys, cause):
        """On 3 workers, where no child may be forked: the log is one range,
        read once, with no part, and the outcome is the forked run's."""
        log = self.write(tmp_path, fixed_log([LEFT] * 20 + [CENTRE] * 20 + [RIGHT] * 24), RANGE_2)
        workers(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        assert run_cli("replay", log, "--out-dir", tmp_path / "forked") == EXIT_OK
        assert len(forks) == 2
        expected = capsys.readouterr(), {path.name: path.read_bytes() for path in (tmp_path / "forked").iterdir()}
        opened, reads = [], []

        def recording_open(file, *args, **kwargs):  # where replay looks ``open`` up: not a package function
            opened.append(Path(file).name)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(replay, "open", recording_open, raising=False)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if cause == "counting-stub":
            def counted_decode_blocks(fh, source, size):
                reads.append(source)
                return decode_blocks(fh, source, size)

            monkeypatch.setattr(replay, "decode_blocks", counted_decode_blocks)
        else:
            thread.start()
        try:
            code = run_cli("replay", log, "--out-dir", tmp_path / "forked")
        finally:
            release.set()
            if thread.is_alive():
                thread.join(timeout=10)
        assert code == EXIT_OK and len(forks) == 2
        assert_no_child_left()
        assert opened.count(log.name) == 1
        if cause == "counting-stub":
            assert len(reads) == 1
        # range 0's record of its sends, written then read back, and no other range's file
        temporaries = [name for name in opened if re.fullmatch(r"\.replay_\w+\.\d+\.tmp", name)]
        assert temporaries == [".replay_sends.0.tmp"] * 2
        out = capsys.readouterr(), {path.name: path.read_bytes() for path in (tmp_path / "forked").iterdir()}
        assert out == expected

    @pytest.mark.parametrize("case", ["success", "refusal-in-range-1", "refusal-in-range-2", "write-stub-fills-the-disk",
                                      "disk-fills-in-the-child"])
    def test_nothing_is_left_behind(self, tmp_path, monkeypatch, capsys, case):
        """On 2 workers, into a directory that holds an earlier replay: every
        child is reaped, no temporary is left, and a failed run leaves the
        earlier files as they were."""
        out = tmp_path / "out"
        log = self.write(tmp_path, fixed_log([LEFT] * 64), RANGE_2)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        lines = fixed_log([RIGHT] * 64).split("\n")
        if case.startswith("refusal"):
            row = 10 if case.endswith("1") else 40
            lines[row + 1] = f"{row / 32:010.5f},19000000"
        log.write_text("\n".join(lines))
        if case == "write-stub-fills-the-disk":  # a replaced package function: the one range runs here
            def fill_the_disk(lines, path):
                write_trial_csv(itertools.islice(lines, 10), path)
                raise OSError(errno.ENOSPC, "No space left on device", str(path))

            monkeypatch.setattr(replay, "write_trial_csv", fill_the_disk)
        elif case == "disk-fills-in-the-child":
            def open_filling_the_disk(file, mode="r", **kwargs):
                fh = open(file, mode, **kwargs)
                if Path(file).name == ".replay_telemetry.1.tmp":
                    fh.close()
                    raise OSError(errno.ENOSPC, "No space left on device", str(file))
                return fh

            monkeypatch.setattr(telemetry, "open", open_filling_the_disk, raising=False)
        capsys.readouterr()
        workers(monkeypatch, 2)
        forks = counted_forks(monkeypatch)
        code = run_cli("replay", log, "--out-dir", out)
        stderr = capsys.readouterr().err
        assert len(forks) == (0 if case == "write-stub-fills-the-disk" else 1)
        assert_no_child_left()
        assert sorted(path.name for path in out.iterdir()) == ["replay_frames.csv", "replay_telemetry.csv"]
        if case == "success":
            assert code == EXIT_OK and (out / "replay_frames.csv").read_bytes() != before["replay_frames.csv"]
            return
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before
        if case.startswith("refusal"):
            assert (code, stderr) == (EXIT_USAGE, f"error: {log}: line {row + 2}: expected 3 columns, got 2\n")
        else:
            assert code == EXIT_IO and stderr.startswith("i/o error: [Errno 28] No space left on device")


def _log_rows():
    coordinate = st.one_of(st.floats(), st.floats(-100.0, 2000.0))
    gaps = st.one_of(st.floats(0.0, 0.05), st.floats())
    return st.lists(st.tuples(gaps, coordinate, coordinate), max_size=20)


@st.composite
def _log_text(draw):
    """A log of ``_log_rows``, its lines ended by "\\n", "\\r\\n" or "\\r",
    with blank and space-only lines among them."""
    t, lines = 0.0, ["t,x,y"]
    for gap, x, y in draw(_log_rows()):
        t += gap
        lines += [f"{t!r},{x!r},{y!r}", *draw(st.lists(st.sampled_from(["", " ", "   "]), max_size=2))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return (end.join(lines) + end).encode()


_ANY_LOG = st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode), _log_text())


@settings(max_examples=80, deadline=None)
@given(_ANY_LOG)
def test_any_replay_log_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        log, out = Path(tmp) / "log.csv", Path(tmp) / "out"
        log.write_bytes(data)
        code = main(["replay", str(log), "--out-dir", str(out)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)
        if code != EXIT_OK:
            assert not out.exists()


@settings(max_examples=60, deadline=None)
@given(_ANY_LOG, st.integers(1, 64))
def test_any_replay_log_has_one_outcome_on_one_two_and_three_workers(data, block):
    """The exit code, stdout, stderr and every output byte are the same
    whatever the number of ranges the log is split into: the one-range run
    reads the log in the default blocks, and the others in ``block`` bytes,
    so that even a short log splits.  With a second thread alive, the log in
    ``block`` bytes is one range on 3 CPUs, with the same outcome.  So is a
    FIFO that a thread writes the log's bytes into: its own name stands in a
    message where the log's does."""
    seen = []
    with tempfile.TemporaryDirectory() as tmp:
        log, fifo = Path(tmp) / "log.csv", Path(tmp) / "fifo.csv"
        log.write_bytes(data)
        os.mkfifo(fifo)
        for run, (source, count) in enumerate([(log, 1), (log, 2), (log, 3), (log, 3), (fifo, 3)]):
            out, stdout, stderr = Path(tmp) / f"out{run}", io.StringIO(), io.StringIO()
            release = threading.Event()
            waiter = threading.Thread(target=release.wait, daemon=True)  # a second thread alive: no fork
            if source == fifo:  # the writer's open waits for replay's
                writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
                writer.start()
            elif run == 3:
                waiter.start()
            size = block if run in (1, 2, 3) else replay._LOG_BLOCK_BYTES  # the split runs' blocks
            with mock.patch.object(trials, "_usable_cpus", lambda: count), \
                    mock.patch.object(replay, "_LOG_BLOCK_BYTES", size), \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["replay", str(source), "--out-dir", str(out)])
            release.set()
            if run == 3:
                waiter.join()
            if source == fifo:
                writer.join(timeout=10)
                if writer.is_alive():  # replay never opened the FIFO: free the writer, then fail
                    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
                    writer.join()
                    os.close(reader)
                    pytest.fail(f"replay of {fifo} never opened it")
            files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else None
            named_as_the_log = stderr.getvalue().replace(str(source), str(log))
            seen.append((code, stdout.getvalue().replace(str(out), "OUT"), named_as_the_log, files))
    assert seen[1:] == [seen[0]] * 4
