from __future__ import annotations

import contextlib
import errno
import hashlib
import io
import itertools
import math
import os
import pickle
import re
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (_HEADER, _LATER_LINE, _SPLIT_LINE, SWEEP_ROWS, assert_no_child_left, centre_log, counted_forks,
                      log_text, read_record, replay_controller, run_cli, run_python, workers, write_log)
from roitrack import __version__, cli, protocol, replay, telemetry, trials
from roitrack.arenas import arena_fixture_bytes
from roitrack.cli import EXIT_IO, EXIT_OK, EXIT_TRACKING_LOST, EXIT_USAGE, main
from roitrack.controller import ControllerConfig, decide, step, track
from roitrack.geometry import (
    EllipseRoi,
    FrameSpec,
    Sector,
    classify_sector,
    relative_position,
    to_centered,
    to_polar,
)
from roitrack.metrics import RecordTally, summarize, summarize_tallies, tally
from roitrack.protocol import BITS_PER_BYTE_ON_WIRE, LINE_RATE_BPS, CommandLink, MockTransport, encode
from roitrack.telemetry import CSV_COLUMNS, row_lines, serialize_report, tally_csv, tally_rows, write_trial_csv
from roitrack.text import fmt_float
from roitrack.trials import (
    DEFAULT_DT_S,
    MANIFEST_NAME,
    MAX_STEPS_PER_TRIAL,
    MAX_TRIALS_PER_BATCH,
    SETTINGS,
    TrialConfig,
    TrialSample,
    format_manifest,
    iter_trial,
    manifest_mismatches,
    parse_manifest,
    run_batch,
    run_trial,
)


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "batch"
    code = run_cli("simulate", "--arena", 1, "--trials", 3, "--seed", 7,
                   "--duration-s", 6.0, "--out-dir", out)
    assert code == EXIT_OK
    return out


class TestSimulate:
    def test_writes_expected_artifacts(self, sim_dir):
        csvs = sorted(p.name for p in sim_dir.glob("trial_*.csv"))
        assert csvs == ["trial_001.csv", "trial_002.csv", "trial_003.csv"]
        assert (sim_dir / "summary.txt").exists()
        assert (sim_dir / "manifest.txt").exists()

    # Only a name simulate writes, trial_{i:03d}.csv for i up to the batch
    # limit, is swept; any other file is the user's and is kept.
    @pytest.mark.parametrize("kept", [
        "notes.csv", "trial_notes.csv", "trial_001_backup.csv", "trial_0002.csv", "trial_10001.csv"
    ])
    def test_smaller_batch_removes_the_trials_it_does_not_write(self, sim_dir, capsys, kept):
        # the 3-trial batch holds 34 excursions; report over the directory
        # must see the 1-trial batch's 11 only, as its summary does
        (sim_dir / kept).write_text("kept\n")
        code = run_cli("simulate", "--arena", 1, "--trials", 1, "--seed", 7,
                       "--duration-s", 6.0, "--out-dir", sim_dir)
        assert code == EXIT_OK
        assert sorted(p.name for p in sim_dir.glob("*.csv")) == sorted([kept, "trial_001.csv"])
        assert (sim_dir / kept).read_text() == "kept\n"
        capsys.readouterr()
        written = sorted(p for p in sim_dir.glob("trial_*.csv") if p.name != kept)
        assert run_cli("report", *written) == EXIT_OK
        assert capsys.readouterr().out == (sim_dir / "summary.txt").read_text()

    def test_directory_with_a_stale_trials_name_is_kept(self, tmp_path, capsys):
        # A directory named like a larger batch's trial is the user's, as any
        # name simulate never writes is: the run completes and leaves it.
        argv = ["simulate", "--arena", 1, "--trials", 3, "--seed", 7, "--duration-s", 2.0, "--out-dir"]
        assert run_cli(*argv, tmp_path / "clean") == EXIT_OK
        usual = capsys.readouterr().out
        out = tmp_path / "out"
        (out / "trial_005.csv").mkdir(parents=True)
        assert run_cli(*argv, out) == EXIT_OK
        assert capsys.readouterr() == (usual.replace(str(tmp_path / "clean"), str(out)), "")
        assert (out / "trial_005.csv").is_dir()
        for name in ("trial_001.csv", "trial_002.csv", "trial_003.csv", "summary.txt"):
            assert (out / name).read_bytes() == (tmp_path / "clean" / name).read_bytes(), name

    @pytest.mark.parametrize("arena", [1, 2])
    def test_default_run_is_the_baseline_run(self, tmp_path, arena):
        # closed_loop_batch steps TrialConfig.baseline in process and
        # cli_simulate_report steps simulate's defaults: one run, byte for byte.
        out = tmp_path / "sim"
        assert run_cli("simulate", "--arena", arena, "--trials", 1, "--seed", 7, "--out-dir", out) == EXIT_OK
        expected = tmp_path / "baseline.csv"
        write_trial_csv(row_lines(iter_trial(TrialConfig.baseline(arena, 7))), expected)
        assert (out / "trial_001.csv").read_bytes() == expected.read_bytes()

    def test_rows_match_duration(self, sim_dir):
        record = read_record(sim_dir / "trial_001.csv", DEFAULT_DT_S)
        assert len(record.samples) == round(6.0 / DEFAULT_DT_S)

    def test_seventeen_trials_on_arena_2_all_succeed(self, tmp_path):
        out = tmp_path / "a2"
        code = run_cli("simulate", "--arena", 2, "--trials", 17, "--seed", 7, "--out-dir", out)
        assert code == EXIT_OK
        assert "success = true" in (out / "summary.txt").read_text()
        assert len(list(out.glob("trial_*.csv"))) == 17

    def test_lost_tracking_exit_code(self, tmp_path):
        config = tmp_path / "wild.cfg"
        config.write_text("usv_speed_mps = 5.0\n")
        code = run_cli("simulate", "--arena", 1, "--trials", 1, "--seed", 1,
                       "--duration-s", 8.0, "--config", config,
                       "--out-dir", tmp_path / "lost")
        assert code == EXIT_TRACKING_LOST
        summary = (tmp_path / "lost" / "summary.txt").read_text()
        assert "success = false" in summary

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("simulate", "--arena", 2, "--trials", 2, "--seed", 3,
                           "--duration-s", 5.0, "--out-dir", out) == EXIT_OK
        for name in ("trial_001.csv", "trial_002.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rerun_from_manifest_reproduces_csvs(self, sim_dir, tmp_path):
        rerun = tmp_path / "rerun"
        code = run_cli("simulate", "--config", sim_dir / "manifest.txt", "--out-dir", rerun)
        assert code == EXIT_OK
        for csv_path in sim_dir.glob("trial_*.csv"):
            assert csv_path.read_bytes() == (rerun / csv_path.name).read_bytes()

    def test_rerun_from_its_own_manifest_in_place_is_byte_identical(self, sim_dir):
        # the manifest is read before simulate removes it from the directory
        before = {p.name: p.read_bytes() for p in sim_dir.iterdir()}
        code = run_cli("simulate", "--config", sim_dir / "manifest.txt", "--out-dir", sim_dir)
        assert code == EXIT_OK
        assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before

    def test_failed_rerun_leaves_no_manifest_or_summary(self, tmp_path, capsys):
        # a manifest left beside the failed run's trials would hash files that
        # no longer hold what it says
        out = tmp_path / "batch"
        argv = ["simulate", "--arena", 1, "--trials", 3, "--duration-s", 2.0, "--out-dir", out]
        assert run_cli(*argv, "--seed", 7) == EXIT_OK
        (out / "trial_002.csv").unlink()
        (out / "trial_002.csv").mkdir()
        kept = {name: (out / name).read_bytes() for name in ("trial_001.csv", "trial_003.csv")}
        assert run_cli(*argv, "--seed", 100) == EXIT_IO
        assert "trial_002.csv" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()
        assert not (out / "summary.txt").exists()
        # the directory is refused before any trial is replaced, and no temporary is left
        assert sorted(p.name for p in out.iterdir()) == ["trial_001.csv", "trial_002.csv", "trial_003.csv"]
        assert {name: (out / name).read_bytes() for name in kept} == kept

    def test_rerun_failing_mid_write_leaves_the_earlier_run_as_it_was(self, tmp_path, monkeypatch):
        # a disk that fills while trial 2 is written: the earlier run, manifest
        # included, stays byte for byte, and no partial file is left
        out = tmp_path / "batch"
        argv = ["simulate", "--arena", 1, "--trials", 3, "--duration-s", 2.0, "--out-dir", out]
        assert run_cli(*argv, "--seed", 7) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        workers(monkeypatch, 1)  # ``writes`` counts the calls made in this process
        writes = []

        def fill_the_disk_on_trial_2(lines, path):
            writes.append(path)
            if len(writes) == 2:
                write_trial_csv(itertools.islice(lines, 10), path)
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write_trial_csv(lines, path)

        monkeypatch.setattr(cli, "write_trial_csv", fill_the_disk_on_trial_2)
        assert run_cli(*argv, "--seed", 100) == EXIT_IO
        assert len(writes) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_run_removes_the_directories_it_made(self, tmp_path, monkeypatch, capsys):
        # a full disk: --out-dir a/b made both directories, and the failed run
        # removes them again; tmp_path, there before the run, stays
        workers(monkeypatch, 1)

        def open_on_a_full_disk(file, mode="r", **kwargs):
            if "w" in mode:
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
            return open(file, mode, **kwargs)

        monkeypatch.setattr(telemetry, "open", open_on_a_full_disk, raising=False)
        out = tmp_path / "a" / "b"
        assert run_cli("simulate", "--arena", 1, "--duration-s", 1, "--out-dir", out) == EXIT_IO
        refusal = f"i/o error: [Errno 28] No space left on device: {str(out / '.trial_001.csv.tmp')!r}\n"
        assert capsys.readouterr() == ("", refusal)
        assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []

    def test_manifest_hash_holds_one_block_not_the_file(self, tmp_path):
        path = tmp_path / "big.csv"
        with open(path, "wb") as fh:
            for i in range(32):
                fh.write(bytes([i]) * (1 << 20))
        tracemalloc.start()
        try:
            digest = trials._sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, f"hashing a 32 MiB file peaked at {peak / 2**20:.1f} MiB"
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ROITRACK_OUT_DIR", str(target))
        assert run_cli("simulate", "--arena", 1, "--trials", 1, "--duration-s", 2.0) == EXIT_OK
        assert (target / "trial_001.csv").exists()

    def test_manifest_records_fixture_hash_and_seeds(self, sim_dir):
        _, info, _ = parse_manifest((sim_dir / MANIFEST_NAME).read_text(encoding="utf-8"), MANIFEST_NAME)
        assert info == {"tool_version": __version__, "seeds": "7 8 9",
                        "arena_fixture_sha256": hashlib.sha256(arena_fixture_bytes(1)).hexdigest()}

    # simulate writes its manifest last, from the files it then puts in place
    @pytest.mark.parametrize("arena", [1, 2])
    def test_every_artifact_hashes_to_its_manifest_sha256(self, tmp_path, arena):
        out = tmp_path / f"r{arena}"
        assert run_cli("simulate", "--arena", arena, "--trials", 3, "--seed", 7, "--out-dir", out) == EXIT_OK
        assert manifest_mismatches(out) == []
        _, _, artifacts = parse_manifest((out / MANIFEST_NAME).read_text(encoding="utf-8"), MANIFEST_NAME)
        assert list(artifacts) == ["trial_001.csv", "trial_002.csv", "trial_003.csv", "summary.txt"]
        with open(out / "trial_002.csv", "ab") as fh:
            fh.write(b"0")
        (out / "summary.txt").unlink()
        assert manifest_mismatches(out) == [
            f"{out / name}: missing, or its sha256 is not the recorded {artifacts[name]}"
            for name in ("trial_002.csv", "summary.txt")
        ]

    def test_manifest_listing_no_artifact_is_a_mismatch(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("arena = 1\nseed = 7\n", encoding="utf-8")
        assert manifest_mismatches(tmp_path) == [f"{tmp_path / MANIFEST_NAME}: lists no artifact"]

    def test_manifest_records_fov_as_given(self, tmp_path):
        out = tmp_path / "fov"
        assert run_cli("simulate", "--arena", 1, "--duration-s", 1.0, "--fov-deg", 96,
                       "--out-dir", out) == EXIT_OK
        assert "fov_deg = 96.0\n" in (out / "manifest.txt").read_text()


# 20 rows 1 ms apart, alternating hard left and hard right: too dense for the serial link
DENSE_ROWS = [(i / 1000, 20 if i % 2 == 0 else 1900, 360) for i in range(20)]
# 1 s at Unix-epoch times, centred, with the target leaving the ROI on the last row
EPOCH_ROWS = [(1.7e9 + i / 30, 960.0 if i < 29 else 1900.0, 360.0) for i in range(30)]


def telemetry_text(*rows):
    return _HEADER + "".join(row + "\n" for row in rows)


def refused(id, argv, message, code=EXIT_USAGE, **files):
    """One row of the refusal table.  ``files`` maps a name to its file's text,
    or to None for a file that does not exist.  ``argv``, split at spaces, and
    ``message`` name each file's path ``{name}``; a ``simulate`` or ``replay``
    row writes to ``--out-dir {out}``."""
    argv = argv.split()
    if argv[0] in ("simulate", "replay"):
        argv += ["--out-dir", "{out}"]
    return pytest.param(files, argv, code, message, id=id)


_SIM = "simulate --arena 1 --config {cfg}"
_FRAME_SIDES = [("width", "frame_width_px", "{}x720"), ("height", "frame_height_px", "1920x{}")]
_FLOAT_RANGE = "frame dimensions must be within float range for P, at most 2**20 px, got "
_OFF_FRAME = "non-finite time or position outside the frame in "
_OFF_WIRE = ("rate_rad_s = {0} cannot go on the serial link: command ({0}, 0.0) has no exact frame:"
             " '{1}' reads back as ({2}, 0.0)")
_NOT_PLAIN = "non-ASCII character or '_' in "
_ROW = "0.0333333333,0,0,"  # a first row's time and position, before its P

# Every input the CLI refuses, one row each.  A row pins the whole outcome: its
# exit code (1, or 3 for a missing file), nothing on stdout, exactly its one
# error line on stderr, and no output directory left behind.  A new refusal is
# a new row.
REFUSALS = [
    # simulate: flags
    refused("zero-duration", "simulate --arena 1 --trials 1 --duration-s 0", "duration_s must be positive, got 0.0"),
    refused("negative-dt", "simulate --arena 1 --dt-s -1", "dt_s must be positive, got -1.0"),
    refused("arena-9", "simulate --arena 9", "argument --arena: invalid choice: 9 (choose from 1, 2)"),
    refused("no-arena", "simulate", "an arena id is required (--arena or config)"),
    # random.Random seeds from |seed|, so seed -1 would rerun seed 1's trial
    refused("negative-seed", "simulate --arena 1 --trials 3 --seed -1 --duration-s 2.0", "seed must be >= 0, got -1"),
    refused("non-integer-trials", "simulate --arena 1 --trials abc", "argument --trials: invalid int value: 'abc'"),
    # a refused setting is named as it was given: its key, and its value in its units
    refused("rate-over-max", "simulate --arena 1 --rate-rad-s 0.5", "rate_rad_s must be in (0, 0.3], got 0.5"),
    refused("roi-frac-over-half", "simulate --arena 1 --roi-frac-x 0.6", "roi_frac_x must be in [0.05, 0.49], got 0.6"),
    refused("fov-190", "simulate --arena 1 --fov-deg 190", "fov_deg must be in (0, 180), got 190.0"),
    refused("nan-duration", "simulate --arena 1 --duration-s nan", "duration_s must be finite, got nan"),
    refused("inf-dt", "simulate --arena 1 --dt-s inf", "dt_s must be finite, got inf"),
    refused("dt-over-duration", "simulate --arena 1 --dt-s 100", "duration 24.0 is shorter than one dt step of 100.0"),
    refused("trials-over-limit", f"simulate --arena 1 --trials {MAX_TRIALS_PER_BATCH + 1} --duration-s 1.0 --dt-s 1.0",
            f"--trials must be in [1, {MAX_TRIALS_PER_BATCH}], got {MAX_TRIALS_PER_BATCH + 1}"),
    *(refused(f"steps-over-limit-{i}", f"simulate --arena 1 --duration-s {duration} --dt-s {dt}",
              f"duration {float(duration)} / dt {float(dt)} is over the limit of {MAX_STEPS_PER_TRIAL} steps per trial")
      for i, (duration, dt) in enumerate([(MAX_STEPS_PER_TRIAL + 1, 1.0), (1e12, 1e-3)], start=1)),
    # int() and float() also take other scripts' digits and "_" digit groups;
    # no flag, config, log or telemetry number may hold them
    refused("seed-flag-fullwidth", "simulate --arena 1 --seed \uff17", "argument --seed: invalid int value: '\uff17'"),
    refused("fov-flag-digit-group", "simulate --arena 1 --fov-deg 9_0",
            "argument --fov-deg: invalid float value: '9_0'"),
    # simulate: a --config file
    refused("config-line-without-equals", _SIM, "{cfg}: line 1: expected 'key = value', got 'seed 1'", cfg="seed 1\n"),
    # only the artifact keys that simulate's manifest holds may start with "artifact_"
    *(refused(f"config-key-{key}", _SIM, f"{{cfg}}: unknown config key {key!r}", cfg=f"{key} = 9\n")
      for key in ("warp_speed", "artifact_typo")),
    refused("config-key-twice", _SIM, "{cfg}: line 2: duplicate key 'seed'", cfg="seed = 1\nseed = 1\n"),
    *(refused(f"config-number-{i}", "simulate --config {cfg}", f"{{cfg}}: bad value for {key}: {text!r}",
              cfg=f"arena = 1\n{key} = {text}\n")
      for i, (key, text) in enumerate([("seed", "\uff17"), ("trials", "\u0662"), ("lookahead_m", "0_5"),
                                       ("duration_s", "1_0.0"), ("rate_rad_s", "0.\uff12")], start=1)),
    # a line ends at "\n" only: a form feed or U+0085 in a config line starts
    # no second setting; the rest of the line is the first one's value
    *(refused(f"config-line-break-{i}", "simulate --config {cfg}", f"{{cfg}}: bad value for seed: {value!r}",
              cfg=f"arena = 1\nseed = {value}\n")
      for i, value in enumerate(["7\x85trials = 2", "7\ftrials = 2"], start=1)),
    refused("config-nan-lookahead", _SIM, "lookahead_m must be finite, got nan", cfg="lookahead_m = nan\n"),
    *(refused(f"config-lookahead-{value}", _SIM, f"lookahead_m must be positive, got {float(value)}",
              cfg=f"lookahead_m = {value}\n")
      for value in ("0", "-0.5")),
    *(refused(f"config-{key}-negative", _SIM, f"{key} must be {rule}, got -1.0", cfg=f"{key} = -1\n")
      for key, rule in [("usv_speed_mps", ">= 0"), ("altitude_m", "positive")]),
    refused("config-zero-frame-width", _SIM, "frame dimensions must be positive, got 0x720",
            cfg="frame_width_px = 0\n"),
    # 10**308 px fits a float, but x * x and a * a overflow, so P would read nan
    *(refused(f"config-frame-{side}-10**{power}", "simulate --arena 1 --duration-s 2.0 --config {cfg}",
              _FLOAT_RANGE + size.format(10**power), cfg=f"{key} = {10**power}\n")
      for side, key, size in _FRAME_SIDES for power in (309, 308)),
    *(refused(f"config-camera-{key}", _SIM, f"camera platform at {position} is over 1000.0 m from the arena origin"
              " along an axis", cfg=f"{key} = 1e308\n")
      for key, position in [("uav_x_m", "(1e+308, 0.0, 1.83)"), ("uav_y_m", "(0.0, 1e+308, 1.83)"),
                            ("altitude_m", "(0.0, 0.0, 1e+308)")]),
    *(refused(f"config-jitter-on-arena-{arena}", f"simulate --arena {arena} --config {{cfg}}",
              "jitter_m must be in [0, 1000.0] m, got 1e+308", cfg="jitter_m = 1e308\n")
      for arena in (1, 2)),
    # at this jitter arena 1's seed-4 path is finite and seed 5's is not: the
    # run fails before the first trial is written
    refused("config-jitter-non-finite-in-a-later-trial",
            "simulate --arena 1 --trials 2 --seed 4 --duration-s 1.0 --config {cfg}",
            "jitter_m must be in [0, 1000.0] m, got 1e+154", cfg="jitter_m = 1e154\n"),
    # at this jitter arena 1's seed-4 path is finite, but every step of the boat rounds away on it
    refused("config-jitter-too-far-out-to-move-along", "simulate --arena 1 --seed 4 --duration-s 2.0 --config {cfg}",
            "jitter_m must be in [0, 1000.0] m, got 1e+153", cfg="jitter_m = 1e153\n"),
    # replay: settings.  The link carries whole hundredths of a rad/s: 0.004
    # would go out as "Yaw 0.0" and never move the gimbal.
    *(refused(f"replay-rate-{rate}", f"replay {{log}} --rate-rad-s {rate}", _OFF_WIRE.format(rate, frame, back),
              log=log_text(SWEEP_ROWS))
      for rate, frame, back in [("0.004", "Yaw 0.0", "0.0"), ("0.005", "Yaw 0.01", "0.01"),
                                ("0.123", "Yaw 0.12", "0.12")]),
    refused("replay-config-rate-0.004", "replay {absent} --config {cfg}", _OFF_WIRE.format("0.004", "Yaw 0.0", "0.0"),
            cfg="rate_rad_s = 0.004\n", absent=None),
    *(refused(f"replay-config-frame-{side}-{value // 10**309}e309", "replay {log} --config {cfg}",
              message + size.format(value), cfg=f"{key} = {value}\n", log=log_text(SWEEP_ROWS))
      for side, key, size in _FRAME_SIDES
      for value, message in [(10**309, _FLOAT_RANGE), (-(10**309), "frame dimensions must be positive, got ")]),
    refused("replay-rate-over-max", "replay {absent} --rate-rad-s 0.5", "rate_rad_s must be in (0, 0.3], got 0.5",
            absent=None),
    refused("replay-roi-frac-over-half", "replay {absent} --roi-frac-y 0.6",
            "roi_frac_y must be in [0.05, 0.49], got 0.6", absent=None),
    refused("replay-fov-flag", "replay {log} --fov-deg 30", "unrecognized arguments: --fov-deg 30",
            log=log_text(SWEEP_ROWS)),
    # replay: the log
    refused("log-missing", "replay {absent}", "[Errno 2] No such file or directory: {absent!r}", code=EXIT_IO,
            absent=None),
    # a device, like a pipe, is read once as one range: /dev/null gives no header
    refused("log-empty-device", "replay /dev/null",
            "/dev/null: empty log, expected header 't,x,y' and at least one row"),
    # the directory is opened, and refused, once the output directory is made, which is removed again
    refused("log-is-a-directory", "replay /", "[Errno 21] Is a directory: '/'", code=EXIT_IO),
    *(refused(f"log-without-rows-{i}", "replay {log}", "{log}: " + message, log=text)
      for i, (text, message) in enumerate([("", "empty log, expected header 't,x,y' and at least one row"),
                                           ("\n \n", "empty log, expected header 't,x,y' and at least one row"),
                                           ("t,x,y\n", "no rows after the header 't,x,y'"),
                                           ("t,x,y\n\n\n", "no rows after the header 't,x,y'")], start=1)),
    refused("log-word-in-a-row", "replay {log}", "{log}: line 3: non-numeric value in '0.033,oops,360'",
            log="t,x,y\n0.0,960,360\n0.033,oops,360\n"),
    # one line between the header and a good row
    *(refused(f"log-line-{i}", "replay {log}", "{log}: line 2: " + message, log=f"t,x,y\n{line}\n1,960,360\n")
      for i, (line, message) in enumerate([("1,2", "expected 3 columns, got 2"),
                                           ("1,2,3,4", "expected 3 columns, got 4"),
                                           ("a,b,c", "non-numeric value in 'a,b,c'"),
                                           (",,", "non-numeric value in ',,'")], start=1)),
    # the first line holding a non-ASCII character or a "_" is named, as the log holds it
    *(refused(f"log-not-plain-{i}", "replay {log}", f"{{log}}: line {lineno}: {_NOT_PLAIN}{line!r}", log=text)
      for i, (text, lineno, line) in enumerate([
          ("t,x,y\n0,4_80,36_0\n0.0333333333,\u0664\u0668\u0660,360\n", 2, "0,4_80,36_0"),
          ("t,x,y\n0,480,360\n0.0333333333,\u0664\u0668\u0660,360\n", 3, "0.0333333333,\u0664\u0668\u0660,360"),
          ("t,x,y\n0,480,360\n0.033_3,480,360\n", 3, "0.033_3,480,360"),
          ("t,x,y\n0,\uff14\uff18\uff10,360\n", 2, "0,\uff14\uff18\uff10,360"),
          ("t,x,y\n0,480,360\u20281,480,360\n", 2, "0,480,360\u20281,480,360"),
          ("t,x,y\n0,480,360\n\u3000\n1,480,360\n", 3, "\u3000"),
          ("t,x,y\xa0\n0,480,360\n", 1, "t,x,y\xa0"),
      ], start=1)),
    # a row ending in another ASCII line break is one line, not two; float()
    # strips "\v" and "\f" as whitespace, not "\x1c" to "\x1e"
    *(refused(f"log-line-break-{ord(separator):#04x}", "replay {log}", "{log}: " + message,
              log=f"t,x,y\n0,960,360{separator}\n1,960,360,0\n")
      for separator, message in [
          ("\v", "line 3: expected 3 columns, got 4"), ("\f", "line 3: expected 3 columns, got 4"),
          *((separator, f"line 2: non-numeric value in {'0,960,360' + separator!r}") for separator in "\x1c\x1d\x1e"),
      ]),
    # a line of a later block is named with its own number, and the first line
    # in file order that breaks a rule is named, whichever rule it breaks
    *(refused(f"log-{name}-in-a-later-block", "replay {log}", f"{{log}}: line {_LATER_LINE}: {message}{row!r}",
              log=centre_log(_LATER_LINE + 20, [(_LATER_LINE, row)]))
      for name, row, message in [("not-plain", f"{_LATER_LINE - 2:07d},\u0664\u0668\u0660,360", _NOT_PLAIN),
                                 ("off-the-frame", f"{_LATER_LINE - 2:07d},960,721", _OFF_FRAME)]),
    *(refused(f"log-not-plain-{name}", "replay {log}", f"{{log}}: line {lineno}: {_NOT_PLAIN}{row!r}",
              log=centre_log(lineno - 1, [(lineno, row)]).rstrip("\n") + end)
      for name, lineno, row, end in [
          # the first block ends after "\u0664\u0668", and the second is ASCII: the line is checked whole
          ("across-blocks", _SPLIT_LINE, f"{_SPLIT_LINE - 2:07d},\u0664\u0668,360", "\n"),
          ("last-line-without-newline", 3, "1,\u0664\u0668\u0660,360", ""),
      ]),
    refused("log-bad-row-before-a-not-plain-one", "replay {log}", "{log}: line 2: expected 3 columns, got 2",
            log="t,x,y\n1,2\n0,960,360\n1,960,360\n2,\u0664,360\n"),
    refused("log-time-repeated", "replay {log}", "{log}: line 3: non-monotonic time 0.1 after 0.1",
            log="t,x,y\n0.1,960,360\n0.1,961,360\n"),
    # telemetry prints t with 9 significant digits: each pair below prints as
    # one time (1.7e+09 for the whole epoch log), so report could not find dt
    *(refused(f"log-times-print-alike-{i}", "replay {log}",
              f"{{log}}: line {lineno}: time {t} is too close to {last} to print apart from it", log=log_text(rows))
      for i, (rows, lineno, t, last) in enumerate([
          (EPOCH_ROWS, 3, "1700000000.0333333", "1700000000.0"),
          ([(1.0, 960, 360), (1.0 + 1e-9, 960, 360)], 3, "1.000000001", "1.0"),
          ([(-1.0 - 2e-9, 960, 360), (-1.0, 960, 360)], 3, "-1.0", "-1.000000002"),
          ([(0.0, 960, 360), (123456789.0, 960, 360), (123456789.4, 960, 360)], 4, "123456789.4", "123456789.0"),
      ], start=1)),
    *(refused(f"log-non-finite-{i}", "replay {log}", f"{{log}}: line 3: {_OFF_FRAME}{row!r}",
              log=f"t,x,y\n0.0,960,360\n{row}\n")
      for i, row in enumerate(["0.0333,nan,360", "0.0333,inf,360", "0.0333,960,-inf", "nan,960,360"], start=1)),
    # simulate calls a target outside the frame lost; a logged row cannot say so
    *(refused(f"log-off-the-frame-{i}", "replay {log}", f"{{log}}: line {lineno}: {_OFF_FRAME}{row!r}",
              log=f"t,x,y\n{rows}\n")
      for i, (rows, lineno, row) in enumerate([
          ("0,1e200,3\n0.0333333333,960,360", 2, "0,1e200,3"),
          ("0,-5,3", 2, "0,-5,3"),
          ("0,960,360\n0.0333,1920.0001,360", 3, "0.0333,1920.0001,360"),
          ("0,960,360\n0.0333,960,720.5", 3, "0.0333,960,720.5"),
          ("0,960,360\n0.0333,-5e-324,360", 3, "0.0333,-5e-324,360"),
          ("0,960,360\n0.0333,960,-inf", 3, "0.0333,960,-inf"),
      ], start=1)),
    refused("log-off-a-configured-frame", "replay {log} --config {cfg}",
            f"{{log}}: line 3: {_OFF_FRAME}'0.03333333333333333,1300.0,320.0'",
            cfg="frame_width_px = 1280\nframe_height_px = 640\n",
            log=log_text([(0.0, 1280.0, 640.0), (1 / 30, 1300.0, 320.0)])),
    # alternating hard left / hard right, 1 ms apart: every row changes the
    # command, and one frame takes about 8 ms on the 9600 bps line
    refused("log-too-dense-for-the-link", "replay {log}", "{log}: rows too dense for the serial link: line busy until"
            " t=0.009375, cannot send at t=0.001000", log=log_text(DENSE_ROWS)),
    # report
    refused("report-missing", "report {absent}", "[Errno 2] No such file or directory: {absent!r}", code=EXIT_IO,
            absent=None),
    *(refused(f"report-dt-flag-{i}", f"report {{absent}} --dt-s {text}",
              f"argument --dt-s: invalid float value: {text!r}", absent=None)
      for i, text in enumerate(["0.0_3333333333333333", "\uff10.0333333333333333"], start=1)),
    # one row, so no gap between sample times can catch the period
    *(refused(f"report-dt-{dt}", f"report {{csv}} --dt-s {dt}", f"--dt-s must be finite and positive, got {float(dt)}",
              csv=telemetry_text(_ROW + "4,right,0.3,0,true"))
      for dt in ("nan", "inf", "-1", "0")),
    refused("report-unexpected-header", "report {csv}", "{csv}: unexpected header ['not', 'a', 'telemetry']",
            csv="not,a,telemetry\n1,2,3\n"),
    refused("report-header-only", "report {csv}", "{csv}: record has no samples", csv=_HEADER),
    *(refused(f"report-not-plain-{i}", "report {csv}", f"{{csv}}: line 3: {_NOT_PLAIN}{row!r}",
              csv=telemetry_text(_ROW + "0,right,0,0,true", row))
      for i, row in enumerate(["0.0666666667,1_0,0,0,right,0,0,true", "0.0666666667,\u0661,0,0,right,0,0,true",
                               "0.066666666_7,0,0,0,right,0,0,true", "0.0666666667,0,0,4,right,0.\uff13,0,true"],
                              start=1)),
    # each sample time must follow the last by dt
    *(refused(f"report-gap-{i}", f"report {{csv}} {flags}".strip(), "{csv}: " + message,
              csv=telemetry_text(*(f"{t},0,0,0,right,0,0,true" for t in times.split())))
      for i, (times, flags, message) in enumerate([
          ("0.0333333333 0.0666666667 0.1", "--dt-s 0.5",
           "line 3: sample time 0.0666666667 is not dt = 0.5 after 0.0333333333"),
          ("0.0333333333 0.0666666667 0.1 0.166666667 0.2", "",
           "line 5: sample time 0.166666667 is not dt = 0.03333333333333333 after 0.1"),
          ("10 10", "--dt-s 1e-8", "line 3: sample time 10 is not dt = 1e-08 after 10"),
          ("1 1.00000001 1.00000001", "--dt-s 1e-8",
           "line 4: sample time 1.00000001 is not dt = 1e-08 after 1.00000001"),
          ("1e-9 3e-9", "--dt-s 1e-9", "line 3: sample time 3e-9 is not dt = 1e-09 after 1e-09"),
      ], start=1)),
    # what replay wrote for the epoch log before it refused such logs: 30 rows
    # at one printed time, the last outside the ROI
    refused("report-epoch-times-print-alike", f"report {{csv}} --dt-s {1 / 30!r}",
            "{csv}: line 3: sample time 1.7e+09 is not dt = 0.03333333333333333 after 1.7e+09",
            csv=_HEADER + "".join(row_lines(track(EPOCH_ROWS, replay_controller()[1],
                                                  CommandLink(transport=MockTransport()).send)))),
    *(refused(f"report-impossible-row-{i}", "report {csv}", "{csv}: line 2: " + message, csv=telemetry_text(row))
      for i, (row, message) in enumerate([
          ("nan,0,0,0,right,0,0,true", "non-finite value in t, x, y or P: nan,0,0,0"),
          ("inf,0,0,0,right,0,0,true", "non-finite value in t, x, y or P: inf,0,0,0"),
          ("0.0333333333,inf,0,0,right,0,0,true", "non-finite value in t, x, y or P: 0.0333333333,inf,0,0"),
          ("0.0333333333,0,-inf,0,right,0,0,true", "non-finite value in t, x, y or P: 0.0333333333,0,-inf,0"),
          (_ROW + "inf,right,0,0,true", "non-finite value in t, x, y or P: 0.0333333333,0,0,inf"),
          (_ROW + "nan,right,0,0,true", "non-finite value in t, x, y or P: 0.0333333333,0,0,nan"),
          (_ROW + "4,right,5,0,true", "command (5, 0) is outside [-0.3, 0.3] rad/s"),
          (_ROW + "4,bottom,0,-0.31,true", "command (0, -0.31) is outside [-0.3, 0.3] rad/s"),
          (_ROW + "4,right,nan,0,true", "command (nan, 0) is outside [-0.3, 0.3] rad/s"),
          (_ROW + "-5,right,0,0,true", "P = -5 is negative"),
          (_ROW + "4,right,0.3,-0.3,true", "command (0.3, -0.3) drives both axes"),
      ], start=1)),
    *(refused(f"report-command-contradicting-p-{i}", "report {csv}", "{csv}: line 2: " + message,
              csv=telemetry_text(_ROW + row))
      for i, (row, message) in enumerate([
          # acting inside the ellipse, or while the target is lost
          ("0.0006,right,0.3,0,true", "command (0.3, 0) with P = 0.0006 and visible = true"),
          ("0.0006,right,0.3,0,false", "command (0.3, 0) with P = 0.0006 and visible = false"),
          ("3,right,0.3,0,false", "command (0.3, 0) with P = 3 and visible = false"),
          # idle outside the ellipse with the target in view
          ("3,right,0,0,true", "P = 3 with the target visible, but the command is zero"),
          # the wrong axis or sign for the sector
          ("3,right,0,-0.3,true", "command (0, -0.3) is not sector right's axis and sign"),
          ("3,right,-0.3,0,true", "command (-0.3, 0) is not sector right's axis and sign"),
          ("3,left,0.3,0,true", "command (0.3, 0) is not sector left's axis and sign"),
          ("3,top,0.3,0,true", "command (0.3, 0) is not sector top's axis and sign"),
          ("3,top,0,-0.3,true", "command (0, -0.3) is not sector top's axis and sign"),
          ("3,bottom,0,0.3,true", "command (0, 0.3) is not sector bottom's axis and sign"),
          ("1,bottom,0,0.3,true", "command (0, 0.3) is not sector bottom's axis and sign"),
      ], start=1)),
    # of two rows, the first that contradicts its P is named
    *(refused(f"report-first-contradiction-on-line-{lineno}", "report {csv}", f"{{csv}}: line {lineno}: {message}",
              csv=telemetry_text(_ROW + first, "0.0666666667,0,0,3,right,0,-0.3,true"))
      for first, lineno, message in [
          ("0.0006,right,0.3,0,true", 2, "command (0.3, 0) with P = 0.0006 and visible = true"),
          ("0.0006,right,0,0,true", 3, "command (0, -0.3) is not sector right's axis and sign"),
      ]),
    # no writer quotes a field or writes a NUL; the row reader splits on
    # commas and takes each field as it stands
    *(refused(f"report-quoted-or-nul-{i}", "report {csv}", "{csv}: line 2: " + message, csv=telemetry_text(row))
      for i, (row, message) in enumerate([
          ('0.0333333333,0,0,"0.5",right,0,0,true', "could not convert string to float: '\"0.5\"'"),
          ('"0.0333333333",0,0,0.5,right,0,0,true', "could not convert string to float: '\"0.0333333333\"'"),
          ('0.0333333333,0,0,0.5,"right",0,0,true', "'\"right\"' is not a valid Sector"),
          ("0.0333333333,0,0,0.5,right,0,0,true\x00", "expected true/false, got 'true\\x00'"),
          ("0.0333333333,0\x00,0,0.5,right,0,0,true", "could not convert string to float: '0\\x00'"),
      ], start=1)),
    refused("report-sensitivities-too-large-to-sum", "report {csv}",
            "excursion sensitivities too large to sum: intermediate overflow in fsum",
            csv=telemetry_text(*(f"{i / 30:.9g},0,0,{p},right,{yaw},0,true"
                                 for i, (p, yaw) in enumerate([("5e306", "0.3"), ("0", "0")] * 2, start=1)))),
]


@pytest.mark.parametrize("files,argv,code,message", REFUSALS)
def test_each_refusal_exits_with_its_code_and_one_error_line(tmp_path, capsys, files, argv, code, message):
    paths = {name: str(tmp_path / name) for name in (*files, "out")}
    for name, text in files.items():
        if text is not None:
            Path(paths[name]).write_text(text, encoding="utf-8")
    assert main([arg.format(**paths) for arg in argv]) == code
    prefix = "error" if code == EXIT_USAGE else "i/o error"
    assert capsys.readouterr() == ("", f"{prefix}: {message.format(**paths)}\n")
    assert not Path(paths["out"]).exists()


# The refusal table gives absolute paths, which read the same however a
# command holds them; a relative name keeps its "./" only if it is never
# turned into a Path on its way to the message.
@pytest.mark.parametrize("argv,data,message", [
    ("replay ./log.csv", b"t,x,y\n0,960,360\n1,960\n", "./log.csv: line 3: expected 3 columns, got 2"),
    ("replay ./log.csv", b"t,x,y\n0,960,360\n1,96\xff,360\n",
     "./log.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 20: invalid start byte"),
    ("report ./e.csv", _HEADER.encode(), "./e.csv: record has no samples"),
], ids=["replay-bad-row", "replay-not-utf8", "report-header-only"])
def test_each_input_file_is_named_as_it_was_given(tmp_path, monkeypatch, capsys, argv, data, message):
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    (tmp_path / argv[1]).write_bytes(data)
    assert main([*argv, *(["--out-dir", "out"] if argv[0] == "replay" else [])]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


# A valid, non-default value for every setting; the flag below overrides one.
NON_DEFAULT_SETTINGS = {
    "arena": 2,
    "trials": 2,
    "seed": 5,
    "duration_s": 1.5,
    "dt_s": 0.05,
    "usv_speed_mps": 0.7,
    "jitter_m": 0.02,
    "lookahead_m": 0.6,
    "roi_frac_x": 0.35,
    "roi_frac_y": 0.25,
    "rate_rad_s": 0.2,
    "fov_deg": 80.0,
    "frame_width_px": 1280,
    "frame_height_px": 640,
    "uav_x_m": 0.5,
    "uav_y_m": -0.5,
    "altitude_m": 2.5,
}


class TestSettingsTable:
    def test_every_setting_is_recorded_and_reruns_byte_identical(self, tmp_path):
        assert set(NON_DEFAULT_SETTINGS) == set(SETTINGS)
        assert all(value != SETTINGS[key][1] for key, value in NON_DEFAULT_SETTINGS.items())
        config = tmp_path / "all.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in NON_DEFAULT_SETTINGS.items()))
        first = tmp_path / "first"
        assert run_cli("simulate", "--config", config, "--seed", 11, "--out-dir", first) == EXIT_OK

        text = (first / MANIFEST_NAME).read_text(encoding="utf-8")
        recorded, info, artifacts = parse_manifest(text, MANIFEST_NAME)
        assert recorded == {**NON_DEFAULT_SETTINGS, "seed": 11}
        for key, value in NON_DEFAULT_SETTINGS.items():
            assert repr(recorded[key]) == repr(11 if key == "seed" else value), key
        assert info["seeds"] == "11 12"
        assert format_manifest(recorded, [11, 12], info["arena_fixture_sha256"], artifacts) == text

        rerun = tmp_path / "rerun"
        assert run_cli("simulate", "--config", first / "manifest.txt", "--out-dir", rerun) == EXIT_OK
        names = sorted(p.name for p in first.iterdir())
        assert names == ["manifest.txt", "summary.txt", "trial_001.csv", "trial_002.csv"]
        assert names == sorted(p.name for p in rerun.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def rerun_argv(command, config, out, tmp_path):
    """The argv of a ``simulate`` or ``replay`` run from ``config``; a replay
    replays ``SWEEP_ROWS``."""
    if command == "simulate":
        return ["simulate", "--config", config, "--out-dir", out]
    log = tmp_path / "log.csv"
    write_log(log, SWEEP_ROWS)
    return ["replay", log, "--config", config, "--out-dir", out]


class TestFixtureHash:
    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_rerun_of_a_manifest_with_another_fixture_hash_is_refused(self, sim_dir, tmp_path, capsys, command):
        manifest = sim_dir / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        _, info, _ = parse_manifest(text, manifest)
        current = info["arena_fixture_sha256"]
        edited = tmp_path / "edited.txt"
        edited.write_text(text.replace(current, "0000"), encoding="utf-8")
        out = tmp_path / "rerun"
        capsys.readouterr()
        assert run_cli(*rerun_argv(command, edited, out, tmp_path)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edited}: ") and "0000" in err and current in err
        assert not out.exists()

    def test_fixture_hash_is_checked_against_the_configs_own_arena(self, tmp_path):
        # the flag changes the run; the recorded hash describes the config's arena
        first = tmp_path / "first"
        assert run_cli("simulate", "--arena", 1, "--duration-s", 1.0, "--out-dir", first) == EXIT_OK
        config = first / "manifest.txt"
        assert run_cli("simulate", "--config", config, "--arena", 2, "--out-dir", tmp_path / "two") == EXIT_OK


class TestRecordedSeeds:
    """A config's ``seeds`` must be the seeds its own ``seed`` and ``trials``
    run, as its fixture hash must be its own arena's."""

    @pytest.mark.parametrize("command", ["simulate", "replay"])
    @pytest.mark.parametrize("seeds", ["1 2", "banana", "7", "7 8 9"])
    def test_rerun_of_a_manifest_with_other_seeds_is_refused(self, tmp_path, capsys, command, seeds):
        first = tmp_path / "first"
        argv = ["simulate", "--arena", 1, "--trials", 2, "--seed", 7, "--duration-s", 1.0, "--out-dir", first]
        assert run_cli(*argv) == EXIT_OK
        text = (first / MANIFEST_NAME).read_text(encoding="utf-8")
        edited, out = tmp_path / "edited.txt", tmp_path / "rerun"
        edited.write_text(text.replace("seeds = 7 8\n", f"seeds = {seeds}\n"), encoding="utf-8")
        capsys.readouterr()
        assert run_cli(*rerun_argv(command, edited, out, tmp_path)) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {edited}: seeds = {seeds}, but seed = 7 and trials = 2"
                                           f" run seeds 7 to 8\n")
        assert not out.exists()

    # The counts differ, so no list of 10**12 seeds is built to compare.
    @pytest.mark.parametrize("command", ["simulate", "replay"])
    def test_seeds_of_another_count_are_refused_before_any_list_is_built(self, tmp_path, capsys, command):
        config, out = tmp_path / "run.cfg", tmp_path / "out"
        config.write_text(f"arena = 1\ntrials = {10**12}\nseeds = 1\n", encoding="utf-8")
        assert run_cli(*rerun_argv(command, config, out, tmp_path)) == EXIT_USAGE
        assert capsys.readouterr().err == (f"error: {config}: seeds = 1, but seed = 1 and trials = {10**12}"
                                           f" run seeds 1 to {10**12}\n")
        assert not out.exists()

    def test_flags_change_the_run_and_not_the_recorded_seeds(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("simulate", "--arena", 1, "--trials", 2, "--seed", 7, "--duration-s", 1.0,
                       "--out-dir", first) == EXIT_OK
        assert run_cli("simulate", "--config", first / MANIFEST_NAME, "--seed", 11, "--trials", 3,
                       "--out-dir", second) == EXIT_OK
        _, info, _ = parse_manifest((second / MANIFEST_NAME).read_text(encoding="utf-8"), MANIFEST_NAME)
        assert info["seeds"] == "11 12 13"


class TestToolVersion:
    def test_rerun_of_a_manifest_from_another_version_notes_both_versions(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run_cli("simulate", "--arena", 2, "--duration-s", 1.0, "--out-dir", first) == EXIT_OK
        manifest = first / "manifest.txt"
        text = manifest.read_text(encoding="utf-8")
        assert f"tool_version = {__version__}\n" in text
        edited = tmp_path / "edited.txt"
        edited.write_text(text.replace(f"tool_version = {__version__}", "tool_version = 9.9.9"), encoding="utf-8")
        runs = []
        for name, config in (("same", manifest), ("other", edited)):
            capsys.readouterr()
            out = tmp_path / name
            assert run_cli("simulate", "--config", config, "--out-dir", out) == EXIT_OK
            stdout, stderr = capsys.readouterr()
            runs.append((stdout.replace(str(out), "OUT"), {p.name: p.read_bytes() for p in out.iterdir()}, stderr))
        (same_out, same_files, same_err), (other_out, other_files, other_err) = runs
        assert (other_out, other_files) == (same_out, same_files)
        assert same_err == ""
        assert other_err == f"note: {edited}: tool_version = 9.9.9, but this is roitrack {__version__}\n"

    def test_replay_notes_another_version_too(self, tmp_path, capsys):
        config, log = tmp_path / "run.cfg", tmp_path / "log.csv"
        config.write_text("tool_version = 0.0.1\n", encoding="utf-8")
        write_log(log, SWEEP_ROWS)
        assert run_cli("replay", log, "--config", config, "--out-dir", tmp_path / "r") == EXIT_OK
        assert capsys.readouterr().err == f"note: {config}: tool_version = 0.0.1, but this is roitrack {__version__}\n"


class TestFanOut:
    """``simulate`` and ``report`` spread their items over worker processes;
    whatever the worker count, the bytes, the output and the errors are the
    serial run's."""

    @pytest.mark.parametrize("arena", [1, 2])
    def test_outputs_are_the_same_bytes_with_one_two_and_three_workers(self, tmp_path, monkeypatch, capsys, arena):
        seen = []
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            forks = counted_forks(monkeypatch)
            out = tmp_path / f"w{count}"
            assert run_cli("simulate", "--arena", arena, "--trials", 4, "--seed", 7, "--out-dir", out) == EXIT_OK
            csvs = sorted(out.glob("trial_*.csv"))
            assert run_cli("report", *csvs) == EXIT_OK
            assert len(forks) == 2 * (count - 1)  # each command forks all but its first chunk
            assert_no_child_left()
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            seen.append((stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}))
        assert seen[1] == seen[0] and seen[2] == seen[0]
        assert len(seen[0][1]) == 6

    def test_failed_write_in_a_child_is_the_serial_failure(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "batch"
        argv = ["simulate", "--arena", 1, "--trials", 3, "--duration-s", 2.0, "--out-dir", out]
        assert run_cli(*argv, "--seed", 7) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()

        def open_filling_the_disk_on_trial_3(file, mode="r", **kwargs):
            fh = open(file, mode, **kwargs)
            if Path(file).name == ".trial_003.csv.tmp" and "w" in mode:
                with fh:
                    fh.write(",".join(CSV_COLUMNS) + "\n0.0,")
                raise OSError(errno.ENOSPC, "No space left on device", str(file))
            return fh

        # patched where telemetry looks ``open`` up, not as a package function,
        # which would keep every trial in this process
        monkeypatch.setattr(telemetry, "open", open_filling_the_disk_on_trial_3, raising=False)
        errors = []
        for count in (1, 2, 3):  # trial 3 is in a child's chunk with 2 and 3 workers
            workers(monkeypatch, count)
            forks = counted_forks(monkeypatch)
            assert run_cli(*argv, "--seed", 100) == EXIT_IO
            assert len(forks) == count - 1
            errors.append(capsys.readouterr())
            assert_no_child_left()
            assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert errors[0].err.startswith("i/o error: [Errno 28] No space left on device")
        assert errors[1] == errors[0] and errors[2] == errors[0]

    @pytest.mark.parametrize("count", [2, 3])
    def test_no_child_outlives_a_report_that_fails(self, sim_dir, tmp_path, monkeypatch, capsys, count):
        workers(monkeypatch, count)
        bad = tmp_path / "bad.csv"
        bad.write_text("t,x\n", encoding="utf-8")
        csvs = sorted(sim_dir.glob("trial_*.csv"))
        assert run_cli("report", *csvs[:2], bad) == EXIT_USAGE
        assert run_cli("report", csvs[0], tmp_path / "missing.csv", bad) == EXIT_IO
        assert_no_child_left()
        first, second = capsys.readouterr().err.splitlines()
        assert first == f"error: {bad}: unexpected header ['t', 'x']"
        assert second.startswith("i/o error: [Errno 2]") and "missing.csv" in second

    def test_no_fork_while_a_second_thread_is_alive(self, tmp_path, monkeypatch):
        workers(monkeypatch, 3)

        def fork():
            raise AssertionError("forked with a second thread alive")

        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert run_cli("simulate", "--arena", 2, "--trials", 3, "--duration-s", 1.0,
                           "--out-dir", tmp_path / "out") == EXIT_OK
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    def test_a_replaced_package_function_keeps_every_item_here(self, tmp_path, monkeypatch):
        # a stub (or a tracer's wrapper) records its calls in this process
        workers(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        tallied = []

        def counted_tally_csv(path, dt):
            tallied.append(Path(path).name)
            return tally_csv(path, dt)

        monkeypatch.setattr(cli, "tally_csv", counted_tally_csv)
        out = tmp_path / "out"
        assert run_cli("simulate", "--arena", 2, "--trials", 3, "--duration-s", 1.0, "--out-dir", out) == EXIT_OK
        assert run_cli("report", *sorted(out.glob("trial_*.csv"))) == EXIT_OK
        assert len(tallied) == 6 and forks == []

    def test_a_fork_that_fails_leaves_the_rest_to_this_process(self, tmp_path, monkeypatch, capsys):
        """On 3 workers, the 5 trials of ``simulate`` and the 3 ranges of a
        replay's log: whichever fork fails, this process runs what no child
        took, with the serial run's output, and leaves no child and no temporary."""
        monkeypatch.setattr(replay, "_LOG_BLOCK_BYTES", 1 << 12)
        log = curve_log(tmp_path / "log.csv")
        real_fork = os.fork
        for argv in (["simulate", "--arena", 1, "--trials", 5, "--seed", 7, "--duration-s", 2.0], ["replay", log]):
            workers(monkeypatch, 1)
            serial = tmp_path / f"{argv[0]}_serial"
            assert run_cli(*argv, "--out-dir", serial) == EXIT_OK
            expected = (capsys.readouterr().out.replace(str(serial), "OUT"),
                        {p.name: p.read_bytes() for p in serial.iterdir()})
            workers(monkeypatch, 3)
            assert len(replay._log_ranges(log)) == 3
            for forks_before_failing in (0, 1):  # no child at all, or only the first
                forks = []

                def fork():
                    if len(forks) == forks_before_failing:
                        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
                    forks.append(pid := real_fork())
                    return pid

                monkeypatch.setattr(os, "fork", fork)
                out = tmp_path / f"{argv[0]}_failing_fork_{forks_before_failing}"
                assert run_cli(*argv, "--out-dir", out) == EXIT_OK
                assert len(forks) == forks_before_failing
                assert_no_child_left()
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                assert (stdout, {p.name: p.read_bytes() for p in out.iterdir()}) == expected

    def test_finished_tally_survives_a_pickle_round_trip(self, sim_dir):
        tallies = [tally_csv(path, DEFAULT_DT_S) for path in sorted(sim_dir.glob("trial_*.csv"))]
        copies = pickle.loads(pickle.dumps(tallies))
        assert serialize_report(summarize_tallies(copies)) == serialize_report(summarize_tallies(tallies))
        assert serialize_report(summarize_tallies(tallies)) == (sim_dir / "summary.txt").read_text(encoding="utf-8")


# A child that pins itself to one CPU it may use, checks that ``_fan_out``
# sees one, and runs the CLI as ``python -m roitrack.cli`` would.
ON_ONE_CPU = """\
import os, runpy, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from roitrack import trials
if trials._usable_cpus() != 1:
    sys.exit(f"pinned to one CPU, but trials._usable_cpus() reads {trials._usable_cpus()}")
runpy.run_module("roitrack.cli", run_name="__main__")
"""


def curve_log(path):
    """Write a log of 900 rows at 30 Hz, sweeping the frame, to ``path``, and return it:
    three blocks, so that replay splits it on 2 and on 3 CPUs."""
    rows = [f"{i / 30!r},{960 + 900 * math.cos(i / 40)!r},{360 + 340 * math.sin(i / 25)!r}" for i in range(900)]
    path.write_text("t,x,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestEntryPoint:
    # A refused seed (random.Random seeds from |seed|, so -1 would rerun seed
    # 1), a boat too fast to keep in view, and a rerun whose trial_002.csv
    # cannot be put in place: each exit code reaches the shell as main returns it.
    @pytest.mark.parametrize("code,seed,config", [
        pytest.param(EXIT_USAGE, -1, "", id="exit-1"),
        pytest.param(EXIT_TRACKING_LOST, 1, "usv_speed_mps = 5.0\n", id="exit-2"),
        pytest.param(EXIT_IO, 100, "", id="exit-3"),
    ])
    def test_a_real_process_exits_with_the_documented_code(self, tmp_path, code, seed, config):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out"
        cfg.write_text("arena = 1\ntrials = 3\nduration_s = 8.0\n" + config, encoding="utf-8")
        if code == EXIT_IO:
            assert run_cli("simulate", "--config", cfg, "--seed", 7, "--out-dir", out) == EXIT_OK
            (out / "trial_002.csv").unlink()
            (out / "trial_002.csv").mkdir()
        done = run_python("-m", "roitrack.cli", "simulate", "--config", cfg, "--seed", seed, "--out-dir", out)
        returncode, stderr = done.returncode, done.stderr
        assert returncode == code
        if code == EXIT_USAGE:
            assert (stderr, out.exists()) == ("error: seed must be >= 0, got -1\n", False)
        elif code == EXIT_TRACKING_LOST:
            assert stderr == "" and "success = false" in (out / "summary.txt").read_text(encoding="utf-8")
        else:  # the earlier trials stay, and no manifest, summary or temporary is left beside them
            assert stderr.startswith("i/o error: ") and "trial_002.csv" in stderr
            assert sorted(p.name for p in out.iterdir()) == ["trial_001.csv", "trial_002.csv", "trial_003.csv"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity to pin a process")
    def test_stdlib_only_runs_give_the_same_bytes_on_every_cpu_and_on_one(self, tmp_path):
        """``simulate``, ``report`` over its CSVs and ``replay`` of a 900-row log,
        each a real process with site-packages off (-S), so an import from
        outside the standard library fails even where it is installed.  Run
        as they are, the trials and the CSVs are split across the usable CPUs;
        pinned to one CPU, they run in one process.  Both give the same bytes."""
        log = curve_log(tmp_path / "log.csv")
        seen = {}
        for how, python in {"as_is": ["-m", "roitrack.cli"], "one_cpu": ["-c", ON_ONE_CPU]}.items():
            out = tmp_path / how
            runs = {"simulate": run_python("-S", *python, "simulate", "--arena", 2, "--trials", 3,
                                           "--out-dir", out / "sim")}
            runs["report"] = run_python("-S", *python, "report", *sorted((out / "sim").glob("trial_*.csv")))
            runs["replay"] = run_python("-S", *python, "replay", log, "--out-dir", out / "replay")
            for command, done in runs.items():
                assert (done.returncode, done.stderr) == (EXIT_OK, ""), (how, command)
            assert runs["report"].stdout == (out / "sim" / "summary.txt").read_text(encoding="utf-8")
            files = {path.relative_to(out): path.read_bytes() for path in out.rglob("*") if path.is_file()}
            seen[how] = [done.stdout.replace(str(out), "OUT") for done in runs.values()], files
        assert len(seen["as_is"][1]) == 7 and seen["one_cpu"] == seen["as_is"]


class TestFileEncoding:
    # Python's locale encoding is ASCII here: no coercion to C.UTF-8, no UTF-8 mode.
    ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        """Every file is read and written as UTF-8: a config with a non-ASCII
        comment runs under an ASCII locale, with the bytes of a UTF-8 run."""
        config = tmp_path / "run.cfg"
        config.write_text("# café\narena = 1\nduration_s = 2.0\n", encoding="utf-8")
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        commands = {
            "sim": ["simulate", "--config", config],
            "replay": ["replay", log, "--config", config],
        }
        for name, args in commands.items():
            utf8, ascii_ = tmp_path / f"{name}_utf8", tmp_path / f"{name}_ascii"
            assert run_cli(*args, "--out-dir", utf8) == EXIT_OK
            done = run_python("-m", "roitrack.cli", *args, "--out-dir", ascii_, **self.ASCII_LOCALE)
            assert (done.returncode, done.stderr) == (EXIT_OK, "")
            files = sorted(path.name for path in utf8.iterdir())
            assert files == sorted(path.name for path in ascii_.iterdir())
            for file in files:
                assert (ascii_ / file).read_bytes() == (utf8 / file).read_bytes(), file

    def test_every_command_names_the_encoding_of_the_files_it_opens(self, tmp_path):
        """A file opened without an encoding would be read or written in the
        locale's.  With these two variables each such open is an error in a
        real process, and so is a DeprecationWarning, which Python 3.12+ gives
        on a fork while another thread is alive."""
        strict = {"PYTHONWARNDEFAULTENCODING": "1",
                  "PYTHONWARNINGS": "error::EncodingWarning,error::DeprecationWarning"}
        log, sim, replayed = tmp_path / "log.csv", tmp_path / "sim", tmp_path / "replay"
        write_log(log, SWEEP_ROWS)
        runs = [
            ["simulate", "--arena", 1, "--trials", 2, "--seed", 7, "--out-dir", sim],
            ["replay", log, "--config", sim / MANIFEST_NAME, "--out-dir", replayed],
            ["report", sim / "trial_001.csv", sim / "trial_002.csv", replayed / "replay_telemetry.csv"],
        ]
        for argv in runs:
            done = run_python("-m", "roitrack.cli", *argv, **strict)
            assert (done.returncode, done.stderr) == (EXIT_OK, ""), argv[0]

    # Each reader's file holds a byte that is never UTF-8 (0xff) after text it
    # can decode: for report, 400 rows, which it meets only after tallying
    # some.  The refusal is one line naming the file, and nothing is written.
    @pytest.mark.parametrize("reader", ["simulate --config", "replay --config", "replay log", "report",
                                        "manifest_mismatches"])
    def test_every_reader_refuses_a_file_not_in_utf8_naming_it(self, tmp_path, capsys, reader):
        log, out, bad = tmp_path / "log.csv", tmp_path / "out", tmp_path / MANIFEST_NAME
        write_log(log, SWEEP_ROWS)
        rows = "".join(f"{fmt_float(i / 30)},0,0,0,right,0,0,true\n" for i in range(1, 401))
        decodable = {"replay log": "t,x,y\n", "report": _HEADER + rows}.get(reader, "arena = 1\n")
        bad.write_bytes(decodable.encode() + b"\xff\n")
        refusal = (f"{re.escape(str(bad))}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"
                   f" in position {len(decodable.encode())}: invalid start byte")
        if reader == "manifest_mismatches":
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                manifest_mismatches(tmp_path)
            return
        argv = {
            "simulate --config": ["simulate", "--config", bad, "--out-dir", out],
            "replay --config": ["replay", log, "--config", bad, "--out-dir", out],
            "replay log": ["replay", bad, "--out-dir", out],
            "report": ["report", bad],
        }[reader]
        assert run_cli(*argv) == EXIT_USAGE
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and re.fullmatch(f"error: {refusal}\n", stderr)
        assert not out.exists()

    def test_a_bad_row_before_a_byte_not_in_utf8_is_named_first(self, tmp_path, capsys):
        """The first defect in file order is named, even where the byte comes
        in the same block of the file as the row."""
        rows = [f"{fmt_float(i / 30)},0,0,0,right,0,0,true\n" for i in range(1, 101)]
        rows[2] = f"{fmt_float(3 / 30)},0,0\n"  # line 4
        bad = tmp_path / "trial.csv"
        bad.write_bytes((_HEADER + "".join(rows)).encode() + b"\xff\n")
        assert bad.stat().st_size < 8192
        assert run_cli("report", bad) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {bad}: line 4: expected 8 columns\n")

    def test_every_input_reads_a_pipe(self, tmp_path, monkeypatch, capsys):
        """``report``'s CSVs, a --config and a replay log are each read once, as
        a stream, so a pipe gives what the file gives.  A piped log is one range,
        replayed in the command's process, with the bytes of the file's ranges."""
        sim, rerun = tmp_path / "sim", tmp_path / "rerun"
        assert run_cli("simulate", "--arena", 1, "--trials", 2, "--out-dir", sim) == EXIT_OK
        csv = sim / "trial_001.csv"
        from_file = run_python("-m", "roitrack.cli", "report", csv)
        piped = run_python("-m", "roitrack.cli", "report", "/dev/stdin", stdin=csv.read_text(encoding="utf-8"))
        assert (from_file.returncode, from_file.stderr) == (EXIT_OK, "")
        assert (piped.returncode, piped.stdout, piped.stderr) == (EXIT_OK, from_file.stdout, "")
        done = run_python("-m", "roitrack.cli", "simulate", "--config", "/dev/stdin", "--out-dir", rerun,
                          stdin=(sim / MANIFEST_NAME).read_text(encoding="utf-8"))
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        files = sorted(path.name for path in sim.iterdir())
        assert len(files) == 4 and files == sorted(path.name for path in rerun.iterdir())
        for file in files:
            assert (rerun / file).read_bytes() == (sim / file).read_bytes(), file

        log, piped_out = curve_log(tmp_path / "log.csv"), tmp_path / "piped"
        piped = run_python("-m", "roitrack.cli", "replay", "/dev/stdin", "--out-dir", piped_out,
                           stdin=log.read_text(encoding="utf-8"))
        assert (piped.returncode, piped.stderr) == (EXIT_OK, "")
        replayed = {path.name: path.read_bytes() for path in piped_out.iterdir()}
        assert sorted(replayed) == ["replay_frames.csv", "replay_telemetry.csv"]
        capsys.readouterr()
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            out = tmp_path / f"file{count}"
            assert len(replay._log_ranges(log)) == count
            assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
            assert capsys.readouterr().out.replace(str(out), "OUT") == piped.stdout.replace(str(piped_out), "OUT")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == replayed, count


class TestReplay:
    FRAME = FrameSpec(1920, 720)

    def test_all_center_rows_give_zero_commands(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, [(i / 30, 960.0, 360.0) for i in range(30)])
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        telemetry = (out / "replay_telemetry.csv").read_text().splitlines()
        assert len(telemetry) == 31
        assert all(line.split(",")[5] == "0" and line.split(",")[6] == "0" for line in telemetry[1:])
        frames = (out / "replay_frames.csv").read_text().splitlines()
        assert frames == ["t,frame"]

    def test_right_exit_emits_yaw_frames(self, tmp_path):
        # synthetic track marching to the right edge of the frame and held there
        rows = [(i / 30, min(960.0 + 40.0 * i, 1920.0), 360.0) for i in range(30)]
        log = tmp_path / "log.csv"
        write_log(log, rows)
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK

        # oracle: step over the converted rows by hand
        cfg = ControllerConfig(roi=EllipseRoi.from_fractions(self.FRAME), frame=self.FRAME)
        expected_first = None
        for t, x, y in rows:
            cmd = step(to_centered(row=y, col=x, frame=self.FRAME), cfg)
            if not cmd.is_zero():
                expected_first = (t, cmd)
                break
        frames = (out / "replay_frames.csv").read_text().splitlines()[1:]
        assert expected_first is not None
        assert len(frames) == 1  # deduplicated constant command
        t_text, frame_text = frames[0].split(",", 1)
        assert float(t_text) == pytest.approx(expected_first[0])
        assert frame_text == "Yaw 0.3"

    def test_telemetry_rows_match_controller(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK

        record = read_record(out / "replay_telemetry.csv", DEFAULT_DT_S)
        cfg = ControllerConfig(roi=EllipseRoi.from_fractions(self.FRAME), frame=self.FRAME)
        assert len(record.samples) == len(SWEEP_ROWS)
        for sample, (t, x, y) in zip(record.samples, SWEEP_ROWS):
            p = to_centered(row=y, col=x, frame=self.FRAME)
            cmd = step(p, cfg)
            assert sample.t == float(fmt_float(t))
            assert (sample.x, sample.y) == (float(fmt_float(p.x)), float(fmt_float(p.y)))
            assert sample.p == float(fmt_float(relative_position(p, cfg.roi)))
            assert sample.sector is classify_sector(to_polar(p).theta)
            assert (sample.yaw_cmd, sample.pitch_cmd) == (cmd.yaw_rate, cmd.pitch_rate)
            assert sample.visible

    # Beside the refused lines of the refusal table: a blank or padded line is
    # read, and a row past a configured 1280x640 frame is inside the default one.
    @pytest.mark.parametrize("text,replayed", [
        pytest.param("t,x,y\n\n1,960,360\n", "1 rows: 0 frames", id="blank"),
        pytest.param("t,x,y\n  \n1,960,360\n", "1 rows: 0 frames", id="spaces"),
        pytest.param("t,x,y\n 0 , 960 , 360 \n1,960,360\n", "2 rows: 0 frames", id="padded"),
        pytest.param(log_text([(0.0, 1280.0, 640.0), (1 / 30, 1300.0, 320.0)]), "2 rows: 1 frames",
                     id="past-a-configured-frame"),
    ])
    def test_blank_padded_and_in_frame_lines_are_replayed(self, tmp_path, capsys, text, replayed):
        log, out = tmp_path / "log.csv", tmp_path / "r"
        log.write_text(text)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert capsys.readouterr() == (f"replayed {replayed} -> {out}\n", "")

    @pytest.mark.parametrize("rows", [
        [(1.0, 960, 360), (1.0 + 2e-8, 960, 360)],
        [(-5e-324, 960, 360), (0.0, 960, 360), (5e-324, 960, 360)],
        [(i / 30 - 1e5 / 30, 960, 360) for i in range(3)],
        # within the cheap bound, but printed as 123456789 and 123456790
        [(123456789.0, 960, 360), (123456789.5, 960, 360)],
    ])
    def test_times_the_telemetry_can_tell_apart_replayed(self, tmp_path, rows):
        log = tmp_path / "close.csv"
        write_log(log, rows)
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        times = [row.split(",")[0] for row in (out / "replay_telemetry.csv").read_text().splitlines()[1:]]
        assert len(set(times)) == len(times) == len(rows)

    def test_one_decision_per_row(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        calls = []
        with mock.patch("roitrack.controller.decide", lambda *args: calls.append(args) or decide(*args)):
            assert run_cli("replay", log, "--out-dir", tmp_path / "r") == EXIT_OK
        assert len(calls) == len(SWEEP_ROWS)

    def test_rows_on_the_frame_edges_replayed(self, tmp_path):
        corners = [(-0.0, -0.0), (1920.0, 0.0), (0.0, 720.0), (1920.0, 720.0), (960.0, -0.0)]
        log = tmp_path / "log.csv"
        write_log(log, [(i / 30, x, y) for i, (x, y) in enumerate(corners)])
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        rows = (out / "replay_telemetry.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1:3] for row in rows] == [["-960", "360"], ["960", "360"], ["-960", "-360"],
                                                         ["960", "-360"], ["0", "360"]]

    def test_dense_log_saturating_the_link_is_usage_error(self, tmp_path, capsys):
        # into a directory that holds an earlier replay's files: a refused run
        # leaves that consistent pair byte for byte, as a failed simulate does
        out = tmp_path / "r"
        good = tmp_path / "good.csv"
        write_log(good, [(i / 30, 1900 if i % 20 < 10 else 960, 360) for i in range(60)])
        assert run_cli("replay", good, "--out-dir", out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["replay_frames.csv", "replay_telemetry.csv"]
        # alternating hard left / hard right, 1 ms apart: every row changes the
        # command, and one frame takes about 8 ms on the 9600 bps line
        log = tmp_path / "dense.csv"
        write_log(log, DENSE_ROWS)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_USAGE
        assert "t=0.001000" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_failed_write_leaves_the_earlier_replay_as_it_was(self, tmp_path, monkeypatch):
        # a disk that fills while the telemetry is written: no partial telemetry
        # stands beside the earlier run's frames, and no temporary is left
        out = tmp_path / "r"
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def fill_the_disk(lines, path):
            write_trial_csv(itertools.islice(lines, 10), path)
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr(replay, "write_trial_csv", fill_the_disk)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_IO
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize(("rows", "code", "message"), [
        (DENSE_ROWS, EXIT_USAGE, "rows too dense for the serial link"),
        ([(i / 30, 960, 360) for i in range(30)], EXIT_IO, "Is a directory"),
    ], ids=["saturating", "valid"])
    def test_directory_where_the_frames_go_leaves_the_earlier_telemetry(self, tmp_path, capsys, rows,
                                                                          code, message):
        # a refused log is still a usage error, and a valid one (unlike the first,
        # so replaced telemetry would show) cannot be put in place: either way
        # the earlier telemetry stays and no temporary is left
        out = tmp_path / "r"
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        telemetry = (out / "replay_telemetry.csv").read_bytes()
        (out / "replay_frames.csv").unlink()
        (out / "replay_frames.csv").mkdir()
        write_log(log, rows)
        capsys.readouterr()
        assert run_cli("replay", log, "--out-dir", out) == code
        assert message in capsys.readouterr().err
        assert (out / "replay_telemetry.csv").read_bytes() == telemetry
        assert sorted(p.name for p in out.iterdir()) == ["replay_frames.csv", "replay_telemetry.csv"]

    def test_memory_does_not_grow_with_the_log(self, tmp_path, monkeypatch, capsys):
        """Replay holds a block of its log at a time, never the whole log, and
        writes each frame as it sends it, keeping none: the traced peak of a
        144,000-row log is within 1.25 times a 36,000-row log's, and under 4 MB.
        A log with a hard-right excursion every 10 s sends a frame every 10 s,
        and one that alternates hard left and hard right sends one every row.
        With one worker every range runs in this process, where tracemalloc
        sees it; with two, the second range runs in a child."""
        logs = {"excursions": (lambda i: 1900 if i % 300 < 15 else 960, 300),
                "alternating": (lambda i: 20 if i % 2 else 1900, 1)}
        for (name, (x_of, rows_per_frame)), count in itertools.product(logs.items(), (1, 2)):
            workers(monkeypatch, count)
            peaks = []
            for rows in (36_000, 144_000):
                log, out = tmp_path / f"{name}{rows}.csv", tmp_path / f"{name}{count}-{rows}"
                if not log.exists():
                    log.write_text("t,x,y\n" + "".join(f"{i / 30:.4f},{x_of(i)},360\n" for i in range(rows)))
                tracemalloc.start()
                try:
                    assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
                assert capsys.readouterr().out == f"replayed {rows} rows: {rows // rows_per_frame} frames -> {out}\n"
            assert peaks[1] <= 1.25 * peaks[0] and peaks[1] < 4 << 20, f"{name} log, {count} workers: {peaks} bytes"

    def test_encodes_once_per_distinct_non_zero_command(self, tmp_path, monkeypatch):
        calls = []

        def counting_encode(cmd):
            calls.append(cmd)
            return encode(cmd)

        monkeypatch.setattr(protocol, "encode", counting_encode)
        monkeypatch.setattr(cli, "encode", counting_encode)
        right, left, top, centre = (1900, 360), (20, 360), (960, 10), (960, 360)
        # Non-zero commands, idle rows aside: right x4, left, top x2, right.
        points = [centre, right, right, right, centre, centre, right, left, top, centre, top, right]
        log = tmp_path / "log.csv"
        write_log(log, [(i / 10, x, y) for i, (x, y) in enumerate(points)])
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        rate = 0.3
        expected = [(rate, 0.0), (rate, 0.0), (-rate, 0.0), (0.0, rate)]  # the rate check first
        assert [(c.yaw_rate, c.pitch_rate) for c in calls] == expected
        frames = [line.split(",")[1] for line in (out / "replay_frames.csv").read_text().splitlines()[1:]]
        assert frames == ["Yaw 0.3", "Yaw 0.3", "Yaw -0.3", "Pitch 0.3", "Pitch 0.3", "Yaw 0.3"]

    def test_negative_times_send_frames(self, tmp_path):
        # The idle line used to count as busy until t = 0, so the first frame
        # of a log with negative times was refused as too dense.
        log = tmp_path / "log.csv"
        write_log(log, [(-1.0, 1900, 360), (-0.5, 960, 360), (-0.25, 20, 360), (0.5, 1900, 360)])
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert (out / "replay_frames.csv").read_text().splitlines() == [
            "t,frame", "-1,Yaw 0.3", "-0.25,Yaw -0.3", "0.5,Yaw 0.3"
        ]

    def test_manifest_is_a_valid_config(self, sim_dir, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        out = tmp_path / "r"
        assert run_cli("replay", log, "--config", sim_dir / "manifest.txt", "--out-dir", out) == EXIT_OK
        default = tmp_path / "d"
        assert run_cli("replay", log, "--out-dir", default) == EXIT_OK
        for name in ("replay_telemetry.csv", "replay_frames.csv"):
            assert (out / name).read_bytes() == (default / name).read_bytes()


def reference_replay_samples(rows, controller, send):
    """``controller.track`` built from the public functions, with objects
    per row: ``to_centered``, then ``decide``, then ``send``."""
    for t, raw_x, raw_y in rows:
        img = to_centered(row=raw_y, col=raw_x, frame=controller.frame)
        p, sector, cmd = decide(img.x, img.y, controller)
        send(cmd, t)
        yield TrialSample(t, img.x, img.y, p, sector, cmd.yaw_rate, cmd.pitch_rate, True)


def reference_rows(frame, roi):
    """30 Hz raw rows from t = -2 s: the centre, the ellipse's ends, points on
    the sector diagonals, raw -0.0 coordinates, a sweep over every sector, and
    2.5 s held hard right (so keep-alives re-send)."""
    cx, cy = frame.width / 2, frame.height / 2
    points = [(cx, cy), (cx + roi.a, cy), (cx - roi.a, cy), (cx, cy - roi.b), (cx, cy + roi.b)]
    for d in (roi.b / 2, roi.b, 2 * roi.b):
        points += [(cx + d, cy - d), (cx - d, cy - d), (cx - d, cy + d), (cx + d, cy + d)]
    points += [(-0.0, -0.0), (-0.0, cy), (cx, -0.0), (cx, cy)]
    points += [(cx + (i * 37) % (2 * cx) - cx, cy + (i * 53) % (2 * cy) - cy) for i in range(60)]
    points += [(float(frame.width), cy)] * 75 + [(cx, cy)]
    times = [i / 30 - 2.0 for i in range(len(points))]
    times[60] = -0.0  # 60 / 30 - 2.0 is 0.0
    return [(t, x, y) for t, (x, y) in zip(times, points)]


def replay_bits(loop, rows, controller):
    """Every bit of each row a replay loop yields, read by position in
    ``TrialSample``'s field order, and of each frame it sends."""
    transport = MockTransport()
    samples = [
        (struct.pack("<6d", t, x, y, p, yaw, pitch), sector, visible)
        for t, x, y, p, sector, yaw, pitch, visible in loop(rows, controller, CommandLink(transport=transport).send)
    ]
    return samples, [(struct.pack("<d", t), text) for t, text in transport.log]


def recording_link():
    """A link over a fresh transport, and the list of (command, time) it is sent."""
    link = CommandLink(transport=MockTransport())
    sent, send = [], link.send

    def record(cmd, now):
        sent.append((cmd, now))
        return send(cmd, now)

    link.send = record
    return link, sent


class TestReplayReferenceLoop:
    @pytest.mark.parametrize("frame,controller", [
        pytest.param(*replay_controller(), id="default"),
        pytest.param(*replay_controller(roi=(0.2, 0.4)), id="roi-0.2-0.4"),
        pytest.param(*replay_controller(rate=0.2), id="rate-0.2"),
        pytest.param(*replay_controller(rate=0.05), id="rate-0.05"),
        pytest.param(*replay_controller(1280, 640), id="frame-1280x640"),
        pytest.param(*replay_controller(641, 361), id="frame-641x361"),
    ])
    def test_replay_samples_match_the_public_functions_bit_for_bit(self, frame, controller):
        rows = reference_rows(frame, controller.roi)
        expected_samples, expected_log = replay_bits(reference_replay_samples, rows, controller)
        samples, log = replay_bits(track, rows, controller)
        assert len(samples) == len(expected_samples) == len(rows)
        for i, (a, e) in enumerate(zip(samples, expected_samples)):
            assert a == e, f"row {i}"
        assert log == expected_log
        # the rows reach every sector, and the hold re-sends its frame
        assert {sector for _, sector, _ in samples} == set(Sector)
        assert any(a[1] == b[1] for a, b in zip(log, log[1:]))

    @pytest.mark.parametrize("frame,controller", [
        pytest.param(*replay_controller(), id="default"),
        pytest.param(*replay_controller(rate=0.05), id="rate-0.05"),
    ])
    def test_link_is_called_only_when_the_command_is_or_was_non_idle(self, frame, controller):
        rows = reference_rows(frame, controller.roi)
        link, sent = recording_link()
        samples = list(track(rows, controller, link.send))
        active = [yaw != 0.0 or pitch != 0.0 for _, _, _, _, _, yaw, pitch, _ in samples]
        # the first row counts as following a non-idle one: the link's state is not the loop's to assume
        expected = [i for i, on in enumerate(active) if on or i == 0 or active[i - 1]]
        assert [now for _, now in sent] == [rows[i][0] for i in expected]
        assert sum(active) < len(expected) < len(rows)
        # plain tuples in TrialSample's field order: row_lines reads them by position
        for row in samples:
            assert type(row) is tuple and row == TrialSample(*row)

    def test_centre_rows_only_make_no_frame_and_at_most_one_call(self):
        frame, controller = replay_controller()
        link, sent = recording_link()
        rows = [(i / 30, frame.width / 2, frame.height / 2) for i in range(300)]
        assert len(list(track(rows, controller, link.send))) == 300
        assert len(sent) <= 1 and link.transport.log == []


def _in_frame(side: int):
    return st.one_of(st.sampled_from([0.0, -0.0, float(side), side / 2]), st.floats(0.0, float(side)))


def _off_frame(side: int):
    edges = [-5e-324, -1.0, math.nextafter(side, math.inf), 1e200, math.nan, math.inf, -math.inf]
    return st.one_of(st.sampled_from(edges), st.floats(max_value=-5e-324), st.floats(min_value=side, exclude_min=True))


@st.composite
def _replay_run(draw):
    """A config the CLI accepts (frame, ROI, a rate the link carries), a 30 Hz
    log of up to 40 rows (maybe none) inside its frame, and maybe one row moved
    off it: (config, rows, off)."""
    sides = st.one_of(st.sampled_from([1, 720, 1920, 2**20]), st.integers(1, 5000))
    width, height = draw(sides), draw(sides)
    config = {
        "frame_width_px": width,
        "frame_height_px": height,
        "roi_frac_x": draw(st.floats(0.05, 0.49)),
        "roi_frac_y": draw(st.floats(0.05, 0.49)),
        "rate_rad_s": draw(st.integers(1, 30)) / 100,
    }
    points = draw(st.lists(st.tuples(_in_frame(width), _in_frame(height)), max_size=40))
    off = bool(points) and draw(st.booleans())
    if off:
        i, axis = draw(st.integers(0, len(points) - 1)), draw(st.integers(0, 1))
        point = list(points[i])
        point[axis] = draw(_off_frame((width, height)[axis]))
        points[i] = tuple(point)
    return config, [(i / 30, x, y) for i, (x, y) in enumerate(points)], off


@settings(max_examples=100, deadline=None)
@given(_replay_run())
def test_replay_telemetry_is_what_report_reads_or_replay_refuses_the_log(run):
    """Replay of an in-frame 30 Hz log writes telemetry that ``report`` accepts;
    one row off the frame, or no row at all, makes replay exit 1 before it
    writes anything."""
    config, rows, off = run
    with tempfile.TemporaryDirectory() as tmp:
        cfg, log, out = Path(tmp) / "run.cfg", Path(tmp) / "log.csv", Path(tmp) / "out"
        cfg.write_text("".join(f"{key} = {value!r}\n" for key, value in config.items()))
        log.write_text("t,x,y\n" + "".join(f"{t!r},{x!r},{y!r}\n" for t, x, y in rows))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["replay", str(log), "--config", str(cfg), "--out-dir", str(out)])
            if off or not rows:
                assert code == EXIT_USAGE
                assert not out.exists()
                return
            assert code == EXIT_OK
            telemetry = str(out / "replay_telemetry.csv")
            assert main(["report", telemetry, "--dt-s", "0.03333333333333333"]) == EXIT_OK


VALID_ROWS = [
    line[:-1].split(",")
    for line in row_lines(run_trial(TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=0.5)).samples)
]
FIELDS = st.one_of(
    st.text(max_size=20),
    st.sampled_from(["nan", "-inf", "1e308", "5e306", "-5", "-0", "0.31", "0.3", "", '"', "\x00", "top", "TRUE"]),
    st.integers(131_000, 140_000).map(lambda n: "9" * n),
)


@st.composite
def _mutated_telemetry(draw):
    """The header and rows of a short run, with one field replaced."""
    rows = [list(CSV_COLUMNS)] + [list(row) for row in VALID_ROWS]
    rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, len(CSV_COLUMNS) - 1))] = draw(FIELDS)
    return "".join(",".join(row) + "\n" for row in rows).encode()


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode), _mutated_telemetry()))
def test_any_telemetry_file_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "trial.csv"
        csv_path.write_bytes(data)
        assert main(["report", str(csv_path)]) in (EXIT_OK, EXIT_USAGE, EXIT_IO)


def _log_uniform(lo: float, hi: float):
    """Floats in [lo, hi] (both positive), uniform in their logarithm, ends included."""
    exponents = st.floats(math.log10(lo), math.log10(hi))
    return st.one_of(st.sampled_from([lo, hi]), exponents.map(lambda e: min(max(10.0 ** e, lo), hi)))


def _signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda pair: pair[0] * pair[1])


_SIDES = st.one_of(st.sampled_from([1, 2**20]), st.floats(0.0, 20.0).map(lambda e: round(2.0**e)))


@st.composite
def _simulate_settings(draw):
    """Every ``simulate`` setting over its accepted range, log-uniform where
    that spans decades; 1 to 200 steps per trial."""
    dt = draw(_log_uniform(1e-9, 1e3))
    return {
        "arena": draw(st.sampled_from([1, 2])),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**31)),
        "dt_s": dt,
        "duration_s": draw(st.integers(1, 200)) * dt,
        "usv_speed_mps": draw(st.one_of(st.just(0.0), _log_uniform(1e-5, 1e300))),
        "jitter_m": draw(st.one_of(st.just(0.0), st.floats(0.0, 1000.0), _log_uniform(1e-300, 1000.0))),
        "lookahead_m": draw(_log_uniform(1e-300, 1e300)),
        "roi_frac_x": draw(st.floats(0.05, 0.49)),
        "roi_frac_y": draw(st.floats(0.05, 0.49)),
        "rate_rad_s": draw(st.one_of(st.floats(0.0, 0.3, exclude_min=True), _log_uniform(5e-324, 0.3))),
        "fov_deg": draw(st.one_of(st.floats(0.001, 179.999), _log_uniform(0.001, 179.999))),
        "frame_width_px": draw(_SIDES),
        "frame_height_px": draw(_SIDES),
        "uav_x_m": draw(st.one_of(st.just(0.0), _signed(_log_uniform(1e-300, 1000.0)))),
        "uav_y_m": draw(st.one_of(st.just(0.0), _signed(_log_uniform(1e-300, 1000.0)))),
        "altitude_m": draw(_log_uniform(1e-300, 1000.0)),
    }


# The settings that simulate also takes as flags, and the default 3-trial
# seed-7 run, every one of them given but the arena and its duration.
_FLAGGED = ("arena", "trials", "seed", "duration_s", "dt_s", "roi_frac_x", "roi_frac_y", "rate_rad_s", "fov_deg")
_DEFAULT_RUN = {"trials": 3, "seed": 7, "dt_s": DEFAULT_DT_S, "roi_frac_x": 0.3, "roi_frac_y": 0.3, "rate_rad_s": 0.3,
                "fov_deg": 90.0}


@settings(max_examples=100, deadline=None)
# the default run of each arena, as flags, run every time beside the drawn examples
@example(values={"arena": 1, "duration_s": 24.0, **_DEFAULT_RUN}, as_flags=True)
@example(values={"arena": 2, "duration_s": 12.7, **_DEFAULT_RUN}, as_flags=True)
@given(values=_simulate_settings(), as_flags=st.booleans())
def test_report_reproduces_the_summary_over_every_settings_range(values, as_flags):
    """Over the whole accepted range of every setting, given in a config or,
    where it has a flag, maybe as its flag: ``simulate`` tallies each row as
    it writes it, and ``report --dt-s <dt>`` reads its one CSV per trial back
    and prints exactly the ``summary.txt`` that ``simulate`` wrote.  Both agree
    on whether the run holds.  Or ``simulate`` exits 1 and writes nothing."""
    flagged = {key: value for key, value in values.items() if as_flags and key in _FLAGGED}
    flags = [text for key, value in flagged.items() for text in ("--" + key.replace("_", "-"), repr(value))]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items() if key not in flagged))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", "--config", str(config), *flags, "--out-dir", str(out)])
        if code == EXIT_USAGE:
            assert not out.exists()
            return
        assert code in (EXIT_OK, EXIT_TRACKING_LOST)
        summary = (out / "summary.txt").read_text()
        assert ("success = true" in summary) == (code == EXIT_OK)
        csvs = [str(path) for path in sorted(out.glob("trial_*.csv"))]
        assert len(csvs) == values["trials"]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            assert main(["report", *csvs, "--dt-s", repr(values["dt_s"])]) == EXIT_OK
        assert printed.getvalue() == summary


# The longest frame, "Pitch -0.25" and its line feed, on the 9600 bps line.
_LONGEST_FRAME_S = len(b"Pitch -0.25\n") * BITS_PER_BYTE_ON_WIRE / LINE_RATE_BPS


@st.composite
def _agreement_settings(draw):
    """One ``simulate`` trial of up to 4 s over arenas, seeds, ROI fractions,
    frame sizes, rates the link carries (whole hundredths) and loop periods,
    some of them shorter than a frame's time on the wire."""
    dt = draw(st.one_of(st.just(DEFAULT_DT_S), _log_uniform(0.001, 0.2)))
    return {
        "arena": draw(st.sampled_from([1, 2])),
        "seed": draw(st.integers(0, 2**31)),
        "dt_s": dt,
        "duration_s": draw(st.floats(dt, 4.0)),
        "roi_frac_x": draw(st.floats(0.05, 0.49)),
        "roi_frac_y": draw(st.floats(0.05, 0.49)),
        "rate_rad_s": draw(st.integers(1, 30)) / 100,
        "frame_width_px": draw(_SIDES),
        "frame_height_px": draw(_SIDES),
    }


def write_raw_log(log, recorded, half_w, half_h):
    """Write simulate's rows as a replay log: each centred ``x, y`` turned back
    into raw top-left pixels of a frame of half-size ``half_w`` by ``half_h``,
    which are returned."""
    raw = [(float(x) + half_w, half_h - float(y)) for _, x, y, *_ in recorded]
    log.write_text("t,x,y\n" + "".join(f"{row[0]},{x!r},{y!r}\n" for row, (x, y) in zip(recorded, raw)))
    return raw


def test_replay_of_the_seed_7_arena_1_trial_gives_exactly_its_sectors_and_commands(tmp_path):
    """The property below, pinned to one run with no row excepted: every row of
    the default seed-7 arena-1 trial is visible, and replay under its manifest
    gives the same sector and commands on every row."""
    sim, log, out = tmp_path / "sim", tmp_path / "log.csv", tmp_path / "out"
    assert run_cli("simulate", "--arena", 1, "--trials", 1, "--seed", 7, "--out-dir", sim) == EXIT_OK
    recorded = [line.split(",") for line in (sim / "trial_001.csv").read_text().splitlines()[1:]]
    assert len(recorded) == 720 and all(row[7] == "true" for row in recorded)
    write_raw_log(log, recorded, 960.0, 360.0)
    assert run_cli("replay", log, "--config", sim / MANIFEST_NAME, "--out-dir", out) == EXIT_OK
    replayed = [line.split(",") for line in (out / "replay_telemetry.csv").read_text().splitlines()[1:]]
    assert [row[4:7] for row in replayed] == [row[4:7] for row in recorded]


@settings(max_examples=60, deadline=None)
@given(_agreement_settings())
def test_replay_of_a_simulated_trial_gives_its_sectors_and_commands(values):
    """The two paths that run the controller agree.  A ``simulate`` trial whose
    rows are all visible, turned back into raw pixels and replayed under the
    run's manifest, gives the same sector and commands on every row, except
    where the 9-digit ``x, y`` moved the point across ``P = 1`` or a diagonal:
    rows that ``decide`` on the re-entered point already tells from the
    recorded row.  Rows closer than one frame's time on the wire may make
    replay exit 1 for link saturation instead.  Beside each drawn trial, a
    fixed log of one row per outer sector, each at the middle of a frame edge,
    gives that sector and its command: a trial may never leave the ROI."""
    with tempfile.TemporaryDirectory() as tmp:
        config, sim, log, out = Path(tmp) / "run.cfg", Path(tmp) / "sim", Path(tmp) / "log.csv", Path(tmp) / "out"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in values.items()))
        edges, width, height = Path(tmp) / "edges", values["frame_width_px"], values["frame_height_px"]
        rate = fmt_float(values["rate_rad_s"])
        write_log(log, [(0, width, height / 2), (1, width / 2, 0), (2, 0, height / 2), (3, width / 2, height)])
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replay", str(log), "--config", str(config), "--out-dir", str(edges)]) == EXIT_OK
        assert [line.split(",")[4:7] for line in (edges / "replay_telemetry.csv").read_text().splitlines()[1:]] == [
            ["right", rate, "0"], ["top", "0", rate], ["left", "-" + rate, "0"], ["bottom", "0", "-" + rate]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["simulate", "--config", str(config), "--out-dir", str(sim)]) in (EXIT_OK, EXIT_TRACKING_LOST)
        recorded = [line.split(",") for line in (sim / "trial_001.csv").read_text().splitlines()[1:]]
        if any(row[7] != "true" for row in recorded):
            return
        half_w, half_h = values["frame_width_px"] / 2, values["frame_height_px"] / 2
        raw = write_raw_log(log, recorded, half_w, half_h)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["replay", str(log), "--config", str(sim / "manifest.txt"), "--out-dir", str(out)])
        if code == EXIT_USAGE:
            assert values["dt_s"] < _LONGEST_FRAME_S
            assert "rows too dense for the serial link" in err.getvalue()
            assert not out.exists()
            return
        assert code == EXIT_OK
        replayed = [line.split(",") for line in (out / "replay_telemetry.csv").read_text().splitlines()[1:]]
        assert len(replayed) == len(recorded)
        frame = FrameSpec(values["frame_width_px"], values["frame_height_px"])
        roi = EllipseRoi.from_fractions(frame, values["roi_frac_x"], values["roi_frac_y"])
        controller = ControllerConfig(roi=roi, frame=frame, rate_magnitude=values["rate_rad_s"])
        for i, (row, again, (raw_x, raw_y)) in enumerate(zip(recorded, replayed, raw)):
            assert again[0] == row[0], f"row {i}"
            x, y = raw_x - half_w, half_h - raw_y  # replay's centring
            p, sector, cmd = decide(x, y, controller)
            if (sector.value, cmd.yaw_rate, cmd.pitch_rate) != (row[4], float(row[5]), float(row[6])):
                # 9 digits move a point by at most 5e-9 of the frame
                assert abs(p - 1.0) <= 1e-6 or abs(abs(x) - abs(y)) <= 1e-7 * (half_w + half_h), f"row {i}"
                continue
            assert again[4:7] == row[4:7], f"row {i}"


class TestTalliedRows:
    # -0.0 and 0.0 commands print 0 and are idle; 5e-324 prints non-zero and is
    # active; one row is invisible
    SAMPLES = [
        TrialSample(1 / 30, 0.0, 0.0, 0.5, Sector.RIGHT, 0.0, -0.0, True),
        TrialSample(2 / 30, 900.0, 0.0, 3.0, Sector.RIGHT, 0.3, 0.0, True),
        TrialSample(3 / 30, 0.0, 300.0, 2.0, Sector.TOP, -0.0, 5e-324, True),
        TrialSample(4 / 30, 0.0, 0.0, 0.0, Sector.RIGHT, -0.0, -0.0, False),
        TrialSample(5 / 30, 0.0, -300.0, 2.0, Sector.BOTTOM, 0.0, -0.3, True),
    ]

    def test_each_row_is_tallied_from_its_own_text(self, tmp_path):
        acc = RecordTally(DEFAULT_DT_S)
        lines = list(row_lines(self.SAMPLES))
        assert tally_rows(lines, acc, "trial.csv") is None  # a plain loop: it has run when it returns
        acc.finish()
        assert (acc.yaw_n, acc.pitch_n, acc.overlap_n, acc.success) == (1, 2, 0, False)
        path = tmp_path / "trial.csv"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + "".join(lines))
        read = tally(read_record(path, DEFAULT_DT_S))
        assert (read.yaw_n, read.pitch_n, read.overlap_n, read.success) == (1, 2, 0, False)
        assert acc.excursions == read.excursions and len(acc.excursions) == 2

    def test_a_run_of_visible_rows_succeeds(self):
        acc = RecordTally(DEFAULT_DT_S)
        visible = [s._replace(t=(i + 1) / 30) for i, s in enumerate(s for s in self.SAMPLES if s.visible)]
        tally_rows(row_lines(visible), acc, "trial.csv")
        assert acc.finish().success


# Extremes for one setting's config text: zero, negative, +-huge (as a float
# and as a whole number, within and beyond float range), the smallest
# subnormal, NaN and a wrong type.
SETTING_EXTREMES = [
    "0", "-1", "1e308", "-1e308", str(10**308), str(-(10**308)), str(10**309), str(-(10**309)), "5e-324", "nan", "x"
]


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(list(SETTINGS)), text=st.sampled_from(SETTING_EXTREMES))
def test_any_extreme_setting_exits_with_a_documented_code(key, text):
    """One setting at an extreme, the rest a 1 s run on arena 1 (30 steps).
    No extreme of ``duration_s``, ``dt_s`` or ``trials`` is accepted: each is
    too short for one step, non-finite, or over the run-size limit, which is
    checked before stepping.  So every run that goes ahead is small."""
    values = {"arena": "1", "duration_s": "1.0", key: text}
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--out-dir", str(out)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_TRACKING_LOST, EXIT_IO)
        assert "Traceback" not in err.getvalue()
        if code == EXIT_USAGE:
            assert not out.exists()
        if code in (EXIT_OK, EXIT_TRACKING_LOST):
            rows = sum(len(path.read_text().splitlines()) - 1 for path in out.glob("trial_*.csv"))
            assert rows <= 10**4


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """sha256 of the artifacts of two fixed runs, recorded with CPython 3.11 on
    x86-64 Linux.  Any change to how a sample is computed, formatted or
    written changes them; the CLI promises byte-stable artifacts."""

    def test_simulate_arena_2_seed_7(self, tmp_path):
        # the manifest's bytes hold __version__ too, so a version bump changes its hash
        out = tmp_path / "sim"
        assert run_cli("simulate", "--arena", 2, "--trials", 2, "--seed", 7, "--out-dir", out) == EXIT_OK
        names = ("manifest.txt", "summary.txt", "trial_001.csv", "trial_002.csv")
        assert {name: sha256_of(out / name) for name in names} == {
            "manifest.txt": "d1a2e35e0a2c431337bc679685159edae24796eb0759dcdf08eaaf096c030a91",
            "summary.txt": "87c48f983aa556d948b8a2fe0417b3b9cf01979bf17a736c62cf7b1a6370feb0",
            "trial_001.csv": "5d44d68891e1f4350fba6fc1368f7ba1b2f6f92ae2a86aefb6db01265ffaf0c4",
            "trial_002.csv": "f1cbfa4ca84b7d5797508d9f926fadec032b1ed7a8111c60bb8d33ef5adee7c2",
        }

    def test_simulate_arena_2_reaching_the_open_end(self, tmp_path):
        # Seeds 9-11 drive the boat to the end of the open track, where
        # pursuit's arc-length lookup runs past the last leg.
        out = tmp_path / "sim"
        assert run_cli("simulate", "--arena", 2, "--trials", 3, "--seed", 9, "--out-dir", out) == EXIT_OK
        names = ("summary.txt", "trial_001.csv", "trial_002.csv", "trial_003.csv")
        assert {name: sha256_of(out / name) for name in names} == {
            "summary.txt": "d22d16778325cf538e6bd0dfe362dcd60aecc5389cce29ae03d3c18bc2c3d0c4",
            "trial_001.csv": "b8195eda4e4d7cf76deb9e69f9273b6ad4cfb1a587f9c214bcc1050033e18b9e",
            "trial_002.csv": "96a4e6b68bcb237caa0a923e9bd4033c35a81f05381a7248902ef20ae226d76b",
            "trial_003.csv": "dfcf28dedbd5a9847e5e63fbc414bc4f25876073498fbe4e9642010dbbc9d3cc",
        }

    def test_trial_samples_reaching_the_open_end_are_bit_exact(self):
        # The CSVs round to 9 digits, which hides a last-ulp change near the
        # end of the track; this digest covers every bit of the same samples.
        digest = hashlib.sha256()
        for record in run_batch(TrialConfig.baseline(2), 3, [9, 10, 11]):
            for s in record.samples:
                digest.update(struct.pack("<6d", s.t, s.x, s.y, s.p, s.yaw_cmd, s.pitch_cmd))
        assert digest.hexdigest() == "119ce807c7d98d67dc989f52874aeeb863dd66429243aff5ef8bb6c6c474882d"

    def test_replay_fixed_log(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert {name: sha256_of(out / name) for name in ("replay_telemetry.csv", "replay_frames.csv")} == {
            "replay_telemetry.csv": "6c3be6af2cb8a2d4f1958228b455dc53e91571042ca52a28d515f38b530d2966",
            "replay_frames.csv": "64f041251a218fe9bc4f7ecd99237d9692115abb6be3f75db3f9bd945f50cd1c",
        }


class TestSampleRow:
    def test_command_fields_are_their_formatted_rates(self):
        # more distinct rates than the command-text cache holds
        samples = [
            TrialSample(1.0, 2.0, 3.0, 4.0, Sector.LEFT, -0.3 * k / 200, 0.3 * k / 200, True) for k in range(1, 200)
        ]
        for s, line in zip(samples, row_lines(samples)):
            assert line[:-1].split(",")[5:] == [fmt_float(s.yaw_cmd), fmt_float(s.pitch_cmd), "true"]

    def test_zero_command_prints_zero_whatever_its_sign(self):
        rows = row_lines([TrialSample(1.0, 2.0, 3.0, 0.5, Sector.TOP, -0.0, 0.0, False)])
        assert list(rows) == ["1,2,3,0.5,top,0,0,false\n"]


def oracle_line(sample) -> str:
    """A telemetry row built field by field: ``fmt_float`` per number, "0" for
    a zero command of either sign, and true/false."""
    def command(value):
        return "0" if value == 0.0 else fmt_float(value)

    t, x, y, p, sector, yaw, pitch, visible = sample
    fields = [fmt_float(t), fmt_float(x), fmt_float(y), fmt_float(p), sector.value, command(yaw), command(pitch)]
    return ",".join(fields + ["true" if visible else "false"]) + "\n"


ROW_NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 1e308, -1e308]),
)
ROW_COMMANDS = st.one_of(st.sampled_from([0.0, -0.0, 0.3, -0.3]), st.floats(-0.3, 0.3), ROW_NUMBERS)
ROW_SAMPLES = st.builds(
    TrialSample, ROW_NUMBERS, ROW_NUMBERS, ROW_NUMBERS, ROW_NUMBERS,
    st.sampled_from(list(Sector)), ROW_COMMANDS, ROW_COMMANDS, st.booleans(),
)


class TestRowCodec:
    @settings(max_examples=300)
    @given(samples=st.lists(ROW_SAMPLES, max_size=40))
    def test_lines_match_the_field_by_field_oracle(self, samples):
        assert list(row_lines(samples)) == [oracle_line(s) for s in samples]

    def test_cached_tails_stay_right_across_many_rates(self, tmp_path):
        # every sector, -0.0 commands and 60 distinct rates, each rate with
        # both signs and both visibilities
        samples = []
        for k in range(240):
            rate = 0.3 * (k % 60 + 1) / 60 * (-1) ** (k // 60)
            sector = list(Sector)[k % 4]
            yaw, pitch = (rate, -0.0) if k % 3 else (0.0, rate)
            samples.append(TrialSample(k / 30, 1e308 / (k + 1), -5e-324 * k, math.inf, sector, yaw, pitch, k < 120))
        expected = [oracle_line(s) for s in samples]
        assert list(row_lines(samples)) == expected
        path = tmp_path / "rows.csv"
        write_trial_csv(row_lines(samples), path)
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n" + "".join(expected)


class TestReport:
    def test_matches_batch_summary_byte_for_byte(self, sim_dir, capsys):
        csvs = sorted(sim_dir.glob("trial_*.csv"))
        assert run_cli("report", *csvs) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == (sim_dir / "summary.txt").read_text()

    def test_close_to_in_memory_summary(self, sim_dir):
        csvs = sorted(sim_dir.glob("trial_*.csv"))
        records = [read_record(p, DEFAULT_DT_S) for p in csvs]
        report = summarize(records)
        assert serialize_report(report) == (sim_dir / "summary.txt").read_text()

    def test_no_excursion_record_reports_absent(self, tmp_path, capsys):
        csv_path = tmp_path / "quiet.csv"
        csv_path.write_text(telemetry_text(*(f"{(i + 1) / 30:.9g},0,0,0,right,0,0,true" for i in range(10))))
        assert run_cli("report", csv_path) == EXIT_OK
        out = capsys.readouterr().out
        assert "n = 0" in out
        assert "normalized_s" not in out
        assert "mean_s" not in out

    @pytest.mark.parametrize("times,dt", [
        (["10", "10.00000001", "10.00000002"], "1e-8"),
        (["1e-9", "2e-9", "3e-9"], "1e-9"),
        (["1000", "2000"], "1000"),
    ])
    def test_gap_of_a_tiny_or_large_dt_is_accepted(self, tmp_path, times, dt):
        csv_path = tmp_path / "fine.csv"
        csv_path.write_text(telemetry_text(*(f"{t},0,0,0,right,0,0,true" for t in times)))
        assert run_cli("report", csv_path, "--dt-s", dt) == EXIT_OK

    @pytest.mark.parametrize(
        "row",
        [
            "0.999,left,0,0,true",
            "1,left,0,0,true",  # P in (1, 1 + 5e-9] prints as 1, with or without a command
            "1,left,-0.3,0,true",
            "1,top,0,0.1,true",
            "3,bottom,0,-0.05,true",  # any magnitude: the CSV does not record rate_rad_s
            "3,right,0,0,false",
            "0.5,top,0,0,false",
        ],
    )
    def test_command_consistent_with_p_is_accepted(self, tmp_path, row):
        csv_path = tmp_path / "fine.csv"
        csv_path.write_text(telemetry_text(_ROW + row))
        assert run_cli("report", csv_path) == EXIT_OK

    def test_long_number_field_is_read_as_its_value(self, tmp_path, capsys):
        # a row is split on commas, with no field-size limit: 200,000 zeros are 0
        texts = {}
        for name, x_text in (("long", "0" * 200_000), ("short", "0")):
            path = tmp_path / f"{name}.csv"
            path.write_text(telemetry_text(f"0.0333333333,{x_text},0,0,right,0,0,true"))
            assert run_cli("report", path) == EXIT_OK
            texts[name] = capsys.readouterr().out
        assert texts["long"] == texts["short"]

    def test_crlf_lines_and_a_missing_final_newline_read_the_same(self, sim_dir, tmp_path, capsys):
        data = (sim_dir / "trial_001.csv").read_bytes()
        assert run_cli("report", sim_dir / "trial_001.csv") == EXIT_OK
        expected = capsys.readouterr().out
        for name, copy in (("crlf.csv", data.replace(b"\n", b"\r\n")), ("unterminated.csv", data[:-1])):
            path = tmp_path / name
            path.write_bytes(copy)
            assert run_cli("report", path) == EXIT_OK
            assert capsys.readouterr().out == expected, name
