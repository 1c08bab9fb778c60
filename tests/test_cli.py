from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roitrack.arenas import parse_kv_text
from roitrack.cli import EXIT_IO, EXIT_OK, EXIT_TRACKING_LOST, EXIT_USAGE, SETTINGS, main
from roitrack.controller import ControllerConfig, step
from roitrack.geometry import (
    EllipseRoi,
    FrameSpec,
    classify_sector,
    relative_position,
    to_centered,
    to_polar,
)
from roitrack.metrics import summarize
from roitrack.telemetry import fmt_float, read_trial_csv, serialize_report
from roitrack.trials import DEFAULT_DT_S


def run_cli(*args):
    return main([str(a) for a in args])


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

    def test_rows_match_duration(self, sim_dir):
        record = read_trial_csv(sim_dir / "trial_001.csv", dt=DEFAULT_DT_S)
        assert len(record.samples) == round(6.0 / DEFAULT_DT_S)

    def test_zero_duration_is_usage_error(self, tmp_path):
        code = run_cli("simulate", "--arena", 1, "--trials", 1,
                       "--duration-s", 0, "--out-dir", tmp_path / "x")
        assert code == EXIT_USAGE

    def test_bad_arena_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--arena", 9, "--out-dir", tmp_path / "x") == EXIT_USAGE

    def test_missing_arena_is_usage_error(self, tmp_path):
        assert run_cli("simulate", "--out-dir", tmp_path / "x") == EXIT_USAGE

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

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("warp_speed = 9\n")
        assert run_cli("simulate", "--arena", 1, "--config", config,
                       "--out-dir", tmp_path / "x") == EXIT_USAGE

    def test_duplicate_config_key_is_usage_error(self, tmp_path):
        config = tmp_path / "twice.cfg"
        config.write_text("seed = 1\nseed = 1\n")
        assert run_cli("simulate", "--arena", 1, "--config", config,
                       "--out-dir", tmp_path / "x") == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--rate-rad-s", 0.5),
        ("--roi-frac-x", 0.6),
        ("--fov-deg", 190),
    ])
    def test_out_of_range_controller_flags_are_usage_errors(self, tmp_path, flag, value):
        assert run_cli("simulate", "--arena", 1, flag, value,
                       "--out-dir", tmp_path / "x") == EXIT_USAGE

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

    def test_out_dir_env_var(self, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("ROITRACK_OUT_DIR", str(target))
        assert run_cli("simulate", "--arena", 1, "--trials", 1, "--duration-s", 2.0) == EXIT_OK
        assert (target / "trial_001.csv").exists()

    def test_manifest_records_fixture_hash_and_seeds(self, sim_dir):
        manifest = (sim_dir / "manifest.txt").read_text()
        assert "arena_fixture_sha256 = " in manifest
        assert "seeds = 7 8 9" in manifest
        assert "tool_version = " in manifest

    def test_manifest_records_fov_as_given(self, tmp_path):
        out = tmp_path / "fov"
        assert run_cli("simulate", "--arena", 1, "--duration-s", 1.0, "--fov-deg", 96,
                       "--out-dir", out) == EXIT_OK
        assert "fov_deg = 96.0\n" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("flag,value", [("--duration-s", "nan"), ("--dt-s", "inf"), ("--dt-s", 100)])
    def test_non_finite_or_stepless_timing_is_usage_error(self, tmp_path, flag, value):
        assert run_cli("simulate", "--arena", 1, flag, value, "--out-dir", tmp_path / "x") == EXIT_USAGE

    def test_non_finite_config_value_is_usage_error(self, tmp_path):
        config = tmp_path / "nan.cfg"
        config.write_text("lookahead_m = nan\n")
        assert run_cli("simulate", "--arena", 1, "--config", config,
                       "--out-dir", tmp_path / "x") == EXIT_USAGE

    def test_undecodable_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "binary.cfg"
        config.write_bytes(b"seed = \xff\n")
        assert run_cli("simulate", "--arena", 1, "--config", config,
                       "--out-dir", tmp_path / "x") == EXIT_USAGE
        assert "binary.cfg" in capsys.readouterr().err


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

        manifest = parse_kv_text((first / "manifest.txt").read_text())
        for key, value in NON_DEFAULT_SETTINGS.items():
            assert manifest[key] == repr(11 if key == "seed" else value), key
        assert manifest["seeds"] == "11 12"

        rerun = tmp_path / "rerun"
        assert run_cli("simulate", "--config", first / "manifest.txt", "--out-dir", rerun) == EXIT_OK
        names = sorted(p.name for p in first.iterdir())
        assert names == ["manifest.txt", "summary.txt", "trial_001.csv", "trial_002.csv"]
        assert names == sorted(p.name for p in rerun.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), name


def write_log(path, rows):
    lines = ["t,x,y"] + [f"{t},{x},{y}" for t, x, y in rows]
    path.write_text("\n".join(lines) + "\n")


# 3 s of raw pixel rows sweeping the ellipse and all four sectors
SWEEP_ROWS = [(i / 30, 960 + (i * 37) % 1400 - 700, 360 + (i * 53) % 640 - 320) for i in range(90)]


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
        # synthetic track marching out the right side of the frame
        rows = [(i / 30, 960.0 + 40.0 * i, 360.0) for i in range(30)]
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

        record = read_trial_csv(out / "replay_telemetry.csv", dt=DEFAULT_DT_S)
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

    def test_empty_file_gives_empty_outputs(self, tmp_path):
        log = tmp_path / "empty.csv"
        log.write_text("")
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert (out / "replay_telemetry.csv").read_text().splitlines() == [
            "t,x,y,P,sector,yaw_cmd,pitch_cmd,visible"
        ]
        assert (out / "replay_frames.csv").read_text().splitlines() == ["t,frame"]

    def test_malformed_row_reports_line_number(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("t,x,y\n0.0,960,360\n0.033,oops,360\n")
        assert run_cli("replay", log, "--out-dir", tmp_path / "r") == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err

    def test_non_monotonic_time_rejected(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("t,x,y\n0.1,960,360\n0.1,961,360\n")
        assert run_cli("replay", log, "--out-dir", tmp_path / "r") == EXIT_USAGE
        assert "non-monotonic" in capsys.readouterr().err

    def test_missing_log_is_io_error(self, tmp_path):
        assert run_cli("replay", tmp_path / "nope.csv", "--out-dir", tmp_path / "r") == EXIT_IO

    @pytest.mark.parametrize("row", ["0.0333,nan,360", "0.0333,inf,360", "0.0333,960,-inf", "nan,960,360"])
    def test_non_finite_value_rejected(self, tmp_path, capsys, row):
        log = tmp_path / "bad.csv"
        log.write_text(f"t,x,y\n0.0,960,360\n{row}\n")
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_USAGE
        assert "line 3" in capsys.readouterr().err
        assert not out.exists()

    def test_dense_log_saturating_the_link_is_usage_error(self, tmp_path, capsys):
        # alternating hard left / hard right, 1 ms apart: every row changes the
        # command, and one frame takes about 8 ms on the 9600 bps line
        log = tmp_path / "dense.csv"
        write_log(log, [(i / 1000, 20 if i % 2 == 0 else 1900, 360) for i in range(20)])
        out = tmp_path / "r"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_USAGE
        assert "t=0.001000" in capsys.readouterr().err
        assert not (out / "replay_telemetry.csv").exists()
        assert not (out / "replay_frames.csv").exists()

    def test_fov_flag_is_not_accepted(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        assert run_cli("replay", log, "--fov-deg", 30, "--out-dir", tmp_path / "r") == EXIT_USAGE

    def test_manifest_is_a_valid_config(self, sim_dir, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        out = tmp_path / "r"
        assert run_cli("replay", log, "--config", sim_dir / "manifest.txt", "--out-dir", out) == EXIT_OK
        default = tmp_path / "d"
        assert run_cli("replay", log, "--out-dir", default) == EXIT_OK
        for name in ("replay_telemetry.csv", "replay_frames.csv"):
            assert (out / name).read_bytes() == (default / name).read_bytes()


def _log_rows():
    coordinate = st.one_of(st.floats(), st.floats(-100.0, 2000.0))
    gaps = st.one_of(st.floats(0.0, 0.05), st.floats())
    return st.lists(st.tuples(gaps, coordinate, coordinate), max_size=20)


def _log_text(rows):
    t, lines = 0.0, ["t,x,y"]
    for gap, x, y in rows:
        t += gap
        lines.append(f"{t!r},{x!r},{y!r}")
    return ("\n".join(lines) + "\n").encode()


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.text(max_size=200).map(str.encode), _log_rows().map(_log_text)))
def test_any_replay_log_exits_with_a_documented_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        log, out = Path(tmp) / "log.csv", Path(tmp) / "out"
        log.write_bytes(data)
        code = main(["replay", str(log), "--out-dir", str(out)])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO)
        if code != EXIT_OK:
            assert not (out / "replay_telemetry.csv").exists()


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedBytes:
    """sha256 of the artifacts of two fixed runs, recorded with CPython 3.11 on
    x86-64 Linux.  Any change to how a sample is computed, formatted or
    written changes them; the CLI promises byte-stable artifacts."""

    def test_simulate_arena_2_seed_7(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--arena", 2, "--trials", 2, "--seed", 7, "--out-dir", out) == EXIT_OK
        assert {name: sha256_of(out / name) for name in ("summary.txt", "trial_001.csv", "trial_002.csv")} == {
            "summary.txt": "87c48f983aa556d948b8a2fe0417b3b9cf01979bf17a736c62cf7b1a6370feb0",
            "trial_001.csv": "5d44d68891e1f4350fba6fc1368f7ba1b2f6f92ae2a86aefb6db01265ffaf0c4",
            "trial_002.csv": "f1cbfa4ca84b7d5797508d9f926fadec032b1ed7a8111c60bb8d33ef5adee7c2",
        }

    def test_replay_fixed_log(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, SWEEP_ROWS)
        out = tmp_path / "replay"
        assert run_cli("replay", log, "--out-dir", out) == EXIT_OK
        assert {name: sha256_of(out / name) for name in ("replay_telemetry.csv", "replay_frames.csv")} == {
            "replay_telemetry.csv": "6c3be6af2cb8a2d4f1958228b455dc53e91571042ca52a28d515f38b530d2966",
            "replay_frames.csv": "64f041251a218fe9bc4f7ecd99237d9692115abb6be3f75db3f9bd945f50cd1c",
        }


class TestReport:
    def test_matches_batch_summary_byte_for_byte(self, sim_dir, capsys):
        csvs = sorted(sim_dir.glob("trial_*.csv"))
        assert run_cli("report", *csvs) == EXIT_OK
        printed = capsys.readouterr().out
        assert printed == (sim_dir / "summary.txt").read_text()

    def test_close_to_in_memory_summary(self, sim_dir):
        csvs = sorted(sim_dir.glob("trial_*.csv"))
        records = [read_trial_csv(p, dt=DEFAULT_DT_S) for p in csvs]
        report = summarize(records)
        assert serialize_report(report) == (sim_dir / "summary.txt").read_text()

    def test_no_excursion_record_reports_absent(self, tmp_path, capsys):
        csv_path = tmp_path / "quiet.csv"
        lines = ["t,x,y,P,sector,yaw_cmd,pitch_cmd,visible"]
        for i in range(10):
            lines.append(f"{(i + 1) / 30:.9g},0,0,0,right,0,0,true")
        csv_path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", csv_path) == EXIT_OK
        out = capsys.readouterr().out
        assert "n = 0" in out
        assert "normalized_s" not in out
        assert "mean_s" not in out

    def test_unparsable_csv_names_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.csv"
        bad.write_text("not,a,telemetry\n1,2,3\n")
        assert run_cli("report", bad) == EXIT_USAGE
        assert "garbage.csv" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, tmp_path):
        assert run_cli("report", tmp_path / "absent.csv") == EXIT_IO

    def test_dt_mismatch_names_file_and_line(self, sim_dir, capsys):
        path = sim_dir / "trial_001.csv"
        assert run_cli("report", path, "--dt-s", 0.5) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "trial_001.csv" in err and "line 3" in err

    def test_gap_in_sample_times_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "gap.csv"
        lines = ["t,x,y,P,sector,yaw_cmd,pitch_cmd,visible"]
        for i in (1, 2, 3, 5, 6):
            lines.append(f"{i / 30:.9g},0,0,0,right,0,0,true")
        csv_path.write_text("\n".join(lines) + "\n")
        assert run_cli("report", csv_path) == EXIT_USAGE
        assert "line 5" in capsys.readouterr().err

    def test_header_only_csv_is_usage_error(self, tmp_path):
        empty = tmp_path / "header_only.csv"
        empty.write_text("t,x,y,P,sector,yaw_cmd,pitch_cmd,visible\n")
        assert run_cli("report", empty) == EXIT_USAGE
