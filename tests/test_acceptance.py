"""Acceptance suite: each test enforces one release criterion at its stated
tolerance and prints a [PASS]/[FAIL] line (visible with `pytest -s`)."""

from __future__ import annotations

import contextlib
import math
import pickle
import random
import time

import pytest

from conftest import back_project, counted_forks, workers
from roitrack.controller import ControllerConfig, GimbalCommand, step
from roitrack.geometry import (
    EllipseRoi,
    FrameSpec,
    ImagePoint,
    Sector,
    classify_sector,
    relative_position,
    to_polar,
)
from roitrack.metrics import (
    control_expenditure,
    cross_arena_normalized,
    detect_excursions,
    normalized_sensitivity,
)
from roitrack.protocol import (
    BITS_PER_BYTE_ON_WIRE,
    LINE_RATE_BPS,
    CommandLink,
    MockTransport,
    decode,
    encode,
    format_rate,
)
from roitrack.trials import TrialConfig, run_batch
from roitrack.world import CameraModel, UavPose, UsvState, WorldState, aim_at, closed_loop_step
from roitrack.cli import main as cli_main

FRAME = FrameSpec(1920, 720)
ROI = EllipseRoi.from_fractions(FRAME)
CFG = ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=0.3)
CAM = CameraModel(frame=FRAME)
DT = 1.0 / 30.0

ACCEPTANCE_SEEDS = list(range(1, 21))


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {summary}")
        raise
    print(f"[PASS] criterion {number}: {summary}")


@pytest.fixture(scope="module")
def acceptance_batches():
    """20 seeded trials per arena, with the wall time they took."""
    start = time.perf_counter()
    batches = {
        arena: run_batch(TrialConfig.baseline(arena), len(ACCEPTANCE_SEEDS), ACCEPTANCE_SEEDS)
        for arena in (1, 2)
    }
    elapsed = time.perf_counter() - start
    return batches, elapsed


def test_criterion_1_relative_position_oracle_equivalence():
    with criterion(1, "relative position matches an independent oracle on 10k seeded samples in <1s"):
        rng = random.Random(20240601)
        start = time.perf_counter()
        for _ in range(10_000):
            x = rng.uniform(-960.0, 960.0)
            y = rng.uniform(-360.0, 360.0)
            a = rng.uniform(0.05, 0.49) * FRAME.width
            b = rng.uniform(0.05, 0.49) * FRAME.height
            ours = relative_position(ImagePoint(x, y), EllipseRoi(a, b))
            oracle = (x / a) ** 2 + (y / b) ** 2  # independently written arithmetic
            assert abs(ours - oracle) <= 1e-12
        assert time.perf_counter() - start < 1.0


def test_criterion_2_controller_truth_table():
    with criterion(2, "360-angle truth table reproduces the five-valued command map in <1s"):
        start = time.perf_counter()
        m = CFG.rate_magnitude
        sector_command = {
            Sector.RIGHT: (m, 0.0),
            Sector.LEFT: (-m, 0.0),
            Sector.TOP: (0.0, m),
            Sector.BOTTOM: (0.0, -m),
        }
        for k in range(360):
            theta = -math.pi + (k + 0.5) * (2 * math.pi / 360)
            c, s = math.cos(theta), math.sin(theta)
            base = math.sqrt(1.0 / (c * c / (ROI.a * ROI.a) + s * s / (ROI.b * ROI.b)))
            for p_target in (0.5, 1.0, 1.001, 4.0):
                point = ImagePoint(base * math.sqrt(p_target) * c, base * math.sqrt(p_target) * s)
                cmd = step(point, CFG)
                p_actual = relative_position(point, ROI)
                if p_actual <= 1.0:
                    assert cmd == GimbalCommand()
                else:
                    expected = sector_command[classify_sector(to_polar(point).theta)]
                    assert (cmd.yaw_rate, cmd.pitch_rate) == expected
        # quiescence exactly on the boundary, where P = 1.0 is exactly constructible
        for vertex in (ImagePoint(ROI.a, 0.0), ImagePoint(-ROI.a, 0.0),
                       ImagePoint(0.0, ROI.b), ImagePoint(0.0, -ROI.b)):
            assert relative_position(vertex, ROI) == 1.0
            assert step(vertex, CFG) == GimbalCommand()
        assert time.perf_counter() - start < 1.0


def test_criterion_3_mutual_exclusivity(acceptance_batches):
    with criterion(3, "yaw/pitch overlap is exactly zero over every simulated batch"):
        batches, _ = acceptance_batches
        for records in batches.values():
            for record in records:
                assert control_expenditure(record)[2] == 0.0


def test_criterion_4_closed_loop_recentering():
    with criterion(4, "100 frozen placements recenter monotonically near the geometric minimum"):
        uav = UavPose(0.0, 0.0, 1.83)
        gimbal0 = aim_at(uav, (0.0, 2.4, 0.0))

        def run(usv, dt_step, max_steps=30_000):
            w = WorldState(usv=usv, uav=uav, gimbal=gimbal0, time=0.0)
            ps, travel, actuated = [], 0.0, 0
            for _ in range(max_steps):
                w2, cmd, img, visible, *_ = closed_loop_step(w, 0.0, CFG, CAM, dt_step)
                assert visible
                ps.append(relative_position(img, CFG.roi))
                travel += abs(w2.gimbal.pan - w.gimbal.pan) + abs(w2.gimbal.tilt - w.gimbal.tilt)
                if not cmd.is_zero():
                    actuated += 1
                w = w2
                if ps[-1] <= 1.0:
                    return ps, travel, actuated
            raise AssertionError("recentering did not converge")

        rng = random.Random(42)
        placed = 0
        while placed < 100:
            # placements keep margin to the frame edge so recovery cannot push
            # the target out of view
            u = rng.uniform(-0.95, 0.95) * FRAME.width / 2
            v = rng.uniform(-1.0, 1.0) * 260.0
            if relative_position(ImagePoint(u, v), ROI) <= 1.05:
                continue
            ground = back_project(u, v, uav, gimbal0, CAM)
            if ground is None:
                continue
            placed += 1
            usv = UsvState(ground[0], ground[1], 0.0, 0.0)
            ps, _, actuated = run(usv, DT)
            assert all(b < a for a, b in zip(ps, ps[1:])), "P must decrease monotonically"
            # geometric minimum from a 64x finer reference run of the same loop
            _, theta_needed, _ = run(usv, DT / 64)
            allowed = math.ceil(1.1 * theta_needed / (0.3 * DT))
            assert actuated <= allowed


def test_criterion_5_simulation_protocol_reproduction(acceptance_batches):
    with criterion(5, "20 trials per arena: 100% visibility, >=1 excursion each, all excursions close, <10s"):
        batches, elapsed = acceptance_batches
        assert elapsed < 10.0
        for records in batches.values():
            for record in records:
                assert all(sample.visible for sample in record.samples)
                excursions = detect_excursions(record)
                assert len(excursions) >= 1
                assert all(exc.closed for exc in excursions)


def test_criterion_5_with_one_worker(acceptance_batches, monkeypatch):
    with criterion(5, "on one usable CPU, the 20 trials per arena are the same records, bit for bit, in <10s"):
        batches, _ = acceptance_batches
        workers(monkeypatch, 1)
        forks = counted_forks(monkeypatch)
        start = time.perf_counter()
        one_worker = {arena: run_batch(TrialConfig.baseline(arena), len(ACCEPTANCE_SEEDS), ACCEPTANCE_SEEDS)
                      for arena in (1, 2)}
        assert time.perf_counter() - start < 10.0
        assert forks == []
        # a record pickles as plain rows of floats, each float as its 8 bytes, so
        # equal pickles are equal bits; every criterion on the batches holds for these too
        assert pickle.dumps(one_worker) == pickle.dumps(batches)


def test_criterion_6_excursion_count_calibration(acceptance_batches):
    with criterion(6, "per-trial excursion counts within +-30% of n=18 (arena 1) and n=13 (arena 2)"):
        batches, _ = acceptance_batches
        bands = {1: (13, 23), 2: (9, 17)}
        for arena, records in batches.items():
            lo, hi = bands[arena]
            for record in records:
                n = len(detect_excursions(record))
                assert lo <= n <= hi, f"arena {arena}: n={n} outside [{lo}, {hi}]"


def test_criterion_7_normalization_pinned_to_reported_values():
    with criterion(7, "reported mean sensitivities normalize to 0.034 +- 0.001 across arenas"):
        arena1 = normalized_sensitivity(mean_s=0.6045, n=18)
        arena2 = normalized_sensitivity(mean_s=0.4536, n=13)
        combined = cross_arena_normalized([arena1, arena2])
        assert combined == pytest.approx(0.034, abs=1e-3)


def test_criterion_8_protocol_conformance(acceptance_batches):
    with criterion(8, "wire format exact, decode/encode identity, 30Hz replay under the 9600 bps budget"):
        (frame,) = encode(GimbalCommand(yaw_rate=0.2))
        assert frame.text == "Yaw 0.2"

        commands = [GimbalCommand(), GimbalCommand(yaw_rate=0.3), GimbalCommand(yaw_rate=-0.3),
                    GimbalCommand(pitch_rate=0.3), GimbalCommand(pitch_rate=-0.3)]
        for cmd in commands:
            frames = encode(cmd)
            assert frames == [] if cmd.is_zero() else decode(frames[0]) == cmd

        rng = random.Random(7)
        for _ in range(10_000):
            axis = rng.choice(["Yaw", "Pitch"])
            hundredths = rng.choice([k for k in range(-30, 31) if k != 0])
            text = f"{axis} {format_rate(hundredths / 100)}"
            cmd = decode(text)
            assert [f.text for f in encode(cmd)] == [text]

        batches, _ = acceptance_batches
        record = batches[1][0]
        transport = MockTransport()
        link = CommandLink(transport=transport)
        for sample in record.samples:
            link.send(GimbalCommand(yaw_rate=sample.yaw_cmd, pitch_rate=sample.pitch_cmd), now=sample.t)
        duration = record.samples[-1].t - record.samples[0].t
        wire_bits_per_s = transport.bytes_sent() * BITS_PER_BYTE_ON_WIRE / duration
        assert wire_bits_per_s < LINE_RATE_BPS


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "two runs of `simulate --arena 1 --trials 13 --seed 7` are byte-identical"):
        dirs = (tmp_path / "run_a", tmp_path / "run_b")
        for out in dirs:
            code = cli_main(["simulate", "--arena", "1", "--trials", "13", "--seed", "7",
                             "--out-dir", str(out)])
            assert code == 0
        names = sorted(p.name for p in dirs[0].glob("trial_*.csv"))
        assert len(names) == 13
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        assert (dirs[0] / "summary.txt").read_bytes() == (dirs[1] / "summary.txt").read_bytes()
