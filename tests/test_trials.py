from __future__ import annotations

import math
import random
import struct
from dataclasses import replace

import pytest

from roitrack.arenas import build_arena, pursue
from roitrack.controller import ControllerConfig, step
from roitrack.geometry import EllipseRoi, FrameSpec, ImagePoint, classify_sector, relative_position, to_polar
from roitrack.trials import (
    DEFAULT_DT_S,
    MAX_STEPS_PER_TRIAL,
    MAX_TRIALS_PER_BATCH,
    TrialConfig,
    TrialSample,
    iter_trial,
    jitter_path,
    run_batch,
    run_trial,
)
from roitrack.world import CameraModel, UavPose, UsvState, WorldState, aim_at, closed_loop_step


@pytest.fixture(scope="module")
def arena1_record():
    return run_trial(TrialConfig.baseline(1, seed=1))


class TestRunTrial:
    def test_sample_count_is_duration_over_dt(self):
        cfg = TrialConfig.baseline(1, seed=1, duration=0.1)
        record = run_trial(cfg)
        assert len(record.samples) == 3

    def test_sample_times_sit_on_the_dt_grid(self, arena1_record):
        dt = arena1_record.dt
        for i, sample in enumerate(arena1_record.samples):
            assert sample.t == (i + 1) * dt  # exact, by construction
        spacing = {round(b.t - a.t, 12) for a, b in zip(arena1_record.samples, arena1_record.samples[1:])}
        assert all(abs(s - dt) < 1e-9 for s in spacing)

    def test_same_seed_reproduces_bit_identical_records(self):
        cfg = TrialConfig.baseline(2, seed=9)
        assert run_trial(cfg) == run_trial(cfg)

    def test_different_seeds_differ(self):
        a = run_trial(TrialConfig.baseline(1, seed=1))
        b = run_trial(TrialConfig.baseline(1, seed=2))
        assert a != b

    def test_p_recomputable_from_coordinates(self, arena1_record):
        roi = arena1_record.config.controller.roi
        for sample in arena1_record.samples:
            assert abs(sample.p - relative_position(ImagePoint(sample.x, sample.y), roi)) <= 1e-12

    def test_commands_recomputable_from_coordinates(self, arena1_record):
        cfg = arena1_record.config.controller
        for sample in arena1_record.samples:
            if not sample.visible:
                continue
            expected = step(ImagePoint(sample.x, sample.y), cfg)
            assert (sample.yaw_cmd, sample.pitch_cmd) == (expected.yaw_rate, expected.pitch_rate)

    def test_sectors_recomputable_from_coordinates(self, arena1_record):
        for sample in arena1_record.samples:
            theta = to_polar(ImagePoint(sample.x, sample.y)).theta
            assert sample.sector is classify_sector(theta)

    def test_baseline_arena1_never_loses_tracking(self, arena1_record):
        assert all(sample.visible for sample in arena1_record.samples)

    def test_iter_trial_yields_the_samples_run_trial_records(self, arena1_record):
        assert tuple(iter_trial(arena1_record.config)) == arena1_record.samples

    def test_samples_are_read_only_tuples(self, arena1_record):
        sample = arena1_record.samples[0]
        assert sample == tuple(sample)
        assert list(sample) == [getattr(sample, name) for name in TrialSample._fields]
        with pytest.raises(AttributeError):
            sample.p = 0.0

    def test_invisible_samples_recorded_not_raised(self):
        # a pathological camera setup loses the target; the trial still runs
        cfg = TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=8.0)
        record = run_trial(cfg)
        assert len(record.samples) == round(8.0 / DEFAULT_DT_S)
        invisible = [s for s in record.samples if not s.visible]
        assert invisible, "expected the overspeed target to escape the frame"
        assert all((s.yaw_cmd, s.pitch_cmd) == (0.0, 0.0) for s in invisible)


def reference_samples(cfg: TrialConfig) -> list[TrialSample]:
    """``run_trial``'s loop built from the public step functions: ``pursue``,
    then ``closed_loop_step``, with a state object per step."""
    path = jitter_path(build_arena(cfg.arena_id), cfg.jitter_amplitude, random.Random(cfg.seed))
    start, after = path.waypoints[0], path.waypoints[1]
    heading = math.atan2(after[1] - start[1], after[0] - start[0])
    usv = UsvState(x=start[0], y=start[1], heading=heading, speed=cfg.usv_speed)
    world = WorldState(usv=usv, uav=cfg.uav, gimbal=aim_at(cfg.uav, (usv.x, usv.y, 0.0)), time=0.0)
    samples = []
    for i in range(round(cfg.duration / cfg.dt)):
        rudder = pursue(world.usv, path, cfg.lookahead)
        world, cmd, img, visible, p, sector = closed_loop_step(world, rudder, cfg.controller, cfg.camera, cfg.dt)
        samples.append(TrialSample(t=(i + 1) * cfg.dt, x=img.x, y=img.y, p=p, sector=sector,
                                   yaw_cmd=cmd.yaw_rate, pitch_cmd=cmd.pitch_rate, visible=visible))
    return samples


def bits(sample: TrialSample) -> tuple:
    """Every bit of a sample: a -0.0/0.0 swap or a last-ulp drift changes it."""
    floats = (sample.t, sample.x, sample.y, sample.p, sample.yaw_cmd, sample.pitch_cmd)
    return struct.pack("<6d", *floats), sample.sector, sample.visible


def config(arena_id: int, seed: int = 1, fov_deg: float = 90.0, roi=(0.3, 0.3), rate: float = 0.3,
           uav=(0.0, 0.0, 1.83), **overrides) -> TrialConfig:
    frame = FrameSpec()
    controller = ControllerConfig(roi=EllipseRoi.from_fractions(frame, *roi), frame=frame, rate_magnitude=rate)
    return TrialConfig.baseline(
        arena_id,
        seed=seed,
        controller=controller,
        camera=CameraModel(frame=frame, horizontal_fov=math.radians(fov_deg)),
        uav=UavPose(*uav),
        **overrides,
    )


REFERENCE_CONFIGS = (
    [pytest.param(TrialConfig.baseline(a, seed=s), id=f"arena{a}-seed{s}") for a in (1, 2) for s in range(1, 31)]
    + [
        pytest.param(
            config(a, s, fov_deg=75.0, roi=(0.2, 0.4), rate=0.2, uav=(0.3, -0.2, 3.0), dt=1.0 / 15.0, lookahead=0.8),
            id=f"non-default-arena{a}-seed{s}",
        )
        for a in (1, 2)
        for s in (1, 2)
    ]
    + [
        pytest.param(TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=8.0), id="lost-target"),
        # The boat passes under the camera, and the tilt saturates straight down.
        pytest.param(config(1, fov_deg=150.0, uav=(0.35, 1.7, 1.0)), id="tilt-floor-arena1"),
        pytest.param(config(2, fov_deg=150.0, uav=(0.35, 1.7, 1.0)), id="tilt-floor-arena2"),
        # A one-second step of pitch overshoots the horizon once.
        pytest.param(config(2, fov_deg=150.0, roi=(0.3, 0.05), uav=(-1.0, 2.0, 0.3), dt=1.0), id="tilt-ceiling"),
        # The camera hovers inside the arena, so the boat goes behind it.
        pytest.param(config(1, uav=(0.0, 2.0, 0.1)), id="behind-camera"),
    ]
)


class TestReferenceLoop:
    @pytest.mark.parametrize("cfg", REFERENCE_CONFIGS)
    def test_run_trial_matches_the_step_functions_bit_for_bit(self, cfg):
        expected = reference_samples(cfg)
        actual = run_trial(cfg).samples
        assert len(actual) == len(expected)
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert bits(a) == bits(e), f"sample {i}"


class TestRunBatch:
    def test_single_trial_matches_run_trial(self):
        cfg = TrialConfig.baseline(1, seed=5)
        assert run_batch(cfg, 1, [5]) == [run_trial(cfg)]

    @pytest.mark.parametrize("arena,count", [(1, 13), (2, 17)])
    def test_reported_trial_counts_all_succeed(self, arena, count):
        records = run_batch(TrialConfig.baseline(arena), count, list(range(1, count + 1)))
        assert len(records) == count
        assert all(s.visible for record in records for s in record.samples)

    def test_each_record_matches_its_seed(self):
        cfg = TrialConfig.baseline(2, seed=0)
        records = run_batch(cfg, 3, [4, 5, 6])
        for seed, record in zip([4, 5, 6], records):
            assert record == run_trial(replace(cfg, seed=seed))

    def test_seed_list_length_must_match(self):
        cfg = TrialConfig.baseline(1)
        with pytest.raises(ValueError):
            run_batch(cfg, 3, [1, 2])

    def test_count_must_be_positive(self):
        cfg = TrialConfig.baseline(1)
        with pytest.raises(ValueError):
            run_batch(cfg, 0, [])

    def test_count_over_the_limit_rejected_before_stepping(self):
        cfg = TrialConfig.baseline(1, duration=DEFAULT_DT_S)
        count = MAX_TRIALS_PER_BATCH + 1
        with pytest.raises(ValueError, match="count must be in"):
            run_batch(cfg, count, list(range(count)))


class TestConfigValidation:
    def test_bad_arena(self):
        with pytest.raises(ValueError):
            TrialConfig.baseline(3)

    @pytest.mark.parametrize("field,value", [
        ("duration", 0.0),
        ("dt", 0.0),
        ("jitter_amplitude", -0.1),
        ("usv_speed", -1.0),
        ("lookahead", 0.0),
        ("lookahead", -0.5),
        ("lookahead", math.nan),
    ])
    def test_bad_numeric_fields(self, field, value):
        with pytest.raises(ValueError):
            TrialConfig.baseline(1, **{field: value})

    # Configurations are only built here, never run.
    @pytest.mark.parametrize("duration,dt", [
        (MAX_STEPS_PER_TRIAL + 1, 1.0),
        (1e12, 1e-300),
        (1.0, 5e-324),
    ])
    def test_steps_over_the_limit_rejected(self, duration, dt):
        with pytest.raises(ValueError, match="steps per trial"):
            TrialConfig.baseline(1, duration=duration, dt=dt)

    def test_steps_at_the_limit_accepted(self):
        cfg = TrialConfig.baseline(1, duration=MAX_STEPS_PER_TRIAL * 0.5, dt=0.5)
        assert round(cfg.duration / cfg.dt) == MAX_STEPS_PER_TRIAL
