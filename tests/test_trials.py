from __future__ import annotations

import errno
import functools
import gc
import itertools
import math
import os
import pickle
import random
import struct
import sys
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_no_child_left, counted_forks, run_python, workers
from roitrack import __version__, trials
from roitrack.arenas import Path, _nearest_leg, build_arena, pursue
from roitrack.controller import ControllerConfig, decide, step
from roitrack.geometry import EllipseRoi, FrameSpec, ImagePoint, Sector, classify_sector, relative_position, to_polar
from roitrack.trials import (
    DEFAULT_DT_S,
    MAX_CAMERA_OFFSET_M,
    MAX_STEPS_PER_TRIAL,
    MAX_TRIALS_PER_BATCH,
    SETTINGS,
    TrialConfig,
    TrialRecord,
    TrialSample,
    format_manifest,
    iter_trial,
    jitter_path,
    parse_manifest,
    run_batch,
    run_trial,
    trial_path,
)
from roitrack.world import CameraModel, UavPose, UsvState, WorldState, aim_at, closed_loop_step, usv_step


ARENA1_CONFIG = TrialConfig.baseline(1, seed=1)


@pytest.fixture(scope="module")
def arena1_record():
    return run_trial(ARENA1_CONFIG)


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
        roi = ARENA1_CONFIG.controller.roi
        for sample in arena1_record.samples:
            assert abs(sample.p - relative_position(ImagePoint(sample.x, sample.y), roi)) <= 1e-12

    def test_commands_recomputable_from_coordinates(self, arena1_record):
        cfg = ARENA1_CONFIG.controller
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

    def test_one_decision_per_step_on_the_samples_coordinates(self):
        calls = []
        with mock.patch.object(trials, "decide", lambda *args: calls.append(args) or decide(*args)):
            record = run_trial(TrialConfig.baseline(1, duration=2.0))
        assert len(calls) == len(record.samples) == 60
        assert [args[:2] for args in calls] == [(s.x, s.y) for s in record.samples]

    def test_iter_trial_yields_the_samples_run_trial_records(self, arena1_record):
        assert tuple(iter_trial(ARENA1_CONFIG)) == arena1_record.samples

    def test_iter_trial_yields_trial_samples(self, arena1_record):
        for sample in iter_trial(replace(ARENA1_CONFIG, duration=2.0)):
            assert type(sample) is TrialSample
            assert sample == TrialSample(*sample)

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


def reference_samples(cfg: TrialConfig, path: Path | None = None) -> list[TrialSample]:
    """``run_trial``'s loop built from the public step functions: ``pursue``,
    then ``closed_loop_step``, with a state object per step.  It runs on
    ``path`` when one is given, else on the trial's jittered arena."""
    if path is None:
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
        horizontal_fov=math.radians(fov_deg),
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


def samples_on_path(cfg: TrialConfig, path: Path) -> list[TrialSample]:
    """``iter_trial``'s samples with ``path`` in place of the trial's jittered arena."""
    with mock.patch.object(trials, "trial_path", lambda _cfg: path):
        return list(iter_trial(cfg))


def assert_matches_reference(cfg: TrialConfig, path: Path) -> None:
    expected = reference_samples(cfg, path)
    actual = samples_on_path(cfg, path)
    assert len(actual) == len(expected)
    for i, (a, e) in enumerate(zip(actual, expected)):
        assert bits(a) == bits(e), f"sample {i}"


# A quarter-metre grid: collinear, overlapping and parallel legs, and exact
# ties between them, are common on it.
GRID = st.integers(-12, 12).map(lambda k: k / 4)


@st.composite
def grid_paths(draw):
    points = draw(st.lists(st.tuples(GRID, GRID), min_size=2, max_size=7))
    closed = draw(st.booleans())
    assume(all(a != b for a, b in zip(points, points[1:])) and not (closed and points[-1] == points[0]))
    return points, closed


@st.composite
def bisector_paths(draw):
    """The boat starts on the bisector of two parallel legs, ``gap`` apart, and
    heads along it; past the short first leg both stay exactly equidistant
    from every point of the bisector."""
    gap = draw(st.sampled_from([0.05, 0.25, 0.5, 1.0, 3.0]))
    first = draw(st.sampled_from([0.01, 0.25, 1.0]))
    length = draw(st.sampled_from([2.0, 4.0]))
    points = [(0.0, 0.0), (first, 0.0), (first, gap / 2), (length, gap / 2), (length, -gap / 2), (first, -gap / 2)]
    return points, draw(st.booleans())


@st.composite
def cut_in_paths(draw):
    """A zig-zag of sharp cut-in corners, like arena 1's notches: each
    corner's two legs meet at an angle of a few degrees to about 60."""
    depth = draw(st.sampled_from([0.05, 0.2, 0.42, 1.0]))
    run = draw(st.sampled_from([0.02, 0.1, 0.42]))
    count = draw(st.integers(1, 4))
    points = [(0.0, 0.0)]
    for k in range(count):
        x = points[-1][0]
        points += [(x + run, depth if k % 2 == 0 else -depth), (x + 2 * run, 0.0)]
    return points, draw(st.booleans())


# Offsets move a path to where rounding is coarse, up to coordinates with a
# spacing of 1 m (2**52); the margin must keep every certificate honest there.
OFFSETS = st.sampled_from([0.0, 0.0, 1e3, 2.0**33, 1e12, 2.0**52])


# The camera platform sits at the origin (either sign of zero), inside the
# paths' square, or out at the bound, from just above the water to the bound.
# With the field of view and the ROI drawn too, the gimbal moves one axis at a
# time, the target is lost, and now and then the tilt saturates.  A path far
# from the origin barely moves in the image, so half the examples keep the
# path where it was drawn, near the camera.
CAMERA_XY = st.sampled_from([0.0, -0.0, 0.5, -1.25, 2.0, -MAX_CAMERA_OFFSET_M])
CAMERA_ALTITUDE = st.sampled_from([0.05, 0.3, 1.83, MAX_CAMERA_OFFSET_M])
ROI_FRACTION = st.sampled_from([0.05, 0.1, 0.3, 0.49])


@settings(max_examples=300, deadline=None)
@given(
    shape=st.one_of(grid_paths(), bisector_paths(), cut_in_paths()),
    offset=st.one_of(st.just((0.0, 0.0)), st.tuples(OFFSETS, OFFSETS)),
    speed=st.sampled_from([0.0, 0.3, 0.6, 1.5, 4.0]),
    lookahead=st.sampled_from([0.1, 0.5, 1.2]),
    dt=st.sampled_from([1.0 / 30.0, 0.1]),
    steps=st.integers(1, 150),
    uav=st.tuples(CAMERA_XY, CAMERA_XY, CAMERA_ALTITUDE),
    fov_deg=st.sampled_from([20.0, 60.0, 90.0, 150.0]),
    roi=st.tuples(ROI_FRACTION, ROI_FRACTION),
)
def test_fused_loop_matches_the_reference_on_generated_paths(
    shape, offset, speed, lookahead, dt, steps, uav, fov_deg, roi
):
    points, closed = shape
    points = [(x + offset[0], y + offset[1]) for x, y in points]
    assume(all(a != b for a, b in zip(points, points[1:])) and not (closed and points[-1] == points[0]))
    cfg = config(1, fov_deg=fov_deg, roi=roi, uav=uav, usv_speed=speed, lookahead=lookahead, dt=dt,
                 duration=steps * dt)
    assert_matches_reference(cfg, Path(waypoints=tuple(points), closed=closed))


# The boat heads east along y = 0, and its rudder stays exactly 0.  Leg 0 and
# leg 4 both run along that line, so over x in [2, 6] both are at distance
# exactly 0 (every operand is exact there): the earliest, leg 0, must keep
# winning.  Were leg 4 chosen, the goal would turn onto leg 5 past x = 5.5.
OVERLAP = Path(
    waypoints=((0.0, 0.0), (8.0, 0.0), (8.0, 4.0), (2.0, 4.0), (2.0, 0.0), (6.0, 0.0), (6.0, -4.0)),
    closed=True,
)


class TestCertifiedLegReuse:
    """``iter_trial`` skips pursuit's full leg search while a distance bound
    proves the last nearest leg is still strictly nearest; its samples must
    stay those of ``pursue`` + ``closed_loop_step`` bit for bit."""

    def test_equidistant_overlapping_legs_keep_the_earliest(self):
        cfg = TrialConfig.baseline(1, usv_speed=0.6, duration=12.0)
        usv = UsvState(0.0, 0.0, 0.0, cfg.usv_speed)
        tied = 0
        for _ in range(round(cfg.duration / cfg.dt)):
            leg, _, runner_up = _nearest_leg(usv.x, usv.y, OVERLAP._legs)
            if 2.0 <= usv.x <= 6.0:
                assert (usv.y, leg, runner_up) == (0.0, 0, 0.0)
                tied += 1
            usv = usv_step(usv, pursue(usv, OVERLAP, cfg.lookahead), cfg.dt)
        assert tied >= 150
        assert_matches_reference(cfg, OVERLAP)

    @pytest.mark.parametrize("arena", [1, 2])
    def test_zero_speed(self, arena):
        cfg = TrialConfig.baseline(arena, usv_speed=0.0, duration=3.0)
        assert_matches_reference(cfg, trial_path(cfg))

    # At this jitter arena 1's seed-4 path is finite with coordinates near
    # 1e153, where squared distances come within a few powers of ten of overflow.
    # TrialConfig rejects such a jitter, so the path is built here.
    @pytest.mark.parametrize("speed", [0.6, 1e151])
    def test_jitter_near_the_finite_path_limit(self, speed):
        cfg = TrialConfig.baseline(1, seed=4, usv_speed=speed, duration=3.0)
        assert_matches_reference(cfg, jitter_path(build_arena(1), 1e153, random.Random(4)))

    @pytest.mark.parametrize("scale", [1e150, 5e153])
    def test_scaled_arena_near_overflow(self, scale):
        # Arena 1 and its dynamics scaled up together.  At 5e153 the squared
        # distance to a far leg overflows on most full searches, which then
        # report a NaN runner-up distance, so no certificate rests on it.
        path = Path(waypoints=tuple((x * scale, y * scale) for x, y in build_arena(1).waypoints), closed=True)
        cfg = TrialConfig.baseline(1, usv_speed=0.6 * scale, lookahead=0.5 * scale, duration=6.0)
        assert_matches_reference(cfg, path)

    def test_one_leg_path_running_off_to_overflow(self):
        # A one-leg path has no other leg, so its runner-up distance is inf;
        # once the boat is so far that the squared distance overflows, the
        # search's tie rule (t = 0) must decide, not the reused leg's t.
        path = Path(waypoints=((0.0, 0.0), (1.0, 0.0)), closed=False)
        cfg = TrialConfig.baseline(1, usv_speed=3e156, duration=0.5)
        assert_matches_reference(cfg, path)

    def test_margin_covers_coarse_rounding(self):
        # A small zig-zag 2**45 m east of the origin, where x is spaced 1/128 m
        # apart: the distances the search computes are off by up to about a
        # centimetre, so a certificate without the margin keeps a stale leg.
        east = 2.0**45
        path = Path(waypoints=((east - 0.5, 0.5), (east + 2.0, -0.5), (east + 1.25, 0.5), (east, -2.0)), closed=False)
        cfg = TrialConfig.baseline(1, usv_speed=1.5, dt=0.1, duration=6.0)
        assert_matches_reference(cfg, path)

    def test_overflowed_leg_distances_certify_nothing(self):
        # The boat takes 1e154 m steps and circles farther out than 1.34e154 m,
        # the square root of the largest float, so the search's squared
        # distance to the far leg overflows.  That leg is not known to be far:
        # a runner-up distance that skipped it would keep the near leg too long.
        path = Path(waypoints=((-4e153, 0.0), (0.0, -2e153), (-1e153, -6e153)), closed=False)
        cfg = TrialConfig.baseline(1, usv_speed=1e155, dt=0.1, duration=6.0)
        assert_matches_reference(cfg, path)

    @pytest.mark.parametrize("arena", [1, 2])
    def test_baseline_trials_skip_most_full_searches(self, arena):
        searches = []
        with mock.patch.object(trials, "_nearest_leg", lambda *args: searches.append(args) or _nearest_leg(*args)):
            steps = sum(1 for _ in iter_trial(TrialConfig.baseline(arena, seed=1)))
        assert 1 <= len(searches) < steps / 3


class TestGimbalTrigReuse:
    """``iter_trial`` keeps the gimbal's sin and cos while an idle step leaves
    its angles the same bits; its samples must stay the reference's."""

    def test_idle_step_turns_a_negative_zero_pan_positive(self):
        # The camera looks along +y at the boat's start (-0.0, 1.0), so pan
        # starts at atan2(-0.0, 1.0) = -0.0.  The parked boat heads west, and
        # x stays -0.0 since 0.0 * cos(heading) < 0.  The first, idle, step
        # turns pan to +0.0, and with it the sign of every later sample's x:
        # pan's trig must be recomputed then, though no yaw was commanded.
        path = Path(waypoints=((-0.0, 1.0), (-1.0, 1.0), (-1.0, 2.0)), closed=False)
        cfg = TrialConfig.baseline(1, usv_speed=0.0, duration=0.2, uav=UavPose(0.0, 0.0, 1.83))
        pan = aim_at(cfg.uav, (-0.0, 1.0, 0.0)).pan
        assert (pan, math.copysign(1.0, pan)) == (0.0, -1.0)
        samples = samples_on_path(cfg, path)
        assert all(s.yaw_cmd == 0.0 for s in samples)
        assert [math.copysign(1.0, s.x) for s in samples[1:]] == [-1.0] * 5
        assert_matches_reference(cfg, path)


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


class TestBatchFanOut:
    """``trials._fan_out``, and ``run_batch``, which spreads its trials over
    worker processes through it; whatever the worker count, the results and
    the errors are the serial run's."""

    SEEDS = [7, 8, 9, 10, 11]

    @pytest.mark.parametrize("arena", [1, 2])
    def test_records_are_the_serial_records_with_one_two_and_three_workers(self, monkeypatch, arena):
        cfg = TrialConfig.baseline(arena, duration=4.0)
        serial = [run_trial(replace(cfg, seed=seed)) for seed in self.SEEDS]
        for count in (1, 2, 3):
            workers(monkeypatch, count)
            forks = counted_forks(monkeypatch)
            records = run_batch(cfg, len(self.SEEDS), self.SEEDS)
            assert len(forks) == count - 1
            assert_no_child_left()
            assert records == serial
            for record, expected in zip(records, serial):
                assert record.dt == expected.dt and len(record.samples) == len(expected.samples)
                for sample, want in zip(record.samples, expected.samples):
                    assert type(sample) is TrialSample and bits(sample) == bits(want)
                    assert sample.sector is want.sector and sample.visible is want.visible

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_record_survives_a_pickle_round_trip(self, protocol):
        lost = run_trial(TrialConfig.baseline(1, seed=1, usv_speed=5.0, duration=8.0))
        signed_zeros = TrialSample(t=lost.samples[-1].t + lost.dt, x=-0.0, y=-0.0, p=0.0, sector=Sector.RIGHT,
                                   yaw_cmd=-0.0, pitch_cmd=-0.0, visible=False)
        odd = [TrialSample(t=math.nan, x=math.inf, y=-math.inf, p=math.nan, sector=Sector.TOP, yaw_cmd=0.0,
                           pitch_cmd=0.3, visible=True),
               TrialSample(t=-math.inf, x=math.nan, y=-0.0, p=math.inf, sector=Sector.BOTTOM, yaw_cmd=-0.3,
                           pitch_cmd=-0.0, visible=False)]
        # commands mixing 0.0, -0.0 and +-0.3, one per axis and per sample
        mixed = [TrialSample(t=0.1 * i, x=0.0, y=0.0, p=1.5, sector=sector, yaw_cmd=yaw, pitch_cmd=pitch,
                             visible=i % 2 == 0)
                 for i, (sector, (yaw, pitch)) in enumerate(zip(itertools.cycle(Sector), itertools.product(
                     (0.0, -0.0, 0.3, -0.3), repeat=2)))]
        with_nans = TrialRecord(samples=(*odd, *mixed), dt=0.1)
        records = [TrialRecord(samples=(*lost.samples, signed_zeros), dt=lost.dt), TrialRecord(samples=(), dt=0.5),
                   with_nans]
        assert any(not s.visible for s in lost.samples)
        for record in records:
            saved = pickle.dumps(record, protocol=protocol)
            assert b"TrialSample" not in saved  # columns, each sample rebuilt as a TrialSample in C
            copy = pickle.loads(saved)
            assert type(copy) is TrialRecord and type(copy.samples) is tuple and copy.dt == record.dt
            assert copy == record or record is with_nans  # a NaN equals nothing; there the bits compare
            for sample, want in zip(copy.samples, record.samples, strict=True):
                assert type(sample) is TrialSample and bits(sample) == bits(want)
                assert sample.sector is want.sector and sample.visible is want.visible
            if record.samples and record.samples[-1] is signed_zeros:
                assert math.copysign(1.0, copy.samples[-1].yaw_cmd) == -1.0

    def test_no_child_outlives_a_batch_that_succeeds_or_fails(self, monkeypatch):
        cfg = TrialConfig.baseline(2, duration=1.0)
        for count in (2, 3):
            workers(monkeypatch, count)
            assert len(run_batch(cfg, 3, [1, 2, 3])) == 3
            assert_no_child_left()
            # negative seeds are refused per trial, in the children's chunks here
            for seeds, bad in [([1, 2, -1], -1), ([1, -2, -3], -2)]:
                with pytest.raises(ValueError, match=f"^seed must be >= 0, got {bad}$"):
                    run_batch(cfg, 3, seeds)
                assert_no_child_left()

    def test_a_replaced_run_trial_sees_every_seed_and_no_fork_happens(self, monkeypatch):
        # a stub (or a tracer's wrapper) records its calls in this process
        workers(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        seen = []

        def counted_run_trial(cfg):
            seen.append(cfg.seed)
            return run_trial(cfg)

        monkeypatch.setattr(trials, "run_trial", counted_run_trial)
        cfg = TrialConfig.baseline(1, duration=1.0)
        records = run_batch(cfg, len(self.SEEDS), self.SEEDS)
        assert seen == self.SEEDS and forks == []
        assert records == [run_trial(replace(cfg, seed=seed)) for seed in self.SEEDS]

    def test_count_and_seed_refusals_come_before_any_fork(self, monkeypatch):
        workers(monkeypatch, 3)
        forks = []

        def fork():
            forks.append(1)
            raise AssertionError("forked before the refusal")

        monkeypatch.setattr(os, "fork", fork)
        cfg = TrialConfig.baseline(1, duration=DEFAULT_DT_S)
        with pytest.raises(ValueError, match="need exactly 3 seeds, got 2"):
            run_batch(cfg, 3, [1, 2])
        with pytest.raises(ValueError, match="count must be in"):
            run_batch(cfg, 0, [])
        count = MAX_TRIALS_PER_BATCH + 1
        with pytest.raises(ValueError, match="count must be in"):
            run_batch(cfg, count, list(range(count)))
        assert forks == []

    def test_rest_after_a_failed_fork_comes_after_the_children_in_item_order(self, monkeypatch):
        workers(monkeypatch, 3)
        real_fork = os.fork
        forks = []

        def fork():
            if forks:
                raise OSError(errno.ENOMEM, "Cannot allocate memory")
            forks.append(pid := real_fork())
            return pid

        monkeypatch.setattr(os, "fork", fork)
        results = trials._fan_out(lambda i: (i, os.getpid()), range(7))
        assert_no_child_left()
        assert [i for i, _ in results] == list(range(7))
        here = os.getpid()
        assert [pid == here for _, pid in results] == [True] * 3 + [False] * 2 + [True] * 2

    def test_first_failing_chunk_in_item_order_wins(self, monkeypatch):
        workers(monkeypatch, 3)
        parent = os.getpid()

        def fail_in(*bad):
            def fn(i):
                if i in bad:
                    raise ValueError(f"item {i} in {'parent' if os.getpid() == parent else 'child'}")
                return i * i
            return fn

        assert trials._fan_out(fail_in(), range(7)) == [i * i for i in range(7)]
        for bad, message in [((5, 3), "item 3 in child"), ((6, 0), "item 0 in parent"), ((6,), "item 6 in child")]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                trials._fan_out(fail_in(*bad), range(7))
            assert_no_child_left()

    def test_child_with_no_result_is_an_io_error(self, monkeypatch):
        workers(monkeypatch, 2)
        parent = os.getpid()

        def fn(i):
            if os.getpid() != parent:
                os._exit(0)
            return i

        with pytest.raises(OSError, match=r"^worker process \d+ for items 3\.\. ended with no result$"):
            trials._fan_out(fn, range(4))
        assert_no_child_left()

    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_no_collection_while_the_items_run_and_the_callers_setting_comes_back(self, monkeypatch, count):
        workers(monkeypatch, count)
        parent = os.getpid()
        started = []  # the generation of each collection that starts, in this process or in a child's copy

        def note(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def item(i, bad=None):
            # many times the tracked objects that start a young collection, here and where they are loaded
            kept = [[j] for j in range(3000)]
            if i == bad:
                raise ValueError(f"item {i}: collecting {gc.isenabled()}, {len(started)} collections")
            return os.getpid(), gc.isenabled(), len(started), kept

        def fan_out(fn):
            started.clear()
            results = trials._fan_out(fn, range(7))
            assert started == []  # neither while the items ran nor while their results were loaded
            assert_no_child_left()
            return results

        def fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        gc.callbacks.append(note)
        try:
            for collecting in (True, False):
                (gc.enable if collecting else gc.disable)()
                results = fan_out(item)
                assert len({pid for pid, *_ in results}) == count
                assert [(enabled, seen) for _, enabled, seen, _ in results] == [(False, 0)] * 7
                assert gc.isenabled() is collecting
                for bad in (1, 5):  # in this process's chunk; in a child's with 2 and 3 workers
                    started.clear()
                    with pytest.raises(ValueError, match=f"^item {bad}: collecting False, 0 collections$"):
                        trials._fan_out(functools.partial(item, bad=bad), range(7))
                    assert_no_child_left()
                    assert gc.isenabled() is collecting
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(os, "fork", fork)
                    assert [pid for pid, *_ in fan_out(item)] == [parent] * 7
                assert gc.isenabled() is collecting
        finally:
            gc.callbacks.remove(note)
            gc.enable()

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_results_come_back_in_item_order(self, monkeypatch, n, count):
        workers(monkeypatch, count)
        results = trials._fan_out(lambda i: (i, os.getpid()), range(n))
        assert [i for i, _ in results] == list(range(n))
        # one contiguous chunk per process, this process's first, the larger chunks first
        pids = [pid for _, pid in results]
        sizes = [len(list(group)) for _, group in itertools.groupby(pids)]
        used = min(n, count)
        assert pids[0] == os.getpid() and len(set(pids)) == len(sizes) == used
        assert sizes == [n // used + (i < n % used) for i in range(used)]

    def test_the_modules_a_trial_calls_are_noted_without_the_cli(self):
        """A tracer replaces the functions of every module a trial calls, so
        ``_fan_out`` must see them replaced even where ``cli`` never loaded."""
        script = ("import sys, roitrack.trials as t; print(' '.join(sorted({m.__name__ for m, _, _ in t._AS_IMPORTED})));"
                  " print('roitrack.cli' in sys.modules)")
        done = run_python("-S", "-c", script)
        assert (done.returncode, done.stderr) == (0, "")
        noted, cli_loaded = done.stdout.splitlines()
        layers = {"arenas", "controller", "geometry", "trials", "world"}
        assert set(noted.split()) >= {f"roitrack.{layer}" for layer in layers} and cli_loaded == "False"


class TestConfigValidation:
    def test_bad_arena(self):
        with pytest.raises(ValueError, match="^arena_id must be 1 or 2, got 3$"):
            TrialConfig.baseline(3)

    @pytest.mark.parametrize("field,value", [
        ("duration", 0.0),
        ("dt", 0.0),
        ("jitter_amplitude", -0.1),
        ("usv_speed", -1.0),
        ("lookahead", 0.0),
        ("lookahead", -0.5),
        ("lookahead", math.nan),
        ("horizontal_fov", 0.0),
        ("horizontal_fov", math.pi),
        ("horizontal_fov", math.nan),
        # random.Random seeds from |seed|, so seed -1 would rerun seed 1's trial.
        ("seed", -1),
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

    @pytest.mark.parametrize("field", ["usv_speed", "duration", "dt", "jitter_amplitude", "lookahead"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_numeric_fields_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TrialConfig.baseline(1, **{field: value})

    @pytest.mark.parametrize("uav", [
        (1e308, 0.0, 1.83),
        (0.0, -1e308, 1.83),
        (0.0, 0.0, 1e308),
        (math.nextafter(MAX_CAMERA_OFFSET_M, math.inf), 0.0, 1.83),
        (0.0, -math.nextafter(MAX_CAMERA_OFFSET_M, math.inf), 1.83),
        (0.0, 0.0, math.nextafter(MAX_CAMERA_OFFSET_M, math.inf)),
    ])
    def test_camera_offset_over_the_bound_rejected(self, uav):
        with pytest.raises(ValueError, match=f"over {MAX_CAMERA_OFFSET_M} m"):
            TrialConfig.baseline(1, uav=UavPose(*uav))

    @pytest.mark.parametrize("jitter", [-0.1, math.nextafter(MAX_CAMERA_OFFSET_M, math.inf), 1e153, 1e308])
    def test_jitter_outside_the_bound_rejected(self, jitter):
        with pytest.raises(ValueError, match=rf"^jitter_amplitude must be in \[0, {MAX_CAMERA_OFFSET_M}\] m"):
            TrialConfig.baseline(1, jitter_amplitude=jitter)

    @pytest.mark.parametrize("arena", [1, 2])
    def test_jitter_at_the_bound_runs(self, arena):
        for seed in range(1, 6):
            cfg = TrialConfig.baseline(arena, seed=seed, jitter_amplitude=MAX_CAMERA_OFFSET_M, duration=0.5)
            assert all(math.isfinite(c) for point in trial_path(cfg).waypoints for c in point)
            assert len(run_trial(cfg).samples) == 15

    # The ROI is sized for the controller's frame, so the camera is built on it:
    # there is no camera to pass, and so no other frame it could see.
    @pytest.mark.parametrize("frame", [FrameSpec(640, 480), FrameSpec(1920, 721), FrameSpec(1921, 720)])
    def test_camera_sees_the_controllers_frame(self, frame):
        controller = ControllerConfig(roi=EllipseRoi.from_fractions(frame), frame=frame)
        cfg = TrialConfig.baseline(1, controller=controller, horizontal_fov=1.0)
        assert cfg.camera == CameraModel(frame=frame, horizontal_fov=1.0)
        assert replace(cfg, seed=2).camera == cfg.camera
        with pytest.raises(TypeError):
            TrialConfig.baseline(1, camera=CameraModel(frame=frame))

    def test_camera_offset_at_the_bound_accepted(self):
        bound = MAX_CAMERA_OFFSET_M
        for uav in [(bound, -bound, bound), (-bound, bound, 1.83)]:
            assert TrialConfig.baseline(1, uav=UavPose(*uav)).uav == UavPose(*uav)

    def test_steps_at_the_limit_accepted(self):
        cfg = TrialConfig.baseline(1, duration=MAX_STEPS_PER_TRIAL * 0.5, dt=0.5)
        assert round(cfg.duration / cfg.dt) == MAX_STEPS_PER_TRIAL


# Each setting's own bounds, both ends accepted by a run (TrialConfig, and
# simulate's --trials limit); duration_s and dt_s are bound further by each other.
_MAX_FLOAT = sys.float_info.max
ACCEPTED_RANGES = {
    "arena": (1, 2),
    "trials": (1, MAX_TRIALS_PER_BATCH),
    "seed": (0, 2**64),
    "duration_s": (5e-324, _MAX_FLOAT),
    "dt_s": (5e-324, _MAX_FLOAT),
    "usv_speed_mps": (0.0, _MAX_FLOAT),
    "jitter_m": (0.0, MAX_CAMERA_OFFSET_M),
    "lookahead_m": (5e-324, _MAX_FLOAT),
    "roi_frac_x": (0.05, 0.49),
    "roi_frac_y": (0.05, 0.49),
    "rate_rad_s": (5e-324, 0.3),
    "fov_deg": (1e-300, math.nextafter(180.0, 0.0)),
    "frame_width_px": (1, 2**20),
    "frame_height_px": (1, 2**20),
    "uav_x_m": (-MAX_CAMERA_OFFSET_M, MAX_CAMERA_OFFSET_M),
    "uav_y_m": (-MAX_CAMERA_OFFSET_M, MAX_CAMERA_OFFSET_M),
    "altitude_m": (5e-324, MAX_CAMERA_OFFSET_M),
}
RESOLVED_DEFAULTS = {**{key: default for key, (_, default) in SETTINGS.items()},
                     "arena": 1, "duration_s": trials.BASELINE_DURATION_S[1],
                     "usv_speed_mps": trials.BASELINE_USV_SPEED_MPS[1]}
ARTIFACTS = {"trial_001.csv": "a" * 64, "trial_002.csv": "b" * 64, "summary.txt": "c" * 64}


def setting_values(key):
    low, high = ACCEPTED_RANGES[key]
    if SETTINGS[key][0] is int:
        return st.integers(low, high)
    ends = [value for value in (low, high, 1e-05, 0.1 + 0.2) if low <= value <= high]
    return st.one_of(st.sampled_from(ends), st.floats(low, high))


class TestManifestCodec:
    def test_ranges_cover_every_setting_and_their_largest_values_build_a_config(self):
        assert set(ACCEPTED_RANGES) == set(SETTINGS) == set(RESOLVED_DEFAULTS)
        highs = {key: high for key, (_, high) in ACCEPTED_RANGES.items() if key not in ("trials", "seed")}
        TrialConfig.from_settings({**RESOLVED_DEFAULTS, **highs})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(SETTINGS)).flatmap(lambda key: st.tuples(st.just(key), setting_values(key))))
    def test_every_setting_reads_back_as_written(self, key_value):
        key, value = key_value
        written = {**RESOLVED_DEFAULTS, key: value}
        text = format_manifest(written, [7, 8], "f" * 64, ARTIFACTS)
        settings_read, info, artifacts = parse_manifest(text, "manifest.txt")
        assert settings_read == written
        assert {k: repr(v) for k, v in settings_read.items()} == {k: repr(v) for k, v in written.items()}
        assert info == {"tool_version": __version__, "seeds": "7 8", "arena_fixture_sha256": "f" * 64}
        assert list(artifacts.items()) == list(ARTIFACTS.items())

    def test_keys_are_written_in_settings_order_with_seeds_after_seed(self):
        text = format_manifest(RESOLVED_DEFAULTS, [1], "f" * 64, ARTIFACTS)
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        settings_keys = list(SETTINGS)
        seed_at = settings_keys.index("seed") + 1
        assert keys == ["tool_version", *settings_keys[:seed_at], "seeds", *settings_keys[seed_at:],
                        "arena_fixture_sha256", "artifact_001", "artifact_001_sha256", "artifact_002",
                        "artifact_002_sha256", "artifact_summary", "artifact_summary_sha256"]

    @pytest.mark.parametrize("lines,label", [
        (["artifact_001 = trial_001.csv"], "001"),
        (["artifact_summary_sha256 = " + "c" * 64], "summary"),
        (["artifact_002 = trial_002.csv", "artifact_001_sha256 = " + "a" * 64], "001"),
    ])
    def test_an_artifact_name_without_its_sha256_or_the_reverse_is_refused(self, lines, label):
        with pytest.raises(ValueError, match=f"^run.cfg: artifact_{label} needs both its name and its sha256$"):
            parse_manifest("".join(line + "\n" for line in lines), "run.cfg")

    @pytest.mark.parametrize("key", ["artifact_01", "artifact_001_md5", "artifact_summary_", "artifact_\uff10\uff10\uff11"])
    def test_a_key_the_writer_never_emits_is_refused(self, key):
        with pytest.raises(ValueError, match=f"^run.cfg: unknown config key {key!r}$"):
            parse_manifest(f"{key} = x\n", "run.cfg")

    @pytest.mark.parametrize("name", ["../trial_001.csv", "/etc/hostname", "runs/trial_001.csv", "..", "."])
    def test_an_artifact_outside_the_runs_directory_is_refused(self, name):
        with pytest.raises(ValueError, match="^run.cfg: artifact_001 must name a file in the run's directory, got"):
            parse_manifest(f"artifact_001 = {name}\nartifact_001_sha256 = {'a' * 64}\n", "run.cfg")
