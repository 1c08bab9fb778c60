from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import back_project
from roitrack.controller import MAX_RATE_RAD_S, ControllerConfig, GimbalCommand, step
from roitrack.geometry import EllipseRoi, FrameSpec, classify_sector, relative_position, to_polar, wrap_angle
from roitrack.world import (
    TILT_MAX,
    TILT_MIN,
    CameraModel,
    GimbalState,
    UavPose,
    UsvState,
    WorldState,
    aim_at,
    closed_loop_step,
    gimbal_step,
    project,
    usv_step,
)

FRAME = FrameSpec(1920, 720)
CAM = CameraModel(frame=FRAME, horizontal_fov=math.pi / 2)
CFG = ControllerConfig(roi=EllipseRoi.from_fractions(FRAME), frame=FRAME)
UAV = UavPose(0.0, 0.0, 1.83)
DT = 1.0 / 30.0


class TestUsvStep:
    def test_straight_line(self):
        s = usv_step(UsvState(0, 0, 0.0, 1.0), rudder_rate=0.0, dt=1.0)
        assert (s.x, s.y, s.heading) == (1.0, 0.0, 0.0)

    def test_rotate_in_place(self):
        s = usv_step(UsvState(2.0, 3.0, 0.5, 0.0), rudder_rate=1.0, dt=1.0)
        assert (s.x, s.y) == (2.0, 3.0)
        assert s.heading == pytest.approx(1.5)

    def test_matches_independent_integration(self):
        # independent semi-implicit Euler, written separately
        def oracle(x, y, heading, speed, rudder, dt, steps):
            for _ in range(steps):
                heading = heading + rudder * dt
                x = x + speed * math.cos(heading) * dt
                y = y + speed * math.sin(heading) * dt
            return x, y, heading

        s = UsvState(0.0, 0.0, 0.0, 1.0)
        for _ in range(4):
            s = usv_step(s, rudder_rate=math.pi / 2, dt=0.5)
        ox, oy, oh = oracle(0.0, 0.0, 0.0, 1.0, math.pi / 2, 0.5, 4)
        assert s.x == pytest.approx(ox)
        assert s.y == pytest.approx(oy)
        assert s.heading == pytest.approx(oh)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            UsvState(0, 0, 0, -1.0)

    def test_bad_dt_rejected(self):
        with pytest.raises(ValueError):
            usv_step(UsvState(0, 0, 0, 1.0), 0.0, dt=0.0)


class TestUavPose:
    @pytest.mark.parametrize("field", ["x", "y", "altitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, field, value):
        coords = {"x": 0.0, "y": 0.0, "altitude": 1.83, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            UavPose(**coords)

    @pytest.mark.parametrize("altitude", [0.0, -1.0])
    def test_non_positive_altitude_rejected(self, altitude):
        with pytest.raises(ValueError, match="altitude must be positive"):
            UavPose(0.0, 0.0, altitude)


class TestGimbalStep:
    def test_zero_command_is_identity(self):
        g = GimbalState(pan=0.4, tilt=-0.6)
        assert gimbal_step(g, GimbalCommand(), DT) == g

    def test_pan_increment(self):
        g = gimbal_step(GimbalState(pan=0.0, tilt=-0.5), GimbalCommand(yaw_rate=0.3), dt=0.1)
        assert g.pan == pytest.approx(0.03)
        assert g.tilt == -0.5

    def test_tilt_saturates_at_lower_limit(self):
        g = GimbalState(pan=0.0, tilt=TILT_MIN)
        assert gimbal_step(g, GimbalCommand(pitch_rate=-0.3), DT).tilt == TILT_MIN

    def test_tilt_saturates_at_horizon(self):
        g = GimbalState(pan=0.0, tilt=TILT_MAX)
        assert gimbal_step(g, GimbalCommand(pitch_rate=0.3), DT).tilt == TILT_MAX

    def test_command_over_the_cap_cannot_be_built(self):
        # the gimbal needs no clamp: GimbalCommand holds every rate within the cap
        over = math.nextafter(MAX_RATE_RAD_S, math.inf)
        for rate in (over, -over, math.nan, math.inf, -math.inf):
            for axis in ("yaw_rate", "pitch_rate"):
                with pytest.raises(ValueError):
                    GimbalCommand(**{axis: rate})
        for rate in (MAX_RATE_RAD_S, -MAX_RATE_RAD_S):
            g = GimbalState(pan=0.0, tilt=-0.5)
            assert gimbal_step(g, GimbalCommand(yaw_rate=rate), dt=1.0).pan == rate
            assert gimbal_step(g, GimbalCommand(pitch_rate=rate), dt=1.0).tilt == -0.5 + rate

    @given(pan=st.floats(min_value=-10, max_value=10),
           tilt=st.floats(min_value=TILT_MIN, max_value=TILT_MAX),
           yaw=st.sampled_from([-0.3, 0.0, 0.3]),
           pitch=st.sampled_from([-0.3, 0.0, 0.3]))
    def test_rate_limit_invariant(self, pan, tilt, yaw, pitch):
        if yaw != 0.0 and pitch != 0.0:
            return
        g = GimbalState(pan=pan, tilt=tilt)
        out = gimbal_step(g, GimbalCommand(yaw_rate=yaw, pitch_rate=pitch), DT)
        assert abs(out.pan - g.pan) <= MAX_RATE_RAD_S * DT + 1e-15
        assert abs(out.tilt - g.tilt) <= MAX_RATE_RAD_S * DT + 1e-15

    def test_pan_wraps_on_read(self):
        # the raw pan accumulates freely; a reader wraps it into (-pi, pi]
        g = GimbalState(pan=2 * math.pi + 0.25, tilt=-0.5)
        assert g.pan == 2 * math.pi + 0.25
        assert wrap_angle(g.pan) == pytest.approx(0.25)

    def test_tilt_range_enforced(self):
        with pytest.raises(ValueError):
            GimbalState(pan=0.0, tilt=0.2)


def numpy_projection_oracle(point, uav, g, cam):
    """Independent homogeneous-matrix implementation of the projection."""
    sp, cp = np.sin(g.pan), np.cos(g.pan)
    st_, ct = np.sin(g.tilt), np.cos(g.tilt)
    # rows: right, up, forward
    rot = np.array([
        [cp, -sp, 0.0],
        [-st_ * sp, -st_ * cp, ct],
        [ct * sp, ct * cp, st_],
    ])
    t = -rot @ np.array([uav.x, uav.y, uav.altitude])
    m = np.hstack([rot, t.reshape(3, 1)])
    xc, yc, zc = m @ np.array([point[0], point[1], point[2], 1.0])
    if zc <= 0:
        return None
    f = (cam.frame.width / 2) / np.tan(cam.horizontal_fov / 2)
    u, v = f * xc / zc, f * yc / zc
    visible = abs(u) <= cam.frame.width / 2 and abs(v) <= cam.frame.height / 2
    return u, v, visible


class TestProject:
    def test_optical_axis_maps_to_center(self):
        g = aim_at(UAV, (1.0, 2.0, 0.0))
        img, visible = project((1.0, 2.0, 0.0), UAV, g, CAM)
        assert visible
        assert img.x == pytest.approx(0.0, abs=1e-9)
        assert img.y == pytest.approx(0.0, abs=1e-9)

    def test_point_behind_camera_invisible(self):
        g = GimbalState(pan=0.0, tilt=-0.2)  # looking roughly north
        img, visible = project((0.0, -5.0, 0.0), UAV, g, CAM)
        assert not visible
        assert (img.x, img.y) == (0.0, 0.0)

    def test_straight_down_hand_trig(self):
        g = GimbalState(pan=0.0, tilt=-math.pi / 2)
        img, visible = project((0.5, 0.0, 0.0), UAV, g, CAM)
        assert visible
        assert img.x == pytest.approx(960 * 0.5 / 1.83, rel=1e-9)
        assert img.y == pytest.approx(0.0, abs=1e-9)

    def test_matches_homogeneous_matrix_oracle(self):
        rng = np.random.default_rng(1234)
        checked = 0
        while checked < 500:
            uav = UavPose(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 5)))
            g = GimbalState(pan=float(rng.uniform(-math.pi, math.pi)), tilt=float(rng.uniform(-1.5, -0.05)))
            point = (float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8)), 0.0)
            expected = numpy_projection_oracle(point, uav, g, CAM)
            img, visible = project(point, uav, g, CAM)
            if expected is None:
                assert not visible
                continue
            u, v, vis = expected
            assert img.x == pytest.approx(u, rel=1e-9, abs=1e-9)
            assert img.y == pytest.approx(v, rel=1e-9, abs=1e-9)
            assert visible == vis
            checked += 1

    @given(k=st.floats(min_value=0.1, max_value=50.0))
    def test_homogeneous_in_scene_scale(self, k):
        g = GimbalState(pan=0.3, tilt=-0.7)
        base, vis_base = project((0.8, 2.5, 0.0), UAV, g, CAM)
        scaled_uav = UavPose(UAV.x * k, UAV.y * k, UAV.altitude * k)
        scaled, vis_scaled = project((0.8 * k, 2.5 * k, 0.0), scaled_uav, g, CAM)
        assert vis_base == vis_scaled
        assert scaled.x == pytest.approx(base.x, rel=1e-9)
        assert scaled.y == pytest.approx(base.y, rel=1e-9)

    def test_back_projection_round_trip(self):
        g = aim_at(UAV, (0.0, 2.4, 0.0))
        ground = back_project(250.0, -120.0, UAV, g, CAM)
        img, visible = project(ground, UAV, g, CAM)
        assert visible
        assert img.x == pytest.approx(250.0, abs=1e-6)
        assert img.y == pytest.approx(-120.0, abs=1e-6)


class TestClosedLoop:
    def test_stationary_center_never_moves_gimbal(self):
        usv = UsvState(0.0, 2.4, 0.0, 0.0)
        w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
        g0 = w.gimbal
        for _ in range(1000):
            w, cmd, img, visible, *_ = closed_loop_step(w, 0.0, CFG, CAM, DT)
            assert cmd.is_zero()
        assert w.gimbal == g0

    def test_yaw_engages_within_one_step_of_exit(self):
        # drive straight out through the right sector; oracle = manual
        # composition of project + controller step
        usv = UsvState(0.0, 2.4, 0.0, 1.2)  # heading east
        w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
        engaged_at = None
        first_exit = None
        for i in range(400):
            w, cmd, img, visible, *_ = closed_loop_step(w, 0.0, CFG, CAM, DT)
            assert visible
            expected = step(img, CFG)
            assert cmd == expected
            if first_exit is None and relative_position(img, CFG.roi) > 1.0:
                first_exit = i
            if engaged_at is None and not cmd.is_zero():
                engaged_at = i
                break
        assert first_exit is not None and engaged_at == first_exit
        assert step(img, CFG).yaw_rate == CFG.rate_magnitude

    def test_invisible_target_zero_command_not_latched(self):
        # aim the camera so the boat is way off-frame
        usv = UsvState(50.0, -50.0, 0.0, 0.0)
        w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
        w2, cmd, img, visible, p, sector = closed_loop_step(w, 0.0, CFG, CAM, DT)
        assert not visible
        assert cmd.is_zero()
        assert w2.gimbal == w.gimbal
        # P and the sector still describe the projected point, for telemetry
        assert p == relative_position(img, CFG.roi)
        assert sector is classify_sector(to_polar(img).theta)

    def test_time_advances_by_dt(self):
        usv = UsvState(0.0, 2.4, 0.0, 0.0)
        w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
        w2, *_ = closed_loop_step(w, 0.0, CFG, CAM, DT)
        assert w2.time == w.time + DT

    def test_determinism_bit_identical(self):
        def run():
            usv = UsvState(-0.5, 2.0, 0.7, 0.9)
            w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
            states = []
            for _ in range(200):
                w, cmd, img, visible, *_ = closed_loop_step(w, 0.4, CFG, CAM, DT)
                states.append((w, cmd, img, visible))
            return states

        assert run() == run()

    def test_bang_bang_energy_accounting(self):
        usv = UsvState(0.2, 2.3, 0.5, 1.0)
        w = WorldState(usv=usv, uav=UAV, gimbal=aim_at(UAV, (0.0, 2.4, 0.0)), time=0.0)
        travel = 0.0
        active = 0
        for _ in range(600):
            w2, cmd, img, visible, *_ = closed_loop_step(w, 0.3, CFG, CAM, DT)
            travel += abs(w2.gimbal.pan - w.gimbal.pan) + abs(w2.gimbal.tilt - w.gimbal.tilt)
            if not cmd.is_zero():
                active += 1
            w = w2
        assert travel == pytest.approx(active * CFG.rate_magnitude * DT, abs=1e-9)
