from __future__ import annotations

import math
import struct
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from roitrack import controller
from roitrack.controller import MAX_RATE_RAD_S, ControllerConfig, GimbalCommand, decide, step
from roitrack.geometry import EllipseRoi, FrameSpec, ImagePoint, Sector, classify_sector, relative_position, to_polar

FRAME = FrameSpec(1920, 720)
ROI = EllipseRoi.from_fractions(FRAME)
CFG = ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=0.3)


def point_at(theta: float, p_target: float, roi: EllipseRoi = ROI) -> ImagePoint:
    """Point at angle theta whose relative position is (approximately) p_target."""
    c, s = math.cos(theta), math.sin(theta)
    r = math.sqrt(p_target / (c * c / (roi.a * roi.a) + s * s / (roi.b * roi.b)))
    return ImagePoint(r * c, r * s)


@st.composite
def any_config(draw):
    """CFG, or a config on a drawn frame and ROI fractions, built directly or
    made from CFG with ``replace``."""
    frame = FrameSpec(draw(st.integers(1, 2**20)), draw(st.integers(1, 2**20)))
    roi = EllipseRoi.from_fractions(frame, draw(st.floats(0.05, 0.49)), draw(st.floats(0.05, 0.49)))
    how = draw(st.sampled_from(["fixed", "built", "replaced"]))
    if how == "fixed":
        return CFG
    if how == "built":
        return ControllerConfig(roi=roi, frame=frame)
    return replace(CFG, roi=roi, frame=frame)


class TestStep:
    def test_inside_is_quiet(self):
        p = point_at(0.7, 0.5)
        assert step(p, CFG) == GimbalCommand(0.0, 0.0)

    def test_right_sector_yaws_positive(self):
        assert step(point_at(0.0, 4.0), CFG) == GimbalCommand(yaw_rate=0.3)

    def test_top_sector_pitches_positive(self):
        assert step(point_at(math.pi / 2, 4.0), CFG) == GimbalCommand(pitch_rate=0.3)

    def test_left_sector_yaws_negative(self):
        assert step(point_at(math.pi, 4.0), CFG) == GimbalCommand(yaw_rate=-0.3)

    def test_bottom_sector_pitches_negative(self):
        assert step(point_at(-math.pi / 2, 4.0), CFG) == GimbalCommand(pitch_rate=-0.3)

    def test_boundary_vertex_is_quiet(self):
        # exactly P = 1: boundary belongs to the quiet zone
        assert step(ImagePoint(ROI.a, 0.0), CFG).is_zero()
        assert step(ImagePoint(0.0, -ROI.b), CFG).is_zero()

    def test_magnitude_follows_config(self):
        cfg = ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=0.2)
        assert step(point_at(0.0, 4.0), cfg) == GimbalCommand(yaw_rate=0.2)

    def test_stateless_and_deterministic(self):
        p = point_at(1.0, 2.5)
        first = step(p, CFG)
        assert all(step(p, CFG) == first for _ in range(10))

    @pytest.mark.parametrize(
        "x, y",
        [
            (math.nan, 0.0),
            (0.0, math.nan),
            (math.inf, math.inf),
            (-math.inf, 0.0),
            (0.0, math.inf),
            (math.nan, math.inf),
        ],
    )
    def test_non_finite_point_is_quiet(self, x, y):
        # fail safe, as for a lost target: no gimbal motion
        assert step(ImagePoint(x, y), CFG) == GimbalCommand()

    def test_finite_point_beyond_float_range_of_p_still_commands(self):
        # P overflows to inf, but the input is finite: the sector decides as usual
        assert relative_position(ImagePoint(1e200, 0.0), ROI) == math.inf
        assert step(ImagePoint(1e200, 0.0), CFG) == GimbalCommand(yaw_rate=0.3)

    @given(theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
           p_target=st.floats(min_value=0.0, max_value=9.0))
    def test_five_valued_output(self, theta, p_target):
        cmd = step(point_at(theta, p_target), CFG)
        m = CFG.rate_magnitude
        assert (cmd.yaw_rate, cmd.pitch_rate) in {(0.0, 0.0), (m, 0.0), (-m, 0.0), (0.0, m), (0.0, -m)}

    @given(
        p=st.one_of(
            st.builds(point_at, st.floats(min_value=-math.pi + 1e-9, max_value=math.pi), st.floats(0.0, 9.0)),
            st.builds(ImagePoint, st.floats(), st.floats()),
        ),
        rate=st.sampled_from([0.05, 0.2, 0.3]),
    )
    def test_output_is_one_of_the_configs_own_five_commands(self, p, rate):
        cfg = ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=rate)
        own = [controller._IDLE, *cfg._commands.values()]
        cmd = step(p, cfg)
        assert any(cmd is c for c in own)
        assert decide(p.x, p.y, cfg)[2] is cmd

    def test_commands_follow_the_config_through_replace_and_equality(self):
        cfg = replace(CFG, rate_magnitude=0.2)
        assert cfg._commands == {
            Sector.RIGHT: GimbalCommand(yaw_rate=0.2),
            Sector.LEFT: GimbalCommand(yaw_rate=-0.2),
            Sector.TOP: GimbalCommand(pitch_rate=0.2),
            Sector.BOTTOM: GimbalCommand(pitch_rate=-0.2),
        }
        same = ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=0.3)
        assert same == CFG and hash(same) == hash(CFG) and same._commands is not CFG._commands
        assert repr(same) == repr(CFG) and "_commands" not in repr(CFG)
        # The ROI's squares follow the ROI through replace, and are derived state
        # like the commands: equality, hash and repr see the three fields alone.
        moved = replace(CFG, roi=EllipseRoi(100.0, 50.0))
        assert (moved._a_sq, moved._b_sq) == (10000.0, 2500.0)
        assert (CFG._a_sq, CFG._b_sq) == (ROI.a * ROI.a, ROI.b * ROI.b)
        odd = ControllerConfig(roi=ROI, frame=FRAME)
        object.__setattr__(odd, "_a_sq", 1.0)
        object.__setattr__(odd, "_b_sq", 2.0)
        assert odd == CFG and hash(odd) == hash(CFG) == hash((ROI, FRAME, 0.3))
        assert repr(odd) == repr(CFG) == f"ControllerConfig(roi={ROI!r}, frame={FRAME!r}, rate_magnitude=0.3)"

    @given(theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
           p_target=st.floats(min_value=0.0, max_value=9.0))
    def test_mutual_exclusivity(self, theta, p_target):
        cmd = step(point_at(theta, p_target), CFG)
        assert cmd.yaw_rate * cmd.pitch_rate == 0.0

    @given(theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
           p_target=st.floats(min_value=0.0, max_value=9.0))
    def test_quiescence_iff_inside(self, theta, p_target):
        p = point_at(theta, p_target)
        assert step(p, CFG).is_zero() == (relative_position(p, CFG.roi) <= 1.0)

    @given(cfg=any_config(), data=st.data())
    def test_decide_reports_p_and_sector_inside_too(self, cfg, data):
        # bit for bit, for any point: -0.0, infinities and NaN included
        p = data.draw(st.one_of(
            st.builds(point_at, st.floats(min_value=-math.pi + 1e-9, max_value=math.pi), st.floats(0.0, 9.0),
                      st.just(cfg.roi)),
            st.builds(ImagePoint, st.floats(), st.floats()),
        ))
        rel, sector, _ = decide(p.x, p.y, cfg)
        assert struct.pack("<d", rel) == struct.pack("<d", relative_position(p, cfg.roi))
        assert sector is classify_sector(to_polar(p).theta)

    @given(theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi))
    def test_quarter_turn_permutes_commands(self, theta):
        # on a circular ROI a quarter turn preserves P, so the command must
        # follow the sector permutation right->top->left->bottom; stay off the
        # sector boundaries where a one-ulp wobble flips the classification
        assume(min(abs(math.remainder(theta - b, 2 * math.pi))
                   for b in (math.pi / 4, 3 * math.pi / 4, -math.pi / 4, -3 * math.pi / 4)) > 1e-9)
        frame = FrameSpec(1000, 1000)
        roi = EllipseRoi(200.0, 200.0)
        cfg = ControllerConfig(roi=roi, frame=frame)
        p = point_at(theta, 3.0, roi)
        q = point_at(theta + math.pi / 2, 3.0, roi)
        mapping = {
            (cfg.rate_magnitude, 0.0): (0.0, cfg.rate_magnitude),
            (0.0, cfg.rate_magnitude): (-cfg.rate_magnitude, 0.0),
            (-cfg.rate_magnitude, 0.0): (0.0, -cfg.rate_magnitude),
            (0.0, -cfg.rate_magnitude): (cfg.rate_magnitude, 0.0),
        }
        a = step(p, cfg)
        b = step(q, cfg)
        assert mapping[(a.yaw_rate, a.pitch_rate)] == (b.yaw_rate, b.pitch_rate)

    def test_command_matches_sector_of_polar_angle(self):
        for k in range(16):
            theta = -math.pi + (k + 0.5) * math.pi / 8
            p = point_at(theta, 2.0)
            cmd = step(p, CFG)
            sector = classify_sector(to_polar(p).theta)
            expected = {
                Sector.RIGHT: GimbalCommand(yaw_rate=0.3),
                Sector.LEFT: GimbalCommand(yaw_rate=-0.3),
                Sector.TOP: GimbalCommand(pitch_rate=0.3),
                Sector.BOTTOM: GimbalCommand(pitch_rate=-0.3),
            }[sector]
            assert cmd == expected


def atan2_sector(x: float, y: float) -> Sector:
    return classify_sector(math.atan2(y, x))


def ulps_away(value: float, k: int) -> float:
    """``value`` moved ``k`` representable doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        value = math.nextafter(value, math.copysign(math.inf, k))
    return value


# Any magnitude a double can take, log-uniform, subnormals included.
log_uniform = st.builds(
    lambda sign, mantissa, exponent: sign * math.ldexp(mantissa, exponent),
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1023),
)


class TestCertifiedSector:
    """``decide`` names the sector without ``atan2`` away from the
    diagonals; it must name the one ``atan2`` and ``classify_sector`` give."""

    @settings(max_examples=1000)
    @given(x=st.floats(), y=st.floats())
    def test_any_floats(self, x, y):
        assert decide(x, y, CFG)[1] is atan2_sector(x, y)

    @settings(max_examples=1000)
    @given(x=log_uniform, y=log_uniform)
    def test_log_uniform_magnitudes(self, x, y):
        assert decide(x, y, CFG)[1] is atan2_sector(x, y)

    @pytest.mark.parametrize("magnitude", [1.0, 3.0, 7e-300, 5e300, 1e-310, 5e-324, 1.7e308])
    def test_within_40_ulps_of_both_diagonals(self, magnitude):
        for k in range(-40, 41):
            near = ulps_away(magnitude, k)
            for a, b in ((magnitude, near), (near, magnitude)):
                for x in (a, -a):
                    for y in (b, -b):
                        assert decide(x, y, CFG)[1] is atan2_sector(x, y), (x, y)

    def test_zeros_infinities_nan_and_extremes(self):
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.0, -1.0]
        for x in values:
            for y in values:
                assert decide(x, y, CFG)[1] is atan2_sector(x, y), (x, y)


class TestValidation:
    def test_both_axes_rejected(self):
        with pytest.raises(ValueError):
            GimbalCommand(0.3, 0.3)

    @pytest.mark.parametrize("rate", [0.0, -0.1, 0.31, 1.0])
    def test_rate_magnitude_bounds(self, rate):
        with pytest.raises(ValueError):
            ControllerConfig(roi=ROI, frame=FRAME, rate_magnitude=rate)

    def test_hardware_cap_value(self):
        assert MAX_RATE_RAD_S == 0.3

    def test_roi_must_fit_frame(self):
        with pytest.raises(ValueError):
            ControllerConfig(roi=EllipseRoi(2000.0, 100.0), frame=FRAME)
