from __future__ import annotations

import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from roitrack.geometry import (
    EllipseRoi,
    FrameSpec,
    ImagePoint,
    Sector,
    classify_sector,
    relative_position,
    to_centered,
    to_polar,
    wrap_angle,
)

FRAME = FrameSpec(1920, 720)

finite_coord = st.floats(min_value=-2000.0, max_value=2000.0, allow_nan=False)
semi_axis = st.floats(min_value=1.0, max_value=960.0, allow_nan=False)


class TestToCentered:
    def test_frame_center(self):
        p = to_centered(row=360, col=960, frame=FRAME)
        assert (p.x, p.y) == (0.0, 0.0)

    def test_top_left_corner(self):
        p = to_centered(row=0, col=0, frame=FRAME)
        assert (p.x, p.y) == (-960.0, 360.0)

    def test_hand_arithmetic(self):
        # col - 960, 360 - row
        p = to_centered(row=460, col=1260, frame=FRAME)
        assert (p.x, p.y) == (300.0, -100.0)

    def test_off_frame_passes_through(self):
        p = to_centered(row=-10, col=2000, frame=FRAME)
        assert (p.x, p.y) == (1040.0, 370.0)


class TestToPolar:
    def test_hand_trig(self):
        pp = to_polar(ImagePoint(3.0, 4.0))
        assert pp.r == pytest.approx(5.0)
        assert pp.theta == pytest.approx(math.atan2(4, 3))

    def test_positive_x_axis(self):
        pp = to_polar(ImagePoint(1.0, 0.0))
        assert (pp.r, pp.theta) == (1.0, 0.0)

    def test_negative_y_axis(self):
        pp = to_polar(ImagePoint(0.0, -1.0))
        assert pp.r == 1.0
        assert pp.theta == pytest.approx(-math.pi / 2)

    def test_origin(self):
        pp = to_polar(ImagePoint(0.0, 0.0))
        assert (pp.r, pp.theta) == (0.0, 0.0)

    def test_negative_zero_y_maps_into_range(self):
        pp = to_polar(ImagePoint(-1.0, -0.0))
        assert pp.theta == pytest.approx(math.pi)
        assert -math.pi < pp.theta <= math.pi

    @given(r=st.floats(min_value=1e-6, max_value=1e4), theta=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi))
    def test_round_trip(self, r, theta):
        p = ImagePoint(r * math.cos(theta), r * math.sin(theta))
        pp = to_polar(p)
        assert pp.r == pytest.approx(r, abs=1e-9 * max(1.0, r))
        assert wrap_angle(pp.theta - theta) == pytest.approx(0.0, abs=1e-9)


class TestRelativePosition:
    def test_center(self):
        assert relative_position(ImagePoint(0, 0), EllipseRoi(288, 108)) == 0.0

    def test_boundary_vertex(self):
        assert relative_position(ImagePoint(288, 0), EllipseRoi(288, 108)) == 1.0

    def test_direct_arithmetic(self):
        # 0.25 + 0.25
        assert relative_position(ImagePoint(100, 50), EllipseRoi(200, 100)) == pytest.approx(0.5)

    @given(x=finite_coord, y=finite_coord, a=semi_axis, b=semi_axis)
    def test_non_negative_zero_only_at_origin(self, x, y, a, b):
        # quantities below ~1e-150 square to zero in floats; pixel coordinates
        # are O(1000), so pin the property above the underflow regime
        if 0.0 < abs(x) < 1e-6 or 0.0 < abs(y) < 1e-6:
            return
        p = relative_position(ImagePoint(x, y), EllipseRoi(a, b))
        assert p >= 0.0
        if x != 0.0 or y != 0.0:
            assert p > 0.0

    @given(x=finite_coord, y=finite_coord, a=semi_axis, b=semi_axis,
           k=st.floats(min_value=0.01, max_value=100.0))
    def test_scaling_invariance(self, x, y, a, b, k):
        base = relative_position(ImagePoint(x, y), EllipseRoi(a, b))
        scaled = relative_position(ImagePoint(k * x, k * y), EllipseRoi(k * a, k * b))
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)


class TestClassifySector:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, Sector.RIGHT),
            (math.pi / 2, Sector.TOP),
            (math.pi, Sector.LEFT),
            (-math.pi / 2, Sector.BOTTOM),
        ],
    )
    def test_axis_directions(self, theta, expected):
        assert classify_sector(theta) is expected

    @pytest.mark.parametrize(
        "theta,expected",
        [
            (math.pi / 4, Sector.TOP),
            (3 * math.pi / 4, Sector.LEFT),
            (-3 * math.pi / 4, Sector.BOTTOM),
            (-math.pi / 4, Sector.RIGHT),
        ],
    )
    def test_boundaries_go_counterclockwise(self, theta, expected):
        assert classify_sector(theta) is expected

    def test_exhaustive_sweep_partitions_evenly(self):
        # 10^6 angles across (-pi, pi]: every angle gets exactly one sector and
        # the four preimages have equal measure.
        n = 1_000_000
        counts = {s: 0 for s in Sector}
        step = 2 * math.pi / n
        for k in range(n):
            theta = -math.pi + (k + 0.5) * step
            counts[classify_sector(theta)] += 1
        assert sum(counts.values()) == n
        assert all(c == n // 4 for c in counts.values()), counts

    @given(theta=st.floats(min_value=-50.0, max_value=50.0))
    def test_total_over_any_angle(self, theta):
        assert classify_sector(theta) in Sector


class TestSectorMembers:
    """Sectors hash by identity; they stay singletons through every copy."""

    @pytest.mark.parametrize("member", list(Sector), ids=lambda m: m.value)
    def test_hash_is_identity_and_copies_are_the_member(self, member):
        assert hash(member) == object.__hash__(member)
        assert Sector(member.value) is member
        assert copy.copy(member) is member
        assert copy.deepcopy(member) is member
        assert pickle.loads(pickle.dumps(member)) is member


class TestIsInside:
    """Inside means P <= 1, boundary included: the controller's quiet zone."""

    def test_center_inside(self):
        assert relative_position(ImagePoint(0, 0), EllipseRoi(10, 10)) <= 1.0

    def test_diagonal_vertex_outside(self):
        # P = 2 at (a, b)
        assert relative_position(ImagePoint(288, 108), EllipseRoi(288, 108)) > 1.0

    def test_boundary_counts_as_inside(self):
        assert relative_position(ImagePoint(288, 0), EllipseRoi(288, 108)) <= 1.0

    @given(x=finite_coord, y=finite_coord, a=semi_axis, b=semi_axis)
    def test_matches_independent_oracle(self, x, y, a, b):
        oracle = (x / a) ** 2 + (y / b) ** 2
        if abs(oracle - 1.0) > 1e-9:  # undecidable knife edge aside
            assert (relative_position(ImagePoint(x, y), EllipseRoi(a, b)) <= 1.0) == (oracle <= 1.0)


class TestValidation:
    def test_frame_must_be_positive(self):
        with pytest.raises(ValueError):
            FrameSpec(0, 720)

    def test_frame_side_at_most_2_pow_20(self):
        FrameSpec(2**20, 2**20)
        for width, height in ((2**20 + 1, 720), (1920, 2**20 + 1)):
            with pytest.raises(ValueError, match=r"at most 2\*\*20 px"):
                FrameSpec(width, height)

    def test_roi_must_be_positive(self):
        with pytest.raises(ValueError):
            EllipseRoi(0.0, 10.0)

    @pytest.mark.parametrize("frac", [0.04, 0.5, -0.1])
    def test_fraction_bounds(self, frac):
        with pytest.raises(ValueError):
            EllipseRoi.from_fractions(FRAME, frac_x=frac)

    def test_default_fractions(self):
        roi = EllipseRoi.from_fractions(FRAME)
        assert roi.a == pytest.approx(0.30 * 1920)
        assert roi.b == pytest.approx(0.30 * 720)
        assert roi.fits(FRAME)
