from __future__ import annotations

import math
import random
from dataclasses import FrozenInstanceError

import pytest

from roitrack.arenas import (
    DEFAULT_LOOKAHEAD_M,
    DEFAULT_MAX_RUDDER_RAD_S,
    Path,
    _point_at_arc_length,
    arena_fixture_bytes,
    build_arena,
    parse_arena_text,
    pursue,
)
from roitrack.geometry import wrap_angle
from roitrack.trials import BASELINE_JITTER_M, jitter_path
from roitrack.world import UsvState, usv_step


class TestFixtures:
    def test_arena1_is_closed_circuit(self):
        path = build_arena(1)
        assert path.closed
        assert len(path.waypoints) >= 4

    def test_arena2_is_open_track(self):
        path = build_arena(2)
        assert not path.closed
        assert len(path.waypoints) >= 5

    def test_unknown_arena_rejected(self):
        with pytest.raises(ValueError):
            build_arena(3)

    def test_parsed_once_and_shared_frozen(self):
        assert build_arena(1) is build_arena(1)
        assert build_arena(2) is build_arena(2)
        assert build_arena(1) == parse_arena_text(arena_fixture_bytes(1).decode("utf-8"))
        with pytest.raises(FrozenInstanceError):
            build_arena(1).closed = False
        assert build_arena(1).closed

    def test_unknown_arena_rejected_on_every_call(self):
        # The cache keeps results only: an error is raised afresh each time.
        for _ in range(3):
            with pytest.raises(ValueError, match="unknown arena id 3"):
                build_arena(3)

    def test_fixture_bytes_stable(self):
        assert arena_fixture_bytes(1) == arena_fixture_bytes(1)
        assert arena_fixture_bytes(1) != arena_fixture_bytes(2)


class TestParse:
    def test_round_trip_shape(self):
        text = "closed = true\nwaypoint_01_m = 0.0 1.0\nwaypoint_02_m = 2.0 1.0\n"
        path = parse_arena_text(text)
        assert path.closed
        assert path.waypoints == ((0.0, 1.0), (2.0, 1.0))

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\nclosed = false\nwaypoint_01_m = 0 0  # inline\nwaypoint_02_m = 1 1\n"
        assert parse_arena_text(text).waypoints == ((0.0, 0.0), (1.0, 1.0))

    def test_waypoints_ordered_by_index(self):
        text = "closed = false\nwaypoint_02_m = 1 1\nwaypoint_01_m = 0 0\n"
        assert parse_arena_text(text).waypoints == ((0.0, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize(
        "text",
        [
            "closed = maybe\nwaypoint_01_m = 0 0\nwaypoint_02_m = 1 1\n",
            "unknown_key = 1\n",
            "waypoint_01_m = 0\nwaypoint_02_m = 1 1\n",
            "just a line\n",
            "closed = true\nclosed = false\nwaypoint_01_m = 0 0\nwaypoint_02_m = 1 1\n",
            "waypoint_01_m = 0 0\nwaypoint_1_m = 1 1\nwaypoint_02_m = 2 2\n",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_arena_text(text)

    @pytest.mark.parametrize("key,value", [
        ("waypoint_x_m", "1 2"),
        ("waypoint__m", "1 2"),
        ("waypoint_1_m", "a b"),
        ("waypoint_1_m", "1"),
    ])
    def test_bad_waypoint_refusal_names_the_key(self, key, value):
        with pytest.raises(ValueError, match=f"^arena: {key}"):
            parse_arena_text(f"closed = false\n{key} = {value}\n")

    # int() and float() take these; a fixture number is ASCII with no digit groups
    @pytest.mark.parametrize("key,value", [
        ("waypoint_1_m", "1_0 1"),
        ("waypoint_1_m", "1 \uff11"),
        ("waypoint_\uff12_m", "1 2"),
        ("waypoint_1_0_m", "1 2"),
        ("waypoint_\u0662_m", "1 2"),
    ])
    def test_number_not_in_ascii_or_with_digit_groups_is_refused(self, key, value):
        with pytest.raises(ValueError, match=f"^arena: {key} = {value} is not"):
            parse_arena_text(f"closed = false\nwaypoint_0_m = 0 0\n{key} = {value}\n")


class TestPathInvariants:
    def test_too_few_waypoints(self):
        with pytest.raises(ValueError):
            Path(waypoints=((0.0, 0.0),), closed=False)

    def test_repeated_consecutive_waypoints(self):
        with pytest.raises(ValueError):
            Path(waypoints=((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)), closed=False)

    def test_closed_path_checks_wrap_leg(self):
        with pytest.raises(ValueError):
            Path(waypoints=((0.0, 0.0), (1.0, 1.0), (0.0, 0.0)), closed=True)

    @pytest.mark.parametrize(
        "waypoints",
        [
            ((math.inf, 0.0), (1.0, 0.0)),  # coordinate
            ((0.0, 0.0), (1.0, math.nan)),  # coordinate
            ((1e308, 0.0), (-1e308, 0.0)),  # leg vector overflows
            ((0.0, 1e200), (0.0, -1e200)),  # squared leg length overflows
        ],
    )
    def test_non_finite_geometry_rejected(self, waypoints):
        with pytest.raises(ValueError, match="not finite"):
            Path(waypoints=waypoints, closed=True)

    def test_fixture_with_an_infinite_coordinate_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            parse_arena_text("closed = false\nwaypoint_01_m = 0 0\nwaypoint_02_m = inf 1\n")


STRAIGHT_NORTH = Path(waypoints=((0.0, 0.0), (0.0, 10.0)), closed=False)


class TestPursue:
    def test_aligned_gives_zero_rudder(self):
        s = UsvState(0.0, 1.0, math.pi / 2, 1.0)  # on the path, heading at it
        assert pursue(s, STRAIGHT_NORTH, lookahead=0.5) == 0.0

    def test_goal_to_port_gives_positive_saturated_rudder(self):
        s = UsvState(0.0, 0.0, 0.0, 1.0)  # heading east, path goes north (port side)
        assert pursue(s, STRAIGHT_NORTH, lookahead=0.5) == DEFAULT_MAX_RUDDER_RAD_S

    def test_goal_to_starboard_gives_negative(self):
        s = UsvState(0.0, 0.0, math.pi, 1.0)  # heading west, path north = starboard
        assert pursue(s, STRAIGHT_NORTH, lookahead=0.5) == -DEFAULT_MAX_RUDDER_RAD_S

    def test_open_path_end_reached_gives_zero(self):
        s = UsvState(0.0, 10.0, math.pi / 2, 1.0)
        assert pursue(s, STRAIGHT_NORTH, lookahead=0.5) == 0.0

    def test_deterministic(self):
        s = UsvState(0.3, 2.2, 1.1, 0.8)
        path = build_arena(1)
        assert pursue(s, path, 0.5) == pursue(s, path, 0.5)

    @pytest.mark.parametrize("lookahead", [0.0, -0.5, math.nan])
    def test_bad_lookahead_rejected(self, lookahead):
        with pytest.raises(ValueError, match="lookahead must be positive"):
            pursue(UsvState(0, 0, 0, 1.0), STRAIGHT_NORTH, lookahead=lookahead)

    def test_tracking_error_stays_bounded_on_arena2(self):
        # fine-timestep simulation oracle: cross-track error below 2x lookahead
        path = build_arena(2)
        lookahead = 0.5
        start, after = path.waypoints[0], path.waypoints[1]
        s = UsvState(start[0], start[1], math.atan2(after[1] - start[1], after[0] - start[0]), 0.8)
        dt = 1.0 / 300.0
        worst = 0.0
        for _ in range(int(11.0 / dt)):
            s = usv_step(s, pursue(s, path, lookahead), dt)
            worst = max(worst, _distance_to_polyline((s.x, s.y), path))
        assert worst < 2 * lookahead

    def test_closed_path_keeps_circulating(self):
        path = build_arena(1)
        start, after = path.waypoints[0], path.waypoints[1]
        s = UsvState(start[0], start[1], math.atan2(after[1] - start[1], after[0] - start[0]), 0.6)
        dt = 1.0 / 60.0
        positions = []
        for i in range(int(48.0 / dt)):
            s = usv_step(s, pursue(s, path, 0.5), dt)
            positions.append((s.x, s.y))
        # still moving near the circuit at the end of two laps
        assert _distance_to_polyline(positions[-1], path) < 1.0
        xs = [p[0] for p in positions[-int(24.0 / dt):]]
        assert max(xs) - min(xs) > 1.0  # not parked


def _distance_to_polyline(p, path: Path) -> float:
    best = math.inf
    for a, b in path.segments():
        abx, aby = b[0] - a[0], b[1] - a[1]
        denom = abx * abx + aby * aby
        t = max(0.0, min(1.0, ((p[0] - a[0]) * abx + (p[1] - a[1]) * aby) / denom))
        best = min(best, math.dist(p, (a[0] + t * abx, a[1] + t * aby)))
    return best


def _reference_point_at_arc_length(path: Path, s: float) -> tuple[float, float]:
    """Arc-length lookup as written before ``Path`` cached its legs."""
    segs = path.segments()
    total = math.fsum(math.dist(a, b) for a, b in segs)
    if path.closed:
        s = s % total
    else:
        s = max(0.0, min(total, s))
    for a, b in segs:
        seg_len = math.dist(a, b)
        if s <= seg_len:
            t = s / seg_len
            return a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])
        s -= seg_len
    return segs[-1][1]


def _reference_pursue(s, path: Path, lookahead=DEFAULT_LOOKAHEAD_M, max_rudder=DEFAULT_MAX_RUDDER_RAD_S):
    """Pure pursuit as written before ``Path`` cached its legs: everything is
    rebuilt from the waypoints on every call."""
    segs = path.segments()
    best = (math.inf, 0, 0.0)
    for i, (a, b) in enumerate(segs):
        abx, aby = b[0] - a[0], b[1] - a[1]
        apx, apy = s.x - a[0], s.y - a[1]
        denom = abx * abx + aby * aby
        t = max(0.0, min(1.0, (apx * abx + apy * aby) / denom))
        cx, cy = a[0] + t * abx, a[1] + t * aby
        dx, dy = s.x - cx, s.y - cy
        d2 = dx * dx + dy * dy
        if d2 < best[0]:
            best = (d2, i, t)
    seg_lengths = [math.dist(a, b) for a, b in segs]
    s_near = math.fsum(seg_lengths[: best[1]]) + best[2] * seg_lengths[best[1]]
    total = math.fsum(seg_lengths)
    if not path.closed and total - s_near < 1e-9:
        return 0.0
    gx, gy = _reference_point_at_arc_length(path, s_near + lookahead)
    dx, dy = gx - s.x, gy - s.y
    if math.hypot(dx, dy) < 1e-12:
        return 0.0
    alpha = wrap_angle(math.atan2(dy, dx) - s.heading)
    rudder = 2.0 * s.speed * math.sin(alpha) / lookahead
    return max(-max_rudder, min(max_rudder, rudder))


def _trial_paths(arena_id: int) -> list[Path]:
    """The canonical arena and the jittered copies trials with seeds 1-30 run on."""
    path = build_arena(arena_id)
    return [path] + [jitter_path(path, BASELINE_JITTER_M, random.Random(seed)) for seed in range(1, 31)]


def _total(path: Path) -> float:
    return math.fsum(math.dist(a, b) for a, b in path.segments())


HEADINGS = (0.0, 1.0, -2.5)


class TestPursueMatchesReference:
    """The cached-leg pursuit is bit-identical (``==``) to the rebuild-per-call
    reference, which keeps the CLI's telemetry bytes unchanged."""

    @pytest.mark.parametrize("arena_id", [1, 2])
    def test_grid_around_arena(self, arena_id):
        path = build_arena(arena_id)
        xs = [x for x, _ in path.waypoints]
        ys = [y for _, y in path.waypoints]
        x0, y0 = min(xs) - 1.0, min(ys) - 1.0
        nx, ny = int((max(xs) - min(xs) + 2.0) / 0.13) + 1, int((max(ys) - min(ys) + 2.0) / 0.13) + 1
        for i in range(nx):
            for j in range(ny):
                s = UsvState(x0 + 0.13 * i, y0 + 0.13 * j, HEADINGS[(i + j) % 3], 0.7)
                assert pursue(s, path) == _reference_pursue(s, path), (s.x, s.y)

    def test_points_past_the_end_of_open_arena_2(self):
        for path in _trial_paths(2):
            (ax, ay), (bx, by) = path.waypoints[-2], path.waypoints[-1]
            ux, uy = (bx - ax) / math.dist((ax, ay), (bx, by)), (by - ay) / math.dist((ax, ay), (bx, by))
            for k in range(-20, 40):
                along = 0.05 * k
                for side in (-0.3, -1e-9, 0.0, 1e-9, 0.3):
                    s = UsvState(bx + along * ux - side * uy, by + along * uy + side * ux, 1.0, 0.8)
                    assert pursue(s, path) == _reference_pursue(s, path), (along, side)

    def test_lookaheads_running_past_the_end(self):
        for path in _trial_paths(2):
            total = _total(path)
            ends = [total - 1.0, math.nextafter(total, 0.0), total, math.nextafter(total, math.inf), total + 0.5, 1e9]
            for arc in ends:
                assert _point_at_arc_length(path, arc) == _reference_point_at_arc_length(path, arc), arc
            bx, by = path.waypoints[-1]
            for lookahead in (0.5, 1.0, 2.0, 0.25 * total, total, 3.0 * total):
                for back in (0.01, 0.2, 0.6, 1.5):
                    s = UsvState(bx - back, by + 0.05, 0.3, 0.8)
                    assert pursue(s, path, lookahead) == _reference_pursue(s, path, lookahead), (lookahead, back)

    def test_closed_path_at_whole_laps(self):
        for path in _trial_paths(1):
            total = _total(path)
            for k in range(-3, 6):
                for arc in (k * total, math.nextafter(k * total, -math.inf), math.nextafter(k * total, math.inf)):
                    assert _point_at_arc_length(path, arc) == _reference_point_at_arc_length(path, arc), arc


class TestJitter:
    def test_zero_amplitude_is_identity(self):
        path = build_arena(1)
        assert jitter_path(path, 0.0, random.Random(1)) == path

    def test_seeded_reproducibility(self):
        path = build_arena(2)
        a = jitter_path(path, 0.05, random.Random(7))
        b = jitter_path(path, 0.05, random.Random(7))
        assert a == b

    def test_different_seeds_differ(self):
        path = build_arena(2)
        assert jitter_path(path, 0.05, random.Random(1)) != jitter_path(path, 0.05, random.Random(2))

    def test_offsets_bounded_by_amplitude(self):
        path = build_arena(1)
        amp = 0.08
        jittered = jitter_path(path, amp, random.Random(3))
        for (x0, y0), (x1, y1) in zip(path.waypoints, jittered.waypoints):
            assert math.dist((x0, y0), (x1, y1)) <= amp + 1e-12
