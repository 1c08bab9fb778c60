from __future__ import annotations

import math
import random

import pytest

from roitrack.arenas import (
    DEFAULT_MAX_RUDDER_RAD_S,
    Path,
    arena_fixture_bytes,
    build_arena,
    parse_arena_text,
    pursue,
)
from roitrack.trials import jitter_path
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

    def test_bad_lookahead_rejected(self):
        with pytest.raises(ValueError):
            pursue(UsvState(0, 0, 0, 1.0), STRAIGHT_NORTH, lookahead=0.0)

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
