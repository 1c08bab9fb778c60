"""Test-arena paths and the pure-pursuit rudder that replaces a human driver.

The two canonical arenas live in versioned fixture files under
``roitrack/data``: arena 1 is a rectangular circuit with corner cut-ins,
arena 2 an open zig-zag track.  Their waypoint coordinates were calibrated
once against the baseline trial configuration and are never tuned per test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources

from .geometry import wrap_angle
from .text import parse_kv_text, parse_number

ARENA_FILES = {1: "arena1.cfg", 2: "arena2.cfg"}

DEFAULT_LOOKAHEAD_M = 0.5
DEFAULT_MAX_RUDDER_RAD_S = 2.5


@dataclass(frozen=True)
class Path:
    """Waypoint polyline in meters; closed paths wrap the last leg to the first.

    The per-leg data pursuit reads on every step is derived once here, one
    ``_legs`` entry per leg: its start point, its vector ``b - a``, the squared
    length ``denom``, its length and its offset, the exact prefix sum of the
    lengths before it; and the total length.  Every one of them must be finite.
    """

    waypoints: tuple[tuple[float, float], ...]
    closed: bool
    _legs: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    _total: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        segs = self.segments()
        lengths = [math.dist(a, b) for a, b in segs]
        legs = []
        for i, (a, b) in enumerate(segs):
            if a == b:
                raise ValueError(f"consecutive waypoints must be distinct, got repeated {a}")
            abx, aby = b[0] - a[0], b[1] - a[1]
            denom = abx * abx + aby * aby
            # A non-finite coordinate or leg vector makes this square non-finite
            # too; a finite one bounds each leg, and so the total, far below overflow.
            if not math.isfinite(denom):
                raise ValueError(f"leg from {a} to {b} is not finite: squared length {denom}")
            legs.append((a[0], a[1], abx, aby, denom, lengths[i], math.fsum(lengths[:i])))
        object.__setattr__(self, "_legs", tuple(legs))
        object.__setattr__(self, "_total", math.fsum(lengths))

    def segments(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        segs = list(zip(self.waypoints, self.waypoints[1:]))
        if self.closed:
            segs.append((self.waypoints[-1], self.waypoints[0]))
        return segs


def parse_arena_text(text: str) -> Path:
    """Parse the arena fixture format, the flat key-value text of ``text.parse_kv_text``.

    Recognized keys: ``closed`` (true/false) and ``waypoint_NN_m`` entries
    holding "x y" in meters, ordered by their index NN, which must be unique.
    """
    closed = False
    waypoints: dict[int, tuple[float, float]] = {}
    for key, value in parse_kv_text(text, source="arena").items():
        if key == "closed":
            if value not in ("true", "false"):
                raise ValueError(f"arena: closed must be true/false, got {value!r}")
            closed = value == "true"
        elif key.startswith("waypoint_") and key.endswith("_m"):
            try:
                index = parse_number(int, key[len("waypoint_") : -len("_m")])
                x, y = (parse_number(float, text) for text in value.split())
            except ValueError:  # a non-integer index, or not two numbers
                raise ValueError(f"arena: {key} = {value} is not 'waypoint_<integer>_m = x y'") from None
            if index in waypoints:
                raise ValueError(f"arena: waypoint index {index} repeated by {key!r}")
            waypoints[index] = (x, y)
        else:
            raise ValueError(f"arena: unknown key {key!r}")
    return Path(waypoints=tuple(waypoints[i] for i in sorted(waypoints)), closed=closed)


def arena_fixture_bytes(arena_id: int) -> bytes:
    """Raw fixture file content, used for content-hashing run manifests."""
    if arena_id not in ARENA_FILES:
        raise ValueError(f"unknown arena id {arena_id}; expected one of {sorted(ARENA_FILES)}")
    return (resources.files("roitrack.data") / ARENA_FILES[arena_id]).read_bytes()


@functools.cache
def build_arena(arena_id: int) -> Path:
    """Load the canonical waypoint path for arena 1 or 2, parsed once per
    process; ``Path`` is frozen, so every caller can share it."""
    return parse_arena_text(arena_fixture_bytes(arena_id).decode("utf-8"))


def _point_at_arc_length(path: Path, s: float) -> tuple[float, float]:
    total = path._total
    if path.closed:
        s = s % total
    else:
        s = max(0.0, min(total, s))
    for ax, ay, abx, aby, _, seg_len, _ in path._legs:
        if s <= seg_len:
            t = s / seg_len
            return ax + t * abx, ay + t * aby
        s -= seg_len
    # Rounding left s just past the last leg: its stored end point, exactly.
    return path.waypoints[0] if path.closed else path.waypoints[-1]


def pursue(s, path: Path, lookahead: float = DEFAULT_LOOKAHEAD_M) -> float:
    """Pure-pursuit rudder rate chasing a lookahead point on the path.

    Stateless and deterministic: progress along the path is recovered from
    the boat position (nearest point on the polyline, earliest segment wins
    ties), then the goal is the point ``lookahead`` meters further along.
    On an open path whose end has been reached the rudder is 0.  The rate is
    clamped to ``DEFAULT_MAX_RUDDER_RAD_S``.  ``trials.iter_trial`` runs the
    same steering inline, and the tests hold it to this function bit for bit.
    """
    if not lookahead > 0:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    leg, t, _ = _nearest_leg(s.x, s.y, path._legs)
    _, _, _, _, _, length, offset = path._legs[leg]
    s_near = offset + t * length
    if not path.closed and path._total - s_near < 1e-9:
        return 0.0
    gx, gy = _point_at_arc_length(path, s_near + lookahead)
    dx, dy = gx - s.x, gy - s.y
    if math.hypot(dx, dy) < 1e-12:
        return 0.0
    alpha = wrap_angle(math.atan2(dy, dx) - s.heading)
    rudder = 2.0 * s.speed * math.sin(alpha) / lookahead
    return max(-DEFAULT_MAX_RUDDER_RAD_S, min(DEFAULT_MAX_RUDDER_RAD_S, rudder))


def _nearest_leg(px: float, py: float, legs) -> tuple[int, float, float]:
    """The full leg search: the leg nearest (px, py), earliest winning ties,
    the clamped projection parameter ``t`` on it, and the runner-up distance.

    The runner-up distance is the least distance to any other leg: ``inf``
    for a one-leg path, and NaN when some leg's squared distance is not
    finite, so no bound can be built on it.
    """
    inf = math.inf
    best_d2 = second_d2 = inf
    best_i, best_t, finite = 0, 0.0, True
    for i, (ax, ay, abx, aby, denom, _, _) in enumerate(legs):
        # Project (px, py) onto the leg, t clamped to [0, 1].
        t = ((px - ax) * abx + (py - ay) * aby) / denom
        t = 0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t
        dx, dy = px - (ax + t * abx), py - (ay + t * aby)
        d2 = dx * dx + dy * dy
        if d2 < second_d2:  # second_d2 >= best_d2, so this holds whenever d2 < best_d2
            if d2 < best_d2:
                best_d2, second_d2, best_i, best_t = d2, best_d2, i, t
            else:
                second_d2 = d2
        elif not d2 < inf:
            finite = False
    return best_i, best_t, math.sqrt(second_d2) if finite else math.nan
