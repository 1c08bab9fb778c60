"""Test-arena paths and the pure-pursuit rudder that replaces a human driver.

The two canonical arenas live in versioned fixture files under
``roitrack/data``: arena 1 is a rectangular circuit with corner cut-ins,
arena 2 an open zig-zag track.  Their waypoint coordinates were calibrated
once against the baseline trial configuration and are never tuned per test.
The fixtures' flat ``key = value`` format is also the CLI's config format, so
its one parser, ``parse_kv_text``, lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .geometry import wrap_angle

ARENA_FILES = {1: "arena1.cfg", 2: "arena2.cfg"}

DEFAULT_LOOKAHEAD_M = 0.5
DEFAULT_MAX_RUDDER_RAD_S = 2.5


@dataclass(frozen=True)
class Path:
    """Waypoint polyline in meters; closed paths wrap the last leg to the first."""

    waypoints: tuple[tuple[float, float], ...]
    closed: bool

    def __post_init__(self) -> None:
        if len(self.waypoints) < 2:
            raise ValueError("a path needs at least 2 waypoints")
        pairs = list(zip(self.waypoints, self.waypoints[1:]))
        if self.closed:
            pairs.append((self.waypoints[-1], self.waypoints[0]))
        for a, b in pairs:
            if a == b:
                raise ValueError(f"consecutive waypoints must be distinct, got repeated {a}")

    def segments(self) -> list[tuple[tuple[float, float], tuple[float, float]]]:
        segs = list(zip(self.waypoints, self.waypoints[1:]))
        if self.closed:
            segs.append((self.waypoints[-1], self.waypoints[0]))
        return segs

    def length(self) -> float:
        return math.fsum(math.dist(a, b) for a, b in self.segments())


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat 'key = value' lines; '#' starts a comment.

    A key may appear only once, so no line can silently override another.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}: line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{source}: line {lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def parse_arena_text(text: str) -> Path:
    """Parse the arena fixture format, the flat key-value text of ``parse_kv_text``.

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
            index = int(key[len("waypoint_") : -len("_m")])
            if index in waypoints:
                raise ValueError(f"arena: waypoint index {index} repeated by {key!r}")
            parts = value.split()
            if len(parts) != 2:
                raise ValueError(f"arena: {key} needs 'x y', got {value!r}")
            waypoints[index] = (float(parts[0]), float(parts[1]))
        else:
            raise ValueError(f"arena: unknown key {key!r}")
    return Path(waypoints=tuple(waypoints[i] for i in sorted(waypoints)), closed=closed)


def arena_fixture_bytes(arena_id: int) -> bytes:
    """Raw fixture file content, used for content-hashing run manifests."""
    if arena_id not in ARENA_FILES:
        raise ValueError(f"unknown arena id {arena_id}; expected one of {sorted(ARENA_FILES)}")
    return (resources.files("roitrack.data") / ARENA_FILES[arena_id]).read_bytes()


def build_arena(arena_id: int) -> Path:
    """Load the canonical waypoint path for arena 1 or 2."""
    return parse_arena_text(arena_fixture_bytes(arena_id).decode("utf-8"))


def _project_on_segment(
    p: tuple[float, float], a: tuple[float, float], b: tuple[float, float]
) -> tuple[float, float]:
    """(distance squared, parameter t in [0, 1]) of p's projection onto segment ab."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    t = max(0.0, min(1.0, (apx * abx + apy * aby) / denom))
    cx, cy = a[0] + t * abx, a[1] + t * aby
    dx, dy = p[0] - cx, p[1] - cy
    return dx * dx + dy * dy, t


def _point_at_arc_length(path: Path, s: float) -> tuple[float, float]:
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


def pursue(
    s,
    path: Path,
    lookahead: float = DEFAULT_LOOKAHEAD_M,
    max_rudder: float = DEFAULT_MAX_RUDDER_RAD_S,
) -> float:
    """Pure-pursuit rudder rate chasing a lookahead point on the path.

    Stateless and deterministic: progress along the path is recovered from
    the boat position (nearest point on the polyline, earliest segment wins
    ties), then the goal is the point ``lookahead`` meters further along.
    On an open path whose end has been reached the rudder is 0.
    """
    if lookahead <= 0:
        raise ValueError(f"lookahead must be positive, got {lookahead}")
    segs = path.segments()
    best = (math.inf, 0, 0.0)  # (distance squared, segment index, t)
    for i, (a, b) in enumerate(segs):
        d2, t = _project_on_segment((s.x, s.y), a, b)
        if d2 < best[0]:
            best = (d2, i, t)
    seg_lengths = [math.dist(a, b) for a, b in segs]
    s_near = math.fsum(seg_lengths[: best[1]]) + best[2] * seg_lengths[best[1]]
    total = math.fsum(seg_lengths)
    if not path.closed and total - s_near < 1e-9:
        return 0.0
    gx, gy = _point_at_arc_length(path, s_near + lookahead)
    dx, dy = gx - s.x, gy - s.y
    if math.hypot(dx, dy) < 1e-12:
        return 0.0
    alpha = wrap_angle(math.atan2(dy, dx) - s.heading)
    rudder = 2.0 * s.speed * math.sin(alpha) / lookahead
    return max(-max_rudder, min(max_rudder, rudder))
