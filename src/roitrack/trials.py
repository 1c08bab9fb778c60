"""Trial harness: drive the boat along an arena path and record full telemetry.

A trial is a pure function of its configuration.  The only randomness is a
seeded lateral jitter applied to the arena waypoints before the run, standing
in for the variation of a human operator moving the target between trials;
the dynamics themselves are noise-free, so identical configurations produce
bit-identical records.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .arenas import DEFAULT_LOOKAHEAD_M, Path, build_arena, pursue
from .controller import ControllerConfig
from .geometry import EllipseRoi, FrameSpec, Sector
from .world import CameraModel, UavPose, UsvState, WorldState, aim_at, closed_loop_step

DEFAULT_DT_S = 1.0 / 30.0  # frame-driven control loop at 30 fps
DEFAULT_UAV = UavPose(x=0.0, y=0.0, altitude=1.83)  # hover at 6 ft

# Baseline values calibrated once against the arena fixtures so that trials
# produce excursion counts near 18 (arena 1) and 13 (arena 2); frozen here.
BASELINE_USV_SPEED_MPS = {1: 0.6, 2: 0.8}
BASELINE_DURATION_S = {1: 24.0, 2: 12.7}
BASELINE_JITTER_M = 0.05


@dataclass(frozen=True)
class TrialConfig:
    arena_id: int
    usv_speed: float
    duration: float
    seed: int
    jitter_amplitude: float
    controller: ControllerConfig
    camera: CameraModel
    uav: UavPose
    dt: float
    lookahead: float = DEFAULT_LOOKAHEAD_M

    def __post_init__(self) -> None:
        if self.arena_id not in (1, 2):
            raise ValueError(f"arena_id must be 1 or 2, got {self.arena_id}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if round(self.duration / self.dt) < 1:
            raise ValueError(f"duration {self.duration} is shorter than one dt step of {self.dt}")
        if self.jitter_amplitude < 0:
            raise ValueError(f"jitter_amplitude must be >= 0, got {self.jitter_amplitude}")
        if self.usv_speed < 0:
            raise ValueError(f"usv_speed must be >= 0, got {self.usv_speed}")

    @classmethod
    def baseline(cls, arena_id: int, seed: int = 1, **overrides) -> "TrialConfig":
        """The frozen baseline configuration for an arena."""
        if arena_id not in BASELINE_USV_SPEED_MPS:
            raise ValueError(f"arena_id must be 1 or 2, got {arena_id}")
        frame = FrameSpec()
        controller = ControllerConfig(roi=EllipseRoi.from_fractions(frame), frame=frame)
        values = dict(
            arena_id=arena_id,
            usv_speed=BASELINE_USV_SPEED_MPS[arena_id],
            duration=BASELINE_DURATION_S[arena_id],
            seed=seed,
            jitter_amplitude=BASELINE_JITTER_M,
            controller=controller,
            camera=CameraModel(frame=frame),
            uav=DEFAULT_UAV,
            dt=DEFAULT_DT_S,
        )
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class TrialSample:
    t: float
    x: float
    y: float
    p: float
    sector: Sector
    yaw_cmd: float
    pitch_cmd: float
    visible: bool


@dataclass(frozen=True)
class TrialRecord:
    samples: tuple[TrialSample, ...]
    dt: float
    config: TrialConfig | None = None


def jitter_path(path: Path, amplitude: float, rng: random.Random) -> Path:
    """Offset every waypoint laterally (perpendicular to the local path
    direction) by a uniform draw in [-amplitude, amplitude]."""
    if amplitude == 0.0:
        return path
    pts = path.waypoints
    n = len(pts)
    jittered = []
    for i, (x, y) in enumerate(pts):
        if path.closed:
            prev_pt, next_pt = pts[(i - 1) % n], pts[(i + 1) % n]
        else:
            prev_pt, next_pt = pts[max(0, i - 1)], pts[min(n - 1, i + 1)]
        dx, dy = next_pt[0] - prev_pt[0], next_pt[1] - prev_pt[1]
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            jittered.append((x, y))
            continue
        offset = amplitude * (2.0 * rng.random() - 1.0)
        # left-hand normal of the local direction
        jittered.append((x - offset * dy / norm, y + offset * dx / norm))
    return Path(waypoints=tuple(jittered), closed=path.closed)


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Run one closed-loop trial and record every sample.

    Lost tracking (an invisible sample) is recorded, never raised.  Sample
    times are computed from the step index so they sit exactly on the dt grid.
    """
    rng = random.Random(cfg.seed)
    path = jitter_path(build_arena(cfg.arena_id), cfg.jitter_amplitude, rng)
    start = path.waypoints[0]
    after = path.waypoints[1]
    usv = UsvState(
        x=start[0],
        y=start[1],
        heading=math.atan2(after[1] - start[1], after[0] - start[0]),
        speed=cfg.usv_speed,
    )
    gimbal = aim_at(cfg.uav, (usv.x, usv.y, 0.0))
    world = WorldState(usv=usv, uav=cfg.uav, gimbal=gimbal, time=0.0)

    steps = round(cfg.duration / cfg.dt)
    samples = []
    for i in range(steps):
        rudder = pursue(world.usv, path, cfg.lookahead)
        world, cmd, img, visible, p, sector = closed_loop_step(
            world, rudder, cfg.controller, cfg.camera, cfg.dt
        )
        samples.append(
            TrialSample(
                t=(i + 1) * cfg.dt,
                x=img.x,
                y=img.y,
                p=p,
                sector=sector,
                yaw_cmd=cmd.yaw_rate,
                pitch_cmd=cmd.pitch_rate,
                visible=visible,
            )
        )
    return TrialRecord(samples=tuple(samples), dt=cfg.dt, config=cfg)


def run_batch(cfg: TrialConfig, count: int, seeds: list[int]) -> list[TrialRecord]:
    """Independent trials, one per seed, collected in seed order."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if len(seeds) != count:
        raise ValueError(f"need exactly {count} seeds, got {len(seeds)}")
    return [run_trial(replace(cfg, seed=seed)) for seed in seeds]
