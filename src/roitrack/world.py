"""Deterministic fixed-timestep world model: boat, hovering camera platform,
pan/tilt gimbal, and pinhole projection into the camera frame.

World frame: x east, y north, z up, ground plane at z = 0.  The camera
platform hovers at a fixed position and altitude; only the gimbal moves.

Gimbal angle conventions (these pin the controller's sign convention):

* ``pan`` is measured clockwise from the world +y axis when seen from above,
  so a positive yaw rate swings the view toward the image-right direction and
  recenters a right-sector target.
* ``tilt`` is 0 at the horizon and -pi/2 straight down; a positive pitch rate
  raises the view, which moves image content downward and recenters a
  top-sector target.

No pixels are synthesized anywhere: the tracked vehicle's true position is
projected directly, since the controller consumes coordinates, not images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .controller import ControllerConfig, GimbalCommand, decide
from .geometry import FrameSpec, ImagePoint, Sector

TILT_MIN = -0.5 * math.pi  # straight down
TILT_MAX = 0.0  # horizon


@dataclass(frozen=True)
class UsvState:
    """Planar boat state: forward thrust only, steered by its rudder."""

    x: float
    y: float
    heading: float
    speed: float

    def __post_init__(self) -> None:
        if self.speed < 0:
            raise ValueError(f"speed must be >= 0, got {self.speed}")


@dataclass(frozen=True)
class UavPose:
    """Hover position of the camera platform; constant during a trial."""

    x: float
    y: float
    altitude: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "altitude"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.altitude <= 0:
            raise ValueError(f"altitude must be positive, got {self.altitude}")


@dataclass(frozen=True)
class GimbalState:
    pan: float
    tilt: float

    def __post_init__(self) -> None:
        if not TILT_MIN <= self.tilt <= TILT_MAX:
            raise ValueError(f"tilt must be in [{TILT_MIN}, {TILT_MAX}], got {self.tilt}")


@dataclass(frozen=True)
class CameraModel:
    frame: FrameSpec = FrameSpec()
    horizontal_fov: float = 0.5 * math.pi

    def __post_init__(self) -> None:
        if not 0.0 < self.horizontal_fov < math.pi:
            raise ValueError(f"horizontal_fov must be in (0, pi), got {self.horizontal_fov}")

    @property
    def focal_px(self) -> float:
        return (self.frame.width / 2) / math.tan(self.horizontal_fov / 2)


@dataclass(frozen=True)
class WorldState:
    usv: UsvState
    uav: UavPose
    gimbal: GimbalState
    time: float = 0.0


def usv_step(s: UsvState, rudder_rate: float, dt: float) -> UsvState:
    """Advance the boat one step with semi-implicit Euler (heading first)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    heading = s.heading + rudder_rate * dt
    return UsvState(
        x=s.x + s.speed * math.cos(heading) * dt,
        y=s.y + s.speed * math.sin(heading) * dt,
        heading=heading,
        speed=s.speed,
    )


def gimbal_step(g: GimbalState, cmd: GimbalCommand, dt: float) -> GimbalState:
    """Advance the gimbal at the command's rates, which ``GimbalCommand`` holds
    within the actuator cap; tilt saturates."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    tilt = g.tilt + cmd.pitch_rate * dt
    tilt = max(TILT_MIN, min(TILT_MAX, tilt))
    return GimbalState(pan=g.pan + cmd.yaw_rate * dt, tilt=tilt)


def project(
    world_point: tuple[float, float, float],
    uav: UavPose,
    g: GimbalState,
    cam: CameraModel,
) -> tuple[ImagePoint, bool]:
    """Pinhole projection of a world point into the centered image frame.

    Returns the image point and a visibility flag.  A point at or behind the
    camera plane (non-positive depth) is reported invisible with a finite
    (0, 0) sentinel; a point projecting outside the frame bounds keeps its
    real coordinates but is flagged invisible.
    """
    dx = world_point[0] - uav.x
    dy = world_point[1] - uav.y
    dz = world_point[2] - uav.altitude
    sp, cp = math.sin(g.pan), math.cos(g.pan)
    st, ct = math.sin(g.tilt), math.cos(g.tilt)
    # Camera basis: right, up, forward (image y is up, depth positive ahead).
    x_c = dx * cp - dy * sp
    y_c = -st * (dx * sp + dy * cp) + ct * dz
    z_c = ct * (dx * sp + dy * cp) + st * dz
    if z_c <= 0.0:
        return ImagePoint(0.0, 0.0), False
    f = cam.focal_px
    u = f * x_c / z_c
    v = f * y_c / z_c
    if not (math.isfinite(u) and math.isfinite(v)):
        return ImagePoint(0.0, 0.0), False
    visible = abs(u) <= cam.frame.width / 2 and abs(v) <= cam.frame.height / 2
    return ImagePoint(u, v), visible


def aim_at(uav: UavPose, target: tuple[float, float, float]) -> GimbalState:
    """Gimbal state whose optical axis passes through the target point."""
    dx = target[0] - uav.x
    dy = target[1] - uav.y
    dz = target[2] - uav.altitude
    horizontal = math.hypot(dx, dy)
    if horizontal < 1e-12:
        return GimbalState(pan=0.0, tilt=TILT_MIN)
    pan = math.atan2(dx, dy)  # clockwise from +y
    tilt = max(TILT_MIN, min(TILT_MAX, math.atan2(dz, horizontal)))
    return GimbalState(pan=pan, tilt=tilt)


def closed_loop_step(
    w: WorldState,
    rudder_rate: float,
    cfg: ControllerConfig,
    cam: CameraModel,
    dt: float,
) -> tuple[WorldState, GimbalCommand, ImagePoint, bool, float, Sector]:
    """One full loop iteration: advance boat, project, decide, move gimbal.

    Returns the new state, the command sent, the image point, its visibility
    flag, and the controller's P and sector for that point.  When the target
    is invisible the command is (0, 0); the previous command is deliberately
    not latched, so a lost target fails safe with a frozen gimbal.

    ``trials.iter_trial`` runs this step on plain floats; the tests hold its
    samples to this function's, bit for bit.
    """
    usv = usv_step(w.usv, rudder_rate, dt)
    img, visible = project((usv.x, usv.y, 0.0), w.uav, w.gimbal, cam)
    p, sector, cmd = decide(img.x, img.y, cfg)
    if not visible:
        cmd = GimbalCommand()
    gimbal = gimbal_step(w.gimbal, cmd, dt)
    world = WorldState(usv=usv, uav=w.uav, gimbal=gimbal, time=w.time + dt)
    return world, cmd, img, visible, p, sector
