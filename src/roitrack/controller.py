"""Bang-bang motor schema: map the target's image position to one gimbal rate.

The controller is memoryless.  While the target sits inside the elliptical
ROI (boundary included) it commands nothing; outside, it drives exactly one
axis at the configured magnitude, chosen by the target's angular sector:
right/left select yaw, top/bottom select pitch.  Signs follow the
image-recentering convention: a positive yaw rate swings the view so that a
right-sector target moves back toward the frame center, and likewise a
positive pitch rate for a top-sector target.

``decide``, the one decision, stays memoryless; ``track`` runs it on the
tracker's stream of pixel rows and remembers only whether its last command was idle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .geometry import EllipseRoi, FrameSpec, ImagePoint, Sector, classify_sector

MAX_RATE_RAD_S = 0.3  # gimbal actuator cap, rad/s

# The signs of (yaw, pitch) in the command for a target outside the ellipse.
_SECTOR_SIGNS = {Sector.RIGHT: (1, 0), Sector.LEFT: (-1, 0), Sector.TOP: (0, 1), Sector.BOTTOM: (0, -1)}
# The members bound once: ``Sector.RIGHT`` is a Python-level descriptor lookup on every call.
_RIGHT, _LEFT, _TOP, _BOTTOM = Sector.RIGHT, Sector.LEFT, Sector.TOP, Sector.BOTTOM


@dataclass(frozen=True)
class GimbalCommand:
    """Single-axis rate command; at most one of the two rates is nonzero, and
    neither exceeds the actuator cap ``MAX_RATE_RAD_S`` (a NaN rate is rejected)."""

    yaw_rate: float = 0.0
    pitch_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (abs(self.yaw_rate) <= MAX_RATE_RAD_S and abs(self.pitch_rate) <= MAX_RATE_RAD_S):
            raise ValueError(
                f"rates ({self.yaw_rate}, {self.pitch_rate}) not within the {MAX_RATE_RAD_S} rad/s actuator cap"
            )
        if self.yaw_rate != 0.0 and self.pitch_rate != 0.0:
            raise ValueError(
                f"yaw and pitch are mutually exclusive, got ({self.yaw_rate}, {self.pitch_rate})"
            )

    def is_zero(self) -> bool:
        return self.yaw_rate == 0.0 and self.pitch_rate == 0.0


# The command for a target inside the ellipse, lost, or at a non-finite position.
_IDLE = GimbalCommand()


@dataclass(frozen=True)
class ControllerConfig:
    roi: EllipseRoi
    frame: FrameSpec
    rate_magnitude: float = MAX_RATE_RAD_S
    # Each sector's command for a target outside the ellipse, built once from _SECTOR_SIGNS.
    _commands: dict[Sector, GimbalCommand] = field(init=False, repr=False, compare=False)
    # The ROI's semi-axes squared, as ``relative_position`` squares them, for ``decide``.
    _a_sq: float = field(init=False, repr=False, compare=False)
    _b_sq: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_magnitude <= MAX_RATE_RAD_S:
            raise ValueError(
                f"rate_magnitude must be in (0, {MAX_RATE_RAD_S}], got {self.rate_magnitude}"
            )
        if not self.roi.fits(self.frame):
            raise ValueError(
                f"ROI ({self.roi.a} x {self.roi.b}) does not fit in half the frame "
                f"({self.frame.width}x{self.frame.height})"
            )
        m = self.rate_magnitude
        commands = {sector: GimbalCommand(yaw * m, pitch * m) for sector, (yaw, pitch) in _SECTOR_SIGNS.items()}
        object.__setattr__(self, "_commands", commands)
        object.__setattr__(self, "_a_sq", self.roi.a * self.roi.a)
        object.__setattr__(self, "_b_sq", self.roi.b * self.roi.b)


def decide(x: float, y: float, cfg: ControllerConfig) -> tuple[float, Sector, GimbalCommand]:
    """Score one observed image position, given as its centered coordinates:
    (P, sector, command).

    P is the relative position against the ROI, computed as
    ``relative_position`` computes it, from the squared semi-axes ``cfg``
    stores, so the two match to the bit.  The sector is the one
    ``classify_sector`` gives ``to_polar``'s theta; it is computed even inside
    the ellipse, where the command is idle, because telemetry records it for
    every sample.  A non-finite position also gets the idle command: like a
    lost target, it must not move the gimbal.  The command is one of ``cfg``'s
    five objects, never a new one.

    The sector is certified by comparing ``|y|`` with ``|x|``; only points near
    a diagonal pay for ``atan2``.  A rounded product is within a relative
    2**-53 of the exact one or, below 2**-1022, within 2**-1075, and every
    double is a multiple of 2**-1074, so a double below (above) a subnormal
    rounded product is below (above) the exact one.  So ``|y| < |x| * c``, with
    c = 1 - 1e-12 as rounded, gives ``|y| / |x| < c * (1 + 2**-53) <
    1 - 0.99e-12`` exactly and, as ``atan``'s slope on [0, 1] is at least 1/2,
    puts the angle from the x-axis more than 4.9e-13 short of pi/4.  Likewise
    ``|y| > |x| * (1 + 1e-12)`` puts the angle from the y-axis,
    ``atan(|x| / |y|)``, more than 4.9e-13 short of pi/4.  ``atan2`` within 2
    ulps (C libraries keep it within about 1) errs by under 9e-16 up to pi,
    and ``classify_sector``'s float boundaries lie within 1e-16 of the odd
    multiples of pi/4, so ``atan2`` lands strictly inside the sector the
    comparison names: right or left by the sign of ``x`` (nonzero there), top
    or bottom by the sign of ``y``.  Both comparisons fail near the diagonals,
    at (+-0, +-0), at equal infinities and at NaN, which take ``atan2``.
    """
    rel = (x * x) / cfg._a_sq + (y * y) / cfg._b_sq
    ax, ay = abs(x), abs(y)
    if ay < ax * (1.0 - 1e-12):
        sector = _RIGHT if x > 0.0 else _LEFT
    elif ay > ax * (1.0 + 1e-12):
        sector = _TOP if y > 0.0 else _BOTTOM
    else:
        # classify_sector wraps theta itself, so the -pi that to_polar folds to pi needs no fix here.
        sector = classify_sector(math.atan2(y, x))
    # A non-finite point never has rel <= 1, so only points outside pay for the check.
    if rel <= 1.0 or not (math.isfinite(x) and math.isfinite(y)):
        return rel, sector, _IDLE
    return rel, sector, cfg._commands[sector]


def track(rows, cfg: ControllerConfig, send):
    """Decide each ``(t, x, y)`` row of raw top-left pixels, send its command,
    and yield its telemetry row: a plain tuple in ``TrialSample``'s field
    order, which ``row_lines``, its only reader, reads by position.  The
    centring is ``to_centered``'s arithmetic, on plain floats, and ``decide``'s
    command, one of ``cfg``'s five, goes to ``send(cmd, t)`` only when it
    changes to or from idle or stays non-idle: a ``CommandLink`` does nothing
    on a repeated idle send, so its frames and their times are unchanged."""
    half_w, half_h = cfg.frame.width / 2, cfg.frame.height / 2
    idle, last = _IDLE, None  # None: the first row always goes to send
    for t, raw_x, raw_y in rows:
        x = raw_x - half_w
        y = half_h - raw_y
        p, sector, cmd = decide(x, y, cfg)
        if cmd is not idle or last is not idle:
            send(cmd, t)
            last = cmd
        yield t, x, y, p, sector, cmd.yaw_rate, cmd.pitch_rate, True


def step(p: ImagePoint, cfg: ControllerConfig) -> GimbalCommand:
    """One control decision for one observed image position.

    Output is one of exactly five values: (0, 0), (+-m, 0), (0, +-m) with
    m = ``cfg.rate_magnitude``.
    """
    return decide(p.x, p.y, cfg)[2]
