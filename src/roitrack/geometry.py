"""Elliptical region-of-interest geometry in centered image coordinates.

All positions here live in a frame-centered pixel system: the origin is the
middle of the camera frame, x grows to the right, y grows upward.  Raw tracker
output (row/col with origin at the top-left corner) enters through
``to_centered`` and nothing downstream ever sees the raw convention again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi
_QUARTER_PI = 0.25 * math.pi
DEFAULT_ROI_FRAC = 0.30  # ROI semi-axes as a fraction of the frame size
_MAX_FRAME_PX = 2**20  # per side


class Sector(Enum):
    """Angular zone of the frame, delimited by the diagonals at pi/4 to the x-axis.

    Members are singletons compared by identity, so they hash by identity too:
    in C, not in ``Enum.__hash__``'s Python frame, for the per-row lookups."""

    __hash__ = object.__hash__

    RIGHT = "right"
    TOP = "top"
    LEFT = "left"
    BOTTOM = "bottom"


@dataclass(frozen=True)
class FrameSpec:
    """Camera frame size in pixels."""

    width: int = 1920
    height: int = 720

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"frame dimensions must be positive, got {self.width}x{self.height}")
        # P must stay finite: an in-frame coordinate squared is at most 2**38, and
        # a semi-axis squared at least 0.0025 (a 0.05 fraction of 1 px).
        if max(self.width, self.height) > _MAX_FRAME_PX:
            raise ValueError(
                f"frame dimensions must be within float range for P, at most 2**20 px, got {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class ImagePoint:
    """Pixel position measured from the frame center, y increasing upward."""

    x: float
    y: float


@dataclass(frozen=True)
class PolarPoint:
    """Polar form of an ImagePoint: r >= 0, theta in (-pi, pi]."""

    r: float
    theta: float


@dataclass(frozen=True)
class EllipseRoi:
    """Frame-aligned ellipse centered on the frame.

    ``a`` is the horizontal semi-axis, ``b`` the vertical one, both in pixels.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError(f"ellipse semi-axes must be positive, got a={self.a}, b={self.b}")

    @classmethod
    def from_fractions(
        cls, frame: FrameSpec, frac_x: float = DEFAULT_ROI_FRAC, frac_y: float = DEFAULT_ROI_FRAC
    ) -> "EllipseRoi":
        """Build an ROI as a fraction of the frame dimensions.

        Fractions are limited to [0.05, 0.49] so the ellipse keeps a margin to
        the frame edge (0.49 * width < width / 2).
        """
        for name, frac in (("frac_x", frac_x), ("frac_y", frac_y)):
            if not 0.05 <= frac <= 0.49:
                raise ValueError(f"{name} must be in [0.05, 0.49], got {frac}")
        return cls(a=frac_x * frame.width, b=frac_y * frame.height)

    def fits(self, frame: FrameSpec) -> bool:
        """True when the ellipse is contained in the frame."""
        return self.a <= frame.width / 2 and self.b <= frame.height / 2


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    r = math.remainder(theta, TWO_PI)
    return r + TWO_PI if r <= -math.pi else r


def to_centered(row: float, col: float, frame: FrameSpec) -> ImagePoint:
    """Convert raw top-left row/col pixel coordinates to the centered y-up system.

    Off-frame raw coordinates simply produce out-of-frame points; visibility
    is the caller's concern.
    """
    return ImagePoint(x=col - frame.width / 2, y=frame.height / 2 - row)


def to_polar(p: ImagePoint) -> PolarPoint:
    """Polar conversion; (0, 0) maps to r=0, theta=0."""
    theta = math.atan2(p.y, p.x)
    if theta <= -math.pi:  # atan2 yields -pi for (-0.0, x<0); keep the (-pi, pi] contract
        theta += TWO_PI
    return PolarPoint(r=math.hypot(p.x, p.y), theta=theta)


def relative_position(p: ImagePoint, roi: EllipseRoi) -> float:
    """Position of a point relative to the ellipse boundary.

    The returned value is < 1 strictly inside the ellipse, exactly 1 on the
    boundary, and > 1 outside; it grows quadratically with distance.
    """
    return (p.x * p.x) / (roi.a * roi.a) + (p.y * p.y) / (roi.b * roi.b)


def classify_sector(theta: float) -> Sector:
    """Assign an angle to one of the four sectors.

    Boundaries are half-open with the boundary angle going to the
    counterclockwise neighbor: pi/4 belongs to TOP, 3*pi/4 to LEFT,
    -3*pi/4 to BOTTOM, and -pi/4 to RIGHT.  Every angle gets exactly one
    sector and each sector spans an angular measure of pi/2.
    """
    t = wrap_angle(theta)
    if -_QUARTER_PI <= t < _QUARTER_PI:
        return Sector.RIGHT
    if _QUARTER_PI <= t < 3.0 * _QUARTER_PI:
        return Sector.TOP
    if -3.0 * _QUARTER_PI <= t < -_QUARTER_PI:
        return Sector.BOTTOM
    return Sector.LEFT
