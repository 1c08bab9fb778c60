from __future__ import annotations

import math

import pytest
from hypothesis import settings

from roitrack.geometry import Sector

# the whole artifact is determinism-first; property tests follow suit
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
from roitrack.trials import TrialRecord, TrialSample
from roitrack.world import CameraModel, GimbalState, UavPose


def record_from_p(p_values, dt=1.0, t0=0.0, yaw=None, pitch=None, visible=None):
    """Build a synthetic record from a P trace; commands default to zero."""
    samples = []
    for i, p in enumerate(p_values):
        samples.append(
            TrialSample(
                t=t0 + i * dt,
                x=0.0,
                y=0.0,
                p=p,
                sector=Sector.RIGHT,
                yaw_cmd=0.0 if yaw is None else yaw[i],
                pitch_cmd=0.0 if pitch is None else pitch[i],
                visible=True if visible is None else visible[i],
            )
        )
    return TrialRecord(samples=tuple(samples), dt=dt)


def back_project(u: float, v: float, uav: UavPose, g: GimbalState, cam: CameraModel):
    """Ground-plane point whose projection is the pixel (u, v), or None if the
    ray does not hit the ground."""
    f = cam.focal_px
    sp, cp = math.sin(g.pan), math.cos(g.pan)
    st, ct = math.sin(g.tilt), math.cos(g.tilt)
    right = (cp, -sp, 0.0)
    up = (-st * sp, -st * cp, ct)
    fwd = (ct * sp, ct * cp, st)
    d = tuple(u / f * r + v / f * w + fw for r, w, fw in zip(right, up, fwd))
    if d[2] >= -1e-9:
        return None
    s = -uav.altitude / d[2]
    return (uav.x + s * d[0], uav.y + s * d[1], 0.0)


@pytest.fixture
def make_record():
    return record_from_p
