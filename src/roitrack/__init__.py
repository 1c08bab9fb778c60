"""Keep a tracked surface vehicle inside an elliptical camera ROI with
minimal pan/tilt motion.

The package bundles the reactive controller, a deterministic closed-loop
simulator with two test arenas, sensitivity metrics, and the ASCII serial
encoding used to drive the gimbal.
"""

__version__ = "0.1.0"

from .arenas import Path, build_arena, pursue
from .controller import MAX_RATE_RAD_S, ControllerConfig, GimbalCommand, decide, step
from .geometry import (
    EllipseRoi,
    FrameSpec,
    ImagePoint,
    PolarPoint,
    Sector,
    classify_sector,
    relative_position,
    to_centered,
    to_polar,
)
from .metrics import (
    Excursion,
    SensitivityReport,
    control_expenditure,
    cross_arena_normalized,
    detect_excursions,
    normalized_sensitivity,
    peak_sensitivity,
    summarize,
)
from .protocol import (
    CommandLink,
    FrameError,
    MockTransport,
    SerialFrame,
    TransportSaturated,
    decode,
    encode,
)
from .trials import TrialConfig, TrialRecord, TrialSample, run_batch, run_trial
from .world import (
    CameraModel,
    GimbalState,
    UavPose,
    UsvState,
    WorldState,
    aim_at,
    closed_loop_step,
    gimbal_step,
    project,
    usv_step,
)

__all__ = [
    "__version__",
    "Path",
    "build_arena",
    "pursue",
    "MAX_RATE_RAD_S",
    "ControllerConfig",
    "GimbalCommand",
    "decide",
    "step",
    "EllipseRoi",
    "FrameSpec",
    "ImagePoint",
    "PolarPoint",
    "Sector",
    "classify_sector",
    "relative_position",
    "to_centered",
    "to_polar",
    "Excursion",
    "SensitivityReport",
    "control_expenditure",
    "cross_arena_normalized",
    "detect_excursions",
    "normalized_sensitivity",
    "peak_sensitivity",
    "summarize",
    "CommandLink",
    "FrameError",
    "MockTransport",
    "SerialFrame",
    "TransportSaturated",
    "decode",
    "encode",
    "TrialConfig",
    "TrialRecord",
    "TrialSample",
    "run_batch",
    "run_trial",
    "CameraModel",
    "GimbalState",
    "UavPose",
    "UsvState",
    "WorldState",
    "aim_at",
    "closed_loop_step",
    "gimbal_step",
    "project",
    "usv_step",
]
