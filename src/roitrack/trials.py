"""Trial harness: drive the boat along an arena path and record full telemetry.

``SETTINGS`` describes a run once: the CLI's ``simulate`` and
``TrialConfig.baseline``, the run of every default, both build their
configuration through ``TrialConfig.from_settings``.  Beside it sits the run
manifest's one codec, ``format_manifest`` and ``parse_manifest``.

A trial is a pure function of its configuration.  The only randomness is a
seeded lateral jitter applied to the arena waypoints before the run, standing
in for the variation of a human operator moving the target between trials;
the dynamics themselves are noise-free, so identical configurations produce
bit-identical records.

The trials of a batch are independent, so ``run_batch`` runs them through
``_fan_out``, in up to one forked process per usable CPU; ``cli`` runs
``simulate``'s trials and ``report``'s CSVs through it too.  A child sends
its records back pickled as columns (``TrialRecord.__reduce__``), and the
records are the serial run's, bit for bit, whatever the number of processes.
Automatic garbage collection is paused while ``_fan_out`` runs, in the calling
process and in every child: what the items build holds no reference cycles,
so the collector would find nothing, and with a child alive each pass copies
pages that the two processes share.  The caller's own setting comes back
when ``_fan_out`` returns or raises.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import math
import os
import random
import re
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

from . import __version__
from .arenas import ARENA_FILES, DEFAULT_LOOKAHEAD_M, DEFAULT_MAX_RUDDER_RAD_S, Path, _nearest_leg, build_arena
from .controller import MAX_RATE_RAD_S, ControllerConfig, decide
from .geometry import DEFAULT_ROI_FRAC, TWO_PI, EllipseRoi, FrameSpec, Sector
from .text import format_kv_text, parse_kv_text, parse_number, read_text
from .world import TILT_MAX, TILT_MIN, CameraModel, UavPose, aim_at

DEFAULT_DT_S = 1.0 / 30.0  # frame-driven control loop at 30 fps

# Baseline values calibrated once against the arena fixtures so that trials
# produce excursion counts near 18 (arena 1) and 13 (arena 2); frozen here.
BASELINE_USV_SPEED_MPS = {1: 0.6, 2: 0.8}
BASELINE_DURATION_S = {1: 24.0, 2: 12.7}
BASELINE_JITTER_M = 0.05

# Run-size limits, checked before any stepping: a trial's samples and a batch's
# trials are built one at a time, but a run past these would take hours.
MAX_STEPS_PER_TRIAL = 10**7
MAX_TRIALS_PER_BATCH = 10**4

# The camera platform may sit at most this far from the arena origin along
# each axis (x, y and altitude).  The arenas are about 3 m across; from 1 km
# the default camera (90 degree field of view, 960 px focal length) sees the
# whole arena within 3 px, so a run from farther away measures nothing.
MAX_CAMERA_OFFSET_M = 1000.0

# Every setting of a run, in manifest order: key -> (type, default).  CLI flags
# (whose dest is the key), --config files and run manifests all go through this
# table.  A None default means the arena's baseline (speed, duration).
SETTINGS = {
    "arena": (int, None),
    "trials": (int, 1),
    "seed": (int, 1),
    "duration_s": (float, None),
    "dt_s": (float, DEFAULT_DT_S),
    "usv_speed_mps": (float, None),
    "jitter_m": (float, BASELINE_JITTER_M),
    "lookahead_m": (float, DEFAULT_LOOKAHEAD_M),
    "roi_frac_x": (float, DEFAULT_ROI_FRAC),
    "roi_frac_y": (float, DEFAULT_ROI_FRAC),
    "rate_rad_s": (float, MAX_RATE_RAD_S),
    "fov_deg": (float, math.degrees(CameraModel.horizontal_fov)),
    "frame_width_px": (int, FrameSpec.width),
    "frame_height_px": (int, FrameSpec.height),
    "uav_x_m": (float, 0.0),
    "uav_y_m": (float, 0.0),
    "altitude_m": (float, 1.83),  # hover at 6 ft
}

MANIFEST_NAME = "manifest.txt"
_ARTIFACT_KEY = re.compile(r"artifact_([0-9]{3,}|summary)(_sha256)?")


def format_manifest(settings: dict, seeds: list[int], fixture_sha256: str, artifacts: dict[str, str]) -> str:
    """The one writer of a run's manifest: ``tool_version``, each setting's
    ``repr`` in ``SETTINGS`` order (``seeds`` after ``seed``), the arena
    fixture's sha256, and an ``artifact_<label>``, ``artifact_<label>_sha256``
    pair per artifact, name -> sha256: the trial CSVs, labelled from 001 in
    the order given, then the summary."""
    values = {"tool_version": __version__}
    for key in SETTINGS:
        values[key] = repr(settings[key])
        if key == "seed":
            values["seeds"] = " ".join(map(str, seeds))
    values["arena_fixture_sha256"] = fixture_sha256
    labels = [f"{i:03d}" for i in range(1, len(artifacts))] + ["summary"]
    for label, (name, digest) in zip(labels, artifacts.items()):
        values[f"artifact_{label}"], values[f"artifact_{label}_sha256"] = name, digest
    return format_kv_text(values)


def parse_manifest(text: str, source) -> tuple[dict, dict, dict]:
    """The one reader of a manifest and of every ``--config``, which may hold
    any of ``format_manifest``'s keys and no other: its settings, each parsed
    by ``parse_number``; its other keys but the artifacts', as text; and its
    artifacts, name -> sha256, each name a file in the run's directory.  A
    refusal names ``source`` and the key."""
    settings, info, names, digests = {}, {}, {}, {}
    for key, value in parse_kv_text(text, source=source).items():
        if key in SETTINGS:
            try:
                settings[key] = parse_number(SETTINGS[key][0], value)
            except ValueError:
                raise ValueError(f"{source}: bad value for {key}: {value!r}") from None
        elif key in ("tool_version", "seeds", "arena_fixture_sha256"):
            info[key] = value
        elif match := _ARTIFACT_KEY.fullmatch(key):
            if not match[2] and (os.path.basename(value) != value or value in ("", ".", "..")):
                raise ValueError(f"{source}: {key} must name a file in the run's directory, got {value!r}")
            (digests if match[2] else names)[match[1]] = value
        else:
            raise ValueError(f"{source}: unknown config key {key!r}")
    if unpaired := sorted(names.keys() ^ digests.keys()):
        raise ValueError(f"{source}: artifact_{unpaired[0]} needs both its name and its sha256")
    return settings, info, {names[label]: digests[label] for label in names}


def _sha256(path) -> str:
    """Hash a file in 1 MiB blocks, so no more than one block is held."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def manifest_mismatches(directory) -> list[str]:
    """Each artifact that the manifest in ``directory`` lists and that is
    missing or does not hash to its recorded sha256, or the manifest itself
    if it lists none: empty when every artifact is as the manifest records."""
    path = os.path.join(directory, MANIFEST_NAME)
    artifacts = parse_manifest(read_text(path), path)[2]
    paths = {os.path.join(directory, name): digest for name, digest in artifacts.items()}
    mismatches = [f"{artifact}: missing, or its sha256 is not the recorded {digest}" for artifact, digest in
                  paths.items() if not os.path.isfile(artifact) or _sha256(artifact) != digest]
    return mismatches if artifacts else [f"{path}: lists no artifact"]


# The fields that one setting each builds, as a library refusal "<field> must
# be <rule>, got <value>" names them: field -> (its setting, the rule in the
# setting's units, or None where the units are the field's).
_SETTING_OF_FIELD = {
    "usv_speed": ("usv_speed_mps", None),
    "duration": ("duration_s", None),
    "dt": ("dt_s", None),
    "jitter_amplitude": ("jitter_m", None),
    "lookahead": ("lookahead_m", None),
    "horizontal_fov": ("fov_deg", "in (0, 180)"),
    "altitude": ("altitude_m", None),
    "frac_x": ("roi_frac_x", None),
    "frac_y": ("roi_frac_y", None),
    "rate_magnitude": ("rate_rad_s", None),
}


@contextlib.contextmanager
def _named_as_settings(settings: dict, overrides=()):
    """Restate a library refusal of a field that one setting builds, and that
    is not in ``overrides``, as a refusal of that setting: its key, and its
    value as ``settings`` holds it.  The library's rule still decides."""
    try:
        yield
    except ValueError as exc:
        field, must, rest = str(exc).partition(" must be ")
        if not must or field not in _SETTING_OF_FIELD or field in overrides:
            raise
        key, rule = _SETTING_OF_FIELD[field]
        rule = rule or rest.rpartition(", got ")[0]
        raise ValueError(f"{key} must be {rule}, got {settings[key]}") from None


def settings_controller(settings: dict) -> ControllerConfig:
    """The controller that a run's settings describe: its frame, ROI and rate."""
    with _named_as_settings(settings):
        frame = FrameSpec(width=settings["frame_width_px"], height=settings["frame_height_px"])
        roi = EllipseRoi.from_fractions(frame, frac_x=settings["roi_frac_x"], frac_y=settings["roi_frac_y"])
        return ControllerConfig(roi=roi, frame=frame, rate_magnitude=settings["rate_rad_s"])


@dataclass(frozen=True)
class TrialConfig:
    arena_id: int
    usv_speed: float
    duration: float
    seed: int
    jitter_amplitude: float
    controller: ControllerConfig
    horizontal_fov: float
    uav: UavPose
    dt: float
    lookahead: float = DEFAULT_LOOKAHEAD_M
    # The camera sees the controller's frame, whose size the ROI is built for.
    camera: CameraModel = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arena_id not in ARENA_FILES:
            raise ValueError(f"arena_id must be {' or '.join(map(str, ARENA_FILES))}, got {self.arena_id}")
        # random.Random seeds from |seed|, so a negative seed would repeat a positive one's run.
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "camera", CameraModel(frame=self.controller.frame, horizontal_fov=self.horizontal_fov))
        for name in ("usv_speed", "duration", "dt", "jitter_amplitude", "lookahead"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.duration / self.dt < MAX_STEPS_PER_TRIAL + 0.5:
            raise ValueError(
                f"duration {self.duration} / dt {self.dt} is over the limit of {MAX_STEPS_PER_TRIAL} steps per trial"
            )
        if round(self.duration / self.dt) < 1:
            raise ValueError(f"duration {self.duration} is shorter than one dt step of {self.dt}")
        # A waypoint jittered beyond the camera's reach is too far out to measure,
        # and far enough out (1e153 m) every step of the boat rounds away; within
        # it, every jittered path of arenas 1 and 2 is finite.
        if not 0 <= self.jitter_amplitude <= MAX_CAMERA_OFFSET_M:
            raise ValueError(f"jitter_amplitude must be in [0, {MAX_CAMERA_OFFSET_M}] m, got {self.jitter_amplitude}")
        if self.usv_speed < 0:
            raise ValueError(f"usv_speed must be >= 0, got {self.usv_speed}")
        if not self.lookahead > 0:
            raise ValueError(f"lookahead must be positive, got {self.lookahead}")
        uav = self.uav
        if max(abs(uav.x), abs(uav.y), uav.altitude) > MAX_CAMERA_OFFSET_M:
            raise ValueError(
                f"camera platform at ({uav.x}, {uav.y}, {uav.altitude}) is over {MAX_CAMERA_OFFSET_M} m"
                " from the arena origin along an axis"
            )

    @classmethod
    def from_settings(cls, settings: dict, **overrides) -> "TrialConfig":
        """The run that resolved settings describe, with any field overridden.
        A None speed or duration is first set, in ``settings`` itself, to the
        arena's baseline, so a manifest written from them records what the run
        used; ``__post_init__`` refuses an unknown arena before that None is read.
        A refused field that a setting gave is named as that setting."""
        arena = settings["arena"]
        for key, baseline in (("duration_s", BASELINE_DURATION_S), ("usv_speed_mps", BASELINE_USV_SPEED_MPS)):
            if settings[key] is None:
                settings[key] = baseline.get(arena)
        with _named_as_settings(settings, overrides):
            fields = dict(
                arena_id=arena,
                usv_speed=settings["usv_speed_mps"],
                duration=settings["duration_s"],
                seed=settings["seed"],
                jitter_amplitude=settings["jitter_m"],
                controller=settings_controller(settings),
                horizontal_fov=math.radians(settings["fov_deg"]),
                uav=UavPose(x=settings["uav_x_m"], y=settings["uav_y_m"], altitude=settings["altitude_m"]),
                dt=settings["dt_s"],
                lookahead=settings["lookahead_m"],
            )
            return cls(**{**fields, **overrides})

    @classmethod
    def baseline(cls, arena_id: int, seed: int = 1, **overrides) -> "TrialConfig":
        """The run of every ``SETTINGS`` default on an arena, with any field overridden."""
        defaults = {key: default for key, (_, default) in SETTINGS.items()}
        return cls.from_settings({**defaults, "arena": arena_id, "seed": seed}, **overrides)


class TrialSample(NamedTuple):
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

    def __reduce__(self):
        # Pickled as columns, each saved and loaded in C: t, x, y and P as
        # array('d'); the sectors, yaw, pitch and ``visible`` as the tuples that
        # the transpose gives.  There a float pickles as its 8 bytes, signed
        # zeros included, a Sector member in full once and then as a memo
        # reference, and a bool as one byte.  A TrialSample saves and loads
        # through Python code (``__getnewargs__``, ``__new__``), and a row would
        # be one more tuple per sample to save, load and track.
        from array import array  # imported only once a record is pickled: 0.4 ms of start-up

        t, x, y, p, *rest = zip(*self.samples) if self.samples else ((),) * 8
        return _record_from_columns, (array("d", t), array("d", x), array("d", y), array("d", p), *rest, self.dt)


def _record_from_columns(t, x, y, p, sectors, yaw, pitch, visible, dt: float) -> TrialRecord:
    """The record that ``TrialRecord.__reduce__`` saved, each sample built in C."""
    rows = zip(t, x, y, p, sectors, yaw, pitch, visible)
    return TrialRecord(samples=tuple(map(functools.partial(tuple.__new__, TrialSample), rows)), dt=dt)


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


def trial_path(cfg: TrialConfig) -> Path:
    """The path a trial follows: its arena's, jittered by its seed."""
    return jitter_path(build_arena(cfg.arena_id), cfg.jitter_amplitude, random.Random(cfg.seed))


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Run one closed-loop trial and record every sample."""
    return TrialRecord(samples=tuple(iter_trial(cfg)), dt=cfg.dt)


def iter_trial(cfg: TrialConfig) -> Iterator[TrialSample]:
    """Run one closed-loop trial, yielding each sample as it is stepped.

    Lost tracking (an invisible sample) is recorded, never raised.  Sample
    times are computed from the step index so they sit exactly on the dt grid.

    Each step is ``pursue`` then ``world.closed_loop_step``, run on plain
    floats: the same operations in the same order, so the samples match that
    reference to the bit, without building its state objects every step.

    Pursuit's full leg search runs only when a bound cannot prove that the
    last nearest leg is still strictly nearest.  The last search, at
    ``(x0, y0)``, found every other leg at least ``runner_up`` away; distance
    to a leg is 1-Lipschitz in position, so every other leg is now at least
    ``runner_up - hypot(x - x0, y - y0)`` away.  Less a margin that scales
    with the coordinates, so rounding cannot decide it, that is ``reach``:
    the last leg, evaluated by the search's own expressions (so ``t`` is the
    same bits), is kept only while its squared distance is below ``reach**2``.
    A NaN, or a squared distance that overflowed at the last search, fails
    the test and runs the full search.  (A one-leg path has no other leg:
    its runner-up distance is ``inf``, and it keeps its one leg while that
    leg's squared distance is finite.)

    The gimbal's sin and cos are recomputed only after a step that can change
    an angle's bits.  An idle axis adds ``±0.0``, which leaves every angle but
    ``-0.0`` as it is (``-0.0 + 0.0`` is ``+0.0``).  So pan's follow a nonzero
    yaw or a pan of ``±0.0``; tilt's a nonzero pitch only, as tilt is never
    ``-0.0`` (every clamp to ``TILT_MAX`` makes it ``+0.0``) and in range.
    """
    path = trial_path(cfg)
    (x, y), after = path.waypoints[:2]
    heading = math.atan2(after[1] - y, after[0] - x)
    gimbal = aim_at(cfg.uav, (x, y, 0.0))
    pan, tilt = gimbal.pan, gimbal.tilt

    speed, dt, lookahead, controller = cfg.usv_speed, cfg.dt, cfg.lookahead, cfg.controller
    uav_x, uav_y, dz = cfg.uav.x, cfg.uav.y, 0.0 - cfg.uav.altitude
    f = cfg.camera.focal_px
    half_w, half_h = cfg.camera.frame.width / 2, cfg.camera.frame.height / 2
    sin, cos, isfinite, hypot = math.sin, math.cos, math.isfinite, math.hypot
    atan2, remainder, pi = math.atan2, math.remainder, math.pi
    new = tuple.__new__  # builds the TrialSample in C, skipping NamedTuple's Python __new__
    legs, closed, total = path._legs, path.closed, path._total
    end, gain, max_rudder = path.waypoints[0 if closed else -1], 2.0 * speed, DEFAULT_MAX_RUDDER_RAD_S
    extent = 1.0 + max(abs(c) for point in path.waypoints for c in point)
    leg, x0, y0, runner_up = 0, x, y, -math.inf  # no search yet: the first step runs one
    sp, cp, st, ct = sin(pan), cos(pan), sin(tilt), cos(tilt)

    for i in range(round(cfg.duration / dt)):
        # pursue, with the certified reuse of the last nearest leg
        reach = runner_up - hypot(x - x0, y - y0) - 1e-9 * (extent + abs(x) + abs(y))
        certified = False
        if reach > 0.0:
            ax, ay, abx, aby, denom, length, offset = legs[leg]
            t = ((x - ax) * abx + (y - ay) * aby) / denom
            t = 0.0 if t <= 0.0 else 1.0 if t >= 1.0 else t
            ex, ey = x - (ax + t * abx), y - (ay + t * aby)
            certified = ex * ex + ey * ey < reach * reach
        if not certified:
            leg, t, runner_up = _nearest_leg(x, y, legs)
            x0, y0 = x, y
            _, _, _, _, _, length, offset = legs[leg]
        s_near = offset + t * length
        rudder = 0.0
        if closed or not total - s_near < 1e-9:
            # _point_at_arc_length: the goal, lookahead past the nearest point
            s = s_near + lookahead
            if closed:
                s = s % total
            else:
                s = s if s < total else total
                s = s if s > 0.0 else 0.0
            gx, gy = end  # where rounding leaves s just past the last leg
            for ax, ay, abx, aby, _, length, _ in legs:
                if s <= length:
                    t = s / length
                    gx, gy = ax + t * abx, ay + t * aby
                    break
                s -= length
            ex, ey = gx - x, gy - y
            if not hypot(ex, ey) < 1e-12:
                alpha = remainder(atan2(ey, ex) - heading, TWO_PI)  # wrap_angle
                alpha = alpha + TWO_PI if alpha <= -pi else alpha
                rudder = gain * sin(alpha) / lookahead
                rudder = rudder if rudder < max_rudder else max_rudder
                rudder = rudder if rudder > -max_rudder else -max_rudder
        # usv_step
        heading = heading + rudder * dt
        x = x + speed * cos(heading) * dt
        y = y + speed * sin(heading) * dt
        # project, with the trig of the gimbal's last move
        dx = x - uav_x
        dy = y - uav_y
        x_c = dx * cp - dy * sp
        ahead = dx * sp + dy * cp
        y_c = -st * ahead + ct * dz
        z_c = ct * ahead + st * dz
        if z_c <= 0.0:
            u = v = 0.0
            visible = False
        else:
            u = f * x_c / z_c
            v = f * y_c / z_c
            if isfinite(u) and isfinite(v):
                visible = abs(u) <= half_w and abs(v) <= half_h
            else:
                u = v = 0.0
                visible = False
        # decide, with a lost target failing safe
        p, sector, cmd = decide(u, v, controller)
        if visible:
            yaw, pitch = cmd.yaw_rate, cmd.pitch_rate
        else:
            yaw = pitch = 0.0
        # gimbal_step, on each axis it may change
        if yaw != 0.0 or pan == 0.0:
            pan = pan + yaw * dt
            sp, cp = sin(pan), cos(pan)
        if pitch != 0.0:
            tilt = tilt + pitch * dt
            tilt = tilt if tilt < TILT_MAX else TILT_MAX
            tilt = tilt if tilt > TILT_MIN else TILT_MIN
            st, ct = sin(tilt), cos(tilt)
        yield new(TrialSample, ((i + 1) * dt, u, v, p, sector, yaw, pitch, visible))


def run_batch(cfg: TrialConfig, count: int, seeds: list[int]) -> list[TrialRecord]:
    """Independent trials, one per seed, collected in seed order, on up to one
    process per usable CPU (``_fan_out``): the same records whatever the count."""
    if not 1 <= count <= MAX_TRIALS_PER_BATCH:
        raise ValueError(f"count must be in [1, {MAX_TRIALS_PER_BATCH}], got {count}")
    if len(seeds) != count:
        raise ValueError(f"need exactly {count} seeds, got {len(seeds)}")
    return _fan_out(lambda seed: run_trial(replace(cfg, seed=seed)), seeds)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _fan_out(fn, items) -> list:
    """``[fn(item) for item in items]``, in up to one process per usable CPU.
    The items split into contiguous chunks, the largest first, which this
    process runs; each other chunk runs in a forked child that pipes back its
    results or its exception, pickled.  The first failing chunk in item order
    raises, and a child with no readable result is an ``OSError``.  Every
    child is reaped before this returns or raises.  All items run here where
    ``fork`` is missing, where a second thread is alive (the child could
    deadlock), or where a public function or class of the package has been
    replaced since import (a tracer's wrapper, a test's stub): the
    replacement may keep state in this process, which a child's calls would
    never reach.  Where a fork fails, the items no child took run here.

    Automatic garbage collection is paused first, and the caller's own
    setting comes back before this returns or raises.  Records, tallies and
    replay ranges hold no reference cycles, so the collector's passes over
    them find nothing, and while a child is alive each pass also copies the
    pages that it touches.  A child inherits the pause and leaves through
    ``os._exit``, so it never collects."""
    collecting = gc.isenabled()
    gc.disable()
    children = []  # (pid, pipe, first item's number) per child
    try:
        items = list(items)
        forkable = hasattr(os, "fork") and threading.active_count() == 1 and all(
            getattr(module, name, None) is value for module, name, value in _AS_IMPORTED)
        workers = max(1, min(len(items), _usable_cpus())) if forkable else 1
        size, extra = divmod(len(items), workers)
        bounds = [i * size + min(i, extra) for i in range(workers + 1)]
        rest = len(items)  # where the items that no child runs start
        for start, end in zip(bounds[1:], bounds[2:]):
            import pickle  # imported only once a child is started: with signal, 5 ms of start-up
            import signal

            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to be had (EAGAIN, ENOMEM): this process runs the rest
                os.close(read_fd)
                os.close(write_fd)
                rest = start
                break
            if pid == 0:  # the child reports and leaves, never returning here
                try:
                    with open(write_fd, "wb") as fh:
                        try:
                            result = True, [fn(item) for item in items[start:end]]
                        except BaseException as exc:
                            result = False, exc
                        pickle.dump(result, fh)
                finally:
                    os._exit(0)
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb"), start + 1))
        results = [fn(item) for item in items[: bounds[1]]]
        for pid, pipe, first in children:
            try:
                ok, value = pickle.load(pipe)
            except Exception:  # a short or missing pickle ends in any of several exception types
                raise OSError(f"worker process {pid} for items {first}.. ended with no result") from None
            if not ok:
                raise value
            results += value
        return results + [fn(item) for item in items[rest:]]
    finally:  # a child whose result is read is only exiting; any other's is not needed
        try:
            for pid, pipe, _ in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            if collecting:
                gc.enable()


# Every public function and class that the package's modules bind, as
# imported: ``_fan_out`` forks only while each is still bound.  Those loaded
# so far, which include every module a trial calls, are noted here; ``cli``
# notes the rest once it has loaded.
_AS_IMPORTED: list = []


def _note_as_imported() -> None:
    """Note each binding of a loaded package module not noted yet."""
    noted = {(module.__name__, name) for module, name, _ in _AS_IMPORTED}
    _AS_IMPORTED.extend((module, name, value) for module_name, module in list(sys.modules.items())
                        if module_name.startswith(f"{__package__}.")
                        for name, value in vars(module).items()
                        if not name.startswith("_") and callable(value) and (module_name, name) not in noted)


_note_as_imported()
