"""ASCII serial protocol for single-axis gimbal rate commands.

The ground station accepts one command per line: the axis word (``Yaw`` or
``Pitch``) followed by a signed rate in rad/s, for example ``Yaw 0.2``.
Rates are limited to [-0.3, 0.3] and carry at most two fractional digits
with no trailing zero beyond the first decimal place.  A frame drives one
axis: ``GimbalCommand`` owns that rule, and ``encode`` refuses any command
its frame does not read back as.  A zero command produces no traffic at
all; the link is one-way and silent when idle.

Framing assumptions confined to this module: line-feed terminator, 8N1 at
9600 bps (10 bits per byte on the wire).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .controller import MAX_RATE_RAD_S, GimbalCommand

TERMINATOR = b"\n"
LINE_RATE_BPS = 9600
KEEPALIVE_S = 1.0  # a held command's frame is re-sent this long after, in case the receiver times out
BITS_PER_BYTE_ON_WIRE = 10  # 8 data bits + start + stop

_AXES = ("Yaw", "Pitch")


class FrameError(ValueError):
    """A serial frame that cannot be parsed or violates the wire grammar."""


class TransportSaturated(RuntimeError):
    """Backpressure: the line is still busy with the previous frame."""


@dataclass(frozen=True)
class SerialFrame:
    text: str

    def __post_init__(self) -> None:
        decode(self.text)  # reject anything the grammar does not allow

    def wire_bytes(self) -> bytes:
        return self.text.encode("ascii") + TERMINATOR


def format_rate(value: float) -> str:
    """Minimal decimal representation: two fractional digits, trailing zero
    in the second place stripped ("0.30" becomes "0.3")."""
    text = f"{value:.2f}"
    if text.endswith("0"):
        text = text[:-1]
    return text


def encode(cmd: GimbalCommand) -> list[SerialFrame]:
    """Zero or one frame for a command; idle commands generate no traffic.

    A command its frame does not read back as exactly raises ``FrameError``,
    since the receiver acts on the frame: a rate that is not whole hundredths
    (0.004, 0.123) or, in a command built around ``GimbalCommand``'s checks,
    a rate past the cap or a second nonzero axis.
    """
    if cmd.yaw_rate != 0.0:
        axis, value = "Yaw", cmd.yaw_rate
    elif cmd.pitch_rate != 0.0:
        axis, value = "Pitch", cmd.pitch_rate
    else:
        return []
    frame = SerialFrame(text=f"{axis} {format_rate(value)}")
    sent = decode(frame)
    if (sent.yaw_rate, sent.pitch_rate) != (cmd.yaw_rate, cmd.pitch_rate):
        raise FrameError(
            f"command ({cmd.yaw_rate}, {cmd.pitch_rate}) has no exact frame:"
            f" {frame.text!r} reads back as ({sent.yaw_rate}, {sent.pitch_rate})"
        )
    return [frame]


_RATE_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]{1,2})?")  # ASCII digits, no leading zero


def decode(frame: SerialFrame | str) -> GimbalCommand:
    """Inverse of ``encode`` on frame text; raises FrameError on bad input."""
    text = frame.text if isinstance(frame, SerialFrame) else frame
    parts = text.split(" ")
    if len(parts) != 2:
        raise FrameError(f"malformed frame {text!r}: expected '<axis> <rate>'")
    axis, payload = parts
    if axis not in _AXES:
        raise FrameError(f"unknown axis {axis!r}: expected one of {_AXES}")
    if not _RATE_RE.fullmatch(payload):
        try:
            float(payload)
        except ValueError:
            raise FrameError(f"non-numeric rate {payload!r}") from None
        raise FrameError(f"rate {payload!r} is not in minimal decimal form")
    if re.search(r"\.\d0$", payload):
        raise FrameError(f"rate {payload!r} carries a trailing zero")
    value = float(payload)
    if abs(value) > MAX_RATE_RAD_S:
        raise FrameError(f"rate {value} out of range [-{MAX_RATE_RAD_S}, {MAX_RATE_RAD_S}]")
    if axis == "Yaw":
        return GimbalCommand(yaw_rate=value)
    return GimbalCommand(pitch_rate=value)


@dataclass
class MockTransport:
    """Loopback endpoint that records frames with timestamps for assertions.

    Models the 9600 bps line: sending while the previous frame is still going
    out raises ``TransportSaturated``; frames are never silently dropped.
    """

    log: list[tuple[float, str]] = field(default_factory=list, init=False)
    _busy_until: float = field(default=-math.inf, init=False)  # idle: a log's times may start below zero

    def send(self, frame: SerialFrame, now: float) -> None:
        if now < self._busy_until:
            raise TransportSaturated(
                f"line busy until t={self._busy_until:.6f}, cannot send at t={now:.6f}"
            )
        seconds = len(frame.wire_bytes()) * BITS_PER_BYTE_ON_WIRE / LINE_RATE_BPS
        self._busy_until = now + seconds
        self._keep(now, frame.text)

    def _keep(self, now: float, text: str) -> None:
        """Keep a frame that went out: here, in ``log``."""
        self.log.append((now, text))

    def bytes_sent(self) -> int:
        return sum(len(text.encode("ascii")) + len(TERMINATOR) for _, text in self.log)


@dataclass
class CommandLink:
    """Send-on-change command writer over a transport.

    Consecutive identical commands emit a single frame; a changed command
    always goes out in the same loop iteration.  A held command's frame is
    re-sent ``KEEPALIVE_S`` after it was last sent.  Each distinct command is
    encoded once per link: its frame is kept, keyed by the command's two
    rates, which the dataclass's own equality compares, so equal commands
    share it.  Only a command that encodes is kept, so at most one frame per
    whole-hundredth rate per axis (120) is held; one that does not raises
    ``FrameError`` each time it is sent.
    """

    transport: MockTransport
    _last_text: str | None = field(default=None, init=False)
    _last_sent_at: float = field(default=0.0, init=False)
    _frames: dict[tuple[float, float], SerialFrame] = field(default_factory=dict, init=False)

    def send(self, cmd: GimbalCommand, now: float) -> list[SerialFrame]:
        if cmd.is_zero():
            self._last_text = None
            return []
        key = cmd.yaw_rate, cmd.pitch_rate  # a GimbalCommand's generated __hash__ runs in Python
        frame = self._frames.get(key)
        if frame is None:
            (frame,) = encode(cmd)
            self._frames[key] = frame
        if frame.text == self._last_text and not now - self._last_sent_at >= KEEPALIVE_S:
            return []
        self.transport.send(frame, now)
        self._last_text = frame.text
        self._last_sent_at = now
        return [frame]
