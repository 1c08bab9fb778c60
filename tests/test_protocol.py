from __future__ import annotations

import math
from dataclasses import dataclass, fields
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from roitrack import protocol
from roitrack.controller import GimbalCommand
from roitrack.protocol import (
    BITS_PER_BYTE_ON_WIRE,
    KEEPALIVE_S,
    LINE_RATE_BPS,
    CommandLink,
    FrameError,
    MockTransport,
    SerialFrame,
    TransportSaturated,
    decode,
    encode,
    format_rate,
)


class TestFormatRate:
    @pytest.mark.parametrize("value,text", [
        (0.3, "0.3"),
        (-0.3, "-0.3"),
        (0.2, "0.2"),
        (0.25, "0.25"),
        (0.05, "0.05"),
        (0.1, "0.1"),
        (-0.15, "-0.15"),
    ])
    def test_minimal_decimal(self, value, text):
        assert format_rate(value) == text


class TestEncode:
    def test_yaw_only(self):
        assert [f.text for f in encode(GimbalCommand(yaw_rate=0.2))] == ["Yaw 0.2"]

    def test_idle_emits_nothing(self):
        assert encode(GimbalCommand()) == []

    def test_max_rate_negative(self):
        assert [f.text for f in encode(GimbalCommand(yaw_rate=-0.3))] == ["Yaw -0.3"]

    def test_pitch_frame(self):
        assert [f.text for f in encode(GimbalCommand(pitch_rate=0.3))] == ["Pitch 0.3"]

    def test_over_cap_rejected(self):
        # the cap is GimbalCommand's: a command over it is never built, so never encoded
        for axis in ("yaw_rate", "pitch_rate"):
            with pytest.raises(ValueError, match="actuator cap"):
                GimbalCommand(**{axis: 0.4})

    def test_dual_axis_rejected(self):
        # GimbalCommand refuses both axes; one built around it has no frame
        # that reads back as it, from encode or through the link
        for yaw, pitch in [(0.3, -0.2), (-0.05, 0.1), (0.3, 1e-300)]:
            bad = unchecked_command(yaw, pitch)
            both = rf"\({yaw}, {pitch}\)"
            with pytest.raises(FrameError, match=both):
                encode(bad)
            link = CommandLink(transport=MockTransport())
            with pytest.raises(FrameError, match=both):
                link.send(bad, now=0.0)
            assert link.transport.log == []

    def test_wire_bytes_terminated_by_line_feed(self):
        (frame,) = encode(GimbalCommand(yaw_rate=0.3))
        assert frame.wire_bytes() == b"Yaw 0.3\n"

    # The frame carries whole hundredths: 0.004 would go out as "Yaw 0.0", a
    # zero command, 0.005 as "Yaw 0.01" and 0.123 as "Yaw 0.12".
    @pytest.mark.parametrize("rate", [0.004, 0.005, 0.123, -0.004, -0.123])
    @pytest.mark.parametrize("axis", ["yaw_rate", "pitch_rate"])
    def test_rate_the_frame_cannot_carry_exactly_rejected(self, axis, rate):
        with pytest.raises(FrameError, match="no exact frame"):
            encode(GimbalCommand(**{axis: rate}))


class TestPrivateState:
    def test_the_link_is_built_from_its_transport_alone(self):
        assert [f.name for f in fields(CommandLink) if f.init] == ["transport"]
        transport, cmd = MockTransport(), GimbalCommand(yaw_rate=0.3)
        for private in ({"_frames": {cmd: SerialFrame("Yaw 0.3")}}, {"_last_text": "Yaw 0.3"},
                        {"_last_sent_at": 0.0}):
            with pytest.raises(TypeError):
                CommandLink(transport=transport, **private)

    def test_the_transport_is_built_from_nothing(self):
        assert [f.name for f in fields(MockTransport) if f.init] == []
        for private in ({"log": []}, {"_busy_until": 0.0}):
            with pytest.raises(TypeError):
                MockTransport(**private)
        with pytest.raises(TypeError):
            MockTransport([])
        assert MockTransport().log == [] and MockTransport().log is not MockTransport().log


class TestEncodeKeepsNoState:
    def test_every_rate_encodes_to_its_text_on_every_call(self):
        commands = [
            (GimbalCommand(yaw_rate=k / 100), f"Yaw {format_rate(k / 100)}") for k in range(-30, 31) if k
        ] + [
            (GimbalCommand(pitch_rate=k / 100), f"Pitch {format_rate(k / 100)}") for k in range(-30, 31) if k
        ]
        assert len(commands) == 120
        for _ in range(2):
            for cmd, text in commands:
                assert [f.text for f in encode(cmd)] == [text]

    def test_mutating_a_result_leaves_the_next_one_alone(self):
        cmd = GimbalCommand(pitch_rate=-0.3)
        frames = encode(cmd)
        frames.append(SerialFrame("Yaw 0.3"))
        frames[0] = SerialFrame("Yaw 0.1")
        assert [f.text for f in encode(cmd)] == ["Pitch -0.3"]
        idle = encode(GimbalCommand())
        idle.append(SerialFrame("Yaw 0.3"))
        assert encode(GimbalCommand()) == []

    @pytest.mark.parametrize("yaw,pitch", [
        (0.4, 0.0),
        (0.3, 0.3),
        (math.nan, 0.0),
        (0.0, math.inf),
        (-math.inf, 0.0),
        (1e300, 0.0),
        (0.123, 0.0),
    ])
    def test_bad_command_raises_on_every_call(self, yaw, pitch):
        bad = object.__new__(GimbalCommand)  # bypasses the cap and dual-axis checks
        object.__setattr__(bad, "yaw_rate", yaw)
        object.__setattr__(bad, "pitch_rate", pitch)
        for _ in range(3):
            with pytest.raises(FrameError):
                encode(bad)


class TestDecode:
    def test_yaw(self):
        assert decode("Yaw 0.3") == GimbalCommand(yaw_rate=0.3)

    def test_pitch_negative(self):
        assert decode("Pitch -0.3") == GimbalCommand(pitch_rate=-0.3)

    def test_unknown_axis(self):
        with pytest.raises(FrameError, match="unknown axis"):
            decode("Roll 0.3")

    def test_non_numeric(self):
        with pytest.raises(FrameError, match="non-numeric"):
            decode("Yaw fast")

    def test_out_of_range(self):
        with pytest.raises(FrameError, match="out of range"):
            decode("Yaw 0.31")

    # Digits other than ASCII's, and leading zeros, are not the minimal form
    # either: none of them is a text format_rate emits.
    @pytest.mark.parametrize("text", ["Yaw 0.123", "Yaw \uff10.\uff11", "Pitch -\u0660.\u0662", "Yaw 00.1", "Pitch 000"])
    def test_too_many_fraction_digits(self, text):
        with pytest.raises(FrameError, match="minimal decimal"):
            decode(text)

    def test_non_ascii_frame_is_refused_on_construction(self):
        # Refused by the grammar, so no text reaches wire_bytes that ASCII cannot encode.
        with pytest.raises(FrameError, match="minimal decimal"):
            SerialFrame("Yaw \uff10.\uff11")

    def test_trailing_zero_rejected(self):
        with pytest.raises(FrameError, match="trailing zero"):
            decode("Yaw 0.30")

    def test_malformed_shape(self):
        with pytest.raises(FrameError, match="malformed"):
            decode("Yaw")
        with pytest.raises(FrameError, match="malformed"):
            decode("Yaw 0.3 extra")

    def test_serial_frame_validates_on_construction(self):
        with pytest.raises(FrameError):
            SerialFrame(text="Roll 0.3")


class TestRoundTrip:
    @pytest.mark.parametrize("cmd", [
        GimbalCommand(),
        GimbalCommand(yaw_rate=0.3),
        GimbalCommand(yaw_rate=-0.3),
        GimbalCommand(pitch_rate=0.3),
        GimbalCommand(pitch_rate=-0.3),
    ])
    def test_five_command_values(self, cmd):
        frames = encode(cmd)
        if cmd.is_zero():
            assert frames == []
        else:
            assert decode(frames[0]) == cmd

    @given(axis=st.sampled_from(["Yaw", "Pitch"]),
           hundredths=st.integers(min_value=-30, max_value=30).filter(lambda k: k != 0))
    def test_command_round_trip(self, axis, hundredths):
        value = hundredths / 100
        cmd = GimbalCommand(yaw_rate=value) if axis == "Yaw" else GimbalCommand(pitch_rate=value)
        (frame,) = encode(cmd)
        assert decode(frame) == cmd

    @given(axis=st.sampled_from(["Yaw", "Pitch"]),
           hundredths=st.integers(min_value=-30, max_value=30).filter(lambda k: k != 0))
    def test_frame_round_trip(self, axis, hundredths):
        text = f"{axis} {format_rate(hundredths / 100)}"
        assert [f.text for f in encode(decode(text))] == [text]


class TestMockTransport:
    def test_logs_frames_with_timestamps(self):
        transport = MockTransport()
        transport.send(SerialFrame("Yaw 0.3"), now=0.5)
        transport.send(SerialFrame("Pitch -0.3"), now=1.5)
        assert transport.log == [(0.5, "Yaw 0.3"), (1.5, "Pitch -0.3")]

    def test_backpressure_when_line_busy(self):
        transport = MockTransport()
        transport.send(SerialFrame("Yaw 0.3"), now=0.0)
        # 8 bytes * 10 bits at 9600 bps = 8.33 ms on the wire
        with pytest.raises(TransportSaturated):
            transport.send(SerialFrame("Yaw 0.2"), now=0.005)
        transport.send(SerialFrame("Yaw 0.2"), now=0.01)
        assert len(transport.log) == 2

    def test_frame_time_matches_line_rate(self):
        transport = MockTransport()
        frame = SerialFrame("Yaw 0.3")
        wire_seconds = len(frame.wire_bytes()) * BITS_PER_BYTE_ON_WIRE / LINE_RATE_BPS
        transport.send(frame, now=0.0)
        with pytest.raises(TransportSaturated):
            transport.send(frame, now=wire_seconds * 0.99)

    def test_idle_line_accepts_a_negative_time(self):
        transport = MockTransport()
        transport.send(SerialFrame("Yaw 0.3"), now=-2.0)
        transport.send(SerialFrame("Yaw 0.2"), now=-1.0)
        assert transport.log == [(-2.0, "Yaw 0.3"), (-1.0, "Yaw 0.2")]

    def test_bytes_sent_counts_terminators(self):
        transport = MockTransport()
        transport.send(SerialFrame("Yaw 0.3"), now=0.0)
        assert transport.bytes_sent() == len(b"Yaw 0.3\n")


class TestCommandLink:
    def test_idle_link_is_silent(self):
        link = CommandLink(transport=MockTransport())
        for i in range(300):  # 10 s at 30 Hz
            link.send(GimbalCommand(), now=i / 30)
        assert link.transport.bytes_sent() == 0

    def test_send_on_change_dedupes(self):
        link = CommandLink(transport=MockTransport())
        cmd = GimbalCommand(yaw_rate=0.3)
        for i in range(30):
            link.send(cmd, now=i / 30)
        assert [text for _, text in link.transport.log] == ["Yaw 0.3"]

    def test_change_emits_in_same_iteration(self):
        link = CommandLink(transport=MockTransport())
        link.send(GimbalCommand(yaw_rate=0.3), now=0.0)
        sent = link.send(GimbalCommand(pitch_rate=0.3), now=1 / 30)
        assert [f.text for f in sent] == ["Pitch 0.3"]

    def test_idle_command_is_not_encoded(self, monkeypatch):
        def no_encode(cmd):
            raise AssertionError("encode called for an idle command")

        monkeypatch.setattr(protocol, "encode", no_encode)
        link = CommandLink(transport=MockTransport())
        assert link.send(GimbalCommand(), now=0.0) == []
        assert link.send(GimbalCommand(pitch_rate=-0.0), now=2.0) == []

    def test_zero_then_same_command_resends(self):
        link = CommandLink(transport=MockTransport())
        link.send(GimbalCommand(yaw_rate=0.3), now=0.0)
        link.send(GimbalCommand(), now=0.1)
        link.send(GimbalCommand(yaw_rate=0.3), now=0.2)
        assert [text for _, text in link.transport.log] == ["Yaw 0.3", "Yaw 0.3"]

    def test_keepalive_resends_periodically(self):
        link = CommandLink(transport=MockTransport())
        cmd = GimbalCommand(yaw_rate=0.3)
        for i in range(75):  # 2.5 s at 30 Hz
            link.send(cmd, now=i / 30)
        times = [t for t, _ in link.transport.log]
        assert len(times) == 3
        assert times[0] == 0.0
        assert times[1] == pytest.approx(1.0, abs=1 / 30)
        assert times[2] == pytest.approx(2.0, abs=1 / 30)

    def test_frame_count_matches_transition_oracle(self):
        commands = (
            [GimbalCommand()] * 5
            + [GimbalCommand(yaw_rate=0.3)] * 8
            + [GimbalCommand(pitch_rate=0.3)] * 4
            + [GimbalCommand()] * 3
            + [GimbalCommand(yaw_rate=0.3)] * 2
            + [GimbalCommand(yaw_rate=-0.3)] * 2
        )
        link = CommandLink(transport=MockTransport())
        for i, cmd in enumerate(commands):
            link.send(cmd, now=i / 30)
        # oracle: walk the sequence counting zero->nonzero plus changes while nonzero
        expected = 0
        last = None
        for cmd in commands:
            frames = encode(cmd)
            text = frames[0].text if frames else None
            if text is not None and text != last:
                expected += 1
            last = text
        assert len(link.transport.log) == expected == 4

    def test_thirty_hz_loop_stays_under_line_budget(self):
        # alternating commands every frame: worst-case traffic
        link = CommandLink(transport=MockTransport())
        duration = 10.0
        n = int(duration * 30)
        for i in range(n):
            cmd = GimbalCommand(yaw_rate=0.3) if i % 2 == 0 else GimbalCommand(pitch_rate=-0.3)
            link.send(cmd, now=i / 30)
        bits = link.transport.bytes_sent() * BITS_PER_BYTE_ON_WIRE
        assert bits / duration < LINE_RATE_BPS


FIVE_COMMANDS = (
    GimbalCommand(),
    GimbalCommand(yaw_rate=0.3),
    GimbalCommand(yaw_rate=-0.3),
    GimbalCommand(pitch_rate=0.3),
    GimbalCommand(pitch_rate=-0.3),
)


def wire_time(cmd: GimbalCommand) -> float:
    """Seconds the line is busy with this command's frame; 0 for an idle command."""
    return sum((len(f.text) + 1) * BITS_PER_BYTE_ON_WIRE / LINE_RATE_BPS for f in encode(cmd))


@given(
    sends=st.lists(
        st.tuples(st.sampled_from(FIVE_COMMANDS), st.floats(min_value=0.0, max_value=0.05)),
        max_size=60,
    ),
)
def test_link_fed_no_faster_than_the_wire_never_saturates(sends):
    link = CommandLink(transport=MockTransport())
    now = 0.0
    for cmd, slack in sends:
        link.send(cmd, now=now)  # raises TransportSaturated if the line is still busy
        now = now + (wire_time(cmd) + slack)


@dataclass
class ReferenceLink:
    """``CommandLink`` as it was before it kept its last frame: it encodes
    every non-zero command it is given.  ``CommandLink`` must match it."""

    transport: MockTransport
    _last_text: str | None = None
    _last_sent_at: float = 0.0

    def send(self, cmd: GimbalCommand, now: float) -> list[SerialFrame]:
        if cmd.is_zero():
            self._last_text = None
            return []
        (frame,) = encode(cmd)
        due_keepalive = now - self._last_sent_at >= KEEPALIVE_S
        if frame.text == self._last_text and not due_keepalive:
            return []
        self.transport.send(frame, now)
        self._last_text = frame.text
        self._last_sent_at = now
        return [frame]


def outcome(link, cmd, now):
    """What one send returned, or the error it raised."""
    try:
        return [f.text for f in link.send(cmd, now)]
    except (FrameError, TransportSaturated) as exc:
        return type(exc), str(exc)


def unchecked_command(yaw: float, pitch: float) -> GimbalCommand:
    cmd = object.__new__(GimbalCommand)  # bypasses the cap and dual-axis checks
    object.__setattr__(cmd, "yaw_rate", yaw)
    object.__setattr__(cmd, "pitch_rate", pitch)
    return cmd


# The five commands a run decides, the same values as new objects, other
# rates (some with no exact frame), -0.0 axes, and commands no run decides,
# built around GimbalCommand's checks: both axes set, over the cap, NaN.
LINK_COMMANDS = st.one_of(
    st.sampled_from(FIVE_COMMANDS),
    st.builds(
        GimbalCommand,
        yaw_rate=st.sampled_from([0.3, -0.3, 0.2, 0.05, 0.123, -0.0, 0.0]),
    ),
    st.builds(
        GimbalCommand,
        pitch_rate=st.sampled_from([0.3, -0.3, -0.15, 0.004, -0.0, 0.0]),
    ),
    st.sampled_from([
        GimbalCommand(yaw_rate=0.3, pitch_rate=-0.0),
        GimbalCommand(yaw_rate=-0.0, pitch_rate=-0.3),
        GimbalCommand(yaw_rate=-0.0, pitch_rate=-0.0),
        unchecked_command(0.3, 0.3),
        unchecked_command(0.4, 0.0),
        unchecked_command(math.nan, 0.0),
    ]),
)


@settings(max_examples=500, deadline=None)
@given(
    sends=st.lists(
        # Gaps from 0 (one frame takes about 8 ms on the line) to past a keep-alive.
        st.tuples(LINK_COMMANDS, st.sampled_from([0.0, 0.001, 0.005, 1 / 30, 0.1, 0.5, 1.0, 1.5])),
        max_size=80,
    ),
    start=st.sampled_from([0.0, -2.0]),
)
def test_link_matches_the_reference_link(sends, start):
    encoded = []  # (command, whether it encoded), for each of the link's encode calls

    def counting_encode(cmd):
        try:
            frames = encode(cmd)
        except FrameError:
            encoded.append((cmd, False))
            raise
        encoded.append((cmd, True))
        return frames

    link = CommandLink(transport=MockTransport())
    reference = ReferenceLink(transport=MockTransport())
    now = start
    with mock.patch.object(protocol, "encode", counting_encode):
        for cmd, gap in sends:
            now += gap
            assert outcome(link, cmd, now) == outcome(reference, cmd, now)
    assert link.transport.log == reference.transport.log
    # A command that encodes is encoded once per link; one that does not, each time it is sent.
    framed = [cmd for cmd, ok in encoded if ok]
    assert len(framed) == len(set(framed))
