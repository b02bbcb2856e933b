"""Client-side topic gateway.

Decoded telemetry fans out to named topics; command topics are encoded
and relayed immediately, exactly once per publish call. Which message
maps to which topic is defined by ``codec.CATALOG``. Resend cadence is
the publisher's responsibility.

A topic's consumers run in subscription order. A synchronizer is an
ordinary consumer: `synchronize` subscribes its `offer` to each of its
topics, so it sees only their samples, in its turn among their
consumers.

`BackseatClient` puts the gateway on UDP sockets and runs on a single
thread: the caller alternates `poll`, which feeds the telemetry that
arrives within a timeout, with its own control steps.

Decode failures increment a counter and are otherwise ignored: corrupt
traffic must never take the client down.
"""

from __future__ import annotations

import math
import socket
from dataclasses import dataclass
from typing import Callable, Iterable

from . import codec, transport

TELEMETRY_TOPICS = tuple(topic for m in codec.CATALOG if not m.command
                         for topic, _ in m.topics)
_COMMAND_TYPE = {topic: m.cls for m in codec.CATALOG if m.command
                 for topic, _ in m.topics}
SYNC_TOPICS = ("otter_gps", "otter_imu", "otter_cogsog")

DEFAULT_SLOP = 0.06  # s, at the 10 Hz telemetry operating point


class TopicError(ValueError):
    """Bad topic name or topic/payload mismatch."""


@dataclass(frozen=True)
class TopicSample:
    topic: str
    stamp: float  # monotonic receive time, s
    payload: dict


@dataclass(frozen=True)
class SyncedSample:
    gps: dict
    imu: dict
    cogsog: dict
    stamp: float  # pivot = newest constituent stamp


class ApproxTimeSync:
    """Newest-within-window matcher over a set of telemetry topics.

    Emits a SyncedSample whenever the newest unused sample of every
    requested topic falls inside a slop-wide window; each sample is
    consumed by at most one emission, and emissions are nondecreasing
    in pivot stamp.
    """

    def __init__(self, topics: Iterable[str], slop: float,
                 callback: Callable[[SyncedSample], None]):
        topics = tuple(topics)
        if not topics:
            raise TopicError("empty synchronization topic set")
        bad = set(topics) - set(SYNC_TOPICS)
        if bad:
            raise TopicError(f"cannot synchronize topics: {sorted(bad)}")
        if len(set(topics)) < len(topics):
            # one latest sample per topic could never fill the set
            raise TopicError(f"repeated synchronization topic: {topics}")
        if not 0.0 < slop < math.inf:  # NaN fails the comparison too
            raise TopicError(f"slop must be positive and finite, not {slop}")
        self.topics = topics
        self.slop = slop
        self.callback = callback
        self._latest: dict[str, TopicSample] = {}

    def offer(self, sample: TopicSample) -> None:
        """Take a sample of one of `topics`; it must be offered no other
        topic (`TopicGateway.synchronize` subscribes it to those alone)."""
        self._latest[sample.topic] = sample
        if len(self._latest) < len(self.topics):
            return
        stamps = [s.stamp for s in self._latest.values()]
        if max(stamps) - min(stamps) <= self.slop:
            latest, self._latest = self._latest, {}
            gps, imu, cogsog = (latest[t].payload if t in latest else {}
                                for t in SYNC_TOPICS)
            self.callback(SyncedSample(gps, imu, cogsog, max(stamps)))


class TopicGateway:
    """Transport-agnostic dispatch core: feed wire lines in, invoke
    topic consumers from the feeding context."""

    def __init__(self, command_sender: Callable[[str], None] | None = None):
        self._subs: dict[str, list[Callable[[TopicSample], None]]] = {}
        self._command_sender = command_sender
        self.decode_errors = 0

    def subscribe(self, topic: str,
                  consumer: Callable[[TopicSample], None]) -> None:
        if topic in _COMMAND_TYPE:
            raise TopicError(f"cannot subscribe to command topic {topic!r}")
        if topic not in TELEMETRY_TOPICS:
            raise TopicError(f"unknown topic {topic!r}")
        self._subs.setdefault(topic, []).append(consumer)

    def synchronize(self, topics: Iterable[str], slop: float,
                    consumer: Callable[[SyncedSample], None]) -> ApproxTimeSync:
        sync = ApproxTimeSync(topics, slop, consumer)
        for topic in sync.topics:
            self.subscribe(topic, sync.offer)
        return sync

    def feed_line(self, line: str, stamp: float) -> None:
        try:
            msg = codec.decode_sentence(line)
        except codec.CodecError:
            self.decode_errors += 1
            return
        for topic, payload in codec.topic_payloads(msg):
            sample = TopicSample(topic, stamp, payload)
            for consumer in self._subs.get(topic, ()):
                consumer(sample)

    def publish_command(self, topic: str, payload: codec.OtterMessage) -> str:
        """Encode and relay one command; returns the wire line sent."""
        expected = _COMMAND_TYPE.get(topic)
        if expected is None:
            raise TopicError(f"not a command topic: {topic!r}")
        if not isinstance(payload, expected):
            raise TopicError(
                f"topic {topic!r} expects {expected.__name__}, "
                f"got {type(payload).__name__}")
        line = codec.encode_sentence(payload)  # raises before anything is sent
        if self._command_sender is None:
            raise TopicError("gateway has no command sender attached")
        self._command_sender(line)
        return line


class BackseatClient(TopicGateway):
    """Socket-backed gateway: listens for telemetry on one UDP port and
    sends commands to another.

    Starts no thread: consumers run inside poll(), on the caller's
    thread.
    """

    def __init__(self, telemetry_endpoint: transport.Endpoint,
                 command_endpoint: transport.Endpoint):
        super().__init__(command_sender=self._send_command)
        self._cmd_endpoint = command_endpoint
        self._listener = transport.UdpListener(telemetry_endpoint)
        self._cmd_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def _send_command(self, line: str) -> None:
        if self._cmd_sock is None:
            raise transport.TransportClosedError("client closed")
        try:
            self._cmd_sock.sendto(line.encode("ascii"),
                                  self._cmd_endpoint.addr)
        except OSError as exc:
            raise transport.TransportError(
                f"send to {self._cmd_endpoint.addr} failed: {exc}") from exc

    def poll(self, timeout: float) -> int:
        """Feed every datagram that arrives within `timeout` seconds;
        returns how many lines were fed."""
        lines = self._listener.poll(timeout)
        for line, stamp in lines:
            self.feed_line(line, stamp)
        return len(lines)

    def close(self) -> None:
        self._listener.close()
        if self._cmd_sock is not None:
            self._cmd_sock.close()
            self._cmd_sock = None
