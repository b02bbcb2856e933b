"""UDP transport: rate-limited telemetry broadcaster and command
listener, with a sender-side fault model (dropout windows and seeded
random loss) fixed when the broadcaster is opened.

`FaultProfile.sheds` is the one place a datagram is shed by the fault
model; the embedded runner applies the same rule to its lines.

One sentence per datagram. Receive timestamps are monotonic-clock
seconds; UTC only ever appears inside message payloads.
"""

from __future__ import annotations

import math
import queue
import random
import select
import socket
import threading
import time
from dataclasses import dataclass

RATE_MIN_HZ = 1.0
RATE_MAX_HZ = 20.0


class TransportError(OSError):
    """Socket-level failure (bind, send)."""


class TransportClosedError(TransportError):
    """Handle used after close."""


class ConfigError(ValueError):
    """Invalid endpoint, rate, or fault profile."""


@dataclass(frozen=True)
class Endpoint:
    host: str
    port: int

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ConfigError(f"port {self.port} outside 1..65535")

    @property
    def addr(self) -> tuple[str, int]:
        return (self.host, self.port)


@dataclass(frozen=True)
class RateConfig:
    telemetry_hz: float = 10.0

    def __post_init__(self):
        if not RATE_MIN_HZ <= self.telemetry_hz <= RATE_MAX_HZ:
            raise ConfigError(
                f"telemetry rate {self.telemetry_hz} Hz outside "
                f"[{RATE_MIN_HZ:g}, {RATE_MAX_HZ:g}]")


@dataclass(frozen=True)
class FaultProfile:
    dropout_windows: tuple[tuple[float, float], ...] = ()  # (start, duration) s
    loss_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.loss_prob <= 1.0:
            raise ConfigError(f"loss_prob {self.loss_prob} outside [0, 1]")
        # comparisons that NaN fails, so NaN is rejected too
        for start, duration in self.dropout_windows:
            if not -math.inf < start < math.inf:
                raise ConfigError(f"dropout start {start} is not finite")
            if not duration >= 0.0:
                raise ConfigError(f"dropout duration {duration} is not >= 0")

    def in_dropout(self, t_rel: float) -> bool:
        return any(start <= t_rel < start + duration
                   for start, duration in self.dropout_windows)

    def sheds(self, t_rel: float, rng: random.Random) -> bool:
        """Whether a datagram sent `t_rel` s into the run is shed: inside
        a dropout window without a draw, else by one draw of `rng`
        against `loss_prob` (no draw at all when it is 0)."""
        if self.dropout_windows and self.in_dropout(t_rel):
            return True
        return self.loss_prob > 0.0 and rng.random() < self.loss_prob


class UdpBroadcaster:
    """Rate-paced UDP sender with sender-side fault shaping.

    One producing context may call send(); a worker thread paces the
    queued lines onto the socket. It waits for the next slot, then for
    a line; a slot admits that line and up to `burst - 1` more already
    queued, and the slots fall every 1/rate s, catching up to the
    present after an idle spell. close() ends either wait at once. A
    datagram whose send fails is shed and counted in `send_errors`.
    """

    def __init__(self, endpoint: Endpoint, rate: RateConfig,
                 fault: FaultProfile | None = None, burst: int = 1):
        if not (isinstance(burst, int) and burst >= 1):
            raise ConfigError("need an integer burst >= 1")
        self.endpoint = endpoint
        self.rate = rate
        self.burst = burst  # datagrams allowed per rate interval
        sock = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_BROADCAST, 1)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise TransportError(f"socket setup failed: {exc}") from exc
        self._sock = sock
        self._queue: queue.SimpleQueue[bytes | None] = queue.SimpleQueue()
        self._closed = threading.Event()
        self._fault = fault or FaultProfile()
        self._rng = random.Random(self._fault.seed)
        self.send_errors = 0  # written by the worker thread only
        self.t0 = time.monotonic()
        self._worker = threading.Thread(target=self._run, daemon=True)
        self._worker.start()

    def send(self, line: str) -> None:
        """Queue one sentence for paced, fault-shaped delivery."""
        if self._closed.is_set():
            raise TransportClosedError("send on closed broadcaster")
        self._queue.put(line.encode("ascii"))

    def pending(self) -> int:
        return self._queue.qsize()

    def close(self) -> None:
        self._closed.set()
        self._queue.put(None)  # wakes a worker blocked on get()
        self._worker.join(timeout=2.0)
        self._sock.close()

    def _run(self) -> None:
        interval = 1.0 / self.rate.telemetry_hz
        slot = self.t0
        while not self._closed.wait(slot - time.monotonic()):
            # the only consumer, so qsize() lines are there to take
            batch = [self._queue.get()]
            batch += [self._queue.get_nowait()
                      for _ in range(min(self.burst - 1, self._queue.qsize()))]
            if self._closed.is_set():
                return
            now = time.monotonic()
            slot = max(slot + interval, now)
            for data in batch:
                if not self._fault.sheds(now - self.t0, self._rng):
                    try:
                        self._sock.sendto(data, self.endpoint.addr)
                    except OSError:  # e.g. EMSGSIZE: shed, and counted
                        self.send_errors += 1


class UdpListener:
    """Bound UDP receiver yielding (line, monotonic receive time)."""

    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        sock = None
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 0)
            sock.bind(endpoint.addr)
            sock.setblocking(False)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise TransportError(
                f"bind {endpoint.addr} failed: {exc}") from exc
        self._sock = sock
        self._closed = False

    def poll(self, timeout: float) -> list[tuple[str, float]]:
        """Collect all datagrams arriving before the deadline."""
        if self._closed:
            raise TransportClosedError("poll on closed listener")
        deadline = time.monotonic() + timeout
        out: list[tuple[str, float]] = []
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return out
            try:
                try:
                    data, _ = self._sock.recvfrom(65536)
                except BlockingIOError:
                    # nothing queued: select keeps the wait to the
                    # microsecond, where a socket timeout rounds it up
                    # to whole milliseconds
                    if not select.select([self._sock], [], [], remaining)[0]:
                        return out
                    continue
            except (OSError, ValueError):  # ValueError: select after close
                if self._closed:
                    raise TransportClosedError("listener closed during poll")
                raise
            out.append((data.decode("ascii", errors="replace"),
                        time.monotonic()))

    def close(self) -> None:
        self._closed = True
        self._sock.close()


def open_broadcaster(endpoint: Endpoint, rate: RateConfig,
                     fault: FaultProfile | None = None,
                     burst: int = 1) -> UdpBroadcaster:
    return UdpBroadcaster(endpoint, rate, fault, burst)


def open_listener(endpoint: Endpoint) -> UdpListener:
    return UdpListener(endpoint)
