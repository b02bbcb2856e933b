import gc
import random
import socket
import statistics
import time
import warnings

import pytest

from otterlink import transport
from otterlink.transport import (ConfigError, Endpoint, FaultProfile,
                                 RateConfig, TransportClosedError,
                                 UdpBroadcaster, UdpListener)

HOST = "127.0.0.1"
_next_port = [17810]


def fresh_endpoint():
    _next_port[0] += 1
    return Endpoint(HOST, _next_port[0])


def make_pair(rate_hz=20.0, fault=None):
    ep = fresh_endpoint()
    listener = UdpListener(ep)
    broadcaster = UdpBroadcaster(ep, RateConfig(rate_hz), fault)
    return broadcaster, listener


class TestConfigValidation:
    @pytest.mark.parametrize("hz", [0.5, 0.99, 20.01, 25.0, -1.0])
    def test_rate_outside_bounds(self, hz):
        with pytest.raises(ConfigError):
            RateConfig(hz)

    @pytest.mark.parametrize("hz", [1.0, 10.0, 20.0])
    def test_rate_boundaries_accepted(self, hz):
        RateConfig(hz)

    def test_endpoint_port_bounds(self):
        with pytest.raises(ConfigError):
            Endpoint(HOST, 0)
        with pytest.raises(ConfigError):
            Endpoint(HOST, 70000)

    def test_fault_profile_bounds(self):
        with pytest.raises(ConfigError):
            FaultProfile(loss_prob=1.5)
        with pytest.raises(ConfigError):
            FaultProfile(dropout_windows=((0.0, -1.0),))

    @pytest.mark.parametrize("window", [
        (float("nan"), 1.0), (float("inf"), 1.0), (float("-inf"), 1.0),
        (0.0, float("nan"))])
    def test_non_finite_dropout_window_rejected(self, window):
        # a NaN start or duration used to be accepted and never shed
        with pytest.raises(ConfigError):
            FaultProfile(dropout_windows=(window,))

    def test_unbounded_dropout_duration_accepted(self):
        fault = FaultProfile(dropout_windows=((1.0, float("inf")),))
        assert fault.in_dropout(1e9) and not fault.in_dropout(0.5)

    def test_dropout_membership(self):
        fault = FaultProfile(dropout_windows=((1.0, 2.0), (10.0, 0.5)))
        assert not fault.in_dropout(0.9)
        assert fault.in_dropout(1.0)
        assert fault.in_dropout(2.9)
        assert not fault.in_dropout(3.0)
        assert fault.in_dropout(10.2)

    @pytest.mark.parametrize("loss_prob", [0.0, 0.3, 1.0])
    def test_sheds_is_dropout_then_loss(self, loss_prob):
        def reference(fault, t_rel, rng):
            # a window sheds with no draw; else one draw, unless no loss
            if fault.in_dropout(t_rel):
                return True
            return fault.loss_prob > 0.0 and rng.random() < fault.loss_prob

        fault = FaultProfile(dropout_windows=((1.0, 2.0), (10.0, 0.5)),
                             loss_prob=loss_prob, seed=11)
        # each window edge and its neighbours, several datagrams apiece
        times = [t for edge in (1.0, 3.0, 10.0, 10.5)
                 for t in (edge - 1e-9, edge, edge + 1e-9)] * 8
        got_rng, want_rng = random.Random(fault.seed), random.Random(fault.seed)
        got = [fault.sheds(t, got_rng) for t in times]
        assert got == [reference(fault, t, want_rng) for t in times]
        # the same draws, and none at all without loss
        assert got_rng.getstate() == want_rng.getstate()
        if loss_prob == 0.0:
            assert got_rng.getstate() == random.Random(fault.seed).getstate()


class TestLoopback:
    def test_lines_arrive_intact_and_in_order(self):
        broadcaster, listener = make_pair()
        try:
            lines = [f"$POTCMD,DRIFT,{i % 2}*00\r\n" for i in range(5)]
            for line in lines:
                broadcaster.send(line)
            got = []
            deadline = time.monotonic() + 2.0
            while len(got) < 5 and time.monotonic() < deadline:
                got.extend(listener.poll(0.1))
            assert [line for line, _ in got] == lines
            stamps = [stamp for _, stamp in got]
            assert stamps == sorted(stamps)
        finally:
            broadcaster.close()
            listener.close()

    def test_pacing_spreads_sends(self):
        broadcaster, listener = make_pair(rate_hz=20.0)
        try:
            for i in range(8):
                broadcaster.send(f"$POTCMD,DRIFT,1*{i:02d}\r\n")
            got = []
            deadline = time.monotonic() + 2.0
            while len(got) < 8 and time.monotonic() < deadline:
                got.extend(listener.poll(0.1))
            stamps = [stamp for _, stamp in got]
            # 8 datagrams at 20 Hz need at least ~0.3 s end to end
            assert stamps[-1] - stamps[0] > 0.25
        finally:
            broadcaster.close()
            listener.close()

    def test_burst_admits_group_per_slot(self):
        ep = fresh_endpoint()
        listener = UdpListener(ep)
        broadcaster = UdpBroadcaster(ep, RateConfig(2.0), burst=3)
        try:
            for i in range(4):
                broadcaster.send(f"$POTCMD,DRIFT,1*{i:02d}\r\n")
            first = listener.poll(0.3)
            assert len(first) == 3  # one slot, three datagrams
            rest = listener.poll(0.5)
            assert len(rest) == 1   # fourth waits for the next slot
        finally:
            broadcaster.close()
            listener.close()

    def test_failed_send_is_counted_and_the_next_line_arrives(self):
        broadcaster, listener = make_pair()
        try:
            # longer than one UDP datagram: sendto raises EMSGSIZE
            broadcaster.send("$" + "A" * 70000 + "*00\r\n")
            broadcaster.send("$POTCMD,DRIFT,1*00\r\n")
            got = []
            deadline = time.monotonic() + 2.0
            while not got and time.monotonic() < deadline:
                got.extend(listener.poll(0.1))
        finally:
            broadcaster.close()
            listener.close()
        assert [line for line, _ in got] == ["$POTCMD,DRIFT,1*00\r\n"]
        assert broadcaster.send_errors == 1

    def test_bad_burst_rejected(self):
        # 2.5 and NaN used to pass `burst < 1`, and the worker then died
        # on its first slot while send() kept queuing
        for burst in (0, 2.5, float("nan"), "4"):
            with pytest.raises(ConfigError):
                UdpBroadcaster(fresh_endpoint(), RateConfig(10.0),
                               burst=burst)

    def test_pending_counts_the_lines_that_wait_for_their_slot(self):
        broadcaster, listener = make_pair(rate_hz=2.0)
        try:
            for i in range(3):
                broadcaster.send(f"$POTCMD,DRIFT,1*{i:02d}\r\n")
            assert len(listener.poll(0.2)) == 1  # the first slot is due
            assert broadcaster.pending() == 2
            assert len(listener.poll(0.5)) == 1  # the second, 0.5 s on
            assert broadcaster.pending() == 1
        finally:
            broadcaster.close()
            listener.close()

    def test_full_loss_drops_everything(self):
        broadcaster, listener = make_pair(
            fault=FaultProfile(loss_prob=1.0, seed=1))
        try:
            for _ in range(5):
                broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            time.sleep(0.4)
            assert listener.poll(0.1) == []
        finally:
            broadcaster.close()
            listener.close()

    def test_partial_loss_thins_the_stream(self):
        broadcaster, listener = make_pair(
            fault=FaultProfile(loss_prob=0.5, seed=99))
        try:
            n = 40
            for _ in range(n):
                broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            got = []
            deadline = time.monotonic() + 4.0
            while time.monotonic() < deadline:
                batch = listener.poll(0.2)
                got.extend(batch)
                if broadcaster.pending() == 0 and not batch:
                    break
            assert 5 < len(got) < n  # some but not all survive
        finally:
            broadcaster.close()
            listener.close()

    def test_initial_dropout_window_blocks_sends(self):
        broadcaster, listener = make_pair(
            fault=FaultProfile(dropout_windows=((0.0, 0.5),)))
        try:
            broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            assert listener.poll(0.3) == []
            time.sleep(0.4)
            broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            assert len(listener.poll(0.5)) == 1
        finally:
            broadcaster.close()
            listener.close()


class TestLifecycle:
    def test_send_after_close_raises(self):
        broadcaster, listener = make_pair()
        broadcaster.close()
        listener.close()
        with pytest.raises(TransportClosedError):
            broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
        with pytest.raises(TransportClosedError):
            listener.poll(0.01)

    def test_close_ends_the_wait_for_a_slot_at_once(self):
        broadcaster, listener = make_pair(rate_hz=1.0)
        try:
            broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            assert len(listener.poll(0.2)) == 1
            broadcaster.send("$POTCMD,DRIFT,0*6D\r\n")
            broadcaster.send("$POTCMD,DRIFT,1*6C\r\n")
            start = time.monotonic()
            broadcaster.close()  # the worker waits for the 1 Hz slot
            assert time.monotonic() - start < 0.2
            assert listener.poll(1.2) == []
        finally:
            broadcaster.close()
            listener.close()

    def test_close_is_idempotent(self):
        broadcaster, listener = make_pair()
        broadcaster.close()
        broadcaster.close()
        listener.close()
        listener.close()

    def test_double_bind_raises_transport_error(self):
        ep = fresh_endpoint()
        first = UdpListener(ep)
        try:
            with pytest.raises(transport.TransportError):
                UdpListener(ep)
        finally:
            first.close()

    @staticmethod
    def resource_warnings(fail):
        """ResourceWarnings raised while `fail` raises TransportError and
        its half-built object is collected."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(transport.TransportError):
                fail()
            gc.collect()
        return [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)]

    def test_failed_bind_closes_its_socket(self):
        ep = fresh_endpoint()
        first = UdpListener(ep)
        try:
            assert self.resource_warnings(lambda: UdpListener(ep)) == []
        finally:
            first.close()

    def test_failed_broadcaster_setup_closes_its_socket(self, monkeypatch):
        class NoBroadcast(socket.socket):
            def setsockopt(self, *args):
                raise OSError("setsockopt refused")

        monkeypatch.setattr(transport.socket, "socket", NoBroadcast)
        assert self.resource_warnings(
            lambda: UdpBroadcaster(fresh_endpoint(), RateConfig(10.0))) == []


class TestPollTiming:
    def test_idle_poll_ends_near_its_deadline(self):
        # a socket timeout rounds each wait up to whole milliseconds,
        # which put the median overshoot near 0.8 ms
        listener = UdpListener(fresh_endpoint())
        try:
            overshoot = []
            for i in range(40):
                timeout = 0.001 + 0.00037 * i
                start = time.monotonic()
                assert listener.poll(timeout) == []
                overshoot.append(time.monotonic() - start - timeout)
        finally:
            listener.close()
        assert statistics.median(overshoot) < 0.0004
