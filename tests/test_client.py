import math
import random
import socket
import threading
import time

import pytest

from otterlink import cli, client, codec, transport
from otterlink.client import (ApproxTimeSync, BackseatClient, DEFAULT_SLOP,
                              SYNC_TOPICS, TopicError, TopicGateway,
                              TopicSample)
from otterlink.obc import SIM_DT, OtterObc


def pos_line(utc=0.0):
    return codec.encode_sentence(
        codec.PosReport(utc, 45.0, -76.0, 0.0, 1.0, 90.0))


def att_line(utc=0.0):
    return codec.encode_sentence(
        codec.AttReport(utc, 0.0, 0.0, 90.0, 0.0, 0.0, 0.0))


class TestGatewayDispatch:
    def test_pos_report_fans_out_to_gps_and_cogsog(self):
        gw = TopicGateway()
        seen = []
        gw.subscribe("otter_gps", lambda s: seen.append(s))
        gw.subscribe("otter_cogsog", lambda s: seen.append(s))
        gw.feed_line(pos_line(), stamp=1.25)
        topics = {s.topic for s in seen}
        assert topics == {"otter_gps", "otter_cogsog"}
        assert all(s.stamp == 1.25 for s in seen)
        gps = next(s for s in seen if s.topic == "otter_gps")
        assert gps.payload["lat"] == 45.0

    def test_multiple_consumers_per_topic(self):
        gw = TopicGateway()
        hits = [0, 0]
        gw.subscribe("otter_imu", lambda s: hits.__setitem__(0, hits[0] + 1))
        gw.subscribe("otter_imu", lambda s: hits.__setitem__(1, hits[1] + 1))
        gw.feed_line(att_line(), stamp=0.0)
        assert hits == [1, 1]

    def test_subscribe_command_topic_rejected(self):
        gw = TopicGateway()
        with pytest.raises(TopicError):
            gw.subscribe("control_cmds", lambda s: None)

    def test_subscribe_unknown_topic_rejected(self):
        gw = TopicGateway()
        with pytest.raises(TopicError):
            gw.subscribe("otter_sonar", lambda s: None)

    def test_topic_error_is_not_the_command_line_usage_error(self):
        # one name per kind: a caller catching cli.UsageError does not
        # catch a bad topic by accident, nor the reverse
        assert not issubclass(TopicError, cli.UsageError)
        assert not issubclass(cli.UsageError, TopicError)
        assert issubclass(TopicError, ValueError)
        assert not hasattr(client, "UsageError")

    def test_consumers_run_in_subscription_order(self):
        # a synchronizer is an ordinary consumer of its topics: one
        # subscribed after it runs after its callback for the same sample
        gw = TopicGateway()
        calls = []
        gw.subscribe("otter_cogsog", lambda s: calls.append("before"))
        gw.synchronize(("otter_gps", "otter_cogsog"), 0.06,
                       lambda s: calls.append("synced"))
        gw.subscribe("otter_cogsog", lambda s: calls.append("after"))
        gw.feed_line(pos_line(), stamp=0.5)
        assert calls == ["before", "synced", "after"]

    def test_synchronizer_is_offered_only_its_topics(self, monkeypatch):
        offered = []
        offer = ApproxTimeSync.offer

        def recorded(sync, sample):
            offered.append(sample.topic)
            offer(sync, sample)

        monkeypatch.setattr(ApproxTimeSync, "offer", recorded)
        gw = TopicGateway()
        synced = []
        gw.synchronize(SYNC_TOPICS, DEFAULT_SLOP, synced.append)
        obc = OtterObc()
        fed = []
        for step in range(1, 151):  # 3 s: three status/time pairs
            for line in obc.tick(step * SIM_DT):
                fed.extend(topic for topic, _ in codec.topic_payloads(
                    codec.decode_sentence(line)))
                gw.feed_line(line, step * SIM_DT)
        assert {"otter_status", "otter_gps_time"} <= set(fed)
        assert offered == [topic for topic in fed if topic in SYNC_TOPICS]
        assert len(synced) == fed.count("otter_gps")

    def test_corrupt_line_counts_but_does_not_raise(self):
        gw = TopicGateway()
        gw.subscribe("otter_gps", lambda s: None)
        gw.feed_line("$POTPOS,garbage*00\r\n", stamp=0.0)
        gw.feed_line("not even framed", stamp=0.1)
        assert gw.decode_errors == 2


class TestPublish:
    def test_sends_exactly_once_and_returns_line(self):
        sent = []
        gw = TopicGateway(command_sender=sent.append)
        line = gw.publish_command("drift_cmds", codec.DriftCmd(True))
        assert sent == [line]
        assert codec.decode_sentence(line) == codec.DriftCmd(True)

    def test_wrong_payload_type_rejected_before_send(self):
        sent = []
        gw = TopicGateway(command_sender=sent.append)
        with pytest.raises(TopicError):
            gw.publish_command("drift_cmds", codec.ManualCmd(0, 0, 0))
        assert sent == []

    def test_invalid_payload_raises_before_send(self):
        sent = []
        gw = TopicGateway(command_sender=sent.append)
        with pytest.raises(codec.RangeError):
            gw.publish_command("control_cmds", codec.ManualCmd(2.0, 0, 0))
        assert sent == []

    def test_not_a_command_topic(self):
        gw = TopicGateway(command_sender=lambda line: None)
        with pytest.raises(TopicError):
            gw.publish_command("otter_gps", codec.DriftCmd(True))


def oracle_match(trace, topics, slop):
    """Straightforward restatement of the matching rule: keep the
    newest *unconsumed* sample per topic; whenever every topic has one
    and their stamps span at most `slop`, emit the set and consume it."""
    latest = {}
    emitted = []
    for sample in trace:
        if sample.topic not in topics:
            continue
        latest[sample.topic] = sample
        if len(latest) == len(topics):
            stamps = [s.stamp for s in latest.values()]
            if max(stamps) - min(stamps) <= slop:
                emitted.append({t: latest[t].stamp for t in topics})
                latest.clear()
    return emitted


def random_trace(rng, n):
    trace = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.0, 0.12)
        topic = rng.choice(SYNC_TOPICS)
        trace.append(TopicSample(topic, round(t, 4), {"k": len(trace)}))
    return trace


class TestApproxTimeSync:
    def test_emits_when_all_topics_inside_window(self):
        out = []
        sync = ApproxTimeSync(SYNC_TOPICS, 0.06, out.append)
        sync.offer(TopicSample("otter_gps", 1.00, {}))
        sync.offer(TopicSample("otter_cogsog", 1.01, {}))
        assert out == []
        sync.offer(TopicSample("otter_imu", 1.05, {}))
        assert len(out) == 1
        assert out[0].stamp == 1.05  # pivot = newest constituent

    def test_stale_sample_replaced_not_matched(self):
        out = []
        sync = ApproxTimeSync(SYNC_TOPICS, 0.06, out.append)
        sync.offer(TopicSample("otter_gps", 1.00, {}))
        sync.offer(TopicSample("otter_imu", 2.00, {}))
        sync.offer(TopicSample("otter_cogsog", 2.01, {}))
        assert out == []  # gps is 1 s stale
        sync.offer(TopicSample("otter_gps", 2.02, {}))
        assert len(out) == 1

    def test_samples_consumed_at_most_once(self):
        out = []
        sync = ApproxTimeSync(("otter_gps", "otter_imu"), 0.06, out.append)
        sync.offer(TopicSample("otter_gps", 1.00, {}))
        sync.offer(TopicSample("otter_imu", 1.01, {}))
        sync.offer(TopicSample("otter_imu", 1.02, {}))
        # second imu alone must not re-pair with the consumed gps sample
        assert len(out) == 1

    def test_bad_construction_rejected(self):
        with pytest.raises(TopicError):
            ApproxTimeSync((), 0.06, lambda s: None)
        with pytest.raises(TopicError):
            ApproxTimeSync(("otter_status",), 0.06, lambda s: None)
        with pytest.raises(TopicError):
            ApproxTimeSync(SYNC_TOPICS, 0.0, lambda s: None)

    @pytest.mark.parametrize("topics", [
        ("otter_gps", "otter_gps"),
        ("otter_gps", "otter_imu", "otter_cogsog", "otter_imu")])
    def test_repeated_topic_rejected_before_subscribing(self, topics):
        # a repeated topic used to be accepted and never emit, with its
        # offer subscribed once per repetition
        gw = TopicGateway()
        with pytest.raises(TopicError, match="repeated"):
            gw.synchronize(topics, DEFAULT_SLOP, lambda s: None)
        with pytest.raises(TopicError, match="repeated"):
            ApproxTimeSync(topics, DEFAULT_SLOP, lambda s: None)
        assert gw._subs == {}

    @pytest.mark.parametrize("slop", [math.nan, math.inf])
    def test_non_finite_slop_rejected(self, slop):
        # a NaN slop used to be accepted and never emit
        with pytest.raises(TopicError):
            ApproxTimeSync(SYNC_TOPICS, slop, lambda s: None)

    def test_matches_oracle_on_random_traces(self):
        rng = random.Random(2024)
        for trial in range(200):
            trace = random_trace(rng, rng.randint(3, 100))
            out = []
            sync = ApproxTimeSync(SYNC_TOPICS, DEFAULT_SLOP, out.append)
            for sample in trace:
                sync.offer(sample)
            expected = oracle_match(trace, SYNC_TOPICS, DEFAULT_SLOP)
            got = [{"otter_gps": s.gps["k"], "otter_imu": s.imu["k"],
                    "otter_cogsog": s.cogsog["k"]} for s in out]
            keyed = [{t: trace[v[t]].stamp for t in SYNC_TOPICS}
                     for v in got]
            assert keyed == expected, f"trial {trial} diverged"
            # invariants regardless of the oracle
            stamps = [s.stamp for s in out]
            assert stamps == sorted(stamps)
            for s in out:
                parts = [s.gps["k"], s.imu["k"], s.cogsog["k"]]
                spread = (max(trace[k].stamp for k in parts)
                          - min(trace[k].stamp for k in parts))
                assert spread <= DEFAULT_SLOP + 1e-12

    def test_gateway_synchronize_end_to_end(self):
        gw = TopicGateway()
        out = []
        gw.synchronize(("otter_gps", "otter_cogsog"), 0.06, out.append)
        gw.feed_line(pos_line(utc=1.0), stamp=0.5)
        # one PosReport feeds both topics at the same stamp -> match
        assert len(out) == 1
        assert out[0].cogsog["sog"] == 1.0


def free_endpoint():
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return transport.Endpoint("127.0.0.1", s.getsockname()[1])


class TestBackseatClient:
    def test_poll_feeds_consumers_on_the_calling_thread(self):
        telem, cmd = free_endpoint(), free_endpoint()
        cmd_listener = transport.UdpListener(cmd)
        threads = set(threading.enumerate())
        client = BackseatClient(telem, cmd)
        try:
            assert set(threading.enumerate()) <= threads  # none started
            caller = threading.get_ident()
            trace, synced, consumer_threads = [], [], set()

            def on_sample(sample):
                consumer_threads.add(threading.get_ident())
                trace.append(sample)

            def on_synced(sample):
                consumer_threads.add(threading.get_ident())
                synced.append(sample)

            for topic in SYNC_TOPICS:
                client.subscribe(topic, on_sample)
            client.synchronize(SYNC_TOPICS, DEFAULT_SLOP, on_synced)

            broadcaster = transport.UdpBroadcaster(
                telem, transport.RateConfig(20.0), burst=4)
            try:
                sent = []
                sim = OtterObc(telemetry_hz=10.0)
                for k in range(1, 51):  # 1 s of telemetry
                    sent += sim.tick(k * SIM_DT)
                for line in sent:
                    broadcaster.send(line)
                fed = 0
                deadline = time.monotonic() + 5.0
                while fed < len(sent) and time.monotonic() < deadline:
                    fed += client.poll(0.05)
            finally:
                broadcaster.close()
            assert fed == len(sent)
            gps = [s for s in trace if s.topic == "otter_gps"]
            assert len(gps) == sum(line.startswith("$POTPOS")
                                   for line in sent) == 10
            stamps = [s.stamp for s in trace]
            assert stamps == sorted(stamps)
            # receive stamps decide the matches, so compare with the
            # oracle on the same trace rather than a fixed count
            expected = oracle_match(trace, SYNC_TOPICS, DEFAULT_SLOP)
            assert synced
            assert ([s.stamp for s in synced]
                    == [max(e.values()) for e in expected])
            assert all(s.gps and s.imu and s.cogsog for s in synced)
            assert consumer_threads == {caller}
            assert client.decode_errors == 0

            line = client.publish_command("control_cmds",
                                          codec.ManualCmd(0.5, 0.0, -0.25))
            got = cmd_listener.poll(1.0)
            assert [received for received, _ in got] == [line]
        finally:
            client.close()
            cmd_listener.close()

    def test_poll_times_out_empty_and_close_ends_use(self):
        client = BackseatClient(free_endpoint(), free_endpoint())
        t = time.monotonic()
        assert client.poll(0.05) == 0
        assert time.monotonic() - t >= 0.04
        client.close()
        with pytest.raises(transport.TransportClosedError):
            client.poll(0.01)
        with pytest.raises(transport.TransportClosedError):
            client.publish_command("drift_cmds", codec.DriftCmd(True))

    def test_failed_command_send_is_a_transport_error(self):
        # a broadcast address without SO_BROADCAST: sendto is refused
        client = BackseatClient(free_endpoint(),
                                transport.Endpoint("255.255.255.255", 10011))
        try:
            with pytest.raises(transport.TransportError, match="send to"):
                client.publish_command("drift_cmds", codec.DriftCmd(True))
        finally:
            client.close()
