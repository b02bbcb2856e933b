import math

import pytest

from otterlink import codec
from otterlink.obc import (ControlGains, OtterObc, SIM_DT,
                           builtin_course_speed, wrap_deg180)
from otterlink.vessel import EnvDisturbance, VesselState


def decode_all(lines):
    return [codec.decode_sentence(line) for line in lines]


def run_for(obc, seconds, t0=0.0):
    msgs = []
    steps = int(round(seconds / SIM_DT))
    base = int(round(t0 / SIM_DT))
    for k in range(base + 1, base + steps + 1):
        msgs.extend(decode_all(obc.tick(k * SIM_DT)))
    return msgs


class TestTelemetryCadence:
    def test_rates_over_one_minute(self):
        obc = OtterObc(telemetry_hz=10.0)
        msgs = run_for(obc, 60.0)
        counts = {}
        for msg in msgs:
            counts[type(msg).__name__] = counts.get(type(msg).__name__, 0) + 1
        assert counts["PosReport"] == 600
        assert counts["AttReport"] == 600
        assert counts["StatusReport"] == 60
        assert counts["TimeReport"] == 60

    def test_custom_rate(self):
        obc = OtterObc(telemetry_hz=4.0)
        msgs = run_for(obc, 10.0)
        assert sum(isinstance(m, codec.PosReport) for m in msgs) == 40

    @pytest.mark.parametrize("hz", [0.5, 0.0, 25.0, -3.0])
    def test_rate_outside_bounds_rejected(self, hz):
        with pytest.raises(ValueError):
            OtterObc(telemetry_hz=hz)

    def test_utc_advances_with_sim_time(self):
        obc = OtterObc()
        msgs = run_for(obc, 2.0)
        pos = [m for m in msgs if isinstance(m, codec.PosReport)]
        assert pos[-1].utc - pos[0].utc == pytest.approx(1.9, abs=1e-6)

    def test_heading_and_utc_just_below_their_wrap_decode_as_zero(self):
        obc = OtterObc(initial_state=VesselState(psi=2.0 * math.pi - 1e-6),
                       utc0=86399.896)
        att = [m for m in run_for(obc, 0.1) if isinstance(m, codec.AttReport)]
        assert (att[0].yaw, att[0].utc) == (0.0, 0.0)

    def test_tick_rejects_time_reversal(self):
        obc = OtterObc()
        obc.tick(1.0)
        with pytest.raises(ValueError):
            obc.tick(0.5)


class TestModes:
    def test_starts_in_drift_and_stays_put(self):
        obc = OtterObc()
        run_for(obc, 5.0)
        assert obc.mode_tag == "DRIFT"
        assert obc.state.speed() == pytest.approx(0.0, abs=1e-9)

    def test_manual_mode_reaches_top_speed(self):
        obc = OtterObc()
        obc.handle_command(codec.ManualCmd(1.0, 0.0, 0.0))
        run_for(obc, 60.0)
        assert obc.state.u == pytest.approx(obc.params.v_max, rel=0.02)

    def test_manual_y_axis_is_ignored(self):
        a, b = OtterObc(), OtterObc()
        a.handle_command(codec.ManualCmd(0.5, 0.0, 0.1))
        b.handle_command(codec.ManualCmd(0.5, 0.9, 0.1))
        run_for(a, 10.0)
        run_for(b, 10.0)
        assert a.state == b.state

    def test_drift_on_returns_to_drift(self):
        obc = OtterObc()
        obc.handle_command(codec.ManualCmd(1.0, 0.0, 0.0))
        run_for(obc, 10.0)
        obc.handle_command(codec.DriftCmd(True))
        assert obc.mode_tag == "DRIFT"
        speed_at_cut = obc.state.u
        run_for(obc, 20.0, t0=10.0)
        assert obc.state.u < 0.05 * speed_at_cut

    def test_telemetry_command_rejected(self):
        obc = OtterObc()
        with pytest.raises(TypeError):
            obc.handle_command(codec.TimeReport(20250101, 0.0))

    @pytest.mark.parametrize("msg", ["POTCMD,DRIFT,1", None])
    def test_non_message_rejected(self, msg):
        obc = OtterObc()
        with pytest.raises(TypeError):
            obc.handle_command(msg)
        assert obc.mode_tag == "DRIFT"

    def test_mode_is_the_last_accepted_command(self):
        obc = OtterObc()
        assert obc.mode == codec.DriftCmd(True)
        crs = codec.CourseSpeedCmd(90.0, 2.0)
        obc.handle_command(crs)
        run_for(obc, 5.0)
        integ = obc._integ_u
        assert obc.mode is crs and integ != 0.0
        obc.handle_command(codec.DriftCmd(False))  # ignored
        assert obc.mode is crs and obc._integ_u == integ
        crs2 = codec.CourseSpeedCmd(180.0, 1.0)  # same mode: no reset
        obc.handle_command(crs2)
        assert obc.mode is crs2 and obc._integ_u == integ
        obc.handle_command(codec.DriftCmd(True))
        assert obc.mode == codec.DriftCmd(True) and obc._integ_u == 0.0

    def test_course_speed_converges(self):
        obc = OtterObc(initial_state=VesselState(u=1.0))
        obc.handle_command(codec.CourseSpeedCmd(90.0, 1.5))
        run_for(obc, 60.0)
        assert math.degrees(obc.state.psi) == pytest.approx(90.0, abs=2.0)
        assert obc.state.u == pytest.approx(1.5, abs=0.05)

    def test_course_step_overshoot_bounded(self):
        obc = OtterObc(initial_state=VesselState(u=1.0))
        obc.handle_command(codec.CourseSpeedCmd(90.0, 1.0))
        max_psi = 0.0
        for k in range(1, 3001):
            obc.tick(k * SIM_DT)
            max_psi = max(max_psi, math.degrees(obc.state.psi)
                          if obc.state.psi < math.pi else 0.0)
        assert max_psi - 90.0 < 0.25 * 90.0

    def test_station_keep_holds_position(self):
        start = VesselState(north=20.0, east=5.0)
        obc = OtterObc(env=EnvDisturbance(0.3, 0.0), initial_state=start)
        lat, lon = 45.0, -76.0  # the local origin
        obc.handle_command(codec.StationKeepCmd(lat, lon, 1.5))
        dists = []
        for k in range(1, 6001):
            obc.tick(k * SIM_DT)
            if k * SIM_DT >= 60.0:
                dists.append(math.hypot(obc.state.north, obc.state.east))
        assert max(dists) < 5.0

    def test_station_keep_drifts_inside_deadband(self):
        obc = OtterObc(initial_state=VesselState(north=0.5, east=0.0))
        obc.handle_command(codec.StationKeepCmd(45.0, -76.0, 1.0))
        run_for(obc, 5.0)
        assert obc.motor_port.target_norm == 0.0
        assert obc.motor_stbd.target_norm == 0.0

    def test_mode_switch_resets_speed_integrator(self):
        obc = OtterObc()
        obc.handle_command(codec.CourseSpeedCmd(0.0, 2.0))
        run_for(obc, 10.0)
        assert obc._integ_u != 0.0
        obc.handle_command(codec.ManualCmd(0.0, 0.0, 0.0))
        assert obc._integ_u == 0.0


class TestStatus:
    def test_rpm_never_negative_under_reverse_thrust(self):
        obc = OtterObc()
        obc.handle_command(codec.ManualCmd(-1.0, 0.0, 0.0))
        msgs = run_for(obc, 10.0)
        stats = [m for m in msgs if isinstance(m, codec.StatusReport)]
        assert stats
        assert all(m.rpm_port >= 0 and m.rpm_stbd >= 0 for m in stats)
        assert any(m.rpm_port > 0 for m in stats)  # motors really spun

    def test_every_catalog_command_sets_its_mode(self):
        commands = [m for m in codec.CATALOG if m.command]
        subcommands = {m.tag.split(",")[1] for m in commands}
        assert set(codec.MODE_TAGS) == subcommands
        for entry in commands:
            # 1 is in range for every command field (DriftCmd needs on=1)
            msg = entry.cls(**{f.name: 1 for f in entry.fields})
            assert codec.decode_sentence(codec.encode_sentence(msg)) == msg
            for other in commands:  # switch in from every other mode
                if other is entry:
                    continue
                obc = OtterObc()
                obc.handle_command(other.cls(**{f.name: 1
                                                for f in other.fields}))
                obc.handle_command(msg)
                assert obc.mode_tag == entry.tag.split(",")[1]

    def test_mode_tag_reported(self):
        obc = OtterObc()
        obc.handle_command(codec.CourseSpeedCmd(10.0, 1.0))
        msgs = run_for(obc, 2.0)
        stats = [m for m in msgs if isinstance(m, codec.StatusReport)]
        assert all(m.mode == "CRS" for m in stats)

    def test_battery_drains_faster_under_load(self):
        idle, loaded = OtterObc(), OtterObc()
        loaded.handle_command(codec.ManualCmd(1.0, 0.0, 0.0))
        run_for(idle, 30.0)
        run_for(loaded, 30.0)
        assert loaded.battery < idle.battery < 100.0

    def test_pos_report_reflects_current_in_sog(self):
        obc = OtterObc(env=EnvDisturbance(0.0, 0.4))
        msgs = run_for(obc, 3.0)
        pos = [m for m in msgs if isinstance(m, codec.PosReport)][-1]
        assert pos.sog == pytest.approx(0.4, abs=0.01)
        assert pos.cog == pytest.approx(90.0, abs=0.5)


class TestHelpers:
    @pytest.mark.parametrize("angle,expected",
                             [(0.0, 0.0), (190.0, -170.0), (-190.0, 170.0),
                              (540.0, 180.0), (360.0, 0.0)])
    def test_wrap_deg180(self, angle, expected):
        assert wrap_deg180(angle) == pytest.approx(expected)

    def test_pd_heading_sign(self):
        # heading east of command -> negative (counterclockwise) torque
        gains = ControlGains()
        state = VesselState(psi=math.radians(30.0), u=1.0)
        x, z, _ = builtin_course_speed(state, 0.0, 1.0, gains, 0.0, SIM_DT)
        assert z < 0.0
