import math

import pytest

from otterlink import codec
from otterlink.obc import (OtterObc, SIM_DT, builtin_course_speed,
                           wrap_deg180)
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
        obc = OtterObc(initial_state=VesselState(psi=2.0 * math.pi - 1e-6))
        obc.utc0 = 86399.896
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
        # from rest, a nonzero thrust command would spin the motors once
        # the 2 s cold-start delay ends
        obc = OtterObc(initial_state=VesselState(north=0.5, east=0.0))
        obc.handle_command(codec.StationKeepCmd(45.0, -76.0, 1.0))
        run_for(obc, 5.0)
        assert obc.motor_port.actual_norm == 0.0
        assert obc.motor_stbd.actual_norm == 0.0

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
        state = VesselState(psi=math.radians(30.0), u=1.0)
        x, z, _ = builtin_course_speed(state, 0.0, 1.0, 0.0)
        assert z < 0.0


# the exact wire lines of a scripted run: a manual command for 1 s, then
# course and speed for 1 s, from a moving start off the origin
PINNED_WIRE = (
    '$POTPOS,43200.10,45.0000274,-76.0000246,0.00,0.78,57.30*11\r\n',
    '$POTATT,43200.10,0.00,0.00,57.31,0.00,0.00,0.31*0E\r\n',
    '$POTPOS,43200.20,45.0000277,-76.0000238,0.00,0.78,57.32*1A\r\n',
    '$POTATT,43200.20,0.00,0.00,57.37,0.00,0.00,1.02*0A\r\n',
    '$POTPOS,43200.30,45.0000281,-76.0000229,0.00,0.80,57.39*1E\r\n',
    '$POTATT,43200.30,0.00,0.00,57.52,0.00,0.00,1.99*0A\r\n',
    '$POTPOS,43200.40,45.0000285,-76.0000221,0.00,0.82,57.50*18\r\n',
    '$POTATT,43200.40,0.00,0.00,57.78,0.00,0.00,3.12*04\r\n',
    '$POTPOS,43200.50,45.0000289,-76.0000211,0.00,0.86,57.68*19\r\n',
    '$POTATT,43200.50,0.00,0.00,58.15,0.00,0.00,4.34*02\r\n',
    '$POTPOS,43200.60,45.0000293,-76.0000202,0.00,0.90,57.94*17\r\n',
    '$POTATT,43200.60,0.00,0.00,58.65,0.00,0.00,5.60*06\r\n',
    '$POTPOS,43200.70,45.0000298,-76.0000192,0.00,0.95,58.28*1A\r\n',
    '$POTATT,43200.70,0.00,0.00,59.27,0.00,0.00,6.87*0A\r\n',
    '$POTPOS,43200.80,45.0000302,-76.0000181,0.00,1.00,58.72*17\r\n',
    '$POTATT,43200.80,0.00,0.00,60.02,0.00,0.00,8.12*0A\r\n',
    '$POTPOS,43200.90,45.0000307,-76.0000170,0.00,1.05,59.25*1B\r\n',
    '$POTATT,43200.90,0.00,0.00,60.89,0.00,0.00,9.34*0D\r\n',
    '$POTPOS,43201.00,45.0000312,-76.0000158,0.00,1.10,59.87*11\r\n',
    '$POTATT,43201.00,0.00,0.00,61.89,0.00,0.00,10.54*3A\r\n',
    '$POTSTA,MAN,761,380,22.5,100.0,483.8*59\r\n',
    '$POTTIM,20250101,43201.00*04\r\n',
    '$POTPOS,43201.10,45.0000317,-76.0000146,0.00,1.15,60.57*18\r\n',
    '$POTATT,43201.10,0.00,0.00,62.99,0.00,0.00,11.60*3F\r\n',
    '$POTPOS,43201.20,45.0000322,-76.0000133,0.00,1.17,61.32*1F\r\n',
    '$POTATT,43201.20,0.00,0.00,64.20,0.00,0.00,12.46*3F\r\n',
    '$POTPOS,43201.30,45.0000327,-76.0000120,0.00,1.18,62.12*17\r\n',
    '$POTATT,43201.30,0.00,0.00,65.48,0.00,0.00,13.13*30\r\n',
    '$POTPOS,43201.40,45.0000332,-76.0000107,0.00,1.18,62.96*1D\r\n',
    '$POTATT,43201.40,0.00,0.00,66.82,0.00,0.00,13.65*33\r\n',
    '$POTPOS,43201.50,45.0000337,-76.0000093,0.00,1.17,63.84*18\r\n',
    '$POTATT,43201.50,0.00,0.00,68.20,0.00,0.00,14.00*30\r\n',
    '$POTPOS,43201.60,45.0000341,-76.0000080,0.00,1.15,64.76*10\r\n',
    '$POTATT,43201.60,0.00,0.00,69.61,0.00,0.00,14.21*34\r\n',
    '$POTPOS,43201.70,45.0000346,-76.0000067,0.00,1.13,65.71*1F\r\n',
    '$POTATT,43201.70,0.00,0.00,71.04,0.00,0.00,14.29*37\r\n',
    '$POTPOS,43201.80,45.0000350,-76.0000054,0.00,1.11,66.69*1F\r\n',
    '$POTATT,43201.80,0.00,0.00,72.47,0.00,0.00,14.24*31\r\n',
    '$POTPOS,43201.90,45.0000354,-76.0000041,0.00,1.08,67.70*1F\r\n',
    '$POTATT,43201.90,0.00,0.00,73.88,0.00,0.00,14.07*33\r\n',
    '$POTPOS,43202.00,45.0000357,-76.0000028,0.00,1.06,68.74*1C\r\n',
    '$POTATT,43202.00,0.00,0.00,75.28,0.00,0.00,13.80*3D\r\n',
    '$POTSTA,CRS,237,85,22.5,100.0,161.8*60\r\n',
    '$POTTIM,20250101,43202.00*07\r\n',
)


# station keeping for 2 s from a moving start 10 m from the target, its
# speed set by the distance gain below the 2.5 m/s cap
PINNED_SK_WIRE = (
    '$POTPOS,43200.10,45.0000723,-76.0000755,0.00,0.78,57.30*11\r\n',
    '$POTATT,43200.10,0.00,0.00,57.31,0.00,0.00,0.47*0F\r\n',
    '$POTPOS,43200.20,45.0000727,-76.0000746,0.00,0.79,57.34*11\r\n',
    '$POTATT,43200.20,0.00,0.00,57.41,0.00,0.00,1.53*0F\r\n',
    '$POTPOS,43200.30,45.0000731,-76.0000738,0.00,0.81,57.43*19\r\n',
    '$POTATT,43200.30,0.00,0.00,57.63,0.00,0.00,2.98*0A\r\n',
    '$POTPOS,43200.40,45.0000735,-76.0000729,0.00,0.85,57.60*1F\r\n',
    '$POTATT,43200.40,0.00,0.00,58.01,0.00,0.00,4.65*02\r\n',
    '$POTPOS,43200.50,45.0000739,-76.0000719,0.00,0.89,57.88*1B\r\n',
    '$POTATT,43200.50,0.00,0.00,58.57,0.00,0.00,6.45*00\r\n',
    '$POTPOS,43200.60,45.0000744,-76.0000710,0.00,0.95,58.27*1C\r\n',
    '$POTATT,43200.60,0.00,0.00,59.30,0.00,0.00,8.27*09\r\n',
    '$POTPOS,43200.70,45.0000748,-76.0000699,0.00,1.01,58.79*16\r\n',
    '$POTATT,43200.70,0.00,0.00,60.22,0.00,0.00,10.08*35\r\n',
    '$POTPOS,43200.80,45.0000753,-76.0000688,0.00,1.07,59.44*1A\r\n',
    '$POTATT,43200.80,0.00,0.00,61.32,0.00,0.00,11.83*38\r\n',
    '$POTPOS,43200.90,45.0000758,-76.0000675,0.00,1.14,60.23*1B\r\n',
    '$POTATT,43200.90,0.00,0.00,62.59,0.00,0.00,13.52*39\r\n',
    '$POTPOS,43201.00,45.0000763,-76.0000662,0.00,1.21,61.15*1F\r\n',
    '$POTATT,43201.00,0.00,0.00,64.02,0.00,0.00,15.14*3D\r\n',
    '$POTSTA,SK,951,433,22.5,100.0,579.2*0F\r\n',
    '$POTTIM,20250101,43201.00*04\r\n',
    '$POTPOS,43201.10,45.0000768,-76.0000648,0.00,1.28,62.20*11\r\n',
    '$POTATT,43201.10,0.00,0.00,65.61,0.00,0.00,16.69*31\r\n',
    '$POTPOS,43201.20,45.0000774,-76.0000634,0.00,1.34,63.38*11\r\n',
    '$POTATT,43201.20,0.00,0.00,67.36,0.00,0.00,18.19*3B\r\n',
    '$POTPOS,43201.30,45.0000779,-76.0000618,0.00,1.41,64.69*12\r\n',
    '$POTATT,43201.30,0.00,0.00,69.25,0.00,0.00,19.65*3C\r\n',
    '$POTPOS,43201.40,45.0000785,-76.0000601,0.00,1.47,66.12*16\r\n',
    '$POTATT,43201.40,0.00,0.00,71.29,0.00,0.00,21.12*35\r\n',
    '$POTPOS,43201.50,45.0000790,-76.0000584,0.00,1.53,67.68*14\r\n',
    '$POTATT,43201.50,0.00,0.00,73.47,0.00,0.00,22.68*30\r\n',
    '$POTPOS,43201.60,45.0000795,-76.0000565,0.00,1.59,69.37*13\r\n',
    '$POTATT,43201.60,0.00,0.00,75.83,0.00,0.00,24.35*33\r\n',
    '$POTPOS,43201.70,45.0000800,-76.0000546,0.00,1.64,71.18*1A\r\n',
    '$POTATT,43201.70,0.00,0.00,78.35,0.00,0.00,26.17*30\r\n',
    '$POTPOS,43201.80,45.0000805,-76.0000526,0.00,1.68,73.13*13\r\n',
    '$POTATT,43201.80,0.00,0.00,81.07,0.00,0.00,28.16*37\r\n',
    '$POTPOS,43201.90,45.0000809,-76.0000505,0.00,1.72,75.23*11\r\n',
    '$POTATT,43201.90,0.00,0.00,83.99,0.00,0.00,30.30*3E\r\n',
    '$POTPOS,43202.00,45.0000812,-76.0000483,0.00,1.76,77.49*14\r\n',
    '$POTATT,43202.00,0.00,0.00,87.13,0.00,0.00,32.59*3F\r\n',
    '$POTSTA,SK,1080,477,22.5,100.0,647.1*36\r\n',
    '$POTTIM,20250101,43202.00*07\r\n',
)


class TestWire:
    def test_scripted_run_emits_the_pinned_lines(self):
        obc = OtterObc(initial_state=VesselState(north=3.0, east=-2.0,
                                                 psi=1.0, u=0.8))
        obc.handle_command(codec.ManualCmd(0.6, 0.0, 0.2))
        lines = obc.tick(1.0)
        obc.handle_command(codec.CourseSpeedCmd(90.0, 1.2))
        lines += obc.tick(2.0)
        assert tuple(lines) == PINNED_WIRE

    def test_station_keeping_emits_the_pinned_lines(self):
        obc = OtterObc(initial_state=VesselState(north=8.0, east=-6.0,
                                                 psi=1.0, u=0.8))
        obc.handle_command(codec.StationKeepCmd(45.0, -76.0, 2.5))
        assert tuple(obc.tick(2.0)) == PINNED_SK_WIRE
