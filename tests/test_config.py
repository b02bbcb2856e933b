from dataclasses import fields, is_dataclass

import pytest

from otterlink.config import ConfigFileError, RunConfig, load_config


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_no_file_returns_defaults(self):
        cfg = load_config(None)
        assert cfg.transport.rate_hz == 10.0
        assert cfg.transport.telemetry_endpoint.port == 10010
        assert cfg.nmpc.steps_N == 20
        assert cfg.nmpc.horizon_T == 4.0
        assert cfg.bench.amplitude == 20.0
        assert cfg.vessel.params.F_max == 120.0

    def test_empty_sections_keep_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, "[transport]\n[nmpc]\n"))
        assert cfg.transport.rate_hz == 10.0
        assert cfg.nmpc.w_ct == 10.0

    def test_every_key_written_at_its_default(self, tmp_path):
        text = "".join(f"[{name}]\n" + "".join(
            f"{key} = {value}\n" for key, value in section_items(section))
            for name, section in sections(RunConfig()))
        assert load_config(write(tmp_path, text)) == RunConfig()


def sections(cfg):
    return [(f.name, getattr(cfg, f.name)) for f in fields(cfg)]


def section_items(section):
    """(key, value) of a section: field names lowercased, the fields of a
    nested dataclass flattened in."""
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            yield from section_items(value)
        else:
            yield f.name.lower(), value


class TestSchema:
    @pytest.mark.parametrize("name, size", [
        ("transport", 5), ("vessel", 15), ("nmpc", 10), ("los", 3),
        ("bench", 5)])
    def test_keys_are_the_lowercased_field_names(self, tmp_path, name, size):
        section = getattr(RunConfig(), name)
        assert len(dict(section_items(section))) == size  # 38 in all
        for key, value in section_items(section):
            cfg = load_config(write(tmp_path, f"[{name}]\n{key} = {value}\n"))
            assert cfg == RunConfig()
        for f in fields(section):  # a field's own spelling is the same key
            if not is_dataclass(getattr(section, f.name)):
                text = f"[{name}]\n{f.name} = {getattr(section, f.name)}\n"
                assert load_config(write(tmp_path, text)) == RunConfig()

    def test_nested_params_field_is_not_a_key(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown key 'params'"):
            load_config(write(tmp_path, "[vessel]\nparams = 1\n"))


class TestParsing:
    def test_values_applied(self, tmp_path):
        cfg = load_config(write(tmp_path, """
[transport]
telem_port = 12000
rate_hz = 5

[vessel]
current_north = 0.3

[nmpc]
steps_n = 10
horizon_t = 2.0

[los]
lookahead = 12

[bench]
amplitude = 15
target_laps = 2
"""))
        assert cfg.transport.telemetry_endpoint.port == 12000
        assert cfg.transport.rate_hz == 5.0
        assert cfg.vessel.env.current_north == 0.3
        assert cfg.nmpc.steps_N == 10
        assert cfg.nmpc.dt == pytest.approx(0.2)
        assert cfg.los.lookahead == 12.0
        assert cfg.bench.amplitude == 15.0
        assert cfg.bench.target_laps == 2.0

    def test_vessel_params_keys(self, tmp_path):
        cfg = load_config(write(tmp_path, "[vessel]\nm11 = 130\n"
                                          "motor_tau = 0.25\n"))
        assert cfg.vessel.params.m11 == 130.0
        assert cfg.vessel.params.motor_tau == 0.25

    def test_damping_key_alone_loads(self, tmp_path):
        # a hull with other surge damping needs no second key
        cfg = load_config(write(tmp_path, "[vessel]\nd1u = 10\n"))
        assert cfg.vessel.params.d1u == 10.0


class TestRejection:
    def test_missing_file(self):
        with pytest.raises(ConfigFileError):
            load_config("/nonexistent/otter.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown config section"):
            load_config(write(tmp_path, "[telemetry]\nrate = 5\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown key"):
            load_config(write(tmp_path, "[transport]\nrate = 5\n"))

    @pytest.mark.parametrize("key", ["seed", "speed", "slop"])
    def test_bench_keys_nothing_reads_are_unknown(self, tmp_path, key):
        with pytest.raises(ConfigFileError, match="unknown key"):
            load_config(write(tmp_path, f"[bench]\n{key} = 3\n"))

    def test_top_speed_is_unknown(self, tmp_path):
        # nothing read v_max but a check that it agreed with the damping
        with pytest.raises(ConfigFileError, match="unknown key 'v_max'"):
            load_config(write(tmp_path, "[vessel]\nv_max = 3\n"))

    @pytest.mark.parametrize("raw", ["0.09", "none"])
    def test_time_budget_is_unknown(self, tmp_path, raw):
        # the solver's budget comes from the live loop's slot deadline
        with pytest.raises(ConfigFileError,
                           match="unknown key 'time_budget_s' in section"):
            load_config(write(tmp_path, f"[nmpc]\ntime_budget_s = {raw}\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigFileError, match="bad value"):
            load_config(write(tmp_path, "[transport]\nrate_hz = fast\n"))

    @pytest.mark.parametrize("section, key, raw", [
        ("nmpc", "grad_tol", "fast"), ("nmpc", "steps_n", "2.5"),
        ("vessel", "m11", "heavy")])
    def test_bad_value_names_the_key(self, tmp_path, section, key, raw):
        with pytest.raises(ConfigFileError,
                           match=f"bad value for {key}: '{raw}'"):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nrate_hz = 5\n",
        "[DEFAULT]\nrate_hz = 5\n[transport]\n",
        "[transport]\n[DEFAULT]\n"])
    def test_default_section_is_unknown(self, tmp_path, text):
        with pytest.raises(ConfigFileError,
                           match=r"unknown config section \[DEFAULT\]"):
            load_config(write(tmp_path, text))

    def test_unknown_names_checked_before_values(self, tmp_path):
        with pytest.raises(ConfigFileError, match="unknown key 'foo'"):
            load_config(write(tmp_path, "[transport]\nrate_hz = fast\n"
                                        "[bench]\nfoo = 1\n"))

    @pytest.mark.parametrize("section, key, raw, match", [
        ("nmpc", "steps_n", "1", "steps_N >= 2"),
        ("nmpc", "w_ct", "-1", "weight w_ct"),
        ("los", "lookahead", "0", "must be positive"),
        ("vessel", "m33", "0", "m33 must be positive"),
        # non-finite and out-of-range values that used to load
        ("los", "lookahead", "inf", "lookahead"),
        ("los", "accept_radius", "nan", "accept_radius"),
        ("los", "speed", "3.001", "speed"),
        ("vessel", "origin_lat", "-90", "origin_lat"),
        ("vessel", "origin_lon", "-180.5", "origin_lon"),
        ("vessel", "origin_lon", "nan", "origin_lon"),
        ("vessel", "current_east", "-inf", "current_east"),
        ("vessel", "lever", "inf", "VesselParams.lever"),
        # rounds to no 20 ms physics step: a mission that flies nothing
        ("bench", "duration", "0.009", "duration"),
        ("bench", "duration", "0.01", "duration")])
    def test_post_init_errors_surface_as_config_error(self, tmp_path, section,
                                                      key, raw, match):
        with pytest.raises(ConfigFileError, match=match):
            load_config(write(tmp_path, f"[{section}]\n{key} = {raw}\n"))

    def test_range_edges_load(self, tmp_path):
        # the wire's speed ceiling and the antimeridian itself are valid
        cfg = load_config(write(tmp_path, "[los]\nspeed = 3.0\n"
                                          "[vessel]\norigin_lon = 180\n"
                                          "origin_lat = -89.5\n"))
        assert cfg.los.speed == 3.0 and cfg.vessel.origin_lon == 180.0
        cfg = load_config(write(tmp_path, "[los]\nspeed = 0\n"
                                          "[vessel]\norigin_lon = -180\n"))
        assert cfg.los.speed == 0.0 and cfg.vessel.origin_lon == -180.0

    def test_invalid_vessel_params_surface_as_config_error(self, tmp_path):
        with pytest.raises(ConfigFileError, match="d1u"):
            load_config(write(tmp_path, "[vessel]\nd1u = 0\n"))

    @pytest.mark.parametrize("text, match", [
        ("[transport]\ntelem_host = a%b\n", "must be followed by"),
        ("[transport]\ntelem_host = a%(nope)s\n", "interpolation key 'nope'"),
        ("rate_hz = 5\n", "no section headers"),
        ("[transport]\nrate_hz = 5\nrate_hz = 6\n", "already exists"),
        ("[bench]\nduration = 1\n[bench]\nduration = 2\n", "already exists")])
    def test_parser_errors_surface_as_config_error(self, tmp_path, text,
                                                   match):
        with pytest.raises(ConfigFileError, match=f"bad config file .*{match}"):
            load_config(write(tmp_path, text))

    def test_escaped_percent_still_loads(self, tmp_path):
        cfg = load_config(write(tmp_path, "[transport]\ntelem_host = a%%b\n"
                                          "cmd_host = %(telem_host)s.c\n"))
        assert cfg.transport.telem_host == "a%b"
        assert cfg.transport.cmd_host == "a%b.c"
