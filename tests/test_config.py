import pytest

from otterlink.config import ConfigFileError, load_config


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

    def test_time_budget_none(self, tmp_path):
        cfg = load_config(write(tmp_path, "[nmpc]\ntime_budget_s = none\n"))
        assert cfg.nmpc.time_budget_s is None
        cfg = load_config(write(tmp_path, "[nmpc]\ntime_budget_s = 0.05\n"))
        assert cfg.nmpc.time_budget_s == 0.05


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

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigFileError, match="bad value"):
            load_config(write(tmp_path, "[transport]\nrate_hz = fast\n"))

    def test_invalid_vessel_params_surface_as_config_error(self, tmp_path):
        with pytest.raises(ConfigFileError, match="calibration"):
            load_config(write(tmp_path, "[vessel]\nd1u = 10\n"))
