import json

import pytest

from strainforge.config import default_config, load_config
from strainforge.errors import ConfigError


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestDefaults:
    def test_defaults_load_and_validate(self):
        cfg = default_config()
        assert cfg.siv.lambda_so_ghz == 46.0
        assert cfg.thermal.gss_ref_ghz == 554.0
        assert cfg.default_n == 1_000_000
        stack = cfg.stack
        assert stack.film.thickness_nm == 60.0
        assert stack.cross_section.depth_extent_nm == 700.0
        assert stack.cross_section.film_width_nm == 1000.0

    def test_no_path_uses_defaults(self):
        cfg = load_config(None)
        assert cfg.source == "<defaults>"


class TestOverrides:
    def test_partial_override_merges(self, tmp_path):
        path = write_cfg(tmp_path, {"siv": {"lambda_so_ghz": 50.0}})
        cfg = load_config(path)
        assert cfg.siv.lambda_so_ghz == 50.0
        # untouched keys keep defaults
        assert cfg.siv.d_ghz_per_strain == 1.3e6
        assert cfg.default_seed == 20260809

    def test_unknown_top_level_key(self, tmp_path):
        path = write_cfg(tmp_path, {"sivv": {}})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_cfg(tmp_path, {"thermal": {"temp_ref_kelvin": 1.5}})
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write_cfg(tmp_path, {"siv": {"lambda_so_ghz": "46"}})
        with pytest.raises(ConfigError, match="expected a number"):
            load_config(path)

    def test_bool_is_not_a_number(self, tmp_path):
        path = write_cfg(tmp_path, {"monte_carlo": {"n": True}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_value_validation(self, tmp_path):
        path = write_cfg(tmp_path, {"spectra": {"smoothing_window": 4}})
        with pytest.raises(ConfigError, match="odd"):
            load_config(path)

    def test_bad_occupation_model(self, tmp_path):
        path = write_cfg(tmp_path, {"thermal": {"occupation_model": "planck"}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_polygon(self, tmp_path):
        path = write_cfg(
            tmp_path,
            {"mechanics": {"cross_section_polygon_nm": [[0, 0], [1, 0]]}},
        )
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("siv", "lambda_so_ghz", 0, "lambda_so_ghz must be positive"),
        ("mechanics", "film", {"thickness_nm": -1}, "thickness_nm must be positive"),
        ("position", "aperture_x_nm", 0, "aperture dimensions must be positive"),
        ("population", "sigma_unstrained", -1, "sigma must be finite and >= 0"),
        ("thermal", "temp_ref_k", 0,
         "reference splitting and temperature must be positive"),
        ("population", "sample_frame", "defect",
         "unknown key(s) at population: ['sample_frame']"),
        # post ensembles always carry intrinsic strain (sigma 0: film only)
        ("population", "include_intrinsic_post", False,
         "unknown key(s) at population: ['include_intrinsic_post']"),
        # the beam axis is always [110]
        ("mechanics", "beam_axis_crystal_direction", [1, 1, 0],
         "unknown key(s) at mechanics: ['beam_axis_crystal_direction']"),
        ("monte_carlo", "n", 0, "monte_carlo.n must be >= 1"),
        ("spectra", "min_prominence_fraction", 1.5,
         "spectra.min_prominence_fraction must be in (0, 1]"),
    ])
    def test_one_bad_value_per_section(self, tmp_path, section, key, value, message):
        path = write_cfg(tmp_path, {section: {key: value}})
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ('{"monte_carlo": {"n": Infinity}}', "monte_carlo.n: expected a finite number"),
        ('{"monte_carlo": {"n": NaN}}', "monte_carlo.n: expected a finite number"),
        ('{"monte_carlo": {"n": 1000.7}}', "monte_carlo.n: expected an integer"),
        ('{"spectra": {"smoothing_window": 5.9}}',
         "spectra.smoothing_window: expected an integer"),
        ('{"mechanics": {"film": {"thickness_nm": Infinity}}}',
         "mechanics.film.thickness_nm: expected a finite number"),
        ('{"position": {"aperture_x_nm": Infinity}}',
         "position.aperture_x_nm: expected a finite number"),
        ('{"siv": {"lambda_so_ghz": Infinity}}', "siv.lambda_so_ghz: expected a finite number"),
        ('{"siv": {"lambda_so_ghz": 1%s}}' % ("0" * 400),
         "siv.lambda_so_ghz: expected a finite number"),
    ])
    def test_non_finite_or_fractional_number(self, tmp_path, text, message):
        # json reads Infinity and NaN, and ints beyond the float range; an
        # int key takes no fraction
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message

    def test_integral_float_loads_at_int_key(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"monte_carlo": {"n": 1e6},
                                               "spectra": {"smoothing_window": 7.0}}))
        assert cfg.default_n == 1_000_000 and type(cfg.default_n) is int
        assert cfg.smoothing_window == 7 and type(cfg.smoothing_window) is int

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.json")


class TestEnvFallback:
    def test_env_var_used_when_no_path(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, {"siv": {"lambda_so_ghz": 47.5}})
        monkeypatch.setenv("STRAINFORGE_CONFIG", str(path))
        cfg = load_config(None)
        assert cfg.siv.lambda_so_ghz == 47.5

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        env_path = write_cfg(tmp_path, {"siv": {"lambda_so_ghz": 47.5}}, "env.json")
        arg_path = write_cfg(tmp_path, {"siv": {"lambda_so_ghz": 48.5}}, "arg.json")
        monkeypatch.setenv("STRAINFORGE_CONFIG", str(env_path))
        cfg = load_config(arg_path)
        assert cfg.siv.lambda_so_ghz == 48.5
