import json
from dataclasses import replace
from importlib import resources

import pytest

import strainforge.spectra as spectra
from strainforge.config import default_config, load_config
from strainforge.core import SivParameters
from strainforge.errors import ConfigError
from strainforge.mechanics import DEFAULT_BIAXIALITY_FACTOR
from strainforge.population import PositionDistribution
from strainforge.thermal import ThermalReference

SHIPPED = resources.files("strainforge.data").joinpath("default_config.json")


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
        assert stack.film_thickness_nm == 60.0
        assert stack.cross_section.depth_extent_nm == 700.0
        assert stack.cross_section.film_width_nm == 1000.0

    def test_no_path_uses_defaults(self):
        cfg = load_config(None)
        assert cfg.source == "<defaults>"

    def test_shipped_file_loads_as_a_user_file(self):
        # the only load that validates the string leaves of "notes"
        cfg = load_config(str(SHIPPED))
        assert cfg.source == str(SHIPPED)
        assert repr(replace(cfg, source="<defaults>")) == repr(default_config())

    def test_tree_json_loads_as_the_same_config(self, tmp_path):
        # the merged tree, overrides and notes in it, is itself a config file
        cfg = load_config(write_cfg(tmp_path, {"siv": {"lambda_so_ghz": 50.0},
                                               "notes": {"population": "a user's note"}}))
        tree = json.loads(cfg.tree_json)
        assert tree["siv"]["lambda_so_ghz"] == 50.0
        assert tree["notes"]["population"] == "a user's note"
        again = load_config(write_cfg(tmp_path, tree, name="tree.json"))
        assert again.tree_json == cfg.tree_json
        assert repr(replace(again, source=cfg.source)) == repr(cfg)

    def test_shipped_defaults_match_the_code_defaults(self):
        # each default is written in the JSON file and in the code; the
        # library's value types and perfbench's oracle use the code copy
        cfg = default_config()
        assert cfg.siv == SivParameters()
        assert cfg.thermal == ThermalReference()
        assert cfg.position == PositionDistribution()
        assert cfg.stack.biaxiality_factor == DEFAULT_BIAXIALITY_FACTOR
        assert cfg.smoothing_window == spectra.DEFAULT_SMOOTHING_WINDOW
        assert cfg.min_prominence == spectra.DEFAULT_MIN_PROMINENCE


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

    def test_bad_polygon(self, tmp_path):
        path = write_cfg(
            tmp_path,
            {"mechanics": {"cross_section_polygon_nm": [[0, 0], [1, 0]]}},
        )
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("section, key, value, message", [
        ("siv", "lambda_so_ghz", 0, "lambda_so_ghz must be positive"),
        ("mechanics", "film", {"thickness_nm": -1},
         "film_thickness_nm must be positive and finite"),
        ("position", "aperture_x_nm", 0, "aperture dimensions must be positive"),
        ("population", "sigma_unstrained", -1, "population.sigma_unstrained must be >= 0"),
        ("thermal", "temp_ref_k", 0,
         "reference splitting and temperature must be positive"),
        # the upward rate always uses the Bose-Einstein occupation
        ("thermal", "occupation_model", "boltzmann",
         "unknown key(s) at thermal: ['occupation_model']"),
        ("population", "sample_frame", "defect",
         "unknown key(s) at population: ['sample_frame']"),
        # post ensembles always carry intrinsic strain (sigma 0: film only)
        ("population", "include_intrinsic_post", False,
         "unknown key(s) at population: ['include_intrinsic_post']"),
        # the beam axis is always [110]
        ("mechanics", "beam_axis_crystal_direction", [1, 1, 0],
         "unknown key(s) at mechanics: ['beam_axis_crystal_direction']"),
        ("monte_carlo", "n", 0, "monte_carlo.n must be >= 1"),
        # seeds are read mod 2**64: -1 would alias 2**64 - 1
        ("monte_carlo", "seed", -3, "monte_carlo.seed must be in [0, 2**64)"),
        ("monte_carlo", "seed", 2 ** 64, "monte_carlo.seed must be in [0, 2**64)"),
        ("spectra", "min_prominence_fraction", 1.5,
         "spectra.min_prominence_fraction must be in (0, 1]"),
        # strings and booleans are not coordinates, as they are not scalars
        ("mechanics", "cross_section_polygon_nm", [["-500", False], [0.0, "-7e2"], [500.0, 0]],
         "mechanics.cross_section_polygon_nm: expected a number"),
        ("mechanics", "biaxiality_factor", -0.5, "biaxiality_factor must lie in [0, 1]"),
        ("mechanics", "cross_section_polygon_nm", 5,
         "mechanics.cross_section_polygon_nm: expected a list"),
        ("notes", "siv", 1, "notes.siv: expected a string"),
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

    def test_polygon_int_beyond_the_float_range(self, tmp_path):
        # numpy cannot convert it to a float; the key names the polygon
        path = tmp_path / "cfg.json"
        path.write_text('{"mechanics": {"cross_section_polygon_nm": '
                        '[[-500, 0], [500, 0], [0, -1%s]]}}' % ("0" * 400))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == (
            "mechanics.cross_section_polygon_nm: int too large to convert to float")

    def test_largest_seed_loads(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"monte_carlo": {"seed": 2 ** 64 - 1}}))
        assert cfg.default_seed == 2 ** 64 - 1

    def test_integral_float_loads_at_int_key(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, {"monte_carlo": {"n": 1e6},
                                               "spectra": {"smoothing_window": 7.0}}))
        assert cfg.default_n == 1_000_000 and type(cfg.default_n) is int
        assert cfg.smoothing_window == 7 and type(cfg.smoothing_window) is int

    @pytest.mark.parametrize("payload, message", [
        ({"siv": 3}, "siv: expected an object"),
        ([1, 2], "config root must be a JSON object"),
    ], ids=["section-not-object", "root-not-object"])
    def test_not_an_object_rejected(self, tmp_path, payload, message):
        with pytest.raises(ConfigError) as info:
            load_config(write_cfg(tmp_path, payload))
        assert str(info.value) == message

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


def _leaves(node, path=()):
    """(path, value) of every schema leaf under ``node``; lists are leaves."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def _other_valid(value):
    if isinstance(value, list):  # polygon vertices
        return [[1.1 * c for c in vertex] for vertex in value]
    if isinstance(value, int):  # + 2 keeps smoothing_window odd
        return value + 2
    return 1.25 * value


SCHEMA = json.loads(SHIPPED.read_text())
LEAVES = list(_leaves({k: v for k, v in SCHEMA.items() if k != "notes"}))


@pytest.mark.parametrize("path, value", LEAVES, ids=[".".join(p) for p, _ in LEAVES])
def test_every_key_has_a_reader(tmp_path, path, value):
    # a schema key that no object reads would leave the built Config unchanged
    override = _other_valid(value)
    for key in reversed(path):
        override = {key: override}
    base = load_config(write_cfg(tmp_path, {}))
    cfg = load_config(write_cfg(tmp_path, override))
    assert repr(cfg) != repr(base)
