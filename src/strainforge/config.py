"""JSON configuration: schema validation and the typed objects it builds.

The shipped ``data/default_config.json`` is both the default configuration
and the schema reference; user files may override any subset of keys but
unknown keys are rejected outright. All units are explicit in key names.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .core import SivParameters
from .errors import ConfigError, InvalidGeometry, StrainforgeError
from .mechanics import CrossSection, Layer, LayerStack
from .population import PositionDistribution
from .thermal import ThermalReference

__all__ = ["Config", "load_config", "default_config"]

ENV_CONFIG_PATH = "STRAINFORGE_CONFIG"


def _load_defaults() -> dict:
    with resources.files("strainforge.data").joinpath("default_config.json").open() as fh:
        return json.load(fh)


_DEFAULTS = _load_defaults()


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate(user: dict, defaults: dict, path: str = "") -> dict:
    """Merge user values over defaults, rejecting unknown keys and type
    mismatches (bools are not numbers; ints pass where floats are
    expected; numbers must be finite, and integral where the default is
    an int)."""
    merged = {}
    for key, default_value in defaults.items():
        where = f"{path}.{key}" if path else key
        if key not in user:
            merged[key] = default_value
            continue
        value = user[key]
        if isinstance(default_value, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            merged[key] = _validate(value, default_value, where)
        elif isinstance(default_value, (int, float)):
            if not _is_number(value):
                raise ConfigError(f"{where}: expected a number")
            if isinstance(value, float):  # json reads Infinity and NaN
                if not math.isfinite(value):
                    raise ConfigError(f"{where}: expected a finite number")
                if isinstance(default_value, int) and not value.is_integer():
                    raise ConfigError(f"{where}: expected an integer")
            try:
                merged[key] = type(default_value)(value)
            except OverflowError:  # an int beyond the float range
                raise ConfigError(f"{where}: expected a finite number") from None
        elif isinstance(default_value, str):
            if not isinstance(value, str):
                raise ConfigError(f"{where}: expected a string")
            merged[key] = value
        elif isinstance(default_value, list):
            if not isinstance(value, list):
                raise ConfigError(f"{where}: expected a list")
            merged[key] = value
        else:  # pragma: no cover - schema only holds the types above
            raise ConfigError(f"{where}: unsupported schema type")
    unknown = set(user) - set(defaults)
    if unknown:
        where = path or "top level"
        raise ConfigError(f"unknown key(s) at {where}: {sorted(unknown)}")
    return merged


@dataclass(frozen=True)
class Config:
    """Validated configuration: the typed objects each module takes, built
    once when the file is loaded, and ``tree_json``, the merged tree they
    were built from, as canonical JSON."""

    siv: SivParameters
    stack: LayerStack
    position: PositionDistribution
    sigma_unstrained: float
    film_stress_mpa: float
    thermal: ThermalReference
    smoothing_window: int
    min_prominence: float
    default_n: int
    default_seed: int
    source: str
    tree_json: str = field(repr=False)


def _layer_stack(mech: dict) -> LayerStack:
    key = "mechanics.cross_section_polygon_nm"
    vertices = mech["cross_section_polygon_nm"]
    if not all(_is_number(c) for v in vertices for c in (v if isinstance(v, list) else [v])):
        raise ConfigError(f"{key}: expected a number")
    # np.asarray: ValueError for a ragged list, OverflowError for an int past the float range
    try:
        cs = CrossSection(np.asarray(vertices, dtype=float))
    except (ValueError, OverflowError, InvalidGeometry) as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    film = mech["film"]
    return LayerStack(
        substrate=Layer(**mech["substrate"]),
        cross_section=cs,
        film=Layer(film["youngs_modulus_gpa"], film["poisson_ratio"]),
        film_thickness_nm=film["thickness_nm"],
        biaxiality_factor=mech["biaxiality_factor"],
    )


def _build(data: dict, source: str) -> Config:
    """Construct the typed objects from merged ``_validate`` output, in
    section order, then check the plain values."""
    try:
        cfg = Config(
            siv=SivParameters(**data["siv"]),
            stack=_layer_stack(data["mechanics"]),
            position=PositionDistribution(**data["position"]),
            sigma_unstrained=data["population"]["sigma_unstrained"],
            film_stress_mpa=data["mechanics"]["film"]["intrinsic_stress_mpa"],
            thermal=ThermalReference(**data["thermal"]),
            smoothing_window=data["spectra"]["smoothing_window"],
            min_prominence=data["spectra"]["min_prominence_fraction"],
            default_n=data["monte_carlo"]["n"],
            default_seed=data["monte_carlo"]["seed"],
            source=source,
            tree_json=json.dumps(data, sort_keys=True),
        )
    except ConfigError:
        raise
    except StrainforgeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.sigma_unstrained < 0:
        raise ConfigError("population.sigma_unstrained must be >= 0")
    if cfg.default_n < 1:
        raise ConfigError("monte_carlo.n must be >= 1")
    if not 0 <= cfg.default_seed < 2 ** 64:
        raise ConfigError("monte_carlo.seed must be in [0, 2**64)")
    if cfg.smoothing_window < 1 or cfg.smoothing_window % 2 == 0:
        raise ConfigError("spectra.smoothing_window must be a positive odd integer")
    if not 0 < cfg.min_prominence <= 1:
        raise ConfigError("spectra.min_prominence_fraction must be in (0, 1]")
    return cfg


def default_config() -> Config:
    return _build(_validate({}, _DEFAULTS), "<defaults>")


def load_config(path: str | Path | None = None) -> Config:
    """Load and validate a config file.

    With no explicit path, the STRAINFORGE_CONFIG environment variable is
    consulted; failing that, built-in defaults are used.
    """
    if path is None:
        path = os.environ.get(ENV_CONFIG_PATH) or None
    if path is None:
        return default_config()
    path = Path(path)
    try:
        user = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _build(_validate(user, _DEFAULTS), str(path))
