"""The public namespace: every exported name resolves and has a user, and
every public call reports a bad value as a StrainforgeError.

perfbench's tracer looks up each module's ``__all__`` with getattr, so a
name left behind by a deletion would break every traced run.
"""

import ast
import dataclasses
import importlib
import io
import math
import pkgutil
import re
import typing
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import strainforge as sf
from strainforge.errors import StrainforgeError
from strainforge.thermal import operational_temperature_batch

MODULES = sorted(
    f"strainforge.{info.name}" for info in pkgutil.iter_modules(sf.__path__)
)


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_resolve_and_are_public():
    # each name the package re-exports exists in, and is exported by, its module
    tree = ast.parse(Path(sf.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"strainforge.{node.module}")
        for alias in node.names:
            assert hasattr(sf, alias.asname or alias.name)
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"


def _relative_imports(path):
    """(module, name) of each ``from .module import name`` in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                yield node.module, alias.name


SOURCES = sorted(Path(sf.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_modules_import_only_public_names(path):
    # a name taken from a sibling is in its __all__, or public if it has none;
    # ``from . import module`` is a module import and always allowed
    private = []
    for modname, name in _relative_imports(path):
        mod = importlib.import_module(f"strainforge.{modname}")
        exported = getattr(mod, "__all__", None)
        public = name in exported if exported is not None else not name.startswith("_")
        if not public:
            private.append(f"{modname}.{name}")
    assert private == []


ROOT = Path(__file__).resolve().parents[1]


def _names_used(path):
    """Identifiers a module reads: names, attributes and imported names."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def _script_targets():
    """(module, name) of each ``[project.scripts]`` entry in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r'=\s*"strainforge\.(\w+):(\w+)"', section.group(1)))


def _readme_library_api():
    """Every identifier inside backticks in README's "Library API" section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Library API\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return {word for code in re.findall(r"`([^`]+)`", section.group(1) if section else "")
            for word in re.findall(r"\w+", code)}


def test_every_exported_name_has_a_user():
    # a name in __all__ is used by another module of the package (the
    # package's own re-exports do not count), is a console script, or is
    # listed with its reason in README's Library API section
    used_by = {path.stem: _names_used(path) for path in SOURCES}
    scripts = _script_targets()
    documented = _readme_library_api()
    idle = []
    for modname in MODULES:
        short = modname.rsplit(".", 1)[1]
        others = set().union(*(u for stem, u in used_by.items()
                               if stem not in (short, "__init__")))
        for name in getattr(importlib.import_module(modname), "__all__", []):
            if name not in others and (short, name) not in scripts \
                    and name not in documented:
                idle.append(f"{short}.{name}")
    assert idle == []


def _dataclasses():
    """Every dataclass defined in a strainforge module."""
    for modname in MODULES:
        for obj in vars(importlib.import_module(modname)).values():
            if dataclasses.is_dataclass(obj) and obj.__module__ == modname:
                yield obj


def test_array_holding_dataclasses_compare_by_identity():
    # a generated __eq__ compares an array field with ==, whose truth value
    # is ambiguous, and drops __hash__: a type with one must say eq=False
    holding = {cls for cls in _dataclasses()
               if any(typing.get_type_hints(cls)[f.name] is np.ndarray
                      for f in dataclasses.fields(cls))}
    assert {cls.__name__ for cls in holding} >= {"CrossSection", "DefectOrientation", "Spectrum"}
    assert sorted(cls.__name__ for cls in holding if cls.__dataclass_params__.eq) == []


CFG = sf.default_config()
INF, NAN = math.inf, math.nan


def test_value_types_hash_and_compare_without_raising():
    # an array-holding type compares and hashes by identity, and a type
    # that holds one field by field
    for value in (CFG, CFG.stack, sf.ORIENTATIONS[0], sf.Spectrum(np.arange(20.0), np.ones(20))):
        assert value == value
        assert isinstance(hash(value), int)


def _tensor(*components, frame=sf.Frame.CRYSTAL):
    return sf.StrainTensor(*components, frame=frame)


def _layer(**kwargs):
    return sf.Layer(**{"youngs_modulus_gpa": 200.0, "poisson_ratio": 0.2, **kwargs})


def _spectrum(freqs=None, intens=None):
    return sf.Spectrum(np.linspace(1.0, 20.0, 20) if freqs is None else freqs,
                       np.ones(20) if intens is None else intens)


def _draw(fn=sf.draw_ensemble, n=8, seed=1, **kwargs):
    return fn(n, CFG.stack, CFG.position, CFG.siv, seed, **kwargs)


_ASYMMETRIC = np.array([[0.0, 1e-4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

# (id, call with one out-of-domain value, a word of the message that names
# the field or its group)
DOMAIN_CASES = [
    # core
    ("StrainTensor-nan", lambda: _tensor(NAN, 0, 0, 0, 0, 0), "strain components"),
    ("StrainTensor-large", lambda: _tensor(0.2, 0, 0, 0, 0, 0), "|eps|"),
    ("StrainTensor.from_matrix-shape",
     lambda: sf.StrainTensor.from_matrix(np.zeros((2, 2)), sf.Frame.CRYSTAL), "3x3"),
    ("StrainTensor.from_matrix-asymmetric",
     lambda: sf.StrainTensor.from_matrix(_ASYMMETRIC, sf.Frame.CRYSTAL), "symmetric"),
    ("StrainTensor.require_frame",
     lambda: sf.StrainTensor.zero().require_frame(sf.Frame.BEAM), "frame"),
    ("SivParameters-lambda-zero", lambda: sf.SivParameters(lambda_so_ghz=0.0), "lambda_so_ghz"),
    ("SivParameters-lambda-inf", lambda: sf.SivParameters(lambda_so_ghz=INF), "lambda_so_ghz"),
    ("SivParameters-d", lambda: sf.SivParameters(d_ghz_per_strain=INF), "d_ghz_per_strain"),
    ("SivParameters-f", lambda: sf.SivParameters(f_ghz_per_strain=NAN), "f_ghz_per_strain"),
    ("EgCouplings-alpha", lambda: sf.EgCouplings(NAN, 0.0), "couplings"),
    ("EgCouplings-beta", lambda: sf.EgCouplings(0.0, INF), "couplings"),
    ("DefectOrientation-zero", lambda: sf.DefectOrientation(np.zeros(3)), "axis"),
    ("DefectOrientation-nan", lambda: sf.DefectOrientation([NAN, 1.0, 1.0]), "axis"),
    ("DefectOrientation-shape", lambda: sf.DefectOrientation([1.0, 1.0]), "axis"),
    ("rotate_strain",
     lambda: sf.rotate_strain(sf.StrainTensor.zero(), 2.0 * np.eye(3), sf.Frame.CRYSTAL),
     "rotation"),
    ("defect_frame_strain",
     lambda: sf.defect_frame_strain(sf.StrainTensor.zero(sf.Frame.BEAM),
                                    sf.ORIENTATIONS[0]), "frame"),
    ("eg_couplings",
     lambda: sf.eg_couplings(sf.StrainTensor.zero(), sf.SivParameters()), "frame"),
    # mechanics
    ("Layer-modulus-negative", lambda: _layer(youngs_modulus_gpa=-5.0), "youngs_modulus_gpa"),
    ("Layer-modulus-inf", lambda: _layer(youngs_modulus_gpa=INF), "youngs_modulus_gpa"),
    ("Layer-poisson", lambda: _layer(poisson_ratio=0.5), "poisson_ratio"),
    ("CrossSection-vertices", lambda: sf.CrossSection([[0, 0], [1, 0]]), "polygon"),
    ("CrossSection-non-finite",
     lambda: sf.CrossSection([[0, 0], [1, 0], [0, INF]]), "polygon"),
    ("CrossSection-clockwise",
     lambda: sf.CrossSection([[0, 0], [0, 1], [1, 1], [1, 0]]), "polygon"),
    ("CrossSection-film-edge",
     lambda: sf.CrossSection([[0, 0], [1, 0], [0.5, 1]]), "film"),
    ("LayerStack-film-thickness-zero",
     lambda: replace(CFG.stack, film_thickness_nm=0.0), "film_thickness_nm"),
    ("LayerStack-film-thickness-inf",
     lambda: replace(CFG.stack, film_thickness_nm=INF), "film_thickness_nm"),
    ("LayerStack-film-thickness-nan",
     lambda: replace(CFG.stack, film_thickness_nm=NAN), "film_thickness_nm"),
    ("LayerStack-biaxiality-negative",
     lambda: replace(CFG.stack, biaxiality_factor=-50.0), "biaxiality_factor"),
    ("LayerStack-biaxiality-nan",
     lambda: replace(CFG.stack, biaxiality_factor=NAN), "biaxiality_factor"),
    ("LayerStack-biaxiality-above-one",
     lambda: replace(CFG.stack, biaxiality_factor=1.5), "biaxiality_factor"),
    ("solve_beam_state-stress", lambda: sf.solve_beam_state(CFG.stack, NAN), "film stress"),
    ("strain_at-depth", lambda: sf.strain_at(sf.solve_beam_state(CFG.stack, 0.0), -1.0), "depth"),
    ("strain_at-small-strain",
     lambda: sf.strain_at(sf.solve_beam_state(CFG.stack, 5e6), 0.0), "|eps|"),
    ("beam_to_crystal", lambda: sf.beam_to_crystal(sf.StrainTensor.zero()), "frame"),
    # population
    ("PositionDistribution-aperture-zero",
     lambda: sf.PositionDistribution(aperture_x_nm=0.0), "aperture"),
    ("PositionDistribution-aperture-x-inf",
     lambda: sf.PositionDistribution(aperture_x_nm=INF), "aperture"),
    ("PositionDistribution-aperture-y-inf",
     lambda: sf.PositionDistribution(aperture_y_nm=INF), "aperture"),
    ("PositionDistribution-depth-mean-zero",
     lambda: sf.PositionDistribution(depth_mean_nm=0.0), "depth_mean_nm"),
    ("PositionDistribution-depth-mean-inf",
     lambda: sf.PositionDistribution(depth_mean_nm=INF), "depth_mean_nm"),
    ("PositionDistribution-straggle-negative",
     lambda: sf.PositionDistribution(depth_straggle_nm=-1.0), "depth_straggle_nm"),
    ("PositionDistribution-straggle-inf",
     lambda: sf.PositionDistribution(depth_straggle_nm=INF), "depth_straggle_nm"),
    ("draw_ensemble-n", lambda: _draw(n=0), "n must"),
    ("draw_ensemble-seed", lambda: _draw(seed=-1), "seed"),
    ("draw_ensemble-n-float", lambda: _draw(n=1000.0), "n must"),
    ("draw_ensemble-seed-float", lambda: _draw(seed=1.7), "seed"),
    ("draw_ensemble-seed-bool", lambda: _draw(seed=True), "seed"),
    ("draw_ensemble-threads", lambda: _draw(threads=0), "threads"),
    ("draw_ensemble-threads-float", lambda: _draw(threads=1.5), "threads must"),
    ("draw_ensemble-threads-bool", lambda: _draw(threads=True), "threads must"),
    ("draw_ensemble-threads-str", lambda: _draw(threads="2"), "threads must"),
    ("sample_chunks-sigma",
     lambda: _draw(sf.sample_chunks, sigma=NAN, stress_mpa=0.0), "sigma"),
    ("sample_chunks-stress",
     lambda: _draw(sf.sample_chunks, sigma=0.0, stress_mpa=INF), "film stress"),
    ("sample_post_deposition-sigma",
     lambda: sf.sample_post_deposition(8, CFG.stack, CFG.position, CFG.siv, 1,
                                       sigma=-1.0, stress_mpa=0.0), "sigma"),
    ("Ensemble.gss-sigma", lambda: _draw().gss(-1e-5, 0.0), "sigma"),
    ("Ensemble.gss-stress", lambda: _draw().gss(0.0, NAN), "film stress"),
    ("calibrate_sigma-target", lambda: sf.calibrate_sigma(NAN, _draw()), "target mean"),
    ("calibrate_film_stress-target",
     lambda: sf.calibrate_film_stress(INF, _draw(), 0.0), "target mean"),
    ("calibrate_film_stress-sigma",
     lambda: sf.calibrate_film_stress(608.0, _draw(), NAN), "sigma"),
    ("summarize", lambda: sf.summarize([]), "empty"),
    # thermal
    ("ThermalReference-gss", lambda: sf.ThermalReference(gss_ref_ghz=0.0), "reference"),
    ("ThermalReference-temp", lambda: sf.ThermalReference(temp_ref_k=INF), "reference"),
    ("thermal_occupation-gss", lambda: sf.thermal_occupation(-1.0, 1.5), "gss"),
    ("thermal_occupation-temp", lambda: sf.thermal_occupation(554.0, 0.0), "temperature"),
    ("gamma_up_relative-gss", lambda: sf.gamma_up_relative(NAN, 1.5), "gss"),
    ("gamma_up_relative-temp", lambda: sf.gamma_up_relative(554.0, -1.0), "temperature"),
    ("operational_temperature", lambda: sf.operational_temperature(NAN), "gss"),
    ("operational_temperature_batch",
     lambda: operational_temperature_batch([554.0, -1.0]), "gss"),
    ("operability_curve-top", lambda: sf.operability_curve([], [1.5]), "empty"),
    ("operability_curve-temps-shape",
     lambda: sf.operability_curve([1.5], [[1.0, 2.0]]), "temps"),
    ("operability_curve-temps-order",
     lambda: sf.operability_curve([1.5], [2.0, 1.0]), "temps"),
    ("operability_curve-temps-nan",
     lambda: sf.operability_curve([1.5, 2.0], [NAN, 1.0]), "temps"),
    ("operability_curve-top-nan",
     lambda: sf.operability_curve([NAN, 1.0], [0.5, 2.0]), "operating temperatures"),
    ("operability_curve-top-2d",
     lambda: sf.operability_curve([[1.0, 2.0], [3.0, 4.0]], [1.5]), "operating temperatures"),
    ("operability_curve-top-scalar",
     lambda: sf.operability_curve(1.0, [1.5]), "operating temperatures"),
    # spectra
    ("Spectrum-shape", lambda: _spectrum(intens=np.ones(19)), "frequencies and intensities"),
    ("Spectrum-points",
     lambda: sf.Spectrum(np.linspace(1.0, 8.0, 8), np.ones(8)), "points"),
    ("Spectrum-non-finite", lambda: _spectrum(intens=np.r_[NAN, np.ones(19)]), "values"),
    ("Spectrum-order", lambda: _spectrum(freqs=np.linspace(20.0, 1.0, 20)), "frequencies"),
    ("Spectrum-intensity", lambda: _spectrum(intens=-np.ones(20)), "intensities"),
    ("Peak-prominence", lambda: sf.Peak(600.0, 1.0, 0.0, 1.0), "prominence"),
    ("load_spectrum-points",
     lambda: sf.load_spectrum(io.StringIO("1,1\n2,1\n")), "points"),
    ("load_spectrum-intensity",
     lambda: sf.load_spectrum(io.StringIO("1,1\n2,-1\n")), "intensity"),
    ("detect_peaks-window", lambda: sf.detect_peaks(_spectrum(), 4), "smoothing_window"),
    ("detect_peaks-prominence",
     lambda: sf.detect_peaks(_spectrum(), 5, 0.0), "min_prominence"),
    ("pool_transitions", lambda: sf.pool_transitions([]), "empty"),
    ("batch_gss_stats-empty", lambda: sf.batch_gss_stats([]), "empty"),
    ("batch_gss_stats-no-single",
     lambda: sf.batch_gss_stats([sf.EmitterAssignment([])]), "single-emitter"),
]


@pytest.mark.parametrize("call, field", [case[1:] for case in DOMAIN_CASES],
                         ids=[case[0] for case in DOMAIN_CASES])
def test_out_of_domain_value_raises_the_package_error(call, field):
    # one contract for every public type and function: a bad value is a
    # StrainforgeError (never a bare ValueError) whose message names it
    with pytest.raises(StrainforgeError) as info:
        call()
    assert field in str(info.value)


# (id, a finite nonzero axis whose squared norm overflows or underflows, the
# axis of the same direction with entries of order one)
AXIS_CASES = [
    ("overflow", [1e200] * 3, [1.0, 1.0, 1.0]),
    ("underflow-one", [1e-170, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ("underflow-all", [1e-200] * 3, [1.0, 1.0, 1.0]),
]


@pytest.mark.parametrize("axis, same", [case[1:] for case in AXIS_CASES],
                         ids=[case[0] for case in AXIS_CASES])
def test_finite_nonzero_axis_is_in_the_domain(axis, same):
    # any finite nonzero axis gives the frame of its direction, with no
    # numpy warning (the suite turns warnings into errors)
    got, want = sf.DefectOrientation(axis), sf.DefectOrientation(same)
    assert np.array_equal(got.axis, want.axis)
    assert np.array_equal(got.rotation, want.rotation)


def test_no_source_raises_builtin_value_or_type_errors():
    # every bad value raises a StrainforgeError, in every module
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
