import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import strainforge._kernels as kernels
import strainforge.population as pop
from conftest import point_in_section, post_gss_moments, splitting_from_strain
from strainforge.core import (
    ORIENTATIONS,
    Frame,
    SivParameters,
    StrainTensor,
    defect_frame_strain,
    eg_couplings,
    rotate_strain,
)
from strainforge.errors import DegenerateGeometry, EmptyRequest, Infeasible, InvalidParameter
from strainforge.mechanics import beam_to_crystal, solve_beam_state, strain_at
from strainforge.config import default_config
from strainforge.population import (
    PositionDistribution,
    calibrate_film_stress,
    calibrate_sigma,
    draw_ensemble,
    sample_post_deposition,
    summarize,
)

PARAMS = SivParameters()
SIGMA = 1.5e-5
FILM_ONLY = 0.0  # sigma with film strain only
CFG = default_config()
POST = CFG.film_stress_mpa  # the configured film stress


def sample(n, sigma, seed, stress_mpa=0.0, threads=None, pos=CFG.position):
    """The sampler on the default stack; zero film stress is before deposition."""
    return sample_post_deposition(n, CFG.stack, pos, PARAMS, seed,
                                  sigma=sigma, stress_mpa=stress_mpa, threads=threads)


def ensemble(n, seed, stack=CFG.stack, threads=None):
    return draw_ensemble(n, stack, CFG.position, PARAMS, seed, threads=threads)


@pytest.fixture(scope="module")
def field(cfg):
    """The beam at the configured film stress, for checks against the samples."""
    return solve_beam_state(cfg.stack, cfg.film_stress_mpa)


class TestSummarize:
    def test_constant_values(self):
        s = summarize([5.0, 5.0, 5.0])
        assert s.mean_ghz == 5.0
        assert s.std_ghz == 0.0
        assert s.sem_ghz == 0.0
        assert s.n == 3

    def test_sem_from_std_295_n_11(self):
        rng = np.random.default_rng(0)
        x = rng.normal(600.0, 300.0, 11)
        z = (x - x.mean()) / x.std(ddof=1)  # sample std exactly 1
        s = summarize(600.0 + 295.0 * z)
        assert s.std_ghz == pytest.approx(295.0, rel=1e-12)
        assert abs(s.sem_ghz - 295.0 / math.sqrt(11)) <= 1.0
        assert s.sem_ghz == pytest.approx(88.954, abs=0.01)

    def test_seeded_normal_sanity(self):
        rng = np.random.default_rng(2024)
        s = summarize(rng.normal(0.0, 1.0, 1000))
        assert abs(s.mean_ghz) < 0.1
        assert abs(s.std_ghz - 1.0) < 0.1

    def test_spread_of_a_few_ulps(self):
        data = 46.0 + np.spacing(46.0) * (np.arange(4096) % 4)
        s = summarize(data)
        assert s.mean_ghz == pytest.approx(46.0, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyRequest):
            summarize([])

    def test_summary_recomputable_from_samples(self):
        gss = sample(5_000, SIGMA, seed=99).gss_ghz
        s = summarize(gss)
        assert (s.mean_ghz, s.std_ghz, s.n) == (np.mean(gss), np.std(gss, ddof=1), 5_000)
        assert s.sem_ghz == s.std_ghz / math.sqrt(5_000)


class TestPreDeposition:
    """Before deposition: the same emitters in the beam at zero film stress."""

    def test_zero_sigma_pins_all_to_floor(self):
        s = sample(500, 0.0, seed=1)
        assert np.all(s.gss_ghz == 46.0)
        assert np.all(s.eps_crystal == 0.0)

    def test_floor_holds(self):
        s = sample(20_000, SIGMA, seed=2)
        assert np.all(s.gss_ghz >= PARAMS.lambda_so_ghz)

    def test_deterministic_per_seed(self):
        a = sample(5_000, SIGMA, seed=3)
        b = sample(5_000, SIGMA, seed=3)
        c = sample(5_000, SIGMA, seed=4)
        assert np.array_equal(a.gss_ghz, b.gss_ghz)
        assert np.array_equal(a.eps_crystal, b.eps_crystal)
        assert not np.array_equal(a.gss_ghz, c.gss_ghz)

    def test_thread_count_invariance(self):
        a = sample(200_000, SIGMA, seed=5, threads=1)
        b = sample(200_000, SIGMA, seed=5, threads=7)
        assert np.array_equal(a.gss_ghz, b.gss_ghz)
        assert np.array_equal(a.orientation_id, b.orientation_id)

    def test_prefix_stability(self):
        # counter-based streams: the first k samples never depend on n
        a = sample(1_000, SIGMA, seed=6)
        b = sample(70_000, SIGMA, seed=6)
        assert np.array_equal(a.gss_ghz, b.gss_ghz[:1_000])

    def test_orientations_roughly_uniform(self):
        s = sample(40_000, SIGMA, seed=7)
        counts = np.bincount(s.orientation_id, minlength=4)
        assert counts.min() > 0.23 * 40_000
        assert counts.max() < 0.27 * 40_000

    def test_pre_emitters_are_the_post_emitters(self, field):
        # deposition strains the emitters; it does not move or turn them,
        # nor change their intrinsic strain
        pre = sample(2_000, SIGMA, seed=9)
        post = sample(2_000, SIGMA, 9, POST)
        for name in ("x_nm", "y_nm", "depth_nm", "orientation_id"):
            assert np.array_equal(getattr(pre, name), getattr(post, name))
        film = field.axial_strain(post.depth_nm)[:, None] * pop._tables(CFG.stack, PARAMS)[0]
        np.testing.assert_allclose(post.eps_crystal - film, pre.eps_crystal, rtol=0, atol=1e-18)

    def test_n_zero_rejected(self):
        with pytest.raises(EmptyRequest):
            sample(0, SIGMA, seed=1)


def test_draw_holds_no_chunk_length_temporary():
    # the draws land in the ensemble's arrays a sub-block at a time: beyond
    # them the traced peak is the sub-blocks' temporaries (about 0.65 MB),
    # not a chunk's (7 MB when a chunk was drawn whole and copied in)
    tracemalloc.start()
    try:
        draw = ensemble(2 ** 18, seed=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = draw._depth.nbytes + draw._ori.nbytes + draw._unit.nbytes
    assert peak - own < 2 ** 20, peak - own


def test_n_beyond_the_counter_space_rejected():
    # counters i * 512 + j of samples i < 2**55 fit in a uint64; the check
    # comes before any array of n is allocated
    n = 2 ** 55 + 1
    calls = [
        lambda: sample(n, SIGMA, 1, POST),
        lambda: ensemble(n, seed=1),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match=f"n must be <= {2 ** 55}, got {n}"):
            call()
    pop._check_draw(2 ** 55, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
def test_seed_outside_the_stream_root_space_rejected(seed):
    # seed_root reads seeds mod 2**64, so -1 would alias 2**64 - 1; the
    # check comes before any draw (n = 2**55 could not be allocated)
    n = 2 ** 55
    calls = [
        lambda: sample(n, SIGMA, seed, POST),
        lambda: ensemble(n, seed=seed),
        lambda: ensemble(5, seed=seed),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == f"seed must be in [0, 2**64), got {seed}"


def test_numpy_integers_draw_as_python_ints():
    # n and seed may be of any integral type but bool
    want = ensemble(50, seed=3)
    got = ensemble(np.int64(50), seed=np.uint64(3))
    assert np.array_equal(got.gss(SIGMA, POST), want.gss(SIGMA, POST))


BAD_SCALES = ([(sigma, 0.0) for sigma in (math.nan, math.inf, -math.inf, -1e-5)]
              + [(SIGMA, stress) for stress in (math.nan, math.inf, -math.inf)])


@pytest.mark.parametrize("sigma,stress", BAD_SCALES)
@pytest.mark.parametrize("api", ["sampler", "ensemble"])
def test_scales_outside_the_domain_rejected(api, sigma, stress):
    # one domain check for every evaluation: sigma finite and >= 0, the film
    # stress finite; the sampler checks before it allocates its n rows
    # (n = 2**55 could not be allocated)
    draw = ensemble(5, seed=1)
    bad = "sigma must be finite and >= 0" if stress == 0.0 else "film stress must be finite"
    with pytest.raises(InvalidParameter, match=bad):
        if api == "sampler":
            sample(2 ** 55, sigma, 1, stress)
        else:
            draw.gss(sigma, stress)


@pytest.mark.parametrize("bad,error", [
    ({"n": 0}, EmptyRequest), ({"n": 2 ** 55 + 1}, InvalidParameter),
    ({"n": 10.0}, InvalidParameter), ({"seed": True}, InvalidParameter),
    ({"seed": -1}, InvalidParameter), ({"sigma": -1e-5}, InvalidParameter),
    ({"stress_mpa": math.nan}, InvalidParameter), ({"threads": 0}, InvalidParameter),
])
def test_streaming_sampler_checks_its_arguments_at_the_call(monkeypatch, bad, error):
    # the call raises before a chunk is drawn, not on the first chunk taken:
    # a lazy check would pass unseen around a call whose chunks are not read
    def drawn(*args):
        raise AssertionError("a chunk was drawn")

    monkeypatch.setattr(kernels, "draw_post_block", drawn)
    args = {"n": 10, "seed": 1, "sigma": SIGMA, "stress_mpa": POST, "threads": 2, **bad}
    with pytest.raises(error):
        pop.sample_chunks(args.pop("n"), CFG.stack, CFG.position, PARAMS, args.pop("seed"),
                          **args)


def test_streaming_sampler_yields_fixed_chunks_in_index_order():
    n = 2 * kernels.CHUNK + 7
    chunks = list(pop.sample_chunks(n, CFG.stack, CFG.position, PARAMS, 4,
                                    sigma=SIGMA, stress_mpa=POST, threads=2))
    assert [len(c) for c in chunks] == [kernels.CHUNK, kernels.CHUNK, 7]
    whole = sample(n, SIGMA, 4, POST)
    for name, column in vars(whole).items():
        assert np.array_equal(np.concatenate([getattr(c, name) for c in chunks]), column)


class TestPostDeposition:
    def test_zero_stress_no_intrinsic_pins_to_floor(self):
        assert np.all(sample(400, FILM_ONLY, seed=1).gss_ghz == 46.0)

    def test_thread_count_invariance(self):
        a = sample(150_000, SIGMA, 2, POST, threads=1)
        b = sample(150_000, SIGMA, 2, POST, threads=5)
        assert np.array_equal(a.gss_ghz, b.gss_ghz)
        assert np.array_equal(a.depth_nm, b.depth_nm)
        assert np.array_equal(a.eps_crystal, b.eps_crystal)

    def test_positions_inside_aperture_and_substrate(self, cfg, field):
        pos = cfg.position
        s = sample(20_000, SIGMA, 3, POST)
        assert np.all(np.abs(s.x_nm) <= pos.aperture_x_nm / 2)
        assert np.all(np.abs(s.y_nm) <= pos.aperture_y_nm / 2)
        assert np.all(s.depth_nm >= 0.0)
        assert np.all(s.depth_nm <= field.depth_max_nm)
        cs = field.stack.cross_section
        for i in range(0, 20_000, 997):
            assert point_in_section(cs, s.y_nm[i], s.depth_nm[i])

    def test_depth_distribution_matches_straggle(self):
        res = sample(100_000, SIGMA, 4, POST)
        assert res.depth_nm.mean() == pytest.approx(35.0, abs=0.2)
        assert res.depth_nm.std() == pytest.approx(10.0, abs=0.2)

    def test_degenerate_geometry_raises(self):
        pos = PositionDistribution(
            aperture_x_nm=60, aperture_y_nm=60,
            depth_mean_nm=5000.0, depth_straggle_nm=1.0,
        )
        with pytest.raises(DegenerateGeometry):
            sample(50, SIGMA, 5, POST, pos=pos)

    def test_intrinsic_widens_distribution(self):
        plain = sample(50_000, FILM_ONLY, 6, POST)
        mixed = sample(50_000, SIGMA, 6, POST)
        assert np.std(mixed.gss_ghz) > np.std(plain.gss_ghz)

    def test_two_orientation_classes_under_beam_strain(self):
        # unequal in-plane strain splits the four <111> axes into two pairs
        s = sample(20_000, FILM_ONLY, 8, POST)
        cls_a = np.isin(s.orientation_id, [0, 1])
        spread_within = max(
            s.gss_ghz[cls_a].std(), s.gss_ghz[~cls_a].std()
        )
        split = abs(s.gss_ghz[cls_a].mean() - s.gss_ghz[~cls_a].mean())
        assert split > 5 * spread_within


def _no_evaluation(*args, **kwargs):
    raise AssertionError("the ensemble was evaluated")


class TestMonotoneCalibration:
    def test_mean_monotone_in_sigma(self):
        means = [
            np.mean(sample(30_000, s, seed=11).gss_ghz)
            for s in np.linspace(0.0, 4e-5, 9)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_mean_monotone_in_stress(self):
        means = [np.mean(sample(30_000, SIGMA, 12, stress).gss_ghz)
                 for stress in np.linspace(0.0, 1200.0, 7)]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_convergence_with_n(self):
        a = summarize(sample(40_000, SIGMA, seed=13).gss_ghz)
        b = summarize(sample(80_000, SIGMA, seed=13).gss_ghz)
        bound = 3.0 * a.std_ghz / math.sqrt(40_000)
        assert abs(b.mean_ghz - a.mean_ghz) < bound

    def test_calibrate_sigma_floor_target(self):
        sigma, gss = calibrate_sigma(46.0, ensemble(1000, seed=14))
        assert sigma == 0.0
        assert np.all(gss == 46.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_calibrate_sigma_floor_target_checks_n(self, n):
        # a fit takes its emitters from an ensemble, whose draw validates n
        with pytest.raises(EmptyRequest):
            ensemble(n, seed=14)

    def test_calibrate_sigma_below_floor(self):
        with pytest.raises(Infeasible):
            calibrate_sigma(30.0, ensemble(1000, seed=15))

    def test_calibrate_sigma_hits_target_and_is_deterministic(self):
        s1, gss1 = calibrate_sigma(119.0, ensemble(50_000, seed=16))
        s2, gss2 = calibrate_sigma(119.0, ensemble(50_000, seed=16))
        assert s1 == s2
        assert np.array_equal(gss1, gss2)
        gss = sample(50_000, s1, seed=16).gss_ghz
        assert abs(np.mean(gss) - 119.0) <= 0.5

    @pytest.mark.parametrize("fit", ["sigma", "stress"])
    def test_calibration_thread_invariant(self, fit):
        # more than two chunks, so two threads split the work, and the
        # slope's per-chunk sums must add up alike
        n = 2 * kernels.CHUNK + 7
        calibrate, target = FITS[fit][0], {"sigma": 119.0, "stress": 608.0}[fit]
        (s1, gss1), (s2, gss2) = (calibrate(target, ensemble(n, 17, threads=threads))
                                  for threads in (1, 2))
        assert s1 == s2
        assert np.array_equal(gss1, gss2)

    def test_calibrate_stress_floor_target(self):
        stress, gss = calibrate_film_stress(46.0, ensemble(1000, seed=18), FILM_ONLY)
        assert stress == 0.0
        assert np.all(gss == 46.0)

    def test_calibrate_stress_below_floor(self):
        with pytest.raises(Infeasible):
            calibrate_film_stress(10.0, ensemble(1000, seed=19), SIGMA)

    @pytest.mark.parametrize("kwargs", [{}, {"n": 1000}])
    def test_calibrate_stress_has_no_default_n_or_seed(self, cfg, kwargs):
        # a fit's n and seed are its ensemble's, which has no default for either
        with pytest.raises(TypeError):
            draw_ensemble(stack=cfg.stack, pos=cfg.position, params=PARAMS, **kwargs)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_calibrate_sigma_non_finite_target(self, target, monkeypatch):
        # rejected before the ensemble is evaluated
        draw = ensemble(1000, seed=15)
        monkeypatch.setattr(pop.Ensemble, "gss", _no_evaluation)
        with pytest.raises(Infeasible, match="not finite"):
            calibrate_sigma(target, draw)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_calibrate_stress_non_finite_target(self, target, monkeypatch):
        draw = ensemble(1000, seed=19)
        monkeypatch.setattr(pop.Ensemble, "gss", _no_evaluation)
        with pytest.raises(Infeasible, match="not finite"):
            calibrate_film_stress(target, draw, SIGMA)

    def test_calibrate_stress_hits_target(self):
        stress, _ = calibrate_film_stress(608.0, ensemble(50_000, seed=20), SIGMA)
        gss = sample(50_000, SIGMA, 20, stress).gss_ghz
        assert abs(np.mean(gss) - 608.0) <= 0.5

    def test_thicker_film_needs_less_stress(self, cfg):
        base = cfg.stack
        thick = replace(base, film_thickness_nm=120.0)
        s_base, _ = calibrate_film_stress(400.0, ensemble(20_000, 21, base), SIGMA)
        s_thick, _ = calibrate_film_stress(400.0, ensemble(20_000, 21, thick), SIGMA)
        assert s_thick < s_base

    def test_cdf_dominance_post_over_pre(self):
        # calibrated configs: the strained population stochastically
        # dominates above 200 GHz
        draw = ensemble(100_000, seed=22)
        sigma, pre = calibrate_sigma(119.0, draw)
        _, post = calibrate_film_stress(608.0, draw, sigma)
        for g in np.linspace(200.0, 1500.0, 27):
            assert np.mean(post >= g) >= np.mean(pre >= g)


# six strain components at the scale of the calibrated ensembles
COMPONENTS = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda c: 1e-4 * np.array(c)
)
ORIENTATION_IDS = st.integers(0, len(ORIENTATIONS) - 1)


def _ab(eps):
    c = eg_couplings(eps, PARAMS)
    return np.array([c.alpha_ghz, c.beta_ghz])


def _coupling_atol(eps):
    """Cancellation floor for 1e-12 relative agreement of (alpha, beta),
    plus 8 subnormal units per unit coupling: a subnormal component keeps
    few significant bits through core's rotation."""
    scale = abs(PARAMS.d_ghz_per_strain) + abs(PARAMS.f_ghz_per_strain)
    return 1e-12 * 2.0 * scale * np.abs(eps).sum() + 8.0 * scale * 2.0 ** -1074


class TestCouplingTables:
    """The coupling tables the samplers evaluate, against core."""

    @given(e=COMPONENTS, o=ORIENTATION_IDS)
    @example(e=1e-4 * np.array([0.0, 0.0, 0.0, 0.0, 0.0, 2.2250738585e-313]), o=0)
    @settings(max_examples=60, deadline=None)
    def test_intrinsic_rows_match_core(self, e, o):
        # one table W for every orientation: normals z' = e taken to crystal
        # axes by D[o] Q^T and back to the defect frame by core couple as
        # (s_alpha e_1, s_beta e_2), and a defect-frame tensor taken there
        # and back couples as it did
        _, _, s, to_crystal = pop._tables(CFG.stack, PARAMS)
        assert s.shape == (2,) and to_crystal.shape == (4, 6, 6)
        crystal = StrainTensor(*(to_crystal[o] @ e), frame=Frame.CRYSTAL)
        defect = defect_frame_strain(crystal, ORIENTATIONS[o])
        np.testing.assert_allclose(s * e[:2], _ab(defect), rtol=1e-12,
                                   atol=_coupling_atol(defect.components))
        crystal = StrainTensor(*(pop._defect_to_crystal()[o] @ e), frame=Frame.CRYSTAL)
        np.testing.assert_allclose(_ab(defect_frame_strain(crystal, ORIENTATIONS[o])),
                                   _ab(StrainTensor(*e, frame=Frame.DEFECT)), rtol=1e-12,
                                   atol=_coupling_atol(e))

    @given(
        # film stresses of either sign, away from the subnormal range
        stress=st.floats(1e-3, 2000.0) | st.floats(-2000.0, -1e-3),
        depth_fraction=st.floats(0.0, 1.0),
        o=ORIENTATION_IDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_film_rows_match_core(self, cfg, stress, depth_fraction, o):
        field = solve_beam_state(cfg.stack, stress)
        depth = depth_fraction * field.depth_max_nm
        eyy = float(field.axial_strain(depth))
        film_crystal, film_rows = pop._tables(cfg.stack, PARAMS)[:2]
        eps = beam_to_crystal(strain_at(field, depth))
        np.testing.assert_allclose(eyy * film_crystal, eps.components,
                                   rtol=1e-12, atol=1e-12 * abs(eyy))
        want = _ab(defect_frame_strain(eps, ORIENTATIONS[o]))
        np.testing.assert_allclose(eyy * film_rows[:, o], want, rtol=1e-12,
                                   atol=_coupling_atol(eps.components))

    @given(e=COMPONENTS, o=ORIENTATION_IDS)
    @settings(max_examples=60, deadline=None)
    def test_defect_to_crystal_maps_match_rotate_strain(self, e, o):
        want = rotate_strain(StrainTensor(*e, frame=Frame.DEFECT),
                             ORIENTATIONS[o].rotation.T, Frame.CRYSTAL)
        got = pop._defect_to_crystal()[o] @ e
        assert np.max(np.abs(got - want.components)) <= 1e-18

    def test_stored_tensors_reproduce_the_splitting(self):
        # crystal-frame tensors written by the samplers give back each
        # sample's splitting through the scalar core chain
        ensembles = [sample(64, SIGMA, seed=31)] + [
            sample(64, sigma, 31, POST) for sigma in (FILM_ONLY, SIGMA)
        ]
        for s in ensembles:
            for i in range(len(s)):
                eps = StrainTensor(*s.eps_crystal[i], frame=Frame.CRYSTAL)
                gss = splitting_from_strain(eps, ORIENTATIONS[s.orientation_id[i]], PARAMS)
                assert gss == pytest.approx(s.gss_ghz[i], rel=1e-12)


def test_import_builds_no_coupling_table():
    # the sampler's tables are built on first use: importing the package
    # makes no core.rotate_strain call (the defect-to-crystal maps)
    code = (
        "import collections, sys\n"
        "calls = collections.Counter()\n"
        "def count(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_filename.endswith('strainforge/core.py'):\n"
        "        calls[code.co_name] += 1\n"
        "sys.setprofile(count)\n"
        "import strainforge\n"
        "sys.setprofile(None)\n"
        "print(calls['rotate_strain'], sum(calls.values()) > 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(pop.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    # the second field shows the profiler saw core's import-time calls
    assert out.stdout.split() == ["0", "True"]


def test_post_oracle_needs_the_aperture_inside_the_section(cfg, field):
    # the oracle integrates depth only; an aperture wider than the section
    # at some integrated depth would make rejection cut laterally too
    wide = replace(cfg.position, aperture_y_nm=900.0)
    with pytest.raises(AssertionError, match="aperture"):
        post_gss_moments(field, SIGMA, PARAMS, wide)


def _crystal_to_defect_maps():
    """(4, 6, 6): per orientation, core's defect_frame_strain as a matrix
    on crystal-frame 6-vectors, built on unit tensors."""
    unit = 2.0 ** -10
    return np.stack([
        np.stack([defect_frame_strain(StrainTensor(*(unit * np.eye(6)[k]),
                                                   frame=Frame.CRYSTAL), o).components
                  for k in range(6)], axis=1) / unit
        for o in ORIENTATIONS
    ])


@pytest.mark.parametrize("phase", ["pre", "post"])
def test_written_intrinsic_tensors_are_iid_in_the_defect_frame(field, cfg, phase):
    # the sampler writes sigma D[o] Q^T z' (plus the film part after
    # deposition, taken off here); taken back to the defect frame by core,
    # its six components are iid Normal(0, sigma^2) at n = 1e6: each
    # variance within 4 SEM of sigma^2, each cross-covariance and mean
    # within 4 SEM of 0
    n, sigma = 1_000_000, SIGMA
    if phase == "pre":
        s = sample(n, SIGMA, seed=41)
        intrinsic = s.eps_crystal
    else:
        s = sample(n, SIGMA, 41, POST)
        film_crystal = pop._tables(cfg.stack, PARAMS)[0]
        intrinsic = s.eps_crystal - field.axial_strain(s.depth_nm)[:, None] * film_crystal
    e = np.empty((n, 6))
    for o, to_defect in enumerate(_crystal_to_defect_maps()):
        sel = s.orientation_id == o
        e[sel] = intrinsic[sel] @ to_defect.T / sigma
    cov = e.T @ e / n
    # a unit normal's mean square has variance 2/n, a product of two 1/n
    sem = np.where(np.eye(6, dtype=bool), math.sqrt(2.0 / n), math.sqrt(1.0 / n))
    assert np.max(np.abs(cov - np.eye(6)) / sem) <= 4.0
    assert np.max(np.abs(e.mean(axis=0))) <= 4.0 / math.sqrt(n)


class TestCachedCalibrationMeans:
    """Calibration steps evaluate one ensemble's cached couplings instead of
    re-sampling; each step's gss is the sampler's, bit for bit, so its mean
    is the sampler's mean."""

    N = 4096

    @given(sigma=st.floats(1e-6, 5e-5), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=15, deadline=None)
    def test_pre_mean_matches_sampler(self, sigma, seed):
        want = sample(self.N, sigma, seed, 0.0).gss_ghz
        assert np.array_equal(ensemble(self.N, seed).gss(sigma, 0.0), want)

    @given(
        # film stresses of either sign: a compressive film strains too
        stress=st.floats(-2000.0, 2000.0),
        sigma=st.just(0.0) | st.floats(1e-6, 5e-5),
        seed=st.integers(0, 2 ** 32),
    )
    @example(stress=700.0, sigma=0.0, seed=0)  # film strain only
    @example(stress=0.0, sigma=SIGMA, seed=0)  # before deposition
    @example(stress=-350.0, sigma=SIGMA, seed=0)  # a compressive film
    @settings(max_examples=15, deadline=None)
    def test_post_mean_matches_sampler(self, stress, sigma, seed):
        want = sample(self.N, sigma, seed, stress).gss_ghz
        assert np.array_equal(ensemble(self.N, seed).gss(sigma, stress), want)

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_pair_only_draw_is_thread_invariant(self, phase):
        n = 2 * kernels.CHUNK + 7
        stress = 0.0 if phase == "pre" else 700.0
        one, two = (ensemble(n, 35, threads=threads).gss(SIGMA, stress)
                    for threads in (1, 2))
        assert np.array_equal(one, two)

    def test_calibrations_draw_once_and_never_resample(self, monkeypatch):
        def resampled(*args, **kwargs):
            raise AssertionError("a calibration step re-sampled the ensemble")

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name if name != "pairs" else (name, args[3], len(args[1])))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pop, "sample_chunks", resampled)
        for name in ("draw_post_block", "_orientation_np"):
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        monkeypatch.setattr(kernels, "_normal_pairs_np",
                            counted("pairs", kernels._normal_pairs_np))
        draw = ensemble(self.N, seed=32)
        sigma, _ = calibrate_sigma(119.0, draw)
        calibrate_film_stress(608.0, draw, sigma)
        # n is one sub-block of one chunk: one draw call for both fits,
        # drawing one Box-Muller pair per emitter
        assert self.N == pop._SUB
        assert calls == ["draw_post_block", "_orientation_np", ("pairs", 1, self.N)]

    @pytest.mark.parametrize("target", [46.0, 119.0])
    @pytest.mark.parametrize("threads", [None, 2])
    def test_sigma_fit_returns_the_sampled_ensemble(self, target, threads):
        sigma, gss = calibrate_sigma(target, ensemble(self.N, 33, threads=threads))
        want = sample(self.N, sigma, 33)
        assert np.array_equal(gss, want.gss_ghz)

    @pytest.mark.parametrize("target,sigma", [(46.0, 0.0), (608.0, SIGMA)])
    def test_stress_fit_returns_the_sampled_ensemble(self, target, sigma):
        stress, gss = calibrate_film_stress(target, ensemble(self.N, seed=34), sigma)
        want = sample(self.N, sigma, 34, stress)
        assert np.array_equal(gss, want.gss_ghz)


# the two fits by name: (fit(target, ensemble) -> (scale, gss), the
# sampler's gss at a scale, the ensemble's gss at a scale, the cap)
FITS = {
    "sigma": (calibrate_sigma,
              lambda n, x, seed: sample(n, x, seed).gss_ghz,
              lambda draw, x: draw.gss(x, 0.0), 1e-2),
    "stress": (lambda target, draw: calibrate_film_stress(target, draw, SIGMA),
               lambda n, x, seed: sample(n, SIGMA, seed, x).gss_ghz,
               lambda draw, x: draw.gss(SIGMA, x), 1e6),
}
UNREACHABLE = {"sigma": "unreachable within the small-strain regime",
               "stress": "unreachable at physical film stresses"}


class TestNewtonFit:
    """Newton steps on the convex ensemble mean with its exact slope."""

    N = 4096

    @pytest.mark.parametrize("fit,scale", [("sigma", 8e-3), ("stress", 8e5)])
    def test_targets_between_the_last_doubling_and_the_cap_fit(self, fit, scale):
        # a bracket doubled from 1e-5 or 500 MPa stopped at 5.12e-3 or
        # 512,000 MPa and never evaluated its cap, so these were rejected
        calibrate, _, gss_at, _ = FITS[fit]
        draw = ensemble(self.N, seed=5)
        target = float(np.mean(gss_at(draw, scale)))
        found, gss = calibrate(target, draw)
        assert abs(np.mean(gss) - target) <= pop._TOL_GHZ
        assert found == pytest.approx(scale, rel=1e-6)

    @pytest.mark.parametrize("fit", ["sigma", "stress"])
    def test_target_beyond_the_cap_is_unreachable(self, fit):
        calibrate, _, gss_at, cap = FITS[fit]
        draw = ensemble(self.N, seed=5)
        at_cap = float(np.mean(gss_at(draw, cap)))
        assert calibrate(at_cap, draw)[0] == cap
        with pytest.raises(Infeasible, match=UNREACHABLE[fit]):
            calibrate(at_cap + 1.0, draw)

    def test_a_fit_out_of_steps_says_so(self, monkeypatch):
        # from either start, one Newton step meets neither target
        monkeypatch.setattr(pop, "_MAX_STEPS", 1)
        draw = ensemble(self.N, seed=5)
        with pytest.raises(Infeasible, match="^no fit within 1 Newton steps$"):
            calibrate_sigma(119.0, draw)
        with pytest.raises(Infeasible, match="^no fit within 1 Newton steps$"):
            calibrate_film_stress(608.0, draw, CFG.sigma_unstrained)

    @given(fit=st.sampled_from(["sigma", "stress"]), u=st.floats(0.0, 1.0))
    @example(fit="sigma", u=0.0)
    @example(fit="stress", u=0.0)
    @example(fit="stress", u=1.0)
    @settings(max_examples=30, deadline=None)
    def test_feasible_targets_converge(self, fit, u):
        # targets log-uniform over the feasible range: from the floor (sigma)
        # or the zero-stress mean less the tolerance (stress) to the cap's mean
        calibrate, sampled, gss_at, cap = FITS[fit]
        draw = ensemble(self.N, seed=36)
        lo = (PARAMS.lambda_so_ghz if fit == "sigma"
              else float(np.mean(gss_at(draw, 0.0))) - pop._TOL_GHZ)
        target = lo * (float(np.mean(gss_at(draw, cap))) / lo) ** u
        calls = []
        evaluate = draw.gss
        draw.gss = lambda *args, **kwargs: calls.append(args) or evaluate(*args, **kwargs)
        scale, gss = calibrate(target, draw)
        assert len(calls) <= pop._MAX_STEPS + 1
        assert abs(np.mean(gss) - target) <= pop._TOL_GHZ
        assert np.array_equal(gss, sampled(self.N, scale, 36))

    @pytest.mark.parametrize("fit", ["sigma", "stress"])
    def test_slope_is_the_derivative_of_the_mean(self, fit):
        _, _, gss_at, _ = FITS[fit]
        draw = ensemble(self.N, seed=37)
        x = 1.5e-5 if fit == "sigma" else 650.0
        sigma, stress = (x, 0.0) if fit == "sigma" else (SIGMA, x)
        gss, slope = draw.gss(sigma, stress, _slope=fit)
        assert np.array_equal(gss, gss_at(draw, x))
        h = 1e-6 * x
        central = (np.mean(gss_at(draw, x + h)) - np.mean(gss_at(draw, x - h))) / (2 * h)
        assert slope == pytest.approx(central, rel=1e-6)

    @pytest.mark.parametrize("target,found", [(1500.0, True), (1100.0, False)])
    def test_stress_fit_from_left_of_the_mean_minimum(self, target, found):
        # one emitter at seed 1, sigma 1e-4: its gss falls from 1273.9 GHz at
        # zero stress to 1189.3 GHz at the 500 MPa start, where the slope is
        # negative. A higher target lies right of the minimum and is found; a
        # lower one is below the zero-stress mean, as before
        draw = ensemble(1, seed=1)
        sigma = 1e-4
        assert draw.gss(sigma, 500.0, _slope="stress")[1] < 0.0
        if not found:
            with pytest.raises(Infeasible, match="below the zero-stress"):
                calibrate_film_stress(target, draw, sigma)
            return
        stress, gss = calibrate_film_stress(target, draw, sigma)
        assert stress > 500.0
        assert abs(gss[0] - target) <= pop._TOL_GHZ

    def test_report_evaluates_the_ensemble_at_most_six_times(self, cfg, monkeypatch, tmp_path):
        # 3 sigma steps and 3 stress steps at the default seed and n; the
        # bracketing fits took 4 + 5
        from strainforge.cli import report

        calls = []
        evaluate = pop.Ensemble.gss

        def counted(self, *args, **kwargs):
            calls.append(args)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(pop.Ensemble, "gss", counted)
        summary = report(cfg, cfg.default_seed, threads=1, out_dir=tmp_path)
        assert summary["n"] == cfg.default_n
        assert len(calls) <= 6


def _whole_chunk_splitting(lam, field, film_rows, depth, ori, sigma, unit, slope):
    """A chunk's splittings and slope sum, each formula applied to the whole
    chunk at once: the oracle for the sub-blocked kernel."""
    film = field.axial_strain(depth) * np.take(film_rows, ori, axis=1)
    couplings = film + sigma * unit
    alpha, beta = couplings
    gss = np.sqrt(lam * lam + 4.0 * (alpha * alpha + beta * beta))
    a = unit if slope == "sigma" else film
    return gss, 4.0 * np.sum((a * couplings).sum(axis=0) / gss)


class TestSubBlockedSplitting:
    """``_splitting`` works in sub-blocks of ``_SUB`` emitters and writes
    into the array it is given; every output bit is the whole-chunk one."""

    @pytest.fixture(scope="class")
    def chunk(self):
        return ensemble(kernels.CHUNK, seed=38)

    @pytest.mark.parametrize("m", [1, 4095, 4097, 65536])
    @pytest.mark.parametrize("stress", [0.0, POST])
    @pytest.mark.parametrize("slope", ["sigma", "stress"])
    def test_sub_blocks_equal_the_whole_chunk_bit_for_bit(self, chunk, m, stress, slope):
        field = solve_beam_state(CFG.stack, stress)
        args = (PARAMS.lambda_so_ghz, field, chunk._film_rows, chunk._depth[:m],
                chunk._ori[:m], SIGMA, chunk._unit[:, :m])
        want_gss, want_slope = _whole_chunk_splitting(*args, slope)
        out = np.full(m, np.nan)
        gss, got_slope = pop._splitting(*args, slope, out)
        assert gss is out
        assert gss.tobytes() == want_gss.tobytes()
        assert got_slope == want_slope
        assert pop._splitting(*args).tobytes() == want_gss.tobytes()

    def test_report_and_calibrate_make_no_qr(self, cfg, monkeypatch, tmp_path):
        # the maps D[o] Q^T (and their QR) are the sampler's alone
        from strainforge.cli import report, run

        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(a) or qr(*a, **k))
        report(cfg, cfg.default_seed, n=4096, threads=1, out_dir=tmp_path)
        for what, target in (("sigma", "119"), ("stress", "608")):
            assert run(["calibrate", "--what", what, "--target-ghz", target, "--n", "4096"]) == 0
        assert calls == []
        sample(8, SIGMA, seed=1)
        assert len(calls) == 1

    def test_each_fit_holds_one_array_of_splittings(self):
        # tracemalloc sees numpy's buffers: between the two sizes the peak
        # rise of a fit grows by its one array of n splittings (8 bytes per
        # emitter), not by a second one (16), plus the run's bookkeeping of
        # its 4 extra chunks (a few hundred bytes, under 1/64 per emitter)
        def rise(fit):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = fit()
                return tracemalloc.get_traced_memory()[1] - before, result
            finally:
                tracemalloc.stop()

        rises = []
        for n in (2 ** 18, 2 ** 19):
            draw = ensemble(n, seed=39)
            pre, (sigma, _) = rise(lambda: calibrate_sigma(119.0, draw))
            post, _ = rise(lambda: calibrate_film_stress(608.0, draw, sigma))
            rises.append((pre, post))
        per_emitter = [(big - small) / 2 ** 18 for small, big in zip(*rises)]
        assert max(per_emitter) <= 8.0 + 1.0 / 64, per_emitter
