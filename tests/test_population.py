import math
from dataclasses import replace

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
from strainforge.population import (
    IntrinsicStrainModel,
    PositionDistribution,
    calibrate_film_stress,
    calibrate_sigma,
    sample_post_deposition,
    sample_pre_deposition,
    summarize,
)

PARAMS = SivParameters()
SIGMA = IntrinsicStrainModel(1.5e-5)
FILM_ONLY = IntrinsicStrainModel(0.0)


@pytest.fixture(scope="module")
def field(cfg):
    return solve_beam_state(cfg.stack)


@pytest.fixture(scope="module")
def zero_field(cfg):
    stack = cfg.stack
    stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=0.0))
    return solve_beam_state(stack)


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
        res = sample_pre_deposition(5_000, SIGMA, PARAMS, seed=99)
        assert summarize(res.samples.gss_ghz) == res.summary


class TestPreDeposition:
    def test_zero_sigma_pins_all_to_floor(self):
        res = sample_pre_deposition(500, IntrinsicStrainModel(0.0), PARAMS, seed=1)
        assert np.all(res.samples.gss_ghz == 46.0)
        assert np.all(res.samples.eps_crystal == 0.0)

    def test_floor_holds(self):
        res = sample_pre_deposition(20_000, SIGMA, PARAMS, seed=2)
        assert np.all(res.samples.gss_ghz >= PARAMS.lambda_so_ghz)

    def test_deterministic_per_seed(self):
        a = sample_pre_deposition(5_000, SIGMA, PARAMS, seed=3)
        b = sample_pre_deposition(5_000, SIGMA, PARAMS, seed=3)
        c = sample_pre_deposition(5_000, SIGMA, PARAMS, seed=4)
        assert np.array_equal(a.samples.gss_ghz, b.samples.gss_ghz)
        assert np.array_equal(a.samples.eps_crystal, b.samples.eps_crystal)
        assert not np.array_equal(a.samples.gss_ghz, c.samples.gss_ghz)

    def test_thread_count_invariance(self):
        a = sample_pre_deposition(200_000, SIGMA, PARAMS, seed=5, threads=1)
        b = sample_pre_deposition(200_000, SIGMA, PARAMS, seed=5, threads=7)
        assert np.array_equal(a.samples.gss_ghz, b.samples.gss_ghz)
        assert np.array_equal(a.samples.orientation_id, b.samples.orientation_id)

    def test_prefix_stability(self):
        # counter-based streams: the first k samples never depend on n
        a = sample_pre_deposition(1_000, SIGMA, PARAMS, seed=6)
        b = sample_pre_deposition(70_000, SIGMA, PARAMS, seed=6)
        assert np.array_equal(a.samples.gss_ghz, b.samples.gss_ghz[:1_000])

    def test_orientations_roughly_uniform(self):
        res = sample_pre_deposition(40_000, SIGMA, PARAMS, seed=7)
        counts = np.bincount(res.samples.orientation_id, minlength=4)
        assert counts.min() > 0.23 * 40_000
        assert counts.max() < 0.27 * 40_000

    def test_positions_zero_for_pre(self):
        res = sample_pre_deposition(10, SIGMA, PARAMS, seed=9)
        assert np.all(res.samples.x_nm == 0.0)
        assert np.all(res.samples.depth_nm == 0.0)

    def test_n_zero_rejected(self):
        with pytest.raises(EmptyRequest):
            sample_pre_deposition(0, SIGMA, PARAMS, seed=1)


def test_n_beyond_the_counter_space_rejected(cfg, field):
    # counters i * 512 + j of samples i < 2**55 fit in a uint64; the check
    # comes before any array of n is allocated
    n = 2 ** 55 + 1
    calls = [
        lambda: sample_pre_deposition(n, SIGMA, PARAMS, seed=1),
        lambda: sample_post_deposition(n, cfg.position, field, PARAMS,
                                       intrinsic=SIGMA, seed=1),
        lambda: calibrate_sigma(119.0, n, seed=1),
        lambda: calibrate_film_stress(608.0, cfg.stack, cfg.position, PARAMS, n, 1,
                                      intrinsic=SIGMA),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter, match=f"n must be <= {2 ** 55}, got {n}"):
            call()
    pop._check_draw(2 ** 55, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 1])
def test_seed_outside_the_stream_root_space_rejected(cfg, field, seed):
    # seed_root reads seeds mod 2**64, so -1 would alias 2**64 - 1; the
    # check comes before any draw (n = 2**55 could not be allocated), and
    # before the floor return of calibrate_sigma
    n = 2 ** 55
    calls = [
        lambda: sample_pre_deposition(n, SIGMA, PARAMS, seed=seed),
        lambda: sample_post_deposition(n, cfg.position, field, PARAMS,
                                       intrinsic=SIGMA, seed=seed),
        lambda: calibrate_sigma(119.0, n, seed=seed),
        lambda: calibrate_sigma(46.0, 5, seed=seed),
        lambda: calibrate_film_stress(608.0, cfg.stack, cfg.position, PARAMS, n, seed,
                                      intrinsic=SIGMA),
    ]
    for call in calls:
        with pytest.raises(InvalidParameter) as info:
            call()
        assert str(info.value) == f"seed must be in [0, 2**64), got {seed}"


class TestPostDeposition:
    def test_zero_stress_no_intrinsic_pins_to_floor(self, cfg, zero_field):
        res = sample_post_deposition(
            400, cfg.position, zero_field, PARAMS, seed=1, intrinsic=FILM_ONLY
        )
        assert np.all(res.samples.gss_ghz == 46.0)

    def test_thread_count_invariance(self, cfg, field):
        kw = dict(intrinsic=SIGMA, seed=2)
        a = sample_post_deposition(150_000, cfg.position, field,
                                   PARAMS, threads=1, **kw)
        b = sample_post_deposition(150_000, cfg.position, field,
                                   PARAMS, threads=5, **kw)
        assert np.array_equal(a.samples.gss_ghz, b.samples.gss_ghz)
        assert np.array_equal(a.samples.depth_nm, b.samples.depth_nm)
        assert np.array_equal(a.samples.eps_crystal, b.samples.eps_crystal)

    def test_positions_inside_aperture_and_substrate(self, cfg, field):
        pos = cfg.position
        res = sample_post_deposition(20_000, pos, field, PARAMS, seed=3, intrinsic=SIGMA)
        s = res.samples
        assert np.all(np.abs(s.x_nm) <= pos.aperture_x_nm / 2)
        assert np.all(np.abs(s.y_nm) <= pos.aperture_y_nm / 2)
        assert np.all(s.depth_nm >= 0.0)
        assert np.all(s.depth_nm <= field.depth_max_nm)
        cs = field.cross_section
        for i in range(0, 20_000, 997):
            assert point_in_section(cs, s.y_nm[i], s.depth_nm[i])

    def test_depth_distribution_matches_straggle(self, cfg, field):
        pos = cfg.position
        res = sample_post_deposition(100_000, pos, field, PARAMS, seed=4, intrinsic=SIGMA)
        assert res.samples.depth_nm.mean() == pytest.approx(35.0, abs=0.2)
        assert res.samples.depth_nm.std() == pytest.approx(10.0, abs=0.2)

    def test_degenerate_geometry_raises(self, cfg, field):
        pos = PositionDistribution(
            aperture_x_nm=60, aperture_y_nm=60,
            depth_mean_nm=5000.0, depth_straggle_nm=1.0,
        )
        with pytest.raises(DegenerateGeometry):
            sample_post_deposition(50, pos, field, PARAMS, seed=5, intrinsic=SIGMA)

    def test_intrinsic_widens_distribution(self, cfg, field):
        pos = cfg.position
        plain = sample_post_deposition(50_000, pos, field, PARAMS, seed=6, intrinsic=FILM_ONLY)
        mixed = sample_post_deposition(50_000, pos, field, PARAMS, seed=6, intrinsic=SIGMA)
        assert mixed.summary.std_ghz > plain.summary.std_ghz

    def test_two_orientation_classes_under_beam_strain(self, cfg, field):
        # unequal in-plane strain splits the four <111> axes into two pairs
        res = sample_post_deposition(
            20_000, cfg.position, field, PARAMS, seed=8, intrinsic=FILM_ONLY
        )
        s = res.samples
        cls_a = np.isin(s.orientation_id, [0, 1])
        spread_within = max(
            s.gss_ghz[cls_a].std(), s.gss_ghz[~cls_a].std()
        )
        split = abs(s.gss_ghz[cls_a].mean() - s.gss_ghz[~cls_a].mean())
        assert split > 5 * spread_within


def _no_draw(*args, **kwargs):
    raise AssertionError("the ensemble was drawn")


class TestMonotoneCalibration:
    def test_mean_monotone_in_sigma(self):
        means = [
            sample_pre_deposition(
                30_000, IntrinsicStrainModel(s), PARAMS, seed=11
            ).summary.mean_ghz
            for s in np.linspace(0.0, 4e-5, 9)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_mean_monotone_in_stress(self, cfg):
        pos = cfg.position
        means = []
        for stress in np.linspace(0.0, 1200.0, 7):
            stack = cfg.stack
            stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
            res = sample_post_deposition(
                30_000, pos, solve_beam_state(stack), PARAMS, seed=12, intrinsic=SIGMA
            )
            means.append(res.summary.mean_ghz)
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_convergence_with_n(self):
        a = sample_pre_deposition(40_000, SIGMA, PARAMS, seed=13)
        b = sample_pre_deposition(80_000, SIGMA, PARAMS, seed=13)
        bound = 3.0 * a.summary.std_ghz / math.sqrt(40_000)
        assert abs(b.summary.mean_ghz - a.summary.mean_ghz) < bound

    def test_calibrate_sigma_floor_target(self):
        sigma, gss = calibrate_sigma(46.0, 1000, seed=14)
        assert sigma == 0.0
        assert np.all(gss == 46.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_calibrate_sigma_floor_target_checks_n(self, n):
        # the floor shortcut draws nothing but still validates the request
        with pytest.raises(EmptyRequest):
            calibrate_sigma(46.0, n, seed=14)

    def test_calibrate_sigma_below_floor(self):
        with pytest.raises(Infeasible):
            calibrate_sigma(30.0, 1000, seed=15)

    def test_calibrate_sigma_hits_target_and_is_deterministic(self):
        s1, gss1 = calibrate_sigma(119.0, 50_000, seed=16)
        s2, gss2 = calibrate_sigma(119.0, 50_000, seed=16)
        assert s1 == s2
        assert np.array_equal(gss1, gss2)
        res = sample_pre_deposition(50_000, IntrinsicStrainModel(s1), PARAMS, seed=16)
        assert abs(res.summary.mean_ghz - 119.0) <= 0.5

    def test_calibrate_sigma_thread_invariant(self):
        s1, gss1 = calibrate_sigma(119.0, 50_000, seed=17, threads=1)
        s2, gss2 = calibrate_sigma(119.0, 50_000, seed=17, threads=6)
        assert s1 == s2
        assert np.array_equal(gss1, gss2)

    def test_calibrate_stress_floor_target(self, cfg):
        stress, gss = calibrate_film_stress(
            46.0, cfg.stack, cfg.position,
            PARAMS, 1000, seed=18, intrinsic=FILM_ONLY,
        )
        assert stress == 0.0
        assert np.all(gss == 46.0)

    def test_calibrate_stress_below_floor(self, cfg):
        with pytest.raises(Infeasible):
            calibrate_film_stress(
                10.0, cfg.stack, cfg.position,
                PARAMS, 1000, seed=19, intrinsic=SIGMA,
            )

    @pytest.mark.parametrize("kwargs", [{}, {"n": 1000}])
    def test_calibrate_stress_has_no_default_n_or_seed(self, cfg, kwargs):
        with pytest.raises(TypeError):
            calibrate_film_stress(608.0, cfg.stack, cfg.position, PARAMS, **kwargs)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_calibrate_sigma_non_finite_target(self, target, monkeypatch):
        # rejected before the ensemble is drawn
        monkeypatch.setattr(kernels, "draw_pre_block", _no_draw)
        with pytest.raises(Infeasible, match="not finite"):
            calibrate_sigma(target, 1000, seed=15)

    @pytest.mark.parametrize("target", [math.nan, math.inf])
    def test_calibrate_stress_non_finite_target(self, cfg, target, monkeypatch):
        monkeypatch.setattr(kernels, "draw_post_block", _no_draw)
        with pytest.raises(Infeasible, match="not finite"):
            calibrate_film_stress(
                target, cfg.stack, cfg.position,
                PARAMS, 1000, seed=19, intrinsic=SIGMA,
            )

    def test_calibrate_stress_hits_target(self, cfg):
        pos = cfg.position
        stack = cfg.stack
        stress, _ = calibrate_film_stress(
            608.0, stack, pos, PARAMS, 50_000, seed=20, intrinsic=SIGMA,
        )
        stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
        res = sample_post_deposition(
            50_000, pos, solve_beam_state(stack), PARAMS, seed=20, intrinsic=SIGMA,
        )
        assert abs(res.summary.mean_ghz - 608.0) <= 0.5

    def test_thicker_film_needs_less_stress(self, cfg):
        pos = cfg.position
        base = cfg.stack
        thick = replace(base, film=replace(base.film, thickness_nm=120.0))
        s_base, _ = calibrate_film_stress(400.0, base, pos, PARAMS, 20_000, seed=21,
                                          intrinsic=SIGMA)
        s_thick, _ = calibrate_film_stress(400.0, thick, pos, PARAMS, 20_000, seed=21,
                                           intrinsic=SIGMA)
        assert s_thick < s_base

    def test_cdf_dominance_post_over_pre(self, cfg):
        # calibrated configs: the strained population stochastically
        # dominates above 200 GHz
        sigma, _ = calibrate_sigma(119.0, 100_000, seed=22)
        pre = sample_pre_deposition(
            100_000, IntrinsicStrainModel(sigma), PARAMS, seed=22
        )
        pos = cfg.position
        stack = cfg.stack
        stress, _ = calibrate_film_stress(
            608.0, stack, pos, PARAMS, 100_000, seed=22,
            intrinsic=IntrinsicStrainModel(sigma),
        )
        stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
        post = sample_post_deposition(
            100_000, pos, solve_beam_state(stack), PARAMS, seed=22,
            intrinsic=IntrinsicStrainModel(sigma),
        )
        for g in np.linspace(200.0, 1500.0, 27):
            p_pre = np.mean(pre.samples.gss_ghz >= g)
            p_post = np.mean(post.samples.gss_ghz >= g)
            assert p_post >= p_pre


# six strain components at the scale of the calibrated ensembles
COMPONENTS = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6).map(
    lambda c: 1e-4 * np.array(c)
)
ORIENTATION_IDS = st.integers(0, len(ORIENTATIONS) - 1)


def _ab(eps):
    c = eg_couplings(eps, PARAMS)
    return np.array([c.alpha_ghz, c.beta_ghz])


def _coupling_atol(eps):
    """Cancellation floor for 1e-12 relative agreement of (alpha, beta)."""
    scale = abs(PARAMS.d_ghz_per_strain) + abs(PARAMS.f_ghz_per_strain)
    return 1e-12 * 2.0 * scale * np.abs(eps).sum()


class TestCouplingTables:
    """The coupling tables the samplers evaluate, against core."""

    @given(e=COMPONENTS, o=ORIENTATION_IDS)
    @settings(max_examples=60, deadline=None)
    def test_intrinsic_rows_match_core(self, e, o):
        # one table W for every orientation: a defect-frame tensor taken to
        # crystal axes by orientation o and back couples through W alike
        rows = pop._intrinsic_rows(PARAMS)
        assert rows.shape == (2, 6)
        crystal = StrainTensor(*(pop._DEFECT_TO_CRYSTAL[o] @ e), frame=Frame.CRYSTAL)
        for tensor in (StrainTensor(*e, frame=Frame.DEFECT),
                       defect_frame_strain(crystal, ORIENTATIONS[o])):
            np.testing.assert_allclose(rows @ e, _ab(tensor), rtol=1e-12,
                                       atol=_coupling_atol(e))

    @given(
        # film stresses of either sign, away from the subnormal range
        stress=st.floats(1e-3, 2000.0) | st.floats(-2000.0, -1e-3),
        depth_fraction=st.floats(0.0, 1.0),
        o=ORIENTATION_IDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_film_rows_match_core(self, cfg, stress, depth_fraction, o):
        stack = cfg.stack
        stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
        field = solve_beam_state(stack)
        depth = depth_fraction * field.depth_max_nm
        eyy = float(field.axial_strain(depth))
        film_crystal, film_rows = pop._film_response(field, PARAMS)
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
        got = pop._DEFECT_TO_CRYSTAL[o] @ e
        assert np.max(np.abs(got - want.components)) <= 1e-18

    def test_stored_tensors_reproduce_the_splitting(self, cfg, field):
        # crystal-frame tensors written by the samplers give back each
        # sample's splitting through the scalar core chain
        ensembles = [sample_pre_deposition(64, SIGMA, PARAMS, seed=31)] + [
            sample_post_deposition(64, cfg.position, field, PARAMS,
                                   seed=31, intrinsic=intrinsic)
            for intrinsic in (FILM_ONLY, SIGMA)
        ]
        for res in ensembles:
            s = res.samples
            for i in range(len(s)):
                eps = StrainTensor(*s.eps_crystal[i], frame=Frame.CRYSTAL)
                gss = splitting_from_strain(eps, ORIENTATIONS[s.orientation_id[i]], PARAMS)
                assert gss == pytest.approx(s.gss_ghz[i], rel=1e-12)


def test_post_oracle_needs_the_aperture_inside_the_section(cfg, field):
    # the oracle integrates depth only; an aperture wider than the section
    # at some integrated depth would make rejection cut laterally too
    wide = replace(cfg.position, aperture_y_nm=900.0)
    with pytest.raises(AssertionError, match="aperture"):
        post_gss_moments(field, SIGMA.sigma, PARAMS, wide)


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
def test_written_intrinsic_tensors_are_iid_in_the_defect_frame(zero_field, cfg, phase):
    # the sampler writes sigma D[o] Q^T z'; taken back to the defect frame by
    # core, its six components are iid Normal(0, sigma^2) at n = 1e6: each
    # variance within 4 SEM of sigma^2, each cross-covariance and mean
    # within 4 SEM of 0 (zero film stress leaves intrinsic strain alone)
    n, sigma = 1_000_000, SIGMA.sigma
    if phase == "pre":
        s = sample_pre_deposition(n, SIGMA, PARAMS, seed=41).samples
    else:
        s = sample_post_deposition(n, cfg.position, zero_field, PARAMS,
                                   seed=41, intrinsic=SIGMA).samples
    e = np.empty((n, 6))
    for o, to_defect in enumerate(_crystal_to_defect_maps()):
        sel = s.orientation_id == o
        e[sel] = s.eps_crystal[sel] @ to_defect.T / sigma
    cov = e.T @ e / n
    # a unit normal's mean square has variance 2/n, a product of two 1/n
    sem = np.where(np.eye(6, dtype=bool), math.sqrt(2.0 / n), math.sqrt(1.0 / n))
    assert np.max(np.abs(cov - np.eye(6)) / sem) <= 4.0
    assert np.max(np.abs(e.mean(axis=0))) <= 4.0 / math.sqrt(n)


class TestCachedCalibrationMeans:
    """Calibration steps evaluate cached couplings instead of re-sampling;
    each step's ensemble is the sampler's, bit for bit, so its mean is
    the sampler's mean."""

    N = 4096

    @given(sigma=st.floats(1e-6, 5e-5), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=15, deadline=None)
    def test_pre_mean_matches_sampler(self, sigma, seed):
        gss_at = pop._pre_gss(self.N, seed, PARAMS, None)
        want = sample_pre_deposition(self.N, IntrinsicStrainModel(sigma), PARAMS,
                                     seed).samples.gss_ghz
        assert np.array_equal(gss_at(sigma), want)

    @given(
        stress=st.floats(0.0, 2000.0),
        sigma=st.just(0.0) | st.floats(1e-6, 5e-5),
        seed=st.integers(0, 2 ** 32),
    )
    @example(stress=700.0, sigma=0.0, seed=0)  # film strain only
    @settings(max_examples=15, deadline=None)
    def test_post_mean_matches_sampler(self, cfg, stress, sigma, seed):
        stack, pos = cfg.stack, cfg.position
        intrinsic = IntrinsicStrainModel(sigma)
        gss_at = pop._post_gss(stack, pos, PARAMS, self.N, seed, intrinsic, None)
        trial = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
        want = sample_post_deposition(
            self.N, pos, solve_beam_state(trial), PARAMS, seed=seed, intrinsic=intrinsic,
        ).samples.gss_ghz
        assert np.array_equal(gss_at(stress), want)

    @pytest.mark.parametrize("phase", ["pre", "post"])
    def test_pair_only_draw_is_thread_invariant(self, cfg, phase):
        n = 2 * kernels.CHUNK + 7

        def gss(threads):
            if phase == "pre":
                return pop._pre_gss(n, 35, PARAMS, threads)(SIGMA.sigma)
            return pop._post_gss(cfg.stack, cfg.position, PARAMS, n, 35, SIGMA,
                                 threads)(700.0)

        assert np.array_equal(gss(1), gss(2))

    def test_calibrations_draw_once_and_never_resample(self, cfg, monkeypatch):
        def resampled(*args, **kwargs):
            raise AssertionError("a calibration step re-sampled the ensemble")

        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name if name != "pairs" else (name, args[3]))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pop, "sample_pre_deposition", resampled)
        monkeypatch.setattr(pop, "sample_post_deposition", resampled)
        for name in ("draw_pre_block", "draw_post_block", "_orientation_np"):
            monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
        monkeypatch.setattr(kernels, "_normal_pairs_np",
                            counted("pairs", kernels._normal_pairs_np))
        sigma, _ = calibrate_sigma(119.0, self.N, seed=32)
        calibrate_film_stress(
            608.0, cfg.stack, cfg.position, PARAMS,
            self.N, seed=32, intrinsic=IntrinsicStrainModel(sigma),
        )
        # n fits in one chunk: one draw call per calibration, each drawing
        # one Box-Muller pair per emitter; only the post fit draws orientations
        assert calls == ["draw_pre_block", ("pairs", 1),
                         "draw_post_block", "_orientation_np", ("pairs", 1)]

    @pytest.mark.parametrize("target", [46.0, 119.0])
    @pytest.mark.parametrize("threads", [None, 2])
    def test_sigma_fit_returns_the_sampled_ensemble(self, target, threads):
        sigma, gss = calibrate_sigma(target, self.N, seed=33, threads=threads)
        want = sample_pre_deposition(self.N, IntrinsicStrainModel(sigma), PARAMS, 33)
        assert np.array_equal(gss, want.samples.gss_ghz)

    @pytest.mark.parametrize("target,sigma", [(46.0, 0.0), (608.0, SIGMA.sigma)])
    def test_stress_fit_returns_the_sampled_ensemble(self, cfg, target, sigma):
        stack, pos = cfg.stack, cfg.position
        intrinsic = IntrinsicStrainModel(sigma)
        stress, gss = calibrate_film_stress(target, stack, pos, PARAMS, self.N, seed=34,
                                            intrinsic=intrinsic)
        stack = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
        want = sample_post_deposition(
            self.N, pos, solve_beam_state(stack), PARAMS, seed=34, intrinsic=intrinsic,
        )
        assert np.array_equal(gss, want.samples.gss_ghz)
