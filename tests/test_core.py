import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import splitting_from_strain
from strainforge.core import (
    ORIENTATIONS,
    DefectOrientation,
    EgCouplings,
    Frame,
    SivParameters,
    StrainTensor,
    defect_frame_strain,
    eg_couplings,
    ground_state_splitting,
    rotate_strain,
)
from strainforge.errors import FrameMismatch, InvalidRotation

PARAMS = SivParameters()


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q.T


def tensor(comps, frame=Frame.CRYSTAL):
    return StrainTensor(*comps, frame=frame)


def eigen_oracle_gss(alpha, beta, lam):
    """Splitting as the eigenvalue gap of the 2x2 orbital Hamiltonian."""
    h = np.array(
        [[alpha, beta + 0.5j * lam], [beta - 0.5j * lam, -alpha]], dtype=complex
    )
    ev = np.linalg.eigvalsh(h)
    return float(ev[1] - ev[0])


class TestStrainTensor:
    def test_matrix_is_symmetric(self):
        t = tensor([1e-4, 2e-4, 3e-4, 4e-5, 5e-5, 6e-5])
        assert np.allclose(t.matrix, t.matrix.T)
        back = StrainTensor.from_matrix(t.matrix, Frame.CRYSTAL)
        assert np.array_equal(back.components, t.components)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            tensor([np.nan, 0, 0, 0, 0, 0])

    def test_rejects_large_strain(self):
        with pytest.raises(ValueError):
            tensor([0.2, 0, 0, 0, 0, 0])

    def test_from_matrix_rejects_asymmetric(self):
        m = np.array([[0.0, 1e-4, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            StrainTensor.from_matrix(m, Frame.CRYSTAL)

    def test_frame_check(self):
        t = tensor([0, 0, 0, 0, 0, 0], frame=Frame.BEAM)
        with pytest.raises(FrameMismatch):
            t.require_frame(Frame.CRYSTAL)


class TestRotateStrain:
    def test_identity(self):
        t = tensor([1e-4, -2e-4, 3e-4, 4e-5, -5e-5, 6e-5])
        out = rotate_strain(t, np.eye(3), Frame.CRYSTAL)
        assert np.allclose(out.components, t.components, atol=1e-18)

    def test_hydrostatic_invariant_under_any_rotation(self):
        rng = np.random.default_rng(1)
        s = 3e-4
        t = tensor([s, s, s, 0, 0, 0])
        for _ in range(20):
            out = rotate_strain(t, random_rotation(rng), Frame.CRYSTAL)
            assert np.allclose(out.components, t.components, atol=1e-18)

    def test_uniaxial_to_defect_frame_matches_dense_product(self):
        # independent oracle: dense 3x3 matrix product
        t = tensor([0, 0, 1e-4, 0, 0, 0])
        rot = ORIENTATIONS[0].rotation
        expected = rot @ t.matrix @ rot.T
        out = rotate_strain(t, rot, Frame.DEFECT)
        assert out.frame is Frame.DEFECT
        assert np.allclose(out.matrix, expected, rtol=0, atol=1e-20)

    def test_trace_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            comps = rng.uniform(-1e-3, 1e-3, 6)
            t = tensor(comps)
            out = rotate_strain(t, random_rotation(rng), Frame.CRYSTAL)
            tr_in = np.trace(t.matrix)
            tr_out = np.trace(out.matrix)
            assert abs(tr_out - tr_in) <= 1e-12 * max(abs(tr_in), 1e-12)

    def test_rejects_non_orthonormal(self):
        t = tensor([1e-4, 0, 0, 0, 0, 0])
        with pytest.raises(InvalidRotation):
            rotate_strain(t, np.eye(3) * 1.01, Frame.CRYSTAL)

    def test_rejects_reflection(self):
        t = tensor([1e-4, 0, 0, 0, 0, 0])
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotation):
            rotate_strain(t, refl, Frame.CRYSTAL)


class TestDefectOrientations:
    def test_four_axes_are_proper_frames(self):
        for o in ORIENTATIONS:
            r = o.rotation
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert abs(np.linalg.det(r) - 1.0) < 1e-12
            assert np.allclose(r[2], o.axis, atol=1e-12)
            assert abs(np.linalg.norm(o.axis) - 1.0) < 1e-12

    def test_axes_are_the_four_111_directions(self):
        axes = {tuple(np.sign(o.axis).astype(int)) for o in ORIENTATIONS}
        assert axes == {(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)}

    def test_rejects_bad_rotation(self):
        with pytest.raises(InvalidRotation):
            DefectOrientation(axis=np.array([1.0, 1.0, 1.0]), rotation=np.eye(3))

    def test_zero_tensor_maps_to_zero(self):
        z = StrainTensor.zero(Frame.CRYSTAL)
        for o in ORIENTATIONS:
            out = defect_frame_strain(z, o)
            assert np.all(out.components == 0.0)

    def test_hydrostatic_identical_for_all_orientations(self):
        t = tensor([2e-4, 2e-4, 2e-4, 0, 0, 0])
        for o in ORIENTATIONS:
            out = defect_frame_strain(t, o)
            assert np.allclose(out.components, t.components, atol=1e-18)

    def test_wrong_frame_rejected(self):
        t = tensor([0, 0, 0, 0, 0, 0], frame=Frame.DEFECT)
        with pytest.raises(FrameMismatch):
            defect_frame_strain(t, ORIENTATIONS[0])

    def test_equal_biaxial_gives_identical_splitting_for_all_orientations(self):
        # symmetry of the four <111> axes under (001)-plane biaxial strain,
        # cross-checked against explicit rotation
        t = tensor([1e-4, 1e-4, 0, 0, 0, 0])
        values = [splitting_from_strain(t, o, PARAMS) for o in ORIENTATIONS]
        oracle = []
        for o in ORIENTATIONS:
            m = o.rotation @ t.matrix @ o.rotation.T
            alpha = PARAMS.d_ghz_per_strain * (m[0, 0] - m[1, 1]) \
                + PARAMS.f_ghz_per_strain * m[2, 0]
            beta = -2.0 * PARAMS.d_ghz_per_strain * m[0, 1] \
                + PARAMS.f_ghz_per_strain * m[1, 2]
            oracle.append(eigen_oracle_gss(alpha, beta, PARAMS.lambda_so_ghz))
        assert np.allclose(values, values[0], rtol=1e-12)
        assert np.allclose(values, oracle, rtol=1e-9)


class TestEgCouplings:
    def test_zero_strain(self):
        c = eg_couplings(StrainTensor.zero(Frame.DEFECT), PARAMS)
        assert c.alpha_ghz == 0.0 and c.beta_ghz == 0.0

    def test_biaxial_defect_frame_cancels(self):
        t = tensor([3e-4, 3e-4, 0, 0, 0, 0], frame=Frame.DEFECT)
        c = eg_couplings(t, PARAMS)
        assert c.alpha_ghz == 0.0 and c.beta_ghz == 0.0

    def test_linearity_in_eps_xx(self):
        t = tensor([1e-4, 0, 0, 0, 0, 0], frame=Frame.DEFECT)
        c = eg_couplings(t, PARAMS)
        assert c.alpha_ghz == pytest.approx(PARAMS.d_ghz_per_strain * 1e-4, rel=1e-15)
        assert c.beta_ghz == 0.0

    def test_independent_of_eps_zz(self):
        base = tensor([1e-4, -2e-5, 0, 3e-5, 0, 0], frame=Frame.DEFECT)
        shifted = tensor([1e-4, -2e-5, 7e-4, 3e-5, 0, 0], frame=Frame.DEFECT)
        assert eg_couplings(base, PARAMS) == eg_couplings(shifted, PARAMS)

    def test_wrong_frame(self):
        with pytest.raises(FrameMismatch):
            eg_couplings(StrainTensor.zero(Frame.CRYSTAL), PARAMS)


class TestGroundStateSplitting:
    def test_unstrained_value(self):
        assert ground_state_splitting(EgCouplings(0.0, 0.0), PARAMS) == 46.0

    def test_pythagorean_case(self):
        p = SivParameters(lambda_so_ghz=1e-12)  # effectively zero floor
        val = ground_state_splitting(EgCouplings(3.0, 4.0), p)
        assert val == pytest.approx(10.0, rel=1e-12)

    def test_against_eigen_oracle_single(self):
        val = ground_state_splitting(EgCouplings(100.0, 0.0), PARAMS)
        assert val == pytest.approx(math.sqrt(46.0 ** 2 + 4 * 100.0 ** 2), rel=1e-12)
        assert val == pytest.approx(eigen_oracle_gss(100.0, 0.0, 46.0), rel=1e-9)

    def test_eigen_oracle_equivalence_1000_random(self):
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            alpha, beta = rng.uniform(-500, 500, 2)
            lam = rng.uniform(1e-3, 200)
            closed = ground_state_splitting(
                EgCouplings(alpha, beta), SivParameters(lambda_so_ghz=lam)
            )
            oracle = eigen_oracle_gss(alpha, beta, lam)
            assert abs(closed - oracle) <= 1e-9 * oracle

    @given(
        alpha=st.floats(-1e4, 1e4),
        beta=st.floats(-1e4, 1e4),
        lam=st.floats(1e-6, 1e3),
    )
    def test_floor_property(self, alpha, beta, lam):
        val = ground_state_splitting(
            EgCouplings(alpha, beta), SivParameters(lambda_so_ghz=lam)
        )
        assert val >= lam

    @staticmethod
    def _z_rotation(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])

    def test_threefold_gauge_invariance(self):
        # the defect frame is fixed only up to the threefold symmetry about
        # its own axis: +-120 degree re-gauging must not move the splitting
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = tensor(list(rng.uniform(-5e-4, 5e-4, 6)), frame=Frame.DEFECT)
            base = ground_state_splitting(eg_couplings(t, PARAMS), PARAMS)
            for theta in (2.0 * math.pi / 3.0, -2.0 * math.pi / 3.0):
                rotated = rotate_strain(t, self._z_rotation(theta), Frame.DEFECT)
                spun = ground_state_splitting(eg_couplings(rotated, PARAMS), PARAMS)
                assert spun == pytest.approx(base, rel=1e-9, abs=1e-9)

    @given(theta=st.floats(0.0, 2.0 * math.pi), data=st.data())
    @settings(max_examples=60)
    def test_continuous_gauge_invariance_pure_d_coupling(self, theta, data):
        # with the axial-shear coupling off, (alpha, beta) spins at twice
        # the gauge angle and alpha^2 + beta^2 is invariant for any theta
        params = SivParameters(f_ghz_per_strain=0.0)
        comps = [
            data.draw(st.floats(-5e-4, 5e-4), label=f"c{i}") for i in range(6)
        ]
        t = tensor(comps, frame=Frame.DEFECT)
        base = ground_state_splitting(eg_couplings(t, params), params)
        rotated = rotate_strain(t, self._z_rotation(theta), Frame.DEFECT)
        spun = ground_state_splitting(eg_couplings(rotated, params), params)
        assert spun == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_mirror_gauge_leaves_splitting_unchanged(self):
        c = EgCouplings(37.0, -18.5)
        mirrored = EgCouplings(c.alpha_ghz, -c.beta_ghz)
        assert ground_state_splitting(c, PARAMS) == ground_state_splitting(
            mirrored, PARAMS
        )

    def test_hydrostatic_immunity_exact_on_dyadic_lattice(self):
        # dyadic values make the component sums exact in binary, so the
        # couplings are bit-identical after adding s*I
        rng = np.random.default_rng(7)
        for _ in range(200):
            comps = rng.integers(-1000, 1000, 6) * 2.0 ** -24
            s = int(rng.integers(-500, 500)) * 2.0 ** -19
            t = tensor(list(comps), frame=Frame.DEFECT)
            shifted = tensor(
                [comps[0] + s, comps[1] + s, comps[2] + s, *comps[3:]],
                frame=Frame.DEFECT,
            )
            a = ground_state_splitting(eg_couplings(t, PARAMS), PARAMS)
            b = ground_state_splitting(eg_couplings(shifted, PARAMS), PARAMS)
            assert a == b

    def test_linear_in_strain_scale_without_floor(self):
        p = SivParameters(lambda_so_ghz=1e-30)
        comps = np.array([1e-4, -3e-5, 2e-5, 4e-5, -1e-5, 5e-5])
        base = ground_state_splitting(
            eg_couplings(tensor(list(comps), frame=Frame.DEFECT), p), p
        )
        for k in (2.0, 0.5, 8.0):  # powers of two scale exactly
            scaled = ground_state_splitting(
                eg_couplings(tensor(list(k * comps), frame=Frame.DEFECT), p), p
            )
            assert scaled == k * base

    def test_monotone_in_couplings(self):
        vals = [
            ground_state_splitting(EgCouplings(a, 0.0), PARAMS)
            for a in np.linspace(0, 300, 31)
        ]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSivParameters:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            SivParameters(lambda_so_ghz=0.0)

    def test_rejects_nonfinite_susceptibility(self):
        with pytest.raises(ValueError):
            SivParameters(d_ghz_per_strain=float("inf"))
