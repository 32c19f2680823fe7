import numpy as np
import pytest

import strainforge._kernels as kernels
from conftest import point_in_section, section_properties
from strainforge.core import Frame, StrainTensor
from strainforge.errors import FrameMismatch, InvalidDomain, InvalidGeometry
from strainforge.mechanics import (
    CRYSTAL_FROM_BEAM,
    CrossSection,
    Layer,
    LayerStack,
    StrainField,
    beam_to_crystal,
    solve_beam_state,
    strain_at,
)


def rectangle(w, h):
    """Width w, depth h, film edge on top (z = 0 down to z = -h)."""
    return CrossSection(np.array(
        [[-w / 2, 0.0], [-w / 2, -h], [w / 2, -h], [w / 2, 0.0]]
    ))


def triangle(w, h):
    """Inverted isoceles triangle: base (film edge) on top, apex below."""
    return CrossSection(np.array([[-w / 2, 0.0], [0.0, -h], [w / 2, 0.0]]))


def stack_for(cs, *, t_f=1.0, e_s=1100.0, nu_s=0.07, e_f=250.0, nu_f=0.25, b=1.0):
    return LayerStack(
        substrate=Layer(e_s, nu_s),
        cross_section=cs,
        film=Layer(e_f, nu_f),
        film_thickness_nm=t_f,
        biaxiality_factor=b,
    )


def effective_modulus(e, nu, b):
    return e * (1.0 + nu * b) / (1.0 - nu * nu)


def bilayer_curvature_oracle(e_f, t_f, e_s, t_s, misfit):
    """Classical bimetal-strip curvature for an eigenstrain mismatch,
    independent closed form (per unit width)."""
    num = 6.0 * e_f * e_s * t_f * t_s * (t_f + t_s) * misfit
    den = (
        e_f ** 2 * t_f ** 4
        + 4.0 * e_f * e_s * t_f ** 3 * t_s
        + 6.0 * e_f * e_s * t_f ** 2 * t_s ** 2
        + 4.0 * e_f * e_s * t_f * t_s ** 3
        + e_s ** 2 * t_s ** 4
    )
    return num / den


def stoney_curvature_oracle(sigma_f_gpa, t_f, m_s, t_s):
    return 6.0 * sigma_f_gpa * t_f / (m_s * t_s ** 2)


class TestSectionProperties:
    def test_rectangle_closed_form(self):
        w, h = 120.0, 80.0
        area, centroid_depth, stiffness = section_properties(rectangle(w, h), 1.0)
        assert area == pytest.approx(w * h, rel=1e-12)
        assert centroid_depth == pytest.approx(h / 2, rel=1e-12)
        assert stiffness == pytest.approx(w * h ** 3 / 12.0, rel=1e-12)

    def test_triangle_closed_form(self):
        w, h = 300.0, 210.0
        area, centroid_depth, stiffness = section_properties(triangle(w, h), 1.0)
        assert area == pytest.approx(w * h / 2.0, rel=1e-12)
        # base is the top (film) edge: h/3 from the base
        assert centroid_depth == pytest.approx(h / 3.0, rel=1e-12)
        assert stiffness == pytest.approx(w * h ** 3 / 36.0, rel=1e-9)

    def test_modulus_scales_stiffness(self):
        cs = rectangle(10.0, 20.0)
        _, _, s1 = section_properties(cs, 1.0)
        _, _, s2 = section_properties(cs, 950.0)
        assert s2 == pytest.approx(950.0 * s1, rel=1e-12)

    def test_cyclic_permutation_invariance(self):
        w, h = 140.0, 90.0
        base = np.array([[-w / 2, 0.0], [-w / 2, -h], [w / 2, -h], [w / 2, 0.0]])
        ref = section_properties(CrossSection(base), 1.0)
        for shift in range(1, 4):
            rolled = CrossSection(np.roll(base, shift, axis=0))
            got = section_properties(rolled, 1.0)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_clockwise_polygon_rejected(self):
        verts = np.array([[-50.0, 0.0], [50.0, 0.0], [0.0, -70.0]])  # CW
        with pytest.raises(InvalidGeometry):
            CrossSection(verts)

    def test_zero_area_bowtie_rejected(self):
        # the two lobes cancel in the shoelace sum, so the area check trips
        # first; test_self_intersecting_pentagon_named covers the crossing
        bowtie = np.array(
            [[-50.0, 0.0], [50.0, -70.0], [50.0, 0.0], [-50.0, -70.0]]
        )
        with pytest.raises(InvalidGeometry, match="positive area"):
            CrossSection(bowtie)

    def test_self_intersecting_pentagon_named(self):
        # a vertex below the top edge makes two edges cross
        with pytest.raises(InvalidGeometry, match="^polygon is self-intersecting$"):
            CrossSection([[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]])

    @pytest.mark.parametrize("verts", [
        # a top edge doubling back over the one before it
        [[0, 0], [0, -10], [10, -10], [10, 0], [2, 0], [6, 0]],
        # a spike through the bottom edge that folds back onto itself
        [[0, 0], [0, -10], [5, -10], [5, -5], [5, -12], [10, -10], [10, 0]],
        # a zero-area spike down from the top
        [[0, 0], [0, -10], [10, -10], [10, 0], [5, 0], [5, -5], [5, 0]],
        # a notch whose tip touches the bottom edge
        [[0, 0], [0, -10], [10, -10], [10, 0], [6, 0], [5, -10], [4, 0]],
        # two bottom edges that overlap on [4, 6]
        [[0, 0], [0, -10], [6, -10], [6, -5], [4, -5], [4, -10], [10, -10], [10, 0]],
    ])
    def test_self_overlapping_polygon_rejected(self, verts):
        with pytest.raises(InvalidGeometry, match="^polygon is self-intersecting$"):
            CrossSection(verts)

    @pytest.mark.parametrize("repeat", [0, 1, 3])
    def test_repeated_vertex_rejected(self, repeat):
        # a zero-length edge leaves its two neighbours sharing a vertex,
        # and a closed list (last vertex = first) is one such edge
        verts = [[0.0, 0.0], [0.0, -10.0], [10.0, -10.0], [10.0, 0.0]]
        verts.insert(repeat + 1, verts[repeat])
        with pytest.raises(InvalidGeometry, match="^polygon is self-intersecting$"):
            CrossSection(verts)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidGeometry):
            CrossSection(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_needs_horizontal_top_edge(self):
        diamond = np.array(
            [[0.0, 0.0], [-50.0, -50.0], [0.0, -100.0], [50.0, -50.0]]
        )
        with pytest.raises(InvalidGeometry):
            CrossSection(diamond)

    @pytest.mark.parametrize("shift", range(4))
    def test_film_covers_the_whole_top(self, shift):
        # a vertex on the triangle's top splits it into two edges; the film
        # spans both wherever the vertex list starts
        split = CrossSection(np.roll([[-500.0, 0.0], [0.0, -700.0], [500.0, 0.0],
                                      [200.0, 0.0]], shift, axis=0))
        assert split.film_width_nm == 1000.0
        want = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0, b=0.22), 700.0)
        got = solve_beam_state(stack_for(split, t_f=60.0, b=0.22), 700.0)
        assert strain_at(got, 35.0).eps_yy == strain_at(want, 35.0).eps_yy

    @pytest.mark.parametrize("shift", range(7))
    def test_film_width_sums_disjoint_top_edges(self, shift):
        # a notch from (200, 0) down to (0, -100) and up to (-100, 0) leaves
        # top edges of 300 and 400 nm
        notched = [[-500.0, 0.0], [-500.0, -700.0], [500.0, -700.0], [500.0, 0.0],
                   [200.0, 0.0], [0.0, -100.0], [-100.0, 0.0]]
        assert CrossSection(np.roll(notched, shift, axis=0)).film_width_nm == 700.0

    def test_contains(self, cfg):
        # the scalar oracle, then the sampler's vectorized kernel against it
        cs = triangle(100.0, 100.0)
        assert point_in_section(cs, 0.0, 50.0)
        assert not point_in_section(cs, 40.0, 90.0)  # outside the sloped wall
        assert not point_in_section(cs, 0.0, 150.0)  # below the apex
        rng = np.random.default_rng(3)
        for cs in (cs, rectangle(80.0, 40.0), cfg.stack.cross_section):
            y = rng.uniform(-60.0, 60.0, 500)
            depth = rng.uniform(-10.0, 1.2 * cs.depth_extent_nm, 500)
            got = kernels._point_in_poly_np(cs.vertices_nm, y, cs.z_top_nm - depth)
            want = [point_in_section(cs, yi, di) for yi, di in zip(y, depth)]
            assert got.tolist() == want
            assert 0 < sum(want) < len(want)


class TestSolveBeamState:
    def test_zero_stress_gives_zero_state(self):
        field = solve_beam_state(stack_for(rectangle(100.0, 50.0)), 0.0)
        assert field.membrane_strain == 0.0
        assert field.curvature_per_nm == 0.0

    def test_stack_before_deposition_is_unstrained(self, cfg):
        # the emitters before deposition sit in this field: e_yy is +-0 at
        # every depth, so the film adds nothing to their couplings
        field = solve_beam_state(cfg.stack, 0.0)
        assert np.all(field.axial_strain(np.linspace(0.0, field.depth_max_nm, 701)) == 0.0)

    @pytest.mark.parametrize("b", [1.0, 0.22])
    def test_rectangle_matches_bilayer_oracle_thin_film(self, b):
        w, t_s, t_f = 200.0, 400.0, 2.0  # ratio 0.005 <= 0.01
        stress = 500.0
        cs = rectangle(w, t_s)
        field = solve_beam_state(stack_for(cs, t_f=t_f, b=b), stress)
        e_f = effective_modulus(250.0, 0.25, b)
        e_s = effective_modulus(1100.0, 0.07, b)
        misfit = stress * 1e-3 / e_f
        kappa = bilayer_curvature_oracle(e_f, t_f, e_s, t_s, misfit)
        assert abs(field.curvature_per_nm) == pytest.approx(kappa, rel=0.01)

    def test_rectangle_matches_stoney_limit(self):
        w, t_s, t_f = 200.0, 500.0, 1.0
        stress = 700.0
        field = solve_beam_state(stack_for(rectangle(w, t_s), t_f=t_f), stress)
        m_s = effective_modulus(1100.0, 0.07, 1.0)
        kappa = stoney_curvature_oracle(stress * 1e-3, t_f, m_s, t_s)
        assert abs(field.curvature_per_nm) == pytest.approx(kappa, rel=0.01)

    def test_linearity_in_stress_is_exact(self):
        cs = triangle(1000.0, 700.0)
        stack = stack_for(cs, t_f=60.0, b=0.22)
        f1 = solve_beam_state(stack, 350.0)
        f2 = solve_beam_state(stack, 700.0)
        assert f2.membrane_strain == 2.0 * f1.membrane_strain
        assert f2.curvature_per_nm == 2.0 * f1.curvature_per_nm

    def test_force_and_moment_balance(self):
        # integrate the axial stress implied by the returned strain field
        # (film eigenstress included) over the composite section
        w, h, t_f, b = 1000.0, 700.0, 60.0, 0.22
        stress_gpa = 0.7
        field = solve_beam_state(stack_for(triangle(w, h), t_f=t_f, b=b), 700.0)
        e_s = effective_modulus(1100.0, 0.07, b)
        e_f = effective_modulus(250.0, 0.25, b)

        depths = np.linspace(0.0, h, 200_001)
        eps = field.axial_strain(depths)
        width = w * (h - depths) / h  # inverted triangle
        mids = 0.5 * (depths[:-1] + depths[1:])
        d_depth = np.diff(depths)
        eps_mid = 0.5 * (eps[:-1] + eps[1:])
        w_mid = 0.5 * (width[:-1] + width[1:])
        force_sub = np.sum(e_s * eps_mid * w_mid * d_depth)
        moment_sub = np.sum(e_s * eps_mid * w_mid * mids * d_depth)

        film_depths = np.linspace(-t_f, 0.0, 20_001)
        eps_f = field.axial_strain(film_depths)
        mids_f = 0.5 * (film_depths[:-1] + film_depths[1:])
        d_f = np.diff(film_depths)
        eps_f_mid = 0.5 * (eps_f[:-1] + eps_f[1:])
        force_film = np.sum((e_f * eps_f_mid + stress_gpa) * w * d_f)
        moment_film = np.sum((e_f * eps_f_mid + stress_gpa) * w * mids_f * d_f)

        scale_f = stress_gpa * w * t_f
        scale_m = scale_f * h
        assert abs(force_sub + force_film) < 1e-6 * scale_f
        assert abs(moment_sub + moment_film) < 1e-6 * scale_m

    @pytest.mark.parametrize("offset", [-1e6, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10])
    def test_translation_in_z_changes_nothing(self, offset):
        # moments are taken about the film interface, so moving the polygon
        # in z (exactly representable here) leaves every strain bit unchanged
        verts = triangle(1000.0, 700.0).vertices_nm
        base = solve_beam_state(stack_for(CrossSection(verts), t_f=60.0, b=0.22), 700.0)
        moved = CrossSection(verts + [0.0, offset])
        field = solve_beam_state(stack_for(moved, t_f=60.0, b=0.22), 700.0)
        depths = np.linspace(0.0, 700.0, 71)
        assert field.axial_strain(depths).tolist() == base.axial_strain(depths).tolist()

    def test_tensile_film_compresses_interface(self):
        # film stays tensile, substrate top goes compressive
        t_s, t_f = 400.0, 2.0
        field = solve_beam_state(stack_for(rectangle(100.0, t_s), t_f=t_f), 500.0)
        interface = strain_at(field, 0.0).eps_yy
        e_f = effective_modulus(250.0, 0.25, 1.0)
        film_elastic = field.axial_strain(-t_f / 2) + 0.5 / e_f
        assert interface < 0.0
        assert film_elastic > 0.0
        assert np.sign(interface) != np.sign(film_elastic)

    def test_film_thickness_warning(self):
        cs = rectangle(100.0, 100.0)
        with pytest.warns(UserWarning) as record:
            stack_for(cs, t_f=30.0)
        assert record[0].filename == __file__  # the warning names the caller


class TestStrainAt:
    def test_zero_field_any_depth(self):
        field = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0), 0.0)
        for depth in (0.0, 35.0, 350.0, 700.0):
            eps = strain_at(field, depth)
            assert np.all(eps.components == 0.0)
            assert eps.frame is Frame.BEAM

    def test_out_of_domain(self):
        field = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0), 700.0)
        with pytest.raises(InvalidDomain):
            strain_at(field, -1.0)
        with pytest.raises(InvalidDomain):
            strain_at(field, 701.0)

    def test_zero_at_neutral_axis_when_membrane_vanishes(self):
        base = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0, b=0.22), 700.0)
        field = StrainField(
            membrane_strain=0.0,
            curvature_per_nm=base.curvature_per_nm,
            neutral_axis_depth_nm=base.neutral_axis_depth_nm,
            stack=base.stack,
        )
        eps = strain_at(field, field.neutral_axis_depth_nm)
        assert eps.eps_yy == 0.0

    def test_component_relations(self):
        b, nu = 0.22, 0.07
        field = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0, b=b), 700.0)
        eps = strain_at(field, 35.0)
        assert eps.eps_xx == pytest.approx(b * eps.eps_yy, rel=1e-12)
        assert eps.eps_zz == pytest.approx(
            -nu * (eps.eps_xx + eps.eps_yy) / (1 - nu), rel=1e-12
        )
        assert eps.eps_xy == eps.eps_yz == eps.eps_zx == 0.0

    def test_strain_linear_in_depth(self):
        field = solve_beam_state(stack_for(triangle(1000.0, 700.0), t_f=60.0), 700.0)
        d = np.array([10.0, 20.0, 30.0])
        vals = [strain_at(field, x).eps_yy for x in d]
        assert vals[2] - vals[1] == pytest.approx(vals[1] - vals[0], rel=1e-9)


class TestBeamToCrystal:
    def test_zero(self):
        out = beam_to_crystal(StrainTensor.zero(Frame.BEAM))
        assert out.frame is Frame.CRYSTAL
        assert np.all(out.components == 0.0)

    def test_hydrostatic(self):
        t = StrainTensor(2e-4, 2e-4, 2e-4, 0, 0, 0, Frame.BEAM)
        out = beam_to_crystal(t)
        assert np.allclose(out.components, t.components, atol=1e-19)

    def test_pure_axial_maps_to_45_degree_oracle(self):
        s = 4e-4
        t = StrainTensor(0, s, 0, 0, 0, 0, Frame.BEAM)
        out = beam_to_crystal(t)
        # oracle: beam y axis is [110]/sqrt(2) in crystal coordinates
        y_b = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
        expected = s * np.outer(y_b, y_b)
        assert np.allclose(out.matrix, expected, atol=1e-19)
        assert out.eps_xx == pytest.approx(s / 2, rel=1e-12)
        assert out.eps_yy == pytest.approx(s / 2, rel=1e-12)
        assert out.eps_xy == pytest.approx(s / 2, rel=1e-12)
        assert out.eps_zz == 0.0

    def test_rotation_matrix_is_proper(self):
        assert np.allclose(CRYSTAL_FROM_BEAM @ CRYSTAL_FROM_BEAM.T, np.eye(3))
        assert np.linalg.det(CRYSTAL_FROM_BEAM) == pytest.approx(1.0, abs=1e-12)

    def test_frame_mismatch(self):
        with pytest.raises(FrameMismatch):
            beam_to_crystal(StrainTensor.zero(Frame.CRYSTAL))


class TestLayerValidation:
    def test_bad_thickness(self):
        # a layer is a material; the film's thickness is the stack's
        with pytest.raises(InvalidDomain):
            stack_for(rectangle(100.0, 100.0), t_f=0.0)

    def test_bad_poisson(self):
        with pytest.raises(InvalidDomain):
            Layer(100.0, 0.5)

    def test_bad_modulus(self):
        with pytest.raises(InvalidDomain):
            Layer(-5.0, 0.2)
