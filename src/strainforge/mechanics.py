"""Composite-beam model of a thin-film-stressed cantilever.

A stressed film on top of a free-standing beam reaches equilibrium by
trading its intrinsic stress for a uniform membrane strain plus a bending
curvature of the composite section. Both follow from requiring zero net
axial force and zero net moment; the resulting axial strain is linear in
depth and linear in the film stress, an argument of ``solve_beam_state``.

Geometry convention: the cross-section polygon lives in the (y, z) plane
with z pointing up, ordered counterclockwise; the film covers every
horizontal edge at the top, and depth is measured downward from it. The
beam axis is the crystal [110] direction. A ``Layer`` is a material only:
the polygon is the substrate's shape, and the stack holds the film's
thickness.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import Frame, StrainTensor, rotate_strain
from .errors import InvalidDomain, InvalidGeometry, InvalidParameter

__all__ = [
    "Layer",
    "CrossSection",
    "LayerStack",
    "StrainField",
    "solve_beam_state",
    "strain_at",
    "beam_to_crystal",
]

# Fraction of in-plane transverse strain relative to axial strain at the
# implantation depth. The film drives both in-plane components, but a
# narrow beam relaxes the transverse one through its free sidewalls, so
# the transverse share is well below the equal-biaxial limit of 1.0.
DEFAULT_BIAXIALITY_FACTOR = 0.22

# Beam frame: x across the beam (in-plane), y along [110], z along [001].
# Rows are the beam basis vectors in crystal coordinates (proper rotation).
_SQ2 = 1.0 / math.sqrt(2.0)
BEAM_FROM_CRYSTAL = np.array(
    [[_SQ2, -_SQ2, 0.0], [_SQ2, _SQ2, 0.0], [0.0, 0.0, 1.0]]
)
CRYSTAL_FROM_BEAM = BEAM_FROM_CRYSTAL.T.copy()


@dataclass(frozen=True)
class Layer:
    """Homogeneous isotropic material; shapes and thicknesses are the stack's."""

    youngs_modulus_gpa: float
    poisson_ratio: float

    def __post_init__(self):
        if not self.youngs_modulus_gpa > 0:
            raise InvalidDomain("youngs_modulus_gpa must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise InvalidDomain("poisson_ratio must lie in [0, 0.5)")
        if not math.isfinite(self.youngs_modulus_gpa):
            raise InvalidDomain("youngs_modulus_gpa must be finite")


def _polygon_integrals(verts: np.ndarray) -> tuple[float, float, float]:
    """Shoelace integrals over a CCW polygon: area, int z dA, int z^2 dA."""
    y0, z0 = verts[:, 0], verts[:, 1]
    y1, z1 = np.roll(y0, -1), np.roll(z0, -1)
    cross = y0 * z1 - y1 * z0
    area = 0.5 * np.sum(cross)
    q = np.sum((z0 + z1) * cross) / 6.0
    i0 = np.sum((z0 * z0 + z0 * z1 + z1 * z1) * cross) / 12.0
    return float(area), float(q), float(i0)


def _segments_meet(p, q, r, s) -> bool:
    """Whether the closed segments pq and rs share a point."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1, d2, d3, d4 = orient(r, s, p), orient(r, s, q), orient(p, q, r), orient(p, q, s)
    if (d1 > 0 > d2 or d2 > 0 > d1) and (d3 > 0 > d4 or d4 > 0 > d3):
        return True
    # else they meet only where an endpoint of one lies on the other
    return any(d == 0 and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
               and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
               for d, a, b, c in ((d1, r, s, p), (d2, r, s, q), (d3, p, q, r), (d4, p, q, s)))


@dataclass(frozen=True, eq=False)
class CrossSection:
    """Substrate cross-section polygon; the film covers its whole top."""

    vertices_nm: np.ndarray
    film_width_nm: float = field(init=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices_nm, dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise InvalidGeometry("polygon needs at least 3 (y, z) vertices")
        if not np.all(np.isfinite(verts)):
            raise InvalidGeometry("polygon vertices must be finite")
        object.__setattr__(self, "vertices_nm", verts)
        area, _, _ = _polygon_integrals(verts)
        if area <= 0:
            raise InvalidGeometry(
                "polygon must have positive area with counterclockwise ordering"
            )
        # edges that are not neighbours share no point; an edge that folds back
        # along its neighbour fails too, as the fold puts a vertex on a third edge
        pts = verts.tolist()
        n = len(pts)
        for i in range(n):
            for j in range(i + 2, n - (i == 0)):
                if _segments_meet(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                    raise InvalidGeometry("polygon is self-intersecting")
        # the film's width is the summed length of the edges along the top
        y, z = verts[:, 0], verts[:, 1]
        tol = 1e-9 * max(z.max() - z.min(), 1.0)
        on_top = np.abs(z - z.max()) < tol
        lengths = np.abs(np.roll(y, -1) - y)
        width = float(lengths[on_top & np.roll(on_top, -1) & (lengths >= tol)].sum())
        if width == 0.0:
            raise InvalidGeometry("cross-section has no horizontal top edge for the film")
        object.__setattr__(self, "film_width_nm", width)

    @property
    def z_top_nm(self) -> float:
        return float(self.vertices_nm[:, 1].max())

    @property
    def depth_extent_nm(self) -> float:
        return float(self.vertices_nm[:, 1].max() - self.vertices_nm[:, 1].min())


@dataclass(frozen=True)
class LayerStack:
    """Film of ``film_thickness_nm`` on the substrate's section, [110]-aligned."""

    substrate: Layer
    cross_section: CrossSection
    film: Layer
    film_thickness_nm: float
    biaxiality_factor: float = DEFAULT_BIAXIALITY_FACTOR

    def __post_init__(self):
        if not 0.0 < self.film_thickness_nm < math.inf:
            raise InvalidDomain("film_thickness_nm must be positive and finite")
        if not 0.0 <= self.biaxiality_factor <= 1.0:
            raise InvalidDomain("biaxiality_factor must lie in [0, 1]")
        ratio = self.film_thickness_nm / self.cross_section.depth_extent_nm
        if ratio > 0.2:
            warnings.warn(
                f"film thickness is {ratio:.0%} of the substrate depth; "
                "the thin-film beam model degrades here",
                stacklevel=3,  # the caller of the generated __init__
            )


def _effective_modulus_gpa(E: float, nu: float, b: float) -> float:
    """Axial stiffness when the transverse in-plane strain is b times the
    axial strain (b = 1 recovers the biaxial plate modulus E/(1-nu))."""
    return E * (1.0 + nu * b) / (1.0 - nu * nu)


@dataclass(frozen=True)
class StrainField:
    """Depth-resolved strain evaluator produced by ``solve_beam_state``.

    Axial strain: eps_yy(depth) = membrane + curvature * (depth - neutral
    axis depth) in ``stack``; the transverse component is its biaxiality
    factor times eps_yy and the vertical one follows from plane stress.
    """

    membrane_strain: float
    curvature_per_nm: float
    neutral_axis_depth_nm: float
    stack: LayerStack

    @property
    def depth_max_nm(self) -> float:
        return self.stack.cross_section.depth_extent_nm

    def axial_strain(self, depth_nm):
        """eps_yy at the given depth(s); no domain check (see strain_at)."""
        return self.membrane_strain + self.curvature_per_nm * (
            np.asarray(depth_nm, dtype=float) - self.neutral_axis_depth_nm
        )


def solve_beam_state(stack: LayerStack, stress_mpa: float) -> StrainField:
    """Equilibrium strain state of the film + substrate composite.

    The film's intrinsic stress ``stress_mpa`` (0: before deposition) acts
    as the axial force it would carry if fully constrained (equivalently an
    eigenstrain sigma_f / E_eff, which for the equal-biaxial case is the
    familiar sigma_f (1 - nu_f) / E_f). Solving zero net force and zero net
    moment on the composite section gives the membrane strain and
    curvature; both are linear in the film stress and vanish exactly when
    it is zero. Moments are taken about the film interface, so the result
    does not depend on where the polygon's z = 0 lies.
    """
    if not math.isfinite(stress_mpa):
        raise InvalidParameter(f"film stress must be finite, got {stress_mpa} MPa")
    cs = stack.cross_section
    b = stack.biaxiality_factor
    e_sub = _effective_modulus_gpa(
        stack.substrate.youngs_modulus_gpa, stack.substrate.poisson_ratio, b
    )
    e_film = _effective_modulus_gpa(
        stack.film.youngs_modulus_gpa, stack.film.poisson_ratio, b
    )

    area_s, q_s, i_s = _polygon_integrals(cs.vertices_nm - [0.0, cs.z_top_nm])

    w_f = cs.film_width_nm
    t_f = stack.film_thickness_nm
    area_f = w_f * t_f
    z_f = 0.5 * t_f
    q_f = area_f * z_f
    i_f = w_f * t_f ** 3 / 12.0 + area_f * z_f * z_f

    s_a = e_sub * area_s + e_film * area_f
    s_q = e_sub * q_s + e_film * q_f
    s_i = e_sub * i_s + e_film * i_f

    sigma_f_gpa = stress_mpa * 1e-3
    # strain(z) = a + k z, z up from the interface; force and moment balance:
    #   s_a a + s_q k = -sigma_f area_f
    #   s_q a + s_i k = -sigma_f q_f
    det = s_a * s_i - s_q * s_q
    if det <= 0:
        raise InvalidGeometry("singular composite section")
    a = (-sigma_f_gpa * area_f * s_i + sigma_f_gpa * q_f * s_q) / det
    k = (-sigma_f_gpa * q_f * s_a + sigma_f_gpa * area_f * s_q) / det

    z_c = s_q / s_a
    return StrainField(
        membrane_strain=a + k * z_c,
        curvature_per_nm=-k,
        neutral_axis_depth_nm=-z_c,
        stack=stack,
    )


def strain_at(field: StrainField, depth_nm: float) -> StrainTensor:
    """Beam-frame strain tensor at the given depth below the film interface."""
    if not 0.0 <= depth_nm <= field.depth_max_nm:
        raise InvalidDomain(
            f"depth {depth_nm} nm outside substrate [0, {field.depth_max_nm}] nm"
        )
    eps_yy = float(field.axial_strain(depth_nm))
    eps_xx = field.stack.biaxiality_factor * eps_yy
    nu = field.stack.substrate.poisson_ratio
    eps_zz = -nu * (eps_xx + eps_yy) / (1.0 - nu)
    return StrainTensor(
        eps_xx=eps_xx, eps_yy=eps_yy, eps_zz=eps_zz,
        eps_xy=0.0, eps_yz=0.0, eps_zx=0.0,
        frame=Frame.BEAM,
    )


def beam_to_crystal(eps_beam: StrainTensor) -> StrainTensor:
    """Re-express a beam-frame tensor in crystal axes (beam y along [110])."""
    eps_beam.require_frame(Frame.BEAM)
    return rotate_strain(eps_beam, CRYSTAL_FROM_BEAM, Frame.CRYSTAL)
