"""Strain-to-splitting model for the SiV ground state.

A strain tensor, expressed in the defect's own frame (Z along the SiV
symmetry axis), mixes the orbital doublet through two couplings

    alpha = d (eps_xx - eps_yy) + f eps_zx
    beta  = -2 d eps_xy + f eps_yz

and the ground-state splitting follows in closed form,

    gss = sqrt(lambda_so^2 + 4 (alpha^2 + beta^2)).

Hydrostatic strain and eps_zz drop out entirely; they shift absolute line
positions, which this package does not model.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FrameMismatch, InvalidDomain, InvalidParameter, InvalidRotation

__all__ = [
    "Frame",
    "StrainTensor",
    "SivParameters",
    "DefectOrientation",
    "EgCouplings",
    "ORIENTATIONS",
    "rotate_strain",
    "defect_frame_strain",
    "eg_couplings",
    "ground_state_splitting",
]

# Elasticity guard: anything beyond this is outside the small-strain regime.
MAX_STRAIN = 0.1

# Defaults for the ground-state susceptibilities (GHz per unit strain).
# Values are the measured SiV ground-state responses from the strain-tuning
# literature; they are config-overridable and every calibration figure
# carries a tolerance wide enough to absorb their uncertainty.
DEFAULT_LAMBDA_SO_GHZ = 46.0
DEFAULT_D_GHZ_PER_STRAIN = 1.3e6
DEFAULT_F_GHZ_PER_STRAIN = -1.7e6


class Frame(enum.Enum):
    """Coordinate frame a strain tensor is expressed in."""

    CRYSTAL = "crystal"
    BEAM = "beam"
    DEFECT = "defect"


@dataclass(frozen=True)
class StrainTensor:
    """Symmetric strain tensor stored as its six independent components.

    Component order: (eps_xx, eps_yy, eps_zz, eps_xy, eps_yz, eps_zx),
    all dimensionless.
    """

    eps_xx: float
    eps_yy: float
    eps_zz: float
    eps_xy: float
    eps_yz: float
    eps_zx: float
    frame: Frame = Frame.CRYSTAL

    def __post_init__(self):
        comps = self.components
        if not np.all(np.isfinite(comps)):
            raise InvalidDomain("strain components must be finite")
        if np.max(np.abs(comps)) >= MAX_STRAIN:
            raise InvalidDomain(
                f"|eps| must stay below {MAX_STRAIN} (small-strain regime)"
            )

    @property
    def components(self) -> np.ndarray:
        return np.array(
            [self.eps_xx, self.eps_yy, self.eps_zz,
             self.eps_xy, self.eps_yz, self.eps_zx]
        )

    @property
    def matrix(self) -> np.ndarray:
        """Dense symmetric 3x3 representation."""
        return np.array(
            [
                [self.eps_xx, self.eps_xy, self.eps_zx],
                [self.eps_xy, self.eps_yy, self.eps_yz],
                [self.eps_zx, self.eps_yz, self.eps_zz],
            ]
        )

    @classmethod
    def from_matrix(cls, m: np.ndarray, frame: Frame) -> "StrainTensor":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameter("expected a 3x3 matrix")
        if not np.allclose(m, m.T, atol=1e-12):
            raise InvalidParameter("strain matrix must be symmetric")
        sym = 0.5 * (m + m.T)
        return cls(
            eps_xx=sym[0, 0], eps_yy=sym[1, 1], eps_zz=sym[2, 2],
            eps_xy=sym[0, 1], eps_yz=sym[1, 2], eps_zx=sym[2, 0],
            frame=frame,
        )

    @classmethod
    def zero(cls, frame: Frame = Frame.CRYSTAL) -> "StrainTensor":
        return cls(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, frame)

    def require_frame(self, frame: Frame) -> None:
        if self.frame is not frame:
            raise FrameMismatch(
                f"expected tensor in {frame.value} frame, got {self.frame.value}"
            )


@dataclass(frozen=True)
class SivParameters:
    """Spin-orbit splitting and E_g strain susceptibilities of the SiV."""

    lambda_so_ghz: float = DEFAULT_LAMBDA_SO_GHZ
    d_ghz_per_strain: float = DEFAULT_D_GHZ_PER_STRAIN
    f_ghz_per_strain: float = DEFAULT_F_GHZ_PER_STRAIN

    def __post_init__(self):
        if not self.lambda_so_ghz > 0:
            raise InvalidDomain("lambda_so_ghz must be positive")
        for name in ("d_ghz_per_strain", "f_ghz_per_strain", "lambda_so_ghz"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidDomain(f"{name} must be finite")


@dataclass(frozen=True)
class EgCouplings:
    """Strain-induced orbital couplings (GHz) entering the splitting."""

    alpha_ghz: float
    beta_ghz: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha_ghz) and math.isfinite(self.beta_ghz)):
            raise InvalidDomain("couplings must be finite")


def _check_rotation(rot: np.ndarray, tol: float) -> np.ndarray:
    rot = np.asarray(rot, dtype=float)
    if rot.shape != (3, 3):
        raise InvalidRotation("rotation must be a 3x3 matrix")
    if not np.allclose(rot @ rot.T, np.eye(3), atol=tol):
        raise InvalidRotation("rotation matrix is not orthonormal")
    if not np.isclose(np.linalg.det(rot), 1.0, atol=tol):
        raise InvalidRotation("rotation matrix must have determinant +1")
    return rot


@dataclass(frozen=True)
class DefectOrientation:
    """One of the four <111> SiV orientations.

    ``rotation`` is derived from the (normalized) ``axis``: it takes
    crystal-frame components to defect-frame components (rows are the
    defect basis vectors in crystal coordinates, Z along the symmetry axis,
    X along the in-plane <112>-type completion).
    """

    axis: np.ndarray
    rotation: np.ndarray = field(init=False)

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise InvalidParameter(f"axis must be a 3-vector, got shape {axis.shape}")
        # scaled to a largest component of 1, the norm cannot overflow or underflow
        scale = np.max(np.abs(axis))
        if not (math.isfinite(scale) and scale > 0.0):
            raise InvalidDomain(f"axis must be finite and nonzero, got {axis.tolist()}")
        axis = axis / scale
        object.__setattr__(self, "axis", axis / np.linalg.norm(axis))
        object.__setattr__(self, "rotation", _frame_for_axis(self.axis))


def _frame_for_axis(axis: np.ndarray) -> np.ndarray:
    """Deterministic right-handed defect frame for a <111>-type axis.

    X is taken along the (s1, s2, -2 s3)/sqrt(6) direction built from the
    axis signs, which is the <112>-type in-plane completion; Z x X closes
    the triad. The splitting is gauge invariant under in-plane rotation,
    so the specific X only fixes reporting conventions.
    """
    s = np.sign(axis)
    s[s == 0] = 1.0
    x = np.array([s[0], s[1], -2.0 * s[2]]) / math.sqrt(6.0)
    x = x - np.dot(x, axis) * axis
    x = x / np.linalg.norm(x)
    y = np.cross(axis, x)
    return np.stack([x, y, axis])


# The four <111> orientations, in a fixed order used by orientation ids.
ORIENTATIONS: tuple[DefectOrientation, ...] = tuple(
    DefectOrientation(axis=np.array(a, dtype=float))
    for a in ([1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1])
)


def rotate_strain(eps: StrainTensor, rot: np.ndarray, target_frame: Frame) -> StrainTensor:
    """Re-express ``eps`` under the rotation ``rot`` (rows = new basis).

    Returns R eps R^T tagged with ``target_frame``. Raises InvalidRotation
    for a non-orthonormal matrix.
    """
    rot = _check_rotation(rot, tol=1e-10)
    return StrainTensor.from_matrix(rot @ eps.matrix @ rot.T, target_frame)


def defect_frame_strain(eps_crystal: StrainTensor, orientation: DefectOrientation) -> StrainTensor:
    """Express a crystal-frame tensor in the defect frame of ``orientation``."""
    eps_crystal.require_frame(Frame.CRYSTAL)
    return rotate_strain(eps_crystal, orientation.rotation, Frame.DEFECT)


def eg_couplings(eps_defect: StrainTensor, params: SivParameters) -> EgCouplings:
    """Orbital couplings (alpha, beta) in GHz from defect-frame strain.

    Linear in strain; blind to eps_zz and to the hydrostatic part.
    """
    eps_defect.require_frame(Frame.DEFECT)
    d = params.d_ghz_per_strain
    f = params.f_ghz_per_strain
    alpha = d * (eps_defect.eps_xx - eps_defect.eps_yy) + f * eps_defect.eps_zx
    beta = -2.0 * d * eps_defect.eps_xy + f * eps_defect.eps_yz
    return EgCouplings(alpha_ghz=alpha, beta_ghz=beta)


def ground_state_splitting(c: EgCouplings, params: SivParameters) -> float:
    """Ground-state splitting in GHz: sqrt(lambda_so^2 + 4 (alpha^2 + beta^2)).

    Always >= lambda_so, with equality exactly at zero coupling.
    """
    lam = params.lambda_so_ghz
    return math.sqrt(lam * lam + 4.0 * (c.alpha_ghz ** 2 + c.beta_ghz ** 2))
