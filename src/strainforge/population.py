"""Monte Carlo ensembles of SiV splittings and calibration fits.

Two ensemble generators mirror the two experimental situations: before
film deposition the strain is a random intrinsic tensor, after deposition
it is the deterministic film-induced field sampled over the implantation
position distribution plus the same intrinsic tensor. Intrinsic strain is
iid Normal(0, sigma^2) per component in the defect frame, before and after
deposition alike, so the sigma calibrated on the pre-deposition mean is the
one that widens the post-deposition ensemble; sigma = 0 leaves film strain
only.

Sampling is counter based per sample index, so an ensemble is a pure
function of (inputs, seed): results are bit-identical for any thread
count or chunking. Calibration inverts the monotone map from model scale
(intrinsic sigma, or film stress) to ensemble mean under common random
numbers.

The splitting sees strain only through the two linear couplings (alpha,
beta). Intrinsic strain is sigma times unit normals and film strain is the
axial strain e_yy(depth) times a fixed tensor, so every sample is
``sqrt(lam^2 + 4 |e_yy F[o] + sigma W z|^2)`` with the intrinsic coupling
table W (one for all orientations, since z is drawn in the defect frame)
and the per-orientation film table F built once from ``core``. A
calibration therefore draws its ensemble once and only re-evaluates that
expression per step; its ensemble at the fitted scale equals the
sampler's there, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .core import (
    ORIENTATIONS,
    Frame,
    SivParameters,
    StrainTensor,
    defect_frame_strain,
    eg_couplings,
    rotate_strain,
)
from .errors import DegenerateGeometry, EmptyRequest, Infeasible, InvalidParameter
from .mechanics import (
    LayerStack,
    StrainField,
    beam_to_crystal,
    solve_beam_state,
    strain_at,
)

__all__ = [
    "IntrinsicStrainModel",
    "PositionDistribution",
    "EmitterSamples",
    "EnsembleSummary",
    "EnsembleResult",
    "sample_pre_deposition",
    "sample_post_deposition",
    "calibrate_sigma",
    "calibrate_film_stress",
    "summarize",
]


@dataclass(frozen=True)
class IntrinsicStrainModel:
    """IID zero-mean normal distribution for each defect-frame strain
    component."""

    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError("sigma must be finite and >= 0")


@dataclass(frozen=True)
class PositionDistribution:
    """Implantation position model: uniform mask aperture laterally,
    normal straggle in depth (rejected back into the substrate)."""

    aperture_x_nm: float = 60.0
    aperture_y_nm: float = 60.0
    depth_mean_nm: float = 35.0
    depth_straggle_nm: float = 10.0

    def __post_init__(self):
        if not (self.aperture_x_nm > 0 and self.aperture_y_nm > 0):
            raise ValueError("aperture dimensions must be positive")
        if not self.depth_mean_nm > 0:
            raise ValueError("depth_mean_nm must be positive")
        if not self.depth_straggle_nm >= 0:
            raise ValueError("depth_straggle_nm must be >= 0")


class EmitterSamples:
    """Columnar store of emitter draws, one array per quantity."""

    def __init__(self, x_nm, y_nm, depth_nm, orientation_id, eps_crystal, gss_ghz):
        self.x_nm = x_nm
        self.y_nm = y_nm
        self.depth_nm = depth_nm
        self.orientation_id = orientation_id
        self.eps_crystal = eps_crystal  # (n, 6): xx yy zz xy yz zx
        self.gss_ghz = gss_ghz

    def __len__(self) -> int:
        return len(self.gss_ghz)


@dataclass(frozen=True)
class EnsembleSummary:
    mean_ghz: float
    std_ghz: float
    sem_ghz: float
    n: int


@dataclass(frozen=True)
class EnsembleResult:
    samples: EmitterSamples
    summary: EnsembleSummary


def summarize(values) -> EnsembleSummary:
    """Mean, sample std (n-1) and SEM."""
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    if n == 0:
        raise EmptyRequest("cannot summarize an empty sample set")
    mean = float(np.mean(data))
    std = float(np.std(data, ddof=1)) if n > 1 else 0.0
    sem = std / math.sqrt(n)
    return EnsembleSummary(mean_ghz=mean, std_ghz=std, sem_ghz=sem, n=n)


# Strain scale of the basis tensors the coupling tables are built from: a
# power of two, so scaling a tensor by it and the result back is exact, and
# small enough for StrainTensor's small-strain guard.
_UNIT = 2.0 ** -10


def _basis(frame: Frame) -> list[StrainTensor]:
    return [StrainTensor(*(_UNIT * np.eye(6)[k]), frame=frame) for k in range(6)]


# defect-frame 6-vector -> crystal-frame 6-vector, one 6x6 map per
# orientation, built column by column with core.rotate_strain
_DEFECT_TO_CRYSTAL = np.stack([
    np.stack([rotate_strain(e, o.rotation.T, Frame.CRYSTAL).components
              for e in _basis(Frame.DEFECT)], axis=1) / _UNIT
    for o in ORIENTATIONS
])


def _couplings(eps_defect: StrainTensor, params: SivParameters) -> np.ndarray:
    """(alpha, beta) of a defect-frame tensor."""
    c = eg_couplings(eps_defect, params)
    return np.array([c.alpha_ghz, c.beta_ghz])


def _intrinsic_rows(params: SivParameters) -> np.ndarray:
    """(2, 6): the (alpha, beta) rows acting on a defect-frame 6-vector,
    the intrinsic coupling table W of every orientation."""
    return np.stack([_couplings(e, params) for e in _basis(Frame.DEFECT)], axis=1) / _UNIT


def _film_response(field: StrainField, params: SivParameters):
    """Film strain per unit axial strain e_yy: its crystal-frame 6-vector
    and its (alpha, beta) for each orientation, shape (2, 4)."""
    unit_field = replace(field, membrane_strain=_UNIT, curvature_per_nm=0.0)
    eps = beam_to_crystal(strain_at(unit_field, 0.0))
    rows = np.stack([_couplings(defect_frame_strain(eps, o), params)
                     for o in ORIENTATIONS], axis=1)
    return eps.components / _UNIT, rows / _UNIT


# counters i * DRAWS_PER_SAMPLE + j of samples i < n fit in a uint64
_MAX_N = 2 ** 64 // _kernels.DRAWS_PER_SAMPLE


def _check_n(n):
    if n < 1:
        raise EmptyRequest("n must be >= 1")
    if n > _MAX_N:
        raise InvalidParameter(f"n must be <= {_MAX_N}, got {n}")


def _draw_post(root, pos: PositionDistribution, cs):
    """draw_post_block with the geometry and position model bound."""
    poly_y = np.ascontiguousarray(cs.vertices_nm[:, 0])
    poly_z = np.ascontiguousarray(cs.vertices_nm[:, 1])

    def draw(lo, hi):
        return _kernels.draw_post_block(
            lo, hi, root, poly_y, poly_z, cs.z_top_nm,
            pos.aperture_x_nm, pos.aperture_y_nm,
            pos.depth_mean_nm, pos.depth_straggle_nm,
        )

    return draw


def _raise_failures(n_fail: int) -> None:
    if n_fail:
        raise DegenerateGeometry(
            f"{n_fail} samples failed substrate containment after "
            f"{_kernels.MAX_POSITION_ATTEMPTS} attempts each"
        )


def sample_pre_deposition(
    n: int,
    model: IntrinsicStrainModel,
    params: SivParameters,
    seed: int,
    *,
    threads: int | None = None,
) -> EnsembleResult:
    """Ensemble of emitters carrying only random intrinsic strain.

    Each sample draws six iid Normal(0, sigma^2) defect-frame components
    plus a uniform orientation, which places the tensor in crystal axes.
    """
    _check_n(n)
    gss, eps, ori = np.empty(n), np.empty((n, 6)), np.empty(n, dtype=np.int64)
    root = _kernels.seed_root(seed)
    rows = _intrinsic_rows(params)
    sigma = model.sigma

    def block(lo, hi):
        z, o = _kernels.draw_pre_block(lo, hi, root)
        unit = _kernels.apply_rows(rows, z)
        gss[lo:hi] = _kernels.splitting(params.lambda_so_ghz, sigma * unit)
        eps[lo:hi] = (sigma * _kernels.apply_maps(_DEFECT_TO_CRYSTAL, o, z)).T
        ori[lo:hi] = o

    _kernels.run_blocks(n, block, threads)
    samples = EmitterSamples(np.zeros(n), np.zeros(n), np.zeros(n), ori, eps, gss)
    return EnsembleResult(samples=samples, summary=summarize(gss))


def sample_post_deposition(
    n: int,
    pos: PositionDistribution,
    field: StrainField,
    params: SivParameters,
    *,
    intrinsic: IntrinsicStrainModel,
    seed: int,
    threads: int | None = None,
) -> EnsembleResult:
    """Ensemble of emitters in the film-induced strain field.

    Each sample draws an implantation position (rejected until it lands
    inside the substrate), evaluates the depth-dependent beam strain, maps
    it through a uniformly drawn <111> orientation, adds an intrinsic
    random tensor (drawn in the defect frame), and computes the splitting.
    """
    _check_n(n)
    gss, eps, ori = np.empty(n), np.empty((n, 6)), np.empty(n, dtype=np.int64)
    x, y, depth = np.empty(n), np.empty(n), np.empty(n)
    draw = _draw_post(_kernels.seed_root(seed), pos, field.cross_section)
    film_crystal, film_rows = _film_response(field, params)
    rows = _intrinsic_rows(params)
    sigma = intrinsic.sigma

    def block(lo, hi):
        x[lo:hi], y[lo:hi], dep, o, z, n_fail = draw(lo, hi)
        eyy = field.axial_strain(dep)
        couplings = eyy * film_rows[:, o] + sigma * _kernels.apply_rows(rows, z)
        gss[lo:hi] = _kernels.splitting(params.lambda_so_ghz, couplings)
        eps[lo:hi] = eyy[:, None] * film_crystal
        eps[lo:hi] += (sigma * _kernels.apply_maps(_DEFECT_TO_CRYSTAL, o, z)).T
        ori[lo:hi] = o
        depth[lo:hi] = dep
        return n_fail

    _raise_failures(_kernels.run_blocks(n, block, threads))
    samples = EmitterSamples(x, y, depth, ori, eps, gss)
    return EnsembleResult(samples=samples, summary=summarize(gss))


def _pre_gss(n, seed, params, threads):
    """sigma -> gss of ``sample_pre_deposition`` at that sigma.

    The ensemble is drawn once and kept as per-emitter couplings per unit
    sigma; each call only rescales them and evaluates the splitting, chunk
    by chunk with the sampler's own formula, into a fresh array equal to
    the sampler's to the last bit.
    """
    _check_n(n)
    root = _kernels.seed_root(seed)
    rows = _intrinsic_rows(params)
    unit = np.empty((2, n))

    def draw(lo, hi):
        z, _ = _kernels.draw_pre_block(lo, hi, root)
        unit[:, lo:hi] = _kernels.apply_rows(rows, z)

    _kernels.run_blocks(n, draw, threads)

    def gss_at(sigma):
        gss = np.empty(n)

        def evaluate(lo, hi):
            gss[lo:hi] = _kernels.splitting(params.lambda_so_ghz, sigma * unit[:, lo:hi])

        _kernels.run_blocks(n, evaluate, threads)
        return gss

    return gss_at


def _post_gss(stack, pos, params, n, seed, intrinsic, threads):
    """Film stress (MPa) -> gss of ``sample_post_deposition`` in the field
    of ``stack`` at that stress.

    Depths, orientations and intrinsic couplings are drawn once; each call
    solves the beam and evaluates the splitting as the sampler does.
    """
    # one solve per step (~45 us): a scaled unit-stress field is not bit-exact
    def field_at(stress_mpa):
        trial = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress_mpa))
        return solve_beam_state(trial)

    field = field_at(0.0)
    _check_n(n)
    draw_block = _draw_post(_kernels.seed_root(seed), pos, field.cross_section)
    rows = _intrinsic_rows(params)
    _, film_rows = _film_response(field, params)
    depth = np.empty(n)
    ori = np.empty(n, dtype=np.int8)
    unit = np.empty((2, n))
    sigma = intrinsic.sigma

    def draw(lo, hi):
        _, _, depth[lo:hi], ori[lo:hi], z, n_fail = draw_block(lo, hi)
        unit[:, lo:hi] = _kernels.apply_rows(rows, z)
        return n_fail

    _raise_failures(_kernels.run_blocks(n, draw, threads))

    def gss_at(stress_mpa):
        field = field_at(stress_mpa)
        gss = np.empty(n)

        def evaluate(lo, hi):
            eyy = field.axial_strain(depth[lo:hi])
            couplings = eyy * film_rows[:, ori[lo:hi]] + sigma * unit[:, lo:hi]
            gss[lo:hi] = _kernels.splitting(params.lambda_so_ghz, couplings)

        _kernels.run_blocks(n, evaluate, threads)
        return gss

    return gss_at


def _monotone_root(f, target, lo, hi, f_lo, f_hi, tol):
    """Root of monotone f - target on [lo, hi] by Illinois regula falsi."""
    g_lo = f_lo - target
    g_hi = f_hi - target
    if abs(g_lo) <= tol:
        return lo
    if abs(g_hi) <= tol:
        return hi
    side = 0
    x = lo
    for _ in range(80):
        x = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        gx = f(x) - target
        if abs(gx) <= tol:
            return x
        if gx > 0:
            hi, g_hi = x, gx
            if side == 1:
                g_lo *= 0.5
            side = 1
        else:
            lo, g_lo = x, gx
            if side == -1:
                g_hi *= 0.5
            side = -1
        if hi - lo <= 1e-14 * max(abs(hi), 1.0):
            break
    return x


# tolerance of a calibration on the ensemble mean
_TOL_GHZ = 0.05


def _check_target(target_mean_ghz, lam):
    if target_mean_ghz < lam:
        raise Infeasible(
            f"target mean {target_mean_ghz} GHz is below the floor {lam} GHz"
        )
    if not math.isfinite(target_mean_ghz):
        raise Infeasible(f"target mean {target_mean_ghz} GHz is not finite")


def _fit(gss_at, target, lo, f_lo, hi, cap, unreachable):
    """Scale whose ensemble mean hits ``target``, and the ensemble there.

    Doubles ``hi`` until its mean reaches the target (Infeasible with
    ``unreachable`` past ``cap``), then runs ``_monotone_root`` on the
    bracket. Returns (scale, gss at scale).
    """
    last = [None, None]

    def mean_at(scale):
        last[:] = scale, gss_at(scale)
        return float(np.mean(last[1]))

    f_hi = mean_at(hi)
    while f_hi < target:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > cap:
            raise Infeasible(unreachable)
        f_hi = mean_at(hi)
    scale = _monotone_root(mean_at, target, lo, hi, f_lo, f_hi, _TOL_GHZ)
    return scale, last[1] if last[0] == scale else gss_at(scale)


def calibrate_sigma(
    target_mean_ghz: float,
    n: int,
    seed: int,
    params: SivParameters | None = None,
    *,
    threads: int | None = None,
) -> tuple[float, np.ndarray]:
    """Intrinsic sigma whose fixed-seed ensemble mean hits the target, and
    the gss of that ensemble: (sigma, gss), gss equal to
    ``sample_pre_deposition``'s at sigma to the last bit.

    The mean is continuous and strictly increasing in sigma under common
    random numbers, so a bracketing root find converges cleanly; the
    ensemble is drawn once and each step rescales its couplings. Raises
    Infeasible for targets below the spin-orbit floor.
    """
    params = params or SivParameters()
    lam = params.lambda_so_ghz
    _check_target(target_mean_ghz, lam)
    _check_n(n)
    if target_mean_ghz <= lam * (1.0 + 1e-12):
        return 0.0, np.full(n, lam)
    return _fit(_pre_gss(n, seed, params, threads), target_mean_ghz,
                0.0, lam, 1e-5, 1e-2,
                "target mean unreachable within the small-strain regime")


def calibrate_film_stress(
    target_mean_ghz: float,
    stack: LayerStack,
    pos: PositionDistribution,
    params: SivParameters | None,
    n: int,
    seed: int,
    *,
    intrinsic: IntrinsicStrainModel,
    threads: int | None = None,
) -> tuple[float, np.ndarray]:
    """Equivalent film stress (MPa) whose post-deposition ensemble mean
    hits the target, by the same monotone root find as calibrate_sigma,
    and the gss of that ensemble: (stress, gss), gss equal to
    ``sample_post_deposition``'s in the field at that stress.

    The film strain is linear in the stress, so the ensemble is drawn once
    and each root-finder step re-evaluates it in the trial field."""
    params = params or SivParameters()
    _check_target(target_mean_ghz, params.lambda_so_ghz)
    gss_at = _post_gss(stack, pos, params, n, seed, intrinsic, threads)
    gss = gss_at(0.0)
    f_lo = float(np.mean(gss))
    if target_mean_ghz <= f_lo + _TOL_GHZ:
        if target_mean_ghz >= f_lo - _TOL_GHZ:
            return 0.0, gss
        raise Infeasible("target mean lies below the zero-stress ensemble mean")
    return _fit(gss_at, target_mean_ghz, 0.0, f_lo, 500.0, 1e6,
                "target mean unreachable at physical film stresses")
