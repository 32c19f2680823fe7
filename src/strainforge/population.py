"""Monte Carlo ensembles of SiV splittings and calibration fits.

An ensemble is one draw of implanted emitters: each has a position drawn
over the implantation model (rejected until it lands inside the
substrate), a uniformly drawn <111> orientation and an intrinsic tensor
of iid Normal(0, sigma^2) defect-frame components. After deposition the
film adds the deterministic strain of the beam at the emitter's depth;
before deposition the same emitters sit in the beam at zero film stress,
whose strain is +-0 at every depth. So one draw serves both measurements,
and the sigma calibrated on the pre-deposition mean is the one that
widens the post-deposition ensemble; sigma = 0 leaves film strain only.

Sampling is counter based per sample index, so an ensemble is a pure
function of (inputs, seed): results are bit-identical for any thread
count or chunking. Calibration fits a model scale (intrinsic sigma, or
film stress) to an ensemble mean under common random numbers by Newton's
method: each splitting is the norm of an affine map of the scale, so the
mean is convex in it, and the pass that gives the mean gives its exact
slope.

The splitting sees strain only through the two linear couplings (alpha,
beta). Film strain is the axial strain e_yy(depth) times a fixed tensor,
with per-orientation film couplings F. Intrinsic strain is sigma times
iid unit normals in the defect frame, and there its couplings are the
two rows of one table W, which have disjoint support and so are
orthogonal. Drawing the six normals as z' = Q z, with Q an
orthonormal basis whose first two rows are W's rows normalized, leaves
them iid and makes the couplings sigma (s_alpha z'_1, s_beta z'_2), with
s the row norms: the splitting reads the first Box-Muller pair alone, and
a written tensor is sigma Q^T z'. Every sample is thus
``sqrt(lam^2 + 4 |e_yy F[o] + sigma s z'_{1,2}|^2)``, written once in
``_splitting``, which works through a chunk ``_SUB`` emitters at a time.
An ``Ensemble`` keeps F, depth, orientation and that pair, drawn ``_SUB``
emitters at a time; its gss at any (sigma, stress) equals the sampler's
there, bit for bit, and a fit writes every evaluation into one array.
Both check the two scales alike: sigma finite and >= 0, stress finite.
The tables (the film tensor, F, s and the maps D[o] Q^T, which only the
sampler reads) come from one function, ``_tables``, built through
``core`` on first use, so importing the package builds none of them.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

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
from .errors import EmptyRequest, Infeasible, InvalidDomain, InvalidParameter
from .mechanics import (
    LayerStack,
    StrainField,
    beam_to_crystal,
    solve_beam_state,
    strain_at,
)

__all__ = [
    "PositionDistribution",
    "EmitterSamples",
    "EnsembleSummary",
    "Ensemble",
    "draw_ensemble",
    "sample_chunks",
    "sample_post_deposition",
    "calibrate_sigma",
    "calibrate_film_stress",
    "summarize",
]


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
            raise InvalidDomain("aperture dimensions must be positive")
        if not self.depth_mean_nm > 0:
            raise InvalidDomain("depth_mean_nm must be positive")
        if not self.depth_straggle_nm >= 0:
            raise InvalidDomain("depth_straggle_nm must be >= 0")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidDomain(f"{name} must be finite")


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
    n: int

    @property
    def sem_ghz(self) -> float:
        return self.std_ghz / math.sqrt(self.n)


def summarize(values) -> EnsembleSummary:
    """Mean, sample std (n-1) and count; the SEM follows from the last two."""
    data = np.asarray(values, dtype=float).ravel()
    n = data.size
    if n == 0:
        raise EmptyRequest("cannot summarize an empty sample set")
    std = float(np.std(data, ddof=1)) if n > 1 else 0.0
    return EnsembleSummary(mean_ghz=float(np.mean(data)), std_ghz=std, n=n)


# Strain scale of the basis tensors the coupling tables are built from: a
# power of two, so scaling a tensor by it and the result back is exact, and
# small enough for StrainTensor's small-strain guard.
_UNIT = 2.0 ** -10

# Box-Muller pairs per emitter: the splitting reads the first pair alone,
# a written tensor takes all three (six defect-frame components)
_SPLITTING_PAIRS, _TENSOR_PAIRS = 1, 3


@functools.cache
def _defect_to_crystal() -> np.ndarray:
    """(4, 6, 6): per orientation D[o], which takes a defect-frame 6-vector
    to a crystal-frame one, built column by column with core.rotate_strain
    on first use, so importing the package builds nothing."""
    return np.stack([
        np.stack([rotate_strain(StrainTensor(*(_UNIT * row), frame=Frame.DEFECT),
                                o.rotation.T, Frame.CRYSTAL).components
                  for row in np.eye(6)], axis=1) / _UNIT
        for o in ORIENTATIONS
    ])


def _tables(stack: LayerStack, params: SivParameters, maps=True):
    """(film_crystal, film_rows, s, to_crystal), each built through ``core``:
    the crystal-frame film strain (6,) and its couplings F (2, 4) per unit
    e_yy, which need the stack's biaxiality factor and substrate Poisson
    ratio but no beam solve; the norms s (2,) of the intrinsic rows W; and
    the maps D[o] Q^T (4, 6, 6) from z' to the crystal-frame intrinsic
    tensor per unit sigma. Q is orthonormal with W's rows, normalized, as
    its first two rows (they are orthogonal), so W Q^T z' = s z'_{1,2}.
    ``maps`` False leaves out the maps and their QR, which only the sampler reads.
    """
    def ab(eps_defect):
        c = eg_couplings(eps_defect, params)
        return np.array([c.alpha_ghz, c.beta_ghz])

    film = beam_to_crystal(strain_at(StrainField(_UNIT, 0.0, 0.0, stack), 0.0))
    film_rows = np.stack([ab(defect_frame_strain(film, o)) for o in ORIENTATIONS], axis=1)
    rows = np.stack([ab(StrainTensor(*(_UNIT * row), frame=Frame.DEFECT))
                     for row in np.eye(6)], axis=1) / _UNIT
    tables = (film.components / _UNIT, film_rows / _UNIT, np.linalg.norm(rows, axis=1))
    if not maps:
        return tables
    q, r = np.linalg.qr(np.column_stack([rows.T, np.eye(6)]))
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return (*tables, _defect_to_crystal() @ q)


# Emitters per sub-block of the ensemble's draw and of _splitting: one float64 per emitter
# is 32 KB, below glibc's 128 KiB mmap threshold, so a temporary reuses heap memory.
_SUB = 4096


def _splitting(lam, field, film_rows, depth, ori, sigma, unit, slope=None, out=None):
    """Splittings of one chunk of emitters at depths ``depth`` (m,) with
    orientations ``ori`` (m,) in ``field``: sqrt(lam^2 + 4 |c|^2) with
    couplings c = e_yy F[o] + sigma u, from the film couplings F (2, 4)
    per unit e_yy and the intrinsic couplings u (2, m) per unit sigma.
    They are written into ``out`` (m,), or a fresh array, ``_SUB`` at a time.

    ``slope`` "sigma" or "stress" also returns the chunk's sum of
    4 a . c / gss, with a = u or e_yy F[o]: the sum of d gss / d sigma, or
    of d gss / d stress times the stress (e_yy is linear in film stress).
    """
    gss = np.empty(len(depth)) if out is None else out
    terms = np.empty(len(depth)) if slope else None
    film = 0.0  # zero film strain would add +-0 to each coupling: c = sigma u, bit for bit
    for lo in range(0, len(depth), _SUB):
        b = slice(lo, lo + _SUB)
        couplings = sigma * unit[:, b]
        if field.membrane_strain or field.curvature_per_nm:
            film = field.axial_strain(depth[b]) * np.take(film_rows, ori[b], axis=1)
            couplings += film
        alpha, beta = couplings
        np.sqrt(lam * lam + 4.0 * (alpha * alpha + beta * beta), out=gss[b])
        if slope:
            a = unit[:, b] if slope == "sigma" else film
            np.divide((a * couplings).sum(axis=0), gss[b], out=terms[b])
    return gss if slope is None else (gss, 4.0 * np.sum(terms))


# counters i * DRAWS_PER_SAMPLE + j of samples i < n fit in a uint64, and
# seed_root reads a seed mod 2**64, so only seeds in [0, 2**64) are distinct
_MAX_N = 2 ** 64 // _kernels.DRAWS_PER_SAMPLE


def _check_draw(n, seed):
    for name, value in (("n", n), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if n < 1:
        raise EmptyRequest("n must be >= 1")
    if n > _MAX_N:
        raise InvalidParameter(f"n must be <= {_MAX_N}, got {n}")
    if not 0 <= seed < 2 ** 64:
        raise InvalidParameter(f"seed must be in [0, 2**64), got {seed}")


def _field_at(stack: LayerStack, sigma, stress_mpa) -> StrainField:
    """The beam of ``stack`` at film stress ``stress_mpa``, once both scales
    pass the domain check every evaluation shares: sigma finite and >= 0
    here, the stress finite in the solve."""
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise InvalidParameter(f"sigma must be finite and >= 0, got {sigma}")
    return solve_beam_state(stack, stress_mpa)


def sample_chunks(n: int, stack: LayerStack, pos: PositionDistribution, params: SivParameters,
                  seed: int, *, sigma: float, stress_mpa: float, threads: int | None = None):
    """The emitters of ``draw_ensemble(n, stack, pos, params, seed)`` at
    intrinsic spread ``sigma`` and film stress ``stress_mpa``, as one
    ``EmitterSamples`` per fixed chunk of indices, in index order: their
    positions, orientations, crystal-frame tensors and splittings; the
    splittings are ``Ensemble.gss(sigma, stress_mpa)``, bit for bit.

    Each sample draws an implantation position (rejected until it lands
    inside the substrate), evaluates the depth-dependent beam strain, maps
    it through a uniformly drawn <111> orientation, adds an intrinsic
    random tensor (drawn in the defect frame), and computes the splitting.
    At zero film stress this is the ensemble before deposition. The
    arguments are checked at the call, each chunk in a worker as it is due;
    a containment failure is raised when its chunk is taken, the first in
    chunk order.
    """
    _check_draw(n, seed)
    field = _field_at(stack, sigma, stress_mpa)
    film_crystal, film_rows, s, to_crystal = _tables(stack, params)
    root = _kernels.seed_root(seed)

    def chunk(lo, hi):
        x_nm, y_nm, dep, o, z = _kernels.draw_post_block(lo, hi, root, _TENSOR_PAIRS,
                                                         stack.cross_section, pos)
        gss = _splitting(params.lambda_so_ghz, field, film_rows, dep, o,
                         sigma, s[:, None] * z[:, :2].T)
        eps = field.axial_strain(dep)[:, None] * film_crystal
        # column i of the (6, m) einsum is to_crystal[o[i]] @ z[i]
        eps += (sigma * np.einsum("mk,mjk->jm", z, to_crystal[o])).T
        return EmitterSamples(x_nm, y_nm, dep, o, eps, gss)

    return _kernels.run_blocks(n, chunk, threads)


def sample_post_deposition(n: int, stack: LayerStack, pos: PositionDistribution,
                           params: SivParameters, seed: int, *, sigma: float,
                           stress_mpa: float, threads: int | None = None) -> EmitterSamples:
    """The chunks of ``sample_chunks`` with these arguments, joined."""
    chunks = [vars(c).values() for c in sample_chunks(
        n, stack, pos, params, seed, sigma=sigma, stress_mpa=stress_mpa, threads=threads)]
    return EmitterSamples(*map(np.concatenate, zip(*chunks)))


class Ensemble:
    """One draw of ``n`` emitters in a stack, kept as what the splitting
    reads: the film couplings F (2, 4) per unit e_yy, and per emitter its
    depth, orientation and intrinsic couplings per unit sigma.

    ``gss(sigma, stress_mpa)`` solves the beam at that film stress and
    evaluates the splitting chunk by chunk with the sampler's own
    ``_splitting``, into a fresh array (or the fit's ``_out``) equal to the
    gss of ``sample_post_deposition`` at that (sigma, stress_mpa), to the
    last bit. The fits pass ``_slope`` ("sigma" or "stress") to get (gss,
    d mean / d scale) from the same pass; the slope's per-chunk sums are
    added in chunk order, so it is the same for any thread count.
    """

    def __init__(self, stack, params, film_rows, depth, ori, unit, threads):
        self.stack = stack
        self.lambda_so_ghz = params.lambda_so_ghz
        self._film_rows = film_rows
        self._depth, self._ori, self._unit = depth, ori, unit
        self._threads = threads

    def __len__(self) -> int:
        return len(self._depth)

    def gss(self, sigma: float, stress_mpa: float, *, _slope=None, _out=None):
        # one solve per call (~45 us): a scaled unit-stress field is not bit-exact
        field = _field_at(self.stack, sigma, stress_mpa)
        n = len(self)
        gss = np.empty(n) if _out is None else _out
        parts = list(_kernels.run_blocks(n, lambda lo, hi: _splitting(
            self.lambda_so_ghz, field, self._film_rows, self._depth[lo:hi], self._ori[lo:hi],
            sigma, self._unit[:, lo:hi], _slope, gss[lo:hi]), self._threads))
        divisor = stress_mpa if _slope == "stress" else 1.0
        return gss if _slope is None else (gss, float(np.sum([s for _, s in parts])) / n / divisor)


def draw_ensemble(
    n: int,
    stack: LayerStack,
    pos: PositionDistribution,
    params: SivParameters,
    seed: int,
    *,
    threads: int | None = None,
) -> Ensemble:
    """The emitters ``sample_post_deposition`` draws at ``seed``, drawn once
    for evaluation at any (sigma, film stress): positions, orientations and
    the first Box-Muller pair of each intrinsic tensor, drawn ``_SUB`` at a
    time into the ensemble's arrays. A containment failure names its sub-block."""
    _check_draw(n, seed)
    _, film_rows, s = _tables(stack, params, maps=False)
    root = _kernels.seed_root(seed)
    depth = np.empty(n)
    ori = np.empty(n, dtype=np.int8)
    unit = np.empty((2, n))

    def chunk(lo, hi):
        for a in range(lo, hi, _SUB):
            b = min(a + _SUB, hi)
            _, _, dep, o, z = _kernels.draw_post_block(a, b, root, _SPLITTING_PAIRS,
                                                       stack.cross_section, pos)
            depth[a:b], ori[a:b] = dep, o
            unit[:, a:b] = s[:, None] * z.T

    list(_kernels.run_blocks(n, chunk, threads))
    return Ensemble(stack, params, film_rows, depth, ori, unit, threads)


# tolerance of a calibration on the ensemble mean, and the most Newton
# steps a fit takes to meet it
_TOL_GHZ = 0.05
_MAX_STEPS = 40


def _fit(ensemble, at, wrt, target, x, cap, unreachable):
    """(x, gss) where the mean of ``ensemble.gss(*at(x))`` is within
    _TOL_GHZ of ``target``, by Newton's method in the scale ``wrt``
    ("sigma" or "stress") from the start ``x``.

    Each gss is the norm of an affine map of the scale, so the mean is
    convex in it: a step lands at or above the root, and the steps after
    it fall to it. A step is clipped to ``cap``, so the cap is evaluated;
    a mean below the target there raises Infeasible with ``unreachable``.
    A target at the spin-orbit floor, or one a step takes to a scale <= 0
    (at or below the mean at zero), gets scale 0 if the mean there is
    within the tolerance.
    """
    lam = ensemble.lambda_so_ghz
    if target < lam:
        raise Infeasible(f"target mean {target} GHz is below the floor {lam} GHz")
    if not math.isfinite(target):
        raise Infeasible(f"target mean {target} GHz is not finite")
    out = np.empty(len(ensemble))  # every evaluation of the fit writes here
    if target > lam * (1.0 + 1e-12):
        for _ in range(_MAX_STEPS):
            gss, slope = ensemble.gss(*at(x), _slope=wrt, _out=out)
            g = float(np.mean(gss)) - target
            if abs(g) <= _TOL_GHZ:
                return x, gss
            if g < 0.0 and x == cap:
                raise Infeasible(unreachable)
            if slope > 0.0:
                x = min(x - g / slope, cap)
            else:
                # left of the mean's minimum: a target above the mean here
                # lies to its right, one below it is under the mean at zero
                x = cap if g < 0.0 else 0.0
            if not x > 0.0:
                break
        else:
            raise Infeasible(f"no fit within {_MAX_STEPS} Newton steps")
    gss = ensemble.gss(*at(0.0), _out=out)
    if abs(float(np.mean(gss)) - target) <= _TOL_GHZ:
        return 0.0, gss
    raise Infeasible("target mean lies below the zero-stress ensemble mean")


def calibrate_sigma(target_mean_ghz: float, ensemble: Ensemble) -> tuple[float, np.ndarray]:
    """Intrinsic sigma whose ensemble mean before deposition (zero film
    stress) hits the target, and the gss there: (sigma,
    ``ensemble.gss(sigma, 0.0)``).

    Newton's method on the mean, convex in sigma, with its exact slope,
    from sigma = 1e-5 and capped at 1e-2. Raises Infeasible for targets
    below the spin-orbit floor or above the mean at the cap.
    """
    return _fit(ensemble, lambda sigma: (sigma, 0.0), "sigma", target_mean_ghz,
                1e-5, 1e-2, "target mean unreachable within the small-strain regime")


def calibrate_film_stress(target_mean_ghz: float, ensemble: Ensemble,
                          sigma: float) -> tuple[float, np.ndarray]:
    """Equivalent film stress (MPa) whose ensemble mean at the intrinsic
    spread ``sigma`` hits the target, and the gss there: (stress,
    ``ensemble.gss(sigma, stress)``).

    The Newton fit of calibrate_sigma, from 500 MPa and capped at 1e6 MPa.
    A target within the tolerance of the zero-stress mean, if no step
    meets it first, gives stress 0; one below that mean raises Infeasible.
    """
    return _fit(ensemble, lambda stress: (sigma, stress), "stress",
                target_mean_ghz, 500.0, 1e6, "target mean unreachable at physical film stresses")
