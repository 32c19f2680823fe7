"""Hot numerical kernels with two interchangeable backends.

Monte Carlo sampling dominates runtime, so each sampler exists twice: a
numba ``@njit`` version and a pure-numpy version. The active backend is
chosen by the environment variable ``STRAINFORGE_BACKEND`` (``numba`` or
``numpy``); unset, numba is used when importable.
``benchmarks/bench_kernels.py`` compares the two.

Randomness is counter based: draw ``j`` of sample ``i`` is a pure function
of ``(seed, i * DRAWS_PER_SAMPLE + j)`` through a SplitMix64-style mixer,
so results are bit-identical no matter how the index range is chunked
across threads. Uniform draws are integer-exact across backends; values
passed through log/cos/sin may differ between backends in the last bits.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "BACKEND",
    "HAVE_NUMBA",
    "DRAWS_PER_SAMPLE",
    "MAX_POSITION_ATTEMPTS",
    "active_backend",
    "run_blocks",
    "sample_pre_block",
    "sample_post_block",
]

# Fixed per-sample draw budget; rejection resampling stays well inside it.
DRAWS_PER_SAMPLE = 512
MAX_POSITION_ATTEMPTS = 100

# Fixed chunk size for thread-level parallelism. Per-sample values never
# depend on chunk boundaries, so this only bounds working memory.
CHUNK = 65536

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53

try:
    import numba
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(fn):
            return fn

        return wrap


_env = os.environ.get("STRAINFORGE_BACKEND", "").strip().lower()
if _env in ("numba", "numpy"):
    BACKEND = _env
elif _env:
    raise ValueError(f"STRAINFORGE_BACKEND must be 'numba' or 'numpy', got {_env!r}")
else:
    BACKEND = "numba" if HAVE_NUMBA else "numpy"
if BACKEND == "numba" and not HAVE_NUMBA:
    raise ImportError("STRAINFORGE_BACKEND=numba but numba is not importable")


def active_backend() -> str:
    return BACKEND


def run_blocks(n: int, fn, threads: int | None) -> int:
    """Apply fn(lo, hi) over fixed-size chunks; sum integer returns.

    Output is identical for any thread count: chunk boundaries are fixed
    and every kernel writes disjoint per-index slices.
    """
    bounds = [(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK)]
    if threads is None or threads <= 1 or len(bounds) == 1:
        return sum(int(fn(lo, hi) or 0) for lo, hi in bounds)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda b: fn(*b), bounds))
    return sum(int(r or 0) for r in results)


def seed_root(seed: int) -> np.uint64:
    """Avalanche-mixed 64-bit stream root for a user seed."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = ((int(seed) & mask) + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return np.uint64(z ^ (z >> 31))


# ---------------------------------------------------------------------------
# numpy backend
# ---------------------------------------------------------------------------

def _u01_np(root: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) for an array of uint64 counters."""
    z = root + (counters + np.uint64(1)) * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * _U53


def _normal_pairs_np(root, base, offset, n_pairs):
    """n_pairs Box-Muller pairs per sample; returns (2*n_pairs) columns."""
    n = base.shape[0]
    out = np.empty((n, 2 * n_pairs))
    for p in range(n_pairs):
        u1 = _u01_np(root, base + np.uint64(offset + 2 * p))
        u2 = _u01_np(root, base + np.uint64(offset + 2 * p + 1))
        r = np.sqrt(-2.0 * np.log1p(-u1))
        t = 2.0 * np.pi * u2
        out[:, 2 * p] = r * np.cos(t)
        out[:, 2 * p + 1] = r * np.sin(t)
    return out


def _rot_sym_np(R, eps6):
    """R M R^T on batched symmetric tensors in 6-component form."""
    n = eps6.shape[0]
    m = np.empty((n, 3, 3))
    m[:, 0, 0] = eps6[:, 0]
    m[:, 1, 1] = eps6[:, 1]
    m[:, 2, 2] = eps6[:, 2]
    m[:, 0, 1] = m[:, 1, 0] = eps6[:, 3]
    m[:, 1, 2] = m[:, 2, 1] = eps6[:, 4]
    m[:, 2, 0] = m[:, 0, 2] = eps6[:, 5]
    if R.ndim == 2:
        rot = np.einsum("ij,njk,lk->nil", R, m, R)
    else:
        rot = np.einsum("nij,njk,nlk->nil", R, m, R)
    out = np.empty_like(eps6)
    out[:, 0] = rot[:, 0, 0]
    out[:, 1] = rot[:, 1, 1]
    out[:, 2] = rot[:, 2, 2]
    out[:, 3] = rot[:, 0, 1]
    out[:, 4] = rot[:, 1, 2]
    out[:, 5] = rot[:, 2, 0]
    return out


def _gss_np(eps_defect6, d, f, lam):
    alpha = d * (eps_defect6[:, 0] - eps_defect6[:, 1]) + f * eps_defect6[:, 5]
    beta = -2.0 * d * eps_defect6[:, 3] + f * eps_defect6[:, 4]
    return np.sqrt(lam * lam + 4.0 * (alpha * alpha + beta * beta))


def _pre_block_numpy(gss, eps_c, ori, lo, hi, root, sigma, d, f, lam, rots,
                     crystal_frame):
    base = np.arange(lo, hi, dtype=np.uint64) * np.uint64(DRAWS_PER_SAMPLE)
    comps = sigma * _normal_pairs_np(root, base, 0, 3)
    u_or = _u01_np(root, base + np.uint64(6))
    o = np.minimum((u_or * 4.0).astype(np.int64), 3)
    ori[lo:hi] = o
    if crystal_frame:
        eps_c[lo:hi] = comps
        eps_d = _rot_sym_np(rots[o], comps)
    else:
        eps_d = comps
        # crystal components via the inverse rotation R^T M R
        eps_c[lo:hi] = _rot_sym_np(np.swapaxes(rots[o], 1, 2), comps)
    gss[lo:hi] = _gss_np(eps_d, d, f, lam)


def _point_in_poly_np(py, pz, y, z):
    """Vectorized crossing-number containment for points (y, z)."""
    inside = np.zeros(y.shape, dtype=bool)
    n = len(py)
    for i in range(n):
        y0, z0 = py[i], pz[i]
        y1, z1 = py[(i + 1) % n], pz[(i + 1) % n]
        hit = (z0 > z) != (z1 > z)
        if z1 != z0:
            y_cross = y0 + (z - z0) * (y1 - y0) / (z1 - z0)
            inside ^= hit & (y < y_cross)
    return inside


def _post_block_numpy(gss, eps_c, ori, xs, ys, depths, lo, hi, root,
                      poly_y, poly_z, z_top, membrane, curv, d_na, b, nu_s,
                      ax, ay, dmean, dstrag, crystal_from_beam, rots,
                      include_intr, sigma_i, d, f, lam):
    n = hi - lo
    base = np.arange(lo, hi, dtype=np.uint64) * np.uint64(DRAWS_PER_SAMPLE)
    pend = np.arange(n)
    x = np.empty(n)
    y = np.empty(n)
    dep = np.empty(n)
    n_fail = 0
    for attempt in range(MAX_POSITION_ATTEMPTS):
        if pend.size == 0:
            break
        off = np.uint64(4 * attempt)
        bs = base[pend]
        ux = _u01_np(root, bs + off)
        uy = _u01_np(root, bs + off + np.uint64(1))
        u1 = _u01_np(root, bs + off + np.uint64(2))
        u2 = _u01_np(root, bs + off + np.uint64(3))
        zn = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        cx = (ux - 0.5) * ax
        cy = (uy - 0.5) * ay
        cd = dmean + dstrag * zn
        ok = (cd >= 0.0) & _point_in_poly_np(poly_y, poly_z, cy, z_top - cd)
        sel = pend[ok]
        x[sel] = cx[ok]
        y[sel] = cy[ok]
        dep[sel] = cd[ok]
        pend = pend[~ok]
    if pend.size:
        n_fail = int(pend.size)
        x[pend] = np.nan
        y[pend] = np.nan
        dep[pend] = dmean

    u_or = _u01_np(root, base + np.uint64(4 * MAX_POSITION_ATTEMPTS))
    o = np.minimum((u_or * 4.0).astype(np.int64), 3)

    eyy = membrane + curv * (dep - d_na)
    exx = b * eyy
    ezz = -nu_s * (exx + eyy) / (1.0 - nu_s)
    eps_beam = np.zeros((n, 6))
    eps_beam[:, 0] = exx
    eps_beam[:, 1] = eyy
    eps_beam[:, 2] = ezz
    ec = _rot_sym_np(crystal_from_beam, eps_beam)
    if include_intr:
        intr = sigma_i * _normal_pairs_np(
            root, base, 4 * MAX_POSITION_ATTEMPTS + 1, 3
        )
        # intrinsic tensor is drawn in the defect frame; fold its crystal
        # image into the stored tensor
        ec = ec + _rot_sym_np(np.swapaxes(rots[o], 1, 2), intr)
    ed = _rot_sym_np(rots[o], ec)
    gss[lo:hi] = _gss_np(ed, d, f, lam)
    eps_c[lo:hi] = ec
    ori[lo:hi] = o
    xs[lo:hi] = x
    ys[lo:hi] = y
    depths[lo:hi] = dep
    return n_fail


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(cache=True, inline="always")
    def _u01_nb(root, counter):
        z = root + (counter + np.uint64(1)) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
        return np.float64(z >> np.uint64(11)) * _U53

    @njit(cache=True, inline="always")
    def _norm_pair_nb(root, counter):
        u1 = _u01_nb(root, counter)
        u2 = _u01_nb(root, counter + np.uint64(1))
        r = math.sqrt(-2.0 * math.log1p(-u1))
        t = 2.0 * math.pi * u2
        return r * math.cos(t), r * math.sin(t)

    @njit(cache=True)
    def _rot_sym_nb(R, e6, out6):
        # out = R M R^T with M assembled from the 6 components
        m00, m11, m22 = e6[0], e6[1], e6[2]
        m01, m12, m20 = e6[3], e6[4], e6[5]
        t = np.empty((3, 3))
        for i in range(3):
            t[i, 0] = R[i, 0] * m00 + R[i, 1] * m01 + R[i, 2] * m20
            t[i, 1] = R[i, 0] * m01 + R[i, 1] * m11 + R[i, 2] * m12
            t[i, 2] = R[i, 0] * m20 + R[i, 1] * m12 + R[i, 2] * m22
        out6[0] = t[0, 0] * R[0, 0] + t[0, 1] * R[0, 1] + t[0, 2] * R[0, 2]
        out6[1] = t[1, 0] * R[1, 0] + t[1, 1] * R[1, 1] + t[1, 2] * R[1, 2]
        out6[2] = t[2, 0] * R[2, 0] + t[2, 1] * R[2, 1] + t[2, 2] * R[2, 2]
        out6[3] = t[0, 0] * R[1, 0] + t[0, 1] * R[1, 1] + t[0, 2] * R[1, 2]
        out6[4] = t[1, 0] * R[2, 0] + t[1, 1] * R[2, 1] + t[1, 2] * R[2, 2]
        out6[5] = t[2, 0] * R[0, 0] + t[2, 1] * R[0, 1] + t[2, 2] * R[0, 2]

    @njit(cache=True, inline="always")
    def _gss_nb(e6, d, f, lam):
        alpha = d * (e6[0] - e6[1]) + f * e6[5]
        beta = -2.0 * d * e6[3] + f * e6[4]
        return math.sqrt(lam * lam + 4.0 * (alpha * alpha + beta * beta))

    @njit(cache=True, nogil=True)
    def _pre_block_nb(gss, eps_c, ori, lo, hi, root, sigma, d, f, lam, rots,
                      crystal_frame):
        stride = np.uint64(DRAWS_PER_SAMPLE)
        e = np.empty(6)
        ed = np.empty(6)
        ec = np.empty(6)
        rts = np.empty((4, 3, 3))
        for o in range(4):
            for i in range(3):
                for j in range(3):
                    rts[o, i, j] = rots[o, j, i]  # transposes, defect -> crystal
        for i in range(lo, hi):
            base = np.uint64(i) * stride
            for p in range(3):
                z0, z1 = _norm_pair_nb(root, base + np.uint64(2 * p))
                e[2 * p] = sigma * z0
                e[2 * p + 1] = sigma * z1
            o = int(_u01_nb(root, base + np.uint64(6)) * 4.0)
            if o > 3:
                o = 3
            if crystal_frame:
                _rot_sym_nb(rots[o], e, ed)
                for c in range(6):
                    ec[c] = e[c]
            else:
                for c in range(6):
                    ed[c] = e[c]
                _rot_sym_nb(rts[o], e, ec)
            gss[i] = _gss_nb(ed, d, f, lam)
            for c in range(6):
                eps_c[i, c] = ec[c]
            ori[i] = o

    @njit(cache=True, inline="always")
    def _point_in_poly_nb(py, pz, y, z):
        inside = False
        n = len(py)
        for i in range(n):
            y0, z0 = py[i], pz[i]
            j = i + 1
            if j == n:
                j = 0
            y1, z1 = py[j], pz[j]
            if (z0 > z) != (z1 > z):
                y_cross = y0 + (z - z0) * (y1 - y0) / (z1 - z0)
                if y < y_cross:
                    inside = not inside
        return inside

    @njit(cache=True, nogil=True)
    def _post_block_nb(gss, eps_c, ori, xs, ys, depths, lo, hi, root,
                       poly_y, poly_z, z_top, membrane, curv, d_na, b, nu_s,
                       ax, ay, dmean, dstrag, crystal_from_beam, rots,
                       include_intr, sigma_i, d, f, lam):
        stride = np.uint64(DRAWS_PER_SAMPLE)
        eb = np.empty(6)
        ec = np.empty(6)
        ed = np.empty(6)
        intr = np.empty(6)
        tmp = np.empty(6)
        n_fail = 0
        rts = np.empty((4, 3, 3))
        for o in range(4):
            for i in range(3):
                for j in range(3):
                    rts[o, i, j] = rots[o, j, i]  # transposes, defect -> crystal
        for i in range(lo, hi):
            base = np.uint64(i) * stride
            cx = 0.0
            cy = 0.0
            cd = dmean
            found = False
            for attempt in range(MAX_POSITION_ATTEMPTS):
                off = base + np.uint64(4 * attempt)
                ux = _u01_nb(root, off)
                uy = _u01_nb(root, off + np.uint64(1))
                u1 = _u01_nb(root, off + np.uint64(2))
                u2 = _u01_nb(root, off + np.uint64(3))
                zn = math.sqrt(-2.0 * math.log1p(-u1)) * math.cos(2.0 * math.pi * u2)
                cx = (ux - 0.5) * ax
                cy = (uy - 0.5) * ay
                cd = dmean + dstrag * zn
                if cd >= 0.0 and _point_in_poly_nb(poly_y, poly_z, cy, z_top - cd):
                    found = True
                    break
            if not found:
                n_fail += 1
                cx = np.nan
                cy = np.nan
                cd = dmean
            o = int(_u01_nb(root, base + np.uint64(4 * MAX_POSITION_ATTEMPTS)) * 4.0)
            if o > 3:
                o = 3
            eyy = membrane + curv * (cd - d_na)
            exx = b * eyy
            ezz = -nu_s * (exx + eyy) / (1.0 - nu_s)
            eb[0] = exx
            eb[1] = eyy
            eb[2] = ezz
            eb[3] = 0.0
            eb[4] = 0.0
            eb[5] = 0.0
            _rot_sym_nb(crystal_from_beam, eb, ec)
            if include_intr:
                ib = base + np.uint64(4 * MAX_POSITION_ATTEMPTS + 1)
                for p in range(3):
                    z0, z1 = _norm_pair_nb(root, ib + np.uint64(2 * p))
                    intr[2 * p] = sigma_i * z0
                    intr[2 * p + 1] = sigma_i * z1
                _rot_sym_nb(rts[o], intr, tmp)
                for c in range(6):
                    ec[c] = ec[c] + tmp[c]
            _rot_sym_nb(rots[o], ec, ed)
            gss[i] = _gss_nb(ed, d, f, lam)
            for c in range(6):
                eps_c[i, c] = ec[c]
            ori[i] = o
            xs[i] = cx
            ys[i] = cy
            depths[i] = cd
        return n_fail


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def sample_pre_block(gss, eps_c, ori, lo, hi, root, sigma, d, f, lam, rots,
                     crystal_frame: bool) -> None:
    if BACKEND == "numba":
        _pre_block_nb(gss, eps_c, ori, lo, hi, root, sigma, d, f, lam, rots,
                      crystal_frame)
    else:
        _pre_block_numpy(gss, eps_c, ori, lo, hi, root, sigma, d, f, lam, rots,
                         crystal_frame)


def sample_post_block(gss, eps_c, ori, xs, ys, depths, lo, hi, root,
                      poly_y, poly_z, z_top, membrane, curv, d_na, b, nu_s,
                      ax, ay, dmean, dstrag, crystal_from_beam, rots,
                      include_intr: bool, sigma_i, d, f, lam) -> int:
    fn = _post_block_nb if BACKEND == "numba" else _post_block_numpy
    return fn(gss, eps_c, ori, xs, ys, depths, lo, hi, root,
              poly_y, poly_z, z_top, membrane, curv, d_na, b, nu_s,
              ax, ay, dmean, dstrag, crystal_from_beam, rots,
              include_intr, sigma_i, d, f, lam)
