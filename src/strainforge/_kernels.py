"""Hot numerical kernels: counter-based draws and the splitting evaluation.

Sampling runs in two stages. The draw stage produces everything random
and nothing else: unit normals, orientation ids and implantation
positions, none of which depends on the intrinsic sigma or the film
stress. The evaluation stage maps those draws through linear coupling
tables and evaluates the splitting. Ensemble samplers run both
stages per chunk; calibrations draw once and repeat only the evaluation.

Randomness is counter based: draw ``j`` of sample ``i`` is a pure function
of ``(seed, i * DRAWS_PER_SAMPLE + j)`` through a SplitMix64-style mixer,
so results are bit-identical no matter how the index range is chunked
across threads.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = [
    "MAX_POSITION_ATTEMPTS",
    "run_blocks",
    "draw_pre_block",
    "draw_post_block",
    "apply_rows",
    "apply_maps",
    "splitting",
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


def run_blocks(n: int, fn, threads: int | None) -> int:
    """Apply fn(lo, hi) over fixed-size chunks; sum integer returns.

    Output is identical for any thread count: chunk boundaries are fixed
    and every kernel writes disjoint per-index slices. ``threads`` None
    runs serially; otherwise it must be at least 1.
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
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
# draw stage
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


def _orientation_np(root, counters):
    """Uniform orientation id in 0..3 from one draw per sample."""
    return np.minimum((_u01_np(root, counters) * 4.0).astype(np.int64), 3)


def _base(lo, hi):
    return np.arange(lo, hi, dtype=np.uint64) * np.uint64(DRAWS_PER_SAMPLE)


def draw_pre_block(lo, hi, root):
    """Scale-free pre-deposition draws of samples [lo, hi).

    Returns six unit normals per sample, shape (m, 6), and orientation ids.
    """
    base = _base(lo, hi)
    return _normal_pairs_np(root, base, 0, 3), _orientation_np(root, base + np.uint64(6))


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


def draw_post_block(lo, hi, root, poly_y, poly_z, z_top, ax, ay, dmean, dstrag):
    """Scale-free post-deposition draws of samples [lo, hi).

    Positions are rejection sampled until they land inside the substrate;
    a sample that fails every attempt gets NaN lateral coordinates and the
    mean depth and is counted. Returns (x, y, depth, orientation ids,
    unit intrinsic normals (m, 6), failure count).
    """
    n = hi - lo
    base = _base(lo, hi)
    pend = np.arange(n)
    x = np.empty(n)
    y = np.empty(n)
    dep = np.empty(n)
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
    x[pend] = np.nan
    y[pend] = np.nan
    dep[pend] = dmean

    o = _orientation_np(root, base + np.uint64(4 * MAX_POSITION_ATTEMPTS))
    z = _normal_pairs_np(root, base, 4 * MAX_POSITION_ATTEMPTS + 1, 3)
    return x, y, dep, o, z, int(pend.size)


# ---------------------------------------------------------------------------
# evaluation stage
# ---------------------------------------------------------------------------

def apply_rows(rows, z):
    """One linear map for every sample: column i of the (r, m) result is
    rows @ z[i], for rows of shape (r, 6) and z of shape (m, 6)."""
    return np.einsum("mk,jk->jm", z, rows)


def apply_maps(maps, o, z):
    """Per-sample linear maps: column i of the (r, m) result is
    maps[o[i]] @ z[i], for maps of shape (4, r, 6) and z of shape (m, 6)."""
    return np.einsum("mk,mjk->jm", z, maps[o])


def splitting(lam, couplings):
    """Ground-state splitting sqrt(lam^2 + 4 (alpha^2 + beta^2)) in GHz of
    per-sample couplings (alpha, beta), shape (2, m)."""
    alpha, beta = couplings
    return np.sqrt(lam * lam + 4.0 * (alpha * alpha + beta * beta))
