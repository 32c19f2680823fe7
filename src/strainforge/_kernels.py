"""Counter-based draws and the chunk runner.

Sampling runs in two stages. The draw stage, here, produces everything
random and nothing else: implantation positions (attempt 0 fills a
range's outputs, and a range that cannot place an emitter raises),
orientation ids and Box-Muller pairs of unit normals, none of which
depends on the intrinsic sigma or the film stress. A full intrinsic
tensor takes three pairs; the splitting reads only the first, so an
ensemble kept for calibration draws one. The evaluation stage, in
``population``, maps those draws through linear coupling tables and
evaluates the splitting: the sampler runs both stages per chunk; an
ensemble is drawn once and evaluated at any (sigma, film stress).

Randomness is counter based: draw ``j`` of sample ``i`` is a pure function
of ``(seed, i * DRAWS_PER_SAMPLE + j)`` through a SplitMix64-style mixer,
so results are bit-identical no matter how the index range is chunked
across threads.
"""

from __future__ import annotations

import numbers
from collections import deque

import numpy as np

from .errors import DegenerateGeometry, InvalidParameter

__all__ = [
    "run_blocks",
    "draw_post_block",
]

# Fixed per-sample draw budget; rejection resampling stays well inside it.
DRAWS_PER_SAMPLE = 512
MAX_POSITION_ATTEMPTS = 100

# Fixed chunk size for thread-level parallelism. Per-sample values never depend
# on chunk boundaries, so this only bounds working memory: a few chunks in flight.
CHUNK = 65536

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 1.0 / 9007199254740992.0  # 2**-53


def run_blocks(n: int, fn, threads: int | None):
    """Apply fn(lo, hi) over fixed-size chunks; yield each chunk's result
    (or raise its exception) in chunk order.

    Output is identical for any thread count: chunk boundaries are fixed,
    every caller writes disjoint per-index slices, and a caller that
    reduces the results does so in chunk order. ``threads`` None or 1 runs
    serially, and one that is not an integer or is below 1 is rejected at
    the call; otherwise at most ``threads`` chunks are submitted and not
    yet taken."""
    if threads is not None:
        if isinstance(threads, bool) or not isinstance(threads, numbers.Integral):
            raise InvalidParameter(f"threads must be an integer, got {threads!r}")
        if threads < 1:
            raise InvalidParameter(f"threads must be at least 1, got {threads}")
    bounds = ((lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))
    if threads is None or threads == 1 or n <= CHUNK:
        return (fn(lo, hi) for lo, hi in bounds)
    return _window(fn, bounds, threads)


def _window(fn, bounds, threads):
    from concurrent.futures import ThreadPoolExecutor  # imported here: serial runs need no pool

    with ThreadPoolExecutor(max_workers=threads) as pool:
        window = deque()
        for lo, hi in bounds:
            window.append(pool.submit(fn, lo, hi))
            if len(window) == threads:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def seed_root(seed: int) -> np.uint64:
    """Avalanche-mixed 64-bit stream root for a user seed: one SplitMix64
    step, a bijection of [0, 2**64), so distinct seeds in that range root
    distinct streams."""
    mask = 0xFFFFFFFFFFFFFFFF
    z = ((int(seed) & mask) + int(_GOLDEN)) & mask
    z = ((z ^ (z >> 30)) * int(_MIX1)) & mask
    z = ((z ^ (z >> 27)) * int(_MIX2)) & mask
    return np.uint64(z ^ (z >> 31))


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


def _point_in_poly_np(verts, y, z):
    """Vectorized crossing-number containment of points (y, z) in the
    polygon of (y, z) vertices ``verts``."""
    inside = np.zeros(y.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        (y0, z0), (y1, z1) = verts[i], verts[(i + 1) % n]
        hit = (z0 > z) != (z1 > z)
        if z1 != z0:
            y_cross = y0 + (z - z0) * (y1 - y0) / (z1 - z0)
            inside ^= hit & (y < y_cross)
    return inside


def _position_attempt(root, counters, attempt, cs, pos):
    """Position attempt ``attempt`` of the emitters whose draws start at
    ``counters``: (x, y, depth, inside the substrate)."""
    off = np.uint64(4 * attempt)
    ux = _u01_np(root, counters + off)
    uy = _u01_np(root, counters + off + np.uint64(1))
    u1 = _u01_np(root, counters + off + np.uint64(2))
    u2 = _u01_np(root, counters + off + np.uint64(3))
    zn = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
    x = (ux - 0.5) * pos.aperture_x_nm
    y = (uy - 0.5) * pos.aperture_y_nm
    depth = pos.depth_mean_nm + pos.depth_straggle_nm * zn
    inside = (depth >= 0.0) & _point_in_poly_np(cs.vertices_nm, y, cs.z_top_nm - depth)
    return x, y, depth, inside


def draw_post_block(lo, hi, root, n_pairs, cs, pos):
    """Scale-free draws of implanted emitters [lo, hi) of the stream
    ``root`` in the cross-section ``cs``, under the position model ``pos``.

    Positions are rejection sampled until they land inside the substrate;
    attempts after the first redraw only the emitters still outside, and
    if any fails every attempt, DegenerateGeometry counts the failures of
    [lo, hi). Returns fresh arrays: (x, y, depth, orientation ids,
    ``n_pairs`` Box-Muller pairs (hi - lo, 2 n_pairs)).
    """
    base = np.arange(lo, hi, dtype=np.uint64) * np.uint64(DRAWS_PER_SAMPLE)
    x, y, depth, inside = _position_attempt(root, base, 0, cs, pos)
    pend = np.flatnonzero(~inside)
    for attempt in range(1, MAX_POSITION_ATTEMPTS):
        if pend.size == 0:
            break
        cx, cy, cd, ok = _position_attempt(root, base[pend], attempt, cs, pos)
        sel = pend[ok]
        x[sel], y[sel], depth[sel] = cx[ok], cy[ok], cd[ok]
        pend = pend[~ok]
    if pend.size:
        raise DegenerateGeometry(
            f"{pend.size} of emitters [{lo}, {hi}) failed substrate containment "
            f"after {MAX_POSITION_ATTEMPTS} attempts each"
        )
    o = _orientation_np(root, base + np.uint64(4 * MAX_POSITION_ATTEMPTS))
    z = _normal_pairs_np(root, base, 4 * MAX_POSITION_ATTEMPTS + 1, n_pairs)
    return x, y, depth, o, z
