"""Benchmark the numba sampling kernels against their pure-numpy fallbacks.

Runs each sampling kernel with both backends on identical counter-based draw
streams, reports throughput, and cross-checks that the outputs agree.

    python benchmarks/bench_kernels.py [--n N] [--repeats R]
"""

import argparse
import time

import numpy as np

import strainforge._kernels as kernels
import strainforge.population as pop
from strainforge.config import default_config
from strainforge.core import SivParameters
from strainforge.mechanics import CRYSTAL_FROM_BEAM, solve_beam_state


def timeit(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_pre(n, repeats, params, root):
    out = {}
    for name, fn in (("numba", kernels._pre_block_nb if kernels.HAVE_NUMBA else None),
                     ("numpy", kernels._pre_block_numpy)):
        if fn is None:
            continue
        gss = np.empty(n)
        eps = np.empty((n, 6))
        ori = np.empty(n, dtype=np.int64)

        def call():
            fn(gss, eps, ori, 0, n, root, 1.5e-5,
               params.d_ghz_per_strain, params.f_ghz_per_strain,
               params.lambda_so_ghz, pop._ROTS, False)

        call()  # warm / jit
        out[name] = (timeit(call, repeats), gss.copy())
    return out


def bench_post(n, repeats, params, root, field, pos):
    cs = field.cross_section
    poly_y = np.ascontiguousarray(cs.vertices_nm[:, 0])
    poly_z = np.ascontiguousarray(cs.vertices_nm[:, 1])
    out = {}
    for name, fn in (("numba", kernels._post_block_nb if kernels.HAVE_NUMBA else None),
                     ("numpy", kernels._post_block_numpy)):
        if fn is None:
            continue
        gss = np.empty(n)
        eps = np.empty((n, 6))
        ori = np.empty(n, dtype=np.int64)
        xs, ys, ds = np.empty(n), np.empty(n), np.empty(n)

        def call():
            fn(gss, eps, ori, xs, ys, ds, 0, n, root,
               poly_y, poly_z, cs.z_top_nm,
               field.membrane_strain, field.curvature_per_nm,
               field.neutral_axis_depth_nm, field.biaxiality_factor,
               field.nu_substrate,
               pos.aperture_x_nm, pos.aperture_y_nm,
               pos.depth_mean_nm, pos.depth_straggle_nm,
               CRYSTAL_FROM_BEAM, pop._ROTS, True, 1.5e-5,
               params.d_ghz_per_strain, params.f_ghz_per_strain,
               params.lambda_so_ghz)

        call()
        out[name] = (timeit(call, repeats), gss.copy())
    return out


def report(label, results, n):
    print(f"\n{label} (n = {n:,})")
    ref = None
    for name in ("numba", "numpy"):
        if name not in results:
            print(f"  {name:6s}  unavailable")
            continue
        secs, values = results[name]
        rate = n / secs / 1e6
        print(f"  {name:6s}  {secs * 1e3:9.2f} ms   {rate:8.2f} Msamples/s")
        if ref is None:
            ref = (secs, values)
        else:
            speedup = results["numpy"][0] / results["numba"][0] \
                if "numba" in results else float("nan")
            nz = np.abs(ref[1]) + 1e-300
            rel = float(np.max(np.abs(values - ref[1]) / nz))
            print(f"  speedup numba/numpy: {speedup:.1f}x   "
                  f"max rel deviation: {rel:.2e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()

    print(f"active backend: {kernels.active_backend()} "
          f"(numba available: {kernels.HAVE_NUMBA})")

    cfg = default_config()
    params = SivParameters()
    root = kernels.seed_root(12345)
    field = solve_beam_state(cfg.layer_stack())
    pos = cfg.position_distribution()

    pre = bench_pre(args.n, args.repeats, params, root)
    report("pre-deposition ensemble kernel", pre, args.n)

    post = bench_post(args.n, args.repeats, params, root, field, pos)
    report("post-deposition ensemble kernel", post, args.n)


if __name__ == "__main__":
    main()
