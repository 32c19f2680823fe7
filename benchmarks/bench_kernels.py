"""Time the two sampling stages and the text of the sample CSV.

The draw stage (counter-based normals, orientations, rejection-sampled
positions) runs once per ensemble; the evaluation stage (coupling tables
applied to the draws, then the splitting) is what every calibration step
repeats. Both run here as single unchunked blocks on one thread. Last,
one CSV_BLOCK_ROWS block of a post-deposition sample is turned into CSV
text by the numpy writer and by per-row ``%`` formatting.

    python benchmarks/bench_kernels.py [--n N] [--repeats R]
"""

import argparse
import time

import numpy as np

import strainforge._kernels as kernels
import strainforge.population as pop
from strainforge._csvtext import format_rows
from strainforge.cli import CSV_BLOCK_ROWS
from strainforge.config import default_config
from strainforge.mechanics import solve_beam_state


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def line(label, secs, n):
    print(f"  {label:34s} {secs * 1e3:9.2f} ms   {n / secs / 1e6:8.2f} Msamples/s")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    n, repeats = args.n, args.repeats

    cfg = default_config()
    params = cfg.siv
    pos = cfg.position
    field = solve_beam_state(cfg.stack)
    root = kernels.seed_root(12345)
    lam, sigma = params.lambda_so_ghz, 1.5e-5
    rows = pop._intrinsic_rows(params)
    to_crystal = pop._DEFECT_TO_CRYSTAL
    film_crystal, film_rows = pop._film_response(field, params)

    print(f"pre-deposition (n = {n:,})")
    z, o = kernels.draw_pre_block(0, n, root)
    line("draw: normals + orientation", best_of(lambda: kernels.draw_pre_block(0, n, root), repeats), n)
    line("couplings: W z", best_of(lambda: kernels.apply_rows(rows, z), repeats), n)
    unit = kernels.apply_rows(rows, z)
    line("splitting from cached couplings", best_of(lambda: kernels.splitting(lam, sigma * unit), repeats), n)
    line("crystal tensors: 6x6 map per o", best_of(lambda: kernels.apply_maps(to_crystal, o, z), repeats), n)

    print(f"\npost-deposition (n = {n:,})")
    draw = pop._draw_post(root, pos, field.cross_section)
    line("draw: positions + o + normals", best_of(lambda: draw(0, n), repeats), n)
    _, _, depth, o, z, _ = draw(0, n)
    unit = kernels.apply_rows(rows, z)

    def evaluate():
        eyy = field.axial_strain(depth)
        return kernels.splitting(lam, eyy * film_rows[:, o] + sigma * unit)

    line("splitting from cached couplings", best_of(evaluate, repeats), n)
    line("crystal tensors: film + 6x6 map",
         best_of(lambda: field.axial_strain(depth)[:, None] * film_crystal
                 + (sigma * kernels.apply_maps(to_crystal, o, z)).T, repeats), n)
    print(f"\nmean gss of the last evaluation: {float(np.mean(evaluate())):.3f} GHz")

    rows = min(n, CSV_BLOCK_ROWS)
    s = pop.sample_post_deposition(rows, pos, field, params,
                                   intrinsic=cfg.intrinsic, seed=12345).samples
    cols = [np.arange(rows), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
            *s.eps_crystal.T, s.gss_ghz]
    fmt = "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7

    def per_row():
        line = fmt + "\n"
        return "".join(line % row for row in zip(*(c.tolist() for c in cols))).encode()

    assert format_rows(cols, fmt) == per_row()
    print(f"\nsample CSV text ({rows:,} rows x {len(cols)} columns, bytes equal)")
    for label, fn in (("numpy writer (_csvtext)", lambda: format_rows(cols, fmt)),
                      ("per-row % formatting", per_row)):
        print(f"  {label:34s} {best_of(fn, repeats) / (rows * len(cols)) * 1e9:9.1f} ns/value")


if __name__ == "__main__":
    main()
