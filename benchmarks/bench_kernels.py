"""Time the two sampling stages and the text of the sample CSV.

The draw stage (rejection-sampled positions, orientations, counter-based
normals) runs once per ensemble: three Box-Muller pairs per emitter for a
sample's tensors, one pair for an ensemble kept for calibration, which
reads the splitting only. The share of emitters placed by the first
position attempt says how much of the draw the retries can cost. The
evaluation stage (coupling tables applied to the draws, then the
splitting) runs once per Newton step of a calibration, at zero film
stress for the sigma fit and at a trial stress for the stress fit, and a
step also reads the mean's exact slope from the same pass: the lines with
the slope next to the plain ones show what it adds per step. The
operating temperatures of one evaluation's splittings are solved as
``report`` solves them.
Each draw runs as its caller runs it, all on one thread: the sampler's
as ``sample_chunks`` does, one kernel call per CHUNK emitters, and the
calibration's as ``report`` does, ``draw_ensemble`` drawing each chunk in
sub-blocks copied into the ensemble's arrays, with the minor page faults
of its first call. The evaluation runs as ``Ensemble.gss`` runs it.
Last, one CSV_BLOCK_ROWS block of the sampler's first chunk is turned
into CSV text by the numpy writer and by per-row ``%`` formatting.

    python benchmarks/bench_kernels.py [--n N] [--repeats R]
"""

import argparse
import resource
import time

import numpy as np

import strainforge._kernels as kernels
import strainforge.population as pop
from strainforge._csvtext import format_rows
from strainforge.cli import CSV_BLOCK_ROWS
from strainforge.config import default_config
from strainforge.mechanics import solve_beam_state
from strainforge.thermal import operational_temperature_batch


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
    stress = cfg.film_stress_mpa
    field = solve_beam_state(cfg.stack, stress)
    sigma = 1.5e-5
    film_crystal, _, _, to_crystal = pop._tables(cfg.stack, params)

    print(f"one ensemble (n = {n:,})")
    root = kernels.seed_root(12345)

    def draw(lo):  # one chunk of the sampler's draw: positions, orientations, 3 pairs
        return kernels.draw_post_block(lo, min(lo + kernels.CHUNK, n), root, 3,
                                       cfg.stack.cross_section, pos)

    def draw_chunks():
        for lo in range(0, n, kernels.CHUNK):
            draw(lo)

    def draw_ensemble():
        return pop.draw_ensemble(n, cfg.stack, pos, params, 12345, threads=1)

    # first, as in report: later draws reuse the heap the earlier ones grew
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    ensemble = draw_ensemble()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    line("draw_ensemble: pos + o + 1 pair", best_of(draw_ensemble, repeats), n)
    print(f"  its first call: {faults:,} minor page faults")
    line("draw: positions + o + 3 pairs", best_of(draw_chunks, repeats), n)
    base = np.arange(n, dtype=np.uint64) * np.uint64(kernels.DRAWS_PER_SAMPLE)
    inside = kernels._position_attempt(root, base, 0, cfg.stack.cross_section, pos)[3]
    print(f"  placed at attempt 0: {inside.mean():.2%} of emitters")
    _, _, depth, o, z = map(np.concatenate, zip(*map(draw, range(0, n, kernels.CHUNK))))
    line("splitting at zero film stress", best_of(lambda: ensemble.gss(sigma, 0.0), repeats), n)
    line("  with d mean / d sigma",
         best_of(lambda: ensemble.gss(sigma, 0.0, _slope="sigma"), repeats), n)
    line("splitting at 700 MPa", best_of(lambda: ensemble.gss(sigma, 700.0), repeats), n)
    line("  with d mean / d stress",
         best_of(lambda: ensemble.gss(sigma, 700.0, _slope="stress"), repeats), n)
    gss_700 = ensemble.gss(sigma, 700.0)
    line("T_op of the splittings at 700 MPa",
         best_of(lambda: operational_temperature_batch(gss_700), repeats), n)
    line("crystal tensors: film + 6x6 map",
         best_of(lambda: field.axial_strain(depth)[:, None] * film_crystal
                 + (sigma * np.einsum("mk,mjk->jm", z, to_crystal[o])).T, repeats), n)
    print(f"\nmean gss at 700 MPa: {float(np.mean(ensemble.gss(sigma, 700.0))):.3f} GHz")

    rows = min(n, CSV_BLOCK_ROWS)
    s = next(pop.sample_chunks(rows, cfg.stack, pos, params, 12345,
                               sigma=cfg.sigma_unstrained, stress_mpa=stress))
    cols = [np.arange(rows), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
            *s.eps_crystal.T, s.gss_ghz]
    fmt = "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7

    def per_row():
        line = fmt + "\n"
        return "".join(line % row for row in zip(*(c.tolist() for c in cols))).encode()

    assert format_rows(cols) == per_row()
    print(f"\nsample CSV text ({rows:,} rows x {len(cols)} columns, bytes equal)")
    for label, fn in (("numpy writer (_csvtext)", lambda: format_rows(cols)),
                      ("per-row % formatting", per_row)):
        print(f"  {label:34s} {best_of(fn, repeats) / (rows * len(cols)) * 1e9:9.1f} ns/value")


if __name__ == "__main__":
    main()
