"""Command-line interface.

Subcommands: mechanics, sample, calibrate, top, report, spectra. Every
output file is written atomically (temp file + rename) and is byte-stable
for a fixed seed and config, independent of --threads. Exit status: 0 on
success, 1 on domain errors, on operating-system errors such as an
unwritable output path and on an allocation that fails, such as an --n
too large for memory (single diagnostic line on stderr), 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import spectra
from .config import Config, load_config
from .errors import NoSingleEmitters, StrainforgeError
from .mechanics import solve_beam_state, strain_at
from .population import (
    calibrate_film_stress,
    calibrate_sigma,
    draw_ensemble,
    sample_chunks,
    summarize,
)
from .thermal import operability_curve, operational_temperature, operational_temperature_batch

__all__ = ["main", "run", "report"]

SCHEMA_VERSION = 2

# Measured batch means the report reproduces by construction.
PRE_TARGET_MEAN_GHZ = 119.0
POST_TARGET_MEAN_GHZ = 608.0

DEPTH_PROFILE_POINTS = 201
GSS_PDF_BINS = 250
TOP_CURVE_GSS_GHZ = np.linspace(46.0, 1500.0, 200)
OPERABILITY_TEMPS_K = np.linspace(0.25, 4.0, 151)
# rows of the ``sample`` table formatted per block
CSV_BLOCK_ROWS = 4096


def _write_atomic(path: Path, text) -> None:
    """Write ``text``, a string or an iterable of str or bytes chunks (str
    as UTF-8), to a temp file beside ``path`` and rename it into place; on
    failure the temp file is removed and the error re-raised."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _csv_text(header: str, columns, row_format: str) -> str:
    """A figure-data or histogram table, small enough to hold whole, as one
    string: the header line, then each row ``row_format % row``. The
    ``sample`` table goes through ``_sample_csv`` instead."""
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return header + "\n" + "".join(row_format % row + "\n" for row in rows)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strainforge",
        description="Model thin-film strain engineering of SiV centers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path (or $STRAINFORGE_CONFIG)")

    def monte_carlo(p):
        common(p)
        p.add_argument("--n", type=int, help="sample count (default from config)")
        p.add_argument("--seed", type=int, help="seed (default from config)")
        p.add_argument("--threads", type=_positive_int,
                       help="worker threads, at least 1; they shorten sample only (same output)")

    p = sub.add_parser("mechanics", help="beam strain model outputs")
    common(p)
    p.add_argument("--depth-profile", action="store_true", required=True,
                   help="emit depth_nm, eps_xx, eps_yy, eps_zz CSV")
    p.add_argument("--out", help="output CSV (default: stdout)")

    p = sub.add_parser("sample", help="draw a Monte Carlo ensemble")
    monte_carlo(p)
    p.add_argument("--phase", choices=("pre", "post"), required=True)
    p.add_argument("--out", required=True, help="samples CSV path")

    p = sub.add_parser("calibrate", help="fit sigma or film stress to a mean")
    monte_carlo(p)
    p.add_argument("--what", choices=("sigma", "stress"), required=True)
    p.add_argument("--target-ghz", type=float, required=True)

    p = sub.add_parser("top", help="operating temperature of a splitting")
    common(p)
    p.add_argument("--gss-ghz", type=float, required=True)

    p = sub.add_parser("report", help="calibrated ensembles and figure data")
    monte_carlo(p)
    p.add_argument("--out-dir", default=".", help="directory for output files")

    p = sub.add_parser("spectra", help="batch spectrum analysis")
    common(p)
    p.add_argument("--dir", required=True, help="directory of spectrum CSV files")
    p.add_argument("--batch-tag", required=True, help="tag applied to the batch")
    p.add_argument("--out", required=True, help="stats JSON path")

    return parser


def _cmd_mechanics(args, cfg: Config) -> int:
    field = solve_beam_state(cfg.stack, cfg.film_stress_mpa)
    depths = np.linspace(0.0, field.depth_max_nm, DEPTH_PROFILE_POINTS)
    eps = [strain_at(field, float(depth)) for depth in depths]
    text = _csv_text(
        "depth_nm,eps_xx,eps_yy,eps_zz",
        [depths, *np.array([(e.eps_xx, e.eps_yy, e.eps_zz) for e in eps]).T],
        "%r,%r,%r,%r",
    )
    if args.out:
        _write_atomic(Path(args.out), text)
    else:
        sys.stdout.write(text)
    return 0


def _sample_csv(chunks, gss):
    """The ``sample`` table as byte chunks, from the sampler's ``chunks`` in
    blocks of CSV_BLOCK_ROWS rows; only the splittings are kept, in ``gss``."""
    from . import _csvtext  # imported here so that other commands need not compile it

    yield (b"index,x_nm,y_nm,depth_nm,orientation_id,"
           b"eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz\n")
    lo = 0
    for s in chunks:
        hi = lo + len(s)
        gss[lo:hi] = s.gss_ghz
        columns = [np.arange(lo, hi), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
                   *s.eps_crystal.T, s.gss_ghz]
        for b in range(0, hi - lo, CSV_BLOCK_ROWS):
            yield _csvtext.format_rows([c[b:b + CSV_BLOCK_ROWS] for c in columns])
        del s, columns  # free the chunk before the next one is taken
        lo = hi


def _cmd_sample(args, cfg: Config) -> int:
    # before deposition: the same emitters in the beam at zero film stress
    stress = cfg.film_stress_mpa if args.phase == "post" else 0.0
    chunks = sample_chunks(
        args.n, cfg.stack, cfg.position, cfg.siv, args.seed,
        sigma=cfg.sigma_unstrained, stress_mpa=stress, threads=args.threads,
    )
    gss = np.empty(args.n)  # the splittings alone are kept, for the summary
    _write_atomic(Path(args.out), _sample_csv(chunks, gss))
    summary = summarize(gss)
    sys.stdout.write(_json_text({
        "phase": args.phase, "n": summary.n, "seed": args.seed,
        "mean_ghz": summary.mean_ghz, "std_ghz": summary.std_ghz,
        "sem_ghz": summary.sem_ghz, "out": str(args.out),
    }))
    return 0


def _cmd_calibrate(args, cfg: Config) -> int:
    ensemble = draw_ensemble(args.n, cfg.stack, cfg.position, cfg.siv, args.seed,
                             threads=args.threads)
    if args.what == "sigma":
        key, (value, _) = "sigma_unstrained", calibrate_sigma(args.target_ghz, ensemble)
    else:
        key, (value, _) = "film_stress_mpa", calibrate_film_stress(
            args.target_ghz, ensemble, cfg.sigma_unstrained)
    sys.stdout.write(_json_text({"what": args.what, "target_ghz": args.target_ghz,
                                 "n": args.n, "seed": args.seed, key: value}))
    return 0


def _cmd_top(args, cfg: Config) -> int:
    t_op = operational_temperature(args.gss_ghz, cfg.thermal)
    sys.stdout.write(f"{t_op:.4f} K\n")
    return 0


def report(cfg: Config, seed: int, n: int | None = None,
           threads: int | None = None, out_dir: str | Path = ".") -> dict:
    """Run the full calibrated-model pipeline and write the figure data.

    Draws one ensemble of emitters, calibrates the intrinsic strain spread
    to the pre-deposition measured mean (at zero film stress) and, at that
    sigma, the film stress to the post-deposition one, reports the
    ensemble at the two points the calibrations end on, solves
    per-emitter operating temperatures, and emits gss_pdf.csv,
    top_vs_gss.csv, operability.csv, and summary.json.
    """
    n = n if n is not None else cfg.default_n
    ref = cfg.thermal
    out_dir = Path(out_dir)

    ensemble = draw_ensemble(n, cfg.stack, cfg.position, cfg.siv, seed, threads=threads)
    sigma, pre_gss = calibrate_sigma(PRE_TARGET_MEAN_GHZ, ensemble)
    stress, post_gss = calibrate_film_stress(POST_TARGET_MEAN_GHZ, ensemble, sigma)
    del ensemble  # its arrays (25 MB at n = 1e6) would add to the T_op stage's peak RSS
    pre, post = summarize(pre_gss), summarize(post_gss)

    top_pre = operational_temperature_batch(pre_gss, ref)
    top_post = operational_temperature_batch(post_gss, ref)

    # shared-grid densities
    hi = 50.0 * math.ceil(max(pre_gss.max(), post_gss.max()) / 50.0)
    edges = np.linspace(0.0, hi, GSS_PDF_BINS + 1)
    densities = [np.histogram(gss, bins=edges, density=True)[0]
                 for gss in (pre_gss, post_gss)]
    _write_atomic(out_dir / "gss_pdf.csv", _csv_text(
        "bin_left_ghz,bin_right_ghz,pre_density,post_density",
        [edges[:-1], edges[1:], *densities], "%r,%r,%r,%r",
    ))

    top_curve = operational_temperature_batch(TOP_CURVE_GSS_GHZ, ref)
    _write_atomic(out_dir / "top_vs_gss.csv", _csv_text(
        "gss_ghz,t_op_k", [TOP_CURVE_GSS_GHZ, top_curve], "%r,%r",
    ))

    _write_atomic(out_dir / "operability.csv", _csv_text(
        "temp_k,p_pre,p_post",
        [OPERABILITY_TEMPS_K, operability_curve(top_pre, OPERABILITY_TEMPS_K),
         operability_curve(top_post, OPERABILITY_TEMPS_K)],
        "%r,%r,%r",
    ))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "n": n,
        "sigma_unstrained_calibrated": sigma,
        "film_stress_mpa_calibrated": stress,
        "pre_mean_ghz": pre.mean_ghz,
        "pre_std_ghz": pre.std_ghz,
        "pre_sem_ghz": pre.sem_ghz,
        "post_mean_ghz": post.mean_ghz,
        "post_std_ghz": post.std_ghz,
        "post_sem_ghz": post.sem_ghz,
        "p_top_ge_1p5k": float(np.mean(top_post >= 1.5)),
        "p_top_ge_2p0k": float(np.mean(top_post >= 2.0)),
        "pre_p_top_ge_1p5k": float(np.mean(top_pre >= 1.5)),
    }
    _write_atomic(out_dir / "summary.json", _json_text(summary))
    return summary


def _cmd_report(args, cfg: Config) -> int:
    summary = report(cfg, args.seed, args.n, args.threads, args.out_dir)
    sys.stdout.write(_json_text(summary))
    return 0


def _cmd_spectra(args, cfg: Config) -> int:
    if any(c in args.batch_tag for c in ',"\r\n'):  # written unquoted to the pooled CSV
        raise StrainforgeError(f"batch tag {args.batch_tag!r} has a comma, quote or line break")
    directory = Path(args.dir)
    if not directory.is_dir():
        raise StrainforgeError(f"not a directory: {directory}")
    out_path = Path(args.out)
    pooled_path = out_path.with_name(out_path.stem + "_pooled.csv")
    # a rerun into the same directory must not read this run's own output
    here = directory.resolve()
    written = {p.name for p in (out_path, pooled_path) if p.parent.resolve() == here}
    files = sorted(f for f in directory.glob("*.csv") if f.name not in written)
    if not files:
        raise StrainforgeError(f"no .csv spectra found in {directory}")
    records, assignments = [], []
    for f in files:
        try:
            peaks = spectra.detect_peaks(
                spectra.load_spectrum(f), cfg.smoothing_window, cfg.min_prominence)
        except StrainforgeError as exc:
            raise type(exc)(f"{f.name}: {exc}") from exc
        assignment = spectra.classify_and_extract(peaks)
        assignments.append(assignment)
        records.append({
            "file": f.name,
            "batch_tag": args.batch_tag,
            "n_peaks": len(assignment.peaks),
            "is_single_emitter": assignment.is_single_emitter,
            "gss_ghz": assignment.gss_ghz,
            "peaks": [asdict(p) for p in assignment.peaks],
        })

    try:
        stats = spectra.batch_gss_stats(assignments)
        gss_stats = {
            "n_spectra": stats.n_spectra,
            "n_single_emitters": stats.n_single_emitters,
            "n_gss_values": int(stats.summary.n),
            "mean_ghz": stats.summary.mean_ghz,
            "std_ghz": stats.summary.std_ghz,
            "sem_ghz": stats.summary.sem_ghz,
        }
    except NoSingleEmitters:
        gss_stats = None

    payload = {
        "schema_version": SCHEMA_VERSION,
        "batch_tag": args.batch_tag,
        "records": records,
        "gss_stats": gss_stats,
    }
    _write_atomic(out_path, _json_text(payload))

    edges, density = spectra.pool_transitions(assignments)
    _write_atomic(pooled_path, _csv_text(
        "batch_tag,bin_left_ghz,bin_right_ghz,density",
        [[args.batch_tag] * density.size, edges[:-1], edges[1:], density],
        "%s,%r,%r,%r",
    ))
    sys.stdout.write(_json_text({"out": str(out_path), "pooled": str(pooled_path)}))
    return 0


_COMMANDS = {
    "mechanics": _cmd_mechanics,
    "sample": _cmd_sample,
    "calibrate": _cmd_calibrate,
    "top": _cmd_top,
    "report": _cmd_report,
    "spectra": _cmd_spectra,
}


def run(argv: list[str]) -> int:
    """Entry point as a function; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        if "seed" in args:  # a Monte Carlo command: unset --n/--seed come from cfg
            args.n = cfg.default_n if args.n is None else args.n
            args.seed = cfg.default_seed if args.seed is None else args.seed
        return _COMMANDS[args.command](args, cfg)
    except (StrainforgeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
