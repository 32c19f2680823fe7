"""Command-line interface.

Subcommands: mechanics, sample, calibrate, top, report, spectra. Every
output file is written atomically (temp file + rename) and is byte-stable
for a fixed seed and config, independent of --threads. Exit status: 0 on
success, 1 on domain errors and on operating-system errors such as an
unwritable output path (single diagnostic line on stderr), 2 on usage
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
    IntrinsicStrainModel,
    calibrate_film_stress,
    calibrate_sigma,
    sample_post_deposition,
    sample_pre_deposition,
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
# rows formatted per chunk of a streamed CSV table
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


def _csv_chunks(header: str, columns, row_format: str):
    """A small CSV table as text chunks: the header line, then one chunk
    per block of CSV_BLOCK_ROWS rows, each row ``row_format % row``. The
    ``sample`` table goes through ``_csvtext`` instead."""
    yield header + "\n"
    columns = [np.asarray(c) for c in columns]
    row_format += "\n"
    for lo in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        rows = zip(*(c[lo:lo + CSV_BLOCK_ROWS].tolist() for c in columns))
        yield "".join(row_format % row for row in rows)


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
                       help="worker threads, at least 1 (results identical)")

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
    field = solve_beam_state(cfg.stack)
    depths = np.linspace(0.0, field.depth_max_nm, DEPTH_PROFILE_POINTS)
    eps = [strain_at(field, float(depth)) for depth in depths]
    chunks = _csv_chunks(
        "depth_nm,eps_xx,eps_yy,eps_zz",
        [depths, *np.array([(e.eps_xx, e.eps_yy, e.eps_zz) for e in eps]).T],
        "%r,%r,%r,%r",
    )
    if args.out:
        _write_atomic(Path(args.out), chunks)
    else:
        sys.stdout.writelines(chunks)
    return 0


def _cmd_sample(args, cfg: Config) -> int:
    from . import _csvtext  # imported here so that other commands need not compile it

    if args.phase == "pre":
        result = sample_pre_deposition(
            args.n, cfg.intrinsic, cfg.siv, args.seed, threads=args.threads,
        )
    else:
        result = sample_post_deposition(
            args.n, cfg.position, solve_beam_state(cfg.stack), cfg.siv,
            intrinsic=cfg.intrinsic, seed=args.seed, threads=args.threads,
        )
    s = result.samples
    chunks = _csvtext.csv_chunks(
        "index,x_nm,y_nm,depth_nm,orientation_id,"
        "eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz",
        [np.arange(len(s)), s.x_nm, s.y_nm, s.depth_nm, s.orientation_id,
         *s.eps_crystal.T, s.gss_ghz],
        "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7, CSV_BLOCK_ROWS,
    )
    _write_atomic(Path(args.out), chunks)
    summary = result.summary
    sys.stdout.write(_json_text({
        "phase": args.phase, "n": summary.n, "seed": args.seed,
        "mean_ghz": summary.mean_ghz, "std_ghz": summary.std_ghz,
        "sem_ghz": summary.sem_ghz, "out": str(args.out),
    }))
    return 0


def _cmd_calibrate(args, cfg: Config) -> int:
    if args.what == "sigma":
        key, (value, _) = "sigma_unstrained", calibrate_sigma(
            args.target_ghz, args.n, args.seed, cfg.siv, threads=args.threads,
        )
    else:
        key, (value, _) = "film_stress_mpa", calibrate_film_stress(
            args.target_ghz, cfg.stack, cfg.position, cfg.siv, args.n, args.seed,
            intrinsic=cfg.intrinsic, threads=args.threads,
        )
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

    Calibrates the intrinsic strain spread to the pre-deposition measured
    mean and the film stress to the post-deposition one, reports the two
    ensembles the calibrations end on (each drawn once), solves
    per-emitter operating temperatures, and emits gss_pdf.csv,
    top_vs_gss.csv, operability.csv, and summary.json.
    """
    n = n if n is not None else cfg.default_n
    ref = cfg.thermal
    out_dir = Path(out_dir)

    sigma, pre_gss = calibrate_sigma(PRE_TARGET_MEAN_GHZ, n, seed, cfg.siv, threads=threads)
    stress, post_gss = calibrate_film_stress(
        POST_TARGET_MEAN_GHZ, cfg.stack, cfg.position, cfg.siv, n, seed,
        intrinsic=IntrinsicStrainModel(sigma), threads=threads,
    )
    pre, post = summarize(pre_gss), summarize(post_gss)

    top_pre = operational_temperature_batch(pre_gss, ref)
    top_post = operational_temperature_batch(post_gss, ref)

    # shared-grid densities
    hi = 50.0 * math.ceil(max(pre_gss.max(), post_gss.max()) / 50.0)
    edges = np.linspace(0.0, hi, GSS_PDF_BINS + 1)
    densities = [np.histogram(gss, bins=edges, density=True)[0]
                 for gss in (pre_gss, post_gss)]
    _write_atomic(out_dir / "gss_pdf.csv", _csv_chunks(
        "bin_left_ghz,bin_right_ghz,pre_density,post_density",
        [edges[:-1], edges[1:], *densities], "%r,%r,%r,%r",
    ))

    top_curve = operational_temperature_batch(TOP_CURVE_GSS_GHZ, ref)
    _write_atomic(out_dir / "top_vs_gss.csv", _csv_chunks(
        "gss_ghz,t_op_k", [TOP_CURVE_GSS_GHZ, top_curve], "%r,%r",
    ))

    _write_atomic(out_dir / "operability.csv", _csv_chunks(
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
    files = sorted(directory.glob("*.csv"))
    if not files:
        raise StrainforgeError(f"no .csv spectra found in {directory}")
    batch = [
        spectra.load_spectrum(f, label=f.name, batch_tag=args.batch_tag)
        for f in files
    ]
    assignments = [
        spectra.classify_and_extract(
            spectra.detect_peaks(spec, cfg.smoothing_window, cfg.min_prominence)
        )
        for spec in batch
    ]
    records = [
        {
            "file": spec.label,
            "batch_tag": spec.batch_tag,
            "n_peaks": len(assignment.peaks),
            "is_single_emitter": assignment.is_single_emitter,
            "gss_ghz": assignment.gss_ghz,
            "peaks": [asdict(p) for p in assignment.peaks],
        }
        for spec, assignment in zip(batch, assignments)
    ]

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

    out_path = Path(args.out)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "batch_tag": args.batch_tag,
        "records": records,
        "gss_stats": gss_stats,
    }
    _write_atomic(out_path, _json_text(payload))

    pooled = spectra.pool_transitions(batch, assignments)
    hists = [pooled[tag] for tag in sorted(pooled)]
    chunks = _csv_chunks(
        "batch_tag,bin_left_ghz,bin_right_ghz,density",
        [[h.batch_tag for h in hists for _ in h.density],
         np.concatenate([h.edges_ghz[:-1] for h in hists]),
         np.concatenate([h.edges_ghz[1:] for h in hists]),
         np.concatenate([h.density for h in hists])],
        "%s,%r,%r,%r",
    )
    pooled_path = out_path.with_name(out_path.stem + "_pooled.csv")
    _write_atomic(pooled_path, chunks)
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
    except (StrainforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
