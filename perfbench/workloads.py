"""Benchmark workloads: inputs made from a seed, the CLI command, and the
checks that decide whether one operation's outputs are correct.

Every check returns a list of problems; an empty list means the outputs
passed. `corrupt` damages a passed output so the smoke mode can show that
the checks notice.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

LAMBDA_SO_GHZ = 46.0  # spin-orbit floor of the default config
SPEED_OF_LIGHT_M_S = 299792458.0
SPECTRUM_AXES = ("frequency_ghz", "frequency_thz", "wavelength_nm", None)
SAMPLE_COLUMNS = ("index,x_nm,y_nm,depth_nm,orientation_id,"
                  "eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Inputs:
    """What one run of a workload feeds to every operation."""

    seed: int
    size: int
    in_dir: Path | None = None
    truth: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str                  # why each was chosen: BENCHMARK.json
    unit: str                  # what items_per_s counts
    full_size: int
    smoke_size: int
    prepare: Callable[[Path, int, int], Inputs]
    argv: Callable[[Inputs, Path], list]
    check: Callable[[Inputs, Path, str], list]
    corrupt: Callable[[Path], None]
    results: Callable[[Path], dict] | None = None   # result values of a passed output


def _no_inputs(work: Path, seed: int, size: int) -> Inputs:
    return Inputs(seed=seed, size=size)


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()]


# --------------------------------------------------------------------------
# report: the paper pipeline
# --------------------------------------------------------------------------

REPORT_FILES = {"gss_pdf.csv": 250, "top_vs_gss.csv": 200, "operability.csv": 151}


def _report_argv(inp: Inputs, out: Path) -> list:
    return ["report", "--n", str(inp.size), "--seed", str(inp.seed),
            "--threads", "1", "--out-dir", str(out)]


def _report_check(inp: Inputs, out: Path, stdout: str) -> list:
    problems = []
    try:
        s = json.loads((out / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    if json.loads(stdout or "null") != s:
        problems.append("stdout summary differs from summary.json")
    if s.get("n") != inp.size or s.get("seed") != inp.seed:
        problems.append("summary n/seed do not match the request")
    windows = [  # (name, value, lo, hi): the calibration tolerance and C3, C4, C7
        ("pre_mean_ghz", s["pre_mean_ghz"], 119.0 - 0.05, 119.0 + 0.05),
        ("post_mean_ghz", s["post_mean_ghz"], 608.0 - 0.05, 608.0 + 0.05),
        ("sigma", s["sigma_unstrained_calibrated"], 0.75 * 1.9e-5, 1.25 * 1.9e-5),
        ("pre_std_ghz", s["pre_std_ghz"], 0.8 * 52.0, 1.2 * 52.0),
        ("stress_mpa", s["film_stress_mpa_calibrated"], 0.7 * 700.0, 1.3 * 700.0),
        ("post_std_ghz", s["post_std_ghz"], 0.7 * 249.0, 1.3 * 249.0),
        ("p_top_ge_1p5k", s["p_top_ge_1p5k"], math.nextafter(0.5, 1.0), 1.0),
        ("p_top_ge_2p0k", s["p_top_ge_2p0k"], math.nextafter(0.2, 1.0), 1.0),
        ("pre_p_top_ge_1p5k", s["pre_p_top_ge_1p5k"], 0.0, math.nextafter(0.02, 0.0)),
    ]
    for name, value, lo, hi in windows:
        if not lo <= value <= hi:
            problems.append(f"{name} = {value} outside [{lo}, {hi}]")
    for name, rows in REPORT_FILES.items():
        try:
            table = _csv_rows(out / name)
        except OSError as exc:
            problems.append(f"{name} missing: {exc}")
            continue
        if len(table) != rows + 1:
            problems.append(f"{name}: {len(table) - 1} rows, expected {rows}")
    if not problems:
        curve = np.array(_csv_rows(out / "operability.csv")[1:], dtype=float)
        if np.any(np.diff(curve[:, 1:], axis=0) > 0):
            problems.append("operability curve increases")
    return problems


def _report_corrupt(out: Path) -> None:
    path = out / "summary.json"
    s = json.loads(path.read_text())
    s["post_mean_ghz"] += 1.0
    path.write_text(json.dumps(s))


def report_results(out: Path) -> dict:
    """Result values of a passed report: calibration errors and C7 margin."""
    s = json.loads((out / "summary.json").read_text())
    return {
        "result.pre_mean_err_ghz": abs(s["pre_mean_ghz"] - 119.0),
        "result.post_mean_err_ghz": abs(s["post_mean_ghz"] - 608.0),
        "result.c7_margin": s["p_top_ge_1p5k"] - 0.5,
    }


# --------------------------------------------------------------------------
# sample --phase post: one draw written as a large CSV
# --------------------------------------------------------------------------

def _sample_argv(inp: Inputs, out: Path) -> list:
    return ["sample", "--phase", "post", "--n", str(inp.size), "--seed",
            str(inp.seed), "--threads", str(nproc()), "--out", str(out / "samples.csv")]


def _rows_from_core(table: np.ndarray, rows) -> np.ndarray:
    """gss of chosen rows recomputed through the public core functions."""
    from strainforge.core import (ORIENTATIONS, Frame, SivParameters, StrainTensor,
                                  defect_frame_strain, eg_couplings,
                                  ground_state_splitting)

    params = SivParameters()
    out = []
    for i in rows:
        eps = StrainTensor(*table[i, 5:11], frame=Frame.CRYSTAL)
        eps_d = defect_frame_strain(eps, ORIENTATIONS[int(table[i, 4])])
        out.append(ground_state_splitting(eg_couplings(eps_d, params), params))
    return np.array(out)


def _sample_check(inp: Inputs, out: Path, stdout: str) -> list:
    path = out / "samples.csv"
    try:
        printed = json.loads(stdout)
        with open(path, "rb") as fh:
            header = fh.readline().decode().rstrip("\n")
            lines = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 24), b""))
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"samples unreadable: {exc}"]
    problems = []
    if header != SAMPLE_COLUMNS:
        problems.append(f"header {header!r}")
    if lines != inp.size + 1 or table.shape != (inp.size, 12):
        return problems + [f"{lines} lines / table {table.shape}, expected "
                           f"{inp.size + 1} lines of 12 columns"]
    gss = np.ascontiguousarray(table[:, 11])
    if printed.get("n") != inp.size or printed.get("seed") != inp.seed:
        problems.append("printed n/seed do not match the request")
    if not np.array_equal(table[:, 0], np.arange(inp.size)):
        problems.append("index column is not 0..n-1")
    if not np.all(np.isin(table[:, 4], (0, 1, 2, 3))):
        problems.append("orientation_id outside 0..3")
    if not np.all(gss >= LAMBDA_SO_GHZ):
        problems.append(f"{int(np.sum(gss < LAMBDA_SO_GHZ))} rows below the floor")
    mean = float(np.mean(gss))
    if not abs(mean - printed.get("mean_ghz", math.nan)) <= 1e-9 * mean:
        problems.append(f"printed mean {printed.get('mean_ghz')} != recomputed {mean}")
    rows = np.random.default_rng(inp.seed).choice(inp.size, size=min(8, inp.size),
                                                  replace=False)
    ref = _rows_from_core(table, rows)
    if not np.all(np.abs(gss[rows] - ref) <= 1e-9 * ref):
        problems.append(f"rows {rows.tolist()} disagree with the core oracle")
    return problems


def _sample_corrupt(out: Path) -> None:
    path = out / "samples.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[-1] = "1.0"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# spectra: a batch of generated PL spectra read from files
# --------------------------------------------------------------------------

def _lorentzian(freqs, center, fwhm):
    half = 0.5 * fwhm
    return half * half / ((freqs - center) ** 2 + half * half)


def make_spectra(directory: Path, seed: int, count: int) -> list[dict]:
    """Write `count` spectra of 2000 points and return their ground truth.

    A quarter are multi-emitters (5-8 lines), the rest single emitters
    (1-4 lines). Files cycle through the four axis forms load_spectrum
    accepts: frequency_ghz, frequency_thz and wavelength_nm headers, and
    no header (frequency in GHz).
    """
    rng = np.random.default_rng(seed)
    directory.mkdir(parents=True, exist_ok=True)
    freqs = np.linspace(406000.0, 408000.0, 2000)
    truth = []
    for i in range(count):
        single = rng.random() >= 0.25
        n_lines = int(rng.integers(1, 5) if single else rng.integers(5, 9))
        centers = 406200.0 + rng.uniform(0.0, 100.0) + np.arange(n_lines) * rng.uniform(120.0, 180.0)
        fwhm = rng.uniform(15.0, 25.0)
        signal = sum(a * _lorentzian(freqs, c, fwhm)
                     for a, c in zip(rng.uniform(0.7, 1.0, n_lines), centers))
        noise = signal.max() / rng.uniform(40.0, 80.0)
        intens = np.clip(signal + 2.0 * noise + rng.normal(0.0, noise, freqs.size), 0.0, None)
        axis = SPECTRUM_AXES[i % len(SPECTRUM_AXES)]
        x = {"frequency_thz": freqs / 1e3,
             "wavelength_nm": SPEED_OF_LIGHT_M_S / freqs}.get(axis, freqs)
        rows = [f"{axis},intensity"] if axis else []
        rows += [f"{a!r},{b!r}" for a, b in zip(x.tolist(), intens.tolist())]
        name = f"spec{i:04d}.csv"
        (directory / name).write_text("\n".join(rows) + "\n")
        truth.append({
            "file": name, "single": single, "n_lines": n_lines, "fwhm": fwhm,
            "gss": centers[1] - centers[0] if single and n_lines >= 2 else None,
        })
    return truth


def _spectra_prepare(work: Path, seed: int, size: int) -> Inputs:
    in_dir = work / "spectra_in"
    return Inputs(seed=seed, size=size, in_dir=in_dir,
                  truth=make_spectra(in_dir, seed, size))


def _spectra_argv(inp: Inputs, out: Path) -> list:
    return ["spectra", "--dir", str(inp.in_dir), "--batch-tag", "bench",
            "--out", str(out / "stats.json")]


def _spectra_check(inp: Inputs, out: Path, stdout: str) -> list:
    try:
        stats = json.loads((out / "stats.json").read_text())
        pooled = _csv_rows(out / "stats_pooled.csv")
    except (OSError, ValueError) as exc:
        return [f"spectra outputs unreadable: {exc}"]
    records = {r["file"]: r for r in stats["records"]}
    problems = []
    if sorted(records) != [t["file"] for t in inp.truth]:
        return [f"{len(records)} records for {len(inp.truth)} spectra"]
    for t in inp.truth:
        r = records[t["file"]]
        if r["is_single_emitter"] != t["single"] or r["n_peaks"] != t["n_lines"]:
            problems.append(f"{t['file']}: {r['n_peaks']} lines, single="
                            f"{r['is_single_emitter']}; truth {t['n_lines']}")
        elif t["gss"] is not None and abs(r["gss_ghz"] - t["gss"]) > t["fwhm"] / 2:
            problems.append(f"{t['file']}: gss {r['gss_ghz']} vs truth {t['gss']}")
    gss = [r["gss_ghz"] for r in stats["records"] if r["gss_ghz"] is not None]
    g = stats["gss_stats"] or {}
    expected = (len(inp.truth), sum(t["single"] for t in inp.truth), len(gss))
    if (g.get("n_spectra"), g.get("n_single_emitters"), g.get("n_gss_values")) != expected:
        problems.append(f"gss_stats counts {g} != {expected}")
    elif not abs(g["mean_ghz"] - float(np.mean(gss))) <= 1e-9 * abs(g["mean_ghz"]):
        problems.append("gss_stats mean differs from the records")
    if len(pooled) < 2 or pooled[0] != ["batch_tag", "bin_left_ghz", "bin_right_ghz", "density"]:
        problems.append("pooled histogram empty or malformed")
    return problems


def _spectra_corrupt(out: Path) -> None:
    path = out / "stats.json"
    stats = json.loads(path.read_text())
    first = stats["records"][0]
    first["is_single_emitter"] = not first["is_single_emitter"]
    path.write_text(json.dumps(stats))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-1e6", "emitters", 1_000_000, 20_000, _no_inputs,
                 _report_argv, _report_check, _report_corrupt, report_results),
        Workload("sample-post-1e6", "emitters", 1_000_000, 20_000, _no_inputs,
                 _sample_argv, _sample_check, _sample_corrupt),
        Workload("spectra-batch", "spectra", 1000, 40, _spectra_prepare,
                 _spectra_argv, _spectra_check, _spectra_corrupt),
    )
}
