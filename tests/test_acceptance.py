"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the measured numbers. The heavy
calibrated ensembles (n = 1e6) are built once per module and shared.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq

import strainforge as sf
from strainforge.cli import run
from strainforge.config import default_config
from strainforge.core import EgCouplings, SivParameters, ground_state_splitting
from strainforge.mechanics import Layer, LayerStack, solve_beam_state, strain_at
from strainforge.population import (
    IntrinsicStrainModel,
    calibrate_film_stress,
    calibrate_sigma,
    sample_post_deposition,
    sample_pre_deposition,
)
from strainforge.spectra import batch_gss_stats, classify_and_extract, detect_peaks
from strainforge.thermal import (
    ThermalReference,
    operational_temperature,
    operational_temperature_batch,
)

from conftest import intrinsic_gss_moments, synth_spectrum

N = 1_000_000
SEED = 20260809
PARAMS = SivParameters()


def check(cid: str, ok: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{cid}: {detail}"


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def calibrated(cfg):
    """Calibrations and both n=1e6 ensembles, timed once for the suite."""
    params = cfg.siv
    pos = cfg.position
    stack = cfg.stack

    # jit warmup so measured times reflect the algorithms, not compilation
    warm_field = solve_beam_state(stack)
    sample_pre_deposition(256, IntrinsicStrainModel(1e-5), params, seed=1)
    sample_post_deposition(
        256, pos, warm_field, params, seed=1, intrinsic=IntrinsicStrainModel(1e-5),
    )
    operational_temperature_batch(np.array([554.0]))

    t0 = time.perf_counter()
    sigma, _ = calibrate_sigma(119.0, N, SEED, params)
    pre = sample_pre_deposition(N, IntrinsicStrainModel(sigma), params, seed=SEED)
    t_pre = time.perf_counter() - t0

    intrinsic = IntrinsicStrainModel(sigma)
    t0 = time.perf_counter()
    stress, _ = calibrate_film_stress(
        608.0, stack, pos, params, N, SEED, intrinsic=intrinsic,
    )
    stack_cal = replace(stack, film=replace(stack.film, intrinsic_stress_mpa=stress))
    field = solve_beam_state(stack_cal)
    post = sample_post_deposition(N, pos, field, params, seed=SEED, intrinsic=intrinsic)
    t_post = time.perf_counter() - t0

    return {
        "sigma": sigma, "pre": pre, "t_pre": t_pre,
        "stress": stress, "post": post, "t_post": t_post,
        "field": field, "params": params,
    }


def test_c01_unstrained_floor():
    ground_state_splitting(EgCouplings(0.0, 0.0), PARAMS)  # warm
    t0 = time.perf_counter()
    value = ground_state_splitting(EgCouplings(0.0, 0.0), PARAMS)
    elapsed = time.perf_counter() - t0
    ok = value == 46.0 and elapsed < 1e-3
    check("C1 unstrained floor", ok,
          f"gss(0) = {value} GHz (exact 46 required), runtime {elapsed * 1e6:.1f} us")


def test_c02_eigen_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alpha, beta = rng.uniform(-800.0, 800.0, 2)
        lam = rng.uniform(1e-3, 300.0)
        closed = ground_state_splitting(
            EgCouplings(alpha, beta), SivParameters(lambda_so_ghz=lam)
        )
        h = np.array(
            [[alpha, beta + 0.5j * lam], [beta - 0.5j * lam, -alpha]],
            dtype=complex,
        )
        ev = np.linalg.eigvalsh(h)
        oracle = float(ev[1] - ev[0])
        worst = max(worst, abs(closed - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    check("C2 eigen-oracle equivalence", ok,
          f"1000 random triples, worst rel err {worst:.2e} (<= 1e-9), "
          f"runtime {elapsed:.3f} s")


def test_c03_pre_deposition_calibration(calibrated):
    sigma = calibrated["sigma"]
    std = calibrated["pre"].summary.std_ghz
    mean = calibrated["pre"].summary.mean_ghz
    t = calibrated["t_pre"]
    sigma_ok = abs(sigma - 1.9e-5) <= 0.25 * 1.9e-5
    std_ok = abs(std - 52.0) <= 0.20 * 52.0
    ok = sigma_ok and std_ok and t < 60.0
    check("C3 pre-deposition calibration", ok,
          f"sigma = {sigma:.3e} (1.9e-5 +-25%), ensemble mean {mean:.2f}, "
          f"std {std:.2f} GHz (52 +-20%), runtime {t:.1f} s (< 60)")


def test_pre_ensemble_matches_quadrature_oracle(calibrated):
    # n = infinity moments at the calibrated sigma, from core's couplings
    pre = calibrated["pre"].summary
    mean, std, m4 = intrinsic_gss_moments(calibrated["sigma"], PARAMS)
    se_std = math.sqrt((m4 - std ** 4) / (4.0 * std * std * pre.n))
    z_mean = (pre.mean_ghz - mean) / pre.sem_ghz
    z_std = (pre.std_ghz - std) / se_std
    ok = abs(z_mean) <= 4.0 and abs(z_std) <= 4.0
    check("pre ensemble vs quadrature", ok,
          f"mean {pre.mean_ghz:.4f} vs {mean:.4f} GHz ({z_mean:+.1f} SEM), "
          f"std {pre.std_ghz:.3f} vs {std:.3f} GHz ({z_std:+.1f} SE), within 4")


def test_post_at_zero_stress_matches_pre_oracle(calibrated, cfg):
    # with no film stress the post ensemble carries only the intrinsic
    # strain calibrated before deposition, so its mean is the pre oracle's
    n = 200_000
    stack = replace(cfg.stack, film=replace(cfg.stack.film, intrinsic_stress_mpa=0.0))
    sigma = calibrated["sigma"]
    post = sample_post_deposition(n, cfg.position, solve_beam_state(stack), PARAMS,
                                  seed=SEED, intrinsic=IntrinsicStrainModel(sigma)).summary
    mean, _, _ = intrinsic_gss_moments(sigma, PARAMS)
    z_mean = (post.mean_ghz - mean) / post.sem_ghz
    check("post at 0 MPa vs quadrature", abs(z_mean) <= 4.0,
          f"mean {post.mean_ghz:.4f} vs {mean:.4f} GHz ({z_mean:+.1f} SEM, within 4)")


def test_c04_post_deposition_calibration(calibrated):
    stress = calibrated["stress"]
    std = calibrated["post"].summary.std_ghz
    mean = calibrated["post"].summary.mean_ghz
    t = calibrated["t_post"]
    stress_ok = abs(stress - 700.0) <= 0.30 * 700.0
    std_ok = abs(std - 249.0) <= 0.30 * 249.0
    ok = stress_ok and std_ok and t < 120.0
    check("C4 post-deposition calibration", ok,
          f"stress = {stress:.1f} MPa (700 +-30%), ensemble mean {mean:.2f}, "
          f"std {std:.2f} GHz (249 +-30%), runtime {t:.1f} s (< 120)")


def test_c05_mechanics_fidelity(calibrated, cfg):
    # independent classical bilayer oracle on a rectangular section
    w, t_s, t_f, stress_mpa, b = 200.0, 400.0, 2.0, 500.0, 1.0
    cs = sf.CrossSection(np.array(
        [[-w / 2, 0.0], [-w / 2, -t_s], [w / 2, -t_s], [w / 2, 0.0]]
    ))
    stack = LayerStack(
        substrate=Layer(t_s, 1100.0, 0.07),
        cross_section=cs,
        film=Layer(t_f, 250.0, 0.25, intrinsic_stress_mpa=stress_mpa),
        biaxiality_factor=b,
    )
    field = solve_beam_state(stack)
    e_f = 250.0 * (1 + 0.25 * b) / (1 - 0.25 ** 2)
    e_s = 1100.0 * (1 + 0.07 * b) / (1 - 0.07 ** 2)
    misfit = stress_mpa * 1e-3 / e_f
    num = 6.0 * e_f * e_s * t_f * t_s * (t_f + t_s) * misfit
    den = (e_f ** 2 * t_f ** 4 + 4 * e_f * e_s * t_f ** 3 * t_s
           + 6 * e_f * e_s * t_f ** 2 * t_s ** 2
           + 4 * e_f * e_s * t_f * t_s ** 3 + e_s ** 2 * t_s ** 4)
    kappa_oracle = num / den
    kappa_err = abs(abs(field.curvature_per_nm) - kappa_oracle) / kappa_oracle

    eps35 = strain_at(calibrated["field"], 35.0)
    ok = kappa_err <= 0.01 and abs(eps35.eps_yy) > 1e-4
    check("C5 mechanics fidelity", ok,
          f"bilayer curvature rel err {kappa_err:.2e} (<= 1%), "
          f"|eps_yy(35 nm)| = {abs(eps35.eps_yy):.3e} (> 1e-4)")


def test_c06_thermal_reference():
    ref = ThermalReference()
    t_ref = operational_temperature(554.0, ref)

    def g(temp, gss=46.0):
        c = 4.7992e-11 * 1e9
        x = c * gss / temp
        x0 = c * 554.0 / 1.5
        return (3.0 * math.log(gss / 554.0) - x - math.log1p(-math.exp(-x))
                + x0 + math.log1p(-math.exp(-x0)))

    oracle_46 = brentq(g, 1e-3, 300.0, xtol=1e-12)
    t_46 = operational_temperature(46.0, ref)
    ok = abs(t_ref - 1.5) <= 1e-3 and abs(t_46 - oracle_46) <= 0.01 * oracle_46
    check("C6 thermal reference", ok,
          f"T_op(554) = {t_ref:.6f} K (1.5 +-1e-3), T_op(46) = {t_46:.5f} K "
          f"vs oracle {oracle_46:.5f} K (1%)")


def test_c07_operability_fractions(calibrated):
    t0 = time.perf_counter()
    top_post = operational_temperature_batch(calibrated["post"].samples.gss_ghz)
    top_pre = operational_temperature_batch(calibrated["pre"].samples.gss_ghz)
    p15 = float(np.mean(top_post >= 1.5))
    p20 = float(np.mean(top_post >= 2.0))
    p15_pre = float(np.mean(top_pre >= 1.5))
    elapsed = time.perf_counter() - t0
    ok = p15 > 0.5 and p20 > 0.2 and p15_pre < 0.02 and elapsed < 120.0
    check("C7 operability fractions", ok,
          f"post P(T_op>=1.5K) = {p15:.4f} (> 0.5), P(T_op>=2K) = {p20:.4f} "
          f"(> 0.2), pre P(T_op>=1.5K) = {p15_pre:.2e} (< 0.02), "
          f"runtime {elapsed:.1f} s (< 120)")


def test_c08_strain_magnitude(calibrated):
    e = calibrated["post"].samples.eps_crystal
    frob = np.sqrt(
        e[:, 0] ** 2 + e[:, 1] ** 2 + e[:, 2] ** 2
        + 2.0 * (e[:, 3] ** 2 + e[:, 4] ** 2 + e[:, 5] ** 2)
    )
    med = float(np.median(frob))
    ok = 2e-4 <= med <= 8e-4
    check("C8 strain magnitude", ok,
          f"median strain magnitude {med:.3e} (within factor 2 of 4e-4)")


def test_c09_spectra_pipeline():
    rng = np.random.default_rng(90210)
    t0 = time.perf_counter()

    # detection knobs matched to the corpus noise floor: a 9-sample window
    # stays well under the narrowest linewidth (15 GHz at 1 GHz/bin), and
    # the weakest line (0.7 amplitude) clears 0.25 prominence twofold while
    # SNR-10 noise bumps stay a factor two below it
    window, prominence = 9, 0.25

    batch = []
    truth_single = []
    truth_gss = []
    for i in range(100):
        snr = rng.uniform(10.0, 30.0)
        fwhm = rng.uniform(15.0, 25.0)
        if i % 4 == 3:  # multi-emitter: more than four lines
            n_lines = int(rng.integers(5, 9))
            single = False
        else:
            n_lines = int(rng.integers(1, 5))
            single = True
        f0 = 406200.0 + rng.uniform(0.0, 100.0)
        centers = f0 + np.arange(n_lines) * rng.uniform(120.0, 180.0)
        amps = rng.uniform(0.7, 1.0, n_lines)
        spec = synth_spectrum(
            rng, centers, fwhm_ghz=fwhm, amps=amps, snr=snr,
            f_lo=406000.0, f_hi=408000.0, n_points=2000,
            label=f"spec{i:03d}.csv",
        )
        batch.append((spec, centers, fwhm))
        truth_single.append(single)
        truth_gss.append(centers[1] - centers[0] if single and n_lines >= 2 else None)

    agree = 0
    gss_ok = True
    for (spec, centers, fwhm), single, gss in zip(batch, truth_single, truth_gss):
        assignment = classify_and_extract(detect_peaks(spec, window, prominence))
        if assignment.is_single_emitter == single:
            agree += 1
        if gss is not None:
            if assignment.gss_ghz is None or abs(assignment.gss_ghz - gss) > fwhm / 2:
                gss_ok = False

    # constructed batch: 11 splittings with sample std exactly 295 GHz
    rng2 = np.random.default_rng(11)
    z = rng2.normal(size=11)
    z = (z - z.mean()) / z.std(ddof=1)
    values = 608.0 + 295.0 * z
    sem_batch = batch_gss_stats([
        classify_and_extract(detect_peaks(synth_spectrum(
            rng2, [406600.0, 406600.0 + g], fwhm_ghz=10.0, snr=30.0,
            f_lo=406300.0, f_hi=408300.0, n_points=4000,
        )))
        for g in values
    ])
    sem = sem_batch.summary.sem_ghz
    sem_expected = 295.0 / math.sqrt(11.0)
    elapsed = time.perf_counter() - t0

    ok = (agree == 100 and gss_ok and abs(sem - sem_expected) <= 1.0
          and elapsed < 10.0)
    check("C9 spectra pipeline", ok,
          f"classification {agree}/100, gss within half linewidth: {gss_ok}, "
          f"SEM {sem:.2f} vs 295/sqrt(11) = {sem_expected:.2f} (+-1), "
          f"runtime {elapsed:.1f} s (< 10)")


def test_c10_report_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"monte_carlo": {"n": 100_000, "seed": 77}}))
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    rc1 = run(["report", "--config", str(cfg_path), "--out-dir", str(d1),
               "--threads", "1"])
    rc2 = run(["report", "--config", str(cfg_path), "--out-dir", str(d2),
               "--threads", "8"])
    names = ["gss_pdf.csv", "top_vs_gss.csv", "operability.csv", "summary.json"]
    identical = all((d1 / n).read_bytes() == (d2 / n).read_bytes() for n in names)
    ok = rc1 == 0 and rc2 == 0 and identical
    check("C10 determinism", ok,
          f"report x2 (threads 1 vs 8), byte-identical: {identical}")
