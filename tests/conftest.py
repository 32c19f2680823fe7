import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from strainforge.config import default_config
from strainforge.core import defect_frame_strain, eg_couplings, ground_state_splitting
from strainforge.errors import InvalidGeometry
from strainforge.mechanics import _polygon_integrals
from strainforge.spectra import Spectrum


@pytest.fixture(scope="session")
def cfg():
    return default_config()


def point_in_section(cs, y_nm, depth_nm):
    """Scalar crossing-number test: is the point at lateral y and given
    depth inside cross-section ``cs``? Oracle for the sampler's vectorized
    containment kernel."""
    z = cs.z_top_nm - depth_nm
    verts = cs.vertices_nm
    inside = False
    n = len(verts)
    for i in range(n):
        y0, z0 = verts[i]
        y1, z1 = verts[(i + 1) % n]
        if (z0 > z) != (z1 > z):
            y_cross = y0 + (z - z0) * (y1 - y0) / (z1 - z0)
            if y_nm < y_cross:
                inside = not inside
    return inside


def splitting_from_strain(eps_crystal, orientation, params):
    """Scalar chain: crystal-frame strain -> defect frame -> gss (GHz).
    Oracle for the samplers' coupling tables and stored tensors."""
    eps_d = defect_frame_strain(eps_crystal, orientation)
    return ground_state_splitting(eg_couplings(eps_d, params), params)


def intrinsic_gss_moments(sigma, params, nodes=120):
    """Mean, std and 4th central moment of gss at n = infinity for strain
    of iid Normal(0, sigma^2) defect-frame components.

    By core's couplings alpha = d (e_xx - e_yy) + f e_zx and
    beta = -2 d e_xy + f e_yz, alpha and beta are independent zero-mean
    normals with stds sigma sqrt(2 d^2 + f^2) and sigma sqrt(4 d^2 + f^2),
    so each moment is a 2-D Gauss-Hermite sum over the two. Oracle for
    the intrinsic coupling table and the unit normals behind it."""
    x, w = hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    d, f = params.d_ghz_per_strain, params.f_ghz_per_strain
    alpha = sigma * math.sqrt(2.0 * d * d + f * f) * x
    beta = sigma * math.sqrt(4.0 * d * d + f * f) * x
    lam = params.lambda_so_ghz
    gss = np.sqrt(lam * lam + 4.0 * (alpha[:, None] ** 2 + beta[None, :] ** 2))
    weight = w[:, None] * w[None, :]
    mean = float(np.sum(weight * gss))
    var = float(np.sum(weight * (gss - mean) ** 2))
    return mean, math.sqrt(var), float(np.sum(weight * (gss - mean) ** 4))


def section_properties(cs, youngs_modulus_gpa=1.0):
    """Area, centroid depth, and bending stiffness E*I about the horizontal
    centroidal axis, for the substrate polygon alone, from the shoelace
    integrals the beam solve uses.

    Units: nm^2, nm, GPa nm^4 (pass E = 1 for the bare second moment).
    """
    area, q, i0 = _polygon_integrals(cs.vertices_nm)
    if area <= 0 or not math.isfinite(area):
        raise InvalidGeometry("degenerate polygon")
    z_c = q / area
    i_centroid = i0 - area * z_c * z_c
    centroid_depth = cs.z_top_nm - z_c
    return area, centroid_depth, youngs_modulus_gpa * i_centroid


def write_spectrum(spectrum, path):
    """Write frequency_ghz,intensity CSV that round-trips bit-exactly."""
    with open(path, "w", newline="") as fh:
        fh.write("frequency_ghz,intensity\n")
        for x, y in zip(spectrum.frequencies_ghz, spectrum.intensities):
            fh.write(f"{float(x)!r},{float(y)!r}\n")


def csv_rows(columns, row_format):
    """Bytes of one ``row_format % row`` line per row, values taken as
    Python numbers: the per-row formatting the ``sample`` CSV had before
    its numpy writer. Oracle for ``_csvtext.format_rows``."""
    row_format += "\n"
    rows = zip(*(np.asarray(c).tolist() for c in columns))
    return "".join(row_format % row for row in rows).encode()


def lorentzian(freqs, center, fwhm):
    half = 0.5 * fwhm
    return half * half / ((freqs - center) ** 2 + half * half)


def gaussian(freqs, center, fwhm):
    s = fwhm / 2.3548200450309493
    return np.exp(-0.5 * ((freqs - center) / s) ** 2)


def synth_spectrum(
    rng,
    centers_ghz,
    fwhm_ghz=20.0,
    amps=None,
    snr=20.0,
    f_lo=406000.0,
    f_hi=408000.0,
    n_points=2000,
    shape="lorentzian",
    baseline_sigmas=2.0,
    label="",
    batch_tag="",
):
    """Synthetic PL trace with known line positions; ground-truth oracle
    for the peak detection tests."""
    freqs = np.linspace(f_lo, f_hi, n_points)
    centers = np.asarray(centers_ghz, dtype=float)
    if amps is None:
        amps = np.ones(centers.size)
    line = gaussian if shape == "gaussian" else lorentzian
    signal = np.zeros_like(freqs)
    for c, a in zip(centers, amps):
        signal += a * line(freqs, c, fwhm_ghz)
    noise_sigma = (signal.max() if signal.max() > 0 else 1.0) / snr
    baseline = baseline_sigmas * noise_sigma
    intens = signal + baseline + rng.normal(0.0, noise_sigma, freqs.size)
    intens = np.clip(intens, 0.0, None)
    return Spectrum(freqs, intens, label=label, batch_tag=batch_tag)
