import math

import numpy as np
import pytest
from numpy.polynomial import hermite_e

from strainforge.config import default_config
from strainforge.core import (
    ORIENTATIONS,
    defect_frame_strain,
    eg_couplings,
    ground_state_splitting,
)
from strainforge.errors import InvalidGeometry
from strainforge.mechanics import _polygon_integrals, beam_to_crystal, strain_at
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


def _post_nodes(field, sigma, params, pos, depth_nodes):
    """Depth nodes and weights of the post-deposition oracles, and the film's
    couplings e_yy(d) F[o] from core at each node, shape (depth, orientation,
    2), with the intrinsic stds sigma sqrt(2 d^2 + f^2) and
    sigma sqrt(4 d^2 + f^2) of alpha and beta.

    Depth is the straggle normal truncated at 0, integrated by Gauss-Legendre
    over [0, mean + 12 straggle]. The aperture must lie inside the section at
    every integrated depth, so that the sampler's rejection step truncates
    depth alone."""
    mu, s = pos.depth_mean_nm, pos.depth_straggle_nm
    t, wt = np.polynomial.legendre.leggauss(depth_nodes)
    hi = mu + 12.0 * s
    depths = 0.5 * hi * (t + 1.0)
    dweight = 0.5 * hi * wt * np.exp(-0.5 * ((depths - mu) / s) ** 2)
    dweight /= dweight.sum()
    cs = field.stack.cross_section
    half = 0.5 * pos.aperture_y_nm
    assert all(point_in_section(cs, y, d) for d in depths for y in (-half, half)), \
        "aperture leaves the section inside the integrated depths"
    film = np.array([[[c.alpha_ghz, c.beta_ghz] for c in (
        eg_couplings(defect_frame_strain(beam_to_crystal(strain_at(field, dep)), o), params)
        for o in ORIENTATIONS)] for dep in depths])
    d, f = params.d_ghz_per_strain, params.f_ghz_per_strain
    stds = sigma * math.sqrt(2.0 * d * d + f * f), sigma * math.sqrt(4.0 * d * d + f * f)
    return dweight, film, stds


def post_gss_moments(field, sigma, params, pos, hermite_nodes=80, depth_nodes=200):
    """Mean, std and 4th central moment of the post-deposition gss at
    n = infinity in ``field``, with intrinsic strain of iid Normal(0, sigma^2)
    defect-frame components.

    Orientations are equally likely. Given depth d and orientation o,
    (alpha, beta) is normal around the film's couplings e_yy(d) F[o] with
    independent stds (``_post_nodes``): a 2-D Gauss-Hermite sum."""
    dweight, film, (sa, sb) = _post_nodes(field, sigma, params, pos, depth_nodes)
    x, w = hermite_e.hermegauss(hermite_nodes)
    w = w / math.sqrt(2.0 * math.pi)
    alpha = film[:, :, 0, None, None] + sa * x[:, None]
    beta = film[:, :, 1, None, None] + sb * x[None, :]
    lam = params.lambda_so_ghz
    gss = np.sqrt(lam * lam + 4.0 * (alpha ** 2 + beta ** 2))

    def expect(values):
        return float(np.einsum("doab,d,a,b->", values, dweight, w, w)) / len(ORIENTATIONS)

    mean = expect(gss)
    dev2 = (gss - mean) ** 2
    return mean, math.sqrt(expect(dev2)), expect(dev2 * dev2)


def post_gss_tail(field, sigma, params, pos, gss_ghz, angle_nodes=400, depth_nodes=200):
    """P(gss >= gss_ghz) at n = infinity, for the ensemble of
    ``post_gss_moments``.

    gss >= g where alpha^2 + beta^2 >= r^2, r = sqrt(g^2 - lam^2) / 2. Per
    depth node and orientation, the probability of the disk is a smooth 1-D
    integral: with alpha = r sin(theta), beta's normal CDF over
    |beta| <= r cos(theta), weighted by alpha's density and r cos(theta),
    by Gauss-Legendre in theta on [-pi/2, pi/2]."""
    from scipy.special import ndtr

    dweight, film, (sa, sb) = _post_nodes(field, sigma, params, pos, depth_nodes)
    lam = params.lambda_so_ghz
    r = 0.5 * math.sqrt(gss_ghz * gss_ghz - lam * lam)
    t, wt = np.polynomial.legendre.leggauss(angle_nodes)
    theta, wt = 0.5 * math.pi * t, 0.5 * math.pi * wt
    a0, b0 = film[:, :, 0, None], film[:, :, 1, None]
    h = r * np.cos(theta)
    density = np.exp(-0.5 * ((r * np.sin(theta) - a0) / sa) ** 2) / (sa * math.sqrt(2.0 * math.pi))
    inside = density * (ndtr((h - b0) / sb) - ndtr((-h - b0) / sb)) * h
    p_disk = np.einsum("dot,t,d->", inside, wt, dweight) / len(ORIENTATIONS)
    return 1.0 - float(p_disk)


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
    return Spectrum(freqs, intens)
