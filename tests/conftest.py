import numpy as np
import pytest

from strainforge.config import default_config
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
