"""Phonon-driven excitation rate model and operating-temperature solve.

The upward phonon rate between the two ground-state orbital branches
scales as gss^3 * n_th(gss, T), with n_th the Bose-Einstein occupation of
phonons at the splitting. Everything here works with that rate normalized
to a reference point (a splitting known to be operable at a reference
temperature), so no absolute prefactor is needed: the operating
temperature of a splitting is where its normalized rate returns to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import EmptyRequest, InvalidDomain, InvalidParameter

__all__ = [
    "ThermalReference",
    "thermal_occupation",
    "gamma_up_relative",
    "operational_temperature",
    "operational_temperature_batch",
    "operability_curve",
]

# h / k_B in SI is 4.799243...e-11 s K; per GHz of splitting that is
# 0.04799 K of equivalent temperature.
K_PER_GHZ = 6.62607015e-34 / 1.380649e-23 * 1e9

_LN2 = math.log(2.0)

# operating temperatures outside this range are a domain error
T_MIN_K = 1e-3
T_MAX_K = 300.0


@dataclass(frozen=True)
class ThermalReference:
    """Splitting/temperature pair defining 'operable' suppression: the rate
    law is normalized to 1 there. Both values must be finite and positive."""

    gss_ref_ghz: float = 554.0
    temp_ref_k: float = 1.5

    def __post_init__(self):
        if not (self.gss_ref_ghz > 0 and self.temp_ref_k > 0):
            raise InvalidDomain("reference splitting and temperature must be positive")
        if not (math.isfinite(self.gss_ref_ghz) and math.isfinite(self.temp_ref_k)):
            raise InvalidDomain("reference splitting and temperature must be finite")


def thermal_occupation(gss_ghz: float, temp_k: float) -> float:
    """Bose-Einstein occupation 1/(exp(x) - 1) of the upper branch, with
    x = h*gss/(kB*T)."""
    if not (gss_ghz > 0 and temp_k > 0):
        raise InvalidDomain("gss and temperature must be positive")
    x = K_PER_GHZ * gss_ghz / temp_k
    try:
        occupation = 1.0 / math.expm1(x)
    except OverflowError:  # exp(x) > 1.8e308: 1/(exp(x) - 1) is exp(-x) to the last bit
        return math.exp(-x)
    except ZeroDivisionError:  # x underflowed to 0
        occupation = math.inf
    if occupation == math.inf:
        raise InvalidDomain(f"occupation overflows at h*gss/(kB*T) = {x:g}")
    return occupation


def _log1mexp(x: float) -> float:
    """log(1 - exp(-x)) for x > 0, accurate on both sides of ln 2 (Maechler,
    "Accurately computing log(1 - exp(-|a|))", 2012)."""
    return math.log(-math.expm1(-x)) if x <= _LN2 else math.log1p(-math.exp(-x))


def _ln_rate(gss_ghz: float, temp_k: float) -> float:
    """log of gss^3 * n_th(gss, T), stable for any argument size."""
    x = K_PER_GHZ * gss_ghz / temp_k
    base = 3.0 * math.log(gss_ghz) - x
    if x == 0.0:  # K*gss/T underflowed: ln(1 - e^-x) = ln x - x/2, ln x from the logs
        return base - (math.log(K_PER_GHZ) + math.log(gss_ghz) - math.log(temp_k))
    return base - _log1mexp(x)


def _reference(ref: ThermalReference | None) -> float:
    """Log rate at the reference point of ``ref`` or the default."""
    ref = ref or ThermalReference()
    return _ln_rate(ref.gss_ref_ghz, ref.temp_ref_k)


def gamma_up_relative(
    gss_ghz: float,
    temp_k: float,
    ref: ThermalReference | None = None,
) -> float:
    """Upward phonon rate normalized to 1 at the reference point; raises
    InvalidDomain where that is not a finite float."""
    ln0 = _reference(ref)
    if not (gss_ghz > 0 and temp_k > 0):
        raise InvalidDomain("gss and temperature must be positive")
    try:
        rate = math.exp(_ln_rate(gss_ghz, temp_k) - ln0)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise InvalidDomain("normalized rate is not a finite float")
    return rate


def _solve_top(gss, ln_rate0: float):
    """Closed-form T where gss^3 * n_th(gss, T) = exp(ln_rate0).

    With x = K*gss/T the equation is n_th(x) = exp(ln_rate0) / gss^3, so
    exp(x) - 1 = gss^3 / rate0 and x = log(1 + gss^3 / rate0) > 0. Where
    gss^3 / rate0 is so small that x underflows to 0, the division gives
    an infinite T, which the domain check rejects with everything else
    outside [T_MIN_K, T_MAX_K].
    """
    if not np.all(np.isfinite(gss) & (gss > 0)):
        raise InvalidDomain("gss must be finite and positive")
    x = np.logaddexp(0.0, 3.0 * np.log(gss) - ln_rate0)
    with np.errstate(divide="ignore"):
        temp = K_PER_GHZ * gss / x
    if not np.all((temp >= T_MIN_K) & (temp <= T_MAX_K)):
        raise InvalidDomain(
            f"operating temperature outside [{T_MIN_K:g}, {T_MAX_K:g}] K"
        )
    return temp


def operational_temperature(
    gss_ghz: float,
    ref: ThermalReference | None = None,
) -> float:
    """Temperature where the normalized rate equals 1; unique because the
    rate grows strictly with temperature. Solved in closed form; raises
    InvalidDomain unless gss is finite and positive and the temperature
    lies in [T_MIN_K, T_MAX_K]."""
    return float(_solve_top(np.float64(gss_ghz), _reference(ref)))


def operational_temperature_batch(gss_ghz, ref: ThermalReference | None = None) -> np.ndarray:
    """Vectorized operating temperatures, chunked to bound working memory.
    Same closed form and domain contract as operational_temperature."""
    ln0 = _reference(ref)
    gss = np.ascontiguousarray(gss_ghz, dtype=float)
    if gss.size == 0:
        raise EmptyRequest("no splittings supplied")
    out = np.empty(gss.size)
    flat = gss.ravel()
    for lo in range(0, flat.size, _kernels.CHUNK):
        out[lo:lo + _kernels.CHUNK] = _solve_top(flat[lo:lo + _kernels.CHUNK], ln0)
    return out.reshape(gss.shape)


def operability_curve(top_k, temps_k) -> np.ndarray:
    """For each temperature, the fraction of emitters whose operating
    temperature (``top_k``, already solved) is at least that temperature.
    Nonincreasing by construction; ties within 1e-9 K count as operable."""
    top = np.asarray(top_k, dtype=float)
    if top.ndim != 1:
        raise InvalidParameter(f"operating temperatures must be 1-d, got shape {top.shape}")
    top = np.sort(top)
    if top.size == 0:
        raise EmptyRequest("empty ensemble")
    if np.isnan(top[-1]):  # the sort puts NaNs last
        raise InvalidDomain("operating temperatures must not be NaN")
    temps = np.asarray(temps_k, dtype=float)
    if temps.ndim != 1 or temps.size == 0:
        raise InvalidParameter("temps must be a nonempty 1-d grid")
    if np.isnan(temps).any():
        raise InvalidDomain("temps must not be NaN")
    if np.any(np.diff(temps) < 0):
        raise InvalidParameter("temps must be sorted ascending")
    return (top.size - np.searchsorted(top, temps - 1e-9, side="left")) / top.size
