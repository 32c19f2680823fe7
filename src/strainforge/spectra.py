"""Photoluminescence spectrum ingestion and transition-line analysis.

A spectrum with four or fewer clear lines is treated as a single emitter;
the difference between its two lowest-frequency lines is the ground-state
splitting. An ``EmitterAssignment`` sorts its lines, stores them alone and
derives both. Peak finding is deliberately plain: moving-average smoothing
followed by a topographic-prominence threshold, with both knobs exposed,
so batch results are easy to reproduce.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateAbscissa,
    EmptyRequest,
    InvalidDomain,
    InvalidParameter,
    NoSingleEmitters,
    ParseError,
    StrainforgeError,
)
from .population import EnsembleSummary, summarize

__all__ = [
    "Spectrum",
    "Peak",
    "EmitterAssignment",
    "BatchGssStats",
    "load_spectrum",
    "detect_peaks",
    "pool_transitions",
    "batch_gss_stats",
]

SPEED_OF_LIGHT_M_S = 299792458.0
MIN_POINTS = 16
MAX_SINGLE_EMITTER_LINES = 4

DEFAULT_SMOOTHING_WINDOW = 5
DEFAULT_MIN_PROMINENCE = 0.1


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Photoluminescence trace on a strictly increasing frequency axis."""

    frequencies_ghz: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies_ghz, dtype=float)
        intens = np.asarray(self.intensities, dtype=float)
        if freqs.ndim != 1 or freqs.shape != intens.shape:
            raise InvalidParameter("frequencies and intensities must be equal-length 1-d")
        if freqs.size < MIN_POINTS:
            raise InvalidParameter(f"spectrum needs at least {MIN_POINTS} points")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(intens))):
            raise InvalidDomain("spectrum values must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise InvalidParameter("frequencies must be strictly increasing")
        if np.any(intens < 0):
            raise InvalidDomain("intensities must be nonnegative")
        object.__setattr__(self, "frequencies_ghz", freqs)
        object.__setattr__(self, "intensities", intens)

    def __len__(self) -> int:
        return self.frequencies_ghz.size


@dataclass(frozen=True)
class Peak:
    center_ghz: float
    height: float
    prominence: float
    width_ghz: float

    def __post_init__(self):
        if not self.prominence > 0:
            raise InvalidDomain("prominence must be positive")


@dataclass(frozen=True)
class EmitterAssignment:
    """A spectrum's lines, in any order, and what follows from them.

    The lines are stored as a tuple in ascending ``center_ghz``. One to
    four lines read as a single emitter; with at least two, the two lowest
    are the C and D transitions and their difference is the splitting.
    """

    peaks: tuple

    def __post_init__(self):
        object.__setattr__(self, "peaks", tuple(sorted(self.peaks, key=lambda p: p.center_ghz)))

    @property
    def is_single_emitter(self) -> bool:
        return 1 <= len(self.peaks) <= MAX_SINGLE_EMITTER_LINES

    @property
    def gss_ghz(self) -> float | None:
        if self.is_single_emitter and len(self.peaks) >= 2:
            return self.peaks[1].center_ghz - self.peaks[0].center_ghz
        return None


_HEADER_AXES = ("frequency_ghz", "frequency_thz", "wavelength_nm")


def _to_ghz(values: np.ndarray, axis: str) -> np.ndarray:
    if axis == "frequency_ghz":
        return values
    if axis == "frequency_thz":
        return values * 1e3
    # wavelength in nm -> GHz
    return SPEED_OF_LIGHT_M_S / values


def _parse_lines(text: str) -> tuple[str, np.ndarray, np.ndarray]:
    """Row-by-row CSV parse: (axis, x, y) in file order. Names the line of
    the first bad row in its ParseError."""
    import csv  # imported here, with io, so that only this slow path loads them
    import io

    reader = csv.reader(io.StringIO(text, newline=""))
    axis = "frequency_ghz"
    raw_x: list[float] = []
    raw_y: list[float] = []
    for lineno, row in enumerate(reader, start=1):
        cells = [c.strip() for c in row]
        while cells and not cells[-1]:  # trailing commas, or an all-empty row
            cells.pop()
        if not cells:
            continue
        if "" in cells:
            raise ParseError(f"line {lineno}: empty cell before the row's last value")
        if len(cells) != 2:
            raise ParseError(f"line {lineno}: expected 2 columns, got {len(cells)}")
        try:
            x = float(cells[0])
            y = float(cells[1])
        except ValueError:
            if lineno == 1 and not raw_x:
                if cells[0].lower() in _HEADER_AXES:
                    axis = cells[0].lower()
                    continue
                raise ParseError(
                    f"line 1: unrecognized header column {cells[0]!r}"
                ) from None
            raise ParseError(f"line {lineno}: non-numeric row {row!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {lineno}: non-finite value")
        if axis == "wavelength_nm" and x <= 0:
            raise ParseError(f"line {lineno}: nonpositive wavelength")
        if y < 0:
            raise ParseError(f"line {lineno}: negative intensity")
        raw_x.append(x)
        raw_y.append(y)
    return axis, np.asarray(raw_x, dtype=float), np.asarray(raw_y, dtype=float)


def _parse_fast(text: str) -> tuple[str, np.ndarray, np.ndarray] | None:
    """The same parse as ``_parse_lines`` with the body in one np.loadtxt
    call, or None where it cannot vouch for the result: loadtxt fails, the
    table is not two columns, or a value is one ``_parse_lines`` rejects.
    Every row loadtxt accepts reads as the same two floats there."""
    lines = text.split("\n")
    first = lines[0].removesuffix("\r")
    if '"' in first or "\r" in first:  # csv quoting or a bare-CR line break
        return None
    axis = "frequency_ghz"
    cells = [c.strip() for c in first.split(",")]
    if len(cells) == 2 and cells[0].lower() in _HEADER_AXES:
        axis = cells[0].lower()
        lines = lines[1:]
    if not any(line.strip() for line in lines):  # loadtxt warns on no rows
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 2 or not np.isfinite(table).all():
        return None
    x, y = table[:, 0], table[:, 1]
    if (y < 0).any() or (axis == "wavelength_nm" and (x <= 0).any()):
        return None
    return axis, x, y


def load_spectrum(source) -> Spectrum:
    """Read a two-column CSV (frequency/wavelength, intensity) from a path
    (str, bytes or os.PathLike) or a file object, text or binary (UTF-8).
    The header row is optional; when present, its first column name picks
    the axis (frequency_ghz, frequency_thz, or wavelength_nm), else the
    axis is frequency in GHz. The axis is converted to GHz and the rows
    sorted into ascending frequency; exact duplicates are rejected. CR, LF
    and CRLF all end a line, and a leading byte-order mark is skipped.
    Trailing empty cells and all-empty rows are ignored; an empty cell
    before a row's last value raises ParseError naming the line."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif isinstance(source, (str, bytes, os.PathLike)):
            text = Path(os.fsdecode(source)).read_bytes()
        else:
            raise InvalidParameter(f"not a path or a file: {type(source).__name__}")
        text = text.decode() if isinstance(text, bytes) else text
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    text = text.removeprefix("\ufeff")
    axis, raw_x, raw_y = _parse_fast(text) or _parse_lines(text)

    # a conversion that overflows leaves inf, which Spectrum rejects as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = _to_ghz(raw_x, axis)
        order = np.argsort(freqs, kind="stable")
        freqs = freqs[order]
        duplicate = np.any(np.diff(freqs) == 0)
    intens = raw_y[order]
    if duplicate:
        raise DuplicateAbscissa("spectrum contains duplicate frequencies")
    try:
        return Spectrum(freqs, intens)
    except StrainforgeError as exc:
        raise ParseError(str(exc)) from exc


def _parabolic_vertex(x: np.ndarray, y: np.ndarray) -> float:
    """Vertex abscissa of the parabola through three points (any spacing)."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    d0 = (x1 - x0) * (y1 - y2)
    d2 = (x1 - x2) * (y1 - y0)
    denom = d0 - d2
    if denom == 0:
        return float(x1)
    vertex = x1 - 0.5 * ((x1 - x0) * d0 - (x1 - x2) * d2) / denom
    return float(min(max(vertex, x0), x2))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the local maxima of ``x``. A flat top counts once, at the
    midpoint ``(left + right) // 2`` of its run of equal values; a run that
    touches either end of the trace is no maximum."""
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, x.size - 1]
    v = x[starts]
    k = np.flatnonzero((v[:-2] < v[1:-1]) & (v[1:-1] > v[2:])) + 1
    return (starts[k] + ends[k]) // 2


def _find_peaks(x: np.ndarray, threshold: float):
    """Local maxima of ``x`` with topographic prominence >= ``threshold``,
    as (indices, prominences, half-prominence widths in samples).

    The definitions, and the float arithmetic, are those of
    ``scipy.signal.find_peaks(x, prominence=threshold)`` and
    ``peak_widths(x, peaks, rel_height=0.5)``: each side's base is the
    lowest sample between the peak and the nearest strictly higher sample
    (or the trace end), and the width is measured at half the prominence
    below the peak, interpolated linearly between samples.
    """
    peaks = _local_maxima(x)
    # prominence <= x[p] - min(x), so these maxima cannot reach threshold
    peaks = peaks[x[peaks] - x.min() >= threshold]
    kept, proms, widths = [], [], []
    for p in peaks.tolist():
        h = x[p]
        higher = np.flatnonzero(h < x[:p])
        lo = higher[-1] + 1 if higher.size else 0
        higher = np.flatnonzero(h < x[p + 1:])
        hi = p + 1 + higher[0] if higher.size else x.size
        prom = h - max(x[lo:p + 1].min(), x[p:hi].min())
        if not prom >= threshold:
            continue
        half = h - prom * 0.5
        # each base lies at or below half, so both crossings exist
        i = lo + np.flatnonzero(x[lo:p + 1] <= half)[-1]
        left = float(i)
        if x[i] < half:
            left += (half - x[i]) / (x[i + 1] - x[i])
        i = p + np.flatnonzero(x[p:hi] <= half)[0]
        right = float(i)
        if x[i] < half:
            right -= (half - x[i]) / (x[i - 1] - x[i])
        kept.append(p)
        proms.append(prom)
        widths.append(right - left)
    return kept, proms, widths


def detect_peaks(
    s: Spectrum,
    smoothing_window: int = DEFAULT_SMOOTHING_WINDOW,
    min_prominence: float = DEFAULT_MIN_PROMINENCE,
) -> list[Peak]:
    """Locate transition lines in a spectrum.

    The trace is smoothed with a centered moving average, then local
    maxima with topographic prominence above ``min_prominence`` times the
    smoothed maximum are kept. Centers are refined by a 3-point parabola
    through the neighboring samples.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise InvalidParameter("smoothing_window must be a positive odd count")
    if smoothing_window >= len(s):
        raise InvalidParameter("smoothing_window must be shorter than the spectrum")
    if not 0 < min_prominence <= 1:
        raise InvalidParameter("min_prominence must be a fraction in (0, 1]")
    kernel = np.full(smoothing_window, 1.0 / smoothing_window)
    # edge padding keeps a constant trace exactly constant
    pad = smoothing_window // 2
    padded = np.pad(s.intensities, pad, mode="edge")
    smoothed = np.convolve(padded, kernel, mode="valid")
    top = smoothed.max()
    if top <= 0:
        return []
    idx, prominences, widths_samples = _find_peaks(smoothed, min_prominence * top)

    freqs = s.frequencies_ghz
    peaks = []
    for i, prominence, width in zip(idx, prominences, widths_samples):
        center = _parabolic_vertex(freqs[i - 1:i + 2], smoothed[i - 1:i + 2])
        local_step = 0.5 * (freqs[i + 1] - freqs[i - 1])
        peaks.append(Peak(center_ghz=center, height=float(smoothed[i]),
                          prominence=float(prominence), width_ghz=float(width * local_step)))
    return peaks


def pool_transitions(
    assignments: list[EmitterAssignment],
) -> tuple[np.ndarray, np.ndarray]:
    """All detected peak centers of a batch pooled into one normalized
    histogram, with no attempt to tell the four optical lines apart, as
    (bin edges in GHz, density). A batch with no peaks gives two empty
    arrays."""
    if not assignments:
        raise EmptyRequest("empty spectrum batch")
    centers = np.array([p.center_ghz for a in assignments for p in a.peaks])
    if not centers.size:
        return np.array([]), np.array([])
    density, edges = np.histogram(centers, bins="fd", density=True)
    return edges, density


@dataclass(frozen=True)
class BatchGssStats:
    summary: EnsembleSummary
    n_spectra: int
    n_single_emitters: int


def batch_gss_stats(assignments: list[EmitterAssignment]) -> BatchGssStats:
    """Splitting statistics over the single-emitter subset of a batch,
    given each spectrum's classified lines."""
    if not assignments:
        raise EmptyRequest("empty spectrum batch")
    single = [a for a in assignments if a.is_single_emitter]
    values = [a.gss_ghz for a in single if a.gss_ghz is not None]
    if not values:
        raise NoSingleEmitters(
            "no spectrum in the batch yielded a single-emitter splitting"
        )
    return BatchGssStats(
        summary=summarize(np.asarray(values)),
        n_spectra=len(assignments),
        n_single_emitters=len(single),
    )
