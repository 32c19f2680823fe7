"""Photoluminescence spectrum ingestion and transition-line analysis.

A spectrum with four or fewer clear lines is treated as a single emitter;
the difference between its two lowest-frequency lines is the ground-state
splitting. Peak finding is deliberately plain: moving-average smoothing
followed by a topographic-prominence threshold, with both knobs exposed,
so batch results are easy to reproduce.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateAbscissa,
    EmptyRequest,
    InvalidParameter,
    NoSingleEmitters,
    ParseError,
)
from .population import EnsembleSummary, summarize

__all__ = [
    "Spectrum",
    "Peak",
    "EmitterAssignment",
    "BatchGssStats",
    "load_spectrum",
    "detect_peaks",
    "classify_and_extract",
    "pool_transitions",
    "batch_gss_stats",
]

SPEED_OF_LIGHT_M_S = 299792458.0
MIN_POINTS = 16
MAX_SINGLE_EMITTER_LINES = 4

DEFAULT_SMOOTHING_WINDOW = 5
DEFAULT_MIN_PROMINENCE = 0.1


@dataclass(frozen=True)
class Spectrum:
    """Photoluminescence trace on a strictly increasing frequency axis."""

    frequencies_ghz: np.ndarray
    intensities: np.ndarray
    label: str = ""
    batch_tag: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        freqs = np.asarray(self.frequencies_ghz, dtype=float)
        intens = np.asarray(self.intensities, dtype=float)
        if freqs.ndim != 1 or freqs.shape != intens.shape:
            raise ValueError("frequencies and intensities must be equal-length 1-d")
        if freqs.size < MIN_POINTS:
            raise ValueError(f"spectrum needs at least {MIN_POINTS} points")
        if not (np.all(np.isfinite(freqs)) and np.all(np.isfinite(intens))):
            raise ValueError("spectrum values must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(intens < 0):
            raise ValueError("intensities must be nonnegative")
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
            raise ValueError("prominence must be positive")


@dataclass(frozen=True)
class EmitterAssignment:
    peaks: list
    is_single_emitter: bool
    gss_ghz: float | None

    def __post_init__(self):
        expected = self.is_single_emitter and len(self.peaks) >= 2
        if expected != (self.gss_ghz is not None):
            raise ValueError("gss must be present iff single emitter with >= 2 peaks")


_HEADER_AXES = {
    "frequency_ghz": "frequency_ghz",
    "frequency_thz": "frequency_thz",
    "wavelength_nm": "wavelength_nm",
}


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
    reader = csv.reader(io.StringIO(text, newline=""))
    axis = "frequency_ghz"
    raw_x: list[float] = []
    raw_y: list[float] = []
    for lineno, row in enumerate(reader, start=1):
        cells = [c.strip() for c in row if c.strip() != ""]
        if not cells:
            continue
        if len(cells) != 2:
            raise ParseError(f"line {lineno}: expected 2 columns, got {len(cells)}")
        try:
            x = float(cells[0])
            y = float(cells[1])
        except ValueError:
            if lineno == 1 and not raw_x:
                key = cells[0].lower()
                if key in _HEADER_AXES:
                    axis = _HEADER_AXES[key]
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
    cells = [c.strip() for c in first.split(",") if c.strip() != ""]
    if len(cells) == 2 and cells[0].lower() in _HEADER_AXES:
        axis = _HEADER_AXES[cells[0].lower()]
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


def load_spectrum(source, label: str = "", batch_tag: str = "") -> Spectrum:
    """Read a two-column CSV (frequency/wavelength, intensity).

    The header row is optional; when present, its first column name picks
    the axis (frequency_ghz, frequency_thz, or wavelength_nm). Without a
    header the axis is frequency in GHz. Rows are sorted into ascending
    frequency; exact duplicates are rejected. CR, LF and CRLF all end a
    line.
    """
    if isinstance(source, (str, Path)):
        if not label:
            label = Path(source).name
        with open(source, "r", newline="") as fh:
            text = fh.read()
    else:
        text = source.read() if hasattr(source, "read") else str(source)
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
    meta = {"axis": axis}
    if axis != "frequency_ghz":
        meta["converted"] = f"{axis} -> frequency_ghz"
    try:
        return Spectrum(freqs, intens, label=label, batch_tag=batch_tag, metadata=meta)
    except ValueError as exc:
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
        peaks.append(
            Peak(
                center_ghz=center,
                height=float(smoothed[i]),
                prominence=float(prominence),
                width_ghz=float(width * local_step),
            )
        )
    peaks.sort(key=lambda p: p.center_ghz)
    return peaks


def classify_and_extract(peaks: list[Peak]) -> EmitterAssignment:
    """Single-emitter call and splitting extraction from detected lines.

    One to four lines reads as a single emitter; with at least two, the
    two lowest frequencies are taken as the C and D transitions and their
    difference is the splitting.
    """
    ordered = sorted(peaks, key=lambda p: p.center_ghz)
    single = 1 <= len(ordered) <= MAX_SINGLE_EMITTER_LINES
    gss = None
    if single and len(ordered) >= 2:
        gss = ordered[1].center_ghz - ordered[0].center_ghz
    return EmitterAssignment(peaks=ordered, is_single_emitter=single, gss_ghz=gss)


@dataclass(frozen=True)
class PooledHistogram:
    batch_tag: str
    n_peaks: int
    edges_ghz: np.ndarray
    density: np.ndarray


def pool_transitions(
    batch: list[Spectrum], assignments: list[EmitterAssignment]
) -> dict[str, PooledHistogram]:
    """All detected peak centers pooled into one normalized histogram per
    batch tag, with no attempt to tell the four optical lines apart.
    ``assignments`` holds each spectrum's classified lines, in batch order."""
    if not batch:
        raise EmptyRequest("empty spectrum batch")
    centers: dict[str, list[float]] = {}
    for spec, assignment in zip(batch, assignments, strict=True):
        centers.setdefault(spec.batch_tag, []).extend(p.center_ghz for p in assignment.peaks)
    out = {}
    for tag, vals in centers.items():
        if vals:
            arr = np.asarray(vals)
            edges = np.histogram_bin_edges(arr, bins="fd")
            density, edges = np.histogram(arr, bins=edges, density=True)
        else:
            edges = np.array([])
            density = np.array([])
        out[tag] = PooledHistogram(
            batch_tag=tag, n_peaks=len(vals), edges_ghz=edges, density=density
        )
    return out


@dataclass(frozen=True)
class BatchGssStats:
    summary: EnsembleSummary
    gss_values_ghz: np.ndarray
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
    arr = np.asarray(values)
    return BatchGssStats(
        summary=summarize(arr),
        gss_values_ghz=arr,
        n_spectra=len(assignments),
        n_single_emitters=len(single),
    )
