import io
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import find_peaks, peak_widths

import strainforge
import strainforge.spectra as spectra
from conftest import synth_spectrum, write_spectrum
from strainforge.errors import (
    DuplicateAbscissa,
    EmptyRequest,
    InvalidDomain,
    InvalidParameter,
    NoSingleEmitters,
    ParseError,
)
from strainforge.spectra import (
    Peak,
    Spectrum,
    _find_peaks,
    _parse_fast,
    _parse_lines,
    batch_gss_stats,
    classify_and_extract,
    detect_peaks,
    load_spectrum,
    pool_transitions,
)

SPEED_OF_LIGHT_M_S = 299792458.0


def assign(batch):
    """Each spectrum's classified lines, as the spectra command builds them."""
    return [classify_and_extract(detect_peaks(spec)) for spec in batch]


def csv_of(rows, header=None):
    lines = ([header] if header else []) + [f"{x},{y}" for x, y in rows]
    return io.StringIO("\n".join(lines) + "\n")


def simple_rows(n=20, f0=406000.0, df=1.0):
    return [(f0 + i * df, 10.0 + (i % 3)) for i in range(n)]


def peak_at(center, height=100.0, prominence=50.0, width=10.0):
    return Peak(center_ghz=center, height=height, prominence=prominence,
                width_ghz=width)


class TestLoadSpectrum:
    def test_plain_two_columns(self):
        rows = simple_rows()
        s = load_spectrum(csv_of(rows))
        assert len(s) == len(rows)
        assert s.frequencies_ghz[0] == 406000.0

    def test_header_frequency_ghz(self):
        s = load_spectrum(csv_of(simple_rows(), header="frequency_ghz,intensity"))
        assert len(s) == 20
        assert np.array_equal(s.frequencies_ghz,
                              load_spectrum(csv_of(simple_rows())).frequencies_ghz)

    def test_header_frequency_thz(self):
        rows = [(406.0 + 0.001 * i, 5.0) for i in range(20)]
        s = load_spectrum(csv_of(rows, header="frequency_thz,intensity"))
        assert s.frequencies_ghz[0] == pytest.approx(406000.0, rel=1e-12)

    def test_wavelength_header_converts_and_sorts(self):
        # ascending wavelength means descending frequency
        rows = [(736.0 + 0.01 * i, 5.0 + i) for i in range(20)]
        s = load_spectrum(csv_of(rows, header="wavelength_nm,intensity"))
        assert np.all(np.diff(s.frequencies_ghz) > 0)
        expected_max = SPEED_OF_LIGHT_M_S / 736.0
        assert s.frequencies_ghz[-1] == pytest.approx(expected_max, rel=1e-12)
        # intensity stays paired with its original wavelength
        assert s.intensities[-1] == 5.0

    @pytest.mark.parametrize("axis, value", [("frequency_thz", 1e306),
                                             ("wavelength_nm", 1e-320)])
    def test_overflowing_conversion_is_parse_error_not_warning(self, axis, value):
        rows = [(value * (1 + 0.01 * i), 5.0) for i in range(20)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError, match="spectrum values must be finite"):
                load_spectrum(csv_of(rows, header=f"{axis},intensity"))

    @pytest.mark.parametrize("header", [None, "frequency_ghz,intensity"])
    def test_utf8_byte_order_mark_is_skipped(self, tmp_path, header):
        # Excel's "CSV UTF-8" starts the file with one
        text = csv_of(simple_rows(), header=header).getvalue()
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want, got = load_spectrum(plain), load_spectrum(marked)
        assert np.array_equal(got.frequencies_ghz, want.frequencies_ghz)
        assert np.array_equal(got.intensities, want.intensities)

    def test_descending_input_equals_ascending(self):
        rows = simple_rows()
        up = load_spectrum(csv_of(rows))
        down = load_spectrum(csv_of(rows[::-1]))
        assert np.array_equal(up.frequencies_ghz, down.frequencies_ghz)
        assert np.array_equal(up.intensities, down.intensities)

    def test_non_numeric_row_names_line(self):
        rows = simple_rows()
        text = "\n".join(f"{x},{y}" for x, y in rows[:7])
        text += "\nnot_a_number,5.0\n"
        text += "\n".join(f"{x},{y}" for x, y in rows[7:])
        with pytest.raises(ParseError, match="line 8"):
            load_spectrum(io.StringIO(text))

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="line 2"):
            load_spectrum(io.StringIO("1.0,2.0\n3.0,4.0,5.0\n"))

    def test_duplicate_frequency(self):
        rows = simple_rows()
        rows[5] = rows[4]
        with pytest.raises(DuplicateAbscissa):
            load_spectrum(csv_of(rows))

    def test_negative_intensity_rejected(self):
        rows = simple_rows()
        rows[3] = (rows[3][0], -1.0)
        with pytest.raises(ParseError, match="line 4"):
            load_spectrum(csv_of(rows))

    def test_too_few_points(self):
        with pytest.raises(ParseError):
            load_spectrum(csv_of(simple_rows(10)))

    def test_unknown_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_spectrum(csv_of(simple_rows(), header="energy_ev,intensity"))

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        s = synth_spectrum(rng, [406500.0, 406800.0])
        path = tmp_path / "spec.csv"
        write_spectrum(s, path)
        back = load_spectrum(path)
        assert np.array_equal(back.frequencies_ghz, s.frequencies_ghz)
        assert np.array_equal(back.intensities, s.intensities)


class _FsPath:
    """A minimal os.PathLike that is neither str nor Path."""

    def __init__(self, path):
        self._path = path

    def __fspath__(self):
        return str(self._path)


def _dir_entry(path):
    with os.scandir(path.parent) as entries:
        return next(e for e in entries if e.name == path.name)


class TestLoadSources:
    """Every source form reads as ``load_spectrum(path)`` does."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "spec.csv"
        text = csv_of(simple_rows(), header="frequency_thz,intensity").getvalue()
        path.write_bytes(text.encode())
        return path

    @staticmethod
    def assert_same(got, want):
        assert np.array_equal(got.frequencies_ghz, want.frequencies_ghz)
        assert np.array_equal(got.intensities, want.intensities)

    @pytest.mark.parametrize("as_source", [_FsPath, _dir_entry, os.fsencode],
                             ids=["os-pathlike", "dir-entry", "bytes-path"])
    def test_path_like(self, path, as_source):
        self.assert_same(load_spectrum(as_source(path)), load_spectrum(path))

    def test_binary_file(self, path):
        with open(path, "rb") as fh:
            self.assert_same(load_spectrum(fh), load_spectrum(path))

    def test_binary_file_with_byte_order_mark(self, path):
        marked = io.BytesIO(b"\xef\xbb\xbf" + path.read_bytes())
        self.assert_same(load_spectrum(marked), load_spectrum(path))

    def test_text_stream_with_byte_order_mark(self, path):
        marked = io.StringIO("\ufeff" + path.read_text())
        self.assert_same(load_spectrum(marked), load_spectrum(path))

    def test_binary_file_not_utf8(self):
        with pytest.raises(ParseError, match="not UTF-8 text"):
            load_spectrum(io.BytesIO(b"\xff\xfe\x00garbage"))

    def test_other_type_rejected(self):
        with pytest.raises(InvalidParameter, match="^not a path or a file: int$"):
            load_spectrum(3)


def _load_outcome(text):
    """What load_spectrum makes of ``text``: its two arrays, or the
    exception type and message."""
    try:
        s = load_spectrum(io.StringIO(text))
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return s.frequencies_ghz, s.intensities


def assert_paths_agree(text):
    """The vectorized parse and the line loop give the same Spectrum, or
    the same exception and message."""
    fast = _load_outcome(text)
    with mock.patch.object(spectra, "_parse_fast", return_value=None):
        slow = _load_outcome(text)
    if isinstance(slow[0], type):
        assert fast == slow
    else:
        assert not isinstance(fast[0], type), fast
        assert np.array_equal(fast[0], slow[0])
        assert np.array_equal(fast[1], slow[1])


AXIS_HEADERS = [None, "frequency_ghz", "frequency_thz", "wavelength_nm"]


def spectrum_text(rows, header=None, newline="\n"):
    lines = ([header] if header else []) + rows
    return newline.join(lines) + newline


def valid_rows(n=20):
    return [f"{736.0 + 0.01 * i!r},{5.0 + i % 3!r}" for i in range(n)]


# each case is an otherwise valid 20-row spectrum
PARSE_CASES = {
    "crlf": spectrum_text(valid_rows(), "frequency_ghz,intensity", "\r\n"),
    "bare cr": spectrum_text(valid_rows(), "frequency_ghz,intensity", "\r"),
    "bare cr inside the header line": "frequency_ghz,intensity\r5\n"
                                      + spectrum_text(valid_rows()),
    "blank lines": spectrum_text(valid_rows()[:5] + ["", ""] + valid_rows()[5:]),
    "whitespace-only line": spectrum_text(valid_rows()[:5] + ["  \t "] + valid_rows()[5:]),
    "comma-only row": spectrum_text(valid_rows()[:5] + [",,"] + valid_rows()[5:]),
    "spaces and tabs": spectrum_text(
        [" " + r.replace(",", " ,\t") + "\t" for r in valid_rows()]),
    "trailing comma": spectrum_text([r + "," for r in valid_rows()]),
    "empty middle cell": spectrum_text(valid_rows()[:3] + ["736.5, ,7.0"] + valid_rows()[3:]),
    "nan": spectrum_text(valid_rows()[:4] + ["NaN,1.0"] + valid_rows()[4:]),
    "infinity": spectrum_text(valid_rows()[:4] + ["737.5,Infinity"] + valid_rows()[4:]),
    "overflow": spectrum_text(valid_rows()[:4] + ["1e500,1.0"] + valid_rows()[4:]),
    "plus sign": spectrum_text(valid_rows()[:4] + ["+2,3.0"] + valid_rows()[4:]),
    "hex": spectrum_text(valid_rows()[:4] + ["0x2,3.0"] + valid_rows()[4:]),
    "underscore": spectrum_text(valid_rows()[:4] + ["406_001.5,3.0"] + valid_rows()[4:]),
    "bom headerless": "\ufeff" + spectrum_text(valid_rows()),
    "bom header": "\ufeff" + spectrum_text(valid_rows(), "frequency_ghz,intensity"),
    "header with spaces": spectrum_text(valid_rows(), "  Wavelength_NM , intensity "),
    "header after blank line": spectrum_text(["", "frequency_ghz,intensity"] + valid_rows()),
    "header only": spectrum_text([], "frequency_ghz,intensity"),
    "empty": "",
    "extra column": spectrum_text(valid_rows()[:6] + ["737.5,1.0,2.0"] + valid_rows()[6:]),
    "one column": spectrum_text([r.split(",")[0] for r in valid_rows()]),
    "negative intensity": spectrum_text(valid_rows()[:9] + ["737.5,-1.0"] + valid_rows()[9:]),
    "zero wavelength": spectrum_text(valid_rows()[:2] + ["0.0,1.0"] + valid_rows()[2:],
                                     "wavelength_nm,intensity"),
    "negative frequency": spectrum_text(["-3.0,1.0"] + valid_rows()),
    "quoted header": spectrum_text(valid_rows(), '"frequency_thz",intensity'),
    "quote opening the header": spectrum_text(valid_rows(), 'frequency_thz,"intensity'),
    "quoted cell": spectrum_text(valid_rows()[:3] + ['"737.5",1.0'] + valid_rows()[3:]),
    "unknown header": spectrum_text(valid_rows(), "energy_ev,intensity"),
    "numeric then text first row": spectrum_text(valid_rows(), "736.0,intensity"),
    "duplicate rows": spectrum_text(valid_rows() + valid_rows()[:1]),
    "too few rows": spectrum_text(valid_rows(10)),
    "form feed in cell": spectrum_text([r.replace(",", "\x0c,") for r in valid_rows()]),
    "form feed between rows": spectrum_text(
        valid_rows()[:5] + ["\x0c".join(valid_rows()[5:7])] + valid_rows()[7:]),
}


numbers = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-3, 9).map(str))
odd_cells = st.sampled_from(["", " ", "nan", "-inf", "1e500", "1_0", '"1"', "+.5",
                             "5.", "0x1", "1d1", "\x0c2", "\xa03", "\ufeff1", "\u0661"])
pads = st.sampled_from(["", " ", "\t"])
# mostly well-formed rows, so that the fast path often accepts
csv_rows = st.one_of(
    st.tuples(pads, numbers, pads, numbers, pads).map(
        lambda t: f"{t[0]}{t[1]},{t[2]}{t[3]}{t[4]}"),
    st.lists(st.one_of(numbers, numbers, odd_cells), max_size=3).map(",".join),
)
csv_bodies = st.tuples(
    st.lists(csv_rows, max_size=8), st.sampled_from(["\n", "\r\n", "\r"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


class TestParsePaths:
    @pytest.mark.parametrize("name", PARSE_CASES)
    def test_fixed_cases_agree(self, name):
        assert_paths_agree(PARSE_CASES[name])

    @given(
        xs=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=16, max_size=40),
        ys=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=40,
                    max_size=40),
        header=st.sampled_from(AXIS_HEADERS),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_repr_floats_agree(self, xs, ys, header, newline):
        rows = [f"{x!r},{y!r}" for x, y in zip(xs, ys)]
        text = spectrum_text(rows, header and header + ",intensity", newline)
        if header != "wavelength_nm" or min(xs) > 0:
            assert _parse_fast(text) is not None
        assert_paths_agree(text)

    @given(body=csv_bodies, header=st.sampled_from(
        ["", "frequency_ghz,intensity\n", "wavelength_nm,intensity\r\n",
         "frequency_thz,x\n"]))
    @settings(max_examples=300, deadline=None)
    def test_fast_parse_only_vouches_for_what_the_loop_reads(self, body, header):
        text = header + body
        fast = _parse_fast(text)
        if fast is None:
            return
        axis, x, y = _parse_lines(text)
        assert fast[0] == axis
        assert np.array_equal(fast[1], x) and np.array_equal(fast[2], y)


class TestDetectPeaks:
    def test_single_gaussian_line(self):
        rng = np.random.default_rng(11)
        s = synth_spectrum(rng, [406700.0], fwhm_ghz=30.0, snr=30.0,
                           shape="gaussian")
        peaks = detect_peaks(s)
        assert len(peaks) == 1
        bin_width = s.frequencies_ghz[1] - s.frequencies_ghz[0]
        assert abs(peaks[0].center_ghz - 406700.0) <= bin_width

    def test_flat_trace_has_no_peaks(self):
        freqs = np.linspace(0.0, 100.0, 64)
        s = Spectrum(freqs, np.full(64, 7.0))
        assert detect_peaks(s) == []

    def test_flat_top_peak_at_its_middle_sample(self):
        # the three samples around the midpoint are equal, so the parabola
        # is degenerate and the center is the middle sample exactly
        freqs = np.linspace(406000.0, 406039.0, 40)
        intens = np.zeros(40)
        intens[18:23] = 5.0
        peaks = detect_peaks(Spectrum(freqs, intens), smoothing_window=1)
        assert [p.center_ghz for p in peaks] == [freqs[20]]

    def test_all_zero_trace(self):
        freqs = np.linspace(0.0, 100.0, 64)
        s = Spectrum(freqs, np.zeros(64))
        assert detect_peaks(s) == []

    def test_four_lorentzians_at_known_centers(self):
        rng = np.random.default_rng(21)
        centers = [406600.0, 406650.0, 406700.0, 406750.0]
        fwhm = 12.0
        s = synth_spectrum(rng, centers, fwhm_ghz=fwhm, snr=20.0,
                           f_lo=406400.0, f_hi=406950.0, n_points=1200)
        peaks = detect_peaks(s)
        assert len(peaks) == 4
        for p, c in zip(peaks, centers):
            assert abs(p.center_ghz - c) <= fwhm / 2

    def test_prominence_is_relative_to_scale(self):
        rng = np.random.default_rng(31)
        s = synth_spectrum(rng, [406500.0, 406900.0], fwhm_ghz=25.0, snr=25.0)
        scaled = Spectrum(s.frequencies_ghz, s.intensities * 137.0)
        assert len(detect_peaks(s)) == len(detect_peaks(scaled)) == 2

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(41)
        s = synth_spectrum(rng, [406450.0, 406980.0], fwhm_ghz=25.0, snr=25.0)
        f0, f1 = s.frequencies_ghz[0], s.frequencies_ghz[-1]
        mirrored = Spectrum(
            (f0 + f1) - s.frequencies_ghz[::-1], s.intensities[::-1]
        )
        a = detect_peaks(s)
        b = detect_peaks(mirrored)
        assert len(a) == len(b)
        mirrored_centers = sorted((f0 + f1) - p.center_ghz for p in b)
        for p, m in zip(a, mirrored_centers):
            assert p.center_ghz == pytest.approx(m, abs=1e-6)

    def test_window_validation(self):
        rng = np.random.default_rng(51)
        s = synth_spectrum(rng, [406700.0])
        with pytest.raises(InvalidParameter):
            detect_peaks(s, smoothing_window=4)
        with pytest.raises(InvalidParameter):
            detect_peaks(s, smoothing_window=len(s) + 1)
        with pytest.raises(InvalidParameter):
            detect_peaks(s, min_prominence=0.0)

    def test_peaks_sorted_with_positive_prominence(self):
        rng = np.random.default_rng(61)
        s = synth_spectrum(rng, [406500.0, 406700.0, 406900.0], fwhm_ghz=20.0)
        peaks = detect_peaks(s)
        centers = [p.center_ghz for p in peaks]
        assert centers == sorted(centers)
        assert all(p.prominence > 0 for p in peaks)
        assert all(p.width_ghz > 0 for p in peaks)


levels = st.one_of(st.integers(0, 4).map(float),
                   st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False))
# runs of repeated values make exact plateaus; few distinct levels make
# ties between maxima and between bases
traces = st.one_of(
    st.lists(st.tuples(levels, st.integers(1, 4)), min_size=1, max_size=25).map(
        lambda runs: np.repeat([v for v, _ in runs], [k for _, k in runs])),
    st.builds(np.full, st.integers(1, 12), levels),
)


class TestFindPeaksMatchesScipy:
    @given(x=traces, pick=st.integers(0, 2 ** 16), mode=st.integers(0, 2),
           t=st.floats(1e-9, 10.0))
    @settings(max_examples=300, deadline=None)
    def test_indices_prominences_and_widths(self, x, pick, mode, t):
        # threshold: any positive value, a prominence that occurs, or a
        # maximum's height above the global minimum (ties at the cut)
        every, props = find_peaks(x, prominence=0)
        if every.size and mode == 1:
            t = float(props["prominences"][pick % every.size])
        elif every.size and mode == 2:
            t = float(x[every[pick % every.size]] - x.min())
        want, props = find_peaks(x, prominence=t)
        idx, proms, widths = _find_peaks(x, t)
        assert list(idx) == want.tolist()
        if want.size:
            np.testing.assert_allclose(proms, props["prominences"], rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                widths, peak_widths(x, want, rel_height=0.5)[0], rtol=1e-12, atol=0)

    def test_smoothed_synthetic_spectra(self):
        rng = np.random.default_rng(5)
        for n_lines in range(1, 8):
            s = synth_spectrum(rng, 406200.0 + 150.0 * np.arange(n_lines),
                               fwhm_ghz=18.0, snr=40.0)
            x = np.convolve(np.pad(s.intensities, 2, mode="edge"),
                            np.full(5, 0.2), mode="valid")
            t = 0.1 * x.max()
            want, props = find_peaks(x, prominence=t)
            idx, proms, widths = _find_peaks(x, t)
            assert list(idx) == want.tolist()
            assert np.array_equal(proms, props["prominences"])
            assert np.array_equal(widths, peak_widths(x, want, rel_height=0.5)[0])


class TestClassifyAndExtract:
    def test_two_lines_subtraction(self):
        a = classify_and_extract([peak_at(406600.0), peak_at(406650.0)])
        assert a.is_single_emitter
        assert a.gss_ghz == pytest.approx(50.0, rel=1e-12)

    def test_six_peaks_is_multi_emitter(self):
        peaks = [peak_at(406500.0 + 40 * i) for i in range(6)]
        a = classify_and_extract(peaks)
        assert not a.is_single_emitter
        assert a.gss_ghz is None

    def test_single_peak_has_no_gss(self):
        a = classify_and_extract([peak_at(406600.0)])
        assert a.is_single_emitter
        assert a.gss_ghz is None

    def test_no_peaks_not_single(self):
        a = classify_and_extract([])
        assert not a.is_single_emitter
        assert a.gss_ghz is None

    def test_gss_invariant_under_extra_high_lines(self):
        base = [peak_at(406600.0), peak_at(406650.0)]
        for extra in ([406800.0], [406800.0, 406900.0]):
            peaks = base + [peak_at(c) for c in extra]
            a = classify_and_extract(peaks)
            assert a.is_single_emitter
            assert a.gss_ghz == pytest.approx(50.0, rel=1e-12)

    def test_unsorted_input_is_sorted(self):
        a = classify_and_extract([peak_at(406650.0), peak_at(406600.0)])
        assert a.gss_ghz == pytest.approx(50.0, rel=1e-12)


class TestPoolTransitions:
    def test_identical_single_line_spectra_concentrate(self):
        rng = np.random.default_rng(71)
        one = synth_spectrum(rng, [406700.0], fwhm_ghz=20.0, snr=30.0)
        edges, density = pool_transitions(assign([one] * 8))
        mass = density * np.diff(edges)
        assert mass.max() == pytest.approx(1.0, abs=1e-9)

    def test_wider_batch_has_wider_histogram(self):
        rng = np.random.default_rng(81)
        tight, spread = [], []
        for i in range(24):
            c = 406700.0 + 10.0 * rng.standard_normal()
            tight.append(synth_spectrum(rng, [c], snr=30.0))
            c = 406700.0 + 50.0 * rng.standard_normal()
            spread.append(synth_spectrum(rng, [c], snr=30.0))

        def hist_std(batch):
            edges, density = pool_transitions(assign(batch))
            mids = 0.5 * (edges[:-1] + edges[1:])
            w = density * np.diff(edges)
            mean = np.sum(mids * w)
            return np.sqrt(np.sum(w * (mids - mean) ** 2))

        assert hist_std(spread) >= 4.0 * hist_std(tight)

    def test_no_peaks_gives_empty_histogram(self):
        edges, density = pool_transitions([classify_and_extract([])] * 3)
        assert edges.size == 0 and density.size == 0

    def test_empty_batch(self):
        with pytest.raises(EmptyRequest):
            pool_transitions([])


class TestBatchGssStats:
    def test_known_values_match_direct_arithmetic(self):
        rng = np.random.default_rng(91)
        truth = np.linspace(120.0, 820.0, 11)
        batch = [
            synth_spectrum(
                rng, [406600.0, 406600.0 + g], fwhm_ghz=15.0, snr=30.0,
                f_lo=406300.0, f_hi=407800.0, n_points=3000,
            )
            for i, g in enumerate(truth)
        ]
        assignments = assign(batch)
        stats = batch_gss_stats(assignments)
        assert stats.n_spectra == 11
        assert stats.n_single_emitters == 11
        vals = np.array([a.gss_ghz for a in assignments])
        assert np.allclose(np.sort(vals), truth, atol=7.5)  # half linewidth
        assert stats.summary.mean_ghz == pytest.approx(np.mean(vals), rel=1e-12)
        assert stats.summary.std_ghz == pytest.approx(np.std(vals, ddof=1), rel=1e-12)
        assert stats.summary.sem_ghz == pytest.approx(
            np.std(vals, ddof=1) / np.sqrt(11), rel=1e-12
        )

    def test_all_multi_emitter_raises(self):
        rng = np.random.default_rng(101)
        centers = [406300.0 + 150.0 * i for i in range(6)]
        batch = [
            synth_spectrum(rng, centers, fwhm_ghz=15.0, snr=30.0,
                           f_lo=406000.0, f_hi=407400.0)
            for _ in range(3)
        ]
        with pytest.raises(NoSingleEmitters):
            batch_gss_stats(assign(batch))

    def test_empty_batch(self):
        with pytest.raises(EmptyRequest):
            batch_gss_stats([])


class TestSpectrumValidation:
    def test_strictly_increasing_required(self):
        freqs = np.linspace(0, 10, 20)
        freqs[4] = freqs[3]
        with pytest.raises(InvalidParameter):
            Spectrum(freqs, np.ones(20))

    def test_negative_intensity_rejected(self):
        intens = np.ones(20)
        intens[2] = -0.5
        with pytest.raises(InvalidDomain):
            Spectrum(np.linspace(0, 10, 20), intens)

    def test_min_points(self):
        with pytest.raises(InvalidParameter):
            Spectrum(np.linspace(0, 10, 8), np.ones(8))


def test_spectra_command_never_imports_scipy(tmp_path):
    """scipy is a test dependency only: the spectra command runs on numpy.

    The child inherits this process's environment, with the directory of
    the ``strainforge`` package under test first on PYTHONPATH, so it
    imports the same package whether that is reached through PYTHONPATH
    or an editable install.
    """
    rng = np.random.default_rng(13)
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    for i in range(3):
        s = synth_spectrum(rng, [406600.0, 406800.0 + 50.0 * i], fwhm_ghz=15.0,
                           snr=30.0, f_lo=406300.0, f_hi=407400.0, n_points=2200)
        write_spectrum(s, spec_dir / f"s{i}.csv")
    env = dict(os.environ)
    pkg_root = str(Path(strainforge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys\n"
        "from strainforge.cli import run\n"
        "status = run(['spectra', '--dir', sys.argv[1], '--batch-tag', 'post',\n"
        "              '--out', sys.argv[2]])\n"
        "print(status, sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(spec_dir), str(tmp_path / "stats.json")],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "stats_pooled.csv").exists()
