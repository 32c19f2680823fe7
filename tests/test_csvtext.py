"""The numpy CSV writer against Python's own ``%d``/``%.17g`` formatting."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import csv_rows
import strainforge.cli as cli
from strainforge._csvtext import K_HI, K_LO, format_rows
from strainforge.cli import CSV_BLOCK_ROWS
from strainforge.population import EmitterSamples

G = "%.17g"
SAMPLE_ROW = "%d,%.17g,%.17g,%.17g,%d" + ",%.17g" * 7  # the sample table

any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
bit_pattern = st.integers(0, 2 ** 64 - 1).map(
    lambda b: float(np.array(b, dtype=np.uint64).view(np.float64)))
# o * 5**j ends in 5 (o odd), so with 18 digits o * 2**-j lies halfway between two
# 17-digit decimals: an exact tie
tie = st.integers(2, 25).flatmap(lambda j: st.integers(
    -(-10 ** 17 // 5 ** j), min(10 ** 18 // 5 ** j, 2 ** 53) - 1).filter(
    lambda o: o % 2 == 1 and len(str(o * 5 ** j)) == 18).map(lambda o: o * 2.0 ** -j))
signed_tie = st.tuples(tie, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])
value = st.one_of(any_float, bit_pattern, signed_tie, st.sampled_from([0.0, -0.0]))


def _check(columns, row_format):
    """The writer's text, with each format taken from its column's dtype,
    equals Python's with the format given."""
    assert format_rows(columns) == csv_rows(columns, row_format)


def _is_tie(x):
    """Does the 18th significant digit of x end its exact expansion as a 5?"""
    f = abs(Fraction(x))
    k = math.floor(math.log10(f))
    k += (Fraction(10) ** (k + 1) <= f) - (Fraction(10) ** k > f)  # log10 may round
    scaled = f * Fraction(10) ** (16 - k)
    return scaled.denominator == 2


@settings(max_examples=300, deadline=None)
@given(st.lists(value, min_size=1, max_size=60))
def test_float_column_matches_python(xs):
    _check([np.array(xs)], G)


@settings(max_examples=100, deadline=None)
@given(st.lists(tie, min_size=1, max_size=20))
def test_ties_are_exact_and_match_python(xs):
    assert all(_is_tie(x) for x in xs)
    _check([np.array(xs), -np.array(xs)], f"{G},{G}")


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mixed_int_and_float_columns(data):
    kinds = data.draw(st.lists(st.sampled_from(["%d", G]), min_size=1, max_size=6))
    rows = data.draw(st.integers(1, 12))
    columns = [
        np.array(data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1) | st.integers(-99, 99),
                                    min_size=rows, max_size=rows)), dtype=np.int64)
        if f == "%d" else
        np.array(data.draw(st.lists(value, min_size=rows, max_size=rows)))
        for f in kinds
    ]
    _check(columns, ",".join(kinds))


def _chunk(rng, rows):
    """A sampler chunk of ``rows`` emitters with random values."""
    x, y, depth = (rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows) for _ in range(3))
    return EmitterSamples(x, y, depth, rng.integers(0, 4, rows),
                          rng.standard_normal((rows, 6)) * 1e-5, 46.0 + rng.random(rows) * 1e3)


def _table(chunks):
    """The sample table's columns, index first, joined over ``chunks``."""
    cols = [np.concatenate(c) for c in zip(*(vars(s).values() for s in chunks))]
    x, y, depth, ori, eps, gss = cols
    return [np.arange(len(gss)), x, y, depth, ori, *eps.T, gss]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3 * CSV_BLOCK_ROWS // 1024), st.lists(st.integers(1, 300), min_size=1,
       max_size=4), st.integers(0, 2 ** 32 - 1))
def test_blocks_of_any_size_join_to_the_table(block_rows, sizes, seed):
    # the sample CSV is written chunk by chunk, each chunk in blocks of
    # CSV_BLOCK_ROWS rows; indices run on across chunks
    rng = np.random.default_rng(seed)
    chunks = [_chunk(rng, rows) for rows in sizes]
    gss = np.full(sum(sizes), np.nan)
    with mock.patch.object(cli, "CSV_BLOCK_ROWS", block_rows):
        parts = list(cli._sample_csv(iter(chunks), gss))
    assert parts[0] == (b"index,x_nm,y_nm,depth_nm,orientation_id,"
                        b"eps_xx,eps_yy,eps_zz,eps_xy,eps_yz,eps_zx,gss_ghz\n")
    assert [len(p.splitlines()) for p in parts[1:]] == [
        min(block_rows, rows - lo) for rows in sizes for lo in range(0, rows, block_rows)]
    table = _table(chunks)
    assert b"".join(parts[1:]) == csv_rows(table, SAMPLE_ROW)
    assert np.array_equal(gss, table[-1])


def test_table_longer_than_one_cli_block():
    rng = np.random.default_rng(7)
    chunks = [_chunk(rng, CSV_BLOCK_ROWS + 3)]  # one full block and a short one
    gss = np.empty(CSV_BLOCK_ROWS + 3)
    parts = list(cli._sample_csv(iter(chunks), gss))
    assert [len(p.splitlines()) for p in parts[1:]] == [CSV_BLOCK_ROWS, 3]
    assert b"".join(parts[1:]) == csv_rows(_table(chunks), SAMPLE_ROW)


def test_powers_of_ten_and_their_neighbours():
    xs = []
    for j in range(-320, 309):
        p = float(f"1e{j}")
        xs += [math.nextafter(p, math.inf), math.nextafter(p, -math.inf), p]
    xs = np.array(xs)
    _check([xs, -xs], f"{G},{G}")


def test_exponent_layout_edges():
    # %g turns to exponent notation below 1e-4 and at 1e17, after rounding
    xs = np.array([1e-4, 9.99999999999999e-5, 0.000099999999999999999, 1e-5, 1e16,
                   99999999999999984.0, 1e17, 1.5, 100.0, 120.0, 1e22, 1e23, 2.0 ** 53,
                   123456789012345678.0, 0.1, 0.5, 1e-100, 1e100, 1e-99, 1e99,
                   10.0 ** K_LO, 10.0 ** K_HI, 10.0 ** (K_LO - 1), 10.0 ** (K_HI + 1)])
    _check([xs, -xs], f"{G},{G}")


def test_zero_columns_stay_on_the_numpy_path(monkeypatch):
    # sample --phase pre writes three all-zero columns
    import strainforge._csvtext as csvtext

    def no_python(*args):
        raise AssertionError("zero went to the Python fallback")

    csvtext._tables()  # built with _ascii before it is patched
    monkeypatch.setattr(csvtext, "_ascii", no_python)
    zeros = np.zeros(5)
    _check([np.arange(5), zeros, -zeros, zeros], f"%d,{G},{G},{G}")


def test_format_follows_the_column_dtype(monkeypatch):
    # every integer dtype is %d, and one of 2**53 and up in magnitude,
    # inexact as a float, goes to the Python fallback; any other column is %.17g
    import strainforge._csvtext as csvtext

    csvtext._tables()  # built with _ascii before it is patched
    fallback, ascii_ = [], csvtext._ascii

    def spy(text, width):
        fallback.append(text)
        return ascii_(text, width)

    monkeypatch.setattr(csvtext, "_ascii", spy)
    columns = [np.array([-128, 0, 127], dtype=np.int8),
               np.array([-2 ** 63, 7, 2 ** 63 - 1], dtype=np.int64),
               np.array([2 ** 53, 2 ** 53 + 1, 2 ** 64 - 1], dtype=np.uint64),
               np.array([0.1, -2.0, 1e30]), np.array([1.5, 3.0, -0.0], dtype=np.float32)]
    _check(columns, f"%d,%d,%d,{G},{G}")
    assert sorted(fallback) == sorted(["-9223372036854775808", "9223372036854775807",
                                       "9007199254740992", "9007199254740993",
                                       "18446744073709551615"])
