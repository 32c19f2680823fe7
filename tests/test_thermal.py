import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from strainforge.errors import EmptyRequest, InvalidDomain, InvalidParameter
from strainforge.thermal import (
    K_PER_GHZ,
    ThermalReference,
    _ln_rate,
    _log1mexp,
    gamma_up_relative,
    operability_curve,
    operational_temperature,
    operational_temperature_batch,
    thermal_occupation,
)

REF = ThermalReference()

# independent constant for oracle evaluations (rounded h/k_B in s K)
ORACLE_K_PER_GHZ = 4.7992e-11 * 1e9


def oracle_top(gss, gss0=554.0, t0=1.5):
    """Independent root find (brentq on the closed-form rate equation)."""
    def g(temp):
        x = ORACLE_K_PER_GHZ * gss / temp
        x0 = ORACLE_K_PER_GHZ * gss0 / t0
        return (3.0 * math.log(gss / gss0) - x - math.log1p(-math.exp(-x))
                + x0 + math.log1p(-math.exp(-x0)))
    return brentq(g, 1e-3, 300.0, xtol=1e-12)


def exact_rate_residual(temp, gss, ref):
    """ln(gss^3 n_th(gss, T)) minus its reference value, exact constant."""
    def ln_rate(g, t):
        x = K_PER_GHZ * g / t
        return 3.0 * math.log(g) - x - math.log1p(-math.exp(-x))
    return ln_rate(gss, temp) - ln_rate(ref.gss_ref_ghz, ref.temp_ref_k)


OUT_OF_DOMAIN_GSS = (1e-6, 1e7, math.inf, -math.inf, math.nan, 0.0, -5.0)


class TestThermalOccupation:
    def test_ln2_point_gives_unity(self):
        gss = 100.0
        temp = K_PER_GHZ * gss / math.log(2.0)
        assert thermal_occupation(gss, temp) == pytest.approx(1.0, rel=1e-12)

    def test_exponential_suppression(self):
        # x > 50
        gss = 2000.0
        temp = K_PER_GHZ * gss / 55.0
        assert thermal_occupation(gss, temp) < 1e-21

    def test_reference_point_value(self):
        # derived: x = h*554 GHz / (kB * 1.5 K) ~ 17.725, n ~ 2.0e-8
        val = thermal_occupation(554.0, 1.5)
        x = ORACLE_K_PER_GHZ * 554.0 / 1.5
        oracle = 1.0 / math.expm1(x)
        assert val == pytest.approx(oracle, rel=1e-2)
        assert val == pytest.approx(2.0e-8, rel=1e-2)

    def test_monotonicity(self):
        temps = np.linspace(0.5, 10.0, 40)
        vals = [thermal_occupation(554.0, t) for t in temps]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        gsses = np.linspace(46.0, 2000.0, 40)
        vals = [thermal_occupation(g, 1.5) for g in gsses]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomain):
            thermal_occupation(0.0, 1.5)
        with pytest.raises(InvalidDomain):
            thermal_occupation(554.0, -1.0)

    def test_no_overflow_where_expm1_would(self):
        # expm1 overflows past x ~ 709.78; below it the value is 1/expm1(x)
        assert thermal_occupation(1e6, 0.01) == 0.0
        for x in (709.9, 720.0, 745.0):
            gss = x / K_PER_GHZ
            assert thermal_occupation(gss, 1.0) == math.exp(-K_PER_GHZ * gss)
        gss = 708.0 / K_PER_GHZ
        assert thermal_occupation(gss, 1.0) == 1.0 / math.expm1(K_PER_GHZ * gss)

    @pytest.mark.parametrize("gss", [1e-322, 1e-310, 5e-324])
    def test_occupation_past_the_float_range_is_invalid_domain(self, gss):
        # x underflows to 0 (1e-322) or 1/x overflows (1e-310): no finite n_th
        with pytest.raises(InvalidDomain):
            thermal_occupation(gss, 300.0)

    def test_smallest_finite_occupation_unchanged(self):
        # x = 2**-1020 is tiny but 1/expm1(x) = 2**1020 is still finite
        gss = 2.0 ** -1020 * 300.0 / K_PER_GHZ
        x = K_PER_GHZ * gss / 300.0
        assert thermal_occupation(gss, 300.0) == 1.0 / math.expm1(x)


class TestLog1mexp:
    @pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-17, 1.1e-16, 1e-12, 1e-8])
    def test_small_x_matches_series(self, x):
        assert _log1mexp(x) == pytest.approx(math.log(x) - x / 2 + x * x / 24,
                                             rel=1e-15, abs=0)

    def test_continuous_across_ln2(self):
        xs = [math.log(2.0)]
        for _ in range(8):
            xs = [math.nextafter(xs[0], 0.0), *xs, math.nextafter(xs[-1], 1.0)]
        ys = [_log1mexp(x) for x in xs]
        assert ys == sorted(ys)
        # slope 1 at ln 2: 16 ulps of x move the value by about 16 ulps
        assert ys[-1] - ys[0] < 20 * math.ulp(math.log(2.0))
        assert ys[8] == pytest.approx(-math.log(2.0), abs=math.ulp(math.log(2.0)))


class TestGammaUpRelative:
    def test_normalization_point(self):
        assert gamma_up_relative(554.0, 1.5, REF) == 1.0

    def test_hotter_is_faster(self):
        assert gamma_up_relative(554.0, 3.0, REF) > 1.0

    def test_doubled_splitting_closed_form(self):
        val = gamma_up_relative(1108.0, 1.5, REF)
        n_hi = 1.0 / math.expm1(K_PER_GHZ * 1108.0 / 1.5)
        n_lo = 1.0 / math.expm1(K_PER_GHZ * 554.0 / 1.5)
        assert val == pytest.approx(8.0 * n_hi / n_lo, rel=1e-9, abs=0)
        assert val == pytest.approx(1.6e-7, rel=0.02)

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomain):
            gamma_up_relative(-5.0, 1.5, REF)

    def test_rate_past_float_range_is_invalid_domain(self):
        # the largest rates still come back bit for bit; past 1.8e308 the
        # exp of the log-rate difference overflows, which is a domain error
        rate = gamma_up_relative(554.0, 1.5, ThermalReference(1e-150, 300.0))
        assert rate == 5.4528346156032135e+296
        with pytest.raises(InvalidDomain):
            gamma_up_relative(554.0, 1.5, ThermalReference(1e-200, 300.0))

    @pytest.mark.parametrize("field", ["gss_ref_ghz", "temp_ref_k"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_reference_rejects_non_finite(self, field, value):
        # no finite log rate to normalize to: reject at construction, not at use
        with pytest.raises(InvalidDomain, match="reference splitting and temperature"):
            ThermalReference(**{field: value})

    def test_splitting_far_below_temperature(self):
        # x ~ 1.6e-18: exp(-x) rounds to 1, so n_th = 1/x to double precision
        x = K_PER_GHZ * 1e-14 / 300.0
        x0 = K_PER_GHZ * 554.0 / 1.5
        ln_rate = 3.0 * math.log(1e-14) - math.log(x)
        ln_rate0 = 3.0 * math.log(554.0) - x0 - math.log(-math.expm1(-x0))
        assert gamma_up_relative(1e-14, 300.0) == pytest.approx(
            math.exp(ln_rate - ln_rate0), rel=1e-12)

    @pytest.mark.parametrize("gss", [1e-322, 5e-324])
    def test_rate_where_x_underflows(self, gss):
        # K*gss/T is 0.0 in floats; ln(gss^3 n_th) = 3 ln gss - ln x, ln x from logs
        assert K_PER_GHZ * gss / 300.0 == 0.0
        want = 3.0 * math.log(gss) - (math.log(K_PER_GHZ) + math.log(gss) - math.log(300.0))
        assert _ln_rate(gss, 300.0) == want
        top = operational_temperature(554.0, ThermalReference(gss, 300.0))
        assert top == pytest.approx(K_PER_GHZ * 554.0 / (3.0 * math.log(554.0) - want), rel=1e-12)

    def test_rate_just_above_underflow_keeps_its_branch(self):
        # the smallest normal x still goes through _log1mexp, bit for bit
        gss = 2.0 ** -1022 * 300.0 / K_PER_GHZ
        x = K_PER_GHZ * gss / 300.0
        assert x > 0.0
        assert _ln_rate(gss, 300.0) == 3.0 * math.log(gss) - x - _log1mexp(x)


class TestOperationalTemperature:
    def test_reference_point(self):
        assert operational_temperature(554.0, REF) == pytest.approx(1.5, abs=1e-4)

    def test_monotone_above_reference(self):
        assert operational_temperature(608.0, REF) > 1.5

    def test_unstrained_matches_independent_oracle(self):
        t = operational_temperature(46.0, REF)
        assert t == pytest.approx(oracle_top(46.0), rel=0.01)
        assert t == pytest.approx(0.215, abs=0.005)

    def test_strict_monotonicity_over_grid(self):
        grid = np.linspace(46.0, 2000.0, 100)
        tops = [operational_temperature(g, REF) for g in grid]
        assert all(b > a for a, b in zip(tops, tops[1:]))

    def test_rate_consistency_at_solution(self):
        for g in np.linspace(46.0, 2000.0, 100):
            t = operational_temperature(g, REF)
            assert gamma_up_relative(g, t, REF) == pytest.approx(1.0, abs=1e-6)

    def test_custom_reference(self):
        ref = ThermalReference(gss_ref_ghz=800.0, temp_ref_k=2.2)
        assert operational_temperature(800.0, ref) == pytest.approx(2.2, abs=1e-4)

    def test_invalid_domain(self):
        with pytest.raises(InvalidDomain):
            operational_temperature(0.0, REF)


class TestClosedFormAgainstRootFind:
    @given(
        gss=st.floats(46.0, 3000.0),
        gss_ref=st.floats(46.0, 3000.0),
        temp_ref=st.floats(0.5, 10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brentq_and_normalizes_rate(self, gss, gss_ref, temp_ref):
        ref = ThermalReference(gss_ref_ghz=gss_ref, temp_ref_k=temp_ref)
        lo = exact_rate_residual(1e-3, gss, ref)
        hi = exact_rate_residual(300.0, gss, ref)
        if not lo < 0.0 < hi:
            # no operating temperature inside [1 mK, 300 K]
            with pytest.raises(InvalidDomain):
                operational_temperature(gss, ref)
            return
        oracle = brentq(exact_rate_residual, 1e-3, 300.0,
                        args=(gss, ref), xtol=1e-13, rtol=1e-15)
        t_op = operational_temperature(gss, ref)
        assert abs(t_op - oracle) <= 1e-9
        assert abs(gamma_up_relative(gss, t_op, ref) - 1.0) <= 1e-9

    @given(gss=st.lists(st.floats(46.0, 3000.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_batch_matches_scalar(self, gss):
        batch = operational_temperature_batch(np.array(gss), REF)
        scalar = [operational_temperature(g, REF) for g in gss]
        np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("gss", OUT_OF_DOMAIN_GSS)
    def test_scalar_and_batch_share_domain(self, gss):
        with pytest.raises(InvalidDomain):
            operational_temperature(gss, REF)
        with pytest.raises(InvalidDomain):
            operational_temperature_batch(np.array([554.0, gss]), REF)


class TestBatch:
    def test_batch_matches_scalar(self):
        grid = np.linspace(50.0, 1800.0, 64)
        batch = operational_temperature_batch(grid, REF)
        scalar = np.array([operational_temperature(g, REF) for g in grid])
        assert np.allclose(batch, scalar, rtol=1e-9)

    def test_batch_rejects_invalid(self):
        with pytest.raises(InvalidDomain):
            operational_temperature_batch(np.array([554.0, -1.0]), REF)
        with pytest.raises(EmptyRequest):
            operational_temperature_batch(np.array([]), REF)


class TestOperabilityCurve:
    def test_all_at_reference(self):
        top = operational_temperature_batch(np.full(50, 554.0), REF)
        assert operability_curve(top, [1.5]).tolist() == [1.0]

    def test_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(1)
        top = operational_temperature_batch(rng.uniform(100.0, 1200.0, 5000), REF)
        probs = operability_curve(top, np.linspace(0.25, 4.0, 31))
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert np.all(np.diff(probs) <= 0.0)

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_fractions_match_direct_count(self, data):
        temps = np.sort(data.draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=12)))
        # values far from the grid, and values within 1e-10 K of grid points
        far = data.draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=40))
        near = data.draw(st.lists(
            st.tuples(st.sampled_from(temps.tolist()), st.floats(-1e-10, 1e-10)),
            max_size=20,
        ))
        top = np.array(far + [t + dt for t, dt in near])
        want = [np.mean(top >= t - 1e-9) for t in temps]
        assert operability_curve(data.draw(st.permutations(top)), temps).tolist() == want

    def test_empty_rejected(self):
        with pytest.raises(EmptyRequest):
            operability_curve(np.array([]), [1.5])

    def test_unsorted_temps_rejected(self):
        with pytest.raises(InvalidParameter):
            operability_curve(np.full(5, 1.5), [2.0, 1.0])

    @pytest.mark.parametrize("temps", [[], [[1.0, 2.0]]])
    def test_grid_not_nonempty_1d_rejected(self, temps):
        with pytest.raises(InvalidParameter):
            operability_curve(np.full(5, 1.5), temps)
