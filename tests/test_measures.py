"""Band measures: cdf/quantile, convolution, scaling exponents, Lyapunov.

Independent oracles implemented here:
 * a scalar cdf evaluated atom by atom with the uniform-inside-atoms rule;
 * exact rational ball masses for the equal-weight measure on a ternary
   construction stage, computed by recursing over the binary address tree;
 * an all-pairs convolution cdf using the same uniform-spread rule, which
   the gridded convolution must approach as the granularity shrinks;
 * dense-eigensolver-free closed forms for small point-mass convolutions.
"""

from fractions import Fraction

import numpy as np
import pytest

from cantor_spectra import (
    BandMeasure,
    BudgetExceededError,
    DimensionEstimate,
    EstimationFailedError,
    band_dos,
    approximant,
    cdf,
    convolve,
    dim_sum_bound,
    dimension_via_lyapunov,
    estimate_lyapunov,
    measure_dimension_estimate,
    middle_alpha_system,
    quantile,
    scaling_exponent,
    singularity_verdict,
)
from cantor_spectra.measures import _percentile

LOG2_OVER_LOG3 = float(np.log(2.0) / np.log(3.0))

# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def cdf_oracle(m: BandMeasure, x: float) -> float:
    """Atom-by-atom cdf: mass left of x, uniform inside non-degenerate atoms."""
    total = 0.0
    for lo, hi, w in zip(m.los, m.his, m.weights):
        if hi == lo:
            total += w if x >= lo else 0.0
        elif x >= hi:
            total += w
        elif x > lo:
            total += w * (x - lo) / (hi - lo)
    return total


def ternary_ball_mass(depth: int, x: Fraction, eps: Fraction) -> Fraction:
    """Exact mass of [x - eps, x + eps] under the equal-weight measure on
    the depth-d ternary stage, by recursion over construction intervals."""
    lo_q, hi_q = x - eps, x + eps

    def rec(level: int, lo: Fraction, length: Fraction) -> Fraction:
        hi = lo + length
        if hi <= lo_q or lo >= hi_q:
            return Fraction(0)
        if level == depth:
            ov = min(hi, hi_q) - max(lo, lo_q)
            return Fraction(1, 2**depth) * ov / length
        third = length / 3
        return rec(level + 1, lo, third) + rec(level + 1, lo + 2 * third, third)

    return rec(0, Fraction(0), Fraction(1))


def convolution_cdf_oracle(m1: BandMeasure, m2: BandMeasure, t: float) -> float:
    """cdf of the sum when each atom pair spreads uniformly on the summed
    interval -- the defining semantics of the convolution here."""
    total = 0.0
    for lo1, hi1, w1 in zip(m1.los, m1.his, m1.weights):
        for lo2, hi2, w2 in zip(m2.los, m2.his, m2.weights):
            lo, hi = lo1 + lo2, hi1 + hi2
            if hi > lo:
                frac = min(max((t - lo) / (hi - lo), 0.0), 1.0)
            else:
                frac = 1.0 if t >= lo else 0.0
            total += w1 * w2 * frac
    return total


def random_measure(rng, max_atoms=20, allow_points=True):
    n = int(rng.integers(1, max_atoms + 1))
    los = np.sort(rng.uniform(-3, 3, n))
    max_len = np.diff(np.append(los, los[-1] + 1.0))
    lengths = rng.uniform(0, 1, n) * max_len
    if allow_points:
        lengths = lengths * (rng.random(n) < 0.8)
    ws = rng.uniform(0.1, 1.0, n)
    ws = ws / ws.sum()
    return BandMeasure(list(zip(los, los + lengths, ws)))


def ternary_measure(depth: int) -> BandMeasure:
    return BandMeasure.equal_weights_on(approximant(middle_alpha_system(1 / 3), depth))


# --------------------------------------------------------------------------
# BandMeasure construction
# --------------------------------------------------------------------------


class TestBandMeasure:
    def test_triples_and_interval_pairs(self):
        from cantor_spectra import Interval

        a = BandMeasure([(0.0, 1.0, 0.5), (2.0, 3.0, 0.5)])
        b = BandMeasure([(Interval(0, 1), 0.5), (Interval(2, 3), 0.5)])
        assert np.array_equal(a.los, b.los) and np.array_equal(a.weights, b.weights)

    def test_atoms_sorted(self):
        m = BandMeasure([(2.0, 3.0, 0.5), (0.0, 1.0, 0.5)])
        assert m.los[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BandMeasure([])
        with pytest.raises(ValueError):
            BandMeasure([(0, 1, 0.0)])  # zero weight
        with pytest.raises(ValueError):
            BandMeasure([(0, 1, 0.6), (0.5, 2, 0.4)])  # overlapping interiors
        with pytest.raises(ValueError):
            BandMeasure([(0, 1, 0.7)])  # mass != 1
        with pytest.raises(ValueError):
            BandMeasure([(0, 1, np.inf)])
        with pytest.raises(ValueError):
            BandMeasure([(1, 0, 1.0)])  # reversed

    def test_touching_atoms_allowed(self):
        m = BandMeasure([(0, 1, 0.5), (1, 2, 0.5)])
        assert len(m) == 2

    def test_constructors(self):
        pm = BandMeasure.point_masses([0.0, 2.0], [0.25, 0.75])
        assert pm.is_point_mass() is False
        assert BandMeasure.point_masses([1.0], [1.0]).is_point_mass()
        u = BandMeasure.uniform(-1, 1)
        assert (u.support_lo, u.support_hi) == (-1.0, 1.0)
        with pytest.raises(ValueError):
            BandMeasure.uniform(1, 1)

    def test_length_weights(self):
        from cantor_spectra import Interval, IntervalSet

        s = IntervalSet([Interval(0, 1), Interval(2, 5)])
        m = BandMeasure.length_weights_on(s)
        assert np.allclose(m.weights, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_transforms(self):
        m = BandMeasure([(0, 1, 0.5), (3, 5, 0.5)])
        t = m.translated(2.0)
        assert t.support_lo == 2.0 and t.support_hi == 7.0
        r = m.rescaled_to_unit()
        assert (r.support_lo, r.support_hi) == (0.0, 1.0)
        assert np.allclose(r.los, [0.0, 0.6], rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            BandMeasure.point_masses([1.0], [1.0]).rescaled_to_unit()

    def test_json_roundtrip(self):
        m = BandMeasure([(0, 1, 0.5), (2, 2, 0.5)])
        back = BandMeasure.from_json(m.to_json())
        assert np.array_equal(back.los, m.los)
        assert np.array_equal(back.his, m.his)
        assert np.array_equal(back.weights, m.weights)


# --------------------------------------------------------------------------
# cdf and quantile
# --------------------------------------------------------------------------


class TestCdfQuantile:
    def test_cdf_matches_oracle(self):
        rng = np.random.default_rng(np.random.Philox(41))
        for _ in range(30):
            m = random_measure(rng)
            xs = rng.uniform(-4, 5, 80)
            got = cdf(m, xs)
            for x, g in zip(xs, got):
                assert abs(g - cdf_oracle(m, float(x))) <= 1e-12

    def test_cdf_hand_values(self):
        m = BandMeasure([(0, 1, 0.5), (2, 4, 0.5)])
        assert cdf(m, -0.1) == 0.0
        assert cdf(m, 0.5) == 0.25
        assert cdf(m, 1.0) == 0.5
        assert cdf(m, 3.0) == 0.75
        assert cdf(m, 4.0) == 1.0

    def test_cdf_point_mass_right_closed(self):
        m = BandMeasure.point_masses([1.0], [1.0])
        assert cdf(m, 1.0) == 1.0
        assert cdf(m, 1.0 - 1e-12) == 0.0

    def test_cdf_monotone(self):
        rng = np.random.default_rng(np.random.Philox(42))
        m = random_measure(rng)
        xs = np.sort(rng.uniform(-4, 5, 200))
        vals = cdf(m, xs)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_quantile_inverts_cdf_on_continuous_measures(self):
        rng = np.random.default_rng(np.random.Philox(43))
        m = random_measure(rng, allow_points=False)
        us = rng.uniform(0, 1, 100)
        qs = quantile(m, us)
        assert np.allclose(cdf(m, qs), us, rtol=0, atol=1e-9)

    def test_quantile_point_masses(self):
        m = BandMeasure.point_masses([0.0, 1.0], [0.3, 0.7])
        assert quantile(m, 0.0) == 0.0
        assert quantile(m, 0.3) == 0.0
        assert quantile(m, 0.31) == 1.0
        assert quantile(m, 1.0) == 1.0

    def test_quantile_domain(self):
        m = BandMeasure.uniform(0, 1)
        with pytest.raises(ValueError):
            quantile(m, -0.01)
        with pytest.raises(ValueError):
            quantile(m, 1.01)


# --------------------------------------------------------------------------
# Convolution
# --------------------------------------------------------------------------


class TestConvolve:
    def test_point_mass_translates_exactly(self):
        rng = np.random.default_rng(np.random.Philox(44))
        m = random_measure(rng)
        shift = BandMeasure.point_masses([2.5], [1.0])
        out = convolve(m, shift)
        assert np.array_equal(out.los, m.los + 2.5)
        assert np.array_equal(out.his, m.his + 2.5)
        out2 = convolve(shift, m)
        assert np.array_equal(out2.los, m.los + 2.5)

    def test_pure_point_masses_group_exactly(self):
        coin = BandMeasure.point_masses([0.0, 1.0], [0.5, 0.5])
        two = convolve(coin, coin)
        assert np.array_equal(two.los, [0.0, 1.0, 2.0])
        assert np.array_equal(two.weights, [0.25, 0.5, 0.25])

    def test_asymmetric_point_masses(self):
        a = BandMeasure.point_masses([0.0, 1.0], [0.25, 0.75])
        b = BandMeasure.point_masses([0.0, 10.0], [0.5, 0.5])
        out = convolve(a, b)
        assert np.array_equal(out.los, [0.0, 1.0, 10.0, 11.0])
        assert np.allclose(out.weights, [0.125, 0.375, 0.125, 0.375], atol=1e-15)

    def test_uniform_pair_coarse_granularity(self):
        u = BandMeasure.uniform(0.0, 1.0)
        out = convolve(u, u, merge_granularity=2.0)
        assert len(out) == 1
        assert (out.support_lo, out.support_hi) == (0.0, 2.0)
        assert out.weights[0] == 1.0

    def test_mass_conserved(self):
        rng = np.random.default_rng(np.random.Philox(45))
        for _ in range(20):
            m1 = random_measure(rng)
            m2 = random_measure(rng)
            out = convolve(m1, m2)
            assert abs(out.total_weight() - 1.0) <= 1e-10

    def test_commutative_within_tolerance(self):
        rng = np.random.default_rng(np.random.Philox(46))
        m1 = random_measure(rng, allow_points=False)
        m2 = random_measure(rng, allow_points=False)
        ab = convolve(m1, m2)
        ba = convolve(m2, m1)
        grid = np.linspace(ab.support_lo - 0.5, ab.support_hi + 0.5, 1000)
        assert np.max(np.abs(cdf(ab, grid) - cdf(ba, grid))) <= 1e-10

    def test_cdf_approaches_all_pairs_oracle(self):
        rng = np.random.default_rng(np.random.Philox(47))
        m1 = random_measure(rng, max_atoms=8, allow_points=False)
        m2 = random_measure(rng, max_atoms=8, allow_points=False)
        g = 1e-3
        out = convolve(m1, m2, merge_granularity=g)
        grid = np.linspace(out.support_lo, out.support_hi, 500)
        worst = max(
            abs(float(cdf(out, t)) - convolution_cdf_oracle(m1, m2, float(t)))
            for t in grid
        )
        assert worst <= 0.01

    def test_cell_masses_match_all_pairs_oracle(self):
        # At every cell edge the gridded cdf is exact: each cell holds the
        # mass the atom pairs put on it, also for atoms spanning many cells.
        rng = np.random.default_rng(np.random.Philox(53))
        m1 = random_measure(rng, max_atoms=6, allow_points=False)
        m2 = random_measure(rng, max_atoms=6, allow_points=False)
        out = convolve(m1, m2, merge_granularity=0.01)
        edges = np.union1d(out.los, out.his)
        worst = max(
            abs(float(cdf(out, t)) - convolution_cdf_oracle(m1, m2, float(t))) for t in edges
        )
        assert worst <= 1e-12

    def test_granularity_validation(self):
        u = BandMeasure.uniform(0, 1)
        with pytest.raises(ValueError):
            convolve(u, u, merge_granularity=0.0)

    def test_pair_budget(self):
        pts = np.arange(4000, dtype=float)
        w = np.full(4000, 1.0 / 4000)
        big = BandMeasure.point_masses(pts, w)
        with pytest.raises(BudgetExceededError):
            convolve(big, big)

    def test_cell_budget(self):
        u = BandMeasure.uniform(0, 1)
        with pytest.raises(BudgetExceededError):
            convolve(u, u, merge_granularity=1e-9)


# --------------------------------------------------------------------------
# Scaling exponents
# --------------------------------------------------------------------------


class TestScalingExponent:
    def test_ternary_ball_masses_match_exact_oracle(self):
        depth = 10
        m = ternary_measure(depth)
        rng = np.random.default_rng(np.random.Philox(48))
        xs = rng.integers(0, 1025, 12) / 1024.0  # dyadic points in [0, 1]
        for x in xs:
            for k in (2, 4, 6):
                eps = 3.0**-k
                got = float(cdf(m, x + eps) - cdf(m, x - eps))
                want = float(
                    ternary_ball_mass(depth, Fraction(x), Fraction(eps))
                )
                assert abs(got - want) <= 1e-10

    def test_point_mass_exponent_zero(self):
        m = BandMeasure.point_masses([0.5], [1.0])
        r = scaling_exponent(m, 0.5, 1e-6, 1e-2)
        assert r.alpha_lower == 0.0 and r.alpha_upper == 0.0
        assert not r.no_mass

    def test_ternary_point_exponent(self):
        m = ternary_measure(10)
        r = scaling_exponent(m, 0.25, 3.0**-8, 3.0**-3, n_scales=6)
        assert abs(r.alpha_lower - LOG2_OVER_LOG3) <= 0.05
        assert abs(r.alpha_upper - LOG2_OVER_LOG3) <= 0.05

    def test_exponents_are_recorded_per_scale(self):
        # For the uniform measure the ball at the center has mass exactly
        # 2 eps, so every recorded ratio must equal log(2 eps)/log(eps).
        m = BandMeasure.uniform(0, 1)
        r = scaling_exponent(m, 0.5, 1e-8, 1e-4, n_scales=5)
        assert len(r.exponents) == 5
        eps_seen = [e for e, _ in r.exponents]
        assert eps_seen == sorted(eps_seen, reverse=True)
        for eps, ratio in r.exponents:
            want = np.log(2.0 * eps) / np.log(eps)
            assert abs(ratio - want) <= 1e-9

    def test_validation(self):
        m = BandMeasure.uniform(0, 1)
        with pytest.raises(ValueError):
            scaling_exponent(m, 0.5, 1e-2, 1e-6)  # reversed eps
        with pytest.raises(ValueError):
            scaling_exponent(m, 0.5, 1e-6, 1e-2, n_scales=3)
        with pytest.raises(ValueError):
            scaling_exponent(m, 2.0, 1e-6, 1e-2)  # outside hull


# --------------------------------------------------------------------------
# Dimension estimates
# --------------------------------------------------------------------------


class TestMeasureDimensionEstimate:
    def test_percentile_matches_numpy_bitwise(self):
        rng = np.random.default_rng(np.random.Philox(35))
        for _ in range(300):
            n = int(rng.integers(1, 500))
            xs = np.sort(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
            for q in (0.0, 5.0, 50.0, 95.0, 100.0, float(rng.uniform(0, 100))):
                assert _percentile(xs, q) == float(np.percentile(xs, q)), (n, q)

    def test_uniform_close_to_one(self):
        u = BandMeasure.uniform(0.0, 1.0)
        est = measure_dimension_estimate(u, 400, 1e-13, 1e-10, seed=0)
        assert abs(est.lower - 1.0) <= 0.05
        assert abs(est.upper - 1.0) <= 0.05

    def test_point_mass_dimension_zero(self):
        m = BandMeasure.point_masses([2.0], [1.0])
        est = measure_dimension_estimate(m, 400, 1e-8, 1e-3, seed=0)
        assert (est.lower, est.upper) == (0.0, 0.0)

    def test_ternary_stage_matches_similarity_dimension(self):
        m = ternary_measure(12)
        est = measure_dimension_estimate(m, 400, 3.0**-10, 3.0**-2, seed=0)
        assert abs(est.midpoint - LOG2_OVER_LOG3) <= 0.05
        assert 0.0 < est.lower <= est.upper < 1.0

    def test_deterministic_in_seed(self):
        m = ternary_measure(10)
        a = measure_dimension_estimate(m, 200, 1e-6, 1e-2, seed=7)
        b = measure_dimension_estimate(m, 200, 1e-6, 1e-2, seed=7)
        assert (a.lower, a.upper, a.sample_count) == (b.lower, b.upper, b.sample_count)
        c = measure_dimension_estimate(m, 200, 1e-6, 1e-2, seed=8)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_validation(self):
        u = BandMeasure.uniform(0, 1)
        with pytest.raises(ValueError):
            measure_dimension_estimate(u, 99, 1e-6, 1e-2, seed=0)
        with pytest.raises(ValueError):
            measure_dimension_estimate(u, 200, 1e-2, 1e-6, seed=0)


class TestDimensionEstimate:
    def test_midpoint(self):
        est = DimensionEstimate(0.4, 0.6, 100)
        assert est.midpoint == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            DimensionEstimate(0.7, 0.6, 100)
        with pytest.raises(ValueError):
            DimensionEstimate(-0.1, 0.5, 100)
        with pytest.raises(ValueError):
            DimensionEstimate(0.5, 1.1, 100)
        with pytest.raises(ValueError):
            DimensionEstimate(0.2, 0.4, 0)


class TestSingularityVerdict:
    def test_rule(self):
        def est(u):
            return DimensionEstimate(u, u, 100)

        assert singularity_verdict(est(0.3), est(0.4)) == "Singular"
        assert singularity_verdict(est(0.6), est(0.6)) == "Inconclusive"
        # boundary: 0.5 + 0.45 = 0.95 is not strictly below 1 - 0.05
        assert singularity_verdict(est(0.5), est(0.45)) == "Inconclusive"
        assert singularity_verdict(est(0.45), est(0.5), margin=0.1) == "Inconclusive"
        assert singularity_verdict(est(0.3), est(0.4), margin=0.29) == "Singular"

    def test_monotone_in_upper_bounds(self):
        rng = np.random.default_rng(np.random.Philox(49))
        for _ in range(100):
            u1, u2 = rng.uniform(0, 1, 2)
            s1, s2 = rng.uniform(0, 1, 2) * np.array([u1, u2])
            big = singularity_verdict(
                DimensionEstimate(0.0, u1, 10), DimensionEstimate(0.0, u2, 10)
            )
            small = singularity_verdict(
                DimensionEstimate(0.0, s1, 10), DimensionEstimate(0.0, s2, 10)
            )
            if big == "Singular":
                assert small == "Singular"

    def test_margin_validation(self):
        est = DimensionEstimate(0.2, 0.3, 10)
        with pytest.raises(ValueError):
            singularity_verdict(est, est, margin=-0.01)


class TestConvolutionDimBound:
    # The dimension bound of a convolution is the clamped sum dim_sum_bound.
    def test_values(self):
        assert dim_sum_bound(0.4, 0.3) == 0.7
        assert dim_sum_bound(0.8, 0.8) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            dim_sum_bound(1.2, 0.3)
        with pytest.raises(ValueError):
            dim_sum_bound(0.3, -0.1)


# --------------------------------------------------------------------------
# Lyapunov benchmark
# --------------------------------------------------------------------------


class TestLyapunov:
    def test_increases_with_coupling(self):
        vals = [estimate_lyapunov(lam, band_dos(lam, 12)) for lam in (0.5, 1.0, 2.0)]
        assert vals[0] < vals[1] < vals[2]
        for v in vals:
            assert 0.4 < v < 1.0

    def test_deterministic_in_seed(self):
        m = band_dos(1.0, 12)
        assert estimate_lyapunov(1.0, m, seed=3) == estimate_lyapunov(1.0, m, seed=3)

    def test_fails_when_all_orbits_escape(self):
        far = BandMeasure.point_masses([50.0], [1.0])
        with pytest.raises(EstimationFailedError):
            estimate_lyapunov(1.0, far)

    def test_validation(self):
        m = BandMeasure.uniform(-2, 2)
        with pytest.raises(ValueError):
            estimate_lyapunov(0.0, m)
        with pytest.raises(ValueError):
            estimate_lyapunov(1.0, m, n_steps=31)
        with pytest.raises(ValueError):
            estimate_lyapunov(1.0, m, n_energies=9)


class TestDimensionViaLyapunov:
    def test_ratio(self):
        assert dimension_via_lyapunov(0.48, 0.96) == 0.5

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            assert dimension_via_lyapunov(1.2, 0.6) == 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            dimension_via_lyapunov(0.0, 1.0)
        with pytest.raises(ValueError):
            dimension_via_lyapunov(0.5, 0.0)
