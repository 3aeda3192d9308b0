"""Half-trace recursion, band covers, the Fibonacci chain, and caching.

Oracles used here, all independent of the implementation:
 * the three-term trace map applied to the natural initial point, whose
   first coordinate reproduces the half-trace sequence step for step;
 * the zero-coupling closed form a_k(2 cos t) = cos(F_k t) with F_k the
   degree sequence, which pins every band set at coupling zero to [-2, 2];
 * leading-term growth a_k(E) ~ E**deg / 2 for large E;
 * the recursion written out without saturation, wherever it stays finite;
 * the substitution word 0 -> 01, 1 -> 0 for the on-site potential;
 * dense symmetric eigensolving (numpy eigvalsh) for the finite-chain
   eigenvalue counts.
"""

import json
import os
import warnings

import numpy as np
import pytest

from cantor_spectra import (
    ALPHA,
    BandSet,
    BudgetExceededError,
    EDGE_VALUE_TOL,
    Interval,
    IntervalSet,
    band_dos,
    band_set,
    default_energy_window,
    fibonacci_potential,
    finite_chain_dos,
    half_trace,
    half_trace_degree,
    initial_point,
    normalize,
    spectrum_approximant,
    sum_spectrum,
    trace_step,
)

# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def fibonacci_number(k: int) -> int:
    """F_{-1} = 0, F_0 = 1, F_1 = 1, F_2 = 2, ... via plain addition."""
    prev, cur = 0, 1
    for _ in range(k + 1):
        prev, cur = cur, cur + prev
    return prev


def plain_half_trace(e: np.ndarray, coupling: float, k: int) -> np.ndarray:
    """The half-trace recursion written out without saturation."""
    a_prev2, a_prev1, a = np.ones_like(e), e / 2.0, (e - coupling) / 2.0
    if k == -1:
        return a_prev2
    if k == 0:
        return a_prev1
    for _ in range(k - 1):
        a, a_prev1, a_prev2 = 2.0 * a * a_prev1 - a_prev2, a, a_prev1
    return a


def substitution_word(n: int) -> str:
    """Prefix of the fixed point of 0 -> 01, 1 -> 0 starting from '0'."""
    word = "0"
    while len(word) < n:
        word = "".join("01" if c == "0" else "0" for c in word)
    return word[:n]


def chain_matrix(coupling: float, n_sites: int) -> np.ndarray:
    v = fibonacci_potential(n_sites, coupling)
    m = np.diag(v)
    off = np.ones(n_sites - 1)
    return m + np.diag(off, 1) + np.diag(off, -1)


# --------------------------------------------------------------------------
# Half-trace recursion
# --------------------------------------------------------------------------


class TestHalfTraceDegree:
    def test_fibonacci_sequence(self):
        got = [half_trace_degree(k) for k in range(-1, 10)]
        assert got == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for k in range(-1, 15):
            assert half_trace_degree(k) == fibonacci_number(k)

    def test_domain(self):
        with pytest.raises(ValueError):
            half_trace_degree(-2)


class TestHalfTrace:
    def test_base_cases(self):
        assert half_trace(1.6, 0.7, -1) == 1.0
        assert half_trace(1.6, 0.7, 0) == 0.8
        assert half_trace(1.6, 0.7, 1) == (1.6 - 0.7) / 2.0

    def test_matches_trace_map_orbit_exactly(self):
        # After n steps of the trace map the first coordinate is a_{n+1};
        # both code paths perform the identical float operations, so the
        # agreement must be bitwise.
        rng = np.random.default_rng(np.random.Philox(31))
        for _ in range(25):
            energy = float(rng.uniform(-4, 4))
            coupling = float(rng.uniform(0, 3))
            p = initial_point(energy, coupling)
            for n in range(12):
                assert p.x == half_trace(energy, coupling, n + 1)
                p = trace_step(p)

    def test_zero_coupling_closed_form(self):
        thetas = np.linspace(0.1, 3.0, 40)
        energies = 2.0 * np.cos(thetas)
        for k in range(-1, 11):
            got = half_trace(energies, 0.0, k)
            want = np.cos(fibonacci_number(k) * thetas)
            assert np.allclose(got, want, rtol=0, atol=1e-7)

    def test_leading_term_growth(self):
        # Every half-trace is monic-over-two: a_k(E) = E**deg / 2 + lower.
        for k in range(2, 5):
            deg = half_trace_degree(k)
            val = half_trace(1e3, 1.0, k)
            assert abs(val / (1e3**deg / 2.0) - 1.0) <= 0.01

    def test_array_scalar_parity(self):
        es = np.array([-1.5, 0.0, 2.5])
        arr = half_trace(es, 0.8, 7)
        for e, v in zip(es, arr):
            assert half_trace(float(e), 0.8, 7) == v

    def test_domain(self):
        with pytest.raises(ValueError):
            half_trace(0.0, -0.1, 3)
        with pytest.raises(ValueError):
            half_trace(0.0, 1.0, 41)
        with pytest.raises(ValueError):
            half_trace(0.0, 1.0, -2)

    def test_clamped_variant_matches_when_in_range(self):
        # Saturation leaves every value the plain recursion can represent
        # untouched.
        grid = np.linspace(-3.0, 3.0, 101)
        for k in (-1, 0, 1, 5, 10):
            assert np.array_equal(half_trace(grid, 1.0, k), plain_half_trace(grid, 1.0, k))

    def test_clamped_variant_saturates(self):
        # The plain recursion overflows here; the saturated one stops at
        # the largest float.
        out = half_trace(np.array([50.0]), 0.0, 20)
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out) == np.finfo(float).max)

    def test_gap_grid_raises_no_warning(self):
        # Inside the gaps at coupling 8, level 15, the unsaturated
        # recursion overflows on a grid across the default energy window.
        window = default_energy_window(8.0)
        grid = np.linspace(window.lo, window.hi, 20001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = half_trace(grid, 8.0, 15)
        assert np.all(np.isfinite(out))


# --------------------------------------------------------------------------
# Band sets
# --------------------------------------------------------------------------


class TestBandSet:
    def test_count_cannot_exceed_degree(self):
        three = IntervalSet([Interval(0, 1), Interval(2, 3), Interval(4, 5)])
        with pytest.raises(ValueError):
            BandSet(1.0, 2, three)  # level 2 admits at most 2 bands

    def test_zero_coupling_single_band(self):
        # cos(F_k t) has modulus <= 1 on all of [-2, 2] and grows outside,
        # so the band set must be a single interval hugging [-2, 2].
        for level in (4, 9):
            bs = band_set(0.0, level, resolution=1e-3)
            assert len(bs.bands) == 1
            lo, hi = bs.bands.los[0], bs.bands.his[0]
            assert -2.0 - 1e-12 <= lo <= -2.0 + 1e-5
            assert 2.0 - 1e-5 <= hi <= 2.0 + 1e-12

    def test_band_count_reaches_degree_at_strong_coupling(self):
        bs = band_set(2.0, 8, resolution=1e-3)
        assert len(bs.bands) == half_trace_degree(8) == 34

    def test_band_edges_satisfy_membership(self):
        bs = band_set(1.0, 8, resolution=1e-3)
        for edge in np.concatenate([bs.bands.los, bs.bands.his]):
            val = abs(half_trace(float(edge), 1.0, 8))
            assert val <= 1.0 + 1e-12  # edges are inside points
            assert val >= 1.0 - 2.0 * EDGE_VALUE_TOL  # and sit at the crossing

    def test_bands_within_window(self):
        window = default_energy_window(1.0)
        bs = band_set(1.0, 7, resolution=1e-3)
        assert bs.bands.los[0] >= window.lo
        assert bs.bands.his[-1] <= window.hi

    def test_validation(self):
        with pytest.raises(ValueError):
            band_set(-0.1, 5)
        with pytest.raises(ValueError):
            band_set(1.0, 41)
        with pytest.raises(ValueError):
            band_set(1.0, 5, resolution=0.0)
        with pytest.raises(BudgetExceededError):
            band_set(1.0, 5, resolution=1e-8)

    def test_default_window(self):
        w = default_energy_window(1.5)
        assert (w.lo, w.hi) == (-4.5, 4.5)


class TestSpectrumApproximant:
    def test_union_of_adjacent_levels(self, tmp_path):
        cache = str(tmp_path)
        cover = spectrum_approximant(1.0, 6, resolution=1e-3, cache_dir=cache)
        b6 = band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        b7 = band_set(1.0, 7, resolution=1e-3, cache_dir=cache)
        manual = normalize(
            list(zip(b6.bands.los, b6.bands.his))
            + list(zip(b7.bands.los, b7.bands.his))
        )
        assert cover == manual

    def test_covers_shrink_with_level(self, tmp_path):
        cache = str(tmp_path)
        covers = [
            spectrum_approximant(1.0, lv, resolution=1e-3, cache_dir=cache)
            for lv in (6, 8, 10)
        ]
        slack = 1e-9
        for outer, inner in zip(covers, covers[1:]):
            inflated = IntervalSet(
                [Interval(lo - slack, hi + slack) for lo, hi in zip(outer.los, outer.his)]
            )
            assert inflated.contains_set(inner)
            assert outer.measure() + 1e-9 >= inner.measure()

    def test_free_sum_is_full_interval(self, tmp_path):
        s = sum_spectrum(0.0, 0.0, 8, resolution=1e-3, cache_dir=str(tmp_path))
        assert len(s) == 1
        assert abs(s.measure() - 8.0) <= 1e-4
        hull = s.hull()
        assert abs(hull.lo + 4.0) <= 1e-4 and abs(hull.hi - 4.0) <= 1e-4


# --------------------------------------------------------------------------
# Fibonacci chain: potential and density of states
# --------------------------------------------------------------------------


class TestFibonacciPotential:
    def test_matches_substitution_word(self):
        n = 6765  # a Fibonacci number of sites
        v = fibonacci_potential(n, 1.0)
        word = substitution_word(n)
        for i in range(n):
            assert (v[i] == 1.0) == (word[i] == "0")

    def test_letter_frequency(self):
        v = fibonacci_potential(10000, 1.0)
        assert abs(np.mean(v) - ALPHA) <= 1e-3

    def test_values_and_domain(self):
        v = fibonacci_potential(50, 1.7)
        assert set(np.unique(v)) <= {0.0, 1.7}
        with pytest.raises(ValueError):
            fibonacci_potential(0, 1.0)


class TestFiniteChainDos:
    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(np.random.Philox(32))
        for coupling, n in ((0.0, 60), (1.3, 120)):
            eigs = np.linalg.eigvalsh(chain_matrix(coupling, n))
            grid = rng.uniform(-3.5, 3.5, 41)
            got = finite_chain_dos(coupling, n, grid)
            for e, cdf in got:
                want = float(np.count_nonzero(eigs < e)) / n
                assert cdf == want

    def test_cdf_limits(self):
        out = finite_chain_dos(1.0, 100, [-10.0, 10.0])
        assert out[0][1] == 0.0
        assert out[1][1] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            finite_chain_dos(-1.0, 10, [0.0])
        with pytest.raises(ValueError):
            finite_chain_dos(1.0, 10, [])
        with pytest.raises(ValueError):
            finite_chain_dos(1.0, 10, [np.nan])


class TestBandDos:
    def test_equal_weights(self, tmp_path):
        m = band_dos(2.0, 8, resolution=1e-3, cache_dir=str(tmp_path))
        assert len(m.weights) == 34
        assert np.allclose(m.weights, 1.0 / 34.0, rtol=0, atol=1e-15)
        assert abs(m.total_weight() - 1.0) <= 1e-12

    def test_error_when_no_bands_found(self, tmp_path):
        # At this coupling every level-12 band is narrower than the grid
        # step, so the scan finds nothing and must say so.
        with pytest.raises(ValueError, match="no bands"):
            band_dos(7.19, 12, resolution=1e-3, cache_dir=str(tmp_path))


# --------------------------------------------------------------------------
# Caching
# --------------------------------------------------------------------------


class TestBandCache:
    def test_cold_call_writes_one_file(self, tmp_path):
        cache = str(tmp_path)
        band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        files = os.listdir(cache)
        assert len(files) == 1
        payload = json.loads((tmp_path / files[0]).read_text())
        assert payload["schema_version"] == 1
        assert payload["coupling"] == 1.0
        assert payload["level"] == 6

    def test_warm_call_identical(self, tmp_path):
        cache = str(tmp_path)
        cold = band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        warm = band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        assert np.array_equal(cold.bands.los, warm.bands.los)
        assert np.array_equal(cold.bands.his, warm.bands.his)

    def test_corrupt_cache_recomputed(self, tmp_path):
        cache = str(tmp_path)
        cold = band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        path = tmp_path / os.listdir(cache)[0]
        path.write_text("not json at all")
        again = band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        assert again.bands == cold.bands
        json.loads(path.read_text())  # the good payload was re-published

    def test_distinct_keys_get_distinct_files(self, tmp_path):
        cache = str(tmp_path)
        band_set(1.0, 6, resolution=1e-3, cache_dir=cache)
        band_set(1.0, 6, resolution=2e-3, cache_dir=cache)
        band_set(1.0, 7, resolution=1e-3, cache_dir=cache)
        assert len(os.listdir(cache)) == 3

    def test_environment_variable_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CANTOR_SPECTRA_CACHE", str(tmp_path))
        band_set(0.5, 6, resolution=1e-3)
        assert len(os.listdir(tmp_path)) == 1

    def test_empty_result_cached(self, tmp_path):
        cache = str(tmp_path)
        bs = band_set(7.19, 12, resolution=1e-3, cache_dir=cache)
        assert bs.bands.is_empty
        assert len(os.listdir(cache)) == 1
        warm = band_set(7.19, 12, resolution=1e-3, cache_dir=cache)
        assert warm.bands.is_empty
