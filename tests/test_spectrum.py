"""Half-trace recursion, the band engine, band covers, and the Fibonacci chain.

Oracles used here, all independent of the implementation:
 * the three-term trace map applied to the natural initial point, whose
   first coordinate reproduces the half-trace sequence step for step;
 * the zero-coupling closed form a_k(2 cos t) = cos(F_k t) with F_k the
   degree sequence, which pins every band set at coupling zero to [-2, 2];
 * leading-term growth a_k(E) ~ E**deg / 2 for large E;
 * the recursion written out without saturation, wherever it stays finite;
 * the substitution word 0 -> 01, 1 -> 0 for the on-site potential;
 * dense symmetric eigensolving (numpy eigvalsh) for the finite-chain
   eigenvalue counts, and for the band edges of each periodic approximant:
   the eigenvalues of its periodic and antiperiodic F_k x F_k matrices;
 * Suto's nesting sigma_{k} inside sigma_{k-1} united with sigma_{k-2}.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from cantor_spectra import (
    ALPHA,
    BandSet,
    BudgetExceededError,
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
    lambda_range,
    normalize,
    spectrum_approximant,
    sum_spectrum,
    trace_step,
)
from cantor_spectra.spectrum import _STURM_ROWS, _band_edges, _band_sets, _bisect

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


def approximant_word(k: int) -> str:
    """Period word w_k of a_k: w_0 = '0', w_1 = '1', w_{k+1} = w_k w_{k-1}."""
    words = ["0", "1"]
    for _ in range(k - 1):
        words.append(words[-1] + words[-2])
    return words[k]


def dense_band_edges(coupling: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Band edges of sigma_k by dense eigensolving.

    The edges of the period-F_k operator are the eigenvalues of its
    periodic and antiperiodic F_k x F_k matrices (diagonal: the word w_k
    with letter 1 carrying the coupling; unit hopping; corner entries +-1).
    """
    v = np.array([coupling if c == "1" else 0.0 for c in approximant_word(k)])
    q = v.size
    eigs = []
    for corner in (1.0, -1.0):
        h = np.diag(v) + np.diag(np.ones(q - 1), 1) + np.diag(np.ones(q - 1), -1)
        h[0, q - 1] += corner
        h[q - 1, 0] += corner
        eigs.append(np.linalg.eigvalsh(h))
    edges = np.sort(np.concatenate(eigs))
    return edges[0::2], edges[1::2]


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
            bs = band_set(0.0, level)
            assert len(bs.bands) == 1
            lo, hi = bs.bands.los[0], bs.bands.his[0]
            assert -2.0 - 1e-12 <= lo <= -2.0 + 1e-5
            assert 2.0 - 1e-5 <= hi <= 2.0 + 1e-12

    def test_band_count_reaches_degree_at_strong_coupling(self):
        bs = band_set(2.0, 8)
        assert len(bs.bands) == half_trace_degree(8) == 34

    def test_band_edges_satisfy_membership(self):
        bs = band_set(1.0, 8)
        for edge in np.concatenate([bs.bands.los, bs.bands.his]):
            val = abs(half_trace(float(edge), 1.0, 8))
            assert val <= 1.0  # edges are inside points
            assert val >= 1.0 - 1e-9  # and sit at the crossing

    def test_bands_within_window(self):
        window = default_energy_window(1.0)
        bs = band_set(1.0, 7)
        assert bs.bands.los[0] >= window.lo
        assert bs.bands.his[-1] <= window.hi

    def test_validation(self):
        with pytest.raises(ValueError):
            band_set(-0.1, 5)
        with pytest.raises(ValueError):
            band_set(1.0, 41)
        with pytest.raises(ValueError):
            band_set(1.0, -1)
        with pytest.raises(BudgetExceededError):
            band_set(1.0, 30)  # 1 346 269 bands

    def test_default_window(self):
        w = default_energy_window(1.5)
        assert (w.lo, w.hi) == (-4.5, 4.5)


class TestBandEngine:
    """The band engine against dense eigensolving and Suto's nesting."""

    COUPLINGS = tuple(
        np.random.default_rng(np.random.Philox(33)).uniform(0.1, 8.3, 16)
    ) + (0.01, 7.342, 8.0, 8.3)
    LEVELS = tuple(range(2, 14))

    def test_matches_dense_eigenvalues(self):
        batched = _band_edges(self.COUPLINGS, self.LEVELS)
        for k, (los, his) in zip(self.LEVELS, batched):
            assert los.shape == his.shape == (len(self.COUPLINGS), half_trace_degree(k))
            for i, lam in enumerate(self.COUPLINGS):
                want_lo, want_hi = dense_band_edges(lam, k)
                assert np.max(np.abs(los[i] - want_lo)) <= 1e-9, (lam, k)
                assert np.max(np.abs(his[i] - want_hi)) <= 1e-9, (lam, k)

    def test_edges_are_inside_points_and_bands_disjoint(self):
        batched = _band_edges(self.COUPLINGS, self.LEVELS)
        for k, (los, his) in zip(self.LEVELS, batched):
            for i, lam in enumerate(self.COUPLINGS):
                assert np.all(np.abs(half_trace(los[i], lam, k)) <= 1.0), (lam, k)
                assert np.all(np.abs(half_trace(his[i], lam, k)) <= 1.0), (lam, k)
                assert np.all(los[i] <= his[i]) and np.all(his[i][:-1] < los[i][1:])

    def test_band_set_counts_every_band(self):
        for lam in self.COUPLINGS:
            for k in (2, 7, 13):
                assert len(band_set(lam, k).bands) == half_trace_degree(k), (lam, k)

    def test_batched_row_equals_single_coupling(self):
        batched = _band_edges(self.COUPLINGS, (12, 13))
        for i, lam in enumerate(self.COUPLINGS):
            single = _band_edges([lam], (12, 13))
            for (los, his), (one_lo, one_hi) in zip(batched, single):
                assert np.array_equal(los[i], one_lo[0]) and np.array_equal(his[i], one_hi[0])

    def test_zero_coupling_is_one_band(self):
        for k in (0, 1, 5, 13):
            bs = band_set(0.0, k)
            assert (list(bs.bands.los), list(bs.bands.his)) == ([-2.0], [2.0])

    def test_deep_levels_count_and_nest(self):
        # Beyond dense reach: F_k disjoint inside-point bands, each inside
        # a band of sigma_{k-1} or sigma_{k-2}.
        couplings = (0.5, 8.0)
        levels = (14, 15, 16, 17, 18)
        by_level = dict(zip(levels, _band_edges(couplings, levels)))
        for k in (16, 17, 18):
            los, his = by_level[k]
            for i, lam in enumerate(couplings):
                assert los[i].size == half_trace_degree(k)
                assert np.all(his[i][:-1] < los[i][1:])
                assert np.all(np.abs(half_trace(los[i], lam, k)) <= 1.0)
                assert np.all(np.abs(half_trace(his[i], lam, k)) <= 1.0)
                pairs = []
                for j in (k - 1, k - 2):
                    pairs += zip(by_level[j][0][i], by_level[j][1][i])
                below = normalize(pairs)
                for lo, hi in zip(los[i], his[i]):
                    assert below.contains_set(IntervalSet([(lo, hi)])), (lam, k, lo, hi)


def ref_traces(e, lam, level):
    """Traces x_level with fresh arrays and every array clipped on its own."""
    if level == 0:
        return e.copy()
    x_prev1 = e - lam
    if level == 1:
        return x_prev1
    x_prev2 = e.copy()
    x = x_prev1 * e
    x -= 2.0
    spare = np.empty_like(x)
    for step in range(2, level):
        np.multiply(x, x_prev1, out=spare)
        np.subtract(spare, x_prev2, out=spare)
        x_prev2, x_prev1, x, spare = x_prev1, x, spare, x_prev2
        if step % 6 == 0:
            for v in (x_prev2, x_prev1, x):
                np.minimum(v, 2.0**32, out=v)
                np.maximum(v, -(2.0**32), out=v)
    return x


def ref_bisect(keep, other, holds):
    """All 56 halvings of every bracket, settled or not."""
    keep = keep.copy()
    step = other - keep
    for _ in range(56):
        step *= 0.5
        mid = keep + step
        np.copyto(keep, mid, where=holds(mid))
    return keep


def ref_gap_points(zeros, lam, level):
    a = zeros[:, :-1].ravel()
    b = zeros[:, 1:].ravel()
    lam = np.broadcast_to(lam, zeros[:, 1:].shape).ravel()
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc = np.abs(ref_traces(c, lam, level))
    fd = np.abs(ref_traces(d, lam, level))
    found = np.where(fc > fd, c, d)
    todo = np.flatnonzero(np.maximum(fc, fd) <= 2.0)
    a, b, c, d, fc, fd, lam = (v[todo] for v in (a, b, c, d, fc, fd, lam))
    for _ in range(80):
        if todo.size == 0:
            break
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - golden * (b - a), a + golden * (b - a))
        fx = np.abs(ref_traces(x, lam, level))
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        hit = fx > 2.0
        found[todo[hit]] = x[hit]
        rest = ~hit
        todo, a, b, c, d, fc, fd, lam = (v[rest] for v in (todo, a, b, c, d, fc, fd, lam))
    return found.reshape(zeros.shape[0], -1)


def ref_band_edges(couplings, levels):
    """The band engine with closure predicates and no settled brackets."""
    lam = np.asarray(couplings, dtype=float).reshape(-1, 1)
    left_end, right_end = -(3.0 + lam), 3.0 + lam
    zeros = (np.zeros_like(lam), lam)
    gaps = (lam[:, :0], lam[:, :0])
    edges = {0: (np.full_like(lam, -2.0), np.full_like(lam, 2.0)), 1: (lam - 2.0, lam + 2.0)}
    for j in range(2, max(levels) + 1):
        inner = np.sort(np.concatenate((zeros[1], gaps[0]), axis=1), axis=1)
        sep = np.concatenate((left_end, inner, right_end), axis=1)
        count = sep.shape[1] - 1
        sign = np.where((count - np.arange(count)) % 2 == 0, 1.0, -1.0)
        z = ref_bisect(sep[:, :-1], sep[:, 1:], lambda e: ref_traces(e, lam, j) * sign > 0.0)
        g = ref_gap_points(z, lam, j)
        zeros, gaps = (zeros[1], z), (gaps[1], g)
        if j in levels:
            outside = np.concatenate((left_end, g, g, right_end), axis=1)
            inside = ref_bisect(
                np.concatenate((z, z), axis=1),
                outside,
                lambda e: np.abs(ref_traces(e, lam, j)) <= 2.0,
            )
            edges[j] = (inside[:, :count], inside[:, count:])
    return [edges[k] for k in levels]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBandEngineBitwise:
    """Dropping settled brackets and reusing buffers leaves every edge's bits as they were."""

    AXIS = lambda_range(0.1, 8.0, 40)

    def assert_same_edges(self, couplings, levels):
        got = _band_edges(couplings, levels)
        want = ref_band_edges(couplings, levels)
        for k, (lo, hi), (ref_lo, ref_hi) in zip(levels, got, want):
            assert same_bits(lo, ref_lo) and same_bits(hi, ref_hi), (couplings, k)

    def test_sweep_slices_and_full_axis(self):
        for j in range(10):
            self.assert_same_edges(self.AXIS[j::10], (12, 13))
        self.assert_same_edges(self.AXIS, (12, 13))

    def test_single_coupling_deep_and_shallow(self):
        for levels in ((15, 16), (16, 17), (17, 18), (12,), (9,)):
            self.assert_same_edges((7.96515745804389,), levels)

    def test_mixed_levels_and_extreme_couplings(self):
        self.assert_same_edges((0.3, 2.5, 7.9), (10, 11, 14))
        self.assert_same_edges((1e-6, 0.01, 8.3, 19.0), (12, 13))

    def test_direct_brackets(self):
        # Straddling 1.0, empty (keep == other, both -0.0 or 0.5), and
        # 1e-300 wide, whose steps turn subnormal; alone and together.
        keep = np.array([[0.75, -0.0, 0.5, 3e-300]])
        other = np.array([[1.25, -0.0, 0.5, 2e-300]])
        lam = np.array([[1.0]])
        for level in (2, 5, 9):
            x = lambda e: ref_traces(e, lam, level)
            for sign in (1.0, -1.0):
                want = ref_bisect(keep, other, lambda e: x(e) * sign > 0.0)
                assert same_bits(_bisect(keep, other, lam, level, sign), want), (level, sign)
            want = ref_bisect(keep, other, lambda e: np.abs(x(e)) <= 2.0)
            assert same_bits(_bisect(keep, other, lam, level), want), level
            for i in range(keep.shape[1]):
                one_keep, one_other = keep[:, i : i + 1], other[:, i : i + 1]
                want = ref_bisect(one_keep, one_other, lambda e: np.abs(x(e)) <= 2.0)
                assert same_bits(_bisect(one_keep, one_other, lam, level), want), (level, i)
        # At level 2 and coupling 1, |x(0)| = 2: the -0.0 bracket moves to +0.0.
        assert same_bits(_bisect(keep[:, 1:2], other[:, 1:2], lam, 2), [[0.0]])


class TestUnresolvedCouplings:
    def test_rejects_coupling_beyond_float_resolution(self):
        # At level 12 and coupling 1000 most of the 233 bands have no width.
        with pytest.raises(ValueError, match=r"1000.*12"):
            band_set(1000.0, 12)

    def test_in_domain_couplings_pass(self):
        cases = ((lambda_range(0.1, 8.0, 40), 13), ((0.1, 8.3), 18), ((1e-6, 0.01), 13))
        for couplings, k in cases:
            for (bs,) in _band_sets(couplings, (k,)):
                assert len(bs.bands) == half_trace_degree(k), (bs.coupling, k)
                assert np.all(bs.bands.his > bs.bands.los), (bs.coupling, k)


class TestSpectrumApproximant:
    def test_union_of_adjacent_levels(self):
        cover = spectrum_approximant(1.0, 6)
        b6 = band_set(1.0, 6)
        b7 = band_set(1.0, 7)
        manual = normalize(
            list(zip(b6.bands.los, b6.bands.his))
            + list(zip(b7.bands.los, b7.bands.his))
        )
        assert cover == manual

    def test_covers_shrink_with_level(self):
        covers = [spectrum_approximant(1.0, lv) for lv in (6, 8, 10)]
        slack = 1e-9
        for outer, inner in zip(covers, covers[1:]):
            inflated = IntervalSet(
                [Interval(lo - slack, hi + slack) for lo, hi in zip(outer.los, outer.his)]
            )
            assert inflated.contains_set(inner)
            assert outer.measure() + 1e-9 >= inner.measure()

    def test_free_sum_is_full_interval(self):
        s = sum_spectrum(0.0, 0.0, 8)
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


def per_site_sturm_counts(coupling, n_sites, grid):
    """Sturm counts by the plain per-site recurrence, and its zero pivots.

    d_0 = v_0 - E, d_i = (v_i - E) - 1 / d_{i-1}, an exact zero replaced by
    -1e-300; the count is the number of negative pivots.
    """
    grid = np.asarray(grid, dtype=float)
    v = fibonacci_potential(n_sites, coupling)
    counts = np.zeros(grid.shape, dtype=np.int64)
    zero_sites = []
    with np.errstate(divide="ignore", over="ignore"):
        d = v[0] - grid
        for i in range(n_sites):
            if i:
                d = (v[i] - grid) - 1.0 / d
            if not d.all():
                zero_sites.append(i)
            d = np.where(d == 0.0, -1e-300, d)
            counts += d < 0.0
    return counts, zero_sites


class TestFiniteChainDosBlocks:
    """The blocked pivots give the per-site recurrence's results bitwise."""

    @staticmethod
    def assert_matches_per_site(coupling, n_sites, grid):
        got = finite_chain_dos(coupling, n_sites, grid)
        counts, zero_sites = per_site_sturm_counts(coupling, n_sites, grid)
        assert [e for e, _ in got] == [float(e) for e in grid]
        assert np.array_equal(np.rint(np.array([c for _, c in got]) * n_sites), counts)
        assert [c for _, c in got] == [float(c) / n_sites for c in counts]
        return zero_sites

    def test_queries_workload_couplings(self):
        for coupling in (7.96515745804389, 0.4160974039528599,
                         2.9309718441905606, 3.4819054506159413):
            m = band_dos(coupling, 12)
            grid = np.linspace(m.support_lo - 0.5, m.support_hi + 0.5, 2001)
            self.assert_matches_per_site(coupling, 10_000, grid)

    def test_unsorted_seeded_grids(self):
        rng = np.random.default_rng(np.random.Philox(20))
        for coupling in (0.0, 0.3, 1.0, 2.5, 8.0):
            for n_sites in (50, 333):
                self.assert_matches_per_site(coupling, n_sites, rng.uniform(-4.0, 11.0, 301))

    def test_exact_zero_pivots(self):
        # E = lambda zeroes the first pivot (site 1 carries lambda); at
        # lambda = 0, E = 0 zeroes every third pivot, deep inside later blocks.
        zeros = self.assert_matches_per_site(1.0, 100, [1.0, 0.0, -1.0, 2.0, 0.5])
        assert 0 in zeros and max(zeros) > _STURM_ROWS
        zeros = self.assert_matches_per_site(0.0, 100, [0.0, 1.0, -1.0, 2.0])
        assert max(zeros) > 2 * _STURM_ROWS

    def test_chain_lengths_around_the_block(self):
        grid = np.linspace(-3.0, 5.0, 41)
        for n_sites in (1, 2, _STURM_ROWS - 1, _STURM_ROWS, _STURM_ROWS + 1, 3 * _STURM_ROWS + 2):
            for coupling in (0.0, 1.5):
                self.assert_matches_per_site(coupling, n_sites, grid)

    def test_peak_memory_stays_small(self):
        tracemalloc.start()
        try:
            finite_chain_dos(7.965, 10_000, np.linspace(-11.0, 11.0, 2001))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 512 * 1024


class TestBandDos:
    def test_equal_weights(self):
        m = band_dos(2.0, 8)
        assert len(m.weights) == 34
        assert np.allclose(m.weights, 1.0 / 34.0, rtol=0, atol=1e-15)
        assert abs(m.total_weight() - 1.0) <= 1e-12

    def test_every_band_weighted_at_strong_coupling(self):
        # Every level-12 band at this coupling is narrower than 1e-3, which
        # a grid scan at that step misses; the engine finds all of them.
        level = 12
        m = band_dos(7.19, level, 1e-3)
        assert len(m.weights) == half_trace_degree(level) == 233
        for edge in np.concatenate([m.los, m.his]):
            assert abs(half_trace(float(edge), 7.19, level)) <= 1.0
