"""End-to-end acceptance checks, one test per criterion.

Each test is a self-contained numerical experiment with its tolerance and
runtime budget stated inline; the heaviest artifact, the default
coupling-plane sweep, is shared through a session fixture.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from cantor_spectra import (
    DimensionEstimate,
    Interval,
    IntervalSet,
    PMSD,
    REGIMES,
    UNRESOLVED,
    approximant,
    band_dos,
    box_dimension_estimate,
    classify_orbit,
    convolve,
    cdf,
    dos_dimension_estimate,
    fricke_vogt,
    lambda_range,
    measure_dimension_estimate,
    middle_alpha_system,
    minkowski_sum,
    monotonicity_report,
    normalize,
    quantile,
    similarity_dimension,
    singularity_verdict,
    spectrum_approximant,
    sum_spectrum,
    sweep,
    thickness,
    trace_step,
    TracePoint,
    BandMeasure,
    finite_chain_dos,
)
from cantor_spectra.phase_diagram import _BOX_EXPONENTS

LOG2_OVER_LOG3 = float(np.log(2.0) / np.log(3.0))


@pytest.fixture(scope="session")
def default_sweep():
    """The default 40x40 coupling-plane sweep, timed."""
    grid = lambda_range(0.1, 8.0, 40)
    t0 = time.monotonic()
    diagram = sweep(grid, grid)
    return diagram, time.monotonic() - t0


def test_criterion_01_invariant_conserved_along_random_orbits():
    # 1e4 random points with |coords| <= 2 projected onto an invariant
    # surface with coupling in [0, 2]; after up to 100 steps the relative
    # drift of the conserved quantity stays below 1e-9 while the orbit
    # norm stays below 1e3.  Budget: 5 s.
    t0 = time.monotonic()
    rng = np.random.default_rng(np.random.Philox(11))
    xs, ys, zs, lams = [], [], [], []
    need = 10_000
    while sum(len(a) for a in xs) < need:
        x = rng.uniform(-2, 2, 20_000)
        y = rng.uniform(-2, 2, 20_000)
        lam = rng.uniform(0, 2, 20_000)
        disc = (x * x - 1.0) * (y * y - 1.0) + lam * lam / 4.0
        ok = disc >= 0.0
        x, y, lam, disc = x[ok], y[ok], lam[ok], disc[ok]
        z = x * y - np.sqrt(disc)  # root of the surface equation in z
        keep = np.abs(z) <= 2.0
        xs.append(x[keep])
        ys.append(y[keep])
        zs.append(z[keep])
        lams.append(lam[keep])
    x = np.concatenate(xs)[:need]
    y = np.concatenate(ys)[:need]
    z = np.concatenate(zs)[:need]

    def g(x, y, z):
        return x * x + y * y + z * z - 2.0 * x * y * z - 1.0

    g0 = g(x, y, z)
    worst = 0.0
    alive = np.ones(need, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # escaped orbits blow up
        for _ in range(100):
            x, y, z = 2.0 * x * y - z, x, y
            norm = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
            alive &= norm <= 1e3
            if not np.any(alive):
                break
            rel = np.abs(g(x, y, z) - g0) / np.maximum(1.0, np.abs(g0))
            worst = max(worst, float(np.max(rel[alive])))
    assert worst <= 1e-9
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_exact_period_six_orbit():
    # The orbit of (0, 0, 1) returns to itself in exactly 6 steps with
    # every coordinate in {-1, 0, 1} along the way, exactly in floats.
    p = TracePoint(0.0, 0.0, 1.0)
    seen = []
    for _ in range(6):
        p = trace_step(p)
        seen.append((p.x, p.y, p.z))
        assert {p.x, p.y, p.z} <= {-1.0, 0.0, 1.0}
        assert fricke_vogt(p) == 0.0
    assert seen[-1] == (0.0, 0.0, 1.0)
    assert len(set(seen)) == 6  # no earlier return


def test_criterion_03_free_coupling_recovers_full_band():
    # At coupling zero the level-12 cover must be [-2, 2] up to 1% in
    # measure and 0.01 in Hausdorff distance, and the sum of two free
    # covers must have measure 8 up to 2%.  Budget: 30 s.
    t0 = time.monotonic()
    cover = spectrum_approximant(0.0, 12)
    assert abs(cover.measure() - 4.0) <= 0.04
    hull = cover.hull()
    assert hull.lo >= -2.0 - 1e-9 and hull.hi <= 2.0 + 1e-9
    gaps = cover.gaps()
    max_gap = float(np.max(gaps.his - gaps.los)) if len(gaps) else 0.0
    hausdorff = max(hull.lo - (-2.0), 2.0 - hull.hi, max_gap / 2.0)
    assert hausdorff <= 0.01
    s = sum_spectrum(0.0, 0.0, 12)
    assert abs(s.measure() - 8.0) <= 0.16
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_ternary_construction_suite():
    # Similarity dimension log2/log3 to 1e-12, generic-scale box estimate
    # within 0.03, thickness 1, and the depth-10 self-sum filling [0, 2],
    # decided in exact integer arithmetic.  Budget: 10 s.
    t0 = time.monotonic()
    system = middle_alpha_system(1.0 / 3.0)

    assert abs(similarity_dimension(system) - LOG2_OVER_LOG3) <= 1e-12

    deep = approximant(system, 12)
    dim, _ = box_dimension_estimate(deep, list(np.geomspace(1 / 8, 1 / 2048, 16)))
    assert abs(dim - LOG2_OVER_LOG3) <= 0.03

    assert abs(thickness(system, 8) - 1.0) <= 1e-9

    # Exact oracle: depth-10 endpoints are n / 3^10 with the numerators
    # generated by n -> (3n, 3n + 2); each sum interval covers two grid
    # units, so the union is [0, 2] exactly when consecutive distinct
    # pairwise sums never differ by more than 2 units.
    nums = np.array([0], dtype=np.int64)
    for _ in range(10):
        nums = np.concatenate([3 * nums, 3 * nums + 2])
    sums = np.unique(nums[:, None] + nums[None, :])
    assert sums[0] == 0
    assert sums[-1] == 2 * (3**10 - 1)
    assert int(np.max(np.diff(sums))) <= 2

    # The float path must agree up to roundoff dust: full measure, exact
    # hull, and no gap wider than accumulated rounding error.
    ten = approximant(system, 10)
    float_sum = minkowski_sum(ten, ten)
    assert float_sum.hull() == Interval(0.0, 2.0)
    assert abs(float_sum.measure() - 2.0) <= 1e-9
    gaps = float_sum.gaps()
    if len(gaps):
        assert float(np.max(gaps.his - gaps.los)) <= 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_05_sum_set_matches_brute_force_exactly():
    # 100 random pairs of interval sets (up to 64 intervals each): the
    # library sum equals all-pairs summation plus merge, exactly.
    rng = np.random.default_rng(np.random.Philox(12))
    for _ in range(100):
        sets = []
        for _ in range(2):
            n = int(rng.integers(1, 65))
            los = rng.uniform(-5, 5, n)
            his = los + rng.uniform(0, 1, n) * (rng.random(n) < 0.9)
            sets.append(normalize([Interval(lo, hi) for lo, hi in zip(los, his)]))
        a, b = sets
        got = minkowski_sum(a, b)
        pairs = sorted(
            (la + lb, ha + hb)
            for la, ha in zip(a.los, a.his)
            for lb, hb in zip(b.los, b.his)
        )
        merged = []
        for lo, hi in pairs:
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        assert [(iv.lo, iv.hi) for iv in got] == [tuple(p) for p in merged]


def test_criterion_06_cover_membership_agrees_with_orbit_classification():
    # For each coupling in {0.5, 1, 2} the level-15 cover and a budgeted
    # orbit classification must agree on membership for at least 99% of
    # 1e4 uniformly drawn energies.  The orbit budget is matched to the
    # cover depth: max_iter = level + 4, escape threshold 2.5.
    # Budget: 2 min.
    t0 = time.monotonic()
    level = 15
    for coupling in (0.5, 1.0, 2.0):
        cover = spectrum_approximant(coupling, level)
        rng = np.random.default_rng(np.random.Philox(0))
        half_width = 3.0 + coupling
        energies = rng.uniform(-half_width, half_width, 10_000)
        in_cover = cover.contains_points(energies)
        bounded = np.array(
            [
                not classify_orbit(float(e), coupling, max_iter=level + 4, escape_norm=2.5).escaped
                for e in energies
            ]
        )
        disagreement = float(np.mean(in_cover != bounded))
        assert disagreement <= 0.01, f"coupling {coupling}: {disagreement:.2%}"
    assert time.monotonic() - t0 < 120.0


def test_criterion_07_band_dos_tracks_finite_chain_count():
    # The equal-weight band density of states at coupling 1, level 12
    # stays within 0.05 sup-distance of the Sturm-sequence eigenvalue
    # count for a 1e4-site chain.  Budget: 2 min.
    t0 = time.monotonic()
    m = band_dos(1.0, 12)
    grid = np.linspace(-3.5, 3.5, 4001)
    oracle = np.array([c for _, c in finite_chain_dos(1.0, 10_000, grid)])
    sup = float(np.max(np.abs(cdf(m, grid) - oracle)))
    assert sup <= 0.05
    assert time.monotonic() - t0 < 120.0


def test_criterion_08_convolution_properties():
    # Mass conservation to 1e-10; commutativity of the cdf to 1e-10 on a
    # thousand-point grid; exact agreement with brute-force double sums
    # on small atomic inputs; and the self-convolution of the ternary
    # measure respects the dimension-sum bound.
    rng = np.random.default_rng(np.random.Philox(13))

    def random_measure(max_atoms):
        n = int(rng.integers(1, max_atoms + 1))
        los = np.sort(rng.uniform(-2, 2, n))
        lens = rng.uniform(0, 1, n) * np.diff(np.append(los, los[-1] + 1.0))
        ws = rng.uniform(0.1, 1.0, n)
        return BandMeasure(list(zip(los, los + lens, ws / ws.sum())))

    for _ in range(10):
        m1, m2 = random_measure(30), random_measure(30)
        out = convolve(m1, m2)
        assert abs(out.total_weight() - 1.0) <= 1e-10
        swapped = convolve(m2, m1)
        grid = np.linspace(out.support_lo, out.support_hi, 1000)
        assert np.max(np.abs(cdf(out, grid) - cdf(swapped, grid))) <= 1e-10

    # brute-force double sums, exact on point atoms
    pts1 = np.unique(rng.integers(0, 40, 16)).astype(float)
    pts2 = np.unique(rng.integers(0, 40, 16)).astype(float)
    w1 = np.full(pts1.size, 1.0 / pts1.size)
    w2 = np.full(pts2.size, 1.0 / pts2.size)
    out = convolve(BandMeasure.point_masses(pts1, w1), BandMeasure.point_masses(pts2, w2))
    table = {}
    for p, wp in zip(pts1, w1):
        for q, wq in zip(pts2, w2):
            table[p + q] = table.get(p + q, 0.0) + wp * wq
    want = sorted(table.items())
    assert np.array_equal(out.los, [v for v, _ in want])
    assert np.allclose(out.weights, [w for _, w in want], rtol=0, atol=1e-15)

    # dimension of the self-convolution obeys min(1, d + d) plus slack
    ternary = BandMeasure.equal_weights_on(approximant(middle_alpha_system(1 / 3), 8))
    self_sum = convolve(ternary, ternary)
    est = measure_dimension_estimate(self_sum, 400, 3.0**-8, 3.0**-2, seed=0)
    assert est.midpoint <= min(1.0, 2.0 * 0.6309) + 0.05


def test_criterion_09_measure_dimension_sits_below_support_dimension():
    # At coupling 1, level 15: the density-of-states dimension estimate
    # lies strictly below the cover dimension, by more than the seed-to-
    # seed spread over 5 seeds, and both live inside (0, 1).
    level = 15
    cover = spectrum_approximant(1.0, level)
    scales = cover.diameter * 2.0 ** (-_BOX_EXPONENTS.astype(float))
    dim_sigma, _ = box_dimension_estimate(cover, list(scales))
    midpoints = [
        dos_dimension_estimate(1.0, level, 400, seed).midpoint
        for seed in range(5)
    ]
    spread = max(midpoints) - min(midpoints)
    gap = dim_sigma - float(np.mean(midpoints))
    assert 0.0 < dim_sigma < 1.0
    assert all(0.0 < nu < 1.0 for nu in midpoints)
    assert all(nu < dim_sigma for nu in midpoints)
    assert gap > spread, f"gap {gap:.4f} vs spread {spread:.4f}"


def test_criterion_10_default_sweep_shows_all_regimes(default_sweep):
    # The default 40x40 sweep over [0.1, 8]^2: every concrete regime
    # occupied, classification symmetric under swapping the couplings,
    # undecided fraction at most 25%, and the cover dimension strictly
    # decreasing along 0.5, 1, 2, 4.  Budget: 20 min.
    diagram, elapsed = default_sweep
    counts = diagram.regime_counts()
    for regime in REGIMES:
        if regime != UNRESOLVED:
            assert counts[regime] > 0, f"{regime} empty: {counts}"
    n = len(diagram.lambdas1)
    for i in range(n):
        for j in range(i + 1, n):
            assert diagram.cell(i, j).regime == diagram.cell(j, i).regime
    assert diagram.unresolved_fraction() <= 0.25
    report = monotonicity_report((0.5, 1.0, 2.0, 4.0))
    assert report.all_negative, report.flags
    assert elapsed < 1200.0


def test_criterion_11_singular_regime_cell_certificate(default_sweep):
    # At the sweep-identified singular-DOS cell closest to the origin:
    # the sum-spectrum measure is non-increasing through levels 8, 10,
    # 12, 14 while staying above 10% of its first value, and the stored
    # measure-dimension estimates already force the Singular verdict.
    diagram, _ = default_sweep
    pmsd = [c for c in diagram.cells if c.regime == PMSD]
    assert pmsd, "no singular-DOS cells in the default sweep"
    cell = min(pmsd, key=lambda c: (c.lambda1 + c.lambda2, c.lambda1, c.lambda2))

    measures = [
        sum_spectrum(cell.lambda1, cell.lambda2, level).measure()
        for level in (8, 10, 12, 14)
    ]
    for earlier, later in zip(measures, measures[1:]):
        assert later <= earlier + 1e-12
    assert measures[-1] >= 0.1 * measures[0]
    assert measures[-1] > 0.0

    d1 = DimensionEstimate(cell.dim_nu1, cell.dim_nu1, diagram.samples)
    d2 = DimensionEstimate(cell.dim_nu2, cell.dim_nu2, diagram.samples)
    assert singularity_verdict(d1, d2) == "Singular"


def test_criterion_12_cli_byte_identical_cold_and_warm(tmp_path):
    # Identical flags and seeds produce byte-identical CLI output and
    # artifacts on a rerun; --cache, --resolution and --threads are
    # accepted and change nothing.
    cache = tmp_path / "cache"
    out_dir = tmp_path / "out"

    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-c", "from cantor_spectra.cli import main; main()", *args],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout

    spectrum_args = (
        "spectrum", "--lambda", "1.3", "--level", "8", "--resolution", "1e-3",
        "--cache", str(cache),
    )
    cold = cli(*spectrum_args)
    warm = cli(*spectrum_args)
    assert cold == warm

    phase_args = (
        "phase", "--l1", "0.5:1:2", "--l2", "0.5:1:2", "--level", "6",
        "--resolution", "1e-3", "--seed", "0", "--out", str(out_dir),
        "--cache", str(cache), "--threads", "1",
    )
    cold_out = cli(*phase_args)
    cold_files = {
        name: (out_dir / name).read_bytes()
        for name in ("cells.csv", "diagram.pgm", "provenance.json")
    }
    warm_out = cli(*phase_args)
    warm_files = {
        name: (out_dir / name).read_bytes()
        for name in ("cells.csv", "diagram.pgm", "provenance.json")
    }
    assert cold_out == warm_out
    assert cold_files == warm_files
