"""Trace-map iteration, the conserved quantity, and orbit classification.

Oracles: hand-computed values of the conserved quantity at integer points,
the exactly periodic orbit through (0, 0, 1), boundedness of coupling-zero
orbits started inside [-2, 2] (where the map is conjugate to a rotation of
the circle), and the algebraic inverse (y, z, 2yz - x) of the map.
"""

import math

import numpy as np
import pytest

from cantor_spectra import (
    DRIFT_NORM_CAP,
    OrbitResult,
    TracePoint,
    classify_orbit,
    fricke_vogt,
    initial_point,
    surface_residual,
    trace_step,
)


class TestTracePoint:
    def test_max_norm(self):
        assert TracePoint(1.0, -3.0, 2.0).max_norm == 3.0
        assert TracePoint(0.0, 0.0, 0.0).max_norm == 0.0

    def test_rejects_nonfinite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                TracePoint(bad, 0.0, 0.0)
            with pytest.raises(ValueError):
                TracePoint(0.0, 0.0, bad)


class TestTraceStep:
    def test_formula(self):
        p = trace_step(TracePoint(2.0, 3.0, 5.0))
        assert (p.x, p.y, p.z) == (7.0, 2.0, 3.0)

    def test_exact_period_six_orbit(self):
        # (0,0,1) cycles through signed unit vectors and returns in 6 steps.
        want = [
            (0.0, 0.0, 1.0),
            (-1.0, 0.0, 0.0),
            (0.0, -1.0, 0.0),
            (0.0, 0.0, -1.0),
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        ]
        p = TracePoint(*want[0])
        for step_want in want[1:]:
            p = trace_step(p)
            assert (p.x, p.y, p.z) == step_want

    def test_algebraic_inverse(self):
        rng = np.random.default_rng(np.random.Philox(21))
        for _ in range(100):
            x, y, z = rng.uniform(-2, 2, 3)
            p = TracePoint(x, y, z)
            q = trace_step(p)
            back = (q.y, q.z, 2.0 * q.y * q.z - q.x)
            assert np.allclose(back, (x, y, z), rtol=0, atol=1e-12)


class TestFrickeVogt:
    def test_hand_computed_values(self):
        assert fricke_vogt(TracePoint(0, 0, 1)) == 0.0
        assert fricke_vogt(TracePoint(1, 1, 1)) == 0.0
        assert fricke_vogt(TracePoint(2, 0, 0)) == 3.0
        assert fricke_vogt(TracePoint(0, 0, 0)) == -1.0

    def test_conserved_along_orbits(self):
        rng = np.random.default_rng(np.random.Philox(22))
        for _ in range(50):
            energy = rng.uniform(-3, 3)
            coupling = rng.uniform(0, 2)
            p = initial_point(energy, coupling)
            g0 = fricke_vogt(p)
            for _ in range(60):
                p = trace_step(p)
                if p.max_norm > DRIFT_NORM_CAP:
                    break
                assert abs(fricke_vogt(p) - g0) <= 1e-9 * max(1.0, abs(g0))


class TestInitialPoint:
    def test_lies_on_coupling_surface(self):
        rng = np.random.default_rng(np.random.Philox(23))
        for _ in range(200):
            energy = rng.uniform(-10, 10)
            coupling = rng.uniform(0, 8)
            p = initial_point(energy, coupling)
            assert abs(surface_residual(p, coupling)) <= 1e-10

    def test_coordinates(self):
        p = initial_point(3.0, 1.0)
        assert (p.x, p.y, p.z) == (1.0, 1.5, 1.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            initial_point(0.0, -0.5)
        with pytest.raises(ValueError):
            surface_residual(TracePoint(0, 0, 1), -1.0)


def recomputed_orbit(energy, coupling, max_iter, escape_norm):
    """classify_orbit with max(|x|, |y|, |z|) and every finiteness test redone each step."""
    x, y, z = (energy - coupling) / 2.0, energy / 2.0, 1.0
    g0 = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    peak = prev_m = max(abs(x), abs(y), abs(z))
    drift, streak = 0.0, 0
    for n in range(1, max_iter + 1):
        x, y, z = 2.0 * x * y - z, x, y
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            return OrbitResult(True, n, peak, drift)
        m = max(abs(x), abs(y), abs(z))
        peak = max(peak, m)
        if m <= DRIFT_NORM_CAP:
            g = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
            drift = max(drift, abs(g - g0))
        if m > escape_norm and m > prev_m:
            streak += 1
            if streak >= 3:
                return OrbitResult(True, n, peak, drift)
        else:
            streak = 0
        prev_m = m
    return OrbitResult(False, max_iter, peak, drift)


def orbit_fields(r):
    """The fields of an OrbitResult with floats as bit strings, NaN-aware."""
    bits = tuple("nan" if math.isnan(f) else f.hex() for f in (r.max_norm, r.invariant_drift))
    return (r.escaped, r.step) + bits


class TestClassifyOrbit:
    def test_periodic_orbit_is_bounded_with_zero_drift(self):
        r = classify_orbit(0.0, 0.0, max_iter=600)
        assert not r.escaped
        assert r.step == 600
        assert r.max_norm == 1.0
        assert r.invariant_drift == 0.0
        assert r.status == "bounded_up_to"

    def test_zero_coupling_interior_energies_stay_bounded(self):
        # With zero coupling the orbit of any |E| < 2 is conjugate to a
        # circle rotation, so it can never escape.
        for energy in (-1.9, -0.3, 0.7, 1.5):
            r = classify_orbit(energy, 0.0, max_iter=1000)
            assert not r.escaped
            assert r.max_norm <= 1.0 + 1e-12

    def test_zero_coupling_exterior_energies_escape(self):
        for energy in (2.05, 3.0, -2.5):
            r = classify_orbit(energy, 0.0, max_iter=200)
            assert r.escaped
            assert r.status == "escaped"
            assert r.step >= 3  # needs three consecutive growth steps
            assert r.max_norm > 10.0

    def test_large_energy_escapes_fast(self):
        r = classify_orbit(50.0, 1.0, max_iter=200)
        assert r.escaped
        assert r.step <= 10

    def test_drift_ignored_past_norm_cap(self):
        # The orbit blows up far beyond the cap; the recorded drift must
        # reflect only the well-conditioned early steps.
        r = classify_orbit(5.0, 2.0, max_iter=100)
        assert r.escaped
        assert r.max_norm > DRIFT_NORM_CAP
        assert r.invariant_drift <= 1e-8

    def test_escape_step_is_first_qualifying_step(self):
        # Rerun the raw iteration and confirm the reported step matches the
        # first time the norm exceeds the threshold on a 3-step growth run.
        energy, coupling, escape_norm = 2.6, 0.7, 4.0
        r = classify_orbit(energy, coupling, max_iter=300, escape_norm=escape_norm)
        assert r.escaped
        p = initial_point(energy, coupling)
        prev_m, streak = p.max_norm, 0
        for n in range(1, 301):
            p = trace_step(p)
            m = p.max_norm
            if m > escape_norm and m > prev_m:
                streak += 1
                if streak >= 3:
                    assert n == r.step
                    break
            else:
                streak = 0
            prev_m = m

    def test_validation(self):
        with pytest.raises(ValueError):
            classify_orbit(0.0, 0.0, max_iter=0)
        with pytest.raises(ValueError):
            classify_orbit(0.0, 0.0, escape_norm=2.0)
        with pytest.raises(ValueError):
            classify_orbit(0.0, -1.0)

    def test_matches_full_recomputation_bitwise(self):
        rng = np.random.default_rng(np.random.Philox(19))
        for coupling in (0.0, 0.815, 3.02, 6.04, 8.0):
            energies = rng.uniform(-3.0, 3.0 + coupling, 10_000).tolist()
            energies += [math.inf, -math.inf, math.nan, 1e300, -1e300, 0.0, coupling]
            for max_iter, escape_norm in ((19, 2.5), (200, 10.0)):
                for e in energies:
                    got = classify_orbit(e, coupling, max_iter=max_iter, escape_norm=escape_norm)
                    want = recomputed_orbit(e, coupling, max_iter, escape_norm)
                    assert orbit_fields(got) == orbit_fields(want), (e, coupling, max_iter)
        # Starts with a non-finite coordinate from finite or huge inputs.
        for e, coupling in ((-1.7e308, 1e308), (0.0, math.inf), (1.0, math.nan), (math.inf, 2.0)):
            got = classify_orbit(e, coupling, max_iter=19, escape_norm=2.5)
            assert orbit_fields(got) == orbit_fields(recomputed_orbit(e, coupling, 19, 2.5))

    def test_result_fields_round_trip(self):
        r = OrbitResult(escaped=False, step=7, max_norm=1.5, invariant_drift=1e-12)
        assert r.status == "bounded_up_to"
        assert OrbitResult(True, 3, 11.0, 0.0).status == "escaped"

    def test_result_is_an_immutable_named_tuple(self):
        r = OrbitResult(True, 3, 11.0, 0.0)
        assert OrbitResult._fields == ("escaped", "step", "max_norm", "invariant_drift")
        assert r == OrbitResult(escaped=True, step=3, max_norm=11.0, invariant_drift=0.0)
        assert tuple(r) == (True, 3, 11.0, 0.0)
        with pytest.raises(AttributeError):
            r.step = 4
