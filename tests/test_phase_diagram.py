"""Regime classification, grid sweeps, monotonicity reports, and writers.

The classification rule is exercised directly on crafted dimension sums
(including every boundary), the sweep is checked for symmetry and for
computing each coupling exactly once, and the writers are compared against
byte-level expectations assembled by hand.
"""

import csv
import json
from collections import Counter
from unittest import mock

import numpy as np
import pytest

import cantor_spectra.phase_diagram as pd_mod
import cantor_spectra.spectrum as spectrum_mod
from cantor_spectra import (
    ACDS,
    PMSD,
    REGIMES,
    UNRESOLVED,
    ZMSP,
    InconsistentDimensionsError,
    MonotonicityReport,
    PhaseCell,
    PhaseDiagram,
    classify,
    dims_for_lambda,
    dos_dimension_estimate,
    lambda_range,
    monotonicity_report,
    sweep,
    write_cells_csv,
    write_pgm,
    write_provenance,
)
from cantor_spectra.phase_diagram import DIM_ORDER_TOLERANCE, PGM_SHADE

# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------


class TestClassify:
    def test_regime_examples(self):
        assert classify(1.4, 1.2) == ACDS
        assert classify(0.8, 0.5) == ZMSP
        assert classify(1.3, 0.7) == PMSD
        assert classify(1.02, 0.98) == UNRESOLVED

    def test_acds_takes_precedence(self):
        # A measure sum above one already decides the cell, whatever the
        # support sum says beyond consistency.
        assert classify(2.5, 1.2) == ACDS

    def test_margin_boundaries_stay_unresolved(self):
        m = 0.05
        assert classify(1.0 + m, 0.5, m) == UNRESOLVED  # sigma not strictly above
        assert classify(2.0, 1.0 - m, m) == UNRESOLVED  # nu not strictly below
        assert classify(1.0 - m, 0.5, m) == UNRESOLVED  # sigma not strictly below
        assert classify(2.0, 1.0 + m, m) == UNRESOLVED  # nu not strictly above

    def test_inconsistent_sums_raise(self):
        with pytest.raises(InconsistentDimensionsError):
            classify(0.5, 0.7, margin=0.05)
        # exactly at the slack: no complaint
        assert classify(0.5, 0.6, margin=0.05) == ZMSP

    def test_labels_stable_under_margin_shrink(self):
        rng = np.random.default_rng(np.random.Philox(51))
        for _ in range(200):
            s = float(rng.uniform(0, 2))
            n = float(rng.uniform(0, s))  # consistent by construction
            wide = classify(s, n, margin=0.1)
            narrow = classify(s, n, margin=0.02)
            if wide != UNRESOLVED:
                assert narrow == wide

    def test_validation(self):
        with pytest.raises(ValueError):
            classify(float("nan"), 0.5)
        with pytest.raises(ValueError):
            classify(0.5, float("inf"))
        with pytest.raises(ValueError):
            classify(-0.1, 0.5)
        with pytest.raises(ValueError):
            classify(0.5, 0.4, margin=0.0)


# --------------------------------------------------------------------------
# PhaseCell
# --------------------------------------------------------------------------


class TestPhaseCell:
    def test_fields(self):
        c = PhaseCell(1.0, 2.0, 0.9, 0.7, 0.8, 0.6, PMSD)
        assert (c.lambda1, c.lambda2) == (1.0, 2.0)
        assert c.regime == PMSD

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseCell(0.0, 2.0, 0.9, 0.7, 0.8, 0.6, PMSD)  # coupling <= 0
        with pytest.raises(ValueError):
            PhaseCell(1.0, 2.0, -0.1, 0.7, 0.0, 0.6, PMSD)  # negative dim
        with pytest.raises(ValueError):
            PhaseCell(1.0, 2.0, 0.9, 0.7, 0.8, 0.6, "WRONG")
        with pytest.raises(ValueError):
            PhaseCell(1.0, 2.0, float("nan"), 0.7, 0.8, 0.6, PMSD)

    def test_measure_dim_cannot_exceed_support_dim_beyond_slack(self):
        # within slack: fine
        PhaseCell(1.0, 1.0, 0.7, 0.7, 0.7 + DIM_ORDER_TOLERANCE, 0.5, UNRESOLVED)
        with pytest.raises(ValueError):
            PhaseCell(1.0, 1.0, 0.7, 0.7, 0.7 + DIM_ORDER_TOLERANCE + 0.01, 0.5, UNRESOLVED)


# --------------------------------------------------------------------------
# lambda_range
# --------------------------------------------------------------------------


class TestLambdaRange:
    def test_values(self):
        got = lambda_range(0.5, 2.5, 5)
        assert got == (0.5, 1.0, 1.5, 2.0, 2.5)
        assert lambda_range(3.0, 3.0, 1) == (3.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            lambda_range(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            lambda_range(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            lambda_range(1.0, 2.0, 0)


# --------------------------------------------------------------------------
# per-coupling dimensions
# --------------------------------------------------------------------------


class TestDimsForLambda:
    def test_values_and_ordering(self, tmp_path):
        sigma, nu = dims_for_lambda(1.0, level=8, resolution=1e-3, cache_dir=str(tmp_path))
        assert 0.0 < sigma < 1.0
        assert 0.0 < nu <= sigma + DIM_ORDER_TOLERANCE

    def test_deterministic(self, tmp_path):
        cache = str(tmp_path)
        a = dims_for_lambda(0.8, level=8, resolution=1e-3, cache_dir=cache)
        b = dims_for_lambda(0.8, level=8, resolution=1e-3, cache_dir=cache)
        assert a == b

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(ValueError):
            dims_for_lambda(0.0)

    def test_builds_each_level_once(self, monkeypatch):
        # The cover and the density of states share the level-k bands.
        levels = Counter()
        real = spectrum_mod.band_set

        def counting(coupling, level, *args, **kwargs):
            levels[level] += 1
            return real(coupling, level, *args, **kwargs)

        monkeypatch.setattr(spectrum_mod, "band_set", counting)
        monkeypatch.setattr(pd_mod, "band_set", counting, raising=False)
        dims_for_lambda(1.0, 8, 1e-3, 400, 0, None)
        assert levels == {8: 1, 9: 1}

    def test_dos_estimate_is_interval(self, tmp_path):
        est = dos_dimension_estimate(1.0, level=8, resolution=1e-3, cache_dir=str(tmp_path))
        assert 0.0 <= est.lower <= est.upper <= 1.0
        assert est.sample_count >= 360  # nearly all 400 samples must score


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def fake_dims(values):
    """Patch dims_for_lambda with a table lookup that counts calls."""
    calls = []

    def stub(coupling, level, resolution, samples, seed, cache_dir):
        calls.append(coupling)
        return values[coupling]

    return stub, calls


class TestSweep:
    def test_grid_layout_row_major(self):
        values = {1.0: (0.9, 0.5), 2.0: (0.7, 0.4), 3.0: (0.5, 0.3)}
        stub, _ = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            d = sweep((1.0, 2.0), (2.0, 3.0), level=8, resolution=1e-3)
        assert (d.cell(0, 0).lambda1, d.cell(0, 0).lambda2) == (1.0, 2.0)
        assert (d.cell(1, 0).lambda1, d.cell(1, 0).lambda2) == (1.0, 3.0)
        assert (d.cell(0, 1).lambda1, d.cell(0, 1).lambda2) == (2.0, 2.0)
        assert d.cells[0] is d.cell(0, 0)
        with pytest.raises(IndexError):
            d.cell(2, 0)

    def test_each_coupling_computed_once(self):
        values = {1.0: (0.9, 0.5), 2.0: (0.7, 0.4), 3.0: (0.5, 0.3)}
        stub, calls = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            d = sweep((1.0, 2.0), (2.0, 3.0), level=8, resolution=1e-3)
        assert sorted(calls) == [1.0, 2.0, 3.0]
        assert len(d.cells) == 4

    def test_symmetric_when_axes_match(self):
        values = {1.0: (1.2, 0.9), 2.0: (0.8, 0.5), 3.0: (0.4, 0.2)}
        stub, _ = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            d = sweep((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), level=8, resolution=1e-3)
        for i in range(3):
            for j in range(3):
                a, b = d.cell(i, j), d.cell(j, i)
                assert a.regime == b.regime
                assert (a.dim_sigma1, a.dim_nu1) == (b.dim_sigma2, b.dim_nu2)

    def test_counts_and_fraction(self):
        values = {1.0: (1.2, 0.9), 4.0: (0.3, 0.05)}
        stub, _ = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            d = sweep((1.0, 4.0), (1.0, 4.0), level=8, resolution=1e-3)
        counts = d.regime_counts()
        assert sum(counts.values()) == 4
        assert set(counts) == set(REGIMES)
        assert counts[ACDS] == 1  # (1, 1): nu sum 1.8
        assert counts[ZMSP] == 1  # (4, 4): sigma sum 0.6
        assert counts[UNRESOLVED] == 2  # mixed cells sit on the decision edge
        assert d.unresolved_fraction() == 0.5

    def test_inconsistent_dims_propagate(self):
        values = {1.0: (0.2, 0.9)}
        stub, _ = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            with pytest.raises(InconsistentDimensionsError):
                sweep((1.0,), (1.0,), level=8, resolution=1e-3)

    def test_parallel_matches_serial(self, tmp_path):
        cache = str(tmp_path)
        grid = (0.5, 1.0)
        serial = sweep(grid, grid, level=6, resolution=1e-3, cache_dir=cache)
        parallel = sweep(grid, grid, level=6, resolution=1e-3, cache_dir=cache, n_workers=2)
        assert serial.cells == parallel.cells

    def test_provenance_payload(self):
        values = {1.0: (0.9, 0.5)}
        stub, _ = fake_dims(values)
        with mock.patch.object(pd_mod, "dims_for_lambda", stub):
            d = sweep((1.0,), (1.0,), level=8, resolution=1e-3, margin=0.04, seed=5)
        prov = d.provenance()
        assert prov["schema_version"] == 1
        assert prov["tool"] == "cantor-spectra"
        assert prov["level"] == 8
        assert prov["margin"] == 0.04
        assert prov["seed"] == 5
        assert prov["lambda1_grid"] == [1.0]
        assert sum(prov["regime_counts"].values()) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep((), (1.0,))
        with pytest.raises(ValueError):
            sweep((1.0,), (0.0,))
        with pytest.raises(ValueError):
            sweep((1.0,), (1.0,), n_workers=0)


# --------------------------------------------------------------------------
# monotonicity report
# --------------------------------------------------------------------------


class TestMonotonicityReport:
    def test_precomputed_decreasing(self):
        r = monotonicity_report((1.0, 2.0, 3.0), dims=(0.9, 0.8, 0.6))
        assert r.slopes == pytest.approx((-0.1, -0.2))
        assert r.all_negative
        assert r.flags == ()

    def test_constant_dims_flagged(self):
        r = monotonicity_report((1.0, 2.0), dims=(0.5, 0.5))
        assert r.slopes == (0.0,)
        assert not r.all_negative
        assert any("near zero" in f for f in r.flags)

    def test_sign_change_flagged(self):
        r = monotonicity_report((1.0, 2.0, 3.0), dims=(0.5, 0.7, 0.6))
        assert any("sign change" in f for f in r.flags)
        assert not r.all_negative

    def test_two_points_single_slope(self):
        r = monotonicity_report((1.0, 3.0), dims=(0.9, 0.5))
        assert r.slopes == (-0.2,)
        assert r.all_negative

    def test_computed_from_covers(self, tmp_path):
        r = monotonicity_report(
            (0.5, 1.0, 2.0), level=8, resolution=1e-3, cache_dir=str(tmp_path)
        )
        assert len(r.dims) == 3 and len(r.slopes) == 2
        assert all(0.0 < d <= 1.05 for d in r.dims)
        assert r.all_negative  # cover dimension falls as coupling grows

    def test_cover_dims_match_dims_for_lambda(self, tmp_path):
        cache = str(tmp_path)
        lams = (0.5, 2.0, 6.0)
        r = monotonicity_report(lams, level=8, resolution=1e-3, cache_dir=cache)
        want = tuple(dims_for_lambda(lam, 8, 1e-3, 400, 0, cache)[0] for lam in lams)
        assert r.dims == want

    def test_validation(self):
        with pytest.raises(ValueError):
            monotonicity_report((1.0,), dims=(0.5,))
        with pytest.raises(ValueError):
            monotonicity_report((2.0, 1.0), dims=(0.5, 0.6))
        with pytest.raises(ValueError):
            monotonicity_report((1.0, 2.0), dims=(0.5,))


# --------------------------------------------------------------------------
# writers
# --------------------------------------------------------------------------


@pytest.fixture()
def small_diagram():
    values = {1.0: (1.2, 0.9), 4.0: (0.3, 0.05)}
    stub, _ = fake_dims(values)
    with mock.patch.object(pd_mod, "dims_for_lambda", stub):
        return sweep((1.0, 4.0), (1.0, 4.0), level=8, resolution=1e-3)


class TestWriters:
    def test_cells_csv(self, tmp_path, small_diagram):
        path = tmp_path / "cells.csv"
        write_cells_csv(small_diagram, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "lambda1",
            "lambda2",
            "dim_sigma1",
            "dim_sigma2",
            "dim_nu1",
            "dim_nu2",
            "regime",
        ]
        assert len(rows) == 1 + 4
        assert rows[1][:2] == ["1", "1"]
        assert rows[1][6] == ACDS
        assert rows[4][6] == ZMSP
        for row in rows[1:]:
            for v in row[:6]:
                float(v)  # all numeric fields parse

    def test_csv_12_digit_formatting(self, tmp_path):
        c = PhaseCell(1.0, 1.0, 0.123456789012345, 0.5, 0.1, 0.2, UNRESOLVED)
        d = PhaseDiagram((1.0,), (1.0,), (c,), 8, 1e-3, 0.05, 400, 0)
        path = tmp_path / "one.csv"
        write_cells_csv(d, str(path))
        text = path.read_text()
        assert "0.123456789012" in text
        assert "0.123456789012345" not in text

    def test_pgm_bytes(self, tmp_path, small_diagram):
        path = tmp_path / "map.pgm"
        write_pgm(small_diagram, str(path))
        data = path.read_bytes()
        want_pixels = bytes(PGM_SHADE[c.regime] for c in small_diagram.cells)
        assert data == b"P5\n2 2\n255\n" + want_pixels
        assert data[: 2] == b"P5"
        assert len(data) == 11 + 4

    def test_provenance_json(self, tmp_path, small_diagram):
        path = tmp_path / "provenance.json"
        write_provenance(small_diagram, str(path))
        text = path.read_text()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["lambda1_grid"] == [1.0, 4.0]
        assert payload["regime_counts"][ACDS] == 1
        # keys are emitted sorted
        keys = list(payload)
        assert keys == sorted(keys)
