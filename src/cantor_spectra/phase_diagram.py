"""Regime map of the two-coupling plane.

Each coupling pair is classified by two dimension sums: the box dimension of
the band cover of each factor spectrum (does the sum set have room to carry
Lebesgue measure?) and the dimension of each band density of states (is the
convolved measure forced to be singular or pushed toward absolute
continuity?).  Three regimes result, plus an honesty label for cells whose
estimates fall inside the decision margin.

Estimator settings here are frozen after calibration on the default sweep;
they trade a thin undecided band near the two critical curves against the
noise floor of finite-level approximants.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cantor_core import IntervalSet, box_dimension_estimate
from .measures import BandMeasure, DimensionEstimate, measure_dimension_estimate
from .spectrum import BandSet, _band_sets, _cover, band_dos

__all__ = [
    "ACDS",
    "PMSD",
    "ZMSP",
    "UNRESOLVED",
    "REGIMES",
    "DEFAULT_LEVEL",
    "DEFAULT_MARGIN",
    "DEFAULT_SAMPLES",
    "PGM_SHADE",
    "InconsistentDimensionsError",
    "PhaseCell",
    "PhaseDiagram",
    "MonotonicityReport",
    "classify",
    "dims_for_lambda",
    "dos_dimension_estimate",
    "lambda_range",
    "monotonicity_report",
    "sweep",
    "write_cells_csv",
    "write_pgm",
    "write_provenance",
]

ACDS = "ACDS"
PMSD = "PMSD"
ZMSP = "ZMSP"
UNRESOLVED = "UNRESOLVED"
REGIMES = (ACDS, PMSD, ZMSP, UNRESOLVED)

DEFAULT_LEVEL = 12
DEFAULT_MARGIN = 0.05
DEFAULT_SAMPLES = 400

# Per-coupling ordering slack: the density-of-states dimension may exceed the
# cover dimension by estimator noise, never by more than this.
DIM_ORDER_TOLERANCE = 0.05

# Box-count scales for the cover dimension, as powers of two below the cover
# diameter.  Deeper scales steepen the estimated dim(lambda) curve near the
# classification boundary; shallower ones smear it into the undecided band.
_BOX_EXPONENTS = np.arange(7, 14)

# Scaling window for the density-of-states dimension.  The lower end sits
# below the band widths of every default-sweep approximant so the finest-half
# minimum can see the gap structure around narrow bands.
_NU_EPS_MIN = 1e-7
_NU_EPS_MAX = 1.0 / 16.0
_NU_SCALES = 12

PGM_SHADE = {ACDS: 224, PMSD: 160, ZMSP: 64, UNRESOLVED: 0}


class InconsistentDimensionsError(ValueError):
    """Measure-dimension sum exceeds the support-dimension sum beyond slack."""


def classify(dim_sigma_sum: float, dim_nu_sum: float, margin: float = DEFAULT_MARGIN) -> str:
    """Regime label from the two dimension sums.

    The measure sum rules absolute continuity in, the support sum rules
    positive measure out, and the mixed window between them is the singular
    positive-measure regime.  Anything inside the margin of a boundary stays
    UNRESOLVED.
    """
    if not (math.isfinite(dim_sigma_sum) and math.isfinite(dim_nu_sum)):
        raise ValueError("dimension sums must be finite")
    if dim_sigma_sum < 0.0 or dim_nu_sum < 0.0:
        raise ValueError("dimension sums must be >= 0")
    if not (math.isfinite(margin) and margin > 0.0):
        raise ValueError("margin must be positive")
    if dim_nu_sum > dim_sigma_sum + 2.0 * margin:
        raise InconsistentDimensionsError(
            f"measure-dimension sum {dim_nu_sum:.6g} exceeds support-dimension "
            f"sum {dim_sigma_sum:.6g} by more than {2.0 * margin:.6g}"
        )
    if dim_nu_sum > 1.0 + margin:
        return ACDS
    if dim_sigma_sum < 1.0 - margin:
        return ZMSP
    if dim_sigma_sum > 1.0 + margin and dim_nu_sum < 1.0 - margin:
        return PMSD
    return UNRESOLVED


@dataclass(frozen=True)
class PhaseCell:
    """One classified coupling pair with the dimension estimates behind it."""

    lambda1: float
    lambda2: float
    dim_sigma1: float
    dim_sigma2: float
    dim_nu1: float
    dim_nu2: float
    regime: str

    def __post_init__(self) -> None:
        for name in ("lambda1", "lambda2", "dim_sigma1", "dim_sigma2", "dim_nu1", "dim_nu2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        if self.lambda1 <= 0.0 or self.lambda2 <= 0.0:
            raise ValueError("couplings must be > 0")
        for name in ("dim_sigma1", "dim_sigma2", "dim_nu1", "dim_nu2"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.dim_nu1 > self.dim_sigma1 + DIM_ORDER_TOLERANCE:
            raise ValueError("dim_nu1 exceeds dim_sigma1 beyond tolerance")
        if self.dim_nu2 > self.dim_sigma2 + DIM_ORDER_TOLERANCE:
            raise ValueError("dim_nu2 exceeds dim_sigma2 beyond tolerance")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


def _cover_dimension(cover: IntervalSet) -> float:
    """Box dimension of a cover at the _BOX_EXPONENTS scales below its diameter."""
    scales = cover.diameter * 2.0 ** (-_BOX_EXPONENTS.astype(float))
    dim, _ = box_dimension_estimate(cover, scales)
    return dim


def _dos_dimension(dos: BandMeasure, samples: int, seed: int) -> DimensionEstimate:
    """Dimension estimate of a density of states on the _NU_* scaling window.

    The measure is rescaled to unit support first so the scaling window means
    the same thing at every coupling regardless of spectrum diameter.
    """
    return measure_dimension_estimate(
        dos.rescaled_to_unit(),
        samples,
        _NU_EPS_MIN,
        _NU_EPS_MAX,
        seed,
        n_scales=_NU_SCALES,
    )


def dos_dimension_estimate(
    coupling: float,
    level: int = DEFAULT_LEVEL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> DimensionEstimate:
    """Dimension estimate of the band density of states at one coupling."""
    return _dos_dimension(band_dos(coupling, level), samples, seed)


def _dims(low: BandSet, high: BandSet, samples: int, seed: int) -> tuple[float, float]:
    """(cover dimension, density-of-states dimension) of one coupling from its
    level-k and level-(k+1) band sets."""
    dim_sigma = _cover_dimension(_cover(low, high))
    est = _dos_dimension(BandMeasure.equal_weights_on(low.bands), samples, seed)
    return dim_sigma, est.midpoint


def dims_for_lambda(
    coupling: float,
    level: int = DEFAULT_LEVEL,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> tuple[float, float]:
    """(cover dimension, density-of-states dimension) from one engine pass over levels k, k+1."""
    if not (coupling > 0.0):
        raise ValueError("coupling must be > 0")
    low, high = _band_sets((coupling,), (level, level + 1))[0]
    return _dims(low, high, samples, seed)


@dataclass(frozen=True)
class PhaseDiagram:
    """Classified grid, cells in row-major order with lambda2 as the row axis."""

    lambdas1: tuple[float, ...]
    lambdas2: tuple[float, ...]
    cells: tuple[PhaseCell, ...]
    level: int
    margin: float
    samples: int
    seed: int

    def __post_init__(self) -> None:
        if not self.lambdas1 or not self.lambdas2:
            raise ValueError("grid axes must be non-empty")
        if len(self.cells) != len(self.lambdas1) * len(self.lambdas2):
            raise ValueError("cell count does not match grid size")

    def cell(self, row: int, col: int) -> PhaseCell:
        """Cell at lambda2 = lambdas2[row], lambda1 = lambdas1[col]."""
        n1 = len(self.lambdas1)
        if not (0 <= row < len(self.lambdas2) and 0 <= col < n1):
            raise IndexError("cell index out of range")
        return self.cells[row * n1 + col]

    def regime_counts(self) -> dict[str, int]:
        counts = {r: 0 for r in REGIMES}
        for c in self.cells:
            counts[c.regime] += 1
        return counts

    def unresolved_fraction(self) -> float:
        return self.regime_counts()[UNRESOLVED] / len(self.cells)

    def provenance(self) -> dict:
        return {
            "schema_version": 1,
            "tool": "cantor-spectra",
            "tool_version": __version__,
            "level": self.level,
            "margin": self.margin,
            "samples": self.samples,
            "seed": self.seed,
            "lambda1_grid": list(self.lambdas1),
            "lambda2_grid": list(self.lambdas2),
            "regime_counts": self.regime_counts(),
            "unresolved_fraction": self.unresolved_fraction(),
        }


def lambda_range(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n evenly spaced couplings from lo to hi inclusive."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("range endpoints must be finite")
    if lo <= 0.0:
        raise ValueError("couplings must be > 0")
    if hi < lo:
        raise ValueError("range must satisfy hi >= lo")
    if n < 1:
        raise ValueError("need at least one grid point")
    if n == 1:
        return (float(lo),)
    return tuple(float(x) for x in np.linspace(lo, hi, n))


def sweep(
    lambdas_1,
    lambdas_2,
    level: int = DEFAULT_LEVEL,
    margin: float = DEFAULT_MARGIN,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
    *,
    resolution: float | None = None,
    n_workers: int = 1,
) -> PhaseDiagram:
    """Classify every coupling pair on the grid.

    One engine pass builds levels k and k+1 for every distinct coupling;
    dimensions are then computed once per coupling and shared between the
    two axes, so the classification is symmetric by construction.  Cells
    are ordered by (row, column).  ``resolution`` and ``n_workers`` are
    accepted for older callers and ignored.
    """
    l1 = tuple(float(x) for x in lambdas_1)
    l2 = tuple(float(x) for x in lambdas_2)
    if not l1 or not l2:
        raise ValueError("grid axes must be non-empty")
    if any(not (x > 0.0) for x in l1 + l2):
        raise ValueError("couplings must be > 0")

    distinct = sorted(set(l1) | set(l2))
    dims = {
        low.coupling: _dims(low, high, samples, seed)
        for low, high in _band_sets(distinct, (level, level + 1))
    }

    cells = []
    for lam2 in l2:
        s2, n2 = dims[lam2]
        for lam1 in l1:
            s1, n1 = dims[lam1]
            regime = classify(s1 + s2, n1 + n2, margin)
            cells.append(PhaseCell(lam1, lam2, s1, s2, n1, n2, regime))
    return PhaseDiagram(l1, l2, tuple(cells), level, margin, samples, seed)


@dataclass(frozen=True)
class MonotonicityReport:
    """Finite-difference slopes of the cover dimension along a coupling path."""

    lambdas: tuple[float, ...]
    dims: tuple[float, ...]
    slopes: tuple[float, ...]
    flags: tuple[str, ...]

    @property
    def all_negative(self) -> bool:
        return all(s < 0.0 for s in self.slopes)


def monotonicity_report(
    lambdas,
    level: int = DEFAULT_LEVEL,
    dims=None,
    near_zero: float = 1e-3,
) -> MonotonicityReport:
    """Slopes of dim(cover) between consecutive couplings, with trouble flags.

    A slope is flagged when it is within near_zero of zero and a sign change
    between consecutive slopes is flagged as well; either would undercut an
    argument that leans on the dimension moving strictly with the coupling.
    Precomputed dims may be passed to report on externally obtained values.
    """
    lams = tuple(float(x) for x in lambdas)
    if len(lams) < 2:
        raise ValueError("need at least two couplings")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("couplings must be strictly increasing")
    if dims is None:
        dims = tuple(
            _cover_dimension(_cover(low, high))
            for low, high in _band_sets(lams, (level, level + 1))
        )
    else:
        dims = tuple(float(d) for d in dims)
        if len(dims) != len(lams):
            raise ValueError("dims length must match lambdas")

    slopes = tuple(
        (d1 - d0) / (x1 - x0)
        for (x0, d0), (x1, d1) in zip(zip(lams, dims), zip(lams[1:], dims[1:]))
    )
    flags = []
    for i, s in enumerate(slopes):
        if abs(s) <= near_zero:
            flags.append(f"slope {i} on [{lams[i]:.6g}, {lams[i + 1]:.6g}] is near zero")
    for i in range(1, len(slopes)):
        if slopes[i - 1] * slopes[i] < 0.0:
            flags.append(f"sign change between slopes {i - 1} and {i}")
    return MonotonicityReport(lams, dims, slopes, tuple(flags))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_cells_csv(diagram: PhaseDiagram, path: str) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["lambda1", "lambda2", "dim_sigma1", "dim_sigma2", "dim_nu1", "dim_nu2", "regime"])
        for c in diagram.cells:
            w.writerow(
                [
                    _fmt(c.lambda1),
                    _fmt(c.lambda2),
                    _fmt(c.dim_sigma1),
                    _fmt(c.dim_sigma2),
                    _fmt(c.dim_nu1),
                    _fmt(c.dim_nu2),
                    c.regime,
                ]
            )


def write_pgm(diagram: PhaseDiagram, path: str) -> None:
    """Binary PGM, one pixel per cell, lambda2 increasing downward."""
    w = len(diagram.lambdas1)
    h = len(diagram.lambdas2)
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    pixels = bytes(PGM_SHADE[c.regime] for c in diagram.cells)
    with open(path, "wb") as fh:
        fh.write(header + pixels)


def write_provenance(diagram: PhaseDiagram, path: str) -> None:
    prov = diagram.provenance()
    prov["margin"] = float(_fmt(prov["margin"]))
    prov["lambda1_grid"] = [float(_fmt(x)) for x in prov["lambda1_grid"]]
    prov["lambda2_grid"] = [float(_fmt(x)) for x in prov["lambda2_grid"]]
    prov["unresolved_fraction"] = float(_fmt(prov["unresolved_fraction"]))
    with open(path, "w") as fh:
        json.dump(prov, fh, indent=2, sort_keys=True)
        fh.write("\n")
