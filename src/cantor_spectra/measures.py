"""Weighted interval measures: convolution, scaling exponents, dimensions.

A ``BandMeasure`` is a probability measure given as finitely many disjoint
closed intervals carrying positive weights.  Mass is spread uniformly
inside each interval (a degenerate interval is a point mass), which fixes
the cdf and every scaling quantity computed here.

Measure dimensions are probed through the pointwise ratios
log mu(B(x, eps)) / log eps at geometrically spaced scales; a population
of such exponents at sampled points gives a [lower, upper] dimension
estimate.  Convolution of band measures is the numerical route to the
density of states of a two-dimensional separable model, and the Lyapunov
exponent of the trace map turns entropy into a dimension benchmark.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .cantor_core import BudgetExceededError, Interval, IntervalSet

# Budget on pairwise atom products formed by a single convolution.
MAX_CONVOLUTION_ATOMS = 10 ** 7

# Weights must sum to one within this slack.
WEIGHT_TOLERANCE = 1e-12


class EstimationFailedError(RuntimeError):
    """A statistical estimate could not be formed from the sampled data."""


class BandMeasure:
    """Probability measure on sorted disjoint intervals with positive weights.

    Atoms may share endpoints (their interiors are disjoint); weights must
    sum to 1 within WEIGHT_TOLERANCE.
    """

    __slots__ = ("_los", "_his", "_weights", "_cum")

    def __init__(self, atoms: Iterable):
        los, his, ws = [], [], []
        for entry in atoms:
            if len(entry) == 2 and isinstance(entry[0], Interval):
                iv, w = entry
                lo, hi = iv.lo, iv.hi
            else:
                lo, hi, w = entry
            los.append(float(lo))
            his.append(float(hi))
            ws.append(float(w))
        los = np.asarray(los, float)
        his = np.asarray(his, float)
        ws = np.asarray(ws, float)
        if los.size == 0:
            raise ValueError("a measure needs at least one atom")
        if np.any(~np.isfinite(los)) or np.any(~np.isfinite(his)) or np.any(~np.isfinite(ws)):
            raise ValueError("atom data must be finite")
        if np.any(los > his):
            raise ValueError("every atom needs lo <= hi")
        if np.any(ws <= 0.0):
            raise ValueError("atom weights must be positive")
        order = np.argsort(los, kind="stable")
        los, his, ws = los[order], his[order], ws[order]
        if los.size > 1 and np.any(los[1:] < his[:-1] - WEIGHT_TOLERANCE):
            raise ValueError("atom interiors must be disjoint")
        total = float(np.sum(ws))
        if abs(total - 1.0) > WEIGHT_TOLERANCE:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        self._los = los
        self._his = his
        self._weights = ws
        self._cum = np.cumsum(ws)

    # -- constructors --------------------------------------------------

    @classmethod
    def _from_arrays(cls, los: np.ndarray, his: np.ndarray, weights: np.ndarray) -> "BandMeasure":
        """Trusted constructor for sorted disjoint atoms with weights summing to 1."""
        m = cls.__new__(cls)
        m._los = los
        m._his = his
        m._weights = weights
        m._cum = np.cumsum(weights)
        return m

    @classmethod
    def point_masses(cls, points: Sequence[float], weights: Sequence[float]) -> "BandMeasure":
        return cls([(p, p, w) for p, w in zip(points, weights)])

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "BandMeasure":
        if not lo < hi:
            raise ValueError("uniform measure needs lo < hi")
        return cls([(lo, hi, 1.0)])

    @classmethod
    def equal_weights_on(cls, support: IntervalSet) -> "BandMeasure":
        """Equal weight per interval of the support, uniform inside each."""
        n = len(support)
        if n == 0:
            raise ValueError("support is empty")
        return cls._from_arrays(support.los.copy(), support.his.copy(), np.full(n, 1.0 / n))

    @classmethod
    def length_weights_on(cls, support: IntervalSet) -> "BandMeasure":
        """Normalized Lebesgue measure restricted to the support."""
        lengths = support.his - support.los
        total = float(np.sum(lengths))
        if total <= 0.0:
            raise ValueError("support must have positive measure")
        return cls(
            [(lo, hi, ln / total) for lo, hi, ln in zip(support.los, support.his, lengths) if ln > 0]
        )

    # -- queries -------------------------------------------------------

    @property
    def atoms(self) -> tuple[tuple[Interval, float], ...]:
        return tuple(
            (Interval(lo, hi), w) for lo, hi, w in zip(self._los, self._his, self._weights)
        )

    @property
    def los(self) -> np.ndarray:
        return self._los

    @property
    def his(self) -> np.ndarray:
        return self._his

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def __len__(self) -> int:
        return int(self._los.size)

    @property
    def support_lo(self) -> float:
        return float(self._los[0])

    @property
    def support_hi(self) -> float:
        return float(np.max(self._his))

    @property
    def diameter(self) -> float:
        return self.support_hi - self.support_lo

    def total_weight(self) -> float:
        return float(np.sum(self._weights))

    def is_point_mass(self) -> bool:
        return len(self) == 1 and self._los[0] == self._his[0]

    def translated(self, shift: float) -> "BandMeasure":
        return BandMeasure._from_arrays(self._los + shift, self._his + shift, self._weights.copy())

    def rescaled_to_unit(self) -> "BandMeasure":
        """Affine image with support stretched onto [0, 1].

        Dimensions and scaling exponents are invariant under this map; it
        removes the systematic offset that a large support diameter puts
        into finite-scale log-ratios.
        """
        d = self.diameter
        if d <= 0.0:
            raise ValueError("cannot rescale a single point mass")
        lo = self.support_lo
        return BandMeasure._from_arrays(
            (self._los - lo) / d, (self._his - lo) / d, self._weights.copy()
        )

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"atoms": [[lo, hi, w] for lo, hi, w in zip(self._los, self._his, self._weights)]}
        )

    @classmethod
    def from_json(cls, text: str) -> "BandMeasure":
        payload = json.loads(text)
        return cls(payload["atoms"])


def cdf(m: BandMeasure, x) -> np.ndarray | float:
    """mu((-inf, x]) with mass spread uniformly inside each atom.

    Accepts a scalar or an array of evaluation points.
    """
    xs = np.asarray(x, dtype=float)
    scalar = xs.ndim == 0
    xs = np.atleast_1d(xs)
    # weight of atoms ending at or before x
    full = np.searchsorted(m.his, xs, side="right")
    out = np.where(full > 0, m._cum[np.minimum(full, len(m)) - 1], 0.0)
    # partial contribution of the atom containing x (if non-degenerate)
    idx = np.searchsorted(m.los, xs, side="right") - 1
    safe = np.clip(idx, 0, len(m) - 1)
    lo = m.los[safe]
    hi = m.his[safe]
    w = m.weights[safe]
    inside = (idx >= 0) & (xs >= lo) & (xs < hi) & (hi > lo) & (idx >= full)
    frac = np.zeros_like(xs)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(inside, w * (xs - lo) / (hi - lo), 0.0)
    out = out + frac
    return float(out[0]) if scalar else out


def quantile(m: BandMeasure, u) -> np.ndarray | float:
    """Inverse cdf; u in [0, 1]."""
    us = np.asarray(u, dtype=float)
    scalar = us.ndim == 0
    us = np.atleast_1d(us)
    if np.any((us < 0.0) | (us > 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")
    idx = np.searchsorted(m._cum, us, side="left")
    idx = np.clip(idx, 0, len(m) - 1)
    cum_prev = np.where(idx > 0, m._cum[idx - 1], 0.0)
    lo = m.los[idx]
    hi = m.his[idx]
    w = m.weights[idx]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(w > 0, (us - cum_prev) / w, 0.0)
    frac = np.clip(frac, 0.0, 1.0)
    xs = lo + frac * (hi - lo)
    return float(xs[0]) if scalar else xs


def _default_granularity(los: np.ndarray, his: np.ndarray) -> float:
    diam = float(np.max(his) - np.min(los))
    if diam <= 0.0:
        return 1.0  # all-point case never touches the grid
    return diam / 2 ** 16


def convolve(
    m1: BandMeasure, m2: BandMeasure, merge_granularity: float | None = None
) -> BandMeasure:
    """Distribution of X + Y for independent X ~ m1, Y ~ m2.

    Pairwise atom sums carry product weights and are re-partitioned onto a
    uniform grid of cells no finer than ``merge_granularity`` (default:
    support diameter of the sum / 2^16).  Point-only measures are combined
    exactly, and a unit point mass acts as an exact translation.
    """
    if merge_granularity is not None and merge_granularity <= 0.0:
        raise ValueError("merge_granularity must be positive")
    # point mass acts by translation; keep the other factor's atoms exact
    if m1.is_point_mass():
        return m2.translated(m1.support_lo)
    if m2.is_point_mass():
        return m1.translated(m2.support_lo)

    n_pairs = len(m1) * len(m2)
    if n_pairs > MAX_CONVOLUTION_ATOMS:
        raise BudgetExceededError(
            f"convolution would build {n_pairs} atoms (budget {MAX_CONVOLUTION_ATOMS})"
        )
    los = (m1.los[:, None] + m2.los[None, :]).ravel()
    his = (m1.his[:, None] + m2.his[None, :]).ravel()
    ws = (m1.weights[:, None] * m2.weights[None, :]).ravel()

    if np.all(los == his):
        # purely atomic: group equal sums exactly
        values, inverse = np.unique(los, return_inverse=True)
        agg = np.bincount(inverse, weights=ws)
        return BandMeasure._from_arrays(values, values.copy(), agg / np.sum(agg))

    g = merge_granularity if merge_granularity is not None else _default_granularity(los, his)
    start = float(np.min(los))
    stop = float(np.max(his))
    n_cells = max(1, int(np.ceil((stop - start) / g - 1e-12)))
    if n_cells > MAX_CONVOLUTION_ATOMS:
        raise BudgetExceededError(
            f"granularity {g} would build {n_cells} cells (budget {MAX_CONVOLUTION_ATOMS})"
        )

    idx0 = np.clip(np.floor((los - start) / g).astype(np.int64), 0, n_cells - 1)
    idx1 = np.clip(np.floor((his - start) / g).astype(np.int64), 0, n_cells - 1)
    # snap atoms whose hi sits exactly on a cell boundary back into the cell
    on_boundary = (idx1 > idx0) & (his <= start + idx1 * g)
    idx1 = np.where(on_boundary, idx1 - 1, idx1)

    # atoms inside one cell keep their whole weight there; longer atoms put
    # their overlap with the two end cells there and a density times g on
    # every cell strictly between them
    one = idx1 == idx0
    cell_w = np.zeros(n_cells)
    cell_w += np.bincount(idx0[one], weights=ws[one], minlength=n_cells)
    L, H, W, i0, i1 = los[~one], his[~one], ws[~one], idx0[~one], idx1[~one]
    length = H - L
    left = np.maximum(start + (i0 + 1) * g - np.maximum(L, start + i0 * g), 0.0)
    right = np.maximum(np.minimum(H, start + (i1 + 1) * g) - (start + i1 * g), 0.0)
    cell_w += np.bincount(i0, weights=W * left / length, minlength=n_cells)
    cell_w += np.bincount(i1, weights=W * right / length, minlength=n_cells)
    inner = i1 - i0 >= 2
    density = W[inner] / length[inner]
    starts, stops = i0[inner] + 1, i1[inner]
    diff = np.bincount(starts, weights=density, minlength=n_cells + 1) - np.bincount(
        stops, weights=density, minlength=n_cells + 1
    )
    # the integer count keeps rounding residue out of uncovered cells
    covering = np.cumsum(
        np.bincount(starts, minlength=n_cells + 1) - np.bincount(stops, minlength=n_cells + 1)
    )
    cell_w += np.where(covering > 0, np.cumsum(diff) * g, 0.0)[:n_cells]

    nz = np.flatnonzero(cell_w > 0.0)
    total = float(np.sum(cell_w[nz]))
    return BandMeasure._from_arrays(start + nz * g, start + (nz + 1) * g, cell_w[nz] / total)


@dataclass(frozen=True)
class ScalingReport:
    """Pointwise scaling exponents log mu(B(x, eps)) / log eps.

    ``exponents`` pairs each eps (strictly decreasing) with its log-ratio;
    alpha_lower/alpha_upper are the min/max over the finest half of the
    scales.  ``no_mass`` marks a point whose largest ball carries no mass.
    """

    point: float
    exponents: tuple[tuple[float, float], ...]
    alpha_lower: float
    alpha_upper: float
    no_mass: bool = False


def scaling_exponent(
    m: BandMeasure,
    x: float,
    eps_min: float,
    eps_max: float,
    n_scales: int = 12,
) -> ScalingReport:
    """Sample log mu(B(x, eps)) / log eps at geometric scales.

    The point must lie in the convex hull of the support.  Scales with
    zero ball mass are dropped from the report.
    """
    if not (0.0 < eps_min < eps_max):
        raise ValueError("need 0 < eps_min < eps_max")
    if n_scales < 4:
        raise ValueError("need at least 4 scales")
    if not (m.support_lo <= x <= m.support_hi):
        raise ValueError("point lies outside the support hull")
    eps = np.geomspace(eps_max, eps_min, n_scales)
    mass = cdf(m, x + eps) - cdf(m, x - eps)
    if mass[0] <= 0.0:
        return ScalingReport(x, (), float("nan"), float("nan"), no_mass=True)
    valid = (mass > 0.0) & (eps != 1.0)
    with np.errstate(divide="ignore"):
        log_mass = np.log(mass, where=mass > 0, out=np.full_like(mass, np.nan))
        ratios = np.where(valid, log_mass / np.log(eps), np.nan)
    pairs = tuple((float(e), float(r)) for e, r, v in zip(eps, ratios, valid) if v)
    # min/max over the finest half of the sampled scales
    half = valid.copy()
    half[: n_scales - n_scales // 2] = False
    sel = ratios[half]
    if sel.size == 0:
        sel = ratios[valid]
    return ScalingReport(x, pairs, float(np.min(sel)), float(np.max(sel)))


@dataclass(frozen=True)
class DimensionEstimate:
    """Interval estimate [lower, upper] in [0, 1] from sampled exponents."""

    lower: float
    upper: float
    sample_count: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise ValueError("need 0 <= lower <= upper <= 1")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def _percentile(ascending: np.ndarray, q: float) -> float:
    """np.percentile(ascending, q) by its default linear rule, bit for bit.

    Written out because np.percentile imports numpy.ma on first use, about
    14 ms of every CLI process that estimates a dimension.
    """
    n = ascending.size
    pos = (n - 1) * (q / 100.0)  # 0 <= pos <= n - 1 for q in [0, 100]
    i = math.floor(pos)
    j = min(i + 1, n - 1)
    t = pos - i
    a, b = float(ascending[i]), float(ascending[j])
    return b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t


def measure_dimension_estimate(
    m: BandMeasure,
    n_samples: int,
    eps_min: float,
    eps_max: float,
    seed: int,
    n_scales: int = 12,
) -> DimensionEstimate:
    """Percentile envelope of pointwise exponents at measure-sampled points.

    Points are drawn by inverse-cdf sampling with a counter-based Philox
    generator, so results are reproducible from the seed alone.  The
    estimate is the [5th, 95th] percentile of per-point alpha_lower
    values, clipped into [0, 1].
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    if not (0.0 < eps_min < eps_max):
        raise ValueError("need 0 < eps_min < eps_max")
    rng = np.random.Generator(np.random.Philox(seed))
    xs = quantile(m, rng.random(n_samples))
    eps = np.geomspace(eps_max, eps_min, n_scales)
    mass = cdf(m, xs[:, None] + eps[None, :]) - cdf(m, xs[:, None] - eps[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.log(mass) / np.log(eps)[None, :]
    ratios[mass <= 0.0] = np.nan
    fine = ratios[:, n_scales - n_scales // 2 :]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN rows
        alphas = np.nanmin(fine, axis=1)
        fallback = np.nanmin(ratios, axis=1)
    alphas = np.where(np.isnan(alphas), fallback, alphas)
    alphas = alphas[~np.isnan(alphas)]
    if alphas.size < max(10, n_samples // 10):
        raise EstimationFailedError(
            "too few sampled points carried measurable ball mass"
        )
    alphas = np.sort(alphas)
    lower = _percentile(alphas, 5.0)
    upper = _percentile(alphas, 95.0)
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    if lower > upper:
        lower = upper
    return DimensionEstimate(lower, upper, int(alphas.size))


_SINGULAR = "Singular"
_INCONCLUSIVE = "Inconclusive"


def singularity_verdict(
    d1: DimensionEstimate, d2: DimensionEstimate, margin: float = 0.05
) -> str:
    """"Singular" when d1.upper + d2.upper < 1 - margin, else "Inconclusive".

    A sum of upper dimension bounds below one forces the convolution to be
    singular; the verdict never claims absolute continuity.
    """
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    if d1.upper + d2.upper < 1.0 - margin:
        return _SINGULAR
    return _INCONCLUSIVE


def estimate_lyapunov(
    coupling: float,
    m: BandMeasure,
    n_energies: int = 200,
    n_steps: int = 20,
    seed: int = 0,
    escape_norm: float = 1e3,
) -> float:
    """Mean growth rate (1/n) log ||D(T^n)|| along measure-sampled orbits.

    Energies are drawn from ``m``; orbits whose max-norm leaves
    ``escape_norm`` within the run are discarded as escaped.  The cap is
    generous by default because bounded stretches of strongly coupled
    orbits spike far above 10 without escaping.  Fails when fewer than 10%
    of the orbits survive.  ``n_steps`` is capped at 30 to keep the
    Jacobian product well inside double range.
    """
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
    if not (1 <= n_steps <= 30):
        raise ValueError("n_steps must lie in [1, 30]")
    if n_energies < 10:
        raise ValueError("need at least 10 energies")
    rng = np.random.Generator(np.random.Philox(seed))
    energies = quantile(m, rng.random(n_energies))
    x = (energies - coupling) / 2.0
    y = energies / 2.0
    z = np.ones_like(x)
    jac = np.broadcast_to(np.eye(3), (n_energies, 3, 3)).copy()
    alive = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))) <= escape_norm
    step = np.zeros((n_energies, 3, 3))
    step[:, 0, 2] = -1.0
    step[:, 1, 0] = 1.0
    step[:, 2, 1] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_steps):
            # rows of DT at (x, y, z): (2y, 2x, -1), (1, 0, 0), (0, 1, 0)
            step[:, 0, 0] = 2.0 * y
            step[:, 0, 1] = 2.0 * x
            new_jac = np.einsum("nij,njk->nik", step, jac)
            jac = np.where(alive[:, None, None], new_jac, jac)
            x, y, z = 2.0 * x * y - z, x, y
            alive &= np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z))) <= escape_norm
    if np.count_nonzero(alive) < 0.1 * n_energies:
        raise EstimationFailedError(
            f"only {np.count_nonzero(alive)} of {n_energies} sampled orbits stayed "
            f"within norm {escape_norm} for {n_steps} steps"
        )
    norms = np.linalg.norm(jac[alive], ord=2, axis=(1, 2))
    return float(np.mean(np.log(norms) / n_steps))


def dimension_via_lyapunov(entropy: float, lyapunov: float) -> float:
    """Dimension benchmark entropy / lyapunov, clamped into (0, 1].

    A ratio above 1 signals inconsistent inputs and is clamped with a
    warning.  log((1 + sqrt 5)/2) ~= 0.4812 is the natural entropy for the
    substitution dynamics feeding these spectra.
    """
    if entropy <= 0.0:
        raise ValueError("entropy must be positive")
    if lyapunov <= 0.0:
        raise ValueError("lyapunov must be positive")
    ratio = entropy / lyapunov
    if ratio > 1.0:
        warnings.warn(
            f"entropy/lyapunov = {ratio:.4g} exceeds 1; inputs are inconsistent, "
            "reporting the clamped value 1.0",
            stacklevel=2,
        )
        return 1.0
    return ratio
