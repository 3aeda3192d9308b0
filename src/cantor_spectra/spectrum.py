"""Band covers and densities of states from the half-trace recursion.

The half-traces a_k(E) obey a_{k+1} = 2 a_k a_{k-1} - a_{k-2} starting
from ((E - lambda)/2, E/2, 1); their unit sublevel sets
sigma_k = {E : |a_k(E)| <= 1} are the spectra of the periodic
approximants, and sigma_k united with sigma_{k+1} is a cover of the true
spectrum that shrinks to it as k grows.  Band edges are found by a grid
scan plus bisection; the resulting interval unions feed the Cantor-set
machinery in :mod:`cantor_core`.

Two independent routes to the density of states are provided: equal band
weights on a level-k cover (the periodic-approximant weighting) and
eigenvalue counting for a finite chain by Sturm-sequence sign counts.
They approximate the same limit and are kept separate so one can check
the other.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .cantor_core import BudgetExceededError, Interval, IntervalSet, minkowski_sum, normalize
from .cantor_core import _merge_sorted_arrays
from .measures import BandMeasure

# Inverse golden ratio; frequency of the quasiperiodic potential.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

MAX_HALF_TRACE_LEVEL = 40
MAX_SCAN_POINTS = 10 ** 7

# Environment variable naming a directory for the band-set disk cache.
CACHE_ENV_VAR = "CANTOR_SPECTRA_CACHE"

# A recursion step that overflows saturates at the largest float, so wide
# energy grids stay finite while every representable value stays exact.
_SATURATION = float(np.finfo(float).max)

# A refined band edge e must satisfy ||a_k(e)| - 1| below this.
EDGE_VALUE_TOL = 1e-6


def half_trace_degree(k: int) -> int:
    """Polynomial degree of a_k(E): 0, 1, 1, 2, 3, 5, ... from k = -1."""
    if k < -1:
        raise ValueError("level must be >= -1")
    if k == -1:
        return 0
    prev, cur = 0, 1  # degrees at levels -1 and 0
    for _ in range(k):
        prev, cur = cur, cur + prev
    return cur


def half_trace(energy, coupling: float, k: int):
    """Half-trace a_k(E); accepts a scalar or an array of energies.

    a_{-1} = 1, a_0 = E/2, a_1 = (E - lambda)/2, then
    a_{k+1} = 2 a_k a_{k-1} - a_{k-2}.  A step that would overflow saturates
    at the largest float, far outside the bands, so grids stay finite.
    """
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    if k < -1 or k > MAX_HALF_TRACE_LEVEL:
        raise ValueError(f"level must lie in [-1, {MAX_HALF_TRACE_LEVEL}]")
    e = np.asarray(energy, dtype=float)
    out = _half_trace(e, coupling, k)
    return float(out) if e.ndim == 0 else out


def _half_trace(e: np.ndarray, coupling: float, k: int) -> np.ndarray:
    """The recursion of :func:`half_trace`, for callers that checked the arguments."""
    a_prev2 = np.ones_like(e)
    a_prev1 = e / 2.0
    if k == -1:
        return a_prev2
    if k == 0:
        return a_prev1
    a = (e - coupling) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(k - 1):
            a_next = np.clip(2.0 * a * a_prev1 - a_prev2, -_SATURATION, _SATURATION)
            a, a_prev1, a_prev2 = a_next, a, a_prev1
    return a


@dataclass(frozen=True)
class BandSet:
    """Bands {E : |a_k(E)| <= 1} of one approximant level."""

    coupling: float
    level: int
    bands: IntervalSet

    def __post_init__(self) -> None:
        limit = half_trace_degree(self.level)
        if len(self.bands) > limit:
            raise ValueError(
                f"level {self.level} admits at most {limit} bands, got {len(self.bands)}"
            )


def default_energy_window(coupling: float) -> Interval:
    """Window [-(3 + lambda), 3 + lambda] containing the spectrum with margin."""
    return Interval(-(3.0 + coupling), 3.0 + coupling)


def _refine_edges(
    coupling: float,
    k: int,
    inside: np.ndarray,
    outside: np.ndarray,
    tol_e: float,
    max_iter: int = 100,
) -> np.ndarray:
    """Bisect |a_k| - 1 between inside (<= 0) and outside (> 0) points.

    Returns the inside endpoints of the final brackets, so reported edges
    satisfy |a_k(e)| <= 1 with residual below EDGE_VALUE_TOL.
    """
    a = inside.astype(float).copy()
    b = outside.astype(float).copy()
    if a.size == 0:
        return a
    f_a = np.abs(_half_trace(a, coupling, k)) - 1.0
    for _ in range(max_iter):
        if np.all((np.abs(b - a) <= tol_e) & (np.abs(f_a) <= EDGE_VALUE_TOL)):
            break
        mid = 0.5 * (a + b)
        f_mid = np.abs(_half_trace(mid, coupling, k)) - 1.0
        go_in = f_mid <= 0.0
        a = np.where(go_in, mid, a)
        f_a = np.where(go_in, f_mid, f_a)
        b = np.where(go_in, b, mid)
    return a


def _cache_path(cache_dir: str, coupling: float, level: int, resolution: float) -> str:
    return os.path.join(cache_dir, f"bands_{coupling:.12g}_{level}_{resolution:.12g}.json")


def _cache_load(path: str, coupling: float, level: int, resolution: float, window: Interval):
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("schema_version") != 1:
        return None
    if (
        payload.get("coupling") != coupling
        or payload.get("level") != level
        or payload.get("resolution") != resolution
        or payload.get("window") != [window.lo, window.hi]
    ):
        return None
    return IntervalSet(payload["intervals"])


def _cache_store(
    path: str,
    coupling: float,
    level: int,
    resolution: float,
    window: Interval,
    bands: IntervalSet,
) -> None:
    payload = {
        "schema_version": 1,
        "coupling": coupling,
        "level": level,
        "resolution": resolution,
        "window": [window.lo, window.hi],
        "intervals": [[lo, hi] for lo, hi in zip(bands.los, bands.his)],
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)  # atomic publish, safe under concurrent writers
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def resolve_cache_dir(cache_dir: str | None) -> str | None:
    if cache_dir is not None:
        return cache_dir
    return os.environ.get(CACHE_ENV_VAR) or None


def band_set(
    coupling: float,
    level: int,
    energy_window: Interval | None = None,
    resolution: float = 1e-4,
    cache_dir: str | None = None,
) -> BandSet:
    """Bands of |a_level| <= 1 over the window by scan plus bisection.

    The grid step equals ``resolution``; each sign change of |a_k| - 1 is
    refined by bisection until the bracket is narrower than
    resolution * 1e-3 and the edge residual is below EDGE_VALUE_TOL.
    Bands narrower than the grid step can be missed; that is the
    resolution contract.  With a cache directory (argument or the
    CANTOR_SPECTRA_CACHE variable) results are stored at full precision
    keyed by (coupling, level, resolution).
    """
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    if level < 0 or level > MAX_HALF_TRACE_LEVEL:
        raise ValueError(f"level must lie in [0, {MAX_HALF_TRACE_LEVEL}]")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    window = energy_window if energy_window is not None else default_energy_window(coupling)
    if window.length <= 0.0:
        raise ValueError("energy window must have positive length")

    cache = resolve_cache_dir(cache_dir)
    if cache is not None:
        path = _cache_path(cache, coupling, level, resolution)
        hit = _cache_load(path, coupling, level, resolution, window)
        if hit is not None:
            return BandSet(coupling, level, hit)

    n_pts = int(math.ceil(window.length / resolution)) + 1
    if n_pts > MAX_SCAN_POINTS:
        raise BudgetExceededError(
            f"scan grid of {n_pts} points exceeds the {MAX_SCAN_POINTS} budget"
        )
    grid = np.linspace(window.lo, window.hi, n_pts)
    vals = np.abs(_half_trace(grid, coupling, level)) - 1.0
    inside = vals <= 0.0

    if not np.any(inside):
        result = BandSet(coupling, level, IntervalSet())
        if cache is not None:
            _cache_store(path, coupling, level, resolution, window, result.bands)
        return result

    flips = np.diff(inside.astype(np.int8))
    starts = np.flatnonzero(flips == 1) + 1  # first inside index of each run
    ends = np.flatnonzero(flips == -1)  # last inside index of each run
    if inside[0]:
        starts = np.concatenate(([0], starts))
    if inside[-1]:
        ends = np.concatenate((ends, [n_pts - 1]))

    tol_e = resolution * 1e-3
    left = grid[starts].astype(float)
    refine_left = starts > 0
    left[refine_left] = _refine_edges(
        coupling, level, grid[starts[refine_left]], grid[starts[refine_left] - 1], tol_e
    )
    right = grid[ends].astype(float)
    refine_right = ends < n_pts - 1
    right[refine_right] = _refine_edges(
        coupling, level, grid[ends[refine_right]], grid[ends[refine_right] + 1], tol_e
    )

    bands = normalize(list(zip(left, right)))
    result = BandSet(coupling, level, bands)
    if cache is not None:
        _cache_store(path, coupling, level, resolution, window, result.bands)
    return result


def _cover(low: BandSet, high: BandSet) -> IntervalSet:
    """Union of the bands of two levels, merged into normalized form."""
    return _merge_sorted_arrays(
        np.concatenate((low.bands.los, high.bands.los)),
        np.concatenate((low.bands.his, high.bands.his)),
    )


def spectrum_approximant(
    coupling: float,
    level: int,
    resolution: float = 1e-4,
    energy_window: Interval | None = None,
    cache_dir: str | None = None,
) -> IntervalSet:
    """Cover sigma_level united with sigma_{level+1}, normalized.

    These unions decrease with the level and contain the spectrum, so each
    one is an outer approximation.
    """
    return _cover(
        band_set(coupling, level, energy_window, resolution, cache_dir),
        band_set(coupling, level + 1, energy_window, resolution, cache_dir),
    )


def sum_spectrum(
    coupling_1: float,
    coupling_2: float,
    level: int,
    resolution: float = 1e-4,
    cache_dir: str | None = None,
) -> IntervalSet:
    """Minkowski sum of the two level-k covers: the square-model spectrum."""
    a = spectrum_approximant(coupling_1, level, resolution, cache_dir=cache_dir)
    b = spectrum_approximant(coupling_2, level, resolution, cache_dir=cache_dir)
    return minkowski_sum(a, b)


def fibonacci_potential(n_sites: int, coupling: float) -> np.ndarray:
    """On-site values lambda * chi_[1-alpha, 1)(n alpha mod 1), n = 1..N."""
    if n_sites < 1:
        raise ValueError("need at least one site")
    n = np.arange(1, n_sites + 1, dtype=float)
    frac = (n * ALPHA) % 1.0
    return np.where(frac >= 1.0 - ALPHA, float(coupling), 0.0)


def finite_chain_dos(
    coupling: float, n_sites: int, energy_grid
) -> list[tuple[float, float]]:
    """Integrated density of states of the free-boundary finite chain.

    For each grid energy the number of eigenvalues below it is obtained by
    Sturm-sequence sign counting on the tridiagonal matrix (diagonal =
    Fibonacci potential, unit hopping); no eigenvectors are computed.
    Returns (energy, cdf) pairs with cdf = count / n_sites.
    """
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    grid = np.asarray(energy_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("energy grid must be a non-empty 1-d sequence")
    if np.any(~np.isfinite(grid)):
        raise ValueError("energy grid must be finite")
    v = fibonacci_potential(n_sites, coupling)
    counts = np.zeros(grid.shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        d = v[0] - grid
        d = np.where(d == 0.0, -1e-300, d)
        counts += d < 0.0
        for i in range(1, n_sites):
            d = (v[i] - grid) - 1.0 / d
            d = np.where(d == 0.0, -1e-300, d)
            counts += d < 0.0
    return [(float(e), float(c) / n_sites) for e, c in zip(grid, counts)]


def band_dos(
    coupling: float,
    level: int,
    resolution: float = 1e-4,
    energy_window: Interval | None = None,
    cache_dir: str | None = None,
) -> BandMeasure:
    """Density of states putting weight 1/count on each level-k band.

    The equal-weight rule is the periodic-approximant normalization; its
    distance to the finite-chain count is a test target, not an identity.
    """
    return _equal_weight_dos(band_set(coupling, level, energy_window, resolution, cache_dir))


def _equal_weight_dos(bs: BandSet) -> BandMeasure:
    """Weight 1/count on each band of one level; fails on an empty band set."""
    if bs.bands.is_empty:
        raise ValueError(
            f"no bands found at coupling {bs.coupling}, level {bs.level}; "
            "widen the window or refine the resolution"
        )
    return BandMeasure.equal_weights_on(bs.bands)
