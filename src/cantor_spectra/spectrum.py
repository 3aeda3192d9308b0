"""Band covers and densities of states from the half-trace recursion.

The half-traces a_k(E) obey a_{k+1} = 2 a_k a_{k-1} - a_{k-2} starting
from ((E - lambda)/2, E/2, 1); their unit sublevel sets
sigma_k = {E : |a_k(E)| <= 1} are the spectra of the periodic
approximants, and sigma_k united with sigma_{k+1} is a cover of the true
spectrum that shrinks to it as k grows.  For lambda > 0, sigma_k has
exactly F_k = deg a_k bands, each holding one zero of a_k; the band engine
finds them all, level by level, from brackets built out of the two levels
below (Suto, CMP 1987; Raymond 1997).  The resulting interval unions feed
the Cantor-set machinery in :mod:`cantor_core`.

Two independent routes to the density of states are provided: equal band
weights on a level-k cover (the periodic-approximant weighting) and
eigenvalue counting for a finite chain by Sturm-sequence sign counts.
They approximate the same limit and are kept separate so one can check
the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor_core import BudgetExceededError, Interval, IntervalSet, minkowski_sum
from .cantor_core import _merge_sorted_arrays
from .measures import BandMeasure

# Inverse golden ratio; frequency of the quasiperiodic potential.
ALPHA = (math.sqrt(5.0) - 1.0) / 2.0

MAX_HALF_TRACE_LEVEL = 40

# Most bands one engine pass may hold, summed over its couplings.  Its
# working arrays take about 190 bytes per band (measured at level 25), so
# 2**20 bands, level 29 at one coupling, stay near 200 MB.
MAX_ENGINE_BANDS = 2 ** 20

# A recursion step that overflows saturates at the largest float, so wide
# energy grids stay finite while every representable value stays exact.
_SATURATION = float(np.finfo(float).max)

# The band engine clips its traces to +-_TRACE_CAP every _CLIP_EVERY steps:
# six unclipped steps from the cap stay below 2**700, so nothing overflows.
# A trace this large has escaped for good, so clipping keeps its sign and
# its place outside the bands.
_TRACE_CAP = 2.0 ** 32
_CLIP_EVERY = 6

# Halvings of each engine bracket: brackets are at most 2 (3 + lambda)
# wide, so 56 halvings reach the float spacing of the energies.
_HALVINGS = 56

# Golden-section steps allowed for finding a point of a gap.  A gap that
# is not found by then is narrower than the float resolution of |a_k| and
# its two bands come out merged: at levels 8 and 13 every band is found
# down to coupling 1e-6, and some merge at 1e-8.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 80

# Sites per block of Sturm pivots; more rows raise the peak memory.
_STURM_ROWS = 8


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
    a_prev2 = np.ones_like(e)
    a_prev1 = e / 2.0
    if k == -1:
        out = a_prev2
    elif k == 0:
        out = a_prev1
    else:
        out = (e - coupling) / 2.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(k - 1):
                a_next = np.clip(2.0 * out * a_prev1 - a_prev2, -_SATURATION, _SATURATION)
                out, a_prev1, a_prev2 = a_next, out, a_prev1
    return float(out) if e.ndim == 0 else out


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
    """Window [-(3 + lambda), 3 + lambda] containing every band with margin."""
    return Interval(-(3.0 + coupling), 3.0 + coupling)


# -- the band engine ------------------------------------------------------


def _traces(e: np.ndarray, lam: np.ndarray, level: int) -> np.ndarray:
    """Traces x_level = 2 a_level at energies e, for couplings lam broadcast against e.

    x_{k+1} = x_k x_{k-1} - x_{k-2} is the half-trace recursion scaled by
    two, which is exact in floats, so |x| <= 2 exactly where |a| <= 1.
    Traces beyond _TRACE_CAP are clipped to it every _CLIP_EVERY steps.
    """
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
        if step % _CLIP_EVERY == 0:
            for v in (x_prev2, x_prev1, x):
                np.minimum(v, _TRACE_CAP, out=v)
                np.maximum(v, -_TRACE_CAP, out=v)
    return x


def _bisect(keep: np.ndarray, other: np.ndarray, holds) -> np.ndarray:
    """The ``keep`` ends after _HALVINGS halvings of the brackets [keep, other].

    ``holds`` is true at every keep end and false at every other end; a
    keep end only ever moves to a midpoint where ``holds`` is true.
    """
    keep = keep.copy()
    step = other - keep
    for _ in range(_HALVINGS):
        step *= 0.5
        mid = keep + step
        np.copyto(keep, mid, where=holds(mid))
    return keep


def _gap_points(zeros: np.ndarray, lam: np.ndarray, level: int) -> np.ndarray:
    """One energy with |a_level| > 1 between each two consecutive zeros of a_level.

    Between consecutive zeros |a| rises to one maximum and falls, so a
    golden-section search for that maximum meets the gap; each search stops
    at its first point inside the gap.
    """
    a = zeros[:, :-1].ravel()
    b = zeros[:, 1:].ravel()
    lam = np.broadcast_to(lam, zeros[:, 1:].shape).ravel()
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = np.abs(_traces(c, lam, level))
    fd = np.abs(_traces(d, lam, level))
    found = np.where(fc > fd, c, d)
    todo = np.flatnonzero(np.maximum(fc, fd) <= 2.0)
    a, b, c, d, fc, fd, lam = (v[todo] for v in (a, b, c, d, fc, fd, lam))
    for _ in range(_GOLDEN_STEPS):
        if todo.size == 0:
            break
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = np.abs(_traces(x, lam, level))
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
        hit = fx > 2.0
        found[todo[hit]] = x[hit]
        rest = ~hit
        todo, a, b, c, d, fc, fd, lam = (v[rest] for v in (todo, a, b, c, d, fc, fd, lam))
    return found.reshape(zeros.shape[0], -1)


def _band_edges(couplings, levels: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Band edges of sigma_k for every coupling > 0 and every requested level k.

    Returns one (los, his) pair per level, each of shape (couplings, F_k),
    row i belonging to couplings[i]; rows do not depend on one another, so a
    row is bitwise the same whether its coupling comes alone or in a batch.

    Level by level from j = 2: the zeros of a_{j-1} and one gap point per gap
    of sigma_{j-2}, with the window ends, are F_j + 1 separators that isolate
    the F_j zeros of a_j, one per bracket; the window ends are those of
    :func:`default_energy_window`.  Each zero is bisected with the
    sign its bracket's left end has by alternation, (-1)**(F_j - i), so a
    zero that agrees with a separator to the last bit lands on it instead of
    being lost.  Then one gap point between each two consecutive zeros and
    bisection of |a_j| - 1 between each zero and its neighbouring gap points
    give the edges, always keeping the inside end, so every edge satisfies
    |a_j| <= 1.
    """
    lam = np.asarray(couplings, dtype=float).reshape(-1, 1)
    left_end, right_end = -(3.0 + lam), 3.0 + lam
    zeros = (np.zeros_like(lam), lam)  # of a_0 and a_1
    gaps = (lam[:, :0], lam[:, :0])  # of sigma_0 and sigma_1: none
    edges = {0: (np.full_like(lam, -2.0), np.full_like(lam, 2.0)), 1: (lam - 2.0, lam + 2.0)}
    for j in range(2, max(levels) + 1):
        inner = np.sort(np.concatenate((zeros[1], gaps[0]), axis=1), axis=1)
        sep = np.concatenate((left_end, inner, right_end), axis=1)
        count = sep.shape[1] - 1
        sign = np.where((count - np.arange(count)) % 2 == 0, 1.0, -1.0)
        z = _bisect(sep[:, :-1], sep[:, 1:], lambda e: _traces(e, lam, j) * sign > 0.0)
        g = _gap_points(z, lam, j)
        zeros, gaps = (zeros[1], z), (gaps[1], g)
        if j in levels:
            outside = np.concatenate((left_end, g, g, right_end), axis=1)
            inside = _bisect(
                np.concatenate((z, z), axis=1),
                outside,
                lambda e: np.abs(_traces(e, lam, j)) <= 2.0,
            )
            edges[j] = (inside[:, :count], inside[:, count:])
    return [edges[k] for k in levels]


def _band_sets(couplings: Sequence[float], levels: Sequence[int]) -> list[list[BandSet]]:
    """Band sets of each coupling at each level, from one engine pass.

    At coupling zero a_k(2 cos t) = cos(F_k t), so every level is the one
    band [-2, 2].
    """
    lams = [float(c) for c in couplings]
    if any(c < 0.0 for c in lams):
        raise ValueError("coupling must be >= 0")
    if any(k < 0 or k > MAX_HALF_TRACE_LEVEL for k in levels):
        raise ValueError(f"level must lie in [0, {MAX_HALF_TRACE_LEVEL}]")
    positive = [c for c in lams if c > 0.0]
    n_bands = len(positive) * half_trace_degree(max(levels))
    if n_bands > MAX_ENGINE_BANDS:
        raise BudgetExceededError(
            f"{n_bands} bands at level {max(levels)} exceed the {MAX_ENGINE_BANDS} budget"
        )
    edges = _band_edges(positive, levels) if positive else []
    rows = iter(range(len(positive)))
    out = []
    for c in lams:
        if c == 0.0:
            out.append([BandSet(c, k, IntervalSet([(-2.0, 2.0)])) for k in levels])
            continue
        i = next(rows)
        out.append(
            [
                BandSet(c, k, _merge_sorted_arrays(lo[i], hi[i]))
                for k, (lo, hi) in zip(levels, edges)
            ]
        )
    return out


def band_set(coupling: float, level: int) -> BandSet:
    """All bands of |a_level| <= 1: exactly F_level of them for coupling > 0.

    Every edge e is an inside point, |a_level(e)| <= 1, within a few float
    spacings of the true edge.
    """
    return _band_sets((coupling,), (level,))[0][0]


def resolve_cache_dir(cache_dir: str | None = None) -> None:
    """Always None, for callers of the former disk cache: band sets are never cached."""
    return None


def _cover(low: BandSet, high: BandSet) -> IntervalSet:
    """Union of the bands of two levels, merged into normalized form."""
    return _merge_sorted_arrays(
        np.concatenate((low.bands.los, high.bands.los)),
        np.concatenate((low.bands.his, high.bands.his)),
    )


def spectrum_approximant(
    coupling: float, level: int, resolution: float | None = None
) -> IntervalSet:
    """Cover sigma_level united with sigma_{level+1}, normalized.

    These unions decrease with the level and contain the spectrum, so each
    one is an outer approximation.  ``resolution`` is accepted for older
    callers and ignored: the bands are exact.
    """
    return _cover(*_band_sets((coupling,), (level, level + 1))[0])


def sum_spectrum(coupling_1: float, coupling_2: float, level: int) -> IntervalSet:
    """Minkowski sum of the two level-k covers: the square-model spectrum."""
    a = spectrum_approximant(coupling_1, level)
    b = spectrum_approximant(coupling_2, level)
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
    Results are bitwise those of the plain per-site recurrence.
    """
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    grid = np.asarray(energy_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("energy grid must be a non-empty 1-d sequence")
    if np.any(~np.isfinite(grid)):
        raise ValueError("energy grid must be finite")
    # The potential takes two values, 0 and lambda: v_i - E is one of two rows.
    bases = (0.0 - grid, float(coupling) - grid)
    lambda_site = (fibonacci_potential(n_sites, coupling) != 0.0).tobytes()
    block = np.empty((_STURM_ROWS, grid.size))
    rows = list(block)
    counts = np.zeros(grid.size, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        d = bases[lambda_site[0]]
        carry = np.where(d == 0.0, -1e-300, d)  # last pivot of the previous block
        counts += carry < 0.0
        for start in range(1, n_sites, _STURM_ROWS):
            sites = lambda_site[start : start + _STURM_ROWS]
            filled = block[: len(sites)]
            d = carry
            for w, row in zip(sites, rows):
                np.reciprocal(d, out=row)
                d = np.subtract(bases[w], row, out=row)
            if not filled.all():
                # A zero pivot: redo the block with the guard at every site.
                d = carry
                for w, row in zip(sites, rows):
                    d = np.subtract(bases[w], 1.0 / d, out=row)
                    d[d == 0.0] = -1e-300
            counts += (filled < 0.0).sum(axis=0)
            np.copyto(carry, d)
    return [(e, c / n_sites) for e, c in zip(grid.tolist(), counts.tolist())]


def band_dos(coupling: float, level: int, resolution: float | None = None) -> BandMeasure:
    """Density of states putting weight 1/count on each level-k band.

    The equal-weight rule is the periodic-approximant normalization; its
    distance to the finite-chain count is a test target, not an identity.
    ``resolution`` is accepted for older callers and ignored.
    """
    return BandMeasure.equal_weights_on(band_set(coupling, level).bands)
