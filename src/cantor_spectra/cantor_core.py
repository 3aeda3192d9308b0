"""Closed-interval unions and affine Cantor-set generators.

Two types carry most of the weight: ``IntervalSet``, a normalized finite
union of closed intervals, and ``CantorSystem``, a finite family of affine
contractions of a base interval whose attractor is a Cantor set.  Spectra,
sum sets and measure supports downstream all reduce to interval unions, so
the set operations here (normalize, Minkowski sum, box counting, thickness)
are vectorized with numpy.

Conventions:
  * intervals are closed, ``lo <= hi``, degenerate (point) intervals allowed;
  * an IntervalSet is strictly increasing: prev.hi < next.lo, so touching
    endpoints are merged on construction;
  * box counts use a grid anchored at the set's infimum, and an interval
    occupies the boxes its interior meets (aligned endpoints do not spill
    into the neighbouring box).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Hard cap on how many intervals a generated approximant may hold.
MAX_APPROXIMANT_INTERVALS = 2 ** 24

# Relative slack when snapping near-integer box indices to the grid.
_SNAP_REL = 1e-9


class BudgetExceededError(RuntimeError):
    """An operation would exceed its configured size budget."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def _as_lo_hi_arrays(intervals: Iterable) -> tuple[np.ndarray, np.ndarray]:
    los, his = [], []
    for item in intervals:
        if isinstance(item, Interval):
            los.append(item.lo)
            his.append(item.hi)
        else:
            lo, hi = item
            los.append(float(lo))
            his.append(float(hi))
    return np.asarray(los, dtype=float), np.asarray(his, dtype=float)


class IntervalSet:
    """Sorted union of pairwise disjoint closed intervals.

    The constructor validates that the input is already normalized
    (strictly increasing, no touching endpoints).  Use :func:`normalize`
    for arbitrary input.
    """

    __slots__ = ("_los", "_his", "_cached_intervals")

    def __init__(self, intervals: Iterable = ()):
        los, his = _as_lo_hi_arrays(intervals)
        self._init_from_arrays(los, his, validate=True)

    def _init_from_arrays(self, los: np.ndarray, his: np.ndarray, validate: bool) -> None:
        if validate:
            if np.any(~np.isfinite(los)) or np.any(~np.isfinite(his)):
                raise ValueError("interval endpoints must be finite")
            if np.any(los > his):
                raise ValueError("every interval needs lo <= hi")
            if los.size > 1 and np.any(los[1:] <= his[:-1]):
                raise ValueError(
                    "intervals must be strictly increasing and non-touching; "
                    "use normalize() to merge"
                )
        object.__setattr__(self, "_los", los)
        object.__setattr__(self, "_his", his)
        object.__setattr__(self, "_cached_intervals", None)

    @classmethod
    def _from_sorted_arrays(cls, los: np.ndarray, his: np.ndarray) -> "IntervalSet":
        """Trusted constructor for arrays already in normalized form."""
        s = cls.__new__(cls)
        s._init_from_arrays(np.asarray(los, float), np.asarray(his, float), validate=False)
        return s

    # -- basic queries -------------------------------------------------

    @property
    def los(self) -> np.ndarray:
        return self._los

    @property
    def his(self) -> np.ndarray:
        return self._his

    @property
    def intervals(self) -> tuple[Interval, ...]:
        cached = self._cached_intervals
        if cached is None:
            cached = tuple(Interval(lo, hi) for lo, hi in zip(self._los, self._his))
            object.__setattr__(self, "_cached_intervals", cached)
        return cached

    def __len__(self) -> int:
        return int(self._los.size)

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return (
            self._los.shape == other._los.shape
            and bool(np.all(self._los == other._los))
            and bool(np.all(self._his == other._his))
        )

    def __repr__(self) -> str:
        if len(self) <= 4:
            body = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self._los, self._his))
        else:
            body = f"{len(self)} intervals on [{self._los[0]:g}, {self._his[-1]:g}]"
        return f"IntervalSet({body})"

    @property
    def is_empty(self) -> bool:
        return self._los.size == 0

    def measure(self) -> float:
        """Total length (Lebesgue measure) of the union."""
        if self.is_empty:
            return 0.0
        return float(np.sum(self._his - self._los))

    @property
    def diameter(self) -> float:
        if self.is_empty:
            return 0.0
        return float(self._his[-1] - self._los[0])

    def hull(self) -> Interval:
        if self.is_empty:
            raise ValueError("empty set has no hull")
        return Interval(float(self._los[0]), float(self._his[-1]))

    def contains_points(self, xs) -> np.ndarray:
        """Vectorized membership test for points."""
        xs = np.asarray(xs, dtype=float)
        if self.is_empty:
            return np.zeros(xs.shape, dtype=bool)
        idx = np.searchsorted(self._los, xs, side="right") - 1
        ok = idx >= 0
        safe = np.where(ok, idx, 0)
        return ok & (xs <= self._his[safe])

    def contains_set(self, other: "IntervalSet") -> bool:
        """True when every interval of ``other`` lies inside one of ours."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        idx = np.searchsorted(self._los, other._los, side="right") - 1
        if np.any(idx < 0):
            return False
        return bool(np.all(other._his <= self._his[idx]))

    def gaps(self) -> "IntervalSet":
        """Bounded open complementary intervals, returned as closed ones."""
        if len(self) < 2:
            return IntervalSet()
        return IntervalSet._from_sorted_arrays(self._his[:-1].copy(), self._los[1:].copy())

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"intervals": [[lo, hi] for lo, hi in zip(self._los, self._his)]})

    @classmethod
    def from_json(cls, text: str) -> "IntervalSet":
        payload = json.loads(text)
        return cls(payload["intervals"])

    def to_csv(self) -> str:
        lines = ["lo,hi"]
        lines += [f"{float(lo)!r},{float(hi)!r}" for lo, hi in zip(self._los, self._his)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "IntervalSet":
        rows = []
        for line in text.strip().splitlines()[1:]:
            lo, hi = line.split(",")
            rows.append((float(lo), float(hi)))
        return cls(rows)


def _merge_sorted_arrays(los: np.ndarray, his: np.ndarray) -> IntervalSet:
    """Merge overlapping/touching intervals given unsorted arrays."""
    if los.size == 0:
        return IntervalSet()
    order = np.argsort(los, kind="stable")
    los = los[order]
    his = his[order]
    cummax = np.maximum.accumulate(his)
    new_group = np.empty(los.size, dtype=bool)
    new_group[0] = True
    # strict inequality: touching endpoints fall into the same group
    new_group[1:] = los[1:] > cummax[:-1]
    starts = np.flatnonzero(new_group)
    out_los = los[starts]
    out_his = np.maximum.reduceat(his, starts)
    return IntervalSet._from_sorted_arrays(out_los, out_his)


def normalize(intervals: Iterable) -> IntervalSet:
    """Sort intervals and merge overlapping or touching ones.

    Accepts Interval objects or (lo, hi) pairs.  Idempotent.
    """
    los, his = _as_lo_hi_arrays(intervals)
    if np.any(~np.isfinite(los)) or np.any(~np.isfinite(his)):
        raise ValueError("interval endpoints must be finite")
    if np.any(los > his):
        raise ValueError("every interval needs lo <= hi")
    return _merge_sorted_arrays(los, his)


def minkowski_sum(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Pointwise sum set {x + y : x in a, y in b}, normalized.

    For interval unions this is the normalized union of all pairwise
    endpoint sums [a.lo + b.lo, a.hi + b.hi].
    """
    if a.is_empty or b.is_empty:
        return IntervalSet()
    n_pairs = len(a) * len(b)
    if n_pairs > MAX_APPROXIMANT_INTERVALS:
        raise BudgetExceededError(
            f"minkowski_sum would build {n_pairs} intervals "
            f"(budget {MAX_APPROXIMANT_INTERVALS})"
        )
    los = (a.los[:, None] + b.los[None, :]).ravel()
    his = (a.his[:, None] + b.his[None, :]).ravel()
    return _merge_sorted_arrays(los, his)


@dataclass(frozen=True)
class CantorSystem:
    """Affine iterated function system on a base interval.

    Each branch is a pair (ratio, offset) acting as x -> ratio*x + offset.
    Branch images must lie inside the base and be pairwise disjoint with
    positive gaps, so the attractor is a Cantor set.
    """

    base: Interval
    branches: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.branches) < 2:
            raise ValueError("need at least 2 branches")
        object.__setattr__(
            self, "branches", tuple((float(r), float(o)) for r, o in self.branches)
        )
        images = []
        for ratio, offset in self.branches:
            if not (0.0 < ratio < 1.0):
                raise ValueError(f"branch ratio must be in (0, 1), got {ratio}")
            img_lo = ratio * self.base.lo + offset
            img_hi = ratio * self.base.hi + offset
            if img_lo < self.base.lo - 1e-12 or img_hi > self.base.hi + 1e-12:
                raise ValueError("branch image must stay inside the base interval")
            images.append((img_lo, img_hi))
        images.sort()
        for (_, prev_hi), (next_lo, _) in zip(images, images[1:]):
            if next_lo <= prev_hi:
                raise ValueError("branch images must be disjoint with positive gaps")

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r for r, _ in self.branches])


def middle_alpha_system(a: float) -> CantorSystem:
    """Two-branch system on [0, 1] keeping the outer portions of length a.

    Branches x -> a*x and x -> a*x + (1 - a); a = 1/3 gives the classical
    middle-third set.
    """
    if not (0.0 < a < 0.5):
        raise ValueError(f"ratio must satisfy 0 < a < 1/2, got {a}")
    return CantorSystem(base=Interval(0.0, 1.0), branches=((a, 0.0), (a, 1.0 - a)))


def approximant(sys: CantorSystem, depth: int) -> IntervalSet:
    """Depth-d construction stage: union of branch-word images of the base.

    Depth 0 returns the base itself; each extra level replaces every
    interval by its images under all branches, giving exactly
    (branch count)**depth disjoint intervals.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n_branches = len(sys.branches)
    if n_branches ** depth > MAX_APPROXIMANT_INTERVALS:
        raise BudgetExceededError(
            f"approximant at depth {depth} needs {n_branches ** depth} intervals "
            f"(budget {MAX_APPROXIMANT_INTERVALS})"
        )
    los = np.array([sys.base.lo], dtype=float)
    his = np.array([sys.base.hi], dtype=float)
    for _ in range(depth):
        los = np.concatenate([r * los + o for r, o in sys.branches])
        his = np.concatenate([r * his + o for r, o in sys.branches])
        order = np.argsort(los, kind="stable")
        los = los[order]
        his = his[order]
    # branch images are disjoint by construction, so the arrays are normalized
    return IntervalSet._from_sorted_arrays(los, his)


def similarity_dimension(sys: CantorSystem, tol: float = 1e-12) -> float:
    """Root s of sum(ratio_i ** s) = 1, located by bisection.

    For disjoint branch images the root is unique in (0, 1); bisection is
    used so convergence never depends on a derivative.
    """
    ratios = sys.ratios
    lo, hi = 0.0, 1.0
    # f(0) = n_branches - 1 > 0 and f(1) = sum(ratios) - 1 < 0 because the
    # images are disjoint inside the base
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.sum(ratios ** mid) - 1.0 > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _snap_near_integers(t: np.ndarray) -> np.ndarray:
    n = np.rint(t)
    near = np.abs(t - n) <= _SNAP_REL * np.maximum(1.0, np.abs(t))
    return np.where(near, n, t)


def _box_count(s: IntervalSet, eps: float) -> int:
    """Number of grid boxes of size eps (anchored at inf of s) meeting s."""
    x0 = s.los[0]
    t_lo = _snap_near_integers((s.los - x0) / eps)
    t_hi = _snap_near_integers((s.his - x0) / eps)
    j0 = np.floor(t_lo).astype(np.int64)
    j1 = np.ceil(t_hi).astype(np.int64) - 1
    j1 = np.maximum(j1, j0)  # degenerate intervals still occupy one box
    if j0.size == 1:
        return int(j1[0] - j0[0] + 1)
    # intervals are sorted and disjoint, so the index ranges are sorted;
    # clip each range's start past the previous range's end and accumulate
    starts = np.maximum(j0[1:], j1[:-1] + 1)
    lengths = np.maximum(j1[1:] - starts + 1, 0)
    return int(j1[0] - j0[0] + 1 + np.sum(lengths))


def box_dimension_estimate(
    s: IntervalSet, scales: Sequence[float]
) -> tuple[float, float]:
    """Least-squares slope of log(box count) against log(1/scale).

    Returns (estimate, fit_r2).  Needs at least 4 scales, each positive and
    smaller than the diameter of s.  A degenerate set (empty or a single
    point) reports dimension 0 with perfect fit.
    """
    scales = np.asarray(sorted(set(float(e) for e in scales)), dtype=float)
    if scales.size < 4:
        raise ValueError("need at least 4 distinct scales")
    if np.any(scales <= 0.0):
        raise ValueError("scales must be positive")
    if s.is_empty or s.diameter == 0.0:
        return 0.0, 1.0
    if np.any(scales >= s.diameter):
        raise ValueError("every scale must be smaller than the set diameter")
    counts = np.array([_box_count(s, eps) for eps in scales], dtype=float)
    x = np.log(1.0 / scales)
    y = np.log(counts)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def thickness(sys: CantorSystem, depth: int) -> float:
    """Newhouse thickness of the depth-d approximant (gap-and-bridge).

    For every bounded gap revealed at this depth, the bridge on each side
    extends to the nearest gap at least as long (or to the hull boundary);
    the thickness is the minimum over gaps of min(bridge)/gap.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    s = approximant(sys, depth)
    gap_lo = s.his[:-1]
    gap_hi = s.los[1:]
    gap_len = gap_hi - gap_lo
    n = gap_len.size
    hull_lo = s.los[0]
    hull_hi = s.his[-1]

    # nearest gap to the left/right with length >= ours, via monotonic stacks
    left_edge = np.empty(n)
    stack: list[int] = []
    for i in range(n):
        while stack and gap_len[stack[-1]] < gap_len[i]:
            stack.pop()
        left_edge[i] = gap_hi[stack[-1]] if stack else hull_lo
        stack.append(i)
    right_edge = np.empty(n)
    stack.clear()
    for i in range(n - 1, -1, -1):
        while stack and gap_len[stack[-1]] < gap_len[i]:
            stack.pop()
        right_edge[i] = gap_lo[stack[-1]] if stack else hull_hi
        stack.append(i)

    bridges = np.minimum(gap_lo - left_edge, right_edge - gap_hi)
    return float(np.min(bridges / gap_len))


def gap_lemma_check(t1: float, t2: float) -> bool:
    """Thickness product criterion: True iff t1 * t2 > 1 (strictly)."""
    if t1 < 0.0 or t2 < 0.0:
        raise ValueError("thickness values must be non-negative")
    return t1 * t2 > 1.0


def dim_sum_bound(d1: float, d2: float) -> float:
    """Upper bound min(d1 + d2, 1) for the dimension of a sum set or a convolution."""
    for d in (d1, d2):
        if not (0.0 <= d <= 1.0):
            raise ValueError(f"dimension must lie in [0, 1], got {d}")
    return min(d1 + d2, 1.0)
