"""Trace-map iteration on invariant surfaces.

The map T(x, y, z) = (2xy - z, x, y) conserves
G(x, y, z) = x^2 + y^2 + z^2 - 2xyz - 1, so each orbit lives on the level
surface G = lambda^2 / 4 picked out by its coupling.  An energy E belongs
to the spectrum exactly when the forward orbit of the natural initial
point ((E - lambda)/2, E/2, 1) stays bounded; ``classify_orbit`` makes the
budgeted version of that test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

# Orbits are tracked for invariant drift only while their max-norm stays
# below this cap; past it the conserved quantity is swamped by float error.
DRIFT_NORM_CAP = 1e3


@dataclass(frozen=True)
class TracePoint:
    """Point (x, y, z) in trace space; coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for c in (self.x, self.y, self.z):
            if not math.isfinite(c):
                raise ValueError("trace point coordinates must be finite")

    @property
    def max_norm(self) -> float:
        return max(abs(self.x), abs(self.y), abs(self.z))


class OrbitResult(NamedTuple):
    """Outcome of a budgeted orbit run, an immutable named tuple.

    ``step`` is the escape step for escaped orbits, otherwise the number
    of steps run.  ``invariant_drift`` is the largest deviation of G from
    its initial value seen while the orbit stayed within DRIFT_NORM_CAP.
    """

    escaped: bool
    step: int
    max_norm: float
    invariant_drift: float

    @property
    def status(self) -> str:
        return "escaped" if self.escaped else "bounded_up_to"


def trace_step(p: TracePoint) -> TracePoint:
    """One application of T(x, y, z) = (2xy - z, x, y)."""
    return TracePoint(2.0 * p.x * p.y - p.z, p.x, p.y)


def fricke_vogt(p: TracePoint) -> float:
    """Conserved quantity x^2 + y^2 + z^2 - 2xyz - 1."""
    return p.x * p.x + p.y * p.y + p.z * p.z - 2.0 * p.x * p.y * p.z - 1.0


def initial_point(energy: float, coupling: float) -> TracePoint:
    """Natural initial condition ((E - lambda)/2, E/2, 1).

    Lies exactly on the surface G = lambda^2 / 4.
    """
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    return TracePoint((energy - coupling) / 2.0, energy / 2.0, 1.0)


def surface_residual(p: TracePoint, coupling: float) -> float:
    """Signed distance of G(p) from the surface value lambda^2 / 4."""
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")
    return fricke_vogt(p) - coupling * coupling / 4.0


def classify_orbit(
    energy: float,
    coupling: float,
    max_iter: int = 200,
    escape_norm: float = 10.0,
) -> OrbitResult:
    """Run the orbit of the natural initial point under a step budget.

    Escape is declared at the first step whose max-norm exceeds
    ``escape_norm`` while having strictly increased for 3 consecutive
    steps; a non-finite coordinate escapes immediately.  Anything else is
    bounded-up-to ``max_iter``.  Results are bitwise those of the plain
    per-step recurrence.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if escape_norm <= 2.0:
        raise ValueError("escape_norm must exceed 2")
    if coupling < 0.0:
        raise ValueError("coupling must be >= 0")

    x = (energy - coupling) / 2.0
    y = energy / 2.0
    z = 1.0
    g0 = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
    ax, ay, az = abs(x), abs(y), abs(z)
    peak = max(ax, ay, az)
    prev_m = peak
    drift = 0.0
    streak = 0

    for n in range(1, max_iter + 1):
        x, y, z = 2.0 * x * y - z, x, y
        ax, ay, az = abs(x), ax, ay
        # y and z were tested as x; a non-finite start makes this x non-finite.
        if not ax < math.inf:
            return OrbitResult(True, n, peak, drift)
        m = ax
        if ay > m:
            m = ay
        if az > m:
            m = az
        if m > peak:
            peak = m
        if m <= DRIFT_NORM_CAP:
            g = x * x + y * y + z * z - 2.0 * x * y * z - 1.0
            d = abs(g - g0)
            if d > drift:
                drift = d
        if m > escape_norm and m > prev_m:
            streak += 1
            if streak >= 3:
                return OrbitResult(True, n, peak, drift)
        else:
            streak = 0
        prev_m = m

    return OrbitResult(False, max_iter, peak, drift)
