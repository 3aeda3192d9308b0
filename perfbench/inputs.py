"""Seeded inputs of the three workloads.

Everything the program receives is made here from the seed; the same seed
gives the same inputs.  ``FULL`` is the size the benchmark measures and
``SMOKE`` a tiny size for the smoke test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Size:
    # sweep and phase-cli: phase_diagram.sweep settings
    level: int
    resolution: float
    samples: int
    grid_n: int  # couplings per axis of the full sweep grid
    slices: int  # the sweep axis is cut into this many interleaved slices
    cli_n: int  # couplings per axis of the phase-cli grid
    # queries
    spectrum_levels: tuple
    pair_level: int  # sumset covers and dos bands
    chain_sites: int
    dos_energies: int
    convolve_levels: tuple
    orbit_level: int
    orbit_energies: int


FULL = Size(
    level=12,
    resolution=3e-6,
    samples=400,
    grid_n=40,
    slices=10,
    cli_n=10,
    spectrum_levels=(15, 16, 17),
    pair_level=12,
    chain_sites=10_000,
    dos_energies=2001,
    convolve_levels=(9, 10, 11),
    orbit_level=15,
    orbit_energies=10_000,
)

SMOKE = Size(
    level=8,
    resolution=1e-4,
    samples=100,
    grid_n=4,
    slices=2,
    cli_n=2,
    spectrum_levels=(8, 9),
    pair_level=8,
    chain_sites=300,
    dos_energies=101,
    convolve_levels=(5, 6),
    orbit_level=8,
    orbit_energies=200,
)

LAMBDA_LO, LAMBDA_HI = 0.1, 8.0
QUERY_KINDS = ("dos", "spectrum", "sumset", "convolve", "orbit")


def grid_shift(seed: int, size: Size, pass_index: int = 0) -> float:
    """Seeded fraction of one step of the sweep grid; exactly 0 for seed 0."""
    if seed == 0 and pass_index == 0:
        return 0.0
    step = (LAMBDA_HI - LAMBDA_LO) / (size.grid_n - 1)
    return float(np.random.default_rng([seed, pass_index]).random()) * step


def sweep_slices(seed: int, size: Size, pass_index: int = 0) -> list[tuple[float, ...]]:
    """The shifted sweep axis cut into interleaved slices axis[j::slices].

    Seed 0 is the default grid lambda_range(0.1, 8, 40); each slice spans
    the whole coupling range, so slices cost about the same.  A run that
    gets through the whole axis goes on with a fresh shift per pass, so
    every coupling it classifies is new.
    """
    from cantor_spectra.phase_diagram import lambda_range

    shift = grid_shift(seed, size, pass_index)
    axis = tuple(x + shift for x in lambda_range(LAMBDA_LO, LAMBDA_HI, size.grid_n))
    return [axis[j :: size.slices] for j in range(size.slices)]


def cli_grid(seed: int, size: Size) -> str:
    """LO:HI:N spec of the phase-cli grid, shifted like the sweep axis."""
    shift = grid_shift(seed, size)
    return f"{LAMBDA_LO + shift!r}:{LAMBDA_HI + shift!r}:{size.cli_n}"


@dataclass(frozen=True)
class Query:
    kind: str
    couplings: tuple  # one coupling, two for sumset and convolve
    levels: tuple
    energy_seed: tuple  # seeds the orbit request's energies


def query_rounds(seed: int, size: Size):
    """Endless rounds of one request of each kind, couplings drawn from [0.1, 8].

    The coupling range is cut into 5 x 5 strata.  Request kind k of round r
    takes coarse stratum (k + r - 1) mod 5 and fine stratum (k + 2r - 1)
    mod 5, so every five rounds each kind meets every coarse stratum once,
    every run sees the same spread of couplings, and the first request is
    a dos in the top stratum: its energy window is the widest, and it shows
    the bands the scan loses at large couplings.  The seed places each
    coupling inside its stratum and draws the orbit energies.  Levels cycle
    with the round.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(QUERY_KINDS)
    width = (LAMBDA_HI - LAMBDA_LO) / (n * n)

    def draw(coarse: int, fine: int) -> float:
        return LAMBDA_LO + (n * ((coarse - 1) % n) + (fine - 1) % n + float(rng.random())) * width

    for r in itertools.count():
        batch = []
        for k, kind in enumerate(QUERY_KINDS):
            lam = draw(k + r, k + 2 * r)
            if kind == "spectrum":
                levels = size.spectrum_levels
                q = Query(kind, (lam,), (levels[r % len(levels)],), ())
            elif kind == "sumset":
                q = Query(kind, (lam, draw(k + r + 2, k + 2 * r + 1)), (size.pair_level,), ())
            elif kind == "dos":
                q = Query(kind, (lam,), (size.pair_level,), ())
            elif kind == "convolve":
                levels = size.convolve_levels
                pair = (levels[r % len(levels)], levels[(r + 1) % len(levels)])
                q = Query(kind, (lam, draw(k + r + 3, k + 2 * r + 1)), pair, ())
            else:
                q = Query(kind, (lam,), (size.orbit_level,), (seed, r, k))
            batch.append(q)
        yield batch


def make(workload: str, seed: int, size: Size, n_rounds: int = 64):
    """The inputs of one workload; for queries its first n_rounds rounds."""
    if workload == "sweep":
        return sweep_slices(seed, size)
    if workload == "phase-cli":
        return cli_grid(seed, size)
    if workload == "queries":
        return list(itertools.islice(query_rounds(seed, size), n_rounds))
    raise ValueError(f"unknown workload {workload!r}")
