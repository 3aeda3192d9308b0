"""Operations of the three workloads and the checks on their outputs.

Each operation returns a list of failures, each a (kind, message) pair:

* ``raised``: the call raised;
* ``exact``: an invariant that holds for any band list, complete or not,
  was broken (sweep cell count, symmetry and labels; CLI exit code and
  byte-identical artifacts; convolution mass; sum-set hull);
* ``oracle``: a result missed the tolerance of an independent oracle
  (finite-chain eigenvalue count, orbit classification).  The band scan
  loses narrow bands at large couplings, so these fail at the seed.

All library calls go through the module objects, so a tracer that
replaces module attributes sees them.
"""

from __future__ import annotations

import importlib
import os
import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

# Tolerances stated by the acceptance tests.
DOS_SUP_TOL = 0.05  # criterion 7
ORBIT_DISAGREE_TOL = 0.01  # criterion 6
MASS_TOL = 1e-10  # criterion 8
HULL_TOL = 1e-9
ORBIT_ESCAPE = 2.5  # criterion 6 matches the orbit budget to the level
ARTIFACTS = ("cells.csv", "diagram.pgm", "provenance.json")
CLI_TIMEOUT_S = 170


def lib(name: str):
    return importlib.import_module(f"cantor_spectra.{name}")


def timed(task):
    """(seconds, failures) of one operation; an exception is a failure."""
    t0 = perf_counter()
    try:
        failures = task()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none stops the run
        failures = [("raised", f"{type(exc).__name__}: {exc}")]
    return perf_counter() - t0, failures


# -- sweep ---------------------------------------------------------------


def sweep_task(axis, size):
    """One serial, uncached phase_diagram.sweep over axis x axis."""

    def run():
        pd = lib("phase_diagram")
        diagram = pd.sweep(
            axis,
            axis,
            level=size.level,
            resolution=size.resolution,
            samples=size.samples,
            seed=0,
            n_workers=1,
        )
        n = len(axis)
        failures = []
        if len(diagram.cells) != n * n:
            failures.append(("exact", f"{len(diagram.cells)} cells for a {n}x{n} grid"))
            return failures
        labels = [c.regime for c in diagram.cells]
        if any(r not in pd.REGIMES for r in labels):
            failures.append(("exact", "regime label outside REGIMES"))
        if any(labels[i * n + j] != labels[j * n + i] for i in range(n) for j in range(i)):
            failures.append(("exact", "regimes not symmetric under swapping the axes"))
        return failures

    return run


# -- queries -------------------------------------------------------------


def query_task(q, size):
    """One single-coupling request; inputs are prepared before the clock starts."""
    sp, cc, ms, td = lib("spectrum"), lib("cantor_core"), lib("measures"), lib("trace_dynamics")
    res = size.resolution

    if q.kind == "spectrum":

        def run():
            sp.spectrum_approximant(q.couplings[0], q.levels[0], res)
            return []

    elif q.kind == "sumset":

        def run():
            level = q.levels[0]
            a = sp.spectrum_approximant(q.couplings[0], level, res)
            b = sp.spectrum_approximant(q.couplings[1], level, res)
            s = cc.minkowski_sum(a, b)
            if a.is_empty or b.is_empty or s.is_empty:
                return [("exact", "empty cover or sum set")]
            ha, hb, hs = a.hull(), b.hull(), s.hull()
            if abs(hs.lo - (ha.lo + hb.lo)) > HULL_TOL or abs(hs.hi - (ha.hi + hb.hi)) > HULL_TOL:
                return [("exact", "sum-set hull differs from the sum of the hulls")]
            return []

    elif q.kind == "dos":

        def run():
            lam = q.couplings[0]
            m = sp.band_dos(lam, q.levels[0], res)
            grid = np.linspace(m.support_lo - 0.5, m.support_hi + 0.5, size.dos_energies)
            oracle = np.array([c for _, c in sp.finite_chain_dos(lam, size.chain_sites, grid)])
            sup = float(np.max(np.abs(ms.cdf(m, grid) - oracle)))
            if sup > DOS_SUP_TOL:
                return [("oracle", f"dos sup distance {sup:.4f} at lambda {lam:.4f}")]
            return []

    elif q.kind == "convolve":

        def run():
            a = sp.band_dos(q.couplings[0], q.levels[0], res)
            b = sp.band_dos(q.couplings[1], q.levels[1], res)
            c = ms.convolve(a, b)
            ms.measure_dimension_estimate(c, size.samples, 1e-6, 0.125, 0, n_scales=12)
            if abs(c.total_weight() - 1.0) > MASS_TOL:
                return [("exact", f"convolution mass off by {c.total_weight() - 1.0:.3g}")]
            return []

    elif q.kind == "orbit":
        lam, level = q.couplings[0], q.levels[0]
        energies = np.random.default_rng(q.energy_seed).uniform(
            -(3.0 + lam), 3.0 + lam, size.orbit_energies
        )

        def run():
            cover = sp.spectrum_approximant(lam, level, res)
            bounded = np.array(
                [
                    not td.classify_orbit(float(e), lam, max_iter=level + 4, escape_norm=ORBIT_ESCAPE).escaped
                    for e in energies
                ]
            )
            disagreement = float(np.mean(cover.contains_points(energies) != bounded))
            if disagreement > ORBIT_DISAGREE_TOL:
                return [("oracle", f"orbit disagreement {disagreement:.4f} at lambda {lam:.4f}")]
            return []

    else:
        raise ValueError(f"unknown request kind {q.kind!r}")
    return run


# -- phase-cli -----------------------------------------------------------


def phase_argv(grid, size, threads, cache, out):
    return [
        sys.executable, "-m", "cantor_spectra.cli", "phase",
        "--l1", grid, "--l2", grid,
        "--level", str(size.level), "--resolution", repr(size.resolution),
        "--samples", str(size.samples), "--seed", "0",
        "--threads", str(threads), "--cache", cache, "--out", out,
    ]


def run_cli(argv, env):
    """(seconds, exit code, stdout, artifact bytes) of one CLI process.

    The CLI runs in its own session so that on a timeout the whole process
    group, pool workers included, is killed and reaped.
    """
    out = argv[argv.index("--out") + 1]
    t0 = perf_counter()
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, _ = proc.communicate()
    elapsed = perf_counter() - t0
    return elapsed, proc.returncode, stdout, read_artifacts(out)


def read_artifacts(out):
    artifacts = {}
    for name in ARTIFACTS:
        try:
            with open(os.path.join(out, name), "rb") as fh:
                artifacts[name] = fh.read()
        except OSError:
            artifacts[name] = None
    return artifacts


def cli_failures(result, reference):
    """Exit code 0 and stdout plus artifacts identical to the reference run."""
    _, code, stdout, artifacts = result
    if code != 0:
        return [("raised", f"cli exit code {code}")]
    if reference is not None and (stdout, artifacts) != (reference[2], reference[3]):
        return [("exact", "cli output differs from the cold run")]
    return []
