"""Command-line front end.

One binary with subcommands, a shared result cache, and deterministic output:
every floating-point value is printed with 12 significant digits, every JSON
document carries a schema_version field, and identical invocations produce
identical bytes whether the cache is cold or warm.

Exit codes: 0 on success, 1 on a computational failure (reported as a JSON
object on stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .cantor_core import BudgetExceededError, IntervalSet
from .measures import (
    BandMeasure,
    EstimationFailedError,
    cdf,
    convolve,
    measure_dimension_estimate,
)
from .phase_diagram import (
    DEFAULT_LEVEL,
    DEFAULT_MARGIN,
    DEFAULT_RESOLUTION,
    DEFAULT_SAMPLES,
    InconsistentDimensionsError,
    lambda_range,
    sweep,
    write_cells_csv,
    write_pgm,
    write_provenance,
)
from .spectrum import (
    band_dos,
    finite_chain_dos,
    spectrum_approximant,
    sum_spectrum,
)
from .trace_dynamics import classify_orbit

SCHEMA_VERSION = 1

__all__ = ["RunConfig", "parse_args", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: one command plus its parameters."""

    command: str
    params: dict
    fmt: str
    cache_dir: str | None
    threads: int


def _round12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _rounded(obj):
    """Copy of a JSON-ready object with every float cut to 12 digits."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return _round12(obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(_rounded(payload), indent=2) + "\n")


def _grid_spec(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("expected LO:HI:N")
    lo, hi = float(parts[0]), float(parts[1])
    n = int(parts[2])
    return lo, hi, n


def parse_args(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="cantor-spectra",
        description="Spectra of Fibonacci-type Hamiltonians, Cantor-set "
        "arithmetic, and the coupling-plane regime map.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache", metavar="DIR", default=None, help="band-set cache directory")
    common.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1, help="parallel workers"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbit", parents=[common], help="classify one trace-map orbit")
    p.add_argument("--energy", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--escape", type=float, default=10.0)

    p = sub.add_parser("spectrum", parents=[common], help="band cover of one spectrum")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--resolution", type=float, default=1e-4)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")

    p = sub.add_parser("sumset", parents=[common], help="Minkowski sum of two covers")
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--resolution", type=float, default=1e-4)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="fmt", action="store_const", const="json")
    fmt.add_argument("--csv", dest="fmt", action="store_const", const="csv")

    p = sub.add_parser("dos", parents=[common], help="band density of states")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--resolution", type=float, default=1e-4)
    p.add_argument(
        "--oracle-sites",
        type=int,
        default=None,
        help="also report the sup distance to the finite-chain count with N sites",
    )

    p = sub.add_parser("convolve", parents=[common], help="convolve two measures")
    p.add_argument(
        "--in", dest="inputs", metavar="FILE", action="append", required=True,
        help="measure JSON file; give twice",
    )
    p.add_argument("--granularity", type=float, default=None)

    p = sub.add_parser("dimension", parents=[common], help="dimension estimate of a measure")
    p.add_argument("--measure", metavar="FILE", required=True)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps-min", type=float, default=1e-6)
    p.add_argument("--eps-max", type=float, default=0.125)
    p.add_argument("--scales", type=int, default=12)

    p = sub.add_parser("phase", parents=[common], help="sweep the coupling plane")
    p.add_argument("--l1", metavar="LO:HI:N", required=True)
    p.add_argument("--l2", metavar="LO:HI:N", required=True)
    p.add_argument("--level", type=int, default=DEFAULT_LEVEL)
    p.add_argument("--resolution", type=float, default=DEFAULT_RESOLUTION)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="DIR", required=True)

    ns = parser.parse_args(argv)

    if getattr(ns, "lam", None) is not None and ns.lam < 0.0:
        parser.error("--lambda must be >= 0")
    for name, flag in (("lambda1", "--lambda1"), ("lambda2", "--lambda2")):
        v = getattr(ns, name, None)
        if v is not None and v < 0.0:
            parser.error(f"{flag} must be >= 0")
    if getattr(ns, "level", None) is not None and not (1 <= ns.level <= 39):
        parser.error("--level must be between 1 and 39")
    if getattr(ns, "resolution", None) is not None and not (ns.resolution > 0.0):
        parser.error("--resolution must be > 0")
    if ns.command == "orbit":
        if ns.max_iter < 1:
            parser.error("--max-iter must be >= 1")
        if not (ns.escape > 2.0):
            parser.error("--escape must be > 2")
    if ns.command == "dos" and ns.oracle_sites is not None and ns.oracle_sites < 2:
        parser.error("--oracle-sites must be >= 2")
    if ns.command == "convolve":
        if len(ns.inputs) != 2:
            parser.error("--in must be given exactly twice")
        if ns.granularity is not None and not (ns.granularity > 0.0):
            parser.error("--granularity must be > 0")
    if ns.command == "dimension":
        if ns.samples < 100:
            parser.error("--samples must be >= 100")
        if not (0.0 < ns.eps_min < ns.eps_max):
            parser.error("--eps-min must satisfy 0 < --eps-min < --eps-max")
        if ns.scales < 2:
            parser.error("--scales must be >= 2")
    if ns.command == "phase":
        for flag in ("--l1", "--l2"):
            try:
                lo, hi, n = _grid_spec(getattr(ns, flag.lstrip("-")))
            except ValueError:
                parser.error(f"{flag} expects LO:HI:N")
            if lo <= 0.0:
                parser.error(f"{flag} couplings must be > 0")
            if hi < lo or n < 1:
                parser.error(f"{flag} expects LO <= HI and N >= 1")
        if not (ns.margin > 0.0):
            parser.error("--margin must be > 0")
        if ns.samples < 100:
            parser.error("--samples must be >= 100")
    if ns.threads < 1:
        parser.error("--threads must be >= 1")

    known = {"command", "fmt", "cache", "threads"}
    params = {k: v for k, v in vars(ns).items() if k not in known}
    return RunConfig(
        command=ns.command,
        params=params,
        fmt=getattr(ns, "fmt", None) or "json",
        cache_dir=ns.cache,
        threads=ns.threads,
    )


def _atom_rows(m: BandMeasure) -> list[list[float]]:
    return [[float(a), float(b), float(w)] for a, b, w in zip(m.los, m.his, m.weights)]


def _interval_payload(command: str, s: IntervalSet, extra: dict) -> dict:
    payload = {"schema_version": SCHEMA_VERSION, "command": command}
    payload.update(extra)
    payload["count"] = len(s)
    payload["measure"] = s.measure()
    payload["intervals"] = [[float(lo), float(hi)] for lo, hi in zip(s.los, s.his)]
    return payload


def _emit_intervals(command: str, s: IntervalSet, fmt: str, extra: dict) -> None:
    if fmt == "csv":
        lines = ["lo,hi"]
        lines += [f"{lo:.12g},{hi:.12g}" for lo, hi in zip(s.los, s.his)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(_interval_payload(command, s, extra))


def _run_orbit(cfg: RunConfig) -> None:
    p = cfg.params
    r = classify_orbit(p["energy"], p["lam"], max_iter=p["max_iter"], escape_norm=p["escape"])
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "orbit",
            "energy": p["energy"],
            "lambda": p["lam"],
            "status": r.status,
            "steps": r.step,
            "max_norm": r.max_norm,
            "invariant_drift": r.invariant_drift,
        }
    )


def _run_spectrum(cfg: RunConfig) -> None:
    p = cfg.params
    s = spectrum_approximant(p["lam"], p["level"], p["resolution"], cache_dir=cfg.cache_dir)
    extra = {"lambda": p["lam"], "level": p["level"], "resolution": p["resolution"]}
    _emit_intervals("spectrum", s, cfg.fmt, extra)


def _run_sumset(cfg: RunConfig) -> None:
    p = cfg.params
    s = sum_spectrum(
        p["lambda1"], p["lambda2"], p["level"], p["resolution"], cache_dir=cfg.cache_dir
    )
    extra = {
        "lambda1": p["lambda1"],
        "lambda2": p["lambda2"],
        "level": p["level"],
        "resolution": p["resolution"],
    }
    _emit_intervals("sumset", s, cfg.fmt, extra)


def _run_dos(cfg: RunConfig) -> None:
    p = cfg.params
    m = band_dos(p["lam"], p["level"], p["resolution"], cache_dir=cfg.cache_dir)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "dos",
        "lambda": p["lam"],
        "level": p["level"],
        "resolution": p["resolution"],
        "atoms": _atom_rows(m),
    }
    if p["oracle_sites"] is not None:
        n = p["oracle_sites"]
        grid = np.linspace(m.los[0] - 0.5, m.his[-1] + 0.5, 2001)
        oracle = np.array([c for _, c in finite_chain_dos(p["lam"], n, grid)])
        band_cdf = cdf(m, grid)
        payload["oracle_sites"] = n
        payload["oracle_sup_distance"] = float(np.max(np.abs(band_cdf - oracle)))
    _emit(payload)


def _run_convolve(cfg: RunConfig) -> None:
    p = cfg.params
    ms = []
    for path in p["inputs"]:
        with open(path) as fh:
            ms.append(BandMeasure.from_json(fh.read()))
    out = convolve(ms[0], ms[1], merge_granularity=p["granularity"])
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "convolve",
            "granularity": p["granularity"],
            "atoms": _atom_rows(out),
        }
    )


def _run_dimension(cfg: RunConfig) -> None:
    p = cfg.params
    with open(p["measure"]) as fh:
        m = BandMeasure.from_json(fh.read())
    est = measure_dimension_estimate(
        m, p["samples"], p["eps_min"], p["eps_max"], p["seed"], n_scales=p["scales"]
    )
    _emit(
        {
            "schema_version": SCHEMA_VERSION,
            "command": "dimension",
            "samples": p["samples"],
            "seed": p["seed"],
            "eps_min": p["eps_min"],
            "eps_max": p["eps_max"],
            "n_scales": p["scales"],
            "lower": est.lower,
            "upper": est.upper,
            "midpoint": est.midpoint,
            "sample_count": est.sample_count,
        }
    )


def _run_phase(cfg: RunConfig) -> None:
    p = cfg.params
    l1 = lambda_range(*_grid_spec(p["l1"]))
    l2 = lambda_range(*_grid_spec(p["l2"]))
    diagram = sweep(
        l1,
        l2,
        level=p["level"],
        resolution=p["resolution"],
        margin=p["margin"],
        samples=p["samples"],
        seed=p["seed"],
        cache_dir=cfg.cache_dir,
        n_workers=cfg.threads,
    )
    out = p["out"]
    os.makedirs(out, exist_ok=True)
    write_cells_csv(diagram, os.path.join(out, "cells.csv"))
    write_pgm(diagram, os.path.join(out, "diagram.pgm"))
    write_provenance(diagram, os.path.join(out, "provenance.json"))
    payload = dict(diagram.provenance())
    payload["out"] = out
    _emit(payload)


_RUNNERS = {
    "orbit": _run_orbit,
    "spectrum": _run_spectrum,
    "sumset": _run_sumset,
    "dos": _run_dos,
    "convolve": _run_convolve,
    "dimension": _run_dimension,
    "phase": _run_phase,
}

_FAILURES = (
    BudgetExceededError,
    EstimationFailedError,
    InconsistentDimensionsError,
    ValueError,
    OSError,
    KeyError,
)


def run(config: RunConfig) -> int:
    """Execute one validated invocation; never raises for computational errors."""
    try:
        _RUNNERS[config.command](config)
    except _FAILURES as exc:
        err = {
            "schema_version": SCHEMA_VERSION,
            "error": type(exc).__name__,
            "message": str(exc),
        }
        sys.stderr.write(json.dumps(err) + "\n")
        return 1
    return 0


def main(argv=None) -> None:
    config = parse_args(argv if argv is not None else sys.argv[1:])
    sys.exit(run(config))


if __name__ == "__main__":
    main()
