"""Numerical laboratory for trace-map spectra and Cantor-set arithmetic.

Subpackages by theme:

* :mod:`cantor_spectra.cantor_core` -- interval unions, Cantor systems,
  box counting, thickness, sum-set bounds;
* :mod:`cantor_spectra.trace_dynamics` -- the trace map, its conserved
  quantity, and budgeted orbit classification;
* :mod:`cantor_spectra.spectrum` -- band covers from the half-trace
  recursion, sum spectra, densities of states;
* :mod:`cantor_spectra.measures` -- band measures, convolution, scaling
  exponents, dimension estimates, Lyapunov benchmarks;
* :mod:`cantor_spectra.phase_diagram` -- the coupling-plane sweep and its
  regime classification;
* :mod:`cantor_spectra.cli` -- command-line front end.
"""

# The one source of the package version (pyproject.toml reads it from here).
__version__ = "0.1.0"

from .cantor_core import (
    BudgetExceededError,
    CantorSystem,
    Interval,
    IntervalSet,
    approximant,
    box_dimension_estimate,
    dim_sum_bound,
    gap_lemma_check,
    middle_alpha_system,
    minkowski_sum,
    normalize,
    similarity_dimension,
    thickness,
)
from .measures import (
    BandMeasure,
    DimensionEstimate,
    EstimationFailedError,
    ScalingReport,
    cdf,
    convolve,
    dimension_via_lyapunov,
    estimate_lyapunov,
    measure_dimension_estimate,
    quantile,
    scaling_exponent,
    singularity_verdict,
)
from .phase_diagram import (
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
from .spectrum import (
    ALPHA,
    MAX_HALF_TRACE_LEVEL,
    BandSet,
    band_dos,
    band_set,
    default_energy_window,
    fibonacci_potential,
    finite_chain_dos,
    half_trace,
    half_trace_degree,
    spectrum_approximant,
    sum_spectrum,
)
from .trace_dynamics import (
    DRIFT_NORM_CAP,
    OrbitResult,
    TracePoint,
    classify_orbit,
    fricke_vogt,
    initial_point,
    surface_residual,
    trace_step,
)
