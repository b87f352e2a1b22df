"""First-exit discretization of the Wiener process.

A Wiener path is tracked by an approximation that refreshes whenever the
process drifts a threshold ``eta`` away from the last recorded value.  This
package provides the analytic machinery for that scheme (absorbed-process
densities, the first-exit time law, renewal densities and the analytic
tracking-error density), a reproducible Monte Carlo engine, reference
distributions with a Wasserstein-1 metric, and an experiment CLI that
produces the standard verification figures as CSV/SVG.

The normalized tracking error converges in distribution, as ``eta`` shrinks,
to the triangular law with density ``(1 - |z|)^+``; the acceptance tests in
``tests/test_acceptance.py`` verify that limit both analytically and by
simulation.
"""

__version__ = "0.1.0"

from .density import absorbed_density
from .distributions import (
    DensityGrid,
    EmpiricalSample,
    GridLaw,
    KdeResult,
    ScaledNormalLaw,
    TriangularLaw,
    kde,
    triangular_cdf,
    triangular_pdf,
    triangular_quantile,
    wasserstein1,
)
from .errors import (
    ConfigError,
    DegenerateSampleError,
    ExitgridError,
    InvalidDomainError,
    NoConvergenceError,
    ToleranceNotMetError,
    UnboundedIntegralError,
)
from .first_passage import FirstPassageLaw
from .params import ModelParams
from .path_sim import PathConfig, SimulationBatch, generate_path, simulate_batch
from .renewal import (
    ErrorDensity,
    RenewalGrid,
    convolution_term,
    solve_renewal_density,
    tracking_error_density,
)

__all__ = [
    "ConfigError",
    "DegenerateSampleError",
    "DensityGrid",
    "EmpiricalSample",
    "ErrorDensity",
    "ExitgridError",
    "FirstPassageLaw",
    "GridLaw",
    "InvalidDomainError",
    "KdeResult",
    "ModelParams",
    "NoConvergenceError",
    "PathConfig",
    "RenewalGrid",
    "ScaledNormalLaw",
    "SimulationBatch",
    "ToleranceNotMetError",
    "TriangularLaw",
    "UnboundedIntegralError",
    "absorbed_density",
    "convolution_term",
    "generate_path",
    "kde",
    "simulate_batch",
    "solve_renewal_density",
    "tracking_error_density",
    "triangular_cdf",
    "triangular_pdf",
    "triangular_quantile",
    "wasserstein1",
    "__version__",
]
