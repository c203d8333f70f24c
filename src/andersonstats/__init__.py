"""Fluctuation statistics of polynomial trace statistics for the Anderson
model on Z^d: exact path counts, exact limiting variances, certified
classification of zero-variance polynomials, and seeded Monte Carlo
verification of the gaussian limit."""

from .budget import BudgetExceededError
from .fluctuations import (
    FluctuationReport,
    KsResult,
    MomentDiagnostics,
    ks_test,
    moment_diagnostics,
    run_experiment,
)
from .hamiltonian import (
    BoxSpec,
    SampledHamiltonian,
    mean_trace_exact,
    sample_hamiltonian,
    trace_poly_numeric,
    trace_powers_numeric,
)
from .lattice import MultiIndex, Point, canonicalize, delta
from .moments import (
    MomentModel,
    SupportClass,
    format_distribution,
    moment,
    monomial_covariance,
    monomial_expectation,
    parse_distribution,
    sample,
    support_class,
)
from .poly import Poly
from .table import TableVerification, fold_key, reference_rows, verify_reference_table
from .variance import (
    IntegrityError,
    LimitCovariance,
    classify,
    covariance_entries,
    degenerate_basis,
    limiting_covariance,
    sigma_squared,
    sigma_squared_local_oracle,
)
from .walks import (
    Census,
    PathCountTable,
    balanced_census,
    path_counts,
    truncated_coefficient,
)

__version__ = "0.1.0"
