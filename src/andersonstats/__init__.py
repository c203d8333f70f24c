"""Fluctuation statistics of polynomial trace statistics for the Anderson
model on Z^d: exact path counts, exact limiting variances, certified
classification of zero-variance polynomials, and seeded Monte Carlo
verification of the gaussian limit.

The public names below are resolved lazily: importing the package loads no
submodule, and ``andersonstats.<name>`` (or ``from andersonstats import
<name>``) imports only the submodule that defines it, on first use. So a
CLI command loads just the layers it runs.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "budget": "BudgetExceededError",
    "fluctuations": "FluctuationReport KsResult MomentDiagnostics ks_test "
    "moment_diagnostics run_experiment",
    "hamiltonian": "BoxSpec SampledHamiltonian mean_trace_exact sample_hamiltonian "
    "trace_poly_numeric trace_powers_numeric",
    "lattice": "MultiIndex Point canonicalize delta fold_key",
    "moments": "MomentModel SupportClass format_distribution moment monomial_expectation "
    "parse_distribution sample support_class",
    "poly": "Poly",
    "table": "TableVerification reference_rows verify_reference_table",
    "variance": "IntegrityError LimitCovariance classify covariance_entries degenerate_basis "
    "limiting_covariance sigma_squared sigma_squared_local_oracle",
    "walks": "Census PathCountTable balanced_census path_counts truncated_coefficient",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
