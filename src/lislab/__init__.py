"""Exact desk-scale toolkit for chains whose transitions depend on the past.

Composes single-site transition kernels into interval kernels, checks two
uniqueness criteria (row-sum contraction and boundary uniformity),
evaluates loss-of-memory, correlation, and two-kernel comparison bounds,
and validates every inequality against brute-force oracles on small
alphabets.

The public names below load their submodule on first use (PEP 562), so
``import lislab`` alone loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Public names by the submodule that defines them.
_PUBLIC = {
    "core": (
        "AlphabetSpec", "CapExceededError", "FiniteDistribution", "Observable", "Window",
        "constant_observable", "indicator", "oscillation",
    ),
    "kernels": (
        "GeneralTable", "KernelSpec", "LinearLongMemory", "MarkovTable", "SiteIndexed",
        "compose_window", "eval_singleton", "kernel_average_observable",
        "marginal_distribution",
    ),
    "analysis": (
        "CriterionVerdict", "SensitivityMatrix", "boundary_uniformity_check",
        "build_sensitivity_matrix", "dobrushin_check", "ergodic_coefficient",
        "sensitivity_estimator", "variation", "vkr_distance",
    ),
    "bounds": (
        "BoundNotApplicableError", "BoundReport", "DecaySpec", "comparison_bound",
        "correlation_bound", "fit_decay_rate", "memory_bound_general", "memory_bound_rows",
    ),
    "oracle": (
        "exact_correlation", "exact_correlations", "exact_oscillation_of_average",
        "exact_oscillation_rows", "series_decay_margin",
        "stationary_expectations", "stationary_measure", "verify_consistency", "verify_dusting",
    ),
    "sim": ("estimate_correlation", "sample_path"),
    "specio": ("SpecError", "load_spec_file", "parse_spec", "power_law_linear", "two_state_markov"),
}
#: Public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted({*_EXPORTS, *_PUBLIC})


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _PUBLIC:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
