"""Exact desk-scale toolkit for chains whose transitions depend on the past.

Composes single-site transition kernels into interval kernels, checks two
uniqueness criteria (row-sum contraction and boundary uniformity),
evaluates loss-of-memory, correlation, and two-kernel comparison bounds,
and validates every inequality against brute-force oracles on small
alphabets.
"""

__version__ = "0.1.0"

from .core import (
    AlphabetSpec,
    CapExceededError,
    FiniteDistribution,
    Observable,
    PastConfig,
    Window,
    constant_observable,
    enumerate_configs,
    indicator,
    oscillation,
)
from .kernels import (
    GeneralTable,
    KernelSpec,
    LinearLongMemory,
    MarkovTable,
    SiteIndexed,
    compose_window,
    eval_singleton,
    kernel_average_observable,
    marginal_distribution,
    verify_consistency,
)
from .analysis import (
    CriterionVerdict,
    SensitivityMatrix,
    boundary_uniformity_check,
    build_sensitivity_matrix,
    dobrushin_check,
    ergodic_coefficient,
    sensitivity_estimator,
    variation,
    vkr_distance,
)
from .bounds import (
    BoundNotApplicableError,
    BoundReport,
    DecaySpec,
    comparison_bound,
    correlation_bound,
    correlation_bound_semi_exact,
    fit_decay_rate,
    memory_bound_exponential,
    memory_bound_general,
    neumann_series,
    series_decay_bound,
)
from .oracle import (
    exact_correlation,
    exact_oscillation_of_average,
    stationary_expectations,
    stationary_measure,
    verify_dusting,
)
from .sim import estimate_correlation, sample_path
from .specio import (
    SpecError,
    load_spec_file,
    parse_spec,
    power_law_linear,
    two_state_markov,
)

__all__ = [name for name in dir() if not name.startswith("_")]
