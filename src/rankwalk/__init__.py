"""Exact minimization of sorted-weight residual losses by walking the
arrangement of residual-order regions, with verifiable optimality
certificates, an exhaustive small-instance oracle, and a gradient-descent
baseline for comparison."""

from .certificate import (
    CertificateReport,
    OptimalityCertificate,
    birkhoff_decompose,
    solve_certificate,
    verify_certificate,
)
from .ggd import GgdResult, GgdTrace, cell_gradient, ggd_minimize
from .loss import (
    ActivePairs,
    Residuals,
    active_pairs,
    consistent_permutation,
    eval_loss,
    eval_loss_bruteforce,
    residuals,
)
from .lp import (
    LinearProgram,
    LpError,
    LpInfeasible,
    LpNumericError,
    LpOptimal,
    LpOutcome,
    LpUnbounded,
    find_feasible,
    solve_lp,
)
from .model import (
    RegressionData,
    ScoreVector,
    inverse_normal_cdf,
    make_scores,
    standard_normal_cdf,
)
from .oracle import OracleResult, enumerate_nonempty_cells, oracle_minimize, random_instance
from .woa import (
    Breakpoints,
    IterationBudgetError,
    Minimizer,
    Unbounded,
    WalkError,
    WalkInvariantError,
    WalkIteration,
    WalkNumericError,
    breakpoints,
    cell_lp,
    improving_direction,
    line_search,
    minimize,
    region_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ActivePairs", "Breakpoints", "CertificateReport", "GgdResult",
    "GgdTrace", "IterationBudgetError", "LinearProgram",
    "LpError", "LpInfeasible", "LpNumericError", "LpOptimal", "LpOutcome",
    "LpUnbounded", "Minimizer", "OptimalityCertificate", "OracleResult",
    "RegressionData", "Residuals", "ScoreVector", "Unbounded",
    "WalkError", "WalkInvariantError", "WalkIteration", "WalkNumericError",
    "active_pairs", "birkhoff_decompose", "breakpoints", "cell_gradient",
    "cell_lp", "consistent_permutation",
    "enumerate_nonempty_cells", "eval_loss", "eval_loss_bruteforce",
    "find_feasible", "ggd_minimize", "improving_direction", "inverse_normal_cdf",
    "line_search", "make_scores", "minimize",
    "oracle_minimize", "random_instance", "region_bound", "residuals",
    "solve_certificate", "solve_lp", "standard_normal_cdf", "verify_certificate",
]
