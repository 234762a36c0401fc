"""Group-penalized regression toolkit.

Group selection (group LASSO, 2-norm group MCP/SCAD) via group coordinate
descent, bi-level selection (group bridge, composite MCP, sparse group
LASSO), K-fold cross-validation, and a numerical lab for the finite-sample
exact-oracle bounds of the 2-norm group MCP.
"""

from .bilevel import (
    composite_threshold,
    fit_lcd,
    fit_path_lcd,
    fit_path_sgl,
    fit_sparse_group_lasso,
    sgl_kkt,
)
from .cv import CVReport, kfold_cv
from .design import GroupedDesign, build_design, group_norms, predict, rebuild_design
from .gcd import (
    FitResult,
    SolutionPath,
    fit_gcd,
    fit_path,
    kkt_check,
    lambda_grid,
    lambda_max,
)
from .paths import PathConfig, solution_path
from .penalties import (
    PenaltySpec,
    objective,
    rho,
    rho_prime,
    soft_threshold,
    soft_threshold_vec,
    solve_single_group,
)
from .scenarios import ScenarioSpec, SimulatedData, make_scenario
from .theory import (
    OracleProblem,
    OracleReport,
    chisq_tail_bound,
    eta3,
    eta_bounds,
    irrepresentable_lhs,
    make_oracle_problem,
    monte_carlo_theorem1,
    oracle_ls,
    random_problem,
    run_experiment,
    src_spectrum,
    zeta_norm,
)

__version__ = "0.1.0"
