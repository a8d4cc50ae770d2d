"""Safe screening and exact solvers for best-subset regression.

The public surface: problem containers (:class:`Instance`,
:class:`ProblemSpec`), perspective-relaxation solvers (:func:`solve_cr`,
:func:`solve_cc`), certified lower bounds valid for any dual candidate,
safe fixing rules (:func:`screen_reg`, :func:`screen_card`), rounding
heuristics, and two exact solvers (:func:`brute_force`,
:func:`branch_and_bound`).
"""

from .problem import (
    ConstraintViolationError,
    CsvParseError,
    FixState,
    Incumbent,
    InconsistentBoundsError,
    InfeasibleError,
    Instance,
    InvalidInputError,
    ProblemSpec,
    SizeCapError,
    Variant,
    objective_card,
    objective_reg,
    ridge_restricted_solve,
)
from .relax import (
    BerhuPenalty,
    DualCertificate,
    RelaxSolution,
    SolverConfig,
    berhu_prox,
    berhu_value,
    certified_lower_bound_card,
    certified_lower_bound_reg,
    operator_norm_sq,
    solve_cc,
    solve_cr,
)
from .screening import ScreenReport, kth_largest_pair, screen_card, screen_reg
from .heuristics import round_card, round_reg
from .exact import BnBConfig, BnBStats, branch_and_bound, brute_force, node_relaxation
from .datagen import SyntheticSpec, gamma_zero, generate, load_csv, save_dataset
from .report import BENCH_COLUMNS, RUN_REPORT_SCHEMA, validate_bench_csv, validate_run_report

__version__ = "0.1.0"

__all__ = [
    "BENCH_COLUMNS",
    "BerhuPenalty",
    "BnBConfig",
    "BnBStats",
    "ConstraintViolationError",
    "CsvParseError",
    "DualCertificate",
    "FixState",
    "Incumbent",
    "InconsistentBoundsError",
    "InfeasibleError",
    "Instance",
    "InvalidInputError",
    "ProblemSpec",
    "RUN_REPORT_SCHEMA",
    "RelaxSolution",
    "ScreenReport",
    "SizeCapError",
    "SolverConfig",
    "SyntheticSpec",
    "Variant",
    "berhu_prox",
    "berhu_value",
    "branch_and_bound",
    "brute_force",
    "certified_lower_bound_card",
    "certified_lower_bound_reg",
    "gamma_zero",
    "generate",
    "kth_largest_pair",
    "load_csv",
    "node_relaxation",
    "objective_card",
    "objective_reg",
    "operator_norm_sq",
    "ridge_restricted_solve",
    "round_card",
    "round_reg",
    "save_dataset",
    "screen_card",
    "screen_reg",
    "solve_cc",
    "solve_cr",
    "validate_bench_csv",
    "validate_run_report",
]
