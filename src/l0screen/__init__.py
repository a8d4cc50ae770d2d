"""Safe screening and exact solvers for best-subset regression.

The package exports the pipeline the README's "Library API" lists, layer
by layer: problem containers and errors, the relaxation solvers and
their dual certificates, the fixing rules, rounding, the exact solvers,
data generation and loading, and the report schemas.  Helpers such as
the berhu prox or the node relaxation stay in their modules.
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
)
from .relax import (
    DualCertificate,
    RelaxSolution,
    certified_lower_bound_card,
    certified_lower_bound_reg,
    solve_cc,
    solve_cr,
)
from .screening import ScreenReport, screen_card, screen_reg
from .heuristics import round_card, round_reg
from .exact import BnBConfig, BnBStats, branch_and_bound, brute_force
from .datagen import SyntheticSpec, gamma_zero, generate, load_csv, save_dataset
from .report import BENCH_COLUMNS, RUN_REPORT_SCHEMA, validate_bench_csv, validate_run_report

__version__ = "0.1.0"

__all__ = [
    "BENCH_COLUMNS",
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
    "SyntheticSpec",
    "Variant",
    "branch_and_bound",
    "brute_force",
    "certified_lower_bound_card",
    "certified_lower_bound_reg",
    "gamma_zero",
    "generate",
    "load_csv",
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
