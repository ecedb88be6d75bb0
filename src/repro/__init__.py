"""Verification of database-driven systems via amalgamation (PODS 2013).

A faithful Python reproduction of the paper's framework:

* the database-driven system model (register automata with quantifier-free
  guards over a read-only database),
* the generic emptiness decision procedure over Fraïssé classes (Theorem 5),
* the relational instantiations -- all databases and HOM(H) templates
  (Theorem 4),
* regular word languages (Theorem 10) and regular tree languages (Theorem 3),
* data-value extensions via homogeneous structures (Proposition 1,
  Corollary 8, Theorem 9),
* the undecidable extensions of Section 6 as bounded demonstrations,
* brute-force baselines used as ground truth.

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.logic import (
    Formula,
    Schema,
    Structure,
    parse_formula,
    parse_term,
)
from repro.systems import (
    Configuration,
    DatabaseDrivenSystem,
    Run,
    Transition,
    compile_existential_guards,
    find_accepting_run,
    has_accepting_run,
    new,
    old,
)
from repro.fraisse import (
    DatabaseTheory,
    EmptinessResult,
    EmptinessSolver,
    decide_emptiness,
)
from repro.relational import (
    AllDatabasesTheory,
    HomTheory,
    clique_template,
    odd_red_cycle_free_template,
)
from repro.perf import (
    cache_stats_snapshot,
    reset_cache_stats,
)
from repro.service import (
    BatchReport,
    BatchRunner,
    JobResult,
    ResultStore,
    RetryPolicy,
    VerificationJob,
    run_batch,
)
from repro.telemetry import (
    MetricsRegistry,
    TraceRecorder,
    chrome_trace,
    configure_logging,
    get_logger,
    validate_exposition,
)
from repro.workloads import generate_jobs

__version__ = "2.0.0"

__all__ = [
    "Schema",
    "Structure",
    "Formula",
    "parse_formula",
    "parse_term",
    "DatabaseDrivenSystem",
    "Transition",
    "Configuration",
    "Run",
    "old",
    "new",
    "compile_existential_guards",
    "find_accepting_run",
    "has_accepting_run",
    "DatabaseTheory",
    "EmptinessSolver",
    "EmptinessResult",
    "decide_emptiness",
    "AllDatabasesTheory",
    "HomTheory",
    "clique_template",
    "odd_red_cycle_free_template",
    "cache_stats_snapshot",
    "reset_cache_stats",
    "VerificationJob",
    "JobResult",
    "ResultStore",
    "BatchRunner",
    "BatchReport",
    "RetryPolicy",
    "run_batch",
    "generate_jobs",
    "MetricsRegistry",
    "TraceRecorder",
    "chrome_trace",
    "configure_logging",
    "get_logger",
    "validate_exposition",
    "__version__",
]
