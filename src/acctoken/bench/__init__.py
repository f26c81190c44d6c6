"""Benchmark harness: deterministic scenarios, CSV results, comparisons, rent tables."""

from .scenario import (
    CompareRow,
    CheckpointSamples,
    RentRow,
    ResultRow,
    Scenario,
    ScenarioRun,
    compare,
    rent_report,
    rows_from_csv,
    rows_to_csv,
    run_scenario,
    tabulate,
)
from .workload import (
    WorkloadOp,
    apply_op,
    effective_allowances,
    effective_balances,
    generate_workload,
    make_address,
    run_workload,
)

__all__ = [
    "CheckpointSamples",
    "CompareRow",
    "RentRow",
    "ResultRow",
    "Scenario",
    "ScenarioRun",
    "WorkloadOp",
    "apply_op",
    "compare",
    "effective_allowances",
    "effective_balances",
    "generate_workload",
    "make_address",
    "rent_report",
    "rows_from_csv",
    "rows_to_csv",
    "run_scenario",
    "run_workload",
    "tabulate",
]
