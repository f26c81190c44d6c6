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
from .workload import effective_allowances, effective_balances, make_address

__all__ = [
    "CheckpointSamples",
    "CompareRow",
    "RentRow",
    "ResultRow",
    "Scenario",
    "ScenarioRun",
    "compare",
    "effective_allowances",
    "effective_balances",
    "make_address",
    "rent_report",
    "rows_from_csv",
    "rows_to_csv",
    "run_scenario",
    "tabulate",
]
