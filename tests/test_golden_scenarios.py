"""Seeded scenario outputs pinned byte for byte.

The golden file holds, for small accumulator-token scenarios with and
without the lifted precondition and under honest and refusing storage, the
CSVs under both gas schedules, the number of dropped samples and the
storage network's serving counters. Equal CSVs pin every bundle's bytes and
gas events; equal serving counters and drop counts pin the sequence of
storage requests, because the refusing policy draws from its RNG once per
request.

Regenerate (only when a change is meant to alter these outputs) with
``PYTHONPATH=src python tests/test_golden_scenarios.py``.
"""

import json
from dataclasses import asdict
from pathlib import Path

from acctoken.bench import Scenario, rows_to_csv, run_scenario, tabulate
from acctoken.gas import SCALED, GasSchedule
from acctoken.storage import FaultPolicy, StorageNetwork

GOLDEN = Path(__file__).parent / "golden" / "scenario_csvs.json"

FAULTS = {
    "honest": FaultPolicy.honest(),
    "unavailable": FaultPolicy.unavailable(0.05, seed=2),
}


def scenario_outputs() -> dict:
    out = {}
    for lift in (False, True):
        for fault_name, fault in FAULTS.items():
            scenario = Scenario(
                checkpoints=(64, 128), ops_per_checkpoint=20, seed=5, lift=lift, fault=fault
            )
            run, stats = _run_with_stats(scenario)
            out[f"lift={'on' if lift else 'off'},fault={fault_name}"] = {
                "flat_csv": rows_to_csv(tabulate(run, GasSchedule())),
                "scaled_csv": rows_to_csv(tabulate(run, GasSchedule(mode=SCALED))),
                "dropped": run.dropped,
                "serving_stats": asdict(stats),
            }
    return out


def _run_with_stats(scenario):
    """run_scenario, plus the serving counters of the network it created."""
    networks = []
    original = StorageNetwork.__init__

    def recording_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        networks.append(self)

    StorageNetwork.__init__ = recording_init
    try:
        run = run_scenario(scenario)
    finally:
        StorageNetwork.__init__ = original
    (network,) = networks
    return run, network.stats


def test_scenario_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = scenario_outputs()
    assert got.keys() == golden.keys()
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(scenario_outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
