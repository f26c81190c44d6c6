"""Seeded scenario outputs pinned byte for byte.

The golden file holds, for small accumulator-token scenarios with and
without the lifted precondition and under honest and refusing storage, the
CSVs under both gas schedules, the number of dropped samples and the
storage network's serving counters. Equal CSVs pin every bundle's bytes and
gas events; equal serving counters and drop counts pin the sequence of
storage requests, because the refusing policy draws from its RNG once per
request. The same scenario run on the mapping token pins its CSVs and drop
count; it has no storage network to count.

Regenerate (only when a change is meant to alter these outputs) with
``PYTHONPATH=src python tests/test_golden_scenarios.py``; it prints each
field that changed, with its old and new value, before it writes the file.
"""

import json
from dataclasses import asdict
from pathlib import Path

from acctoken.bench import Scenario, rows_to_csv, run_scenario, tabulate
from acctoken.bench.scenario import BASELINE
from acctoken.gas import SCALED, GasSchedule
from acctoken.storage import FaultPolicy, StorageNetwork

GOLDEN = Path(__file__).parent / "golden" / "scenario_csvs.json"

FAULTS = {
    "honest": FaultPolicy.honest(),
    "unavailable": FaultPolicy.unavailable(0.05, seed=2),
}


SMALL = dict(checkpoints=(64, 128), ops_per_checkpoint=20, seed=5)


def scenario_outputs() -> dict:
    out = {}
    for lift in (False, True):
        for fault_name, fault in FAULTS.items():
            run, stats = _run_with_stats(Scenario(lift=lift, fault=fault, **SMALL))
            out[f"lift={'on' if lift else 'off'},fault={fault_name}"] = {
                **_tables(run),
                "serving_stats": asdict(stats),
            }
    run, stats = _run_with_stats(Scenario(token=BASELINE, **SMALL))
    assert stats is None
    out[f"token={BASELINE}"] = _tables(run)
    return out


def _tables(run) -> dict:
    return {
        "flat_csv": rows_to_csv(tabulate(run, GasSchedule())),
        "scaled_csv": rows_to_csv(tabulate(run, GasSchedule(mode=SCALED))),
        "dropped": run.dropped,
    }


def _run_with_stats(scenario):
    """run_scenario, plus the serving counters of the network it created (None if it made none)."""
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
    if not networks:
        return run, None
    (network,) = networks
    return run, network.stats


def test_shadow_records_are_the_baseline_run():
    """An accumulator-token run's ``baseline`` meters the mapping token on the ops it accepted."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[f"token={BASELINE}"]
    for lift in (False, True):
        run = run_scenario(Scenario(lift=lift, **SMALL))
        assert run.dropped == 0
        assert _tables(run.baseline) == golden
    run = run_scenario(Scenario(fault=FAULTS["unavailable"], **SMALL))
    assert run.dropped > 0
    assert len(run.baseline.checkpoints) == len(run.checkpoints)
    for cp, shadow_cp in zip(run.checkpoints, run.baseline.checkpoints):
        assert shadow_cp.n_accounts == cp.n_accounts
        assert [s.op for s in shadow_cp.samples] == [s.op for s in cp.samples]


def changed_fields(old, new, name=""):
    """``(field, old, new)`` for each differing field; nested fields are named by dotted path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_fields(old.get(key), new.get(key), f"{name}.{key}" if name else key)
    elif old != new:
        yield name, old, new


def test_changed_fields_name_each_difference():
    old = {"a": {"csv": "x\n", "stats": {"fetches": 280, "lookups": 240}}, "gone": {"dropped": 1}}
    new = {"a": {"csv": "x\n", "stats": {"fetches": 120, "lookups": 240}}, "added": {"dropped": 0}}
    assert list(changed_fields(old, new)) == [
        ("a.stats.fetches", 280, 120),
        ("added", None, {"dropped": 0}),
        ("gone", {"dropped": 1}, None),
    ]
    assert list(changed_fields(old, old)) == []


def test_scenario_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = scenario_outputs()
    assert got.keys() == golden.keys()
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    new = scenario_outputs()
    for name, before, after in changed_fields(old, new):
        print(f"{name}: {before!r} -> {after!r}")
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="utf-8")
