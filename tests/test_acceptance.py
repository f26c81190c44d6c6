"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The population fixture
grows the accumulator token to 400,000 accounts once; the shadow mapping
token it is checked against grows with it, and its records of the same
sampled transactions (``run.baseline``) are the baseline for criterion 3.
The module takes about 40 s on a 2-vCPU x86-64 machine with Python 3.11;
everything is seeded and deterministic.
"""

import math
import random

import pytest

from acctoken.accumulator import (
    BOTTOM,
    belongs,
    check_update,
    setup,
    update,
    witness,
)
from acctoken.baseline import BaselineToken
from acctoken.bench import (
    Scenario,
    compare,
    effective_allowances,
    effective_balances,
    make_address,
    run_scenario,
    tabulate,
)
from acctoken.erc20 import CONTRACT_KEYS, TokenSystem
from acctoken.gas import (
    SCALED,
    GasSchedule,
    RentParams,
    derive_base_rent,
    rent_rate,
    sload_cost,
)
from acctoken.storage import FaultPolicy
from random_workload import apply_op, generate_workload, run_workload
from reference_verify import decode_witness

SEED = 2024
FIG_CHECKPOINTS = (8192, 16384, 32768, 65536, 131072, 400000)
LOG_CHECKPOINTS = FIG_CHECKPOINTS[:5]  # 2^13 .. 2^17


def report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def acc_fig_run():
    scenario = Scenario(token="acc", checkpoints=FIG_CHECKPOINTS, ops_per_checkpoint=100, seed=SEED)
    return run_scenario(scenario)


def rows_by_op(rows):
    table = {}
    for row in rows:
        table.setdefault(row.op, {})[row.n_accounts] = row
    return table


def fit_against_log2(points):
    xs = [math.log2(n) for n, _ in points]
    ys = [g for _, g in points]
    n = len(xs)
    mean_x, mean_y = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    return slope, intercept, 1.0 - ss_res / ss_tot


@pytest.mark.slow
class TestCriterion1BaselineCalibration:
    def test_flat_gas_matches_measured_averages(self):
        token = BaselineToken.deploy(make_address(0), 10**12, keep_logs=False)
        rng = random.Random(SEED)
        addresses = [make_address(i) for i in range(1, 1001)]
        for addr in addresses:
            token.transfer(make_address(0), addr, 1000)
        schedule = GasSchedule()
        from acctoken.gas import meter_transaction

        transfer_gas = []
        for _ in range(100):
            a, b = rng.sample(addresses, 2)
            transfer_gas.append(meter_transaction(schedule, token.transfer(a, b, 1).trace).total)
        approve_gas = []
        seen = set()
        for _ in range(100):
            a, b = rng.sample(addresses, 2)
            while (a, b) in seen:
                a, b = rng.sample(addresses, 2)
            seen.add((a, b))
            approve_gas.append(meter_transaction(schedule, token.approve(a, b, 500).trace).total)

        mean_transfer = sum(transfer_gas) / len(transfer_gas)
        mean_approve = sum(approve_gas) / len(approve_gas)
        ok_transfer = abs(mean_transfer - 33_193) / 33_193 <= 0.20
        ok_approve = abs(mean_approve - 42_465) / 42_465 <= 0.20
        report(
            1,
            ok_transfer and ok_approve,
            f"flat baseline transfer {mean_transfer:.0f} vs 33193 "
            f"({(mean_transfer - 33_193) / 33_193:+.1%}), approve {mean_approve:.0f} vs 42465 "
            f"({(mean_approve - 42_465) / 42_465:+.1%}); transferFrom excluded per documented anomaly",
        )


@pytest.mark.slow
class TestCriterion2LogarithmicScaling:
    def test_flat_acc_gas_fits_log2_with_op_ordering(self, acc_fig_run):
        rows = rows_by_op(tabulate(acc_fig_run, GasSchedule()))
        fits = {}
        for op in ("transfer", "approve", "transferFrom"):
            points = [(n, rows[op][n].gas_mean) for n in LOG_CHECKPOINTS]
            slope, intercept, r2 = fit_against_log2(points)
            fits[op] = (slope, r2)
        ordering_ok = all(
            rows["transferFrom"][n].gas_mean > rows["transfer"][n].gas_mean > rows["approve"][n].gas_mean
            for n in FIG_CHECKPOINTS
        )
        fits_ok = all(r2 >= 0.95 and slope > 0 for slope, r2 in fits.values())
        # cost added per doubling stays near-constant across the power-of-two grid
        increments_ok = True
        for op in fits:
            deltas = [
                rows[op][b].gas_mean - rows[op][a].gas_mean
                for a, b in zip(LOG_CHECKPOINTS, LOG_CHECKPOINTS[1:])
            ]
            mean_delta = sum(deltas) / len(deltas)
            increments_ok &= all(abs(d - mean_delta) <= 0.25 * mean_delta for d in deltas)
        detail = ", ".join(f"{op}: R2={r2:.4f}" for op, (slope, r2) in fits.items())
        report(2, fits_ok and ordering_ok and increments_ok,
               f"log2 fit at 2^13..2^17 ({detail}); per-doubling increments within 25% of "
               f"constant: {increments_ok}; ordering transferFrom > transfer > approve at "
               f"every checkpoint incl. 400k: {ordering_ok}")


@pytest.mark.slow
class TestCriterion3ScaledModelAdvantage:
    def test_scaled_schedule_favors_accumulator_token(self, acc_fig_run):
        schedule = GasSchedule(mode=SCALED)
        acc_rows = [r for r in tabulate(acc_fig_run, schedule) if r.n_accounts == 400000]
        base_rows = [r for r in tabulate(acc_fig_run.baseline, schedule) if r.n_accounts == 400000]
        ratios = {row.op: row.ratio_a_over_b for row in compare(base_rows, acc_rows)}
        all_cheaper = all(ratio > 1.0 for ratio in ratios.values())
        approve_ratio = ratios["approve"]
        detail = (
            f"baseline/acc gas at 400k accounts: "
            + ", ".join(f"{op} {ratio:.1f}x" for op, ratio in sorted(ratios.items()))
            + f"; approve >= 5x hard gate: {approve_ratio >= 5}; "
            + f">= 10x (order of magnitude): {approve_ratio >= 10}"
        )
        report(3, all_cheaper and approve_ratio >= 5.0, detail)


@pytest.mark.slow
class TestCriterion4AccumulatorProperties:
    def test_property_suite_with_tamper_fuzzing(self, large_tree_2_16):
        rng = random.Random(SEED)

        # completeness on the 2^16-element set
        acc, memory, elements = large_tree_2_16
        for element in rng.sample(elements, 400):
            assert belongs(acc, element, witness(acc, memory, element)) == 1
        for _ in range(200):
            probe = rng.randbytes(10)
            assert belongs(acc, probe, witness(acc, memory, probe)) == 0

        # witness sizes stay logarithmic at 2^16
        lengths = sorted(len(decode_witness(witness(acc, memory, e)).steps) for e in rng.sample(elements, 4000))
        mean_len = sum(lengths) / len(lengths)
        p99 = lengths[(99 * len(lengths)) // 100]
        assert mean_len <= 2 * 16 and p99 <= 4 * 16

        # history independence
        pool = [rng.randbytes(14) for _ in range(2**12)]
        acc_a, _ = _build(pool)
        shuffled = pool[:]
        rng.shuffle(shuffled)
        acc_b, _ = _build(shuffled)
        assert acc_a == acc_b

        # randomized completeness with a shadow set
        acc_r, mem_r = setup(256)
        shadow = set()
        for _ in range(10_000):
            element = rng.randbytes(rng.randint(1, 20))
            if element in shadow and rng.random() < 0.5:
                acc_r = update("del", acc_r, mem_r, element).acc_after
                shadow.discard(element)
            elif element not in shadow:
                acc_r = update("add", acc_r, mem_r, element).acc_after
                shadow.add(element)
        for probe in rng.sample(sorted(shadow), 100):
            assert belongs(acc_r, probe, witness(acc_r, mem_r, probe)) == 1

        # per-byte tamper fuzzing across witness kinds
        mutations = 0
        forgeries = 0
        small_elements = [rng.randbytes(12) for _ in range(128)]
        acc_s, mem_s = _build(small_elements)
        probes = [(e, True) for e in small_elements[:40]] + [
            (rng.randbytes(9), False) for _ in range(20)
        ]
        masks = (0x01, 0x02, 0x08, 0x10, 0x40, 0x80, 0xAA, 0xFF)
        for element, _member in probes:
            raw = witness(acc_s, mem_s, element)
            for position in range(len(raw)):
                for mask in masks:
                    mutated = bytearray(raw)
                    mutated[position] ^= mask
                    mutations += 1
                    if belongs(acc_s, element, bytes(mutated)) is not BOTTOM:
                        forgeries += 1
        running = acc_s
        victims = [rng.randbytes(11) for _ in range(12)]
        for element in victims:
            result = update("add", running, mem_s, element)
            raw = result.witness
            for position in range(len(raw)):
                for mask in masks:
                    mutated = bytearray(raw)
                    mutated[position] ^= mask
                    mutations += 1
                    if check_update(running, result.acc_after, element, bytes(mutated)) != 0:
                        forgeries += 1
            running = result.acc_after
        for element in victims[:6]:
            result = update("del", running, mem_s, element)
            raw = result.witness
            for position in range(len(raw)):
                for mask in masks:
                    mutated = bytearray(raw)
                    mutated[position] ^= mask
                    mutations += 1
                    if check_update(running, result.acc_after, element, bytes(mutated)) != 0:
                        forgeries += 1
            running = result.acc_after
        report(
            4,
            mutations >= 100_000 and forgeries == 0,
            f"completeness/history/log-size hold at 2^16; "
            f"{mutations} mutated witnesses, {forgeries} accepted forgeries",
        )


def _build(elements):
    acc, memory = setup(256)
    for element in elements:
        acc = update("add", acc, memory, element).acc_after
    return acc, memory


@pytest.mark.slow
class TestCriterion5OracleEquivalence:
    def test_thousand_op_workload_and_fault_policies(self):
        ops = generate_workload(seed=SEED, n_ops=1000, n_accounts=100)
        deployer = make_address(0)

        acc = TokenSystem(deployer, 10**12)
        base = BaselineToken.deploy(deployer, 10**12)
        verdicts_acc = []
        for op in ops:
            verdicts_acc.append(apply_op(acc, op))
            acc.check_conservation()  # criterion 7 hook: every accepted tx
        verdicts_base = run_workload(base, ops)
        honest_ok = (
            verdicts_acc == verdicts_base
            and effective_balances(acc) == effective_balances(base)
            and effective_allowances(acc) == effective_allowances(base)
        )

        fault_ok = True
        fault_details = []
        for policy in (
            FaultPolicy.corrupt_bits(0.02, seed=SEED),
            FaultPolicy.stale(1, seed=SEED),
            FaultPolicy.unavailable(0.25, seed=SEED),
        ):
            faulty = TokenSystem(deployer, 10**12, policy=policy)
            verdicts = run_workload(faulty, ops)
            survivors = [op for op, verdict in zip(ops, verdicts) if verdict is None]
            replay = TokenSystem(deployer, 10**12)
            for op in survivors:
                assert apply_op(replay, op) is None
                replay.check_conservation()
            same = (
                faulty.state == replay.state
                and effective_balances(faulty) == effective_balances(replay)
            )
            fault_ok = fault_ok and same
            fault_details.append(f"{policy.mode}: {len(survivors)}/{len(ops)} landed, state match {same}")

        rejected = sum(1 for v in verdicts_acc if v is not None)
        report(
            5,
            honest_ok and fault_ok,
            f"honest dual-run identical over 1000 ops/100 accounts ({rejected} rejected on both); "
            + "; ".join(fault_details),
        )


class TestCriterion6CostModelExactness:
    def test_rent_and_scaled_read_constants(self):
        derived = derive_base_rent(0.30, 202.18, 32)
        rbase_ok = abs(derived - 530_657_634.8) <= 0.1

        params = RentParams()
        k_low, k_high = int(params.k_low), int(params.k_high)
        low_gap = abs(rent_rate(params, k_low) - rent_rate(params, k_low + 1))
        high_gap = abs(rent_rate(params, k_high) - rent_rate(params, k_high + 1))
        continuity_ok = low_gap <= 1.0 and high_gap <= 1.0

        sload_ok = sload_cost(GasSchedule(mode=SCALED), 400_000) == 15_200
        report(
            6,
            rbase_ok and continuity_ok and sload_ok,
            f"R_base derived {derived:.4f} Wei (target 530657634.8, diff {abs(derived - 530_657_634.8):.4f}); "
            f"rent continuity gaps {low_gap:.3f}/{high_gap:.3f} Wei; scaled sload@400k = "
            f"{sload_cost(GasSchedule(mode=SCALED), 400_000)}",
        )


@pytest.mark.slow
class TestCriterion7ConservationAndConstantState:
    def test_hooks_fired_and_state_is_four_words(self, acc_fig_run):
        # the scenario runner asserts conservation of both tokens and the key
        # count at every checkpoint, and cross-checks every metered
        # transaction of the accumulator token against the shadow ledger whose
        # records are the baseline's samples; reaching this point means none
        # of those tripped
        checks = acc_fig_run.conservation_checks + acc_fig_run.baseline.conservation_checks
        sampled = sum(len(cp.samples) for cp in acc_fig_run.checkpoints)
        fresh = TokenSystem(make_address(0), 1000)
        fresh.transfer(make_address(0), make_address(1), 10)
        ok = (
            checks == 2 * len(FIG_CHECKPOINTS)
            and sampled > 0
            and acc_fig_run.dropped == 0
            and fresh.persistent_key_count() == CONTRACT_KEYS == 4
            and len(vars(fresh.contract.state)) == 4
        )
        report(
            7,
            ok,
            f"{checks} checkpoint conservation checks and {sampled} per-transaction shadow checks "
            f"passed during criteria 2-3 populations; criterion 5 checked conservation after every "
            f"accepted transaction; contract persistent state is 4 words",
        )
