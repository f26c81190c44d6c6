"""Deterministic benchmark scenarios: grow a population, meter sampled ops.

A scenario grows the account set to each checkpoint with funded transfers
from the deployer plus one approval per new account (account i approves
account i+1), then meters a fixed number of sampled transfer / approve /
transferFrom transactions at the checkpoint. Sampled transactions run the
full proof path. Growth is one stream of plans of the same transfers and
approvals, with two bootstraps: ``TokenSystem.bootstrap`` commits each
checkpoint's updates as one netted batch per accumulator without proofs, and
``BaselineToken.bootstrap`` applies the plans' logs as map writes without
transactions. The state is the one the verified ops reach, and six-figure
populations stay tractable.

The samples are the transactions' own records (``TxRecord``), which carry
raw traces, so one run can be metered under any gas schedule after the
fact. Each metered transaction of the accumulator token is checked
against a shadow ``BaselineToken`` (the mapping oracle; the baseline token is
its own), and conservation and the contract-key count at every checkpoint.
The shadow's records of the same transactions are kept as the run's
``baseline``, so one growth meters both tokens.
"""

import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from ..baseline import BaselineToken
from ..erc20 import plan
from ..erc20.contract import CONTRACT_KEYS, TxRecord
from ..erc20.system import TokenSystem
from ..errors import AcctokenError
from ..gas import GasSchedule, RentParams, annual_rent, meter_transaction, rent_rate
from ..storage import FaultPolicy
from .workload import make_address, true_balance

ACC = "acc"
BASELINE = "baseline"


#: Tokens the deployer grants each new account, the allowance each approval
#: sets, and the total supply.
GRANT = 100
APPROVE_ALLOWANCE = 10**6
SUPPLY = 10**15


@dataclass(frozen=True)
class Scenario:
    token: str = ACC
    checkpoints: tuple[int, ...] = (1000, 2000)
    ops_per_checkpoint: int = 100
    seed: int = 0
    lift: bool = False
    fault: FaultPolicy = field(default_factory=FaultPolicy.honest)

    def __post_init__(self):
        if self.token not in (ACC, BASELINE):
            raise ValueError(f"unknown token {self.token!r}")
        if not self.checkpoints or any(
            b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])
        ):
            raise ValueError("checkpoints must be non-empty and strictly increasing")
        if self.checkpoints[0] <= 0:
            raise ValueError("checkpoints must be positive")
        if SUPPLY < GRANT * self.checkpoints[-1] + 1:
            raise ValueError("supply cannot fund the final checkpoint")
        if self.ops_per_checkpoint < 0:
            raise ValueError("ops_per_checkpoint must be non-negative")


@dataclass
class CheckpointSamples:
    """The records of the transactions a checkpoint metered, in the order they ran."""

    n_accounts: int
    samples: list[TxRecord]


@dataclass
class ScenarioRun:
    """A run's samples per checkpoint: the records its token returned.

    An accumulator-token run also holds ``baseline``: the shadow mapping
    token's run over the transactions the accumulator token accepted, its
    samples the shadow's records in the same order. A baseline-token run has
    none.
    """

    scenario: Scenario
    checkpoints: list[CheckpointSamples]
    dropped: int = 0
    conservation_checks: int = 0
    baseline: "ScenarioRun | None" = None


@dataclass
class ResultRow:
    n_accounts: int
    op: str
    gas_mean: float
    gas_p95: int
    proof_bytes_mean: float
    verifications: float


class _Population:
    """Growth bookkeeping: addresses by index plus the approved-pair pool.

    The pool holds every approved ``(owner, spender)`` pair once, in the
    order of approval; the sampled ops read it by index (``pair``) and by
    membership (``approved``). Growth to ``created`` accounts approves
    ``(i, i + 1)`` for each new ``i``, so the pool is runs of growth pairs
    between runs of sampled pairs, and the growth pairs have a closed form:
    ``(i, i + 1)`` is approved for every ``1 <= i <= created``, and index
    ``j`` of a growth run that starts at index ``s`` with owner ``o`` is
    ``(o + j - s, o + j - s + 1)``. Only the sampled pairs and where each
    run starts are stored. A sampled pair's owner already exists, so growth
    never approves a pair that was sampled first.
    """

    def __init__(self):
        self.addresses: list[bytes] = [make_address(0)]
        self.created = 0
        self.pair_count = 0
        self._sampled: list[tuple[int, int]] = []
        self._sampled_set: set[tuple[int, int]] = set()
        # each run's first index in the pool, and its kind and base: a growth
        # run's first owner, or a sampled run's first position in _sampled,
        # minus that index
        self._run_starts: list[int] = []
        self._runs: list[tuple[bool, int]] = []

    def address(self, index: int) -> bytes:
        while len(self.addresses) <= index:
            self.addresses.append(make_address(len(self.addresses)))
        return self.addresses[index]

    def _open_run(self, growth: bool, first: int):
        if not self._runs or self._runs[-1][0] != growth:
            self._run_starts.append(self.pair_count)
            self._runs.append((growth, first - self.pair_count))

    def grow(self, target: int):
        """Approve ``(i, i + 1)`` for every new account ``created < i <= target``."""
        if target > self.created:
            self._open_run(True, self.created + 1)
            self.pair_count += target - self.created
            self.created = target

    def add_pair(self, owner: int, spender: int):
        """Approve a sampled pair; a pair approved already is not added again."""
        pair = (owner, spender)
        if self.approved(owner, spender):
            return
        if not 1 <= owner <= self.created:
            raise ValueError(f"owner {owner} is not an account yet")
        self._open_run(False, len(self._sampled))
        self._sampled.append(pair)
        self._sampled_set.add(pair)
        self.pair_count += 1

    def approved(self, owner: int, spender: int) -> bool:
        if spender == owner + 1 and 1 <= owner <= self.created:
            return True
        return (owner, spender) in self._sampled_set

    def pair(self, index: int) -> tuple[int, int]:
        """The ``index``-th approved pair, ``0 <= index < pair_count``."""
        if not 0 <= index < self.pair_count:
            raise IndexError(f"pair index {index} out of range")
        growth, base = self._runs[bisect_right(self._run_starts, index) - 1]
        if growth:
            return (base + index, base + index + 1)
        return self._sampled[base + index]


def run_scenario(scenario: Scenario) -> ScenarioRun:
    pop = _Population()
    deployer = pop.address(0)
    shadow = BaselineToken.deploy(deployer, SUPPLY)
    run = ScenarioRun(scenario, [])
    if scenario.token == ACC:
        system = TokenSystem(
            deployer,
            SUPPLY,
            policy=scenario.fault,
            lift_checkupdate_precondition=scenario.lift,
        )
        run.baseline = ScenarioRun(replace(scenario, token=BASELINE), [])
    else:
        system = shadow

    for checkpoint in scenario.checkpoints:
        _grow(system, shadow, pop, checkpoint)
        _sample_checkpoint(scenario, system, shadow, pop, checkpoint, run)
        _integrity(system, shadow, run)
    return run


def _grow(system, shadow, pop, target):
    deployer_balance = shadow.balance_of(pop.address(0))
    system.bootstrap(_growth_plans(pop, pop.created, target, deployer_balance))
    if shadow is not system:
        shadow.bootstrap(_growth_plans(pop, pop.created, target, deployer_balance))
    pop.grow(target)


def _growth_plans(pop, created, target, deployer_balance):
    """Plans of the growth ops for accounts ``created+1..target``.

    The one plan stream growth gives every token of a run, each to its own
    ``bootstrap``. The deployer funds each new account from
    ``deployer_balance``, its balance before growth, and announces the
    running count.
    """
    deployer = pop.address(0)
    for i in range(created + 1, target + 1):
        addr = pop.address(i)
        yield plan.transfer(deployer, addr, GRANT, plan.Announced((deployer_balance,)))
        deployer_balance -= GRANT
        yield plan.approve(addr, pop.address(i + 1), APPROVE_ALLOWANCE, plan.Announced(()))


def _open_checkpoint(run, n_accounts) -> list[TxRecord]:
    run.checkpoints.append(CheckpointSamples(n_accounts, []))
    return run.checkpoints[-1].samples


def _sample_checkpoint(scenario, system, shadow, pop, n_accounts, run):
    rng = random.Random(f"{scenario.seed}:{n_accounts}")
    samples = _open_checkpoint(run, n_accounts)
    if shadow is not system:
        shadow_samples = _open_checkpoint(run.baseline, n_accounts)
    for _ in range(scenario.ops_per_checkpoint):
        for kind in ("transfer", "approve", "transfer_from"):
            op_args = _pick_op(rng, shadow, pop, n_accounts, kind)
            if op_args is None:
                continue
            try:
                record = getattr(system, kind)(*op_args)
            except AcctokenError:
                run.dropped += 1
                continue
            samples.append(record)
            if shadow is not system:
                shadow_samples.append(getattr(shadow, kind)(*op_args))
                _spot_check(system, shadow, op_args)


def _pick_op(rng, shadow, pop, n, kind):
    if kind == "transfer":
        for _ in range(64):
            src = rng.randrange(1, n + 1)
            dst = rng.randrange(1, n + 1)
            if src != dst and shadow.balance_of(pop.address(src)) >= 1:
                return (pop.address(src), pop.address(dst), 1)
        return None
    if kind == "approve":
        for _ in range(64):
            owner = rng.randrange(1, n + 1)
            spender = rng.randrange(1, n + 2)
            if owner != spender and not pop.approved(owner, spender):
                pop.add_pair(owner, spender)
                return (pop.address(owner), pop.address(spender), APPROVE_ALLOWANCE)
        return None
    for _ in range(64):
        owner, spender = pop.pair(rng.randrange(pop.pair_count))
        dst = rng.randrange(1, n + 1)
        if (
            dst != owner
            and shadow.balance_of(pop.address(owner)) >= 1
            and shadow.allowance(pop.address(owner), pop.address(spender)) >= 1
        ):
            return (pop.address(spender), pop.address(owner), pop.address(dst), 1)
    return None


def _spot_check(system, shadow, op_args):
    # every metered transaction must leave both ledgers agreeing on the
    # balances it touched; read ledger state directly so fault policies on
    # the serving path cannot mask a divergence
    for addr in op_args:
        if isinstance(addr, bytes):
            got = true_balance(system, addr)
            want = shadow.balance_of(addr)
            if got != want:
                raise AssertionError(f"ledger divergence for {addr.hex()}: {got} != {want}")


def _integrity(system, shadow, run):
    system.check_conservation()
    run.conservation_checks += 1
    if shadow is not system:
        shadow.check_conservation()
        run.baseline.conservation_checks += 1
        if system.persistent_key_count() != CONTRACT_KEYS:
            raise AssertionError("contract state grew beyond its four words")


# -- tabulation -----------------------------------------------------------------

def _percentile95(values: list[int]) -> int:
    ordered = sorted(values)
    index = max(0, -(-95 * len(ordered) // 100) - 1)
    return ordered[index]


def tabulate(run: ScenarioRun, schedule: GasSchedule) -> list[ResultRow]:
    """Meter a run's samples under ``schedule`` and aggregate per (op, n)."""
    rows = []
    for cp in run.checkpoints:
        by_op: dict[str, list[TxRecord]] = {}
        for sample in cp.samples:
            by_op.setdefault(sample.op, []).append(sample)
        for op, samples in by_op.items():
            gas = [meter_transaction(schedule, s.trace).total for s in samples]
            rows.append(
                ResultRow(
                    n_accounts=cp.n_accounts,
                    op=op,
                    gas_mean=sum(gas) / len(gas),
                    gas_p95=_percentile95(gas),
                    proof_bytes_mean=sum(s.bundle_bytes for s in samples) / len(samples),
                    verifications=sum(s.verifications for s in samples) / len(samples),
                )
            )
    rows.sort(key=lambda r: (r.op, r.n_accounts))
    return rows


CSV_HEADER = "n,op,gas_mean,gas_p95,proof_bytes_mean,verifications"


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.n_accounts},{r.op},{r.gas_mean:.2f},{r.gas_p95},"
            f"{r.proof_bytes_mean:.2f},{r.verifications:.2f}"
        )
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[ResultRow]:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized results CSV header")
    rows = []
    for line in lines[1:]:
        n, op, gas_mean, gas_p95, proof_bytes, verifications = line.split(",")
        rows.append(
            ResultRow(int(n), op, float(gas_mean), int(gas_p95), float(proof_bytes), float(verifications))
        )
    return rows


# -- comparison and rent tables ---------------------------------------------------

@dataclass
class CompareRow:
    n_accounts: int
    op: str
    gas_a: float
    gas_b: float
    ratio_a_over_b: float


def compare(rows_a: list[ResultRow], rows_b: list[ResultRow]) -> list[CompareRow]:
    """Per-(op, n) gas ratios; both inputs must cover the same checkpoints.

    The ratios are of per-(op, n) means, not of paired ops. Tabulating an
    accumulator-token run and its ``baseline`` meters both tokens on the same
    transactions; under a fault policy those are only the transactions the
    accumulator token accepted, since the shadow never runs a dropped one.
    """
    index_b = {(r.op, r.n_accounts): r for r in rows_b}
    keys_a = {(r.op, r.n_accounts) for r in rows_a}
    if keys_a != set(index_b):
        raise ValueError("result sets cover different (op, checkpoint) grids")
    out = []
    for a in rows_a:
        b = index_b[(a.op, a.n_accounts)]
        out.append(CompareRow(a.n_accounts, a.op, a.gas_mean, b.gas_mean, a.gas_mean / b.gas_mean))
    out.sort(key=lambda r: (r.op, r.n_accounts))
    return out


@dataclass
class RentRow:
    k_total: int
    rate_wei_per_key_year: float
    annual_rent_wei: dict[int, float]


def rent_report(params: RentParams, contract_key_counts: list[int], k_totals: list[int]) -> list[RentRow]:
    rows = []
    for k_total in k_totals:
        rows.append(
            RentRow(
                k_total,
                rent_rate(params, k_total),
                {k: annual_rent(params, k, k_total) for k in contract_key_counts},
            )
        )
    return rows
