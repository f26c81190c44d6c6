"""Deterministic benchmark scenarios: grow a population, meter sampled ops.

A scenario grows the account set to each checkpoint with funded transfers
from the deployer plus one approval per new account (account i approves
account i+1), then meters a fixed number of sampled transfer / approve /
transferFrom transactions at the checkpoint. Sampled transactions run the
full proof path. Growth to a checkpoint is one plan, ``plan.grow``, of the
net changes of those transfers and approvals: one write of the deployer's
balance, then every new account's balance, then every pair, then every
allowance. Both tokens bootstrap it: ``TokenSystem.bootstrap`` records each
accumulator's adds as one run and commits them as one netted batch per
accumulator without proofs, and ``BaselineToken.bootstrap`` applies its
record as map writes, account by account, without transactions. The state
is the one the verified ops reach, and six-figure populations stay
tractable.

The samples are the transactions' own records (``TxRecord``), which carry
raw traces, so one run can be metered under any gas schedule after the
fact. Each metered transaction of the accumulator token is checked
against a shadow ``BaselineToken`` (the mapping oracle; the baseline token is
its own), and conservation and the contract-key count at every checkpoint.
The shadow's records of the same transactions are kept as the run's
``baseline``, so one growth meters both tokens.
"""

import math
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace

from ..baseline import BaselineToken
from ..erc20 import plan
from ..erc20.bundle import ACCUMULATORS, CLAIM_NAMES, decode_bundle, purpose_accumulator, purpose_claim
from ..erc20.contract import CONTRACT_KEYS, TxRecord
from ..erc20.system import TokenSystem
from ..errors import AcctokenError
from ..gas import CATEGORIES, HASH_CATEGORY, GasSchedule, RentParams, annual_rent, meter_transaction, rent_rate
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
    drops: Counter = field(default_factory=Counter)  # dropped samples by error class name
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
    ``(i, i + 1)`` for each new ``i``, in order, so the growth pairs have a
    closed form: ``(i, i + 1)`` is approved for every ``1 <= i <= created``,
    and the g-th growth pair in the pool (from 0) is ``(g + 1, g + 2)``. Only
    the sampled pairs and their indices in the pool are stored; a pool index
    that is no sampled pair's, with j sampled pairs before it, is growth pair
    ``index - j``. A sampled pair's owner already exists, so growth never
    approves a pair that was sampled first.
    """

    def __init__(self):
        self.addresses: list[bytes] = [make_address(0)]
        self.created = 0
        self.pair_count = 0
        self._sampled: list[tuple[int, int]] = []
        self._sampled_set: set[tuple[int, int]] = set()
        self._sampled_at: list[int] = []  # each sampled pair's index in the pool

    def address(self, index: int) -> bytes:
        self.addresses.extend(map(make_address, range(len(self.addresses), index + 1)))
        return self.addresses[index]

    def grow(self, target: int):
        """Approve ``(i, i + 1)`` for every new account ``created < i <= target``."""
        if target > self.created:
            self.pair_count += target - self.created
            self.created = target

    def add_pair(self, owner: int, spender: int):
        """Approve a sampled pair; a pair approved already is not added again."""
        pair = (owner, spender)
        if self.approved(owner, spender):
            return
        if not 1 <= owner <= self.created:
            raise ValueError(f"owner {owner} is not an account yet")
        self._sampled.append(pair)
        self._sampled_set.add(pair)
        self._sampled_at.append(self.pair_count)
        self.pair_count += 1

    def approved(self, owner: int, spender: int) -> bool:
        if spender == owner + 1 and 1 <= owner <= self.created:
            return True
        return (owner, spender) in self._sampled_set

    def pair(self, index: int) -> tuple[int, int]:
        """The ``index``-th approved pair, ``0 <= index < pair_count``."""
        if not 0 <= index < self.pair_count:
            raise IndexError(f"pair index {index} out of range")
        j = bisect_left(self._sampled_at, index)
        if j < len(self._sampled_at) and self._sampled_at[j] == index:
            return self._sampled[j]
        return (index - j + 1, index - j + 2)


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
    """Grow the population to ``target`` accounts: one ``plan.grow`` of the
    new accounts, each approving the next, that every token of the run
    bootstraps. The deployer's balance before growth is the shadow's."""
    deployer = pop.address(0)
    pop.address(target + 1)  # the last new account's spender
    growth = plan.grow(
        deployer,
        shadow.balance_of(deployer),
        pop.addresses[pop.created + 1 : target + 1],
        pop.addresses[pop.created + 2 : target + 2],
        GRANT,
        APPROVE_ALLOWANCE,
    )
    system.bootstrap([growth])
    if shadow is not system:
        shadow.bootstrap([growth])
    pop.grow(target)


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
            except AcctokenError as exc:
                run.dropped += 1
                run.drops[type(exc).__name__] += 1
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


def _by_op(run: ScenarioRun):
    """Each (op, n)'s samples, as (n, op, samples), ordered by op, then n."""
    groups: dict[tuple[str, int], list[TxRecord]] = {}
    for cp in run.checkpoints:
        for sample in cp.samples:
            groups.setdefault((sample.op, cp.n_accounts), []).append(sample)
    for op, n_accounts in sorted(groups):
        yield n_accounts, op, groups[op, n_accounts]


def tabulate(run: ScenarioRun, schedule: GasSchedule) -> list[ResultRow]:
    """Meter a run's samples under ``schedule`` and aggregate per (op, n)."""
    rows = []
    for n_accounts, op, samples in _by_op(run):
        gas = [meter_transaction(schedule, s.trace).total for s in samples]
        rows.append(
            ResultRow(
                n_accounts=n_accounts,
                op=op,
                gas_mean=sum(gas) / len(gas),
                gas_p95=_percentile95(gas),
                proof_bytes_mean=sum(s.bundle_bytes for s in samples) / len(samples),
                verifications=sum(s.verifications for s in samples) / len(samples),
            )
        )
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
    rows = {}
    for line in lines[1:]:
        n, op, gas_mean, gas_p95, proof_bytes, verifications = line.split(",")
        row = ResultRow(int(n), op, float(gas_mean), int(gas_p95), float(proof_bytes), float(verifications))
        # every metered op pays gas, and ``compare`` divides by the mean
        if not 0 < row.gas_mean < math.inf:
            raise ValueError(f"gas_mean {gas_mean} of ({op}, {n}) is not a positive finite amount")
        # ``compare`` pairs rows by (op, n), so a second row would be paired by argument order
        if rows.setdefault((op, row.n_accounts), row) is not row:
            raise ValueError(f"more than one row for ({op}, {n})")
    return list(rows.values())


# -- where the gas and the proof bytes go ---------------------------------------

#: a bundle's frame (op tag and entry count), which no entry holds
FRAME_BYTES = 2

#: the proof-byte columns of a split, one per (accumulator, claim)
ENTRY_COLUMNS = tuple((acc, claim) for acc in ACCUMULATORS for claim in CLAIM_NAMES)


@dataclass
class SplitRow:
    """Per (op, n): the mean gas of each ``GasReceipt.breakdown`` category,
    which sum to the results row's ``gas_mean``; the mean count of metered
    SHA-256 calls; and the mean bundle bytes of the frame and of each
    (accumulator, claim), its entries' purpose bytes, witnesses and claimed
    values, which sum to the row's ``proof_bytes_mean``."""

    n_accounts: int
    op: str
    gas: dict[str, float]
    sha256_calls: float
    frame_bytes: float
    entry_bytes: dict[tuple[str, int], float]


def _entry_bytes(record: TxRecord, sizes: Counter):
    """Add the bytes per (accumulator, claim) of the bundle ``record`` carried
    to ``sizes``, read back from the calldata's tail, where the bundle bytes
    the contract was given ride."""
    for entry in decode_bundle(record.trace.calldata[-record.bundle_bytes :]).entries:
        claimed = 0 if entry.claimed_after is None else len(entry.claimed_after)
        sizes[purpose_accumulator(entry.purpose), purpose_claim(entry.purpose)] += 1 + len(entry.witness) + claimed


def gas_split(run: ScenarioRun, schedule: GasSchedule) -> list[SplitRow]:
    """Meter a run's samples under ``schedule`` and split each (op, n)'s mean
    gas by category and its proof bytes by entry, in ``tabulate``'s row order."""
    rows = []
    for n_accounts, op, samples in _by_op(run):
        gas, hashes, bundled, sizes = Counter(), 0, 0, Counter()
        for sample in samples:
            receipt = meter_transaction(schedule, sample.trace)
            gas.update(receipt.breakdown)
            hashes += receipt.counts[HASH_CATEGORY]
            if sample.bundle_bytes:  # the mapping token sends none
                bundled += 1
                _entry_bytes(sample, sizes)
        count = len(samples)
        rows.append(
            SplitRow(
                n_accounts,
                op,
                {category: gas[category] / count for category in CATEGORIES},
                hashes / count,
                FRAME_BYTES * bundled / count,
                {column: sizes[column] / count for column in ENTRY_COLUMNS},
            )
        )
    return rows


SPLIT_HEADER = ",".join(
    [
        "n",
        "op",
        *(f"gas.{category}" for category in CATEGORIES),
        "sha256_calls",
        "bytes.frame",
        *(f"bytes.{acc}.{CLAIM_NAMES[claim]}" for acc, claim in ENTRY_COLUMNS),
    ]
)


def split_to_csv(rows: list[SplitRow]) -> str:
    lines = [SPLIT_HEADER]
    for r in rows:
        cells = [str(r.n_accounts), r.op, *(r.gas[category] for category in CATEGORIES), r.sha256_calls, r.frame_bytes]
        cells += [r.entry_bytes[column] for column in ENTRY_COLUMNS]
        lines.append(",".join(cell if isinstance(cell, str) else f"{cell:.2f}" for cell in cells))
    return "\n".join(lines) + "\n"


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
