"""Dual-run equivalence: the accumulator token against the mapping oracle."""

import pytest

from acctoken.baseline import BaselineToken
from acctoken.bench import effective_allowances, effective_balances, make_address
from acctoken.erc20 import TokenSystem
from acctoken.erc20.bundle import ACCUMULATORS
from acctoken.errors import BundleSchemaMismatch, InvalidAddress, TokenError, Unavailable
from acctoken.storage import FaultPolicy
from random_workload import WorkloadOp, apply_op, generate_workload, run_workload

DEPLOYER = make_address(0)
SUPPLY = 10**12


def dual_run(ops):
    acc = TokenSystem(DEPLOYER, SUPPLY)
    base = BaselineToken.deploy(DEPLOYER, SUPPLY)
    verdicts_acc = run_workload(acc, ops)
    verdicts_base = run_workload(base, ops)
    return acc, base, verdicts_acc, verdicts_base


class TestHonestEquivalence:
    def test_small_workload_verdicts_and_maps(self):
        ops = generate_workload(seed=11, n_ops=120, n_accounts=12)
        acc, base, verdicts_acc, verdicts_base = dual_run(ops)
        assert verdicts_acc == verdicts_base
        assert effective_balances(acc) == effective_balances(base)
        assert effective_allowances(acc) == effective_allowances(base)

    def test_rejections_occur_and_agree(self):
        ops = generate_workload(seed=12, n_ops=200, n_accounts=8)
        _, _, verdicts_acc, verdicts_base = dual_run(ops)
        rejected = [v for v in verdicts_acc if v is not None]
        assert rejected, "workload should exercise rejection paths"
        assert verdicts_acc == verdicts_base

    def test_conservation_after_workload(self):
        ops = generate_workload(seed=13, n_ops=150, n_accounts=10)
        acc, base, _, _ = dual_run(ops)
        acc.check_conservation()
        base.check_conservation()


class TestFaultEquivalence:
    POLICIES = [
        FaultPolicy.corrupt_bits(0.02, seed=101),
        FaultPolicy.stale(1, seed=102),
        FaultPolicy.unavailable(0.25, seed=103),
    ]

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.mode)
    def test_faulty_run_equals_honest_run_minus_dropped(self, policy):
        ops = generate_workload(seed=21, n_ops=120, n_accounts=10)
        faulty = TokenSystem(DEPLOYER, SUPPLY, policy=policy)
        verdicts = run_workload(faulty, ops)
        surviving = [op for op, verdict in zip(ops, verdicts) if verdict is None]

        replay = TokenSystem(DEPLOYER, SUPPLY)
        for op in surviving:
            assert apply_op(replay, op) is None, "surviving op must replay cleanly"

        assert faulty.state == replay.state
        assert effective_balances(faulty) == effective_balances(replay)
        assert effective_allowances(faulty) == effective_allowances(replay)
        faulty.check_conservation()

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.mode)
    def test_no_fault_forges_state_transitions(self, policy):
        # every accepted transaction under a fault policy is one the honest
        # oracle also accepts, in order
        ops = generate_workload(seed=22, n_ops=100, n_accounts=8)
        faulty = TokenSystem(DEPLOYER, SUPPLY, policy=policy)
        shadow = BaselineToken.deploy(DEPLOYER, SUPPLY)
        for op in ops:
            if apply_op(faulty, op) is None:
                assert apply_op(shadow, op) is None
        assert effective_balances(faulty) == effective_balances(shadow)

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.mode)
    def test_faults_surface_as_token_errors_or_unavailable(self, policy, lift):
        # the trust model: storage faults reach the caller as VerificationFailed
        # (a TokenError) or Unavailable, never as an accumulator error
        leaked = []
        for seed in range(5):
            ops = generate_workload(seed=seed, n_ops=300, n_accounts=20)
            faulty = TokenSystem(DEPLOYER, SUPPLY, policy=policy, lift_checkupdate_precondition=lift)
            verdicts = run_workload(faulty, ops)
            leaked += [v for v in verdicts if v is not None and not issubclass(v, (TokenError, Unavailable))]
        assert leaked == []

    def test_stale_view_blocks_all_balance_movement(self):
        ops = generate_workload(seed=23, n_ops=60, n_accounts=6)
        faulty = TokenSystem(DEPLOYER, SUPPLY, policy=FaultPolicy.stale(1, seed=5))
        verdicts = run_workload(faulty, ops)
        # deployment already advanced the balances epoch past the lagged
        # view, so every balance-moving op fails; only approvals against the
        # still-untouched allowance accumulators can land
        for op, verdict in zip(ops, verdicts):
            if op.kind in ("transfer", "transfer_from"):
                assert verdict is not None
        assert effective_balances(faulty) == {DEPLOYER: SUPPLY}


class TestWorkloadGenerator:
    def test_deterministic(self):
        assert generate_workload(5, 50, 10) == generate_workload(5, 50, 10)

    def test_ops_stay_in_supported_space(self):
        for op in generate_workload(6, 300, 9):
            if op.kind == "transfer":
                sender, to, _ = op.args
                assert sender != to
            elif op.kind == "transfer_from":
                _, sender, to, _ = op.args
                assert sender != to


HOLDER = make_address(1)
SPENDER = make_address(2)


def funded_pair():
    """Both tokens with HOLDER funded by the deployer and SPENDER approved by HOLDER."""
    tokens = TokenSystem(DEPLOYER, SUPPLY), BaselineToken.deploy(DEPLOYER, SUPPLY)
    for token in tokens:
        token.transfer(DEPLOYER, HOLDER, 100)
        token.approve(HOLDER, SPENDER, 50)
    return tokens


def ledger(token):
    """Everything an op could change: contract words, storage values and epochs, logs; or the maps and logs."""
    if isinstance(token, BaselineToken):
        return dict(token.balances), dict(token.allowed), set(token.ever_approved), token.log_count
    storage = tuple((token.network.accumulator_value(name), token.network.epoch(name)) for name in ACCUMULATORS)
    return token.state, storage, len(token.contract.logs)


class TestRecords:
    @pytest.mark.parametrize(
        "kind, args, name",
        [
            ("transfer", (HOLDER, DEPLOYER, 1), "transfer"),
            ("approve", (HOLDER, DEPLOYER, 5), "approve"),
            ("transfer_from", (SPENDER, HOLDER, DEPLOYER, 1), "transferFrom"),
        ],
    )
    def test_both_tokens_name_the_op_alike(self, kind, args, name):
        # the records are the samples, and the result rows are grouped by
        # their op: both tokens must give it the op's ERC20 name
        acc, base = funded_pair()
        acc_record, base_record = (getattr(token, kind)(*args) for token in (acc, base))
        assert type(acc_record) is type(base_record)
        assert acc_record.op == base_record.op == name
        assert base_record.bundle_bytes == base_record.verifications == 0 and base_record.updates == []
        assert acc_record.log == base_record.log


class TestMalformedAddress:
    @pytest.mark.parametrize("length", [19, 21])
    @pytest.mark.parametrize(
        "kind, args",
        [
            ("transfer", (HOLDER, None, 1)),
            ("transfer", (None, HOLDER, 1)),
            ("approve", (HOLDER, None, 1)),
            ("approve", (None, HOLDER, 1)),
            ("transfer_from", (SPENDER, HOLDER, None, 1)),
            ("transfer_from", (SPENDER, None, DEPLOYER, 1)),
            ("transfer_from", (None, HOLDER, DEPLOYER, 1)),
        ],
    )
    def test_rejected_as_invalid_address(self, kind, args, length):
        bad = b"\x07" * length
        op = WorkloadOp(kind, tuple(bad if arg is None else arg for arg in args))
        for token in funded_pair():
            before = ledger(token)
            assert apply_op(token, op) is InvalidAddress
            assert ledger(token) == before


class TestKnownDivergence:
    """Verdicts on which the oracle and the accumulator token part on purpose."""

    @pytest.mark.parametrize(
        "op, allowance",
        [(WorkloadOp("transfer", (HOLDER, HOLDER, 10)), 50), (WorkloadOp("transfer_from", (SPENDER, HOLDER, HOLDER, 10)), 40)],
        ids=["transfer", "transfer_from"],
    )
    def test_self_transfer(self, op, allowance):
        acc, base = funded_pair()
        # the oracle accepts it and the holder's balance stays as it was;
        # the transferFrom still spends the allowance
        assert apply_op(base, op) is None
        assert base.balance_of(HOLDER) == 100 and base.allowance(HOLDER, SPENDER) == allowance
        base.check_conservation()
        # the accumulator token has no bundle schema for it
        before = ledger(acc)
        assert apply_op(acc, op) is BundleSchemaMismatch
        assert ledger(acc) == before
