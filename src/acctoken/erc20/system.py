"""Deployment wiring: contract, storage network and client in lock step.

``TokenSystem`` plays the role of the chain environment: it routes accepted
transactions to the contract, replays the confirmed updates into the storage
network in contract order, and assembles the calldata that gas metering sees.
A transaction is atomic end to end: a rejection at any stage leaves the
contract state, the storage memories and the logs untouched.
"""

import hashlib
from dataclasses import dataclass

from ..errors import Overflow, ZeroSupply
from ..gas import TxTrace
from ..storage import AccumulatorId, FaultPolicy, StorageNetwork
from . import bundle as pb
from . import plan
from .bundle import OpTag, ProofBundle, encode_bundle
from .client import TokenClient
from .contract import CONTRACT_KEYS, AccTokenContract, ContractState, LogRecord, TxOutcome
from .elements import (
    AMOUNT_BYTES,
    AMOUNT_MAX,
    ZERO_ADDRESS,
    balance_element,
    check_address,
    check_amount,
    decode_balance_element,
)

# lookup keys: the tag byte plus the owner, or plus owner and spender
_INDEX_PREFIX_LEN = {pb.BALANCES: 21, pb.ALLOWED_BALANCES: 41}

_SELECTORS = {
    op: hashlib.sha256(signature.encode()).digest()[:4]
    for op, signature in {
        OpTag.TRANSFER: "transfer(address,address,uint256)",
        OpTag.APPROVE: "approve(address,address,uint256)",
        OpTag.TRANSFER_FROM: "transferFrom(address,address,address,uint256)",
    }.items()
}


def abi_calldata(op: OpTag, addresses: list[bytes], tokens: int, extra_words: tuple[int, ...], bundle_bytes: bytes) -> bytes:
    """Simulated transaction payload: selector, padded args, announced words, bundle."""
    parts = [_SELECTORS[op]]
    for addr in addresses:
        parts.append(b"\x00" * 12 + addr)
    parts.append(tokens.to_bytes(AMOUNT_BYTES, "big"))
    for word in extra_words:
        parts.append(word.to_bytes(AMOUNT_BYTES, "big"))
    parts.append(bundle_bytes)
    return b"".join(parts)


@dataclass
class TxRecord:
    op: str
    log: LogRecord
    trace: TxTrace
    bundle_bytes: int
    verifications: int


class TokenSystem:
    """One deployed accumulator token plus its storage network and client."""

    def __init__(
        self,
        deployer: bytes,
        total: int,
        policy: FaultPolicy | None = None,
        network: StorageNetwork | None = None,
        instance: str = "token-0",
        lift_checkupdate_precondition: bool = False,
    ):
        check_address(deployer)
        if total == 0:
            raise ZeroSupply("deployment needs a positive total supply")
        if not 0 < total <= AMOUNT_MAX:
            raise Overflow(f"total supply {total} outside uint256 range")
        self.network = network if network is not None else StorageNetwork(policy)
        self.acc_ids = {name: AccumulatorId(name, instance) for name in pb.ACCUMULATORS}
        for name, acc_id in self.acc_ids.items():
            self.network.register(acc_id, index_prefix_len=_INDEX_PREFIX_LEN.get(name))
        self.network.commit(self.acc_ids[pb.BALANCES], "add", balance_element(deployer, total))
        state = ContractState(
            *(self.network.accumulator_value(acc_id) for acc_id in self.acc_ids.values()), total
        )
        self.contract = AccTokenContract(state, lift_checkupdate_precondition)
        self.contract.logs.append(LogRecord("Transfer", ZERO_ADDRESS, deployer, total))
        self.client = TokenClient(self.contract, self.network, self.acc_ids)
        self.deployer = deployer

    # -- views ---------------------------------------------------------------

    def total_supply(self) -> int:
        return self.contract.total_supply()

    def balance_of(self, owner: bytes) -> int:
        return self.client.balance_of(owner)

    def allowance(self, owner: bytes, spender: bytes) -> int:
        return self.client.allowance(owner, spender)

    @property
    def state(self) -> ContractState:
        return self.contract.state

    # -- transaction submission ----------------------------------------------

    def _commit_and_record(
        self, op: OpTag, addresses: list[bytes], tokens: int, bundle: ProofBundle, outcome: TxOutcome
    ) -> TxRecord:
        for acc_name, update_op, element in outcome.commits:
            self.network.commit(self.acc_ids[acc_name], update_op, element)
        self._assert_lock_step()
        encoded = encode_bundle(bundle)
        trace = TxTrace(
            calldata=abi_calldata(op, addresses, tokens, bundle.announced, encoded),
            events=list(outcome.events),
        )
        # the contract verifies every entry of an accepted bundle
        return TxRecord(op.name.lower(), outcome.log, trace, len(encoded), len(bundle.entries))

    def _assert_lock_step(self):
        for name, acc_id in self.acc_ids.items():
            stored = self.contract.state.value_of(name)
            if stored != self.network.accumulator_value(acc_id):
                raise AssertionError(f"storage diverged from contract on {name}")

    def transfer(self, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle | None = None) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_transfer(sender, to, tokens)
        outcome = self.contract.transfer(sender, to, tokens, bundle)
        return self._commit_and_record(OpTag.TRANSFER, [sender, to], tokens, bundle, outcome)

    def approve(self, owner: bytes, spender: bytes, tokens: int, bundle: ProofBundle | None = None) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_approve(owner, spender, tokens)
        outcome = self.contract.approve(owner, spender, tokens, bundle)
        return self._commit_and_record(OpTag.APPROVE, [owner, spender], tokens, bundle, outcome)

    def transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle | None = None
    ) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_transfer_from(spender, sender, to, tokens)
        outcome = self.contract.transfer_from(spender, sender, to, tokens, bundle)
        return self._commit_and_record(
            OpTag.TRANSFER_FROM, [spender, sender, to], tokens, bundle, outcome
        )

    # -- bootstrap fast path -------------------------------------------------

    def fast_transfer(self, sender: bytes, to: bytes, tokens: int, sender_balance: int, to_balance: int | None):
        """Apply a transfer's state transition without proof machinery.

        Commits the update steps of the same plan the verified path checks,
        so it produces bit-identical contract and storage state;
        population-growth workloads use it so benchmarks stay tractable. No
        event log is emitted; this is bootstrap tooling, not a transaction.
        ``to_balance`` is None when the destination holds no tuple yet.
        """
        check_amount(tokens)
        if sender_balance < tokens:
            raise ValueError("fast path needs a funded sender")
        self._apply_unverified(plan.transfer(sender, to, tokens, plan.Announced((sender_balance, to_balance))))

    def fast_approve(self, owner: bytes, spender: bytes, tokens: int, old: int | None):
        """Fast-path counterpart of approve; ``old`` is the prior allowance tuple."""
        check_amount(tokens)
        self._apply_unverified(plan.approve(owner, spender, tokens, plan.Announced((old,))))

    def _apply_unverified(self, op_plan: plan.Plan):
        _log, steps = op_plan  # bootstrap commits emit no log
        values = {}
        for acc, claim, element in steps:
            if claim in pb.STORAGE_OP:
                values[acc] = self.network.commit(self.acc_ids[acc], pb.STORAGE_OP[claim], element)
        self.contract.state = self.contract.state.with_values(values)

    # -- integrity hooks ------------------------------------------------------

    def check_conservation(self):
        """Balance tuples sum to the supply; at most one tuple per owner and per pair."""
        for name, keyed_by in ((pb.BALANCES, "owner"), (pb.ALLOWED_BALANCES, "(owner, spender) pair")):
            index = self.network._entry(self.acc_ids[name]).index
            shared = sum(1 for bucket in index.values() if len(bucket) > 1)
            if shared:
                raise AssertionError(f"{shared} {keyed_by}s hold more than one {name} tuple")
        memory = self.network._entry(self.acc_ids[pb.BALANCES]).memory
        total = sum(decode_balance_element(e)[1] for e in memory.elements.values())
        if total != self.contract.total_supply():
            raise AssertionError(
                f"balance tuples sum to {total}, total supply is {self.contract.total_supply()}"
            )

    def persistent_key_count(self) -> int:
        return CONTRACT_KEYS
