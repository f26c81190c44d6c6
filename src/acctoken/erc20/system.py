"""Deployment wiring: contract, storage network and client, all or none.

``TokenSystem`` plays the role of the chain environment: it encodes each
transaction's bundle once, hands the contract those bytes with the op's
arguments and announced words, commits the update steps the contract's
``TxRecord`` lists to the storage network, and assembles from the same bytes
the calldata that gas metering sees, on that record's trace. A transaction
is atomic end to end: a rejection at any stage leaves the contract state, the
storage memories and the logs untouched. That includes a commit storage
refuses after the contract accepted: storage refuses every batch of the
transaction unless each reaches the value the contract accepted, and the
contract is then rolled back, so contract and storage never part.

Every write to storage goes through ``_commit``, one batch per accumulator
touched, all committed in one call, each as one storage epoch: a verified
transaction's update steps go as they are, in chain order, so that storage
can match them with the chain it simulated for the bundle, while the
deployment's mint and ``bootstrap``'s stream of growth plans are netted as
they are recorded.
"""

import hashlib
from itertools import chain
from typing import Iterable

from ..errors import AcctokenError
from ..storage import FaultPolicy, StorageNetwork
from . import bundle as pb
from . import plan
from .bundle import ERC20_NAME, OpTag, ProofBundle, encode_bundle
from .client import TokenClient
from .contract import AccTokenContract, ContractState, LogRecord, TxRecord
from .elements import (
    ALLOWANCE_ELEMENT_LEN,
    AMOUNT_BYTES,
    BALANCE_ELEMENT_LEN,
    ZERO_ADDRESS,
    balance_element,
    check_address,
    check_amount,
    check_supply,
    decode_balance_element,
)

# lookup keys: a tuple without its amount
_INDEX_PREFIX_LEN = {pb.BALANCES: BALANCE_ELEMENT_LEN - AMOUNT_BYTES, pb.ALLOWED_BALANCES: ALLOWANCE_ELEMENT_LEN - AMOUNT_BYTES}

# an op's selector is the head of the hash of its signature: its name, its
# addresses (transferFrom's three) and its amount
_SELECTORS = {
    op: hashlib.sha256(f"{name}({'address,' * (3 if op is OpTag.TRANSFER_FROM else 2)}uint256)".encode()).digest()[:4]
    for op, name in ERC20_NAME.items()
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


class TokenSystem:
    """One deployed accumulator token plus its storage network and client."""

    def __init__(
        self,
        deployer: bytes,
        total: int,
        policy: FaultPolicy | None = None,
        lift_checkupdate_precondition: bool = False,
    ):
        check_address(deployer)
        check_supply(total)
        self.network = StorageNetwork(policy)
        for name in pb.ACCUMULATORS:
            self.network.register(name, index_prefix_len=_INDEX_PREFIX_LEN.get(name))
        self._commit([(pb.BALANCES, pb.UPDATE_ADD, balance_element(deployer, total))])
        state = ContractState(*(self.network.accumulator_value(name) for name in pb.ACCUMULATORS), total)
        self.contract = AccTokenContract(state, lift_checkupdate_precondition)
        self.contract.logs.append(LogRecord("Transfer", ZERO_ADDRESS, deployer, total))
        self.client = TokenClient(self.contract, self.network)
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
        self, op: OpTag, addresses: list[bytes], tokens: int, bundle: ProofBundle, execute
    ) -> TxRecord:
        """Encode the bundle, verify it with the contract's ``execute``, then commit its updates to storage.

        The contract gets the bytes the calldata carries and is metered on,
        and returns the transaction's record; storage commits the record's
        ``updates``, and the record, with the calldata set on its trace, is
        what this returns. The contract writes its words and its log before
        storage commits, so a commit that storage refuses, one that would
        not reach the values the contract accepted included, puts both back
        before the error goes on: a contract accepting what storage cannot
        apply does not part them.
        """
        encoded = encode_bundle(bundle)
        state, logged = self.contract.state, len(self.contract.logs)
        record = execute(*addresses, tokens, bundle.announced, encoded)
        try:
            self._commit(record.updates, self.contract.state)
        except AcctokenError:
            self.contract.state = state
            del self.contract.logs[logged:]
            raise
        record.trace.calldata = abi_calldata(op, addresses, tokens, bundle.announced, encoded)
        return record

    def transfer(self, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle | None = None) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_transfer(sender, to, tokens)
        return self._commit_and_record(OpTag.TRANSFER, [sender, to], tokens, bundle, self.contract.transfer)

    def approve(self, owner: bytes, spender: bytes, tokens: int, bundle: ProofBundle | None = None) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_approve(owner, spender, tokens)
        return self._commit_and_record(OpTag.APPROVE, [owner, spender], tokens, bundle, self.contract.approve)

    def transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle | None = None
    ) -> TxRecord:
        if bundle is None:
            bundle = self.client.build_transfer_from(spender, sender, to, tokens)
        return self._commit_and_record(
            OpTag.TRANSFER_FROM, [spender, sender, to], tokens, bundle, self.contract.transfer_from
        )

    # -- commit path -------------------------------------------------------------

    def _commit(self, steps: Iterable[plan.Step], accepted: ContractState | None = None) -> dict[str, bytes]:
        """Commit the update steps among plan ``steps``, one batch per accumulator.

        ``accepted`` is the contract state that verified the steps, if any:
        they are then a transaction's verified update steps, handed to
        storage as they are, per accumulator in chain order, and storage
        installs them only if it then holds every value that state holds,
        adopting the update chain it simulated for the bundle when the steps
        are that chain's. Without it (deployment, growth) every step is
        recorded, so checked against storage (``Changes.record``) and netted,
        before storage sees any batch, and a batch whose steps cancel out is
        skipped. Returns the new values of the accumulators committed.
        """
        if accepted is not None:
            chains: dict[str, list[tuple[str, bytes]]] = {}
            for acc, claim, element in steps:
                chains.setdefault(acc, []).append((pb.STORAGE_OP[claim], element))
            return self.network.commit(chains, {name: accepted.value_of(name) for name in pb.ACCUMULATORS})
        batches = {name: self.network.changes(name) for name in pb.ACCUMULATORS}
        for acc, claim, element in steps:
            if claim in pb.STORAGE_OP:
                batches[acc].record(pb.STORAGE_OP[claim], element)
        return self.network.commit({name: changes for name, changes in batches.items() if changes})

    def bootstrap(self, plans: Iterable[plan.Plan]):
        """Commit the update steps of transfer and approve plans, one batch per accumulator.

        Bootstrap tooling for population growth, not transactions: nothing is
        proved and no log is emitted. The plans are consumed as a stream, so
        the deployer's intermediate balance tuples cancel out in the batch.
        Each plan's guards and amount check run before anything is
        committed, so a rejected stream leaves the contract and storage as
        they were. The state reached is the one the verified ops reach.
        """

        def checked():
            for log, plan_steps in plans:
                check_amount(log.amount)
                yield plan_steps

        self.contract.state = self.contract.state.with_values(self._commit(chain.from_iterable(checked())))

    # -- integrity hooks ------------------------------------------------------

    def check_conservation(self):
        """Balance tuples sum to the supply; at most one tuple per owner and per pair."""
        for name, keyed_by in ((pb.BALANCES, "owner"), (pb.ALLOWED_BALANCES, "(owner, spender) pair")):
            surplus = self.network.surplus(name)
            if surplus:
                raise AssertionError(f"some {keyed_by} holds more than one {name} tuple ({surplus} surplus)")
        balances = self.network.elements(pb.BALANCES)
        total = sum(decode_balance_element(e)[1] for e in balances)
        if total != self.contract.total_supply():
            raise AssertionError(
                f"balance tuples sum to {total}, total supply is {self.contract.total_supply()}"
            )

    def persistent_key_count(self) -> int:
        """Words of persistent contract state, counted from the state itself."""
        return len(vars(self.contract.state))
