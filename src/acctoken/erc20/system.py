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

Storage is written in two ways, each one ``StorageNetwork.commit`` of one
batch per accumulator written, each batch one storage epoch. A verified
transaction commits the chains the contract's record carries, its update
steps per accumulator in chain order, so that storage can match them with
the chain it simulated for the bundle. ``bootstrap`` commits plans nothing
proves, netted as they are recorded; deployment is its first call, with the
deployer's ``plan.mint``.

Once storage has committed a verified transaction, the client follows its
chains (``TokenClient.follow``): each key its reads proved stays remembered
across the transaction, holding the new element of a replace under it, and
a key the chains delete is forgotten; no key is added. Nothing else moves
the client's remembered values, so a bootstrap is not followed.
"""

import hashlib
from itertools import groupby
from operator import itemgetter
from typing import Iterable

from ..errors import AcctokenError
from ..storage import FaultPolicy, StorageNetwork
from . import bundle as pb
from . import plan
from .bundle import ERC20_NAME, OpTag, ProofBundle, encode_bundle
from .client import TokenClient
from .contract import AccTokenContract, ContractState, TxRecord
from .elements import AMOUNT_BYTES, balance_amount, check_address, check_supply

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
        empty = [self.network.register(name, pb.KEY_LEN[name]) for name in pb.ACCUMULATORS]
        self.contract = AccTokenContract(ContractState(*empty, total), lift_checkupdate_precondition)
        log, steps = plan.mint(deployer, total)
        self.bootstrap([(log, steps)])
        self.contract.logs.append(log)
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
        apply does not part them. A commit that lands is followed by the
        client.
        """
        encoded = encode_bundle(bundle)
        state, logged = self.contract.state, len(self.contract.logs)
        record = execute(*addresses, tokens, bundle.announced, encoded)
        accepted = self.contract.state
        try:
            self.network.commit(record.updates, {name: accepted.value_of(name) for name in pb.ACCUMULATORS})
        except AcctokenError:
            self.contract.state = state
            del self.contract.logs[logged:]
            raise
        self.client.follow(state, accepted, record.updates)
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

    # -- bootstrap ---------------------------------------------------------------

    def bootstrap(self, plans: Iterable[plan.Plan]):
        """Commit the update steps of plans nothing proves, one batch per accumulator.

        Deployment is the first call, with the deployer's ``plan.mint``;
        population growth bootstraps one ``plan.grow`` per checkpoint, its
        net changes: one replace of the deployer's balance tuple, then each
        accumulator's adds, one per new account, as one run. Any transfer
        and approve plans may be given too. Not transactions: nothing is
        proved and no log is emitted. The plans are consumed as a stream,
        and each run of update steps of one accumulator and claim is
        recorded into that accumulator's batch (``Changes.record_run``), so
        checked against storage and netted as its steps would be one at a
        time; a batch whose steps cancel out is skipped. Each plan checks
        its amount before its first step and runs its guards as its steps
        are made, all before anything is committed, so a rejected stream
        leaves the contract and storage as they were. The state reached is
        the one the verified ops reach. The batches are handed to storage
        with nothing else holding them, so each goes as it lands.
        """
        values = self.network.commit(self._recorded(plans))
        self.contract.state = self.contract.state.with_values(values)

    def _recorded(self, plans: Iterable[plan.Plan]) -> dict:
        """``bootstrap``'s batches: the plans' update steps, read as runs of
        one (accumulator, claim) and recorded a run at a time, one batch per
        accumulator, those that net to no change left out."""
        batches = {name: self.network.changes(name) for name in pb.ACCUMULATORS}
        for _record, steps in plans:
            for (acc, claim), run in groupby(steps, itemgetter(0, 1)):
                if claim in pb.STORAGE_OP:
                    batches[acc].record_run(pb.STORAGE_OP[claim], map(itemgetter(2), run))
        return {name: changes for name, changes in batches.items() if changes}

    # -- integrity hooks ------------------------------------------------------

    def check_conservation(self):
        """Balance tuples sum to the supply.

        At most one tuple per owner and per pair needs no check: it is the
        tries' shape, as each key (``bundle.KEY_LEN``) holds one element.
        """
        total = sum(map(balance_amount, self.network.elements(pb.BALANCES)))
        if total != self.contract.total_supply():
            raise AssertionError(
                f"balance tuples sum to {total}, total supply is {self.contract.total_supply()}"
            )

    def persistent_key_count(self) -> int:
        """Words of persistent contract state, counted from the state itself."""
        return len(vars(self.contract.state))
