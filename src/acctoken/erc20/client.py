"""Client-side proof building and verified reads.

Clients never trust the storage network: every served payload is checked
against the contract's current accumulator values before use, so corrupted or
stale data surfaces as VerificationFailed here instead of reaching the chain.
Update witnesses are chained on the simulated roots the storage keeps for
the chain being built, in the same order the contract will verify and commit
them. A bundle's entries are the payloads as served: the client verifies
bytes and passes the same bytes on, never a re-encoding of them.

A verified read looks its tuple up in storage, then proves what it read. The
client remembers, per accumulator, the elements its reads proved members and
the value they were proven against, and fetches a membership witness only
for an element it does not remember as a member of the contract's current
value. The remembered set stays a subset of the set that value commits to:
each element was proven by ``belongs`` against it, and the value moves on
only by ``follow``, with a chain the contract verified, whose deletions are
the only steps that can take a member out. A value the client did not follow
(``bootstrap``, another submitter) starts an empty set at its first proof;
the digest binds the set, so a value seen again commits to the same set.
Non-membership is not remembered, and bundles are always built from served
witnesses, which the contract needs as bytes.
"""

from ..accumulator import BOTTOM, belongs, check_update
from ..accumulator.witness import KIND_AT, precondition_witness
from ..errors import AlreadyPresent, InsufficientBalance, NotApproved, NotPresent, VerificationFailed
from ..storage import StorageNetwork, Steps
from . import bundle as pb
from . import plan
from .bundle import BundleEntry, OpTag, ProofBundle
from .contract import AccTokenContract, ContractState
from .elements import (
    allowance_element,
    allowance_prefix,
    balance_element,
    balance_prefix,
    check_amount,
    decode_allowance_element,
    decode_balance_element,
    pair_element,
)


class _Lookups:
    """Amounts for a plan, read by storage lookups while one bundle is built.

    Lookups are the only storage requests made during the plan walk, so a
    guard on a spent amount fails before any witness is fetched or built.
    """

    def __init__(self, client: "TokenClient"):
        self.lookup = {pb.BALANCES: client._balance_entry, pb.ALLOWED_BALANCES: client._allowance_entry}
        self.announced: list[int] = []

    def spend(self, acc: str, *key: bytes) -> int:
        entry = self.lookup[acc](*key)
        if entry is None:
            if acc == pb.ALLOWED_BALANCES:
                raise NotApproved("spender was never approved by this owner")
            raise InsufficientBalance("owner holds no balance tuple")
        self.announced.append(entry[1])
        return entry[1]

    def prior(self, acc: str, *key: bytes) -> int | None:
        entry = self.lookup[acc](*key)
        if entry is None:
            return None
        self.announced.append(entry[1])
        return entry[1]


class TokenClient:
    def __init__(self, contract: AccTokenContract, network: StorageNetwork):
        self.contract = contract
        self.network = network
        self.lift = contract.lift
        # accumulator -> (value, elements proven members of it by reads)
        self._proven: dict[str, tuple[bytes, set[bytes]]] = {}

    # -- remembered proofs --------------------------------------------------------

    def follow(self, before: ContractState, after: ContractState, updates: dict[str, Steps]):
        """Carry the remembered members over one accepted transaction whose ``updates`` storage committed.

        ``updates`` are the verified chains of the contract's record, which
        moved each accumulator from its value in ``before`` to its value in
        ``after``; a set remembered against another value is left as it is.
        """
        for acc, steps in updates.items():
            value, members = self._proven.get(acc, (None, None))
            if value != before.value_of(acc):
                continue
            for op, element in steps:
                if op == "del":
                    members.discard(element)
            self._proven[acc] = after.value_of(acc), members

    def _remembered(self, name: str, element: bytes) -> bool:
        """Whether ``element`` is remembered as a member of ``name``'s current value."""
        value, members = self._proven.get(name, (None, ()))
        return value == self.contract.state.value_of(name) and element in members

    def _remember(self, name: str, element: bytes):
        """Remember ``element``, just proven a member of ``name``'s current value."""
        value = self.contract.state.value_of(name)
        remembered = self._proven.get(name)
        if remembered is None or remembered[0] != value:
            self._proven[name] = remembered = value, set()
        remembered[1].add(element)

    def _prove_member(self, name: str, element: bytes):
        """Prove ``element`` a member of ``name``'s current value, by a fetched witness unless remembered."""
        if not self._remembered(name, element):
            self._fetch_verified(name, element, 1)
            self._remember(name, element)

    # -- verified fetch helpers -------------------------------------------------

    def _fetch_verdict(self, name: str, element: bytes):
        """Fetch a (non)membership witness; return its payload with its verdict."""
        payload = self.network.fetch_witness(name, element)
        return payload, belongs(self.contract.state.value_of(name), element, payload)

    def _fetch_verified(self, name: str, element: bytes, want: int):
        """Fetch a (non)membership witness and insist on the expected verdict."""
        payload, verdict = self._fetch_verdict(name, element)
        if verdict is BOTTOM or verdict != want:
            raise VerificationFailed(f"witness for {name} verified to {verdict!r}, expected {want}")
        return payload

    def _lookup_one(self, acc: str, prefix: bytes, decode):
        """The tuple stored under ``prefix`` with its decoding, or None if there is none."""
        found = self.network.lookup(acc, prefix)
        if not found:
            return None
        if len(found) > 1:
            raise VerificationFailed(f"storage holds {len(found)} {acc} tuples under one key")
        try:
            return found[0], decode(found[0])
        except ValueError as exc:
            raise VerificationFailed(f"storage served a malformed {acc} tuple: {exc}") from None

    def _balance_entry(self, owner: bytes) -> tuple[bytes, int] | None:
        """The owner's accumulated tuple as served and its amount, or None if the owner holds no tuple."""
        entry = self._lookup_one(pb.BALANCES, balance_prefix(owner), decode_balance_element)
        if entry is None:
            return None
        element, (holder, amount) = entry
        if holder != owner:
            raise VerificationFailed("storage answered a balance lookup for the wrong owner")
        return element, amount

    def _allowance_entry(self, owner: bytes, spender: bytes) -> tuple[bytes, int] | None:
        """The pair's accumulated tuple as served and its amount, or None if there is none."""
        prefix = allowance_prefix(owner, spender)
        entry = self._lookup_one(pb.ALLOWED_BALANCES, prefix, decode_allowance_element)
        return None if entry is None else (entry[0], entry[1][2])

    # -- verified reads ------------------------------------------------------------

    def balance_of(self, owner: bytes) -> int:
        """Owner's balance, proven against the contract's current accumulator.

        A tuple that decodes and names the owner is proven as served: its
        bytes are the ones ``balance_element`` would encode from its owner
        and amount.
        """
        entry = self._balance_entry(owner)
        if entry is None:
            self._fetch_verified(pb.BALANCES, balance_element(owner, 0), 0)
            return 0
        element, amount = entry
        self._prove_member(pb.BALANCES, element)
        return amount

    def allowance(self, owner: bytes, spender: bytes) -> int:
        """Spender's remaining allowance from owner, proven like balance_of."""
        pair = pair_element(owner, spender)
        if not self._remembered(pb.ALLOWED_ADDRESSES, pair):
            _, verdict = self._fetch_verdict(pb.ALLOWED_ADDRESSES, pair)
            if verdict == 0:
                return 0
            if verdict is BOTTOM:
                raise VerificationFailed("pair witness did not verify")
            self._remember(pb.ALLOWED_ADDRESSES, pair)
        entry = self._allowance_entry(owner, spender)
        if entry is None:
            raise VerificationFailed("approved pair has no allowance tuple in storage")
        # re-encoded, not proven as served: a served tuple whose pair fields
        # were corrupted still decodes, and the proof is of the pair asked for
        amount = entry[1]
        self._prove_member(pb.ALLOWED_BALANCES, allowance_element(owner, spender, amount))
        return amount

    # -- bundle building ----------------------------------------------------------

    def _build(self, op: OpTag, *args) -> ProofBundle:
        """Walk the op's plan and build its update chains, then its membership entries (none when lifted).

        Each update witness is chained on the previous one for its accumulator,
        in the order the contract will verify and commit. The first one is
        checked against the current value, so it proves its element's
        (non)membership there too: an entry for that element is its payload
        read as its precondition witness (``precondition_witness``). The
        other entries are fetched and checked.
        """
        lookups = _Lookups(self)
        _log, plan_steps = plan.PLANS[op](*args, lookups)
        steps = tuple(plan_steps)  # every lookup and guard runs before any witness is requested
        membership, updates = [], []
        proven: dict[plan.Step, bytes] = {}  # membership step -> witness derived from a first update
        chained: dict[str, bytes] = {}  # accumulator -> predicted value so far
        for acc, claim, element in steps:
            if claim not in pb.STORAGE_OP:
                continue
            base = chained.get(acc)
            try:
                predicted, payload = self.network.build_update_witness(acc, pb.STORAGE_OP[claim], element, base=base)
            except (AlreadyPresent, NotPresent) as exc:  # a corrupted lookup named a tuple it cannot update
                raise VerificationFailed(f"storage cannot build the {acc} update: {exc}") from None
            running = self.contract.state.value_of(acc) if base is None else base
            if check_update(running, predicted, element, payload) != 1:
                raise VerificationFailed(f"update witness for {acc} did not verify")
            if base is None:
                implied = precondition_witness(payload)
                proven[acc, implied[KIND_AT], element] = implied
            updates.append(BundleEntry(pb.purpose(acc, claim), payload, predicted))
            chained[acc] = predicted
        for step in () if self.lift else steps:
            acc, claim, element = step
            if claim not in pb.STORAGE_OP:
                w = proven.get(step) or self._fetch_verified(acc, element, 1 if claim == pb.MEMBER else 0)
                membership.append(BundleEntry(pb.purpose(acc, claim), w))
        return ProofBundle(op, membership + updates, tuple(lookups.announced))

    def build_transfer(self, sender: bytes, to: bytes, tokens: int) -> ProofBundle:
        check_amount(tokens)
        return self._build(OpTag.TRANSFER, sender, to, tokens)

    def build_approve(self, owner: bytes, spender: bytes, tokens: int) -> ProofBundle:
        check_amount(tokens)
        return self._build(OpTag.APPROVE, owner, spender, tokens)

    def build_transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int
    ) -> ProofBundle:
        check_amount(tokens)
        return self._build(OpTag.TRANSFER_FROM, spender, sender, to, tokens)
