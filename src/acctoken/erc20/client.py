"""Client-side proof building and verified reads.

Clients never trust the storage network: every served payload is checked
against the contract's current accumulator values before use, so corrupted or
stale data surfaces as VerificationFailed here instead of reaching the chain.
Update witnesses are chained on the simulated roots the storage keeps for
the chain being built, in the same order the contract will verify and commit
them. A bundle's entries are the payloads as served: the client verifies
bytes and passes the same bytes on, never a re-encoding of them.

A verified read looks its tuple up in storage, then proves what it read: a
tuple's membership, or, when storage names none, the absence of the owner's
or the pair's key (``bundle.KEY_LEN``), which fails for a tuple storage
withholds. The client remembers, per accumulator, the elements its reads
proved members and the value they were proven against, and fetches a
membership witness only for an element it does not remember as a member of
the contract's current value. The remembered set stays a subset of the set
that value commits to: each element was proven by ``belongs`` against it, and
the value moves on only by ``follow``, with a chain the contract verified,
whose deletions and replacements are the only steps that can take a member
out: ``follow`` drops the element each deletes or replaces. A value the
client did not follow (``bootstrap``, another submitter) starts an empty set
at its first proof; the digest binds the set, so a value seen again commits
to the same set. Non-membership is not remembered, and bundles are always
built from served witnesses, which the contract needs as bytes.
"""

from ..accumulator import belongs, check_update
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
)


# accumulator -> (the lookup prefix of a tuple's key, the tuple's encoding, its amount)
_TUPLES = {
    pb.BALANCES: (balance_prefix, balance_element, lambda element: decode_balance_element(element)[1]),
    pb.ALLOWED_BALANCES: (allowance_prefix, allowance_element, lambda element: decode_allowance_element(element)[2]),
}


class _Lookups:
    """Amounts for a plan, read by storage lookups while one bundle is built.

    Lookups are the only storage requests made during the plan walk, so a
    guard on a spent amount fails before any witness is fetched or built.
    """

    def __init__(self, client: "TokenClient"):
        self.amount = client._amount
        self.announced: list[int] = []

    def spend(self, acc: str, *key: bytes) -> int:
        amount = self.prior(acc, *key)
        if amount is None:
            if acc == pb.ALLOWED_BALANCES:
                raise NotApproved("spender was never approved by this owner")
            raise InsufficientBalance("owner holds no balance tuple")
        return amount

    def prior(self, acc: str, *key: bytes) -> int | None:
        amount = self.amount(acc, *key)
        if amount is not None:
            self.announced.append(amount)
        return amount


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
                elif op == "replace":  # its old element is no member after it
                    members.discard(element[0])
            self._proven[acc] = after.value_of(acc), members

    def _prove_member(self, name: str, element: bytes):
        """Prove ``element`` a member of ``name``'s current value, by a fetched
        witness unless it is remembered as one, and remember it."""
        value = self.contract.state.value_of(name)
        remembered = self._proven.get(name)
        if remembered is not None and remembered[0] == value and element in remembered[1]:
            return
        self._fetch_verified(name, element, 1)
        if remembered is None or remembered[0] != value:
            self._proven[name] = remembered = value, set()
        remembered[1].add(element)

    # -- verified fetch helpers -------------------------------------------------

    def _fetch_verified(self, name: str, element: bytes, want: int):
        """Fetch a (non)membership witness and insist on the expected verdict."""
        payload = self.network.fetch_witness(name, element)
        verdict = belongs(self.contract.state.value_of(name), element, payload, key_len=pb.KEY_LEN[name])
        if verdict != want:  # BOTTOM equals neither verdict
            raise VerificationFailed(f"witness for {name} verified to {verdict!r}, expected {want}")
        return payload

    def _amount(self, acc: str, *key: bytes) -> int | None:
        """The amount of the tuple storage serves under ``key`` (an owner, or
        an owner and a spender), or None if it serves none."""
        prefix, _encode, amount_of = _TUPLES[acc]
        found = self.network.lookup(acc, prefix(*key))
        if not found:
            return None
        try:
            return amount_of(found[0])
        except ValueError as exc:
            raise VerificationFailed(f"storage served a malformed {acc} tuple: {exc}") from None

    # -- verified reads ------------------------------------------------------------

    def _read(self, acc: str, *key: bytes) -> int:
        """The amount of ``key``'s tuple, proven against the contract's current
        accumulator: the membership of the tuple encoded from ``key`` and the
        served amount (a served tuple whose key fields were corrupted still
        decodes), or, when storage serves none, the absence of the key, so 0."""
        _prefix, encode, _amount_of = _TUPLES[acc]
        amount = self._amount(acc, *key)
        if amount is None:
            self._fetch_verified(acc, encode(*key, 0), 0)
            return 0
        self._prove_member(acc, encode(*key, amount))
        return amount

    def balance_of(self, owner: bytes) -> int:
        """Owner's balance, proven against the contract's current accumulator."""
        return self._read(pb.BALANCES, owner)

    def allowance(self, owner: bytes, spender: bytes) -> int:
        """Spender's remaining allowance from owner, proven like balance_of:
        an approval adds its pair and the pair's allowance tuple together,
        so the tuple is read alone."""
        return self._read(pb.ALLOWED_BALANCES, owner, spender)

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
            if check_update(running, predicted, element, payload, key_len=pb.KEY_LEN[acc]) != 1:
                raise VerificationFailed(f"update witness for {acc} did not verify")
            if base is None:  # it proves its precondition: of a replace, the old element's membership
                implied = precondition_witness(payload)
                proven[acc, implied[KIND_AT], element[0] if claim == pb.UPDATE_REPLACE else element] = implied
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
