"""Client-side proof building and verified reads.

Clients never trust the storage network: every served payload is checked
against the contract's current accumulator values before use, so corrupted or
stale data surfaces as VerificationFailed here instead of reaching the chain.
Update witnesses are chained on the simulated roots the storage keeps for
the chain being built, in the same order the contract will verify and commit
them. A bundle's entries are the payloads as served: the client verifies
bytes and passes the same bytes on, never a re-encoding of them.

A verified read of a key the client does not remember looks its tuple up in
storage, then proves what it read: a tuple's membership, or, when storage
names none, the absence of the owner's or the pair's key
(``bundle.KEY_LEN``), which fails for a tuple storage withholds. The client
remembers, per accumulator, the value its reads were proven against and, by
lookup prefix, the one element each read proved a member under that key. A
key holds one leaf, so while the remembered value is the contract's current
one, the element remembered under a key is the tuple its owner holds, and a
read of that key returns its amount and asks storage nothing.

``follow`` carries the map over each transaction the system commits, with
the chains the contract verified: a remembered key takes the new element of
a replace under it, a delete makes the client forget the key, and no key
the client has not read is ever added, so its memory stays bounded by its
reads. Non-membership is not remembered. The map stays sound: each element
was proven by ``belongs`` against the value it is bound to, and that value
moves on only by ``follow``, with a chain the contract verified, whose
replaces and deletes are the only steps that can change what a held key
holds. A value the client did not follow (``bootstrap``, another submitter)
starts an empty map at its first proof; the digest binds the set, so a
value seen again commits to the same tuples. A bundle takes a remembered
key's amount from the map too, and its other amounts from lookups; its
witnesses are always served, as the contract needs them as bytes.
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
    balance_amount,
    balance_element,
    balance_prefix,
    check_amount,
    decode_allowance_element,
)


# accumulator -> (the lookup prefix of a tuple's key, the tuple's encoding, its amount)
_TUPLES = {
    pb.BALANCES: (balance_prefix, balance_element, balance_amount),
    pb.ALLOWED_BALANCES: (allowance_prefix, allowance_element, lambda element: decode_allowance_element(element)[2]),
}


class _Lookups:
    """Amounts for a plan while one bundle is built: a key the client
    remembers against the contract's current value is read from memory,
    and any other by a storage lookup. The contract checks every announced
    amount against the bundle's proofs.

    Lookups are the only storage requests made during the plan walk, so a
    guard on a spent amount fails before any witness is fetched or built.
    """

    def __init__(self, client: "TokenClient"):
        self.client = client
        self.announced: list[int] = []

    def spend(self, acc: str, *key: bytes) -> int:
        amount = self.prior(acc, *key)
        if amount is None:
            if acc == pb.ALLOWED_BALANCES:
                raise NotApproved("spender was never approved by this owner")
            raise InsufficientBalance("owner holds no balance tuple")
        return amount

    def prior(self, acc: str, *key: bytes) -> int | None:
        prefix, _encode, amount_of = _TUPLES[acc]
        held = self.client._held(acc)
        element = held.get(prefix(*key)) if held else None
        amount = self.client._amount(acc, *key) if element is None else amount_of(element)
        if amount is not None:
            self.announced.append(amount)
        return amount


class TokenClient:
    def __init__(self, contract: AccTokenContract, network: StorageNetwork):
        self.contract = contract
        self.network = network
        self.lift = contract.lift
        # accumulator -> (value, {lookup prefix: the element reads proved a member of it under that key})
        self._proven: dict[str, tuple[bytes, dict[bytes, bytes]]] = {}

    # -- remembered proofs --------------------------------------------------------

    def follow(self, before: ContractState, after: ContractState, updates: dict[str, Steps]):
        """Carry the remembered keys over one accepted transaction whose ``updates`` storage committed.

        ``updates`` are the verified chains of the contract's record, which
        moved each accumulator from its value in ``before`` to its value in
        ``after``; a map remembered against another value is left as it is.
        A remembered key takes the new element of a replace under it and is
        forgotten by a delete; no other key is added.
        """
        for acc, steps in updates.items():
            value, held = self._proven.get(acc, (None, None))
            if value != before.value_of(acc):
                continue
            key_len = pb.KEY_LEN[acc]
            for op, element in steps:
                if op == "replace":
                    key = element[0][:key_len]
                    if key in held:
                        held[key] = element[1]
                elif op == "del":
                    held.pop(element[:key_len], None)
            self._proven[acc] = after.value_of(acc), held

    def _held(self, acc: str) -> dict[bytes, bytes] | None:
        """The elements remembered for ``acc`` by lookup prefix, while they are
        bound to the contract's current value; None when they are not."""
        value, held = self._proven.get(acc, (None, None))
        return held if value == self.contract.state.value_of(acc) else None

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
        accumulator. A key remembered against that value is read from memory,
        with no request. Otherwise storage is asked: the membership of the
        tuple encoded from ``key`` and the served amount is proven (a served
        tuple whose key fields were corrupted still decodes) and remembered,
        or, when storage serves none, the absence of the key, so 0."""
        prefix, encode, amount_of = _TUPLES[acc]
        held_at = prefix(*key)
        held = self._held(acc)
        if held and held_at in held:
            return amount_of(held[held_at])
        amount = self._amount(acc, *key)
        if amount is None:
            self._fetch_verified(acc, encode(*key, 0), 0)
            return 0
        element = encode(*key, amount)
        self._fetch_verified(acc, element, 1)
        if held is None:
            held = {}
            self._proven[acc] = self.contract.state.value_of(acc), held
        held[held_at] = element
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
