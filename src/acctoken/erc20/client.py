"""Client-side proof building and verified reads.

Clients never trust the storage network: every served payload is checked
against the contract's current accumulator values before use, so corrupted or
stale data surfaces as VerificationFailed here instead of reaching the chain.
Update witnesses are chained across the simulated snapshots the storage
exposes, in the same order the contract will verify and commit them.
"""

from ..accumulator import BOTTOM, belongs, check_update, decode_witness
from ..errors import InsufficientBalance, NotApproved, VerificationFailed, WitnessDecodeError
from ..storage import AccumulatorId, StorageNetwork
from . import bundle as pb
from . import plan
from .bundle import BundleEntry, OpTag, ProofBundle
from .contract import AccTokenContract
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


def _decode(payload: bytes, what: str):
    try:
        return decode_witness(payload)
    except WitnessDecodeError as exc:
        raise VerificationFailed(f"storage served an unparseable {what}: {exc}") from None


class _Lookups:
    """Amounts for a plan, read by storage lookups while one bundle is built.

    Membership witnesses are fetched only after the prior tuple has been
    looked up, so a guard on a spent amount fails before any fetch.
    """

    def __init__(self, client: "TokenClient"):
        self.client = client
        self.lookup = {pb.BALANCES: client._balance_entry, pb.ALLOWED_BALANCES: client._allowance_entry}
        self.announced: list[int] = []
        self.membership: list[BundleEntry] = []
        self.unfetched: list[plan.Step] = []
        self.prior_read = False

    def spend(self, acc: str, *key: bytes) -> int:
        amount = self.lookup[acc](*key)
        if amount is None:
            if acc == pb.ALLOWED_BALANCES:
                raise NotApproved("spender was never approved by this owner")
            raise InsufficientBalance("owner holds no balance tuple")
        self.announced.append(amount)
        return amount

    def prior(self, acc: str, *key: bytes) -> int | None:
        self.prior_read = True
        self.fetch_due()
        amount = self.lookup[acc](*key)
        if amount is not None:
            self.announced.append(amount)
        return amount

    def member(self, step: plan.Step):
        self.unfetched.append(step)
        if self.prior_read:
            self.fetch_due()

    def fetch_due(self):
        for acc, claim, element in self.unfetched:
            witness = self.client._fetch_verified(acc, element, 1 if claim == pb.MEMBER else 0)
            self.membership.append(BundleEntry(pb.purpose(acc, claim), witness))
        self.unfetched = []


class TokenClient:
    def __init__(
        self,
        contract: AccTokenContract,
        network: StorageNetwork,
        acc_ids: dict[str, AccumulatorId],
    ):
        self.contract = contract
        self.network = network
        self.acc_ids = acc_ids
        self.lift = contract.lift

    # -- verified fetch helpers -------------------------------------------------

    def _fetch_verdict(self, name: str, element: bytes):
        """Fetch a (non)membership witness; return it with its verdict."""
        w = _decode(self.network.fetch_witness(self.acc_ids[name], element), "witness")
        return w, belongs(self.contract.state.value_of(name), element, w)

    def _fetch_verified(self, name: str, element: bytes, want: int):
        """Fetch a (non)membership witness and insist on the expected verdict."""
        w, verdict = self._fetch_verdict(name, element)
        if verdict is BOTTOM or verdict != want:
            raise VerificationFailed(
                f"witness for {name} verified to {verdict!r}, expected {want}"
            )
        return w

    def _lookup_one(self, acc: str, prefix: bytes, decode):
        """The decoded tuple stored under ``prefix``, or None if there is none."""
        found = self.network.lookup(self.acc_ids[acc], prefix)
        if not found:
            return None
        if len(found) > 1:
            raise VerificationFailed(f"storage holds {len(found)} {acc} tuples under one key")
        try:
            return decode(found[0])
        except ValueError as exc:
            raise VerificationFailed(f"storage served a malformed {acc} tuple: {exc}") from None

    def _balance_entry(self, owner: bytes) -> int | None:
        """The owner's accumulated amount, or None if the owner holds no tuple."""
        entry = self._lookup_one(pb.BALANCES, balance_prefix(owner), decode_balance_element)
        if entry is not None and entry[0] != owner:
            raise VerificationFailed("storage answered a balance lookup for the wrong owner")
        return None if entry is None else entry[1]

    def _allowance_entry(self, owner: bytes, spender: bytes) -> int | None:
        prefix = allowance_prefix(owner, spender)
        entry = self._lookup_one(pb.ALLOWED_BALANCES, prefix, decode_allowance_element)
        return None if entry is None else entry[2]

    # -- verified reads ------------------------------------------------------------

    def balance_of(self, owner: bytes) -> int:
        """Owner's balance, proven against the contract's current accumulator."""
        amount = self._balance_entry(owner)
        if amount is None:
            self._fetch_verified(pb.BALANCES, balance_element(owner, 0), 0)
            return 0
        self._fetch_verified(pb.BALANCES, balance_element(owner, amount), 1)
        return amount

    def allowance(self, owner: bytes, spender: bytes) -> int:
        """Spender's remaining allowance from owner, proven like balance_of."""
        _, verdict = self._fetch_verdict(pb.ALLOWED_ADDRESSES, pair_element(owner, spender))
        if verdict == 0:
            return 0
        if verdict is BOTTOM:
            raise VerificationFailed("pair witness did not verify")
        amount = self._allowance_entry(owner, spender)
        if amount is None:
            raise VerificationFailed("approved pair has no allowance tuple in storage")
        self._fetch_verified(pb.ALLOWED_BALANCES, allowance_element(owner, spender, amount), 1)
        return amount

    # -- bundle building ----------------------------------------------------------

    def _build(self, op: OpTag, *args) -> ProofBundle:
        """Walk the op's plan: membership fetches, then one update chain per accumulator.

        Each update witness is simulated on top of the previous one for the
        same accumulator, in the order the contract will verify and commit.
        """
        lookups = _Lookups(self)
        _log, plan_steps = plan.PLANS[op](*args, lookups)
        steps, updates = [], []
        chained: dict[str, bytes] = {}  # accumulator -> predicted value so far
        for step in plan_steps:
            steps.append(step)
            acc, claim, element = step
            if claim not in pb.STORAGE_OP:
                lookups.member(step)
                continue
            base = chained.get(acc)
            predicted, payload = self.network.build_update_witness(
                self.acc_ids[acc], pb.STORAGE_OP[claim], element, base=base
            )
            w = _decode(payload, "update witness")
            running = self.contract.state.value_of(acc) if base is None else base
            if check_update(running, predicted, element, w) != 1:
                raise VerificationFailed(f"update witness for {acc} did not verify")
            updates.append(BundleEntry(pb.purpose(acc, claim), w, predicted))
            chained[acc] = predicted
        return ProofBundle(
            op,
            ([] if self.lift else lookups.membership) + updates,
            tuple(lookups.announced),
            base_accs={name: self.contract.state.value_of(name) for name in plan.accumulators(steps)},
        )

    def build_transfer(self, sender: bytes, to: bytes, tokens: int) -> ProofBundle:
        check_amount(tokens)
        plan.check_distinct(sender, to)
        return self._build(OpTag.TRANSFER, sender, to, tokens)

    def build_approve(self, owner: bytes, spender: bytes, tokens: int) -> ProofBundle:
        check_amount(tokens)
        return self._build(OpTag.APPROVE, owner, spender, tokens)

    def build_transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int
    ) -> ProofBundle:
        check_amount(tokens)
        plan.check_distinct(sender, to)
        return self._build(OpTag.TRANSFER_FROM, spender, sender, to, tokens)
