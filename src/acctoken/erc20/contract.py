"""Contract-side state machine of the accumulator-backed token.

Persistent state is exactly four words (three accumulator values plus the
total supply) no matter how many accounts exist. Every operation verifies a
client-supplied proof bundle: first the (non)membership claims that establish
current balances and allowances, then a chain of publicly verifiable update
witnesses whose final value becomes the stored accumulator. Witnesses bind
element digests only, so the amounts behind them arrive as announced words in
the transaction and are authenticated by the digest check inside the verifier.

Any failed step aborts the transaction with state untouched. The contract
never reads accumulator memory; it trusts nothing but its own four words and
the pure verification algorithms. The steps each operation verifies, and the
guards between them, come from ``plan``.

Caveat, fresh destinations: the fresh variants of transfer and transferFrom
prove only that the tuple ``(to, 0)`` is absent, which says nothing about
``(to, y)`` for ``y > 0``. A sender may submit a fresh-destination bundle for
a recipient who already holds a balance, and the contract accepts it: the
recipient then holds two balance tuples. The supply is still conserved, but
client reads of that owner fail with VerificationFailed, and
``TokenSystem.check_conservation`` raises, because it also checks that each
owner holds at most one balance tuple and each (owner, spender) pair at most
one allowance tuple. With the lifted precondition no membership is checked
at all, so the same bundle without its membership entries is accepted too.
"""

from dataclasses import dataclass

from ..accumulator import belongs, check_update, verification_hash_sizes
from ..errors import BundleSchemaMismatch, InvalidProof, StaleProof
from . import plan
from .bundle import MEMBER, STORAGE_OP, OpTag, ProofBundle, purpose
from .elements import check_address, check_amount
from .plan import LogRecord

#: Persistent storage keys a deployed contract occupies: three accumulator
#: values plus the total supply.
CONTRACT_KEYS = 4


def _field(acc_name: str) -> str:
    return acc_name.replace("-", "_") + "_acc"


@dataclass(frozen=True)
class ContractState:
    balances_acc: bytes
    allowed_addresses_acc: bytes
    allowed_balances_acc: bytes
    total_supply: int

    def value_of(self, acc_name: str) -> bytes:
        return getattr(self, _field(acc_name))

    def with_values(self, values: dict[str, bytes]) -> "ContractState":
        """This state with the named accumulators set to new values."""
        return ContractState(**vars(self) | {_field(name): value for name, value in values.items()})


@dataclass
class TxOutcome:
    log: LogRecord
    commits: list[tuple[str, str, bytes]]  # (accumulator name, op, element)
    events: list[tuple[str, int]]  # gas trace events


class AccTokenContract:
    """Serial transaction processor; one instance is one deployed contract.

    ``lift_checkupdate_precondition`` is a what-if switch that accepts
    bundles without their (non)membership entries and skips the matching
    Belongs verifications. It exists for cost-model experiments only.
    """

    def __init__(self, state: ContractState, lift_checkupdate_precondition: bool = False):
        self.state = state
        self.lift = lift_checkupdate_precondition
        self.logs: list[LogRecord] = []

    def total_supply(self) -> int:
        return self.state.total_supply

    # -- operations -------------------------------------------------------------

    def transfer(self, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle) -> TxOutcome:
        check_address(sender), check_address(to)
        check_amount(tokens)
        plan.check_distinct(sender, to)
        return self._execute(OpTag.TRANSFER, bundle, sender, to, tokens)

    def approve(self, owner: bytes, spender: bytes, tokens: int, bundle: ProofBundle) -> TxOutcome:
        check_address(owner), check_address(spender)
        check_amount(tokens)
        return self._execute(OpTag.APPROVE, bundle, owner, spender, tokens)

    def transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int, bundle: ProofBundle
    ) -> TxOutcome:
        check_address(spender), check_address(sender), check_address(to)
        check_amount(tokens)
        plan.check_distinct(sender, to)
        return self._execute(OpTag.TRANSFER_FROM, bundle, spender, sender, to, tokens)

    # -- plan walker ------------------------------------------------------------

    def _execute(self, op: OpTag, bundle: ProofBundle, *args) -> TxOutcome:
        """Verify ``bundle`` entry by entry against the op's plan, then commit."""
        shape = plan.match_schema(bundle, op, self.lift)
        for name in shape.reads:
            base = bundle.base_accs.get(name)
            if base is not None and base != self.state.value_of(name):
                raise StaleProof(f"bundle was built against a superseded {name} value")
        if len(bundle.announced) != shape.words:
            raise BundleSchemaMismatch(
                f"expected {shape.words} announced words, got {len(bundle.announced)}"
            )
        words = [check_amount(v) for v in bundle.announced]
        log, steps = plan.PLANS[op](*args, plan.Announced(words))

        accs = {name: self.state.value_of(name) for name in shape.reads}
        events = [("sload", CONTRACT_KEYS)] * len(shape.reads)
        commits = []
        checked = (step for step in steps if step[1] in STORAGE_OP or not self.lift)
        for index, ((acc, claim, element), entry) in enumerate(zip(checked, bundle.entries)):
            if entry.purpose != purpose(acc, claim):
                raise BundleSchemaMismatch(f"entry {index} does not carry the expected claim")
            update_op = STORAGE_OP.get(claim)
            if update_op:
                ok = check_update(accs[acc], entry.claimed_after, element, entry.witness) == 1
            else:  # BOTTOM compares unequal to both verdicts
                ok = belongs(accs[acc], element, entry.witness) == (1 if claim == MEMBER else 0)
            events.extend(
                ("hash", size) for size in verification_hash_sizes(entry.witness, len(element))
            )
            if not ok:
                raise InvalidProof(index)
            if update_op:
                accs[acc] = entry.claimed_after
                commits.append((acc, update_op, element))

        events += [("sstore_update", CONTRACT_KEYS)] * len(shape.writes)
        self.state = self.state.with_values({name: accs[name] for name in shape.writes})
        self.logs.append(log)
        return TxOutcome(log, commits, events)
