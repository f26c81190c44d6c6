"""Contract-side state machine of the accumulator-backed token.

Persistent state is exactly four words (three accumulator values plus the
total supply) no matter how many accounts exist. Every operation takes what
a transaction carries: its arguments, the announced words and the bundle
bytes that calldata gas is metered on. It splits the bytes into entries
(``decode_bundle``) and verifies them: first the (non)membership claims that
establish current balances and allowances, then a chain of publicly
verifiable update witnesses whose final value becomes the stored
accumulator. Witnesses bind element digests only, so the amounts behind them
arrive as the announced words and are authenticated by the digest check
inside the verifier. Each accumulator keys its tuples as ``KEY_LEN`` says, by
owner or by pair, so a key holds one tuple: a non-membership claim on
``(to, 0)`` proves that ``to`` holds no tuple, an update-add proves its key
free, and an update-replace proves that its key held the old tuple and then
holds the new one. The verifiers decide from a witness's kind byte which
claim they check, so every entry's witness must be of the kind its purpose
byte claims (the claims are the ``WitnessKind`` members); an update-del
witness in an update-add slot would otherwise verify, and the storage commit
of that step would then fail after the contract had moved on. A replace
step's element is the pair (old, new) the plan names, so ``check_update``
refuses any other kind there too.

Any failed step aborts the transaction with state untouched; a bundle built
against a value the contract no longer holds fails as ``InvalidProof`` like
any other witness that does not verify. The contract never reads
accumulator memory; it trusts nothing but its own four words and the pure
verification algorithms. The steps each operation verifies, and the guards
between them, come from ``plan``, and the plan is the bundle's schema: the
contract walks its steps and the entries in lock-step, each entry must
carry the claim of the step it meets, and the walk must use up every entry
and every announced word.

An accepted operation returns the transaction's ``TxRecord``, the one record
type both tokens return: its log, its trace, the bundle's size, the number
of entries verified and, for each accumulator it writes, the verified update
steps in chain order: the batches storage commits.
"""

from dataclasses import dataclass, field

from ..accumulator import belongs, check_update
from ..errors import BundleSchemaMismatch, InvalidProof
from ..gas import TxTrace
from . import plan
from .bundle import ACCUMULATORS, ERC20_NAME, KEY_LEN, MEMBER, STORAGE_OP, OpTag, decode_bundle, purpose
from .elements import check_address, check_amount
from .plan import LogRecord

#: Persistent storage keys a deployed contract occupies: three accumulator
#: values plus the total supply.
CONTRACT_KEYS = 4


#: accumulator name -> the state field holding its value
_FIELDS = {name: name.replace("-", "_") + "_acc" for name in ACCUMULATORS}


@dataclass(frozen=True)
class ContractState:
    balances_acc: bytes
    allowed_addresses_acc: bytes
    allowed_balances_acc: bytes
    total_supply: int

    def value_of(self, acc_name: str) -> bytes:
        return getattr(self, _FIELDS[acc_name])

    def with_values(self, values: dict[str, bytes]) -> "ContractState":
        """This state with the named accumulators set to new values."""
        return ContractState(**vars(self) | {_FIELDS[name]: value for name, value in values.items()})


@dataclass
class TxRecord:
    """An accepted transaction of either token; the mapping token sends no bundle and commits no updates."""

    op: str  # the op's ERC20 name
    log: LogRecord
    trace: TxTrace  # reads, verifier hashes and writes; calldata is the caller's
    bundle_bytes: int = 0
    verifications: int = 0  # bundle entries verified
    # accumulator -> its verified (op, element) update steps in chain order,
    # a replace's element the pair (old, new): the batches storage commits,
    # one per accumulator written
    updates: dict[str, list[tuple[str, bytes | tuple[bytes, bytes]]]] = field(default_factory=dict)


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

    def transfer(self, sender: bytes, to: bytes, tokens: int, announced: tuple[int, ...], bundle: bytes) -> TxRecord:
        check_address(sender), check_address(to)
        check_amount(tokens)
        return self._execute(OpTag.TRANSFER, announced, bundle, sender, to, tokens)

    def approve(self, owner: bytes, spender: bytes, tokens: int, announced: tuple[int, ...], bundle: bytes) -> TxRecord:
        check_address(owner), check_address(spender)
        check_amount(tokens)
        return self._execute(OpTag.APPROVE, announced, bundle, owner, spender, tokens)

    def transfer_from(
        self, spender: bytes, sender: bytes, to: bytes, tokens: int, announced: tuple[int, ...], bundle: bytes
    ) -> TxRecord:
        check_address(spender), check_address(sender), check_address(to)
        check_amount(tokens)
        return self._execute(OpTag.TRANSFER_FROM, announced, bundle, spender, sender, to, tokens)

    # -- plan walker ------------------------------------------------------------

    def _execute(self, op: OpTag, announced: tuple[int, ...], data: bytes, *args) -> TxRecord:
        """Walk the op's plan and the bundle's entries in lock-step, then commit.

        Each step the mode checks takes the next entry, which must carry the
        step's claim; each accumulator is read at the first such step that
        names it, so a lifted transferFrom reads no allowed-addresses, and
        written once if updated. The walk must use every entry and
        every announced word. Returns the transaction's record.
        """
        bundle = decode_bundle(data)
        if bundle.op != op:
            raise BundleSchemaMismatch(f"bundle op {bundle.op} does not match {op}")
        words = plan.Announced([check_amount(v) for v in announced])
        log, steps = plan.PLANS[op](*args, words)

        trace = TxTrace()
        hashed = trace.hashes.append
        accs, chains = {}, {}
        entries = bundle.entries
        index = 0
        for acc, claim, element in steps:
            update_op = claim in STORAGE_OP
            if self.lift and not update_op:
                continue
            if acc not in accs:
                trace.sload(CONTRACT_KEYS)
                accs[acc] = self.state.value_of(acc)
            if index == len(entries) or entries[index].purpose != purpose(acc, claim):
                raise BundleSchemaMismatch(f"entry {index} does not carry the expected claim")
            entry = entries[index]
            if entry.witness[0] != claim:  # the verifiers pick the claim they check from the kind
                raise InvalidProof(index)
            key_len = KEY_LEN[acc]
            if update_op:
                ok = check_update(accs[acc], entry.claimed_after, element, entry.witness, hashed, key_len) == 1
            else:  # BOTTOM compares unequal to both verdicts
                ok = belongs(accs[acc], element, entry.witness, hashed, key_len) == (1 if claim == MEMBER else 0)
            if not ok:
                raise InvalidProof(index)
            if update_op:
                accs[acc] = entry.claimed_after
                chains.setdefault(acc, []).append((STORAGE_OP[claim], element))
            index += 1
        if index != len(entries):
            raise BundleSchemaMismatch(f"{len(entries) - index} entries left after the op's last step")
        if words.read != len(announced):
            raise BundleSchemaMismatch(f"{len(announced) - words.read} announced words left after the op's last step")

        for _ in chains:
            trace.sstore_update(CONTRACT_KEYS)
        self.state = self.state.with_values({acc: accs[acc] for acc in chains})
        self.logs.append(log)
        return TxRecord(ERC20_NAME[op], log, trace, len(data), index, chains)
