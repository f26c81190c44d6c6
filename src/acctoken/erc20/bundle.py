"""Proof bundles: the ordered witness sequence attached to a token operation.

Wire layout (the byte length feeds calldata gas metering):

    bundle = op-tag(1) || entry-count(1) || entries
    entry  = purpose(1) || witness bytes || claimed-acc-after(32; updates only)

The purpose byte binds a witness to its role: the high nibble names the
accumulator (1 balances, 2 approved pairs, 3 allowances), the low nibble the
claim (1 membership, 2 non-membership, 3 update-add, 4 update-del, 5
update-replace). Witness bytes are self-delimiting, so entries parse without
extra length fields.

An entry holds its witness as bytes: the payload storage served and the
client verified, or, for a membership entry derived from an accumulator's
first update, that payload with its kind byte rewritten. Encoding frames and
joins them; decoding checks the framing and leaves each witness as its bytes,
which the verifiers parse. Nothing else travels with a bundle: the amounts
it speaks about are the announced words of the transaction's calldata.
"""

from dataclasses import dataclass
from enum import IntEnum

from ..accumulator.witness import COUNT_AT, DIGEST_BYTES, HEADER_BYTES, KIND_AT, MAX_STEPS, WitnessKind, encoded_length
from ..errors import BundleSchemaMismatch, InvalidProof
from .elements import ALLOWANCE_ELEMENT_LEN, AMOUNT_BYTES, BALANCE_ELEMENT_LEN

BALANCES = "balances"
ALLOWED_ADDRESSES = "allowed-addresses"
ALLOWED_BALANCES = "allowed-balances"
#: Canonical accumulator order; contract state, reads and writes follow it.
ACCUMULATORS = (BALANCES, ALLOWED_ADDRESSES, ALLOWED_BALANCES)

#: How each accumulator keys its elements (``accumulator.hashing``): a tuple by
#: its prefix without the amount, so an owner or a pair holds one tuple; a pair whole
KEY_LEN = {
    BALANCES: BALANCE_ELEMENT_LEN - AMOUNT_BYTES,
    ALLOWED_ADDRESSES: None,
    ALLOWED_BALANCES: ALLOWANCE_ELEMENT_LEN - AMOUNT_BYTES,
}

_ACC_NIBBLE = {BALANCES: 0x10, ALLOWED_ADDRESSES: 0x20, ALLOWED_BALANCES: 0x30}
_ACC_BY_NIBBLE = {v: k for k, v in _ACC_NIBBLE.items()}

#: Claims, numbered as the witness kinds that prove them: an entry's witness
#: must be of the kind its claim names.
MEMBER = WitnessKind.MEMBERSHIP
NON_MEMBER = WitnessKind.NON_MEMBERSHIP
UPDATE_ADD = WitnessKind.UPDATE_ADD
UPDATE_DEL = WitnessKind.UPDATE_DEL
UPDATE_REPLACE = WitnessKind.UPDATE_REPLACE

#: each claim's name in reports
CLAIM_NAMES = {
    MEMBER: "member",
    NON_MEMBER: "non-member",
    UPDATE_ADD: "add",
    UPDATE_DEL: "del",
    UPDATE_REPLACE: "replace",
}

#: The storage operation behind each update claim; other claims are memberships.
STORAGE_OP = {UPDATE_ADD: "add", UPDATE_DEL: "del", UPDATE_REPLACE: "replace"}


class OpTag(IntEnum):
    TRANSFER = 1
    APPROVE = 2
    TRANSFER_FROM = 3


#: Each op's ERC20 name: its selector's signature, its transaction records
#: and its result rows use it.
ERC20_NAME = {OpTag.TRANSFER: "transfer", OpTag.APPROVE: "approve", OpTag.TRANSFER_FROM: "transferFrom"}


def purpose(acc_name: str, claim: int) -> int:
    return _ACC_NIBBLE[acc_name] | claim


def purpose_accumulator(p: int) -> str:
    try:
        return _ACC_BY_NIBBLE[p & 0xF0]
    except KeyError:
        raise BundleSchemaMismatch(f"purpose {p:#x} names no accumulator") from None


def purpose_claim(p: int) -> int:
    return p & 0x0F


def is_update_purpose(p: int) -> bool:
    return purpose_claim(p) in STORAGE_OP


@dataclass
class BundleEntry:
    purpose: int
    witness: bytes  # a witness's canonical encoding
    claimed_after: bytes | None = None


@dataclass
class ProofBundle:
    op: OpTag
    entries: list[BundleEntry]
    # Current balances/allowances the witnesses speak about. Witnesses bind
    # element digests only, so these travel as announced uint256 words in the
    # transaction's calldata (not inside the bundle frame); the digest checks
    # inside belongs/check_update authenticate them.
    announced: tuple[int, ...] = ()

    def purposes(self) -> tuple[int, ...]:
        return tuple(e.purpose for e in self.entries)


def encode_bundle(bundle: ProofBundle) -> bytes:
    if len(bundle.entries) > 255:
        raise BundleSchemaMismatch("bundle holds more than 255 entries")
    parts = [bytes((bundle.op, len(bundle.entries)))]
    for entry in bundle.entries:
        parts.append(bytes((entry.purpose,)))
        parts.append(entry.witness)
        if is_update_purpose(entry.purpose):
            if entry.claimed_after is None or len(entry.claimed_after) != DIGEST_BYTES:
                raise BundleSchemaMismatch("update entry lacks a claimed after-value")
            parts.append(entry.claimed_after)
    return b"".join(parts)


def decode_bundle(data: bytes) -> ProofBundle:
    """Split a serialized bundle into its entries.

    Frame-level problems (bad op tag, counts, truncation) raise
    BundleSchemaMismatch; a witness whose header names no kind or more
    steps than a key has bits, or whose body is cut short, raises
    InvalidProof with its entry index.
    """
    if len(data) < 2:
        raise BundleSchemaMismatch("bundle shorter than its frame")
    try:
        op = OpTag(data[0])
    except ValueError:
        raise BundleSchemaMismatch(f"unknown operation tag {data[0]}") from None
    count = data[1]
    entries = []
    off = 2
    for index in range(count):
        if off >= len(data):
            raise BundleSchemaMismatch(f"bundle truncated at entry {index}")
        p = data[off]
        purpose_accumulator(p)
        if purpose_claim(p) not in CLAIM_NAMES:
            raise BundleSchemaMismatch(f"purpose {p:#x} carries no claim")
        off += 1
        header = data[off : off + HEADER_BYTES]
        if len(header) < HEADER_BYTES:
            raise BundleSchemaMismatch(f"bundle truncated at entry {index}")
        kind, step_count = header[KIND_AT], int.from_bytes(header[COUNT_AT:HEADER_BYTES], "big")
        if kind not in CLAIM_NAMES or step_count > MAX_STEPS:
            raise InvalidProof(index, f"witness header names kind {kind} with {step_count} steps")
        end = off + encoded_length(kind, step_count)
        if end > len(data):
            raise InvalidProof(index, "witness cut short")
        witness = data[off:end]
        off = end
        claimed_after = None
        if purpose_claim(p) in STORAGE_OP:
            claimed_after = data[off : off + DIGEST_BYTES]
            if len(claimed_after) != DIGEST_BYTES:
                raise BundleSchemaMismatch(f"bundle truncated at entry {index}")
            off += DIGEST_BYTES
        entries.append(BundleEntry(p, witness, claimed_after))
    if off != len(data):
        raise BundleSchemaMismatch("trailing bytes after final entry")
    return ProofBundle(op, entries)

