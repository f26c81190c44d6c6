"""Proof bundles: the ordered witness sequence attached to a token operation.

Wire layout (the byte length feeds calldata gas metering):

    bundle = op-tag(1) || entry-count(1) || entries
    entry  = purpose(1) || witness bytes || claimed-acc-after(32; updates only)

The purpose byte binds a witness to its role: the high nibble names the
accumulator (1 balances, 2 approved pairs, 3 allowances), the low nibble the
claim (1 membership, 2 non-membership, 3 update-add, 4 update-del). Witness
bytes are self-delimiting, so entries parse without extra length fields.

Bundles also carry the accumulator values they were built against. That
metadata never hits the wire; the contract compares it against its stored
values to tell a stale bundle from a forged one.
"""

from dataclasses import dataclass, field
from enum import IntEnum

from ..accumulator.witness import (
    DIGEST_BYTES,
    HEADER_BYTES,
    STEP_BYTES,
    Witness,
    WitnessKind,
    decode_witness,
    encode_witness,
    witness_size_bytes,
)
from ..errors import BundleSchemaMismatch, InvalidProof, WitnessDecodeError

BALANCES = "balances"
ALLOWED_ADDRESSES = "allowed-addresses"
ALLOWED_BALANCES = "allowed-balances"
#: Canonical accumulator order; contract state, reads and writes follow it.
ACCUMULATORS = (BALANCES, ALLOWED_ADDRESSES, ALLOWED_BALANCES)

_ACC_NIBBLE = {BALANCES: 0x10, ALLOWED_ADDRESSES: 0x20, ALLOWED_BALANCES: 0x30}
_ACC_BY_NIBBLE = {v: k for k, v in _ACC_NIBBLE.items()}

MEMBER = 0x1
NON_MEMBER = 0x2
UPDATE_ADD = 0x3
UPDATE_DEL = 0x4

#: The storage operation behind each update claim; other claims are memberships.
STORAGE_OP = {UPDATE_ADD: "add", UPDATE_DEL: "del"}


class OpTag(IntEnum):
    TRANSFER = 1
    APPROVE = 2
    TRANSFER_FROM = 3


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
    witness: Witness
    claimed_after: bytes | None = None

    def size_bytes(self) -> int:
        size = 1 + witness_size_bytes(self.witness)
        if is_update_purpose(self.purpose):
            size += DIGEST_BYTES
        return size


@dataclass
class ProofBundle:
    op: OpTag
    entries: list[BundleEntry]
    # Current balances/allowances the witnesses speak about. Witnesses bind
    # element digests only, so these travel as announced uint256 words in the
    # transaction's calldata (not inside the bundle frame); the digest checks
    # inside belongs/check_update authenticate them.
    announced: tuple[int, ...] = ()
    # accumulator values observed at build time, keyed by accumulator name;
    # provenance metadata, deliberately not serialized
    base_accs: dict[str, bytes] = field(default_factory=dict)

    def purposes(self) -> tuple[int, ...]:
        return tuple(e.purpose for e in self.entries)

    def size_bytes(self) -> int:
        return 2 + sum(e.size_bytes() for e in self.entries)


def encode_bundle(bundle: ProofBundle) -> bytes:
    if len(bundle.entries) > 255:
        raise BundleSchemaMismatch("bundle holds more than 255 entries")
    parts = [bytes((bundle.op, len(bundle.entries)))]
    for entry in bundle.entries:
        parts.append(bytes((entry.purpose,)))
        parts.append(encode_witness(entry.witness))
        if is_update_purpose(entry.purpose):
            if entry.claimed_after is None or len(entry.claimed_after) != DIGEST_BYTES:
                raise BundleSchemaMismatch("update entry lacks a claimed after-value")
            parts.append(entry.claimed_after)
    return b"".join(parts)


def decode_bundle(data: bytes) -> ProofBundle:
    """Parse a serialized bundle.

    Frame-level problems (bad op tag, counts, truncation) raise
    BundleSchemaMismatch; a witness that fails to parse raises
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
        if purpose_claim(p) not in (MEMBER, NON_MEMBER, UPDATE_ADD, UPDATE_DEL):
            raise BundleSchemaMismatch(f"purpose {p:#x} carries no claim")
        off += 1
        header = data[off : off + HEADER_BYTES]
        if len(header) < HEADER_BYTES:
            raise BundleSchemaMismatch(f"bundle truncated at entry {index}")
        steps = int.from_bytes(header[33:35], "big")
        wlen = HEADER_BYTES + STEP_BYTES * steps
        if header[0] in (WitnessKind.NON_MEMBERSHIP, WitnessKind.UPDATE_ADD):
            wlen += DIGEST_BYTES
        try:
            witness = decode_witness(data[off : off + wlen])
        except WitnessDecodeError as exc:
            raise InvalidProof(index, str(exc)) from None
        off += wlen
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

