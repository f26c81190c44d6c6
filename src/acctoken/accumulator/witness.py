"""Witness structure and its canonical byte encoding.

Wire layout (bit-exact; golden vectors live in tests/golden/):

    header  = kind(1) || element-digest(32) || step-count(2, big-endian)
    step    = branch-bit(1) || sibling-digest(32)          (root-first order)
    payload = occupant-leaf-digest(32)                     (kinds 2 and 3 only)

Steps record the discriminator bit index of each branch on the element's
search path; the turn taken at a branch is the element digest's bit at that
index, so no separate direction flag is carried. Non-membership and
update-add witnesses always end with a 32-byte payload: the occupant leaf's
key at the point of divergence, or all zeroes when the tree was empty.
"""

from dataclasses import dataclass
from enum import IntEnum

from ..errors import WitnessDecodeError
from .hashing import DIGEST_BYTES

HEADER_BYTES = 1 + DIGEST_BYTES + 2
STEP_BYTES = 1 + DIGEST_BYTES
ZERO_PAYLOAD = b"\x00" * DIGEST_BYTES
MAX_STEPS = 256


class WitnessKind(IntEnum):
    MEMBERSHIP = 1
    NON_MEMBERSHIP = 2
    UPDATE_ADD = 3
    UPDATE_DEL = 4


_PAYLOAD_KINDS = (WitnessKind.NON_MEMBERSHIP, WitnessKind.UPDATE_ADD)


@dataclass
class Witness:
    """Hash path(s) authenticating a (non)membership or update claim.

    ``steps`` holds (branch-bit, sibling-digest) pairs from the root down.
    ``occupant`` is the diverging leaf's key for non-membership and
    update-add claims, or None when the claim is against the empty tree.
    """

    kind: WitnessKind
    element_digest: bytes
    steps: tuple[tuple[int, bytes], ...]
    occupant: bytes | None = None


def encoded_length(kind: int, step_count: int) -> int:
    """Serialized length of a witness with this kind byte and step count."""
    return HEADER_BYTES + STEP_BYTES * step_count + (DIGEST_BYTES if kind in _PAYLOAD_KINDS else 0)


def witness_size_bytes(w: Witness) -> int:
    """Exact serialized length under the canonical encoding."""
    return encoded_length(w.kind, len(w.steps))


def encode_witness(w: Witness) -> bytes:
    parts = [bytes((w.kind,)), w.element_digest, len(w.steps).to_bytes(2, "big")]
    for bit, sibling in w.steps:
        parts.append(bytes((bit,)))
        parts.append(sibling)
    if w.kind in _PAYLOAD_KINDS:
        parts.append(w.occupant if w.occupant is not None else ZERO_PAYLOAD)
    return b"".join(parts)


def decode_witness(data: bytes) -> Witness:
    """Strict inverse of encode_witness; raises WitnessDecodeError otherwise."""
    if len(data) < HEADER_BYTES:
        raise WitnessDecodeError("witness shorter than header")
    try:
        kind = WitnessKind(data[0])
    except ValueError:
        raise WitnessDecodeError(f"unknown witness kind {data[0]}") from None
    digest = data[1:33]
    count = int.from_bytes(data[33:35], "big")
    if count > MAX_STEPS:
        raise WitnessDecodeError(f"step count {count} exceeds key width")
    expected = encoded_length(kind, count)
    if len(data) != expected:
        raise WitnessDecodeError(
            f"witness length {len(data)} != expected {expected} for kind {kind}"
        )
    steps = []
    off = HEADER_BYTES
    for _ in range(count):
        steps.append((data[off], data[off + 1 : off + 1 + DIGEST_BYTES]))
        off += STEP_BYTES
    occupant = None
    if kind in _PAYLOAD_KINDS:
        tail = data[off:]
        occupant = None if tail == ZERO_PAYLOAD else tail
    return Witness(kind, digest, tuple(steps), occupant)
