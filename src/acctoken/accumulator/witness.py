"""The witness wire layout, and a strict parsed view of it.

Wire layout (bit-exact; golden vectors live in tests/golden/):

    header  = kind(1) || element-digest(32) || step-count(2, big-endian)
    step    = branch-bit(1) || sibling-digest(32)          (root-first order)
    payload = occupant-leaf-digest(32)                     (kinds 2 and 3 only)

Steps record the discriminator bit index of each branch on the element's
search path; the turn taken at a branch is the element digest's bit at that
index, so no separate direction flag is carried. Non-membership and
update-add witnesses always end with a 32-byte payload: the occupant leaf's
key at the point of divergence, or all zeroes when the tree was empty.

These bytes are the only form a witness takes on the running program:
``core`` writes them with ``pack`` as it walks the trie, and ``verify``
reads them in place at the offsets below. ``Witness``, ``encode_witness``
and ``decode_witness`` are a strict parsed view of the same layout, for
tests and the reference verifier in tests/reference_verify.py.
"""

from dataclasses import dataclass
from enum import IntEnum

from ..errors import WitnessDecodeError
from .hashing import DIGEST_BYTES

# offsets: the kind byte, the element digest, the step count, then the steps
KIND_AT = 0
KEY_AT = 1
COUNT_AT = KEY_AT + DIGEST_BYTES
HEADER_BYTES = COUNT_AT + 2
STEP_BYTES = 1 + DIGEST_BYTES
ZERO_PAYLOAD = b"\x00" * DIGEST_BYTES
MAX_STEPS = 256


class WitnessKind(IntEnum):
    MEMBERSHIP = 1
    NON_MEMBERSHIP = 2
    UPDATE_ADD = 3
    UPDATE_DEL = 4


#: trailing payload bytes of each kind; a kind not listed here is unknown
PAYLOAD_BYTES = {
    WitnessKind.MEMBERSHIP.value: 0,
    WitnessKind.NON_MEMBERSHIP.value: DIGEST_BYTES,
    WitnessKind.UPDATE_ADD.value: DIGEST_BYTES,
    WitnessKind.UPDATE_DEL.value: 0,
}

#: the one-byte encoding of each branch bit (and of each kind)
BIT_BYTE = tuple(bytes((bit,)) for bit in range(256))


def encoded_length(kind: int, step_count: int) -> int:
    """Serialized length of a witness with this kind byte and step count."""
    return HEADER_BYTES + STEP_BYTES * step_count + PAYLOAD_BYTES.get(kind, 0)


def pack(kind: int, key: bytes, steps: list[bytes], occupant: bytes | None = None) -> bytes:
    """The wire bytes of a witness.

    ``steps`` holds each step's bytes, root first: its bit byte
    (``BIT_BYTE[bit]``) then its sibling digest, as one ``bytes``.
    ``occupant`` is the payload of the kinds that carry one, None for the
    empty tree.
    """
    parts = [BIT_BYTE[kind], key, len(steps).to_bytes(2, "big"), *steps]
    if PAYLOAD_BYTES.get(kind):
        parts.append(occupant if occupant is not None else ZERO_PAYLOAD)
    return b"".join(parts)


@dataclass
class Witness:
    """The parsed view of a witness's bytes.

    ``steps`` holds (branch-bit, sibling-digest) pairs from the root down.
    ``occupant`` is the diverging leaf's key for non-membership and
    update-add claims, or None when the claim is against the empty tree.
    """

    kind: WitnessKind
    element_digest: bytes
    steps: tuple[tuple[int, bytes], ...]
    occupant: bytes | None = None


def encode_witness(w: Witness) -> bytes:
    if not 0 <= w.kind < 256:
        raise ValueError(f"witness kind {w.kind!r} outside 0..255")
    steps = []
    for bit, sibling in w.steps:
        if not 0 <= bit < 256:
            raise ValueError(f"branch bit {bit!r} outside 0..255")
        steps.append(BIT_BYTE[bit] + sibling)
    return pack(w.kind, w.element_digest, steps, w.occupant)


def decode_witness(data: bytes) -> Witness:
    """Strict inverse of encode_witness; raises WitnessDecodeError otherwise."""
    if len(data) < HEADER_BYTES:
        raise WitnessDecodeError("witness shorter than header")
    try:
        kind = WitnessKind(data[KIND_AT])
    except ValueError:
        raise WitnessDecodeError(f"unknown witness kind {data[KIND_AT]}") from None
    digest = data[KEY_AT:COUNT_AT]
    count = int.from_bytes(data[COUNT_AT:HEADER_BYTES], "big")
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
        steps.append((data[off], data[off + 1 : off + STEP_BYTES]))
        off += STEP_BYTES
    occupant = None
    if PAYLOAD_BYTES[kind]:
        tail = data[off:]
        occupant = None if tail == ZERO_PAYLOAD else tail
    return Witness(kind, digest, tuple(steps), occupant)
