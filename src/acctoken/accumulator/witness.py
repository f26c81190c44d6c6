"""The witness wire layout.

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
reads them in place at the offsets below. The strict parsed view of the
same layout (``Witness``, ``encode_witness``, ``decode_witness``) lives with
the reference verifier in tests/reference_verify.py.
"""

from enum import IntEnum

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
