"""The witness wire layout.

Wire layout (bit-exact; golden vectors live in tests/golden/):

    header  = kind(1) || element-key(32) || step-count(2, big-endian)
    step    = branch-bit(1) || sibling-digest(32)          (root-first order)
    payload = occupant-key(32) || occupant-element-digest(32)  (kinds 2 and 3 only)

Kinds: 1 membership, 2 non-membership, 3 update-add, 4 update-del and 5
update-replace. Membership, update-del and update-replace carry the header
and steps only: the path to the leaf under the element's key. An
update-replace rewrites that leaf to hold another element under the same
key, so the trie's shape does not change and one path proves both trees.

Steps record the discriminator bit index of each branch on the element's
search path; the turn taken at a branch is the element key's bit at that
index, so no separate direction flag is carried. Non-membership and
update-add witnesses always end with a 64-byte payload: the terminal leaf
at the point of divergence, as its key and the digest of the element it
holds (``hashing``: the two halves of the leaf's preimage after its tag), or
all zeroes when the tree was empty.

These bytes are the only form a witness takes on the running program:
``core`` writes them with ``pack`` as it walks the trie, and ``verify``
reads them in place at the offsets below. The strict parsed view of the
same layout (``Witness``, ``encode_witness``, ``decode_witness``) lives with
the reference verifier in tests/reference_verify.py.
"""

from enum import IntEnum

from .hashing import BIT_BYTE, DIGEST_BYTES

# offsets: the kind byte, the element digest, the step count, then the steps
KIND_AT = 0
KEY_AT = 1
COUNT_AT = KEY_AT + DIGEST_BYTES
HEADER_BYTES = COUNT_AT + 2
STEP_BYTES = 1 + DIGEST_BYTES
OCCUPANT_BYTES = 2 * DIGEST_BYTES
ZERO_PAYLOAD = b"\x00" * OCCUPANT_BYTES
MAX_STEPS = 256


class WitnessKind(IntEnum):
    MEMBERSHIP = 1
    NON_MEMBERSHIP = 2
    UPDATE_ADD = 3
    UPDATE_DEL = 4
    UPDATE_REPLACE = 5


#: trailing payload bytes of each kind; a kind not listed here is unknown
PAYLOAD_BYTES = {
    WitnessKind.MEMBERSHIP.value: 0,
    WitnessKind.NON_MEMBERSHIP.value: OCCUPANT_BYTES,
    WitnessKind.UPDATE_ADD.value: OCCUPANT_BYTES,
    WitnessKind.UPDATE_DEL.value: 0,
    WitnessKind.UPDATE_REPLACE.value: 0,
}

#: the kind of each update witness -> the kind of what it proves of the tree
#: before the update: absence before an add, presence before a delete, and
#: presence of the old element before a replace; the kinds of each pair
#: share a layout, so only the kind byte differs
PRECONDITION = {
    WitnessKind.UPDATE_ADD.value: WitnessKind.NON_MEMBERSHIP.value,
    WitnessKind.UPDATE_DEL.value: WitnessKind.MEMBERSHIP.value,
    WitnessKind.UPDATE_REPLACE.value: WitnessKind.MEMBERSHIP.value,
}


def encoded_length(kind: int, step_count: int) -> int:
    """Serialized length of a witness with this kind byte and step count."""
    return HEADER_BYTES + STEP_BYTES * step_count + PAYLOAD_BYTES.get(kind, 0)


def pack(kind: int, key: bytes, steps: list[bytes], occupant: bytes | None = None) -> bytes:
    """The wire bytes of a witness.

    ``steps`` holds each step's bytes, root first: its bit byte
    (``BIT_BYTE[bit]``) then its sibling digest, as one ``bytes``.
    ``occupant`` is the payload of the kinds that carry one, the terminal
    leaf's key and element digest as one ``bytes``; None for the empty tree.
    """
    parts = [BIT_BYTE[kind], key, len(steps).to_bytes(2, "big"), *steps]
    if PAYLOAD_BYTES.get(kind):
        parts.append(occupant if occupant is not None else ZERO_PAYLOAD)
    return b"".join(parts)


def precondition_witness(w: bytes) -> bytes:
    """The update witness ``w`` as the (non)membership witness of its
    precondition (``PRECONDITION``): the same bytes under the other kind byte."""
    return BIT_BYTE[PRECONDITION[w[KIND_AT]]] + w[KIND_AT + 1 :]
