"""Pure witness verification: the contract side of the accumulator.

Nothing in this module touches tree memory; ``belongs`` and ``check_update``
are functions of their arguments only, safe to call on arbitrary adversarial
input. Malformed input, and any witness that is not ``bytes``, yields BOTTOM
(belongs) or 0 (check_update), never an exception.

Each reads the wire bytes in place, at the offsets ``witness`` lays out: it
checks the header and the exact length, reads the steps' bits as every
33rd byte to check that they rise and to build a mask of them over the
element's key read as an int, then folds up the path at step offsets with
one inline SHA-256 per level (made through ``hashing.hashlib``; see there).
A step's bytes are its branch bit then its sibling, so on a 1-side the
preimage takes the step's bytes whole after the tag. Given a ``hashed``
callback, they call it at each hash site, just before the hash is made,
with the hash's input length; the contract meters gas from these calls. The
verdict never depends on the callback.

An accepted update witness proves its own precondition. Both kinds fold a
leaf along the element's own search path up to ``acc_before`` (the element's
for a delete, the occupant's for an add, or the tree is empty), as ``belongs``
does. So when ``check_update`` returns 1 the element was present before a
delete and absent before an add, and its key, steps and occupant get that
verdict from ``belongs`` as a (non)membership witness against ``acc_before``.
"""

from . import hashing
from .hashing import BIT_MASK, BIT_PREFIX, DIGEST_BYTES, EMPTY_DIGEST, KEY_BITS, TAG_INTERNAL, TAG_LEAF
from .witness import COUNT_AT, HEADER_BYTES, KIND_AT, KEY_AT, MAX_STEPS, PAYLOAD_BYTES, STEP_BYTES, ZERO_PAYLOAD, WitnessKind


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


#: Verdict for witnesses that are valid for neither membership nor
#: non-membership: malformed bytes, wrong element, or a root mismatch.
BOTTOM = _Bottom()

# the kinds as plain ints, which the kind byte is compared with on every call
_MEMBERSHIP = WitnessKind.MEMBERSHIP.value
_NON_MEMBERSHIP = WitnessKind.NON_MEMBERSHIP.value
_UPDATE_ADD = WitnessKind.UPDATE_ADD.value
_UPDATE_DEL = WitnessKind.UPDATE_DEL.value

# SHA-256 input lengths of a leaf and of a branch over two 32-byte digests
_LEAF_BYTES = len(TAG_LEAF) + DIGEST_BYTES
_BRANCH_BYTES = len(BIT_PREFIX[0]) + 2 * DIGEST_BYTES


def _opened(element: bytes, w, hashed):
    """(kind, end of the steps, mask, key, key as an int) for the witness
    bytes ``w``: the mask holds the bits of its steps over a key read as an
    int (see ``hashing.BIT_MASK``). None unless ``w`` is ``bytes`` of a known
    kind and at most ``MAX_STEPS`` steps, exactly as long as that kind and
    count make it, its bits rise strictly and its key is ``element``'s
    digest, which is hashed last."""
    if w.__class__ is not bytes or len(w) < HEADER_BYTES:
        return None
    kind = w[KIND_AT]
    payload = PAYLOAD_BYTES.get(kind)
    count = (w[COUNT_AT] << 8) | w[COUNT_AT + 1]
    end = HEADER_BYTES + STEP_BYTES * count
    if payload is None or count > MAX_STEPS or len(w) != end + payload:
        return None
    mask = 0
    prev = -1
    for bit in w[HEADER_BYTES:end:STEP_BYTES]:
        if bit <= prev:
            return None
        prev = bit
        mask |= BIT_MASK[bit]
    if hashed is not None:
        hashed(len(element))
    key = hashing.hashlib.sha256(element).digest()
    if not w.startswith(key, KEY_AT):
        return None
    return kind, end, mask, key, int.from_bytes(key, "big")


def _fold(node: bytes, w: bytes, start: int, end: int, k: int, sha256, hashed) -> bytes:
    # Recompute the root from a node digest upward along the key ``k`` (the
    # element's key as an int), over the steps of ``w`` from offset ``start``
    # to ``end``: they are above the node, root first.
    for off in range(end - STEP_BYTES, start - 1, -STEP_BYTES):
        if hashed is not None:
            hashed(_BRANCH_BYTES)
        bit = w[off]
        if k & BIT_MASK[bit]:
            node = sha256(TAG_INTERNAL + w[off : off + STEP_BYTES] + node).digest()
        else:
            node = sha256(BIT_PREFIX[bit] + node + w[off + 1 : off + STEP_BYTES]).digest()
    return node


def belongs(acc: bytes, element: bytes, w, hashed=None):
    """1 for a valid membership witness, 0 for non-membership, BOTTOM otherwise.

    ``hashed``, if given, is called with each SHA-256 input length.
    """
    try:
        opened = _opened(element, w, hashed)
        if opened is None:
            return BOTTOM
        kind, end, mask, key, k = opened
        if kind == _MEMBERSHIP:
            leaf, verdict = key, 1
        elif kind == _NON_MEMBERSHIP:
            occupant = w[end:]
            if occupant == ZERO_PAYLOAD:  # only the empty tree has no leaf to fold
                return 0 if end == HEADER_BYTES and acc == EMPTY_DIGEST else BOTTOM
            # a genuine terminal leaf is another key's that agrees with the
            # element's at every branch bit (no steps: nothing to agree on)
            if occupant == key or mask and (k ^ int.from_bytes(occupant, "big")) & mask:
                return BOTTOM
            leaf, verdict = occupant, 0
        else:
            return BOTTOM
        sha256 = hashing.hashlib.sha256
        if hashed is not None:
            hashed(_LEAF_BYTES)
        root = _fold(sha256(TAG_LEAF + leaf).digest(), w, HEADER_BYTES, end, k, sha256, hashed)
        return verdict if root == acc else BOTTOM
    except Exception:
        return BOTTOM


def check_update(acc_before: bytes, acc_after: bytes, element: bytes, w, hashed=None) -> int:
    """1 iff ``w`` proves acc_before --add/del element--> acc_after.

    ``hashed``, if given, is called with each SHA-256 input length.
    """
    try:
        opened = _opened(element, w, hashed)
        if opened is None:
            return 0
        kind, end, mask, key, k = opened
        sha256 = hashing.hashlib.sha256
        if kind == _UPDATE_ADD:
            occupant = w[end:]
            if occupant == ZERO_PAYLOAD:
                if end != HEADER_BYTES or acc_before != EMPTY_DIGEST:
                    return 0
                if hashed is not None:
                    hashed(_LEAF_BYTES)
                return 1 if acc_after == sha256(TAG_LEAF + key).digest() else 0
            if occupant == key:
                return 0
            diff = k ^ int.from_bytes(occupant, "big")
            # The occupant agrees with the element at every branch bit, so the
            # first bit where they differ, ``split``, is no step's bit.
            if diff & mask:
                return 0
            split = KEY_BITS - diff.bit_length()
            # Steps are root-first with rising bits. Below ``split`` the
            # occupant's subtree is the same in both trees; in the after-tree
            # it is paired with the new leaf at that bit, and the steps above
            # (up to offset ``mid``) lead to both roots.
            mid = HEADER_BYTES + STEP_BYTES * (mask >> (KEY_BITS - split)).bit_count()
            if hashed is not None:
                hashed(_LEAF_BYTES)
            before = _fold(sha256(TAG_LEAF + occupant).digest(), w, mid, end, k, sha256, hashed)
            if hashed is not None:
                hashed(_LEAF_BYTES)
            new_leaf = sha256(TAG_LEAF + key).digest()
            if hashed is not None:
                hashed(_BRANCH_BYTES)
            if k & BIT_MASK[split]:
                after = sha256(BIT_PREFIX[split] + before + new_leaf).digest()
            else:
                after = sha256(BIT_PREFIX[split] + new_leaf + before).digest()
            for off in range(mid - STEP_BYTES, HEADER_BYTES - 1, -STEP_BYTES):
                bit = w[off]
                prefix, sibling, one = BIT_PREFIX[bit], w[off + 1 : off + STEP_BYTES], k & BIT_MASK[bit]
                if hashed is not None:
                    hashed(_BRANCH_BYTES)
                before = sha256(prefix + sibling + before if one else prefix + before + sibling).digest()
                if hashed is not None:
                    hashed(_BRANCH_BYTES)
                after = sha256(prefix + sibling + after if one else prefix + after + sibling).digest()
            return 1 if before == acc_before and after == acc_after else 0
        if kind == _UPDATE_DEL:
            if hashed is not None:
                hashed(_LEAF_BYTES)
            before = _fold(sha256(TAG_LEAF + key).digest(), w, HEADER_BYTES, end, k, sha256, hashed)
            # Removing the leaf collapses its parent; the sibling takes its place.
            if end == HEADER_BYTES:
                after = EMPTY_DIGEST
            else:
                last = end - STEP_BYTES
                after = _fold(w[last + 1 : end], w, HEADER_BYTES, last, k, sha256, hashed)
            return 1 if before == acc_before and after == acc_after else 0
        return 0
    except Exception:
        return 0
