"""Pure witness verification: the contract side of the accumulator.

Nothing in this module touches tree memory; ``belongs`` and ``check_update``
are functions of their arguments only, safe to call on arbitrary adversarial
input. Malformed input yields BOTTOM (belongs) or 0 (check_update), never an
exception. Each turns the element's key into an int once, checks the steps
and builds a mask of their bits in one pass, then folds up the path with one
inline SHA-256 per level (made through ``hashing.hashlib``; see there).
Given a ``hashed`` callback, they call it at each hash site, just before the
hash is made, with the hash's input length; the contract meters gas from
these calls. The verdict never depends on the callback.

An accepted update witness proves its own precondition. Both kinds fold a
leaf along the element's own search path up to ``acc_before`` (the element's
for a delete, the occupant's for an add, or the tree is empty), as ``belongs``
does. So when ``check_update`` returns 1 the element was present before a
delete and absent before an add, and its key, steps and occupant get that
verdict from ``belongs`` as a (non)membership witness against ``acc_before``.
"""

from . import hashing
from .hashing import BIT_MASK, BIT_PREFIX, DIGEST_BYTES, EMPTY_DIGEST, KEY_BITS, TAG_LEAF
from .witness import Witness, WitnessKind, decode_witness


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


#: Verdict for witnesses that are valid for neither membership nor
#: non-membership: malformed bytes, wrong element, or a root mismatch.
BOTTOM = _Bottom()

# SHA-256 input lengths of a leaf and of a branch over two 32-byte digests
_LEAF_BYTES = len(TAG_LEAF) + DIGEST_BYTES
_BRANCH_BYTES = len(BIT_PREFIX[0]) + 2 * DIGEST_BYTES


def _opened(element: bytes, w, hashed) -> tuple[Witness, int, int] | None:
    """``w`` decoded, the bits of its steps as a mask over a key read as an
    int (see ``hashing.BIT_MASK``) and its key as an int; None unless every
    digest in it is 32 bytes long, the bits rise strictly within 0..255 and
    the key is ``element``'s digest, which is hashed last."""
    if not isinstance(w, Witness):
        w = decode_witness(bytes(w))
    key = w.element_digest
    if len(key) != DIGEST_BYTES:
        return None
    mask = 0
    prev = -1
    for bit, sibling in w.steps:
        if not prev < bit < KEY_BITS or len(sibling) != DIGEST_BYTES:
            return None
        prev = bit
        mask |= BIT_MASK[bit]
    if w.occupant is not None and len(w.occupant) != DIGEST_BYTES:
        return None
    if hashed is not None:
        hashed(len(element))
    if hashing.hashlib.sha256(element).digest() != key:
        return None
    return w, mask, int.from_bytes(key, "big")


def _fold(node: bytes, steps, k: int, sha256, hashed) -> bytes:
    # Recompute the root from a node digest upward along the key ``k`` (the
    # element's key as an int); ``steps`` are above the node, root first.
    for bit, sibling in reversed(steps):
        if hashed is not None:
            hashed(_BRANCH_BYTES)
        if k & BIT_MASK[bit]:
            node = sha256(BIT_PREFIX[bit] + sibling + node).digest()
        else:
            node = sha256(BIT_PREFIX[bit] + node + sibling).digest()
    return node


def belongs(acc: bytes, element: bytes, w, hashed=None):
    """1 for a valid membership witness, 0 for non-membership, BOTTOM otherwise.

    ``hashed``, if given, is called with each SHA-256 input length.
    """
    try:
        opened = _opened(element, w, hashed)
        if opened is None:
            return BOTTOM
        w, mask, k = opened
        kind, key, steps, occupant = w.kind, w.element_digest, w.steps, w.occupant
        if kind == WitnessKind.MEMBERSHIP:
            if occupant is not None:
                return BOTTOM
            leaf, verdict = key, 1
        elif kind == WitnessKind.NON_MEMBERSHIP:
            if occupant is None:  # only the empty tree has no leaf to fold
                return 0 if not steps and acc == EMPTY_DIGEST else BOTTOM
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
        root = _fold(sha256(TAG_LEAF + leaf).digest(), steps, k, sha256, hashed)
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
        w, mask, k = opened
        kind, key, steps, occupant = w.kind, w.element_digest, w.steps, w.occupant
        sha256 = hashing.hashlib.sha256
        if kind == WitnessKind.UPDATE_ADD:
            if occupant is None:
                if steps or acc_before != EMPTY_DIGEST:
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
            # lead to both roots.
            above = (mask >> (KEY_BITS - split)).bit_count()
            if hashed is not None:
                hashed(_LEAF_BYTES)
            before = _fold(sha256(TAG_LEAF + occupant).digest(), steps[above:], k, sha256, hashed)
            if hashed is not None:
                hashed(_LEAF_BYTES)
            new_leaf = sha256(TAG_LEAF + key).digest()
            if hashed is not None:
                hashed(_BRANCH_BYTES)
            if k & BIT_MASK[split]:
                after = sha256(BIT_PREFIX[split] + before + new_leaf).digest()
            else:
                after = sha256(BIT_PREFIX[split] + new_leaf + before).digest()
            for bit, sibling in reversed(steps[:above]):
                prefix = BIT_PREFIX[bit]
                one = k & BIT_MASK[bit]
                if hashed is not None:
                    hashed(_BRANCH_BYTES)
                before = sha256(prefix + sibling + before if one else prefix + before + sibling).digest()
                if hashed is not None:
                    hashed(_BRANCH_BYTES)
                after = sha256(prefix + sibling + after if one else prefix + after + sibling).digest()
            return 1 if before == acc_before and after == acc_after else 0
        if kind == WitnessKind.UPDATE_DEL:
            if occupant is not None:
                return 0
            if hashed is not None:
                hashed(_LEAF_BYTES)
            before = _fold(sha256(TAG_LEAF + key).digest(), steps, k, sha256, hashed)
            # Removing the leaf collapses its parent; the sibling takes its place.
            after = _fold(steps[-1][1], steps[:-1], k, sha256, hashed) if steps else EMPTY_DIGEST
            return 1 if before == acc_before and after == acc_after else 0
        return 0
    except Exception:
        return 0
