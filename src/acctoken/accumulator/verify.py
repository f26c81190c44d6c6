"""Pure witness verification: the contract side of the accumulator.

Nothing in this module touches tree memory; ``belongs`` and ``check_update``
are functions of their arguments only, safe to call on arbitrary adversarial
input. Malformed input yields BOTTOM (belongs) or 0 (check_update), never an
exception. Given a ``hashed`` callback, they call it with the input length of
each SHA-256 they compute, as they compute it; the contract meters gas from
these calls. The verdict never depends on the callback, and without one the
plain hashing primitives run with nothing in between.

An accepted update witness proves its own precondition. Both kinds fold a
leaf along the element's own search path up to ``acc_before`` (the element's
for a delete, the occupant's for an add, or the tree is empty), as ``belongs``
does. So when ``check_update`` returns 1 the element was present before a
delete and absent before an add, and its key, steps and occupant get that
verdict from ``belongs`` as a (non)membership witness against ``acc_before``.
"""

from .hashing import (
    EMPTY_DIGEST,
    bit_at,
    branch_hash,
    element_digest,
    first_diff_bit,
    leaf_hash,
    metered,
)
from .witness import Witness, WitnessKind, decode_witness
from ..errors import WitnessDecodeError


class _Bottom:
    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __bool__(self) -> bool:
        return False


#: Verdict for witnesses that are valid for neither membership nor
#: non-membership: malformed bytes, wrong element, or a root mismatch.
BOTTOM = _Bottom()

_PLAIN = (element_digest, leaf_hash, branch_hash)


def _as_witness(w):
    if isinstance(w, Witness):
        return w
    return decode_witness(bytes(w))


def _well_formed(w: Witness) -> bool:
    if len(w.element_digest) != 32:
        return False
    prev = -1
    for bit, sibling in w.steps:
        if not 0 <= bit <= 255 or bit <= prev or len(sibling) != 32:
            return False
        prev = bit
    if w.occupant is not None and len(w.occupant) != 32:
        return False
    return True


def _fold(node: bytes, steps, path_key: bytes, branch) -> bytes:
    # Recompute the root from a node digest upward; ``steps`` are above it.
    for bit, sibling in reversed(steps):
        if bit_at(path_key, bit) == 0:
            node = branch(bit, node, sibling)
        else:
            node = branch(bit, sibling, node)
    return node


def _on_search_path(leaf_key: bytes, path_key: bytes, steps) -> bool:
    # A genuine terminal leaf agrees with the probed key at every branch bit.
    return all(bit_at(leaf_key, bit) == bit_at(path_key, bit) for bit, _ in steps)


def belongs(acc: bytes, element: bytes, w, hashed=None):
    """1 for a valid membership witness, 0 for non-membership, BOTTOM otherwise.

    ``hashed``, if given, is called with each SHA-256 input length.
    """
    try:
        w = _as_witness(w)
    except (WitnessDecodeError, TypeError, ValueError):
        return BOTTOM
    try:
        return _belongs(acc, element, w, *(_PLAIN if hashed is None else metered(hashed)))
    except Exception:
        return BOTTOM


def _belongs(acc: bytes, element: bytes, w: Witness, digest, leaf, branch):
    if not _well_formed(w) or w.element_digest != digest(element):
        return BOTTOM
    if w.kind == WitnessKind.MEMBERSHIP:
        if w.occupant is not None:
            return BOTTOM
        root = _fold(leaf(w.element_digest), w.steps, w.element_digest, branch)
        return 1 if root == acc else BOTTOM
    if w.kind == WitnessKind.NON_MEMBERSHIP:
        if w.occupant is None:
            if w.steps:
                return BOTTOM
            return 0 if acc == EMPTY_DIGEST else BOTTOM
        if w.occupant == w.element_digest:
            return BOTTOM
        if not _on_search_path(w.occupant, w.element_digest, w.steps):
            return BOTTOM
        root = _fold(leaf(w.occupant), w.steps, w.element_digest, branch)
        return 0 if root == acc else BOTTOM
    return BOTTOM


def check_update(acc_before: bytes, acc_after: bytes, element: bytes, w, hashed=None) -> int:
    """1 iff ``w`` proves acc_before --add/del element--> acc_after.

    ``hashed``, if given, is called with each SHA-256 input length.
    """
    try:
        w = _as_witness(w)
    except (WitnessDecodeError, TypeError, ValueError):
        return 0
    try:
        return _check_update(acc_before, acc_after, element, w, *(_PLAIN if hashed is None else metered(hashed)))
    except Exception:
        return 0


def _check_update(acc_before: bytes, acc_after: bytes, element: bytes, w: Witness, digest, leaf, branch) -> int:
    if not _well_formed(w) or w.element_digest != digest(element):
        return 0
    key = w.element_digest
    if w.kind == WitnessKind.UPDATE_ADD:
        if w.occupant is None:
            if w.steps:
                return 0
            ok = acc_before == EMPTY_DIGEST and acc_after == leaf(key)
            return 1 if ok else 0
        if w.occupant == key or not _on_search_path(w.occupant, key, w.steps):
            return 0
        split = first_diff_bit(key, w.occupant)
        if any(bit == split for bit, _ in w.steps):
            return 0
        # Steps are root-first with rising bits. Below the first bit where the
        # element diverges from the occupant, the occupant's subtree is the
        # same in both trees; in the after-tree it is paired with the new
        # leaf at that bit, and the steps above lead to both roots.
        above = sum(1 for bit, _ in w.steps if bit < split)
        before = _fold(leaf(w.occupant), w.steps[above:], key, branch)
        new_leaf = leaf(key)
        after = branch(split, new_leaf, before) if bit_at(key, split) == 0 else branch(split, before, new_leaf)
        for bit, sibling in reversed(w.steps[:above]):
            if bit_at(key, bit) == 0:
                before, after = branch(bit, before, sibling), branch(bit, after, sibling)
            else:
                before, after = branch(bit, sibling, before), branch(bit, sibling, after)
        return 1 if before == acc_before and after == acc_after else 0
    if w.kind == WitnessKind.UPDATE_DEL:
        if w.occupant is not None:
            return 0
        before = _fold(leaf(key), w.steps, key, branch)
        if not w.steps:
            after = EMPTY_DIGEST
        else:
            # Removing the leaf collapses its parent; the sibling takes its place.
            after = _fold(w.steps[-1][1], w.steps[:-1], key, branch)
        return 1 if before == acc_before and after == acc_after else 0
    return 0
