"""Pure witness verification: the contract side of the accumulator.

Nothing in this module touches tree memory; ``belongs`` and ``check_update``
are functions of their arguments only, safe to call on arbitrary adversarial
input. Malformed input, and any witness that is not ``bytes``, yields BOTTOM
(belongs) or 0 (check_update), never an exception.

Each takes the accumulator's ``key_len`` (see ``hashing``) and reads the
wire bytes in place, at the offsets ``witness`` lays out: it checks the
header and the exact length, reads the steps' bits as every 33rd byte to
check that they rise and to build a mask of them over the element's key
read as an int, then folds up the path at step offsets with one inline
SHA-256 per level (made through ``hashing.hashlib``; see there).
``check_update`` folds the node of the tree before the update and the node
of the tree after it up the steps they share in one loop, both hashes of a
level from one read of its step: a replace shares every step, an add the
steps above the bit where the new leaf splits off, and a delete every step
above the last, whose branch collapses. It makes the hashes two separate
folds would make, interleaved; every branch hash has one input length, so
the lengths it reports come in the order two separate folds would report
them. A key holds one leaf, which commits to its element: ``belongs`` gives
1 only for the leaf under the element's key holding it, 0 only when the key
is absent, and BOTTOM for a leaf under the key holding another element.
A step's bytes are its branch bit then its sibling, so on a 1-side the
preimage takes the step's bytes whole after the tag. Given a ``hashed``
callback, they call it at each hash site, just before the hash is made,
with the hash's input length; the contract meters gas from these calls. The
verdict never depends on the callback.

An accepted update witness proves its own precondition by construction.
``check_update`` reads its before-state with the reader ``belongs`` uses,
``_terminal``: an update witness is read as its precondition witness
(``witness.PRECONDITION``: membership before a delete or a replace,
non-membership before an add), and the terminal leaf that reader returns is
folded up to ``acc_before`` exactly as ``belongs`` folds it up to ``acc``.
So when ``check_update`` returns 1, ``belongs`` gives the same witness with
its precondition kind the same verdict against ``acc_before``.

An update-replace names two elements, the pair (old, new), whose lookup
prefixes are equal, so both sit under one key: it folds the key's leaf
holding the old element up to ``acc_before`` and the leaf holding the new
one, along the same steps, up to ``acc_after``. It cannot add or remove a
key, so the after-tree holds the same keys, one of them with another
element. The kind byte says which form the element takes: a pair for a
replace, one element for any other kind; the other form is 0 before any
hash.
"""

from . import hashing
from .hashing import BIT_MASK, BIT_PREFIX, DIGEST_BYTES, EMPTY_DIGEST, KEY_BITS, TAG_INTERNAL, TAG_LEAF
from .witness import COUNT_AT, HEADER_BYTES, KEY_AT, KIND_AT, MAX_STEPS, OCCUPANT_BYTES, PAYLOAD_BYTES, PRECONDITION, STEP_BYTES, ZERO_PAYLOAD, WitnessKind


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
_REPLACE_BYTE = bytes((WitnessKind.UPDATE_REPLACE.value,))
# ``belongs`` reads each (non)membership witness as its own kind
_AS_ITSELF = {_MEMBERSHIP: _MEMBERSHIP, _NON_MEMBERSHIP: _NON_MEMBERSHIP}

# SHA-256 input lengths of a leaf (a key and a digest) and of a branch
_LEAF_BYTES = len(TAG_LEAF) + OCCUPANT_BYTES
_BRANCH_BYTES = len(BIT_PREFIX[0]) + 2 * DIGEST_BYTES


def _leaf(element: bytes, key: bytes, key_len, sha256, hashed) -> bytes:
    # the digest of the leaf at ``key`` holding ``element`` (see ``hashing``)
    held = key
    if key_len is not None:
        if hashed is not None:
            hashed(len(element))
        held = sha256(element).digest()
    if hashed is not None:
        hashed(_LEAF_BYTES)
    return sha256(TAG_LEAF + key + held).digest()


def _terminal(element: bytes, w, hashed, kinds: dict[int, int], key_len):
    """Read the witness bytes ``w`` as a (non)membership witness of the tree
    before any update, of the kind ``kinds`` maps its kind byte to: an update
    witness reads as its precondition's kind (``PRECONDITION``). Returns
    (verdict, end of the steps, mask, key as an int, terminal node, split):
    the verdict is 1 for membership and 0 for non-membership; the mask holds
    the steps' bits (see ``hashing.BIT_MASK``); the terminal node is the
    hashed leaf of the key holding ``element`` or of the occupant, or the
    empty digest of the empty tree; ``split`` is the first bit where the
    occupant's key differs from the element's. None when no tree can match:
    unless ``w`` is ``bytes`` of a known kind, exactly as long as its kind
    and count (at most ``MAX_STEPS``) make it, with rising bits and
    ``element``'s key as its key (hashed once the layout checks), and, for
    non-membership, an occupant under another key."""
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
    sha256 = hashing.hashlib.sha256
    prefix = element[:key_len]
    if hashed is not None:
        hashed(len(prefix))
    key = sha256(prefix).digest()
    if not w.startswith(key, KEY_AT):
        return None
    kind = kinds.get(kind)
    k = int.from_bytes(key, "big")
    if kind == _MEMBERSHIP:
        return 1, end, mask, k, _leaf(element, key, key_len, sha256, hashed), None
    if kind != _NON_MEMBERSHIP:
        return None
    occupant = w[end:]
    if occupant == ZERO_PAYLOAD:  # only the empty tree has no leaf to fold
        return (0, end, mask, k, EMPTY_DIGEST, None) if end == HEADER_BYTES else None
    # a genuine terminal leaf is another key's that agrees with the element's
    # at every branch bit, so the first bit where they differ, ``split``, is
    # no step's bit; a leaf under the element's own key, whatever element it
    # holds, proves no absence
    diff = k ^ int.from_bytes(occupant[:DIGEST_BYTES], "big")
    if not diff or diff & mask:
        return None
    if hashed is not None:
        hashed(_LEAF_BYTES)
    return 0, end, mask, k, sha256(TAG_LEAF + occupant).digest(), KEY_BITS - diff.bit_length()


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


def _fold_both(before: bytes, after: bytes, w: bytes, start: int, end: int, k: int, sha256, hashed) -> tuple[bytes, bytes]:
    # ``_fold`` of two nodes at one place in the trees before and after an
    # update, up the same steps, in one pass: each step's branch bit and
    # sibling are read once for both, and the before-node is hashed first.
    for off in range(end - STEP_BYTES, start - 1, -STEP_BYTES):
        bit = w[off]
        if k & BIT_MASK[bit]:
            head, tail = TAG_INTERNAL + w[off : off + STEP_BYTES], b""
        else:
            head, tail = BIT_PREFIX[bit], w[off + 1 : off + STEP_BYTES]
        if hashed is not None:
            hashed(_BRANCH_BYTES)
        before = sha256(head + before + tail).digest()
        if hashed is not None:
            hashed(_BRANCH_BYTES)
        after = sha256(head + after + tail).digest()
    return before, after


def belongs(acc: bytes, element: bytes, w, hashed=None, key_len: int | None = None):
    """1 for a valid membership witness, 0 for non-membership, BOTTOM otherwise.

    ``hashed``, if given, is called with each SHA-256 input length;
    ``key_len`` is the accumulator's (see ``hashing``).
    """
    try:
        read = _terminal(element, w, hashed, _AS_ITSELF, key_len)
        if read is None:
            return BOTTOM
        verdict, end, _mask, k, node, _split = read
        root = _fold(node, w, HEADER_BYTES, end, k, hashing.hashlib.sha256, hashed)
        return verdict if root == acc else BOTTOM
    except Exception:
        return BOTTOM


def check_update(acc_before: bytes, acc_after: bytes, element, w, hashed=None, key_len: int | None = None) -> int:
    """1 iff ``w`` proves acc_before --add/del element--> acc_after, or, for
    an update-replace witness, where ``element`` is the pair (old, new),
    acc_before --old replaced by new--> acc_after.

    ``hashed``, if given, is called with each SHA-256 input length;
    ``key_len`` is the accumulator's (see ``hashing``).
    """
    try:
        replaced = element.__class__ is tuple
        if replaced != (w.__class__ is bytes and w[KIND_AT : KIND_AT + 1] == _REPLACE_BYTE):
            return 0
        if replaced:  # equal lookup prefixes: the new element takes the old one's key
            element, new = element
            if new.__class__ is not bytes or new[:key_len] != element[:key_len]:
                return 0
        read = _terminal(element, w, hashed, PRECONDITION, key_len)
        if read is None:
            return 0
        present, end, mask, k, node, split = read
        sha256 = hashing.hashlib.sha256
        if replaced:  # the key's leaf, rehashed over the same steps
            new_leaf = _leaf(new, w[KEY_AT:COUNT_AT], key_len, sha256, hashed)
            before, after = _fold_both(node, new_leaf, w, HEADER_BYTES, end, k, sha256, hashed)
        elif present:  # a delete: the leaf's parent collapses and its sibling takes its place
            if end == HEADER_BYTES:
                before, after = node, EMPTY_DIGEST
            else:
                last = end - STEP_BYTES
                parent = _fold(node, w, last, end, k, sha256, hashed)
                before, after = _fold_both(parent, w[last + 1 : end], w, HEADER_BYTES, last, k, sha256, hashed)
        else:  # an add
            new_leaf = _leaf(element, w[KEY_AT:COUNT_AT], key_len, sha256, hashed)
            if split is None:  # to the empty tree: the new leaf is the whole after-tree
                return 1 if node == acc_before and acc_after == new_leaf else 0
            # Steps are root-first with rising bits. Below ``split`` the
            # occupant's subtree is the same in both trees; in the after-tree
            # it is paired with the new leaf at that bit, and the steps above
            # (up to offset ``mid``) lead to both roots.
            mid = HEADER_BYTES + STEP_BYTES * (mask >> (KEY_BITS - split)).bit_count()
            below = _fold(node, w, mid, end, k, sha256, hashed)
            if hashed is not None:
                hashed(_BRANCH_BYTES)
            if k & BIT_MASK[split]:
                joined = sha256(BIT_PREFIX[split] + below + new_leaf).digest()
            else:
                joined = sha256(BIT_PREFIX[split] + new_leaf + below).digest()
            before, after = _fold_both(below, joined, w, HEADER_BYTES, mid, k, sha256, hashed)
        return 1 if before == acc_before and after == acc_after else 0
    except Exception:
        return 0
