"""The reference verifiers: ``belongs`` and ``check_update`` written as folds
over the node hashes below, one step at a time, and the strict parsed view of
the witness wire layout they read.

Each verifier parses the witness bytes into a ``Witness`` with
``decode_witness`` first. ``acctoken.accumulator.verify`` computes the same
verdicts reading the bytes in place, with the key turned into an int once
and SHA-256 inlined at each level. The property in ``test_accumulator.py``
requires both to agree, verdict for verdict and ``hashed`` length for
``hashed`` length, on honest and forged witness bytes.

The rule they check, written here from its statement: an accumulator keys
an element by the SHA-256 of its first ``key_len`` bytes (of all of it when
``key_len`` is None), and a leaf is ``sha256(TAG_LEAF || key || d)``, where
``d`` is the SHA-256 of the element the leaf holds (the key itself under
whole-element keys). A key holds one leaf: membership needs the leaf under
the element's key to hold the element, and non-membership a leaf under
another key, whatever element it holds. An update-replace claim names two
elements, (old, new), with equal lookup prefixes, so one key: the leaf
under it holds old in the tree before and new in the tree after, over the
same siblings. Any other claim names one element.
"""

from dataclasses import dataclass

from acctoken.accumulator import hashing
from acctoken.accumulator.hashing import BIT_PREFIX, EMPTY_DIGEST, TAG_LEAF, element_digest, first_diff_bit
from acctoken.accumulator.verify import BOTTOM
from acctoken.accumulator.witness import (
    BIT_BYTE,
    COUNT_AT,
    HEADER_BYTES,
    KEY_AT,
    KIND_AT,
    MAX_STEPS,
    PAYLOAD_BYTES,
    STEP_BYTES,
    ZERO_PAYLOAD,
    WitnessKind,
    encoded_length,
    pack,
)


class WitnessDecodeError(ValueError):
    """Witness bytes do not parse under the canonical encoding."""


@dataclass
class Witness:
    """The parsed view of a witness's bytes.

    ``steps`` holds (branch-bit, sibling-digest) pairs from the root down.
    ``occupant`` is the diverging leaf's key for non-membership and
    update-add claims, and ``held`` the digest of the element that leaf
    holds; both are None when the claim is against the empty tree.
    """

    kind: WitnessKind
    element_key: bytes
    steps: tuple[tuple[int, bytes], ...]
    occupant: bytes | None = None
    held: bytes | None = None


def encode_witness(w: Witness) -> bytes:
    if not 0 <= w.kind < 256:
        raise ValueError(f"witness kind {w.kind!r} outside 0..255")
    steps = []
    for bit, sibling in w.steps:
        if not 0 <= bit < 256:
            raise ValueError(f"branch bit {bit!r} outside 0..255")
        steps.append(BIT_BYTE[bit] + sibling)
    return pack(w.kind, w.element_key, steps, None if w.occupant is None else w.occupant + w.held)


def decode_witness(data: bytes) -> Witness:
    """Strict inverse of encode_witness; raises WitnessDecodeError otherwise."""
    if len(data) < HEADER_BYTES:
        raise WitnessDecodeError("witness shorter than header")
    try:
        kind = WitnessKind(data[KIND_AT])
    except ValueError:
        raise WitnessDecodeError(f"unknown witness kind {data[KIND_AT]}") from None
    key = data[KEY_AT:COUNT_AT]
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
    occupant = held = None
    if PAYLOAD_BYTES[kind]:
        tail = data[off:]
        if tail != ZERO_PAYLOAD:
            occupant, held = tail[:32], tail[32:]
    return Witness(kind, key, tuple(steps), occupant, held)


# The node hashes go through ``hashing.hashlib`` looked up at call time, as the
# program's own hashes do, so the tests' recording stand-in counts them too.
def leaf_hash(key: bytes, held: bytes) -> bytes:
    """Digest of the leaf at ``key`` holding an element whose digest is ``held``."""
    return hashing.hashlib.sha256(TAG_LEAF + key + held).digest()


def branch_hash(bit: int, left: bytes, right: bytes) -> bytes:
    """Digest of an internal node splitting at key bit ``bit`` (0..255)."""
    return hashing.hashlib.sha256(BIT_PREFIX[bit] + left + right).digest()


def bit_at(key: bytes, index: int) -> int:
    """Bit of ``key`` at ``index``, most-significant bit first."""
    return (key[index >> 3] >> (7 - (index & 7))) & 1


def keyed(elements, key_len: int | None = None) -> dict[bytes, bytes]:
    """Each element's key mapped to the digest its leaf holds, straight from the rule."""
    out = {}
    for element in elements:
        digest = element_digest(element)
        out[digest if key_len is None else element_digest(element[:key_len])] = digest
    return out


def canonical_digest(keys, held: dict[bytes, bytes] | None = None) -> bytes:
    """Root digest of the compressed trie over ``keys``, straight from its
    definition; the leaf at a key holds ``held[key]``, or the key itself
    (whole-element keys) without ``held``."""
    keys = sorted(keys)
    if not keys:
        return EMPTY_DIGEST
    if len(keys) == 1:
        return leaf_hash(keys[0], keys[0] if held is None else held[keys[0]])
    split = first_diff_bit(keys[0], keys[-1])
    zeros = [key for key in keys if not bit_at(key, split)]
    ones = [key for key in keys if bit_at(key, split)]
    return branch_hash(split, canonical_digest(zeros, held), canonical_digest(ones, held))


_PLAIN = (element_digest, leaf_hash, branch_hash)


def metered(hashed):
    """``element_digest``, ``leaf_hash`` and ``branch_hash`` that first call
    ``hashed`` with the length of the SHA-256 input they are about to hash."""

    def digest(element: bytes) -> bytes:
        hashed(len(element))
        return element_digest(element)

    def leaf(key: bytes, held: bytes) -> bytes:
        hashed(len(TAG_LEAF) + len(key) + len(held))
        return leaf_hash(key, held)

    def branch(bit: int, left: bytes, right: bytes) -> bytes:
        hashed(len(BIT_PREFIX[bit]) + len(left) + len(right))
        return branch_hash(bit, left, right)

    return digest, leaf, branch


def _as_witness(w) -> Witness:
    # the verifiers take witness bytes only; anything else is malformed
    if w.__class__ is not bytes:
        raise TypeError(f"witness must be bytes, not {type(w).__name__}")
    return decode_witness(w)


def _well_formed(w: Witness) -> bool:
    if len(w.element_key) != 32:
        return False
    prev = -1
    for bit, sibling in w.steps:
        if not 0 <= bit <= 255 or bit <= prev or len(sibling) != 32:
            return False
        prev = bit
    if w.occupant is not None and (len(w.occupant) != 32 or len(w.held) != 32):
        return False
    return True


def _keyed(element: bytes, w: Witness, key_len, digest) -> bool:
    """Whether ``w`` names ``element``'s key: the digest of its lookup prefix."""
    return w.element_key == digest(element if key_len is None else element[:key_len])


def _held(element: bytes, key: bytes, key_len, digest) -> bytes:
    """The digest a leaf at ``key`` holding ``element`` holds: the key itself under whole-element keys."""
    return key if key_len is None else digest(element)


def _fold(node: bytes, steps, path_key: bytes, branch) -> bytes:
    for bit, sibling in reversed(steps):
        if bit_at(path_key, bit) == 0:
            node = branch(bit, node, sibling)
        else:
            node = branch(bit, sibling, node)
    return node


def _on_search_path(leaf_key: bytes, path_key: bytes, steps) -> bool:
    return all(bit_at(leaf_key, bit) == bit_at(path_key, bit) for bit, _ in steps)


def belongs(acc: bytes, element: bytes, w, hashed=None, key_len=None):
    try:
        w = _as_witness(w)
    except (TypeError, ValueError):
        return BOTTOM
    try:
        return _belongs(acc, element, w, key_len, *(_PLAIN if hashed is None else metered(hashed)))
    except Exception:
        return BOTTOM


def _belongs(acc: bytes, element: bytes, w: Witness, key_len, digest, leaf, branch):
    if not _well_formed(w) or not _keyed(element, w, key_len, digest):
        return BOTTOM
    key = w.element_key
    if w.kind == WitnessKind.MEMBERSHIP:
        if w.occupant is not None:
            return BOTTOM
        root = _fold(leaf(key, _held(element, key, key_len, digest)), w.steps, key, branch)
        return 1 if root == acc else BOTTOM
    if w.kind == WitnessKind.NON_MEMBERSHIP:
        if w.occupant is None:
            if w.steps:
                return BOTTOM
            return 0 if acc == EMPTY_DIGEST else BOTTOM
        if w.occupant == key:  # the key holds a leaf: not absent, whatever it holds
            return BOTTOM
        if not _on_search_path(w.occupant, key, w.steps):
            return BOTTOM
        root = _fold(leaf(w.occupant, w.held), w.steps, key, branch)
        return 0 if root == acc else BOTTOM
    return BOTTOM


def check_update(acc_before: bytes, acc_after: bytes, element, w, hashed=None, key_len=None) -> int:
    try:
        w = _as_witness(w)
    except (TypeError, ValueError):
        return 0
    if (w.kind == WitnessKind.UPDATE_REPLACE) != (type(element) is tuple):
        return 0  # a replace claim names a pair, any other claim one element
    try:
        return _check_update(acc_before, acc_after, element, w, key_len, *(_PLAIN if hashed is None else metered(hashed)))
    except Exception:
        return 0


def _check_update(acc_before: bytes, acc_after: bytes, element, w: Witness, key_len, digest, leaf, branch) -> int:
    if w.kind == WitnessKind.UPDATE_REPLACE:
        return _check_replace(acc_before, acc_after, *element, w, key_len, digest, leaf, branch)
    if not _well_formed(w) or not _keyed(element, w, key_len, digest):
        return 0
    key = w.element_key
    if w.kind == WitnessKind.UPDATE_ADD:
        if w.occupant is None:
            if w.steps:
                return 0
            new_leaf = leaf(key, _held(element, key, key_len, digest))
            return 1 if acc_before == EMPTY_DIGEST and acc_after == new_leaf else 0
        if w.occupant == key or not _on_search_path(w.occupant, key, w.steps):
            return 0
        split = first_diff_bit(key, w.occupant)
        if any(bit == split for bit, _ in w.steps):
            return 0
        above = sum(1 for bit, _ in w.steps if bit < split)
        occupant_leaf = leaf(w.occupant, w.held)
        new_leaf = leaf(key, _held(element, key, key_len, digest))
        before = _fold(occupant_leaf, w.steps[above:], key, branch)
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
        before = _fold(leaf(key, _held(element, key, key_len, digest)), w.steps, key, branch)
        if not w.steps:
            after = EMPTY_DIGEST
        else:
            after = _fold(w.steps[-1][1], w.steps[:-1], key, branch)
        return 1 if before == acc_before and after == acc_after else 0
    return 0


def _check_replace(
    acc_before: bytes, acc_after: bytes, old: bytes, new: bytes, w: Witness, key_len, digest, leaf, branch
) -> int:
    # equal lookup prefixes are equal keys, so no hash of the new one is needed
    if type(new) is not bytes or new[:key_len] != old[:key_len]:
        return 0
    if not _well_formed(w) or not _keyed(old, w, key_len, digest):
        return 0
    key = w.element_key
    old_leaf = leaf(key, _held(old, key, key_len, digest))
    new_leaf = leaf(key, _held(new, key, key_len, digest))
    before = _fold(old_leaf, w.steps, key, branch)
    after = _fold(new_leaf, w.steps, key, branch)
    return 1 if before == acc_before and after == acc_after else 0
