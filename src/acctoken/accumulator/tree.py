"""Compressed binary Merkle trie over 32-byte element digests.

A node's digest is held by its parent, and the root's by whoever holds the
root (``Memory.value``, a storage chain tip):

- a leaf is its key, the 32-byte ``bytes`` object itself: the one
  ``Memory.elements`` keys the element by;
- a branch is ``(left, right, body)``, splitting at key bit ``bit`` (keys
  with that bit clear go left), where ``body`` is the branch's hash preimage
  ``TAG_INTERNAL || bit || left_digest || right_digest`` (66 bytes);
- the empty trie is ``EMPTY = ()``.

The kinds are told apart by length (0, 32 and 3). A leaf's digest is
``sha256(TAG_LEAF + key)`` and a branch's is ``sha256(body)``; a builder
returns each node it makes with its digest, so no digest is hashed twice or
stored in the node it belongs to. ``digest`` recomputes one from the node,
for checks.

The body is the preimage rather than a bit and two digest objects because a
trie holds a branch per key, and one 66-byte ``bytes`` costs less than two
32-byte ones and the two slots that hold them (176 bytes a branch with its
3-tuple, against 240 with a 5-tuple). It also holds every witness step
whole: the step past a branch taken to the right is ``body[1:34]``, its bit
and left digest; to the left it is the bit byte and ``body[34:]``.

Tuples and shared keys, rather than objects, because a trie holds a node per
key and per branch and lives as long as the memory does: bytes are never
tracked by the cyclic garbage collector, and a tuple that holds only bytes,
ints and untracked tuples can be dropped from its lists, so collections stop
rescanning the whole trie, while an instance (a slotted one too) stays
tracked for its whole life. CPython drops such a tuple only when a
collection examines it after its children, so a fresh trie leaves the
collector over a few collections, bottom up.

Nodes are immutable; updates copy the touched nodes and share everything
else, so old roots stay valid for free. The compressed layout
(branches exist only where keys actually diverge) is canonical for a given
key set, which makes the root digest history independent.

``insert_many`` relies on that: it merges a sorted batch of new keys into
the trie in one pass, reusing every subtree no new key falls into and
hashing each new node once, and the canonical layout makes its root equal,
bit for bit, to the root of inserting the same keys one at a time. The merge
reads the batch as the sorted bytes it is: equal-length keys sort as their
big-endian ints do, so at a branch it splits the batch's range with
``bisect`` on the keys themselves, against the smallest key with the
branch's bit set. It makes ints only for the XORs: where a range leaves a
subtree's common prefix, the split bit is the top set bit (``bit_length``)
of the XORs of the range's ends with a key of the subtree. A range that
lands where the trie has no node, or meets a leaf (taking the leaf in), is
built in one stack pass, which reads each key as an int once: the trie of
sorted keys is the Cartesian tree of the split bits of adjacent keys. A range
of one key takes the path-copying ``insert``.

The merge frees the nodes it replaces as it goes, when it may: it drops each
old branch as soon as it has unpacked it and hands each child on as the only
reference it holds. Given the only reference to the old root, the merge
therefore holds at any moment only the old subtrees it has still to visit
beside the new nodes it has built. A caller that keeps the old root (a
lagging storage node's history, a staging walk that must leave the memory
as it is) keeps every old node alive, as before.
"""

from bisect import bisect_left

from ..errors import AlreadyPresent, NotPresent
from . import hashing
from .hashing import BIT_BYTE, BIT_MASK, BIT_PREFIX, DIGEST_BYTES, EMPTY_DIGEST, KEY_BITS, TAG_LEAF, first_diff_bit

EMPTY = ()

Node = bytes | tuple  # EMPTY, a leaf or a branch, as laid out above

# offsets in a branch's body: its bit, then its left and its right child's digest
_BIT_AT = len(BIT_PREFIX[0]) - 1
_LEFT_AT = _BIT_AT + 1
_RIGHT_AT = _LEFT_AT + DIGEST_BYTES


def digest(node: Node) -> bytes:
    """The digest ``node``'s parent holds for it, recomputed from the node (one hash at most)."""
    if node.__class__ is bytes:
        return hashing.sha256(TAG_LEAF + node)
    if not node:
        return EMPTY_DIGEST
    return hashing.sha256(node[2])


def child_digest(branch: tuple, direction: int) -> bytes:
    """The digest ``branch``'s body holds for its left (0) or right (1) child."""
    at = _RIGHT_AT if direction else _LEFT_AT
    return branch[2][at : at + DIGEST_BYTES]


def leaf_key(node: Node) -> bytes | None:
    """The key of a leaf (the leaf itself); None for the empty trie or a branch."""
    return node if node.__class__ is bytes else None


def descend(root: Node, key: bytes, path: list | None = None):
    """Walk along ``key`` once; returns (steps, terminal).

    ``steps`` holds, root first, each branch's step as one ``bytes``, as a
    witness carries it: the branch's bit byte, then the digest of the
    sibling the walk did not take. The terminal is a leaf or EMPTY. Given a
    ``path`` list, the walk also appends each (branch, direction) to it, for
    ``insert_at`` and ``remove_at``; ``insert`` and ``remove`` walk this way
    too, and drop the steps.
    """
    steps = []
    node = root
    k = int.from_bytes(key, "big")
    while len(node) == 3:
        body = node[2]
        bit = body[_BIT_AT]
        if k & BIT_MASK[bit]:
            steps.append(body[_BIT_AT:_RIGHT_AT])
            if path is not None:
                path.append((node, 1))
            node = node[1]
        else:
            steps.append(BIT_BYTE[bit] + body[_RIGHT_AT:])
            if path is not None:
                path.append((node, 0))
            node = node[0]
    return steps, node


def _rebuild(path, node: Node, node_digest: bytes) -> tuple[Node, bytes]:
    """Copy the walked ``path``'s branches, bottom up, over a new ``node``; returns the new root and its digest."""
    sha256 = hashing.hashlib.sha256
    for (left, right, body), direction in reversed(path):
        if direction:
            body = body[:_RIGHT_AT] + node_digest
            node = (left, node, body)
        else:
            body = BIT_PREFIX[body[_BIT_AT]] + node_digest + body[_RIGHT_AT:]
            node = (node, right, body)
        node_digest = sha256(body).digest()
    return node, node_digest


def insert_at(path, terminal: Node, key: bytes, root_digest: bytes) -> tuple[Node, bytes]:
    """The root and digest ``insert`` returns, from the result of walking
    ``key`` from a root whose digest is ``root_digest``."""
    sha256 = hashing.hashlib.sha256
    if not terminal:
        return key, sha256(TAG_LEAF + key).digest()
    split = first_diff_bit(key, terminal)
    if split is None:
        raise _duplicate(key)
    # The new branch sits above the first node whose discriminator passes the
    # split bit; everything below it is displaced onto the other side.
    cut = 0
    while cut < len(path) and path[cut][0][2][_BIT_AT] < split:
        cut += 1
    displaced = path[cut][0] if cut < len(path) else terminal
    displaced_digest = child_digest(*path[cut - 1]) if cut else root_digest
    leaf_digest = sha256(TAG_LEAF + key).digest()
    # equal-length keys first differ at ``split``, so the smaller has a 0 there
    if key < terminal:
        body = BIT_PREFIX[split] + leaf_digest + displaced_digest
        node = (key, displaced, body)
    else:
        body = BIT_PREFIX[split] + displaced_digest + leaf_digest
        node = (displaced, key, body)
    node_digest = sha256(body).digest()
    return _rebuild(path[:cut], node, node_digest) if cut else (node, node_digest)


def insert(root: Node, root_digest: bytes, key: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    return insert_at(path, terminal, key, root_digest)


def remove_at(path, terminal: Node, key: bytes) -> tuple[Node, bytes]:
    """The root and digest ``remove`` returns, from the result of walking ``key``."""
    if terminal != key:
        raise NotPresent(f"element digest {key.hex()} not accumulated")
    if not path:
        return EMPTY, EMPTY_DIGEST
    branch, direction = path[-1]
    return _rebuild(path[:-1], branch[1 - direction], child_digest(branch, 1 - direction))


def remove(root: Node, key: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    return remove_at(path, terminal, key)


def _duplicate(key: bytes):
    return AlreadyPresent(f"element digest {key.hex()} already accumulated")


def _run(keys: list[bytes], kept: bytes | None = None, kept_digest: bytes | None = None):
    """The trie of the sorted ``keys`` alone, and its digest, in one stack
    pass; ``kept``, a leaf already in the trie that is among ``keys``, keeps
    its ``kept_digest`` rather than being hashed again.

    The trie of a sorted run is the Cartesian tree of the split bits of
    adjacent keys, the smallest bit at the root: ``bits``, ``lefts`` and
    ``digests`` hold the right spine's open branches, each a bit and its
    finished left subtree with that subtree's digest, bits rising towards the
    top. A key closes every open branch whose bit exceeds its split from the
    key before it.
    """
    sha256 = hashing.hashlib.sha256
    keys = iter(keys)
    node = next(keys)
    node_digest = kept_digest if node is kept else sha256(TAG_LEAF + node).digest()
    prev = int.from_bytes(node, "big")
    bits = [-1]  # below every split bit, so the spine's foot never closes
    lefts: list[Node] = []
    digests: list[bytes] = []
    for key in keys:
        x = int.from_bytes(key, "big")
        diff = prev ^ x
        if not diff:
            raise _duplicate(key)
        split = KEY_BITS - diff.bit_length()
        while bits[-1] > split:
            body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
            node, node_digest = (lefts.pop(), node, body), sha256(body).digest()
        bits.append(split)
        lefts.append(node)
        digests.append(node_digest)
        node = key
        node_digest = kept_digest if key is kept else sha256(TAG_LEAF + key).digest()
        prev = x
    while lefts:
        body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
        node, node_digest = (lefts.pop(), node, body), sha256(body).digest()
    return node, node_digest


def _first_set(x: int, bit: int) -> bytes:
    """The smallest key that agrees with the key ``x`` before ``bit`` and has ``bit`` set."""
    shift = KEY_BITS - 1 - bit
    return ((x >> shift | 1) << shift).to_bytes(DIGEST_BYTES, "big")


def _merge(node: Node, node_digest: bytes, keys: list[bytes], lo: int, hi: int, depth: int):
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, all of which agree on
    every bit before ``depth``, and its digest; ``node_digest`` is ``node``'s.

    Every reference this frame takes to an old branch goes as soon as the
    branch is unpacked, and each child is handed on as a temporary, which
    the callee's frame takes over: so when the caller gave up ``node``, each
    branch the merge replaces is freed as soon as the merge has unpacked it.
    """
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, node_digest, keys[lo]) if hi > lo else (node, node_digest)
    if not node:
        return _run(keys[lo:hi])
    if node.__class__ is bytes:
        # a leaf: the keys and the leaf's own key form one run
        run = keys[lo:hi]
        run.insert(bisect_left(run, node), node)
        return _run(run, node, node_digest)
    body = node[2]
    bit = body[_BIT_AT]
    first = int.from_bytes(keys[lo], "big")
    if bit == depth:
        split = bit  # nothing above the branch's own bit to disagree on
    else:
        sample = node[0]
        while len(sample) == 3:
            sample = sample[0]
        x = int.from_bytes(sample, "big")
        # the sorted keys' common prefix with the subtree is shortest at an end
        split = KEY_BITS - ((first ^ x) | (int.from_bytes(keys[hi - 1], "big") ^ x)).bit_length()
    sha256 = hashing.hashlib.sha256
    if split >= bit:
        mid = bisect_left(keys, _first_set(first, bit), lo, hi)
        kids = [node[0], node[1]]
        del node
        left, left_digest = _merge(kids.pop(0), body[_LEFT_AT:_RIGHT_AT], keys, lo, mid, bit + 1)
        right, right_digest = _merge(kids.pop(), body[_RIGHT_AT:], keys, mid, hi, bit + 1)
        body = BIT_PREFIX[bit] + left_digest + right_digest
        return (left, right, body), sha256(body).digest()
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side and a run of new keys
    # alone on the other
    mid = bisect_left(keys, _first_set(first, split), lo, hi)
    kids = [node]
    del node
    if x & BIT_MASK[split]:
        left, left_digest = _run(keys[lo:mid])
        right, right_digest = _merge(kids.pop(), node_digest, keys, mid, hi, split + 1)
    else:
        left, left_digest = _merge(kids.pop(), node_digest, keys, lo, mid, split + 1)
        right, right_digest = _run(keys[mid:hi])
    body = BIT_PREFIX[split] + left_digest + right_digest
    return (left, right, body), sha256(body).digest()


def insert_many(root: Node, root_digest: bytes, keys: list[bytes]) -> tuple[Node, bytes]:
    """``root`` (whose digest is ``root_digest``) with the sorted ``keys``
    inserted, and its digest; raises AlreadyPresent on a key that is present
    already or listed twice.

    One pass down the trie, reading the keys as bytes (see the module
    docstring): each branch some key falls into is rebuilt over its merged
    children, every subtree no key falls into is kept as it is, and each
    range that meets a leaf or empty space is built in one stack pass. The
    merge keeps no reference to a branch it has unpacked, and neither does
    this frame to ``root``: called with the only reference to ``root`` (an
    argument nothing else holds), it frees each branch it replaces as it goes.
    """
    held = [root]
    del root
    return _merge(held.pop(), root_digest, keys, 0, len(keys), 0)


class Memory:
    """Public accumulator memory m = (T, X) plus an update counter.

    ``root`` is the trie T, made of the nodes laid out in the module
    docstring, and ``value`` is its digest, the accumulator value: the one
    digest no parent holds. ``elements`` is X, mapping each trie key to its
    element; each key object is also the trie's leaf for it. Per element
    beyond the first, then, the trie keeps one branch: a 3-tuple and its
    66-byte body, which is every digest the branch's own hash needs and
    every witness step past it, so nothing else is kept per node. The trie
    and the map hold only tuples and bytes, so once the collector has seen
    a settled trie it stops scanning it: a full collection then costs what
    the rest of the heap costs, not what the accumulator's size does.

    Single writer: updates must be externally serialized. Concurrent
    read-only witness extraction against a quiescent memory is safe, and old
    roots remain valid because nodes are never mutated.
    """

    __slots__ = ("root", "value", "elements", "epoch")

    def __init__(self):
        self.root: Node = EMPTY
        self.value = EMPTY_DIGEST
        self.elements: dict[bytes, bytes] = {}
        self.epoch = 0

    def __len__(self) -> int:
        return len(self.elements)
