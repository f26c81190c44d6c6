"""Compressed binary Merkle trie over 32-byte element digests.

Nodes are plain tuples whose last item is the node's digest:

- a leaf is ``(key, digest)``;
- a branch is ``(bit, left, right, digest)``, splitting at key bit ``bit``
  (keys with that bit clear go left);
- the empty trie is ``EMPTY = (EMPTY_DIGEST,)``.

The kinds are told apart by length, and ``digest(node)`` is ``node[-1]``.
Tuples, rather than objects, because a trie holds a node per key and per
branch and lives as long as the memory does: a tuple that holds only bytes,
ints and untracked tuples can be dropped from the cyclic garbage collector's
lists, so collections stop rescanning the whole trie, while an instance (a
slotted one too) stays tracked for its whole life. CPython drops such a
tuple only when a collection examines it after its children, so a fresh
trie leaves the collector over a few collections, bottom up.

Nodes are immutable; updates copy the touched nodes and share everything
else, so old roots stay valid for free. The compressed layout
(branches exist only where keys actually diverge) is canonical for a given
key set, which makes the root digest history independent.

``insert_many`` relies on that: it merges a sorted batch of new keys into
the trie in one pass, reusing every subtree no new key falls into and
hashing each new node once, and the canonical layout makes its root equal,
bit for bit, to the root of inserting the same keys one at a time. The merge
reads the batch as big-endian ints once. At a branch it splits the batch's
range with ``bisect`` on the ints at the branch's bit; where a range leaves a
subtree's common prefix, the split bit is the top set bit (``bit_length``)
of the XORs of the range's ends with a key of the subtree. A range that
lands where the trie has no node, or meets a leaf (taking the leaf in), is
built in one stack pass: the trie of sorted keys is the Cartesian tree of the
split bits of adjacent keys. A range of one key takes the path-copying
``insert``.
"""

from bisect import bisect_left

from ..errors import AlreadyPresent, NotPresent
from . import hashing
from .hashing import BIT_MASK, BIT_PREFIX, EMPTY_DIGEST, KEY_BITS, TAG_LEAF, first_diff_bit

EMPTY = (EMPTY_DIGEST,)

Node = tuple  # EMPTY, a leaf or a branch, as laid out above


def digest(node: Node) -> bytes:
    return node[-1]


def leaf_key(node: Node) -> bytes | None:
    """The key of a leaf; None for the empty trie."""
    return node[0] if len(node) == 2 else None


def walk(root: Node, key: bytes):
    """Descend along ``key``; returns ([(branch, direction)...], terminal),
    where the terminal is a leaf or EMPTY."""
    path = []
    node = root
    k = int.from_bytes(key, "big")
    while len(node) == 4:
        direction = 1 if k & BIT_MASK[node[0]] else 0
        path.append((node, direction))
        node = node[1 + direction]
    return path, node


def step_parts(path, bit_bytes) -> list[bytes]:
    """For a walk result, root first: each branch's bit as ``bit_bytes[bit]``,
    then the digest of the sibling the walk did not take."""
    parts = []
    for branch, direction in path:
        parts += (bit_bytes[branch[0]], branch[2 - direction][-1])
    return parts


def _rebuild(path, node: Node) -> Node:
    """Copy the walked ``path``'s branches, bottom up, over a new ``node``."""
    sha256 = hashing.hashlib.sha256
    for (bit, left, right, _digest), direction in reversed(path):
        if direction:
            node = (bit, left, node, sha256(BIT_PREFIX[bit] + left[-1] + node[-1]).digest())
        else:
            node = (bit, node, right, sha256(BIT_PREFIX[bit] + node[-1] + right[-1]).digest())
    return node


def insert_at(path, terminal: Node, key: bytes) -> Node:
    """The root ``insert`` returns, from the result of walking ``key``."""
    sha256 = hashing.hashlib.sha256
    if len(terminal) == 1:
        return (key, sha256(TAG_LEAF + key).digest())
    occupant = terminal[0]
    split = first_diff_bit(key, occupant)
    if split is None:
        raise _duplicate(key)
    # The new branch sits above the first node whose discriminator passes the
    # split bit; everything below it is displaced onto the other side.
    cut = 0
    while cut < len(path) and path[cut][0][0] < split:
        cut += 1
    displaced = path[cut][0] if cut < len(path) else terminal
    leaf = (key, sha256(TAG_LEAF + key).digest())
    # equal-length keys first differ at ``split``, so the smaller has a 0 there
    if key < occupant:
        node = (split, leaf, displaced, sha256(BIT_PREFIX[split] + leaf[1] + displaced[-1]).digest())
    else:
        node = (split, displaced, leaf, sha256(BIT_PREFIX[split] + displaced[-1] + leaf[1]).digest())
    return _rebuild(path[:cut], node) if cut else node


def insert(root: Node, key: bytes) -> Node:
    return insert_at(*walk(root, key), key)


def remove_at(path, terminal: Node, key: bytes) -> Node:
    """The root ``remove`` returns, from the result of walking ``key``."""
    if leaf_key(terminal) != key:
        raise NotPresent(f"element digest {key.hex()} not accumulated")
    if not path:
        return EMPTY
    branch, direction = path[-1]
    return _rebuild(path[:-1], branch[2 - direction])


def remove(root: Node, key: bytes) -> Node:
    return remove_at(*walk(root, key), key)


def _duplicate(key: bytes):
    return AlreadyPresent(f"element digest {key.hex()} already accumulated")


def _run(keys: list[bytes], ints: list[int], kept: Node | None = None) -> Node:
    """The trie of the sorted ``keys`` alone (``ints`` are their values), in
    one stack pass; ``kept``, a leaf already in the trie whose key is among
    ``keys``, is reused rather than hashed again.

    The trie of a sorted run is the Cartesian tree of the split bits of
    adjacent keys, the smallest bit at the root: ``bits`` and ``lefts`` hold
    the right spine's open branches, each a bit and its finished left
    subtree, bits rising towards the top. A key closes every open branch
    whose bit exceeds its split from the key before it.
    """
    sha256 = hashing.hashlib.sha256
    kept_key = kept[0] if kept else None
    pairs = zip(keys, ints)
    key, prev = next(pairs)
    node = kept if key is kept_key else (key, sha256(TAG_LEAF + key).digest())
    bits = [-1]  # below every split bit, so the spine's foot never closes
    lefts: list[Node] = []
    for key, x in pairs:
        diff = prev ^ x
        if not diff:
            raise _duplicate(key)
        split = KEY_BITS - diff.bit_length()
        while bits[-1] > split:
            bit, left = bits.pop(), lefts.pop()
            node = (bit, left, node, sha256(BIT_PREFIX[bit] + left[-1] + node[-1]).digest())
        bits.append(split)
        lefts.append(node)
        node = kept if key is kept_key else (key, sha256(TAG_LEAF + key).digest())
        prev = x
    while lefts:
        bit, left = bits.pop(), lefts.pop()
        node = (bit, left, node, sha256(BIT_PREFIX[bit] + left[-1] + node[-1]).digest())
    return node


def _merge(node: Node, keys: list[bytes], ints: list[int], lo: int, hi: int, depth: int) -> Node:
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, all of which agree on
    every bit before ``depth``."""
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, keys[lo]) if hi > lo else node
    size = len(node)
    if size == 1:
        return _run(keys[lo:hi], ints[lo:hi])
    if size == 2:
        # a leaf: the keys and the leaf's own key form one run
        key = node[0]
        x = int.from_bytes(key, "big")
        at = bisect_left(ints, x, lo, hi) - lo
        run, run_ints = keys[lo:hi], ints[lo:hi]
        run.insert(at, key)
        run_ints.insert(at, x)
        return _run(run, run_ints, node)
    bit = node[0]
    if bit == depth:
        split = bit  # nothing above the branch's own bit to disagree on
    else:
        sample = node[1]
        while len(sample) == 4:
            sample = sample[1]
        x = int.from_bytes(sample[0], "big")
        # the sorted keys' common prefix with the subtree is shortest at an end
        split = KEY_BITS - ((ints[lo] ^ x) | (ints[hi - 1] ^ x)).bit_length()
    sha256 = hashing.hashlib.sha256
    if split >= bit:
        shift = KEY_BITS - 1 - bit
        mid = bisect_left(ints, (ints[lo] >> shift | 1) << shift, lo, hi)
        left = _merge(node[1], keys, ints, lo, mid, bit + 1) if mid > lo else node[1]
        right = _merge(node[2], keys, ints, mid, hi, bit + 1) if hi > mid else node[2]
        return (bit, left, right, sha256(BIT_PREFIX[bit] + left[-1] + right[-1]).digest())
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side and a run of new keys
    # alone on the other
    shift = KEY_BITS - 1 - split
    mid = bisect_left(ints, (ints[lo] >> shift | 1) << shift, lo, hi)
    if x >> shift & 1:
        left = _run(keys[lo:mid], ints[lo:mid])
        right = _merge(node, keys, ints, mid, hi, split + 1)
    else:
        left = _merge(node, keys, ints, lo, mid, split + 1)
        right = _run(keys[mid:hi], ints[mid:hi])
    return (split, left, right, sha256(BIT_PREFIX[split] + left[-1] + right[-1]).digest())


def insert_many(root: Node, keys: list[bytes]) -> Node:
    """``root`` with the sorted ``keys`` inserted; raises AlreadyPresent on a
    key that is present already or listed twice.

    One pass down the trie with the keys read as ints once (see the module
    docstring): each branch some key falls into is rebuilt over its merged
    children, every subtree no key falls into is kept as it is, and each
    range that meets a leaf or empty space is built in one stack pass.
    """
    return _merge(root, keys, [int.from_bytes(key, "big") for key in keys], 0, len(keys), 0)


class Memory:
    """Public accumulator memory m = (T, X) plus an update counter.

    ``root`` is the trie T, made of the tuple nodes laid out in the module
    docstring, and ``elements`` is X, mapping each trie key to its element.
    Both hold only tuples, bytes and ints, so once the collector has seen a
    settled trie it stops scanning it: a full collection then costs what the
    rest of the heap costs, not what the accumulator's size does.

    Single writer: updates must be externally serialized. Concurrent
    read-only witness extraction against a quiescent memory is safe, and old
    roots remain valid because nodes are never mutated.
    """

    __slots__ = ("root", "elements", "epoch")

    def __init__(self, root: Node | None = None, elements: dict | None = None, epoch: int = 0):
        self.root = root if root is not None else EMPTY
        self.elements = elements if elements is not None else {}
        self.epoch = epoch

    @property
    def value(self) -> bytes:
        """Current accumulator value: the root node's digest."""
        return self.root[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.elements
