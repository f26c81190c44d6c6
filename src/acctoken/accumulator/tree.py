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
bit for bit, to the root of inserting the same keys one at a time.
"""

from bisect import bisect_left

from ..errors import AlreadyPresent, NotPresent
from . import hashing
from .hashing import BIT_MASK, BIT_PREFIX, EMPTY_DIGEST, bit_at, branch_hash, first_diff_bit, leaf_hash

EMPTY = (EMPTY_DIGEST,)

Node = tuple  # EMPTY, a leaf or a branch, as laid out above


def _leaf(key: bytes) -> Node:
    return (key, leaf_hash(key))


def _branch(bit: int, left: Node, right: Node) -> Node:
    return (bit, left, right, branch_hash(bit, left[-1], right[-1]))


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
    if len(terminal) == 1:
        return _leaf(key)
    split = first_diff_bit(key, terminal[0])
    if split is None:
        raise _duplicate(key)
    # The new branch sits above the first node whose discriminator passes the
    # split bit; everything below it is displaced onto the other side.
    cut = 0
    while cut < len(path) and path[cut][0][0] < split:
        cut += 1
    displaced = path[cut][0] if cut < len(path) else terminal
    new_leaf = _leaf(key)
    if bit_at(key, split) == 0:
        node = _branch(split, new_leaf, displaced)
    else:
        node = _branch(split, displaced, new_leaf)
    return _rebuild(path[:cut], node)


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


def _ones_from(keys: list[bytes], lo: int, hi: int, bit: int) -> int:
    """First index in ``keys[lo:hi]`` whose ``bit`` is set; the keys are sorted
    and agree on every bit before ``bit``."""
    first = keys[lo]
    byte = bit >> 3
    boundary = first[:byte] + bytes(((first[byte] & (0xFF00 >> (bit & 7))) | (0x80 >> (bit & 7)),))
    return bisect_left(keys, boundary, lo, hi)


def _build(keys: list[bytes], lo: int, hi: int) -> Node:
    """The trie of ``keys[lo:hi]`` alone."""
    if hi - lo == 1:
        return _leaf(keys[lo])
    split = first_diff_bit(keys[lo], keys[hi - 1])
    if split is None:
        raise _duplicate(keys[lo])
    mid = _ones_from(keys, lo, hi, split)
    return _branch(split, _build(keys, lo, mid), _build(keys, mid, hi))


def _merge(node: Node, keys: list[bytes], lo: int, hi: int, depth: int) -> Node:
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, all of which agree on
    every bit before ``depth``."""
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, keys[lo]) if hi > lo else node
    if len(node) == 1:
        return _build(keys, lo, hi)
    is_branch = len(node) == 4
    if is_branch and node[0] == depth:
        split = depth  # nothing above the branch's own bit to disagree on
    else:
        sample = node
        while len(sample) == 4:
            sample = sample[1]
        sample_key = sample[0]
        # the sorted keys' common prefix with the subtree is shortest at an end
        ends = first_diff_bit(keys[lo], sample_key), first_diff_bit(keys[hi - 1], sample_key)
        if None in ends:
            raise _duplicate(sample_key)
        split = min(ends)
    if is_branch and split >= node[0]:
        bit = node[0]
        mid = _ones_from(keys, lo, hi, bit)
        return _branch(bit, _merge(node[1], keys, lo, mid, bit + 1), _merge(node[2], keys, mid, hi, bit + 1))
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side
    mid = _ones_from(keys, lo, hi, split)
    if bit_at(sample_key, split):
        return _branch(split, _build(keys, lo, mid), _merge(node, keys, mid, hi, split + 1))
    return _branch(split, _merge(node, keys, lo, mid, split + 1), _build(keys, mid, hi))


def insert_many(root: Node, keys: list[bytes]) -> Node:
    """``root`` with the sorted ``keys`` inserted; raises AlreadyPresent on a
    key that is present already or listed twice."""
    return _merge(root, keys, 0, len(keys), 0)


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
