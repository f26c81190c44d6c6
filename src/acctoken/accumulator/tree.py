"""Compressed binary Merkle trie over 32-byte element digests.

Nodes are immutable; updates copy the touched nodes and share everything
else, so old roots stay valid snapshots for free. The compressed layout
(branches exist only where keys actually diverge) is canonical for a given
key set, which makes the root digest history independent.

``insert_many`` relies on that: it merges a sorted batch of new keys into
the trie in one pass, reusing every subtree no new key falls into and
hashing each new node once, and the canonical layout makes its root equal,
bit for bit, to the root of inserting the same keys one at a time.
"""

from bisect import bisect_left

from ..errors import AlreadyPresent, NotPresent
from .hashing import EMPTY_DIGEST, bit_at, branch_hash, first_diff_bit, leaf_hash


class Leaf:
    __slots__ = ("key", "digest")

    def __init__(self, key: bytes):
        self.key = key
        self.digest = leaf_hash(key)


class Branch:
    __slots__ = ("bit", "left", "right", "digest")

    def __init__(self, bit: int, left, right):
        self.bit = bit
        self.left = left
        self.right = right
        self.digest = branch_hash(bit, left.digest, right.digest)


class _Empty:
    __slots__ = ()
    digest = EMPTY_DIGEST


EMPTY = _Empty()

Node = Leaf | Branch | _Empty


def walk(root: Node, key: bytes):
    """Descend along ``key``; returns ([(branch, direction)...], terminal)."""
    path = []
    node = root
    while isinstance(node, Branch):
        direction = bit_at(key, node.bit)
        path.append((node, direction))
        node = node.right if direction else node.left
    return path, node


def path_steps(path) -> tuple[tuple[int, bytes], ...]:
    """Witness steps for a walk result: (branch bit, sibling digest) per level."""
    return tuple(
        (branch.bit, (branch.left if direction else branch.right).digest)
        for branch, direction in path
    )


def _rebuild(path, node: Node) -> Node:
    for branch, direction in reversed(path):
        if direction:
            node = Branch(branch.bit, branch.left, node)
        else:
            node = Branch(branch.bit, node, branch.right)
    return node


def insert(root: Node, key: bytes) -> Node:
    if isinstance(root, _Empty):
        return Leaf(key)
    path, terminal = walk(root, key)
    split = first_diff_bit(key, terminal.key)
    if split is None:
        raise _duplicate(key)
    # The new branch sits above the first node whose discriminator passes the
    # split bit; everything below it is displaced onto the other side.
    cut = 0
    while cut < len(path) and path[cut][0].bit < split:
        cut += 1
    displaced = path[cut][0] if cut < len(path) else terminal
    new_leaf = Leaf(key)
    if bit_at(key, split) == 0:
        node = Branch(split, new_leaf, displaced)
    else:
        node = Branch(split, displaced, new_leaf)
    return _rebuild(path[:cut], node)


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
        return Leaf(keys[lo])
    split = first_diff_bit(keys[lo], keys[hi - 1])
    if split is None:
        raise _duplicate(keys[lo])
    mid = _ones_from(keys, lo, hi, split)
    return Branch(split, _build(keys, lo, mid), _build(keys, mid, hi))


def _merge(node: Node, keys: list[bytes], lo: int, hi: int, depth: int) -> Node:
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, all of which agree on
    every bit before ``depth``."""
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, keys[lo]) if hi > lo else node
    if isinstance(node, _Empty):
        return _build(keys, lo, hi)
    if isinstance(node, Branch) and node.bit == depth:
        split = depth  # nothing above the branch's own bit to disagree on
    else:
        sample = node
        while isinstance(sample, Branch):
            sample = sample.left
        # the sorted keys' common prefix with the subtree is shortest at an end
        ends = first_diff_bit(keys[lo], sample.key), first_diff_bit(keys[hi - 1], sample.key)
        if None in ends:
            raise _duplicate(sample.key)
        split = min(ends)
    if isinstance(node, Branch) and split >= node.bit:
        bit = node.bit
        mid = _ones_from(keys, lo, hi, bit)
        return Branch(bit, _merge(node.left, keys, lo, mid, bit + 1), _merge(node.right, keys, mid, hi, bit + 1))
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side
    mid = _ones_from(keys, lo, hi, split)
    if bit_at(sample.key, split):
        return Branch(split, _build(keys, lo, mid), _merge(node, keys, mid, hi, split + 1))
    return Branch(split, _merge(node, keys, lo, mid, split + 1), _build(keys, mid, hi))


def insert_many(root: Node, keys: list[bytes]) -> Node:
    """``root`` with the sorted ``keys`` inserted; raises AlreadyPresent on a
    key that is present already or listed twice."""
    return _merge(root, keys, 0, len(keys), 0)


def remove(root: Node, key: bytes) -> Node:
    path, terminal = walk(root, key)
    if isinstance(terminal, _Empty) or terminal.key != key:
        raise NotPresent(f"element digest {key.hex()} not accumulated")
    if not path:
        return EMPTY
    branch, direction = path[-1]
    sibling = branch.left if direction else branch.right
    return _rebuild(path[:-1], sibling)


class Memory:
    """Public accumulator memory m = (T, X) plus an update counter.

    Single writer: updates must be externally serialized. Concurrent
    read-only witness extraction against a quiescent memory is safe, and old
    roots remain valid snapshots because nodes are never mutated.
    """

    __slots__ = ("root", "elements", "epoch")

    def __init__(self, root: Node | None = None, elements: dict | None = None, epoch: int = 0):
        self.root = root if root is not None else EMPTY
        self.elements = elements if elements is not None else {}
        self.epoch = epoch

    @property
    def value(self) -> bytes:
        """Current accumulator value: the root node's digest."""
        return self.root.digest

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, digest: bytes) -> bool:
        return digest in self.elements
