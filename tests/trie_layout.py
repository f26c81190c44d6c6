"""How the tests read a trie's layout (``acctoken.accumulator.tree``), in one place.

A node is a leaf (its 32-byte key), EMPTY, a tuple branch ``(left, right,
body)``, or a handle ``(region, row)`` naming a row of a region ``(kids,
bodies, leaves)``: ``bodies`` holds the rows' 66-byte bodies end to end,
``kids`` each row's two child ids as native 32-bit ints, a row or ``~i`` for
the ``i``-th key of ``leaves``. The reader gives a node's children (a row's
as handles it makes, or keys), its body, its digest and the bytes it holds,
and walks a trie's distinct nodes.
"""

import sys

from acctoken.accumulator import hashing
from acctoken.accumulator.hashing import EMPTY_DIGEST, TAG_LEAF


def is_branch(node) -> bool:
    return node.__class__ is tuple and len(node) in (2, 3)


def children(node) -> tuple:
    """A branch's left and right child; () for a leaf or EMPTY."""
    if node.__class__ is bytes or not node:
        return ()
    if len(node) == 3:
        return node[0], node[1]
    (kids, _bodies, leaves), row = node
    ids = memoryview(kids).cast("i")[2 * row : 2 * row + 2]
    return tuple((node[0], kid) if kid >= 0 else leaves[~kid] for kid in ids)


def body(node) -> bytes:
    """A branch's 66-byte body, the preimage of its digest."""
    if len(node) == 3:
        return node[2]
    (_kids, bodies, _leaves), row = node
    return bodies[66 * row : 66 * row + 66]


# The hashes go through ``hashing.hashlib`` looked up at call time, as the
# program's own hashes do, so the tests' recording stand-in counts a leaf
# digest ``whole_leaf`` makes for a merge as one of the merge's hashes.
def whole_leaf(key: bytes) -> bytes:
    """The digest of a leaf under whole-element keys, where the key is the
    element's digest: ``tree``'s ``leaf`` for tries of such keys alone."""
    return hashing.hashlib.sha256(TAG_LEAF + key + key).digest()


def node_digest(node, held: dict | None = None) -> bytes:
    """The digest a node's parent holds for it, recomputed from the node; a
    leaf holds ``held[key]``, the digest of its element, or its key itself
    (whole-element keys) without ``held``."""
    if node.__class__ is bytes:
        return hashing.hashlib.sha256(TAG_LEAF + node + (node if held is None else held[node])).digest()
    return hashing.hashlib.sha256(body(node)).digest() if node else EMPTY_DIGEST


def identity(node):
    """What tells nodes apart: the object for a tuple branch, a leaf or EMPTY; the region object and the row for a row."""
    return (id(node[0]), node[1]) if node.__class__ is tuple and len(node) == 2 else id(node)


def nodes(*roots) -> list:
    """Every distinct node reachable from ``roots``: branches (tuples and rows), leaves and EMPTY."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if identity(node) not in seen:
            seen[identity(node)] = node
            stack += children(node)
    return list(seen.values())


def leaves(root) -> list:
    return [node for node in nodes(root) if node.__class__ is bytes]


def leftmost(node) -> bytes:
    """One key under ``node``: its leftmost."""
    while node.__class__ is not bytes:
        node = children(node)[0]
    return node


def read_out(node):
    """The trie under ``node`` as plain values: a branch as ``(left, right,
    body)`` read out in turn, a leaf as its key, EMPTY as (); two tries read
    out equal when they hold the same layout, however each stores it."""
    if not is_branch(node):
        return node
    left, right = children(node)
    return read_out(left), read_out(right), body(node)


def held(*roots) -> list:
    """Every object the branches of the tries under ``roots`` hold, each
    once: tuple branches and their bodies, the handles a tuple branch or a
    root holds, and each region with its parts (the keys are the elements'
    keys, which the memory holds anyway)."""
    found, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) in found or node.__class__ is bytes or not node:
            continue
        found[id(node)] = node
        if len(node) == 3:
            found[id(node[2])] = node[2]
            stack += node[:2]
        else:
            for part in (node[0], *node[0]):
                found[id(part)] = part
    return list(found.values())


def trie_bytes(*roots) -> int:
    """What the branches of the tries under ``roots`` take."""
    return sum(map(sys.getsizeof, held(*roots)))
