"""How the tests read a trie's layout (``acctoken.accumulator.tree``), in one place.

A node is a leaf (its 32-byte key followed by the element it holds, or the
bare key under whole-element keys), EMPTY, a tuple branch ``(left, right,
body)``, or a handle ``(region, row)`` naming a row of a region ``(kids,
bodies, data, ends)``: ``bodies`` holds the rows' 66-byte bodies end to
end, ``kids`` each row's two child ids as native 32-bit ints, a row or
``~i`` for the region's ``i``-th leaf, ``data`` the region's leaves end to
end and ``ends`` each leaf's end offset in ``data`` as a native 32-bit int.

A leaf a region holds is no object of its own, so this reader names it as
its parent row's ids do, by a handle ``(region, ~i)``, a packed leaf, and
reads its bytes out of ``data`` (``leaf_of``); a leaf a tuple branch holds
is its own ``bytes``. The reader gives a leaf's key and element
(``leaf_parts``, the one place a test reads a leaf), a node's children (a
row's as handles it makes), its body, its digest and the bytes it holds,
walks a trie's distinct nodes, tells whether a trie reaches a region
(``has_regions``), and reads a trie's leaves as the ledger they are
(``elements_of``).
"""

import sys

from acctoken.accumulator import hashing
from acctoken.accumulator.hashing import EMPTY_DIGEST, TAG_LEAF


def leaf_parts(leaf: bytes) -> tuple[bytes, bytes | None]:
    """A leaf's key, its first 32 bytes, and the element it holds after
    them; None for a bare key, a whole-element key's leaf. (A leaf that held
    an empty element under a prefix key would read as a bare key; no test's
    trie holds one where a digest is read from it.)"""
    return leaf[:32], leaf[32:] or None


def is_row(node) -> bool:
    """Whether ``node`` is a handle to a region's row."""
    return node.__class__ is tuple and len(node) == 2 and node[1] >= 0


def is_branch(node) -> bool:
    return node.__class__ is tuple and len(node) == 3 or is_row(node)


def is_leaf(node) -> bool:
    """Whether ``node`` is a leaf: its own ``bytes``, or a packed leaf ``(region, ~i)``."""
    return node.__class__ is bytes or node.__class__ is tuple and len(node) == 2 and node[1] < 0


def leaf_of(node) -> bytes:
    """A leaf's bytes: the leaf itself, or a packed leaf's slice of its region's data."""
    if node.__class__ is bytes:
        return node
    (_kids, _bodies, data, ends), ref = node
    offsets = memoryview(ends).cast("I")
    return data[offsets[~ref - 1] if ~ref else 0 : offsets[~ref]]


def children(node) -> tuple:
    """A branch's left and right child, a row's as handles, its leaves
    packed; () for a leaf or EMPTY."""
    if not is_branch(node):
        return ()
    if len(node) == 3:
        return node[0], node[1]
    region, row = node
    return tuple((region, kid) for kid in memoryview(region[0]).cast("i")[2 * row : 2 * row + 2])


def body(node) -> bytes:
    """A branch's 66-byte body, the preimage of its digest."""
    if len(node) == 3:
        return node[2]
    (_kids, bodies, _data, _ends), row = node
    return bodies[66 * row : 66 * row + 66]


# The hashes go through ``hashing.hashlib`` looked up at call time, as the
# program's own hashes do, so the tests' recording stand-in counts a leaf
# digest ``whole_leaf`` makes for a merge as one of the merge's hashes.
def whole_leaf(key: bytes) -> bytes:
    """The digest of a leaf under whole-element keys, where the key is the
    element's digest: ``tree``'s ``leaf`` for tries of such keys alone."""
    return hashing.hashlib.sha256(TAG_LEAF + key + key).digest()


def node_digest(node) -> bytes:
    """The digest a node's parent holds for it, recomputed from the node; a
    leaf commits to its key and its element's digest, or a bare key to
    itself twice."""
    if is_leaf(node):
        key, element = leaf_parts(leaf_of(node))
        held = key if element is None else hashing.hashlib.sha256(element).digest()
        return hashing.hashlib.sha256(TAG_LEAF + key + held).digest()
    return hashing.hashlib.sha256(body(node)).digest() if node else EMPTY_DIGEST


def identity(node):
    """What tells nodes apart: the object for a tuple branch, a leaf of its
    own or EMPTY; for a row, the region object and the row, and for a
    packed leaf, the region object and ``~i``, its index as its row names it."""
    return (id(node[0]), node[1]) if node.__class__ is tuple and len(node) == 2 else id(node)


def nodes(*roots) -> list:
    """Every distinct node reachable from ``roots``: branches (tuples and rows), leaves (own and packed) and EMPTY."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if identity(node) not in seen:
            seen[identity(node)] = node
            stack += children(node)
    return list(seen.values())


def leaves(root) -> list[bytes]:
    """The bytes of every leaf under ``root``."""
    return [leaf_of(node) for node in nodes(root) if is_leaf(node)]


def has_regions(root) -> bool:
    """Whether the trie under ``root`` reaches a region of rows, what a batch merge writes."""
    return any(map(is_row, nodes(root)))


def elements_of(root) -> dict:
    """What the trie under ``root`` holds: each leaf's key mapped to its
    element, or to the key itself for a bare key (whole-element keys)."""
    return {key: key if element is None else element for key, element in map(leaf_parts, leaves(root))}


def leftmost(node) -> bytes:
    """One key under ``node``: its leftmost leaf's."""
    while not is_leaf(node):
        node = children(node)[0]
    return leaf_parts(leaf_of(node))[0]


def read_out(node):
    """The trie under ``node`` as plain values: a branch as ``(left, right,
    body)`` read out in turn, a leaf as its bytes, EMPTY as (); two tries
    read out equal when they hold the same layout, however each stores it."""
    if is_leaf(node):
        return leaf_of(node)
    if not node:
        return node
    left, right = children(node)
    return read_out(left), read_out(right), body(node)


def _held(*roots) -> dict:
    """Every object the tries under ``roots`` hold, each once, by its id, as
    (object, whether it holds leaves): tuple branches and their bodies, the
    leaves of their own they hold, the handles a tuple branch or a root
    holds, and each region with its parts, its leaves' data and ends among
    them."""
    found, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) in found or not node:
            continue
        found[id(node)] = node, node.__class__ is bytes
        if node.__class__ is bytes:
            continue
        if len(node) == 3:
            found[id(node[2])] = node[2], False
            stack += node[:2]
        else:
            region = node[0]
            found[id(region)] = region, False
            for at, part in enumerate(region):
                found[id(part)] = part, at >= 2
    return found


def held(*roots) -> list:
    """Every object the tries under ``roots`` hold, each once (``_held``)."""
    return [part for part, _leaves in _held(*roots).values()]


def trie_bytes(*roots) -> int:
    """What the tries under ``roots`` take, their leaves included."""
    return sum(map(sys.getsizeof, held(*roots)))


def leaf_bytes(*roots) -> int:
    """What the leaves of the tries under ``roots`` take: each region's
    ``data`` and ``ends``, and each leaf of its own a tuple branch or a root
    holds."""
    return sum(sys.getsizeof(part) for part, leaves in _held(*roots).values() if leaves)
