"""Compressed binary Merkle trie over 32-byte element keys.

A node's digest is held by its parent, and the root's by whoever holds the
root (``Memory.value``, a storage chain tip):

- a leaf is its 32-byte key followed by the element the key holds, or
  under whole-element keys, whose element is all its key says of it, the
  bare key: one ``bytes`` object, or where a region holds it, a stretch of
  the region's ``data`` (below), read out as one slice;
- a branch is ``(left, right, body)``, splitting at key bit ``bit`` (keys
  with that bit clear go left), where ``body`` is the branch's hash preimage
  ``TAG_INTERNAL || bit || left_digest || right_digest`` (66 bytes);
- a branch may also be a row of a region, named by a handle ``(region,
  row)`` (below);
- the empty trie is ``EMPTY = ()``.

The kinds are told apart by class and length: a leaf read out is
``bytes`` (32 bytes or more), the rest are tuples of length 0, 2 and 3. A
leaf's digest is ``sha256(TAG_LEAF + key + element digest)`` (see
``hashing``) and a branch's is ``sha256(body)``; a builder returns each
node it makes with its digest, so no digest is hashed twice or stored in
the node it belongs to.
The trie is the whole memory: a builder takes each new leaf's digest from
its caller, by a ``leaf`` function of the leaf, and an old leaf's from its
parent's body, and a reader takes an element from the leaf its walk ends
at (``find``, ``leaves_of``).

Every key comparison and every key integer reads a leaf's first 32 bytes
(``leaf_key``), never the whole leaf, whose int would shift the key's bits
past ``BIT_MASK``. Sorted leaves are sorted keys, though: two leaves differ
within their keys, as keys are unique, so leaves sort as their keys do, and
a bound of 32 bytes or fewer falls between two leaves exactly where it
falls between their keys. That is what lets ``bisect`` split a batch of
leaves at a key bound (``_first_set``, ``_GROUP_END``).

The body is the preimage rather than a bit and two digest objects because
one 66-byte ``bytes`` costs less than two 32-byte ones and the slots that
hold them. It also holds every witness step whole: the step past a branch
taken to the right is ``body[1:34]``, its bit and left digest; to the left
it is the bit byte and ``body[34:]``.

Regions. The batch merge (``insert_many``) writes every branch at bit
``REGION_BIT`` or deeper as a row of a region, ``(kids, bodies, data,
ends)``: ``bodies`` holds the rows' 66-byte bodies end to end, ``kids``
each row's left and right child id as native 32-bit ints (a row index, or
``~i`` for the region's ``i``-th leaf), ``data`` the region's leaves end to
end, and ``ends`` each leaf's end offset in ``data`` as a native 32-bit
unsigned int, so leaf ``i`` is ``data[ends[i - 1]:ends[i]]`` (from 0 for
the first). Every region has this one layout, whatever its keys. A region
holds one maximal subtree whose branches are all at ``REGION_BIT`` or
deeper, that is the keys that share their first byte, and its rows point
only at its own rows and leaves. Rows are written in post-order, so each
subtree's rows are a run of rows ending at its root, and its leaves a run
of the region's, in key order: when the subtree is rebuilt, its leaves are
read out of one stretch of ``data`` and the digests of its nodes in one
scan of its rows, each from its parent's body (the root's from the
region's parent). A tuple branch reaches a region through a handle,
``(region, row)``. A branch thus costs its 66 body bytes and 8 bytes of
child ids, against 163 traced bytes as a 3-tuple and its body, and a leaf
its own bytes and a 4-byte end, against a ``bytes`` object's 33-byte header,
its rounding to pymalloc's 16-byte blocks and an 8-byte slot. Every reader
(``descend``, ``find``, ``_branch``, ``_leftmost``, ``_leaf_runs``,
``_holds_any``, ``_gather``) takes a leaf as one slice of ``data``, made
when it is read, so a leaf read out of a region twice is two equal
objects, never the same one. The per-op path copies (``insert``,
``remove``, ``insert_at``, ``remove_at``) stay tuples: ``descend`` reads a
row it passes as a tuple branch over handles to its children and its
leaves read out, and the copies are built over those.
A replace (``replace``, ``replace_at``) copies the path to a leaf and
rehashes it over the new leaf, which holds another element.

Tuples, bytes and shared keys, rather than objects, because a trie holds a
node per key and per branch and lives as long as the memory does: bytes are
never tracked by the cyclic garbage collector, and a tuple that holds only
bytes, ints and untracked tuples can be dropped from its lists, so
collections stop rescanning the whole trie, while an instance (a slotted one
too) stays tracked for its whole life. That is why a region keeps its child
ids and its leaves' ends as ``bytes`` and reads them through a
``memoryview``: an ``array`` or a ``memoryview`` is tracked. CPython drops
a tuple only when a collection examines it after its children, so a fresh
trie leaves the collector over a few collections, bottom up.

Nodes and rows are immutable; updates copy the touched nodes and share
everything else, so old roots stay valid for free. The compressed layout
(branches exist only where keys actually diverge) is canonical for a given
key set, which makes the root digest history independent.

``insert_many`` relies on that: it merges a sorted batch of new leaves into
the trie in one pass, reusing every subtree no new key falls into and
hashing each new node once, and the canonical layout makes its root equal,
bit for bit, to the root of inserting the same keys one at a time. Above
``REGION_BIT`` it unpacks the tuple branches the keys fall into and builds
new ones; a region no key falls into it keeps whole, by its handle, and a
region that two or more keys fall into it writes again as a new region.

A region is rewritten by a rebuild: the sorted union of its old and new
keys is written in one stack pass (below). Each old leaf takes the digest
its parent's body holds, and a rebuilt row whose body equals an old row's
takes that row's digest from a map gathered in one scan of the old rows,
the root row's (which the region's parent holds) included. A body is its
row's preimage, so it equals an old one exactly when no new key falls
under the row: a rebuild hashes only the rows some new key falls under.
It does read and sort every old key of each region it enters, so its work
grows with the regions' size and not with the batch's. A doubling growth
brings about one new key per old key (a growth from 2^13 to 2^17 accounts
rewrites 3,072 regions, with 0.90, 1.00 and 1.11 at the quartiles). ``bench
run --max-accounts N`` grows by N/8 at each checkpoint, so from its third
checkpoint on each growth brings 1/2, 1/3 and down to 1/7 new keys per old
key: at N = 2^17 its 24 merges take about 4.6 s, the last checkpoint's three
about 0.95 s (2-vCPU x86-64, Python 3.11). A commit whose chain tip was
superseded is merged here too (``core.updated_root``), and two new keys that
share a first byte make it read their whole region: about 0.9 ms at 2^17
keys.

The merge reads the batch as the sorted bytes it is: equal-length keys
sort as their big-endian ints do, and leaves as their keys, so at a branch
it splits the batch's range with ``bisect`` on the leaves themselves,
against the smallest key with the branch's bit set. It makes ints only for
the XORs: where a range leaves a subtree's common prefix, the split bit is
the top set bit (``bit_length``) of the XORs of the range's ends with a key
of the subtree. A range that lands where the trie has no node, or meets a
leaf (taking the leaf in), is built in one stack pass per first byte, which
reads each key as an int once: the trie of sorted keys is the Cartesian
tree of the split bits of adjacent keys. A range of one key that reaches a
tuple branch or a region's handle on its own takes the path-copying
``insert``.

The merge frees the nodes it replaces as it goes, when it may: it drops each
old tuple branch as soon as it has unpacked it and hands each child on as
the only reference it holds, and drops each old region once it has written
its new one, which copies the leaves it keeps. The batch's leaves are
copied into the regions that take them too: handed a list of them nobody
else reads (``spend``), the merge empties each range of it once it has
written the range's region (``_taken``), so it lets go of each region's
new leaves as it goes; otherwise it leaves the list as it is. Given the
only reference to the old root and a spent batch, the merge therefore
holds at any moment only the old subtrees it has still to visit, at most
one of them a region it is rewriting, and the new leaves it has still to
write, beside the new nodes it has built. A caller that keeps the old root
(a lagging storage node's history, a staging walk that must leave the
memory as it is) keeps every old node alive, as before.
"""

from array import array
from bisect import bisect_left
from itertools import accumulate, chain, repeat
from operator import itemgetter

from ..errors import AlreadyPresent, NotPresent
from . import hashing
from .hashing import BIT_BYTE, BIT_MASK, BIT_PREFIX, DIGEST_BYTES, EMPTY_DIGEST, KEY_BITS, first_diff_bit

EMPTY = ()

Node = bytes | tuple  # EMPTY, a leaf, a branch or a handle, as laid out above

# offsets in a branch's body: its bit, then its left and its right child's digest
_BIT_AT = len(BIT_PREFIX[0]) - 1
_LEFT_AT = _BIT_AT + 1
_RIGHT_AT = _LEFT_AT + DIGEST_BYTES
_BODY = _RIGHT_AT + DIGEST_BYTES

# The merge writes branches at this bit or deeper as region rows. At 8 the
# regions are the keys' first bytes: at most 255 tuple branches sit above
# them, however large the trie, and each region holds about 1/256 of the
# keys, so rewriting one costs a merge little and holds little of the old
# trie at a time. A bit nearer the root would leave larger regions to
# rewrite; one further down, more tuple branches at full cost.
REGION_BIT = 8

# the smallest bytes past every key with each first byte but the last: the
# leaves of a region end where the sorted leaves reach the next of these (a
# leaf sorts as its key, so a 1-byte bound falls between leaves as between
# their keys); the leaves with the last first byte run to the batch's end
_GROUP_END = tuple(BIT_BYTE[b + 1] for b in range(255))


def child_digest(branch: tuple, direction: int) -> bytes:
    """The digest ``branch``'s body holds for its left (0) or right (1) child."""
    at = _RIGHT_AT if direction else _LEFT_AT
    return branch[2][at : at + DIGEST_BYTES]


def leaf_key(node: Node) -> bytes | None:
    """The key of a leaf, its first 32 bytes; None for the empty trie or a branch."""
    return node[:DIGEST_BYTES] if node.__class__ is bytes else None


def leaf_element(leaf: bytes) -> bytes:
    """What ``leaf`` holds after its key: its element, or nothing under whole-element keys."""
    return leaf[DIGEST_BYTES:]


# a leaf's key, as ``leaf_key`` reads it, for ``map``
key_of = itemgetter(slice(DIGEST_BYTES))


def _int(leaf: bytes) -> int:
    """``leaf``'s key read as a big-endian int."""
    return int.from_bytes(leaf[:DIGEST_BYTES], "big")


def _leaf_at(region: tuple, i: int) -> bytes:
    """Leaf ``i`` of ``region``, one slice of its ``data``."""
    ends = memoryview(region[3]).cast("I")
    return region[2][ends[i - 1] if i else 0 : ends[i]]


def _bounds(region: tuple, first: int, last: int) -> list[int]:
    """Where leaves ``first`` to ``last`` of ``region`` lie in its ``data``:
    the start of the first, then the end of each."""
    ends = memoryview(region[3]).cast("I")
    return ends[first - 1 : last + 1].tolist() if first else [0, *ends[: last + 1]]


def _slices(region: tuple, first: int, last: int, skip: int = 0) -> list[bytes]:
    """Leaves ``first`` to ``last`` of ``region``, each from its byte ``skip`` on, one slice of its ``data`` each."""
    bounds = _bounds(region, first, last)
    starts = map(skip.__add__, bounds) if skip else bounds
    return list(map(region[2].__getitem__, map(slice, starts, bounds[1:])))


def _branch(region: tuple, kids: memoryview, row: int) -> tuple:
    """Row ``row`` of ``region`` (whose child ids ``kids`` reads) as a tuple
    branch over its children: handles to its child rows, or its leaves."""
    left, right = kids[2 * row], kids[2 * row + 1]
    return (
        (region, left) if left >= 0 else _leaf_at(region, ~left),
        (region, right) if right >= 0 else _leaf_at(region, ~right),
        region[1][row * _BODY : (row + 1) * _BODY],
    )


def descend(root: Node, key: bytes, path: list | None = None):
    """Walk along ``key`` once; returns (steps, terminal).

    ``steps`` holds, root first, each branch's step as one ``bytes``, as a
    witness carries it: the branch's bit byte, then the digest of the
    sibling the walk did not take. The terminal is a leaf or EMPTY. Given a
    ``path`` list, the walk also appends each (branch, direction) to it, for
    ``insert_at``, ``remove_at`` and ``replace_at``, a region's row as the
    tuple branch ``_branch`` reads it; ``insert``, ``remove`` and
    ``replace`` walk this way too, and drop the steps.
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
    if len(node) == 2:
        region, row = node
        kids = memoryview(region[0]).cast("i")
        bodies = region[1]
        while row >= 0:
            at = row * _BODY
            bit = bodies[at + _BIT_AT]
            if k & BIT_MASK[bit]:
                steps.append(bodies[at + _BIT_AT : at + _RIGHT_AT])
                direction = 1
            else:
                steps.append(BIT_BYTE[bit] + bodies[at + _RIGHT_AT : at + _BODY])
                direction = 0
            if path is not None:
                path.append((_branch(region, kids, row), direction))
            row = kids[2 * row + direction]
        node = _leaf_at(region, ~row)
    return steps, node


def find(root: Node, key: bytes) -> bytes | None:
    """The leaf of ``root`` at ``key``, holding the key's element; None if
    the key holds none. The walk ``descend`` makes, with no steps."""
    node = root
    k = int.from_bytes(key, "big")
    while len(node) == 3:
        node = node[1] if k & BIT_MASK[node[2][_BIT_AT]] else node[0]
    if len(node) == 2:
        region, row = node
        kids = memoryview(region[0]).cast("i")
        bodies = region[1]
        while row >= 0:
            row = kids[2 * row + (1 if k & BIT_MASK[bodies[row * _BODY + _BIT_AT]] else 0)]
        node = _leaf_at(region, ~row)
    return node if node[:DIGEST_BYTES] == key else None


def leaves_of(node: Node, skip: int = 0):
    """The leaves under ``node``, in key order, the ledger a trie is, each
    from its byte ``skip`` on: whole, or past ``DIGEST_BYTES`` the elements
    they hold, each read from its region's data as one slice, with no leaf
    made first."""
    return chain.from_iterable(_leaf_runs(node, skip))


def _leaf_runs(node: Node, skip: int = 0):
    """``leaves_of`` as runs in key order: a lone leaf, or the leaves of a
    region's subtree, sliced from its data."""
    stack = [node]
    while stack:
        node = stack.pop()
        if node.__class__ is bytes:
            yield (node[skip:],)
        elif len(node) == 3:
            stack += node[1], node[0]
        elif node:
            region, ref = node
            first, last = _span(memoryview(region[0]).cast("i"), ref)
            yield _slices(region, first, last, skip)


def holds_any(root: Node, leaves: list[bytes]) -> bool:
    """Whether ``root`` holds a leaf at the key of any of ``leaves``, which
    are sorted (bare keys, or leaves, which sort as their keys do).

    One walk for all of them, not one per key: at a tuple branch the leaves
    are split with ``bisect`` at the smallest key of its subtree's prefix
    with its bit set, and each subtree of region rows the walk reaches is
    one run of leaves, whose keys, as a set, are checked against the
    subtree's keys in one go.
    """
    return bool(root) and _holds_any(root, leaves, 0, len(leaves))


def _holds_any(node: Node, leaves: list[bytes], lo: int, hi: int) -> bool:
    if lo == hi or not node:
        return False
    if node.__class__ is bytes:
        key = node[:DIGEST_BYTES]
        at = bisect_left(leaves, key, lo, hi)
        return at < hi and leaves[at].startswith(key)
    if len(node) == 2:
        region, ref = node
        bounds = _bounds(region, *_span(memoryview(region[0]).cast("i"), ref))
        held = set(map(region[2].__getitem__, map(slice, bounds, map(DIGEST_BYTES.__add__, bounds[:-1]))))
        return not held.isdisjoint(map(key_of, leaves[lo:hi]))
    mid = bisect_left(leaves, _first_set(_int(_leftmost(node)), node[2][_BIT_AT]), lo, hi)
    return _holds_any(node[0], leaves, lo, mid) or _holds_any(node[1], leaves, mid, hi)


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


def insert_at(path, terminal: Node, leaf: bytes, leaf_digest: bytes, root: Node, root_digest: bytes) -> tuple[Node, bytes]:
    """The root and digest ``insert`` returns, from the result of walking
    ``leaf``'s key, the new leaf's digest being ``leaf_digest``, from
    ``root``, whose digest is ``root_digest``."""
    sha256 = hashing.hashlib.sha256
    if not terminal:
        return leaf, leaf_digest
    split = first_diff_bit(leaf[:DIGEST_BYTES], terminal[:DIGEST_BYTES])
    if split is None:
        raise _duplicate(leaf)
    # The new branch sits above the first node whose discriminator passes the
    # split bit; everything below it is displaced onto the other side.
    cut = 0
    while cut < len(path) and path[cut][0][2][_BIT_AT] < split:
        cut += 1
    # read from the branch above it, the displaced node is the one the trie
    # holds, a region's row by its handle, not the tuple ``descend`` read it as
    if cut:
        parent, direction = path[cut - 1]
        displaced, displaced_digest = parent[direction], child_digest(parent, direction)
    else:
        displaced, displaced_digest = root, root_digest
    # keys first differ at ``split``, so the smaller has a 0 there, and its leaf sorts first
    if leaf < terminal:
        body = BIT_PREFIX[split] + leaf_digest + displaced_digest
        node = (leaf, displaced, body)
    else:
        body = BIT_PREFIX[split] + displaced_digest + leaf_digest
        node = (displaced, leaf, body)
    node_digest = sha256(body).digest()
    return _rebuild(path[:cut], node, node_digest) if cut else (node, node_digest)


def insert(root: Node, root_digest: bytes, leaf: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, leaf[:DIGEST_BYTES], path)
    return insert_at(path, terminal, leaf, leaf_digest, root, root_digest)


def replace_at(path, leaf: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    """The root and digest after the leaf at ``leaf``'s key, where the
    walked ``path`` ends, is replaced by ``leaf``, whose digest is
    ``leaf_digest``: the path is copied and rehashed over the new leaf, and
    the trie keeps its shape."""
    return _rebuild(path, leaf, leaf_digest)


def replace(root: Node, leaf: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    path = []
    key = leaf[:DIGEST_BYTES]
    _steps, terminal = descend(root, key, path)
    if terminal[:DIGEST_BYTES] != key:
        raise NotPresent(f"key {key.hex()} holds no element")
    return replace_at(path, leaf, leaf_digest)


def remove_at(path, terminal: Node, key: bytes) -> tuple[Node, bytes]:
    """The root and digest ``remove`` returns, from the result of walking ``key``."""
    if terminal[:DIGEST_BYTES] != key:
        raise NotPresent(f"key {key.hex()} holds no element")
    if not path:
        return EMPTY, EMPTY_DIGEST
    branch, direction = path[-1]
    return _rebuild(path[:-1], branch[1 - direction], child_digest(branch, 1 - direction))


def remove(root: Node, key: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    return remove_at(path, terminal, key)


def _duplicate(leaf: bytes):
    return AlreadyPresent(f"key {leaf[:DIGEST_BYTES].hex()} already holds an element")


def _rows(run: list[bytes], lo: int, hi: int, kids: array, bodies: bytearray, leaves: list, leaf, known: dict | None = None):
    """Write the trie of the sorted leaves ``run[lo:hi]``, whose keys share
    their first byte, as rows of the region being built in ``kids``,
    ``bodies`` and ``leaves`` (``_region`` packs them); returns its root's id
    (a row, or ``~i`` for a lone leaf, the ``i``-th of ``leaves``) and
    digest. A leaf's digest is ``leaf(leaf)`` (``_digests`` gives old leaves
    theirs); ``known``, given, maps the bodies of old rows to their digests,
    and a row written again as it was takes its digest from there instead of
    being hashed.

    One stack pass: the trie of a sorted run is the Cartesian tree of the
    split bits of adjacent keys, the smallest bit at the root. ``bits``,
    ``lefts`` and ``digests`` hold the right spine's open branches, each a
    bit and its finished left subtree's id and digest, bits rising towards
    the top. A key closes every open branch whose bit exceeds its split from
    the key before it, and each closed branch is written as the next row.
    """
    sha256 = hashing.hashlib.sha256
    new = run[lo]
    node_digest = leaf(new)
    leaves.append(new)
    if hi - lo == 1:
        return ~(len(leaves) - 1), node_digest
    add_kid, add_leaf = kids.append, leaves.append
    row, at = len(kids) >> 1, len(leaves) - 1
    node = ~at
    prev = int.from_bytes(new[:DIGEST_BYTES], "big")
    bits = [-1]  # below every split bit, so the spine's foot never closes
    lefts: list[int] = []
    digests: list[bytes] = []
    for new in run[lo + 1 : hi]:
        x = int.from_bytes(new[:DIGEST_BYTES], "big")  # the key's, as ``_int`` reads it
        diff = prev ^ x
        if not diff:
            raise _duplicate(new)
        split = KEY_BITS - diff.bit_length()
        while bits[-1] > split:
            body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
            add_kid(lefts.pop())
            add_kid(node)
            bodies += body
            node, node_digest = row, known and known.get(body) or sha256(body).digest()
            row += 1
        bits.append(split)
        lefts.append(node)
        digests.append(node_digest)
        at += 1
        add_leaf(new)
        node = ~at
        node_digest = leaf(new)
        prev = x
    while lefts:
        body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
        add_kid(lefts.pop())
        add_kid(node)
        bodies += body
        node, node_digest = row, known and known.get(body) or sha256(body).digest()
        row += 1
    return node, node_digest


def _digests(old: dict, new: list[bytes], leaf):
    """The leaf digest function of a run of old leaves and the ``new`` ones:
    ``old`` maps each old leaf to the digest its parent's body holds, and it
    is given each new leaf's ``leaf(new)``, made here once."""
    old.update(zip(new, map(leaf, new)))
    return old.__getitem__


def _region(kids: array, bodies: bytearray, leaves: list, root: int) -> tuple:
    """The handle of the finished region built in ``kids``, ``bodies`` and
    ``leaves``, at row ``root``: its leaves are packed into its ``data``,
    their ends into ``ends``."""
    ends = array("I", accumulate(map(len, leaves)))
    return (kids.tobytes(), bytes(bodies), b"".join(leaves), ends.tobytes()), root


def _span(kids: memoryview, ref: int) -> tuple[int, int]:
    """The first and the last leaf under row ``ref`` of a region whose child
    ids ``kids`` reads, by their index in its leaves."""
    first = last = ref
    while first >= 0:
        first = kids[2 * first]
    while last >= 0:
        last = kids[2 * last + 1]
    return ~first, ~last


def _gather(node: Node, node_digest: bytes, run: list[bytes], known: dict):
    """Append the leaves of the old subtree ``node`` (a leaf, a handle, or a
    tuple branch a path copy made over these), whose digest is
    ``node_digest``, to ``run`` in order, and map each of its leaves and
    rows to its digest in ``known``, as ``_known`` does: read off the bodies,
    hashing nothing."""
    if node.__class__ is bytes:
        run.append(node)
        known[node] = node_digest
    elif len(node) == 2:
        region, ref = node
        kids = memoryview(region[0]).cast("i")
        first, last = _span(kids, ref)
        leaves = _slices(region, first, last)
        run += leaves
        _known(region, kids, ref, node_digest, leaves, first, known)
    else:
        left, right, body = node
        known[body] = node_digest
        _gather(left, body[_LEFT_AT:_RIGHT_AT], run, known)
        _gather(right, body[_RIGHT_AT:], run, known)


def _rewrite(node: tuple, node_digest: bytes, run: list[bytes], lo: int, hi: int, leaf, spend: bool):
    """The trie of ``node``'s leaves plus the new ones ``run[lo:hi]``, whose
    keys all share their first byte, as one new region, and its digest;
    ``node`` is a branch at ``REGION_BIT`` or deeper: a handle, or a tuple
    branch a path copy made over handles.

    The old leaves and the new ones are written in one stack pass
    (``_rows``), and each old leaf and each old row written again as it was
    takes the digest ``_gather`` read for it, so only the rows some new key
    falls under are hashed. It reads every old leaf however few the new ones
    are, so its work grows with the region's size, not with the batch
    (module docstring). The new region copies what it keeps of the old one,
    so the old one goes when the caller drops ``node``.
    """
    merged, known = [], {}
    _gather(node, node_digest, merged, known)
    new = _taken(run, lo, hi, spend)
    merged += new
    merged.sort()
    kids, bodies, leaves = array("i"), bytearray(), []
    root, root_digest = _rows(merged, 0, len(merged), kids, bodies, leaves, _digests(known, new, leaf), known)
    return _region(kids, bodies, leaves, root), root_digest


def _known(region: tuple, kids: memoryview, ref: int, ref_digest: bytes, leaves: list[bytes], first: int, known: dict):
    """Map in ``known`` the digest of every node of ``region``'s subtree at
    row ``ref`` (whose child ids ``kids`` reads), whose digest is
    ``ref_digest`` and whose leaves, read out, are ``leaves``, the region's
    from its ``first`` on: each leaf's by the leaf and each row's by its
    body, as its parent's body holds it, and the root row's, ``ref_digest``.
    The subtree's rows, one fewer than its leaves, end at ``ref``."""
    bodies = region[1]
    start = ref + 2 - len(leaves)
    slots = [bodies[at : at + DIGEST_BYTES] for row in range(start * _BODY, (ref + 1) * _BODY, _BODY) for at in (row + _LEFT_AT, row + _RIGHT_AT)]
    nodes = [leaves[~kid - first] if kid < 0 else bodies[kid * _BODY : (kid + 1) * _BODY] for kid in kids[2 * start : 2 * ref + 2]]
    known.update(zip(nodes, slots))
    known[bodies[ref * _BODY : (ref + 1) * _BODY]] = ref_digest


def _taken(run: list, lo: int, hi: int, spend: bool) -> list:
    """``run[lo:hi]``; with ``spend``, its slots in ``run`` are emptied, so
    the part is the one list that holds those leaves, and they go with it."""
    part = run[lo:hi]
    if spend:
        run[lo:hi] = repeat(None, hi - lo)
    return part


def _run(run: list[bytes], leaf):
    """The trie of the sorted leaves ``run`` alone, and its digest; a leaf's
    digest is ``leaf(leaf)``. Each region's slots in ``run`` are emptied
    once it is written, so a list nothing else holds lets go of its leaves
    as they are copied.

    The leaves whose keys share a first byte form a region (``_rows``), or a
    lone leaf; above them, the tuple branches are the Cartesian tree of the
    split bits of adjacent first bytes, built in one stack pass as
    ``_rows`` builds a region's rows.
    """
    sha256 = hashing.hashlib.sha256
    bits = [-1]
    lefts: list[Node] = []
    digests: list[bytes] = []
    lo, end = 0, len(run)
    prev = None
    while lo < end:
        first = run[lo][0]
        hi = bisect_left(run, _GROUP_END[first], lo + 1) if first < 255 else end
        if prev is not None:
            split = REGION_BIT - (prev ^ first).bit_length()
            while bits[-1] > split:
                body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
                node, node_digest = (lefts.pop(), node, body), sha256(body).digest()
            bits.append(split)
            lefts.append(node)
            digests.append(node_digest)
        if hi - lo > 1:
            kids, bodies, leaves = array("i"), bytearray(), []
            root, node_digest = _rows(run, lo, hi, kids, bodies, leaves, leaf)
            node = _region(kids, bodies, leaves, root)
            run[lo:hi] = repeat(None, hi - lo)
        else:
            node = run[lo]
            node_digest = leaf(node)
        prev, lo = first, hi
    while lefts:
        body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
        node, node_digest = (lefts.pop(), node, body), sha256(body).digest()
    return node, node_digest


def _first_set(x: int, bit: int) -> bytes:
    """The smallest key that agrees with the key ``x`` before ``bit`` and has
    ``bit`` set: a leaf sorts below it exactly when the leaf's key does."""
    shift = KEY_BITS - 1 - bit
    return ((x >> shift | 1) << shift).to_bytes(DIGEST_BYTES, "big")


def _leftmost(node: tuple) -> bytes:
    """The leaf with the smallest key under the branch ``node``."""
    while len(node) == 3:
        node = node[0]
    if len(node) == 2:
        region, row = node
        kids = memoryview(region[0]).cast("i")
        while row >= 0:
            row = kids[2 * row]
        return _leaf_at(region, ~row)
    return node


def _merge(node: Node, node_digest: bytes, run: list[bytes], lo: int, hi: int, depth: int, leaf, spend: bool):
    """The trie of ``node``'s leaves plus the new ones ``run[lo:hi]``, whose
    keys all agree on every bit before ``depth``, and its digest;
    ``node_digest`` is ``node``'s.

    Every reference this frame takes to an old branch goes as soon as the
    branch is unpacked, and each child is handed on as a temporary, which
    the callee's frame takes over: so when the caller gave up ``node``, each
    tuple branch the merge replaces is freed as soon as the merge has
    unpacked it, and each region as soon as it is rewritten; and with
    ``spend``, each range of ``run`` a region takes is emptied once the
    region is written.
    """
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, node_digest, run[lo], leaf(run[lo])) if hi > lo else (node, node_digest)
    if not node:
        return _run(_taken(run, lo, hi, spend), leaf)
    if node.__class__ is bytes:
        # a leaf: the new leaves and the old one form one run
        merged = _taken(run, lo, hi, spend)
        digest = _digests({node: node_digest}, merged, leaf)
        merged.insert(bisect_left(merged, node), node)
        return _run(merged, digest)
    if len(node) == 3:
        body = node[2]
        bit = body[_BIT_AT]
    else:
        bit = node[0][1][node[1] * _BODY + _BIT_AT]  # a handle's row
    first = _int(run[lo])
    if bit == depth:
        split = bit  # nothing above the branch's own bit to disagree on
    else:
        x = _int(_leftmost(node))
        # the sorted keys' common prefix with the subtree is shortest at an end
        split = KEY_BITS - ((first ^ x) | (_int(run[hi - 1]) ^ x)).bit_length()
    if split >= REGION_BIT and bit >= REGION_BIT:
        # the subtree and the keys share their first byte: one region holds them
        return _rewrite(node, node_digest, run, lo, hi, leaf, spend)
    sha256 = hashing.hashlib.sha256
    if split >= bit:
        # a tuple branch, as every branch above REGION_BIT is
        mid = bisect_left(run, _first_set(first, bit), lo, hi)
        kids = [node[0], node[1]]
        del node
        left, left_digest = _merge(kids.pop(0), body[_LEFT_AT:_RIGHT_AT], run, lo, mid, bit + 1, leaf, spend)
        right, right_digest = _merge(kids.pop(), body[_RIGHT_AT:], run, mid, hi, bit + 1, leaf, spend)
        body = BIT_PREFIX[bit] + left_digest + right_digest
        return (left, right, body), sha256(body).digest()
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side and a run of new
    # leaves alone on the other
    mid = bisect_left(run, _first_set(first, split), lo, hi)
    kids = [node]
    del node
    if x & BIT_MASK[split]:
        left, left_digest = _run(_taken(run, lo, mid, spend), leaf)
        right, right_digest = _merge(kids.pop(), node_digest, run, mid, hi, split + 1, leaf, spend)
    else:
        left, left_digest = _merge(kids.pop(), node_digest, run, lo, mid, split + 1, leaf, spend)
        right, right_digest = _run(_taken(run, mid, hi, spend), leaf)
    body = BIT_PREFIX[split] + left_digest + right_digest
    return (left, right, body), sha256(body).digest()


def insert_many(root: Node, root_digest: bytes, leaves: list[bytes], leaf, spend: bool = False) -> tuple[Node, bytes]:
    """``root`` (whose digest is ``root_digest``) with the sorted new
    ``leaves`` inserted, each new leaf's digest being ``leaf(new)``, and its
    digest; raises AlreadyPresent on a key that is present already or
    listed twice. With ``spend`` the caller hands over the list
    ``leaves``, which the merge empties range by range as it copies the
    leaves into their regions, so each region's go once it is written;
    without, ``leaves`` is left as it is.

    One pass down the trie, reading the leaves as bytes (see the module
    docstring): each tuple branch some key falls into is rebuilt over its
    merged children, each region two or more keys fall into is written
    again as a new one, in one stack pass over its old and new leaves, every
    subtree no key falls into is kept as it is, and each range that meets a
    leaf or empty space is built in one stack pass, its branches at
    ``REGION_BIT`` or deeper written as region rows. Only the new nodes are
    hashed. The merge keeps no reference to a branch it has unpacked or a
    region it has rewritten, and neither does this frame to ``root``:
    called with the only reference to ``root`` (an argument nothing else
    holds), it frees each node it replaces as it goes.
    """
    held = [root]
    del root
    return _merge(held.pop(), root_digest, leaves, 0, len(leaves), 0, leaf, spend)


class Memory:
    """Public accumulator memory m = (T, X) plus an update counter.

    ``root`` is the trie T, made of the nodes laid out in the module
    docstring, and ``value`` is its digest, the accumulator value: the one
    digest no parent holds. X lives in T's leaves: each leaf is its key
    followed by the one element the key holds, read where a walk ends
    (``find``, ``leaves_of``). ``key_len`` is how an element is keyed (see
    ``hashing``): by its first ``key_len`` bytes, or whole when None. A
    whole element's key is its digest, which is all the trie and its
    witnesses read of it, so under whole-element keys a leaf is the bare
    key and keeps no element. Per element beyond the first, then, the trie
    keeps its leaf and one branch, whose 66-byte body is every digest the
    branch's own hash needs and every witness step past it, so nothing else
    is kept per node. What a batch merge built keeps each branch as a region
    row, its body and 8 bytes of child ids, and each leaf packed in its
    region's data with a 4-byte end; a per-op path copy, as a 3-tuple over
    its body and a leaf object of its own. The trie holds only tuples and
    bytes, so once the collector has seen a settled trie it stops scanning
    it: a full collection then costs what the rest of the heap costs, not
    what the accumulator's size does.

    Single writer: updates must be externally serialized. Concurrent
    read-only witness extraction against a quiescent memory is safe, and old
    roots remain valid because nodes are never mutated.
    """

    __slots__ = ("root", "value", "epoch", "key_len")

    def __init__(self, key_len: int | None = None):
        self.key_len = key_len
        self.root: Node = EMPTY
        self.value = EMPTY_DIGEST
        self.epoch = 0

    def __len__(self) -> int:
        return sum(map(len, _leaf_runs(self.root)))
