"""Compressed binary Merkle trie over 32-byte element keys.

A node's digest is held by its parent, and the root's by whoever holds the
root (``Memory.value``, a storage chain tip):

- a leaf is its key, the 32-byte ``bytes`` object itself: the one
  ``Memory.elements`` keys the element by;
- a branch is ``(left, right, body)``, splitting at key bit ``bit`` (keys
  with that bit clear go left), where ``body`` is the branch's hash preimage
  ``TAG_INTERNAL || bit || left_digest || right_digest`` (66 bytes);
- a branch may also be a row of a region, named by a handle ``(region,
  row)`` (below);
- the empty trie is ``EMPTY = ()``.

The kinds are told apart by length (0, 32, 2 and 3). A leaf's digest is
``sha256(TAG_LEAF + key + element digest)`` (see ``hashing``) and a
branch's is ``sha256(body)``; a builder returns each node it makes with its
digest, so no digest is hashed twice or stored in the node it belongs to.
The trie holds keys only: a builder takes each new leaf's digest from its
caller, by a ``leaf`` function of the key, and an old leaf's from its
parent's body.

The body is the preimage rather than a bit and two digest objects because
one 66-byte ``bytes`` costs less than two 32-byte ones and the slots that
hold them. It also holds every witness step whole: the step past a branch
taken to the right is ``body[1:34]``, its bit and left digest; to the left
it is the bit byte and ``body[34:]``.

Regions. The batch merge (``insert_many``) writes every branch at bit
``REGION_BIT`` or deeper as a row of a region, ``(kids, bodies, leaves)``:
``bodies`` holds the rows' 66-byte bodies end to end, ``kids`` each row's
left and right child id as native 32-bit ints (a row index, or ``~i`` for
the ``i``-th key of ``leaves``), and ``leaves`` is the tuple of the region's
keys, the leaves themselves. A region holds one maximal subtree whose
branches are all at ``REGION_BIT`` or deeper, that is the keys that share
their first byte, and its rows point only at its own rows and keys. Rows are
written in post-order, so each subtree's rows are a run of rows ending at
its root, and its keys a run of ``leaves``, in key order: when the subtree
is rebuilt, its keys are read as one slice and the digests of its nodes in
one scan of its rows, each from its parent's body (the root's from the
region's parent). A tuple branch reaches a region through a handle,
``(region, row)``. A branch thus costs its 66 body bytes, 8 bytes of child
ids and 8 of key slot, against 163 traced bytes as a 3-tuple and its body.
The per-op path copies (``insert``, ``remove``, ``insert_at``,
``remove_at``) stay tuples: ``descend`` reads a row it passes as a tuple
branch over handles to its children, and the copies are built over those.
A replace (``replace``, ``replace_at``) copies the path to a leaf and
rehashes it, as the leaf now holds another element.

Tuples, bytes and shared keys, rather than objects, because a trie holds a
node per key and per branch and lives as long as the memory does: bytes are
never tracked by the cyclic garbage collector, and a tuple that holds only
bytes, ints and untracked tuples can be dropped from its lists, so
collections stop rescanning the whole trie, while an instance (a slotted one
too) stays tracked for its whole life. That is why a region keeps its child
ids as ``bytes`` and reads them through a ``memoryview``: an ``array`` or a
``memoryview`` is tracked. CPython drops a tuple only when a collection
examines it after its children, so a fresh trie leaves the collector over a
few collections, bottom up.

Nodes and rows are immutable; updates copy the touched nodes and share
everything else, so old roots stay valid for free. The compressed layout
(branches exist only where keys actually diverge) is canonical for a given
key set, which makes the root digest history independent.

``insert_many`` relies on that: it merges a sorted batch of new keys into
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
sort as their big-endian ints do, so at a branch it splits the batch's
range with ``bisect`` on the keys themselves, against the smallest key with
the branch's bit set. It makes ints only for the XORs: where a range leaves a
subtree's common prefix, the split bit is the top set bit (``bit_length``)
of the XORs of the range's ends with a key of the subtree. A range that
lands where the trie has no node, or meets a leaf (taking the leaf in), is
built in one stack pass per first byte, which reads each key as an int
once: the trie of sorted keys is the Cartesian tree of the split bits of
adjacent keys. A range of one key that reaches a tuple branch or a region's
handle on its own takes the path-copying ``insert``.

The merge frees the nodes it replaces as it goes, when it may: it drops each
old tuple branch as soon as it has unpacked it and hands each child on as
the only reference it holds, and drops each old region once it has written
its new one. Given the only reference to the old root, the merge therefore
holds at any moment only the old subtrees it has still to visit, at most
one of them a region it is rewriting, beside the new nodes it has built. A
caller that keeps the old root (a lagging storage node's history, a staging
walk that must leave the memory as it is) keeps every old node alive, as
before.
"""

from array import array
from bisect import bisect_left

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

# the smallest bytes past every key with each first byte: the keys of a
# region end where the sorted keys reach the next of these
_GROUP_END = tuple(BIT_BYTE[b + 1] for b in range(255)) + (b"\xff" * (DIGEST_BYTES + 1),)


def child_digest(branch: tuple, direction: int) -> bytes:
    """The digest ``branch``'s body holds for its left (0) or right (1) child."""
    at = _RIGHT_AT if direction else _LEFT_AT
    return branch[2][at : at + DIGEST_BYTES]


def leaf_key(node: Node) -> bytes | None:
    """The key of a leaf (the leaf itself); None for the empty trie or a branch."""
    return node if node.__class__ is bytes else None


def _branch(region: tuple, kids: memoryview, row: int) -> tuple:
    """Row ``row`` of ``region`` (whose child ids ``kids`` reads) as a tuple
    branch over its children: handles to its child rows, or its leaves."""
    leaves = region[2]
    left, right = kids[2 * row], kids[2 * row + 1]
    return (
        (region, left) if left >= 0 else leaves[~left],
        (region, right) if right >= 0 else leaves[~right],
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
        node = region[2][~row]
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


def insert_at(path, terminal: Node, key: bytes, leaf_digest: bytes, root: Node, root_digest: bytes) -> tuple[Node, bytes]:
    """The root and digest ``insert`` returns, from the result of walking
    ``key``, whose new leaf's digest is ``leaf_digest``, from ``root``,
    whose digest is ``root_digest``."""
    sha256 = hashing.hashlib.sha256
    if not terminal:
        return key, leaf_digest
    split = first_diff_bit(key, terminal)
    if split is None:
        raise _duplicate(key)
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
    # equal-length keys first differ at ``split``, so the smaller has a 0 there
    if key < terminal:
        body = BIT_PREFIX[split] + leaf_digest + displaced_digest
        node = (key, displaced, body)
    else:
        body = BIT_PREFIX[split] + displaced_digest + leaf_digest
        node = (displaced, key, body)
    node_digest = sha256(body).digest()
    return _rebuild(path[:cut], node, node_digest) if cut else (node, node_digest)


def insert(root: Node, root_digest: bytes, key: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    return insert_at(path, terminal, key, leaf_digest, root, root_digest)


def replace_at(path, key: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    """The root and digest after the leaf at ``key``, where the walked
    ``path`` ends, is given the digest ``leaf_digest``: the path is copied
    and rehashed over the leaf ``key``, and the trie keeps its shape."""
    return _rebuild(path, key, leaf_digest)


def replace(root: Node, key: bytes, leaf_digest: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    if terminal != key:
        raise NotPresent(f"key {key.hex()} holds no element")
    return replace_at(path, key, leaf_digest)


def remove_at(path, terminal: Node, key: bytes) -> tuple[Node, bytes]:
    """The root and digest ``remove`` returns, from the result of walking ``key``."""
    if terminal != key:
        raise NotPresent(f"key {key.hex()} holds no element")
    if not path:
        return EMPTY, EMPTY_DIGEST
    branch, direction = path[-1]
    return _rebuild(path[:-1], branch[1 - direction], child_digest(branch, 1 - direction))


def remove(root: Node, key: bytes) -> tuple[Node, bytes]:
    path = []
    _steps, terminal = descend(root, key, path)
    return remove_at(path, terminal, key)


def _duplicate(key: bytes):
    return AlreadyPresent(f"key {key.hex()} already holds an element")


def _rows(keys: list[bytes], lo: int, hi: int, kids: array, bodies: bytearray, leaves: list, leaf, known: dict | None = None):
    """Write the trie of the sorted ``keys[lo:hi]``, which share their first
    byte, as rows of the region being built in ``kids``, ``bodies`` and
    ``leaves``; returns its root's id (a row, or ``~i`` for a lone key, the
    ``i``-th of ``leaves``) and digest. A key's leaf digest is ``leaf(key)``
    (``_digests`` gives old leaves theirs); ``known``, given, maps the bodies
    of old rows to their digests, and a row written again as it was takes
    its digest from there instead of being hashed.

    One stack pass: the trie of a sorted run is the Cartesian tree of the
    split bits of adjacent keys, the smallest bit at the root. ``bits``,
    ``lefts`` and ``digests`` hold the right spine's open branches, each a
    bit and its finished left subtree's id and digest, bits rising towards
    the top. A key closes every open branch whose bit exceeds its split from
    the key before it, and each closed branch is written as the next row.
    """
    sha256 = hashing.hashlib.sha256
    key = keys[lo]
    node_digest = leaf(key)
    leaves.append(key)
    if hi - lo == 1:
        return ~(len(leaves) - 1), node_digest
    add_kid, add_leaf = kids.append, leaves.append
    row, at = len(kids) >> 1, len(leaves) - 1
    node = ~at
    prev = int.from_bytes(key, "big")
    bits = [-1]  # below every split bit, so the spine's foot never closes
    lefts: list[int] = []
    digests: list[bytes] = []
    for key in keys[lo + 1 : hi]:
        x = int.from_bytes(key, "big")
        diff = prev ^ x
        if not diff:
            raise _duplicate(key)
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
        add_leaf(key)
        node = ~at
        node_digest = leaf(key)
        prev = x
    while lefts:
        body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
        add_kid(lefts.pop())
        add_kid(node)
        bodies += body
        node, node_digest = row, known and known.get(body) or sha256(body).digest()
        row += 1
    return node, node_digest


def _digests(old: dict, keys: list[bytes], leaf):
    """The leaf digest function of a run of old leaves and the new ``keys``:
    ``old`` maps each old leaf to the digest its parent's body holds, and it
    is given each new key's ``leaf(key)``, made here once."""
    old.update(zip(keys, map(leaf, keys)))
    return old.__getitem__


def _region(kids: array, bodies: bytearray, leaves: list, root: int) -> tuple:
    """The handle of the finished region built in ``kids``, ``bodies`` and ``leaves``, at row ``root``."""
    return (kids.tobytes(), bytes(bodies), tuple(leaves)), root


def _span(kids: memoryview, ref: int) -> tuple[int, int]:
    """The first and the last key under row ``ref`` of a region whose child
    ids ``kids`` reads, by their index in its keys."""
    first = last = ref
    while first >= 0:
        first = kids[2 * first]
    while last >= 0:
        last = kids[2 * last + 1]
    return ~first, ~last


def _gather(node: Node, node_digest: bytes, keys: list[bytes], known: dict):
    """Append the keys of the old subtree ``node`` (a leaf, a handle, or a
    tuple branch a path copy made over these), whose digest is
    ``node_digest``, to ``keys`` in order, and map each of its leaves and
    rows to its digest in ``known``, as ``_known`` does: read off the bodies,
    hashing nothing."""
    if node.__class__ is bytes:
        keys.append(node)
        known[node] = node_digest
    elif len(node) == 2:
        region, ref = node
        kids = memoryview(region[0]).cast("i")
        first, last = _span(kids, ref)
        keys += region[2][first : last + 1]
        known.update(_known(region, kids, ref, node_digest, ref - (last - first) + 1))
    else:
        left, right, body = node
        known[body] = node_digest
        _gather(left, body[_LEFT_AT:_RIGHT_AT], keys, known)
        _gather(right, body[_RIGHT_AT:], keys, known)


def _rewrite(node: tuple, node_digest: bytes, keys: list[bytes], lo: int, hi: int, leaf):
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, which all share
    their first byte, as one new region, and its digest; ``node`` is a
    branch at ``REGION_BIT`` or deeper: a handle, or a tuple branch a path
    copy made over handles.

    The old keys and the new ones are written in one stack pass (``_rows``),
    and each old leaf and each old row written again as it was takes the
    digest ``_gather`` read for it, so only the rows some new key falls
    under are hashed. It reads every old key however few the new ones are,
    so its work grows with the region's size, not with the batch (module
    docstring). The new region refers to nothing in the old one, so the old
    one goes when the caller drops ``node``.
    """
    run, known = [], {}
    _gather(node, node_digest, run, known)
    new = keys[lo:hi]
    run += new
    run.sort()
    kids, bodies, leaves = array("i"), bytearray(), []
    root, root_digest = _rows(run, 0, len(run), kids, bodies, leaves, _digests(known, new, leaf), known)
    return _region(kids, bodies, leaves, root), root_digest


def _known(region: tuple, kids: memoryview, ref: int, ref_digest: bytes, start: int) -> dict:
    """The digest of every node of ``region``'s subtree at row ``ref`` (whose
    child ids ``kids`` reads), whose digest is ``ref_digest`` and whose rows
    start at ``start``: each leaf's by its key and each row's by its body, as
    its parent's body holds it, and the root row's, ``ref_digest``."""
    bodies, leaves = region[1], region[2]
    slots = [bodies[at : at + DIGEST_BYTES] for row in range(start * _BODY, (ref + 1) * _BODY, _BODY) for at in (row + _LEFT_AT, row + _RIGHT_AT)]
    nodes = [leaves[~kid] if kid < 0 else bodies[kid * _BODY : (kid + 1) * _BODY] for kid in kids[2 * start : 2 * ref + 2]]
    known = dict(zip(nodes, slots))
    known[bodies[ref * _BODY : (ref + 1) * _BODY]] = ref_digest
    return known


def _run(keys: list[bytes], leaf):
    """The trie of the sorted ``keys`` alone, and its digest; a key's leaf
    digest is ``leaf(key)``.

    The keys that share a first byte form a region (``_rows``), or a lone
    leaf; above them, the tuple branches are the Cartesian tree of the
    split bits of adjacent first bytes, built in one stack pass as
    ``_rows`` builds a region's rows.
    """
    sha256 = hashing.hashlib.sha256
    bits = [-1]
    lefts: list[Node] = []
    digests: list[bytes] = []
    lo, end = 0, len(keys)
    prev = None
    while lo < end:
        first = keys[lo][0]
        hi = bisect_left(keys, _GROUP_END[first], lo + 1)
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
            root, node_digest = _rows(keys, lo, hi, kids, bodies, leaves, leaf)
            node = _region(kids, bodies, leaves, root)
        else:
            node = keys[lo]
            node_digest = leaf(node)
        prev, lo = first, hi
    while lefts:
        body = BIT_PREFIX[bits.pop()] + digests.pop() + node_digest
        node, node_digest = (lefts.pop(), node, body), sha256(body).digest()
    return node, node_digest


def _first_set(x: int, bit: int) -> bytes:
    """The smallest key that agrees with the key ``x`` before ``bit`` and has ``bit`` set."""
    shift = KEY_BITS - 1 - bit
    return ((x >> shift | 1) << shift).to_bytes(DIGEST_BYTES, "big")


def _leftmost(node: tuple) -> bytes:
    """The smallest key under the branch ``node``."""
    while len(node) == 3:
        node = node[0]
    if len(node) == 2:
        region, row = node
        kids = memoryview(region[0]).cast("i")
        while row >= 0:
            row = kids[2 * row]
        return region[2][~row]
    return node


def _merge(node: Node, node_digest: bytes, keys: list[bytes], lo: int, hi: int, depth: int, leaf):
    """The trie of ``node``'s keys plus ``keys[lo:hi]``, all of which agree on
    every bit before ``depth``, and its digest; ``node_digest`` is ``node``'s.

    Every reference this frame takes to an old branch goes as soon as the
    branch is unpacked, and each child is handed on as a temporary, which
    the callee's frame takes over: so when the caller gave up ``node``, each
    tuple branch the merge replaces is freed as soon as the merge has
    unpacked it, and each region as soon as it is rewritten.
    """
    if hi - lo < 2:
        # walking one key's path and copying it is cheaper than recursing
        return insert(node, node_digest, keys[lo], leaf(keys[lo])) if hi > lo else (node, node_digest)
    if not node:
        return _run(keys[lo:hi], leaf)
    if node.__class__ is bytes:
        # a leaf: the keys and the leaf's own key form one run
        run = keys[lo:hi]
        digest = _digests({node: node_digest}, run, leaf)
        run.insert(bisect_left(run, node), node)
        return _run(run, digest)
    if len(node) == 3:
        body = node[2]
        bit = body[_BIT_AT]
    else:
        bit = node[0][1][node[1] * _BODY + _BIT_AT]  # a handle's row
    first = int.from_bytes(keys[lo], "big")
    if bit == depth:
        split = bit  # nothing above the branch's own bit to disagree on
    else:
        x = int.from_bytes(_leftmost(node), "big")
        # the sorted keys' common prefix with the subtree is shortest at an end
        split = KEY_BITS - ((first ^ x) | (int.from_bytes(keys[hi - 1], "big") ^ x)).bit_length()
    if split >= REGION_BIT and bit >= REGION_BIT:
        # the subtree and the keys share their first byte: one region holds them
        return _rewrite(node, node_digest, keys, lo, hi, leaf)
    sha256 = hashing.hashlib.sha256
    if split >= bit:
        # a tuple branch, as every branch above REGION_BIT is
        mid = bisect_left(keys, _first_set(first, bit), lo, hi)
        kids = [node[0], node[1]]
        del node
        left, left_digest = _merge(kids.pop(0), body[_LEFT_AT:_RIGHT_AT], keys, lo, mid, bit + 1, leaf)
        right, right_digest = _merge(kids.pop(), body[_RIGHT_AT:], keys, mid, hi, bit + 1, leaf)
        body = BIT_PREFIX[bit] + left_digest + right_digest
        return (left, right, body), sha256(body).digest()
    # the new keys leave the subtree's common prefix at ``split``: a new
    # branch there, with the whole subtree on one side and a run of new keys
    # alone on the other
    mid = bisect_left(keys, _first_set(first, split), lo, hi)
    kids = [node]
    del node
    if x & BIT_MASK[split]:
        left, left_digest = _run(keys[lo:mid], leaf)
        right, right_digest = _merge(kids.pop(), node_digest, keys, mid, hi, split + 1, leaf)
    else:
        left, left_digest = _merge(kids.pop(), node_digest, keys, lo, mid, split + 1, leaf)
        right, right_digest = _run(keys[mid:hi], leaf)
    body = BIT_PREFIX[split] + left_digest + right_digest
    return (left, right, body), sha256(body).digest()


def insert_many(root: Node, root_digest: bytes, keys: list[bytes], leaf) -> tuple[Node, bytes]:
    """``root`` (whose digest is ``root_digest``) with the sorted ``keys``
    inserted, each new leaf's digest being ``leaf(key)``, and its digest;
    raises AlreadyPresent on a key that is present already or listed twice.

    One pass down the trie, reading the keys as bytes (see the module
    docstring): each tuple branch some key falls into is rebuilt over its
    merged children, each region two or more keys fall into is written
    again as a new one, in one stack pass over its old and new keys, every
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
    return _merge(held.pop(), root_digest, keys, 0, len(keys), 0, leaf)


class Memory:
    """Public accumulator memory m = (T, X) plus an update counter.

    ``root`` is the trie T, made of the nodes laid out in the module
    docstring, and ``value`` is its digest, the accumulator value: the one
    digest no parent holds. ``elements`` is X, mapping each trie key to the
    one element it holds; each key object is also the trie's leaf for it.
    ``key_len`` is how an element is keyed (see ``hashing``): by its
    first ``key_len`` bytes, or whole when None. A whole element's key is
    its digest, which is all the trie and its witnesses read of it, so
    under whole-element keys X maps each key to itself and keeps no
    element. Per element
    beyond the first, then, the trie keeps one branch, whose 66-byte body is
    every digest the branch's own hash needs and every witness step past
    it, so nothing else is kept per node. What a batch merge built keeps
    each branch as a region row: its body, 8 bytes of child ids and a key
    slot; a per-op path copy, as a 3-tuple over its body. The trie and the
    map hold only tuples and bytes, so once the collector has seen a settled
    trie it stops scanning it: a full collection then costs what the rest
    of the heap costs, not what the accumulator's size does.

    Single writer: updates must be externally serialized. Concurrent
    read-only witness extraction against a quiescent memory is safe, and old
    roots remain valid because nodes are never mutated.
    """

    __slots__ = ("root", "value", "elements", "epoch", "key_len")

    def __init__(self, key_len: int | None = None):
        self.key_len = key_len
        self.root: Node = EMPTY
        self.value = EMPTY_DIGEST
        self.elements: dict[bytes, bytes] = {}
        self.epoch = 0

    def __len__(self) -> int:
        return len(self.elements)
