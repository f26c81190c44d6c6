"""Manager-side accumulator operations: setup, witness, update, and batched
commits (``Changes`` netted per key, applied by ``apply_update``).

A key holds one element (``hashing``), and the trie's leaf at the key holds
it too: the leaf is the key followed by the element (``_leaf``), so a
builder reads what a key holds at the leaf its walk ends at, and a batch's
checks ask the trie (``tree.find``, ``tree.holds_any``). Under whole-element
keys the element is all its key says of it, so the leaf is the bare key and
no element is kept.

A witness leaves this module as its wire bytes (see ``witness``): each
builder walks the trie once and packs the walk's branch bits and sibling
digests straight into the payload, with no intermediate form.

The verification half (belongs / check_update) lives in ``verify`` and never
imports this module or the tree, so verifiers can run without any memory.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable

from ..errors import AlreadyPresent, NotPresent, StaleAccumulator, UnsupportedParameter
from . import hashing, tree
from .hashing import DIGEST_BYTES, TAG_LEAF, element_digest
from .tree import Memory, Node
from .witness import WitnessKind, pack

SUPPORTED_BITS = DIGEST_BYTES * 8


@dataclass
class UpdateResult:
    acc_after: bytes
    witness: bytes


def setup(security_parameter_bits: int, key_len: int | None = None) -> tuple[bytes, Memory]:
    """Initial accumulator value for the empty set, plus fresh memory keying
    elements by their first ``key_len`` bytes (whole when None)."""
    if security_parameter_bits != SUPPORTED_BITS:
        raise UnsupportedParameter(
            f"only {SUPPORTED_BITS}-bit digests are supported, got {security_parameter_bits}"
        )
    memory = Memory(key_len)
    return memory.value, memory


def _leaf(element: bytes, key_len: int | None, key: bytes | None = None) -> bytes:
    """The leaf that holds ``element``: its key (``key``, if given), followed
    by ``element`` unless it is keyed whole."""
    if key is None:
        key = element_digest(element[:key_len])
    return key if key_len is None else key + element


def _leaves(key_len: int | None):
    """``tree``'s ``leaf``: the digest of a leaf, from the leaf alone."""
    sha256 = hashing.hashlib.sha256
    if key_len is None:  # the bare key, which is the element's digest
        return lambda leaf: sha256(TAG_LEAF + leaf + leaf).digest()
    return lambda leaf: sha256(TAG_LEAF + leaf[:DIGEST_BYTES] + sha256(leaf[DIGEST_BYTES:]).digest()).digest()


def _occupant(terminal: Node, key_len: int | None) -> bytes | None:
    """The payload naming the leaf ``terminal``, its key then its element's digest; None for the empty trie."""
    key = tree.leaf_key(terminal)
    return key and key + (key if key_len is None else element_digest(tree.leaf_element(terminal)))


def _walk(root: Node, element: bytes, key_len: int | None, path=None):
    """Walk ``element``'s key from ``root`` (see ``tree.descend``): the key,
    the leaf that holds ``element``, the steps and the terminal, which is
    that leaf exactly when ``element`` is a member."""
    key = element_digest(element[:key_len])
    steps, terminal = tree.descend(root, key, path)
    return key, _leaf(element, key_len, key), steps, terminal


def witness_for_root(root: Node, element: bytes, key_len: int | None = None) -> bytes:
    """(Non)membership witness bytes for ``element`` against an arbitrary
    root snapshot; when ``element``'s key holds another element, the key's
    path with that leaf as its occupant, which no verifier accepts."""
    key, leaf, steps, terminal = _walk(root, element, key_len)
    if terminal == leaf:
        return pack(WitnessKind.MEMBERSHIP, key, steps)
    return pack(WitnessKind.NON_MEMBERSHIP, key, steps, _occupant(terminal, key_len))


def witness(acc: bytes, memory: Memory, element: bytes) -> bytes:
    if acc != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    return witness_for_root(memory.root, element, memory.key_len)


def _check_same_key(old: bytes, new: bytes, key_len: int | None):
    """Raise ValueError unless ``new`` takes ``old``'s key: their lookup prefixes are equal."""
    if new[:key_len] != old[:key_len]:
        raise ValueError("a replace keeps its element's key")


def simulate_update(
    root: Node, root_digest: bytes, op: str, element, key_len: int | None = None
) -> tuple[Node, bytes, bytes, bytes]:
    """Apply add/del/replace to a root snapshot whose digest is
    ``root_digest``; returns (new root, its digest, update witness bytes,
    the leaf that holds the element). A replace's ``element`` is the pair
    (old, new) of elements under one key, and its leaf the new one's.

    The witness records the element's search path under the old root, from
    which a verifier recomputes both the before- and after-roots; the new
    root is rebuilt from the same walk that wrote the witness. After an add
    or a replace, the returned leaf is the new root's; after a delete, it is
    the old root's leaf that went.
    """
    path = []
    if op == "replace":  # the key's leaf held the old element, and a new leaf holds the new one
        old, new = element
        key, leaf, steps, terminal = _walk(root, old, key_len, path)
        if terminal != leaf:
            raise NotPresent(f"key {key.hex()} does not hold the element")
        _check_same_key(old, new, key_len)
        leaf = _leaf(new, key_len, key)
        new_root, new_digest = tree.replace_at(path, leaf, _leaves(key_len)(leaf))
        return new_root, new_digest, pack(WitnessKind.UPDATE_REPLACE, key, steps), leaf
    key, leaf, steps, terminal = _walk(root, element, key_len, path)
    if op == "add":
        new_root, new_digest = tree.insert_at(path, terminal, leaf, _leaves(key_len)(leaf), root, root_digest)
        return new_root, new_digest, pack(WitnessKind.UPDATE_ADD, key, steps, _occupant(terminal, key_len)), leaf
    if op == "del":
        if terminal != leaf:
            raise NotPresent(f"key {key.hex()} does not hold the element")
        new_root, new_digest = tree.remove_at(path, terminal, key)
        return new_root, new_digest, pack(WitnessKind.UPDATE_DEL, key, steps), terminal
    raise ValueError(f"unknown update op {op!r}")


def update(op: str, acc_before: bytes, memory: Memory, element) -> UpdateResult:
    """Add or delete ``element``, or replace the pair's old element by its new
    one, as one epoch of ``memory``, mutating it in place."""
    if acc_before != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    new_root, acc_after, w, leaf = simulate_update(memory.root, acc_before, op, element, memory.key_len)
    changes = Changes(memory)
    changes.record(op, element, leaf)
    apply_update(memory, changes, (new_root, acc_after))
    return UpdateResult(acc_after, w)


class Changes:
    """Adds and deletes for one memory, netted per key as they are recorded.

    Each step is checked against the memory plus the steps recorded before
    it, so a batch that would fail applied one step at a time raises here,
    before anything changes: AlreadyPresent for an add under a key that holds
    an element at that point, NotPresent for a delete that names another
    element than its key holds, or none. What the memory holds is read from
    its trie: a step asks ``tree.find`` at its key, and a run of adds checks
    all its keys in one walk (``record_run``). A replace of an (old, new)
    pair is recorded as the delete of old and the add of new under its key.
    An add and a later delete of the same element cancel, and so do a
    delete and a later re-add of it; a delete and a later add of another
    element under its key are a replace, and both stay: the held element
    and its successor. ``adds`` and ``dels`` map each key to a leaf (see
    ``tree``): the new leaf an add puts there, and the trie's leaf a delete
    takes out. A whole-element key is its own leaf, filed under itself. A
    step recorded with the ``leaf`` a simulated add or replace made keeps
    that object, so the added leaves can be the new trie's.

    ``steps``, (op, element) pairs, are recorded a run at a time: each run
    of consecutive steps of one op goes to ``record_run``, which records it
    as ``record`` would, step by step.
    """

    __slots__ = ("memory", "epoch", "adds", "dels")

    def __init__(self, memory: Memory, steps=()):
        self.memory = memory
        self.epoch = memory.epoch
        self.adds: dict[bytes, bytes] = {}
        self.dels: dict[bytes, bytes] = {}
        for op, run in groupby(steps, itemgetter(0)):
            self.record_run(op, map(itemgetter(1), run))

    def record(self, op: str, element, leaf: bytes | None = None):
        """Record one step; ``leaf``, if given, is the leaf that holds
        ``element`` (a replace's new element), not made again, and an add or
        a delete then reads nothing else of ``element``."""
        key_len = self.memory.key_len
        if op == "replace":
            old, new = element
            _check_same_key(old, new, key_len)
            if leaf is None:
                leaf = _leaf(new, key_len)
            key = leaf[:DIGEST_BYTES]
            self.record("del", old, _leaf(old, key_len, key))
            self.record("add", new, leaf)
            return
        if leaf is None:
            leaf = _leaf(element, key_len)
        key = leaf[:DIGEST_BYTES]
        adds, dels = self.adds, self.dels
        held = adds[key] if key in adds else None if key in dels else tree.find(self.memory.root, key)
        if op == "add":
            if held is not None:
                raise AlreadyPresent(f"key {key.hex()} already holds an element")
            if dels.get(key) == leaf:
                del dels[key]
            else:
                adds[key] = leaf
        elif op == "del":
            if held != leaf:
                raise NotPresent(f"key {key.hex()} does not hold the element")
            if adds.pop(key, None) is None:
                dels[key] = held
        else:
            raise ValueError(f"unknown update op {op!r}")

    def record_run(self, op: str, elements: Iterable):
        """Record a run of steps of one ``op``, as ``record`` would one at a time.

        The run's keys are hashed first, each once, and its leaves made, each
        handed to its step; an add or a delete reads its element from its
        leaf, so a run of them lets go of its elements before it goes on. A
        run of adds whose keys are all new (none named twice, none recorded
        in this batch, as an add or a delete, and none held by the memory,
        which one walk of its trie checks for all of them, in key order) nets
        with nothing and is installed in one go; any other run is recorded
        step by step.
        """
        steps = list(elements)
        key_len, sha256 = self.memory.key_len, hashing.hashlib.sha256
        heads = (old for old, _new in steps) if op == "replace" else steps
        keys = [sha256(head[:key_len]).digest() for head in heads]
        if key_len is None:
            leaves = keys
        else:
            news = (new for _old, new in steps) if op == "replace" else steps
            leaves = list(map(bytes.__add__, keys, news))
        if op != "replace":
            steps = repeat(None)
        adds = self.adds
        if op == "add" and adds.keys().isdisjoint(keys) and self.dels.keys().isdisjoint(keys):
            size = len(adds)
            adds.update(zip(keys, leaves))
            if len(adds) == size + len(keys) and not tree.holds_any(self.memory.root, keys):
                return
            for key in keys:  # a key named twice or held: take the run back, and record it step by step
                adds.pop(key, None)
        for step, leaf in zip(steps, leaves):
            self.record(op, step, leaf)

    def check_current(self, memory: Memory):
        """Raise StaleAccumulator unless these changes were recorded against ``memory`` as it is now."""
        if self.memory is not memory or self.epoch != memory.epoch:
            raise StaleAccumulator("changes were recorded against another memory state")

    def __len__(self) -> int:
        return len(self.adds) + len(self.dels)


def updated_root(root: Node, digest: bytes, changes: Changes) -> tuple[Node, bytes]:
    """The trie ``root`` of the memory of ``changes``, whose digest is
    ``digest``, with the changes applied, and its digest. The persistent
    trie leaves ``root`` as it is; given the only reference to it, the merge
    frees what it replaces as it goes (see ``tree.insert_many``)."""
    held = [root]
    del root
    return _merged(held.pop(), digest, sorted(changes.adds.values()), changes.dels, changes.memory.key_len)


def _merged(root: Node, digest: bytes, leaves: list[bytes], dels, key_len: int | None) -> tuple[Node, bytes]:
    """``updated_root`` of a batch that adds the sorted ``leaves`` and
    deletes the keys ``dels``: a deleted key that an added leaf holds is
    a replace, and its path is rehashed over that leaf."""
    leaf = _leaves(key_len)
    for key in dels:
        at = bisect_left(leaves, key)
        if at < len(leaves) and leaves[at].startswith(key):
            new = leaves.pop(at)
            root, digest = tree.replace(root, new, leaf(new))
        else:
            root, digest = tree.remove(root, key)
    held = [root]
    del root
    return tree.insert_many(held.pop(), digest, leaves, leaf)


def _let_go(memory: Memory) -> Node:
    """``memory``'s root, which the memory stops holding: passed straight
    on, it is the only reference this module keeps."""
    root, memory.root = memory.root, tree.EMPTY
    return root


def apply_update(memory: Memory, changes: Changes, built: tuple[Node, bytes] | None = None) -> bytes:
    """Apply a batch of changes as one epoch; returns the new accumulator value.

    The trie is the whole memory, so this installs a new root and nothing
    else. Without ``built`` the memory's trie is walked as ``updated_root``
    walks it, which makes the added leaves the trie's, and the memory lets
    go of its root first: when nothing else holds the old root (a lagging
    storage node's history, a chain tip), the merge frees each tuple branch
    and each region of rows it replaces as it goes (see ``tree``). The walk
    spends the batch: ``changes`` lets go of its added keys before it, and
    keeps only its deletes. ``built = (root,
    digest)`` skips the walk: ``root`` is already the trie of the memory with
    exactly these changes applied, and ``digest`` is its digest. The caller
    vouches for ``root``: the storage network passes its chain tip with the
    tip's own batch, or a walk whose digest it checked against the value the
    contract accepted.
    """
    changes.check_current(memory)
    # nothing below can fail: record() checked that every deleted key holds
    # its element, and that every added key is absent once the deletes are done
    if built is None:
        # the batch is spent: the merge reads its added leaves, so it lets go
        # of their keys first, and they go before the new trie grows
        leaves = sorted(changes.adds.values())
        changes.adds.clear()
        built = _merged(_let_go(memory), memory.value, leaves, changes.dels, memory.key_len)
    memory.epoch += 1
    memory.root, memory.value = built
    return memory.value
