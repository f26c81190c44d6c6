"""Manager-side accumulator operations: setup, witness, update, and batched
commits (``Changes`` netted per key, applied by ``apply_update``).

A key holds one element (``hashing``). The trie stores keys only, so the
builders read what its leaves hold through ``held``, which maps a key of
the root they walk to its element (a memory's ``elements``, or a view of
them at an older or simulated root). Under whole-element keys they read
nothing, so no element is kept: a memory and a batch file each such key
under itself, the key object that is its leaf.

A witness leaves this module as its wire bytes (see ``witness``): each
builder walks the trie once and packs the walk's branch bits and sibling
digests straight into the payload, with no intermediate form.

The verification half (belongs / check_update) lives in ``verify`` and never
imports this module or the tree, so verifiers can run without any memory.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import groupby
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


def _leaves(key_len: int | None, held):
    """``tree``'s ``leaf``: the digest of the leaf at a key, holding what ``held`` maps the key to."""
    sha256 = hashing.hashlib.sha256
    if key_len is None:  # the key is the element's digest
        return lambda key: sha256(TAG_LEAF + key + key).digest()
    return lambda key: sha256(TAG_LEAF + key + sha256(held(key)).digest()).digest()


def _occupant(terminal: Node, key_len: int | None, held) -> bytes | None:
    """The payload naming the leaf ``terminal``, its key then its element's digest; None for the empty trie."""
    key = tree.leaf_key(terminal)
    return key and key + (key if key_len is None else element_digest(held(key)))


def _walk(root: Node, element: bytes, key_len: int | None, held, path=None):
    """Walk ``element``'s key from ``root`` (see ``tree.descend``): the key,
    the steps, the terminal, and whether that is the leaf holding ``element``."""
    key = element_digest(element[:key_len])
    steps, terminal = tree.descend(root, key, path)
    return key, steps, terminal, terminal == key and (key_len is None or held(key) == element)


def witness_for_root(root: Node, element: bytes, key_len: int | None = None, held=None) -> bytes:
    """(Non)membership witness bytes for ``element`` against an arbitrary
    root snapshot, whose leaves hold what ``held`` maps their keys to; when
    ``element``'s key holds another element, the key's path with that leaf
    as its occupant, which no verifier accepts."""
    key, steps, terminal, member = _walk(root, element, key_len, held)
    if member:
        return pack(WitnessKind.MEMBERSHIP, key, steps)
    return pack(WitnessKind.NON_MEMBERSHIP, key, steps, _occupant(terminal, key_len, held))


def witness(acc: bytes, memory: Memory, element: bytes) -> bytes:
    if acc != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    return witness_for_root(memory.root, element, memory.key_len, memory.elements.get)


def _check_same_key(old: bytes, new: bytes, key_len: int | None):
    """Raise ValueError unless ``new`` takes ``old``'s key: their lookup prefixes are equal."""
    if new[:key_len] != old[:key_len]:
        raise ValueError("a replace keeps its element's key")


def simulate_update(
    root: Node, root_digest: bytes, op: str, element, key_len: int | None = None, held=None
) -> tuple[Node, bytes, bytes, bytes]:
    """Apply add/del/replace to a root snapshot whose digest is
    ``root_digest`` and whose leaves hold what ``held`` maps their keys to;
    returns (new root, its digest, update witness bytes, the element's key).
    A replace's ``element`` is the pair (old, new) of elements under one key.

    The witness records the element's search path under the old root, from
    which a verifier recomputes both the before- and after-roots; the new
    root is rebuilt from the same walk that wrote the witness. After an add
    or a replace, the new leaf is the returned key object.
    """
    path = []
    if op == "replace":  # the key's leaf holds the old element, and then the new one
        old, new = element
        key, steps, _terminal, member = _walk(root, old, key_len, held, path)
        if not member:
            raise NotPresent(f"key {key.hex()} does not hold the element")
        _check_same_key(old, new, key_len)
        new_root, new_digest = tree.replace_at(path, key, _leaves(key_len, lambda _key: new)(key))
        return new_root, new_digest, pack(WitnessKind.UPDATE_REPLACE, key, steps), key
    key, steps, terminal, member = _walk(root, element, key_len, held, path)
    if op == "add":
        leaf_digest = _leaves(key_len, lambda _key: element)(key)  # the new leaf holds ``element``
        new_root, new_digest = tree.insert_at(path, terminal, key, leaf_digest, root, root_digest)
        return new_root, new_digest, pack(WitnessKind.UPDATE_ADD, key, steps, _occupant(terminal, key_len, held)), key
    if op == "del":
        if not member:
            raise NotPresent(f"key {key.hex()} does not hold the element")
        new_root, new_digest = tree.remove_at(path, terminal, key)
        return new_root, new_digest, pack(WitnessKind.UPDATE_DEL, key, steps), key
    raise ValueError(f"unknown update op {op!r}")


def update(op: str, acc_before: bytes, memory: Memory, element) -> UpdateResult:
    """Add or delete ``element``, or replace the pair's old element by its new
    one, as one epoch of ``memory``, mutating it in place."""
    if acc_before != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    new_root, acc_after, w, key = simulate_update(memory.root, acc_before, op, element, memory.key_len, memory.elements.get)
    changes = Changes(memory)
    changes.record(op, element, key)
    apply_update(memory, changes, (new_root, acc_after))
    return UpdateResult(acc_after, w)


class Changes:
    """Adds and deletes for one memory, netted per key as they are recorded.

    Each step is checked against the memory plus the steps recorded before
    it, so a batch that would fail applied one step at a time raises here,
    before anything changes: AlreadyPresent for an add under a key that holds
    an element at that point, NotPresent for a delete that names another
    element than its key holds, or none. A replace of an (old, new) pair is
    recorded as the delete of old and the add of new under its key. An add
    and a later delete of the same element cancel, and so do a delete and a
    later re-add of it; a delete and a later add of another element under
    its key are a replace, and both stay: the held element and its
    successor. Like the memory, ``adds`` and ``dels`` map trie keys to
    elements, the ones the keys hold after and before; a whole-element key
    is filed under itself, so its steps are compared by key. A step
    recorded with the ``key`` object a simulated add or replace made its
    leaf keeps that object, so the added keys can be the leaves.

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

    def record(self, op: str, element, key: bytes | None = None):
        """Record one step; ``key``, if given, is ``element``'s key, not computed again."""
        if op == "replace":
            old, new = element
            _check_same_key(old, new, self.memory.key_len)
            if key is None:
                key = element_digest(old[: self.memory.key_len])
            self.record("del", old, key)
            self.record("add", new, key)
            return
        key_len = self.memory.key_len
        if key is None:
            key = element_digest(element[:key_len])
        if key_len is None:  # a whole-element key is filed under itself
            element = key
        adds, dels = self.adds, self.dels
        held = adds[key] if key in adds else None if key in dels else self.memory.elements.get(key)
        if op == "add":
            if held is not None:
                raise AlreadyPresent(f"key {key.hex()} already holds an element")
            if dels.get(key) == element:
                del dels[key]
            else:
                adds[key] = element
        elif op == "del":
            if held != element:
                raise NotPresent(f"key {key.hex()} does not hold the element")
            if adds.pop(key, None) is None:
                dels[key] = element
        else:
            raise ValueError(f"unknown update op {op!r}")

    def record_run(self, op: str, elements: Iterable):
        """Record a run of steps of one ``op``, as ``record`` would one at a time.

        The run's keys are hashed first, each once. A run of adds whose keys
        are all new (none named twice, none held by the memory or recorded
        in this batch, as an add or a delete) nets with nothing and is
        installed in one go; any other run is recorded step by step, its
        keys handed to ``record``.
        """
        elements = list(elements)
        key_len, sha256 = self.memory.key_len, hashing.hashlib.sha256
        heads = (old for old, _new in elements) if op == "replace" else elements
        keys = [sha256(head[:key_len]).digest() for head in heads]
        adds = self.adds
        if (
            op == "add"
            and self.memory.elements.keys().isdisjoint(keys)
            and adds.keys().isdisjoint(keys)
            and self.dels.keys().isdisjoint(keys)
        ):
            size = len(adds)
            adds.update(zip(keys, keys if key_len is None else elements))
            if len(adds) == size + len(keys):
                return
            for key in keys:  # the run names a key twice: take it back, and record it step by step
                adds.pop(key, None)
        for element, key in zip(elements, keys):
            self.record(op, element, key)

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
    adds = changes.adds
    leaf = _leaves(changes.memory.key_len, adds.get)
    keys = sorted(adds)
    for key in changes.dels:
        if key in adds:  # a replace: the key's path is rehashed, its leaf the added key object
            key = keys.pop(bisect_left(keys, key))
            root, digest = tree.replace(root, key, leaf(key))
        else:
            root, digest = tree.remove(root, key)
    held = [root]
    del root
    return tree.insert_many(held.pop(), digest, keys, leaf)


def _let_go(memory: Memory) -> Node:
    """``memory``'s root, which the memory stops holding: passed straight
    on, it is the only reference this module keeps."""
    root, memory.root = memory.root, tree.EMPTY
    return root


def apply_update(memory: Memory, changes: Changes, built: tuple[Node, bytes] | None = None) -> bytes:
    """Apply a batch of changes as one epoch; returns the new accumulator value.

    The new elements are keyed by the key objects ``changes`` holds, which
    are the new leaves. Without ``built`` the memory's trie is walked by
    ``updated_root``, which makes them the leaves, and the memory lets go of
    its root first: when nothing else holds the old root (a lagging storage
    node's history, a chain tip), the merge frees each tuple branch and each
    region of rows it replaces as it goes (see ``tree``). ``built = (root,
    digest)`` skips the walk: ``root`` is already the trie of the memory with
    exactly these changes applied, its new leaves the added keys, and
    ``digest`` is its digest. The caller vouches for ``root``: the storage
    network passes its chain tip with the tip's own batch, or a walk whose
    digest it checked against the value the contract accepted.
    """
    changes.check_current(memory)
    # nothing below can fail: record() checked that every deleted key holds
    # its element, and that every added key is absent once the deletes are
    # done. The element map changes first, so that its growth is made
    # beside the old trie, before the merge frees that and builds the new
    elements = memory.elements
    for key in changes.dels:
        del elements[key]
    elements.update(changes.adds)
    memory.epoch += 1
    memory.root, memory.value = built or updated_root(_let_go(memory), memory.value, changes)
    return memory.value
