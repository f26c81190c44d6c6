"""Manager-side accumulator operations: setup, witness, update, and batched
commits (``Changes`` netted per key, applied by ``apply_update``).

A key holds one element (``hashing``), and the trie's leaf at the key holds
it too: the leaf is the key followed by the element (``_leaf``), so a
builder reads what a key holds at the leaf its walk ends at, and a batch's
checks ask the trie (``tree.find``, ``tree.holds_any``). Under whole-element
keys the element is all its key says of it, so the leaf is the bare key and
no element is kept. A batch keeps a run of new keys as its sorted leaves,
which the merge reads as they are, with no second sort.

A witness leaves this module as its wire bytes (see ``witness``): each
builder walks the trie once and packs the walk's branch bits and sibling
digests straight into the payload, with no intermediate form.

The verification half (belongs / check_update) lives in ``verify`` and never
imports this module or the tree, so verifiers can run without any memory.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain, groupby, islice, repeat
from operator import itemgetter
from typing import Iterable

from ..errors import AlreadyPresent, NotPresent, StaleAccumulator, UnsupportedParameter
from . import hashing, tree
from .hashing import DIGEST_BYTES, TAG_LEAF, element_digest
from .tree import Memory, Node, key_of
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
    and its successor.

    The added leaves (see ``tree``) are kept two ways. ``adds`` maps each
    key a single step added to its new leaf, and ``run`` holds the batch's
    one run of adds whose keys were all new as the list of its leaves,
    sorted, with no key object or dict slot per tuple; a later step finds
    the run's key by ``bisect``, and a delete takes its leaf out of the
    run. A batch keeps at most one run, as growth records one run of adds
    per accumulator and checkpoint; a later run of adds is recorded step by
    step into ``adds``. ``dels`` maps each deleted key to the trie's leaf it
    takes out. A whole-element key is its own leaf, filed under itself. A
    step recorded with the ``leaf`` a simulated add or replace made keeps
    that object, so the added leaves can be the new trie's.

    ``steps``, (op, element) pairs, are recorded a run at a time: each run
    of consecutive steps of one op goes to ``record_run``, which records it
    as ``record`` would, step by step.
    """

    __slots__ = ("memory", "epoch", "adds", "dels", "run")

    def __init__(self, memory: Memory, steps=()):
        self.memory = memory
        self.epoch = memory.epoch
        self.adds: dict[bytes, bytes] = {}
        self.dels: dict[bytes, bytes] = {}
        self.run: list[bytes] = []
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
        adds, dels, at = self.adds, self.dels, None
        if key in adds:
            held = adds[key]
        elif key in dels:
            held = None
        else:
            at = _index(self.run, key)
            held = tree.find(self.memory.root, key) if at is None else self.run[at]
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
            if at is not None:
                del self.run[at]
            elif adds.pop(key, None) is None:
                dels[key] = held
        else:
            raise ValueError(f"unknown update op {op!r}")

    def record_run(self, op: str, elements: Iterable):
        """Record a run of steps of one ``op``, as ``record`` would one at a time.

        The run's keys are hashed first, each once, and its leaves made, each
        handed to its step; an add or a delete reads its element from its
        leaf, so a run of them lets go of its elements as it goes. The first
        run of adds whose keys are all new (none named twice, none recorded
        in this batch, and none held by the memory, which one walk of its
        trie checks for all of them, in key order) nets with nothing and is
        kept as the batch's ``run``, sorted once; any other run, and a lone
        add, is recorded step by step, in its order.
        """
        key_len, sha256 = self.memory.key_len, hashing.hashlib.sha256
        if op == "add":
            if key_len is None:
                leaves = [sha256(element).digest() for element in elements]
            else:
                leaves = [sha256(element[:key_len]).digest() + element for element in elements]
            if len(leaves) > 1 and not self.run:
                run = sorted(leaves)
                if self._all_new(run):
                    self.run = run
                    return
                del run
            steps = repeat(None)
        else:
            steps = list(elements)
            heads = (old for old, _new in steps) if op == "replace" else steps
            keys = [sha256(head[:key_len]).digest() for head in heads]
            if key_len is None:
                leaves = keys
            else:
                news = (new for _old, new in steps) if op == "replace" else steps
                leaves = list(map(bytes.__add__, keys, news))
            if op != "replace":
                steps = repeat(None)
        for step, leaf in zip(steps, leaves):
            self.record(op, step, leaf)

    def _all_new(self, run: list[bytes]) -> bool:
        """Whether the sorted leaves ``run`` are at keys that are all new: no
        two the same, none recorded in this batch and none the memory holds."""
        if any(map(bytes.startswith, islice(run, 1, None), map(key_of, run))):
            return False  # a key named twice: its leaves are neighbours
        if any(_index(run, key) is not None for key in chain(self.adds, self.dels)):
            return False
        return not tree.holds_any(self.memory.root, run)

    def check_current(self, memory: Memory):
        """Raise StaleAccumulator unless these changes were recorded against ``memory`` as it is now."""
        if self.memory is not memory or self.epoch != memory.epoch:
            raise StaleAccumulator("changes were recorded against another memory state")

    def __len__(self) -> int:
        return len(self.adds) + len(self.dels) + len(self.run)


def _index(run: list[bytes], key: bytes) -> int | None:
    """The index of the leaf at ``key`` in the sorted leaves ``run``; None if none is there."""
    at = bisect_left(run, key)
    return at if at < len(run) and run[at].startswith(key) else None


def updated_root(root: Node, digest: bytes, changes: Changes) -> tuple[Node, bytes]:
    """The trie ``root`` of the memory of ``changes``, whose digest is
    ``digest``, with the changes applied, and its digest. The persistent
    trie leaves ``root`` as it is; given the only reference to it, the merge
    frees what it replaces as it goes (see ``tree.insert_many``)."""
    held = [root]
    del root
    return _merged(held.pop(), digest, changes, False)


def _merged(root: Node, digest: bytes, changes: Changes, spend: bool) -> tuple[Node, bytes]:
    """``updated_root`` of ``changes``: a deleted key that an added leaf
    holds is a replace, and its path is rehashed over that leaf; the other
    added leaves are merged in one pass: the run and the sorted single-step
    adds in key order, the run as it is when there are no others (see
    ``_added``). With ``spend``, the batch lets go of its adds and its run
    before the merge, and the merge lets go of each region's part of them
    once it has copied it; without, the batch is left as it is."""
    adds, dels = changes.adds, changes.dels
    leaf = _leaves(changes.memory.key_len)
    for key in dels:
        new = adds.get(key)
        root, digest = tree.remove(root, key) if new is None else tree.replace(root, new, leaf(new))
    leaves = _added(changes.run, [new for key, new in adds.items() if key not in dels])
    if spend:
        adds.clear()
        changes.run = []
    held = [root]
    del root
    return tree.insert_many(held.pop(), digest, leaves, leaf, spend)


def _added(run: list[bytes], singles: list[bytes]) -> list[bytes]:
    """The sorted leaves of ``run`` and of ``singles`` in one sorted list:
    ``run`` as it is when there are no singles, otherwise the sorted singles
    and the run joined and sorted, which Timsort does by merging the two
    sorted pieces it finds."""
    if not singles:
        return run
    leaves = sorted(singles)
    if run:
        leaves += run
        leaves.sort()
    return leaves


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
    spends the batch: ``changes`` lets go of its adds and its run before
    it, and keeps only its deletes, and the merge lets go of each region's
    new leaves once it has copied them into the region. ``built = (root,
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
        # the batch is spent: the merge copies its added leaves into the new
        # trie's regions, so the batch lets go of them first, and each
        # region's go once it is written
        built = _merged(_let_go(memory), memory.value, changes, True)
    memory.epoch += 1
    memory.root, memory.value = built
    return memory.value
