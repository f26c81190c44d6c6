"""Manager-side accumulator operations: setup, witness, update, and batched
commits (``Changes`` netted per element, applied by ``apply_update``).

A witness leaves this module as its wire bytes (see ``witness``): each
builder walks the trie once and packs the walk's branch bits and sibling
digests straight into the payload, with no intermediate form.

The verification half (belongs / check_update) lives in ``verify`` and never
imports this module or the tree, so verifiers can run without any memory.
"""

from dataclasses import dataclass

from ..errors import AlreadyPresent, NotPresent, StaleAccumulator, UnsupportedParameter
from . import tree
from .hashing import DIGEST_BYTES, element_digest
from .tree import Memory, Node
from .witness import WitnessKind, pack

SUPPORTED_BITS = DIGEST_BYTES * 8


@dataclass
class UpdateResult:
    acc_after: bytes
    witness: bytes


def setup(security_parameter_bits: int) -> tuple[bytes, Memory]:
    """Initial accumulator value for the empty set, plus fresh memory."""
    if security_parameter_bits != SUPPORTED_BITS:
        raise UnsupportedParameter(
            f"only {SUPPORTED_BITS}-bit digests are supported, got {security_parameter_bits}"
        )
    memory = Memory()
    return memory.value, memory


def witness_for_root(root: Node, element: bytes) -> bytes:
    """(Non)membership witness bytes for ``element`` against an arbitrary root snapshot."""
    key = element_digest(element)
    steps, terminal = tree.descend(root, key)
    if terminal == key:
        return pack(WitnessKind.MEMBERSHIP, key, steps)
    return pack(WitnessKind.NON_MEMBERSHIP, key, steps, tree.leaf_key(terminal))


def witness(acc: bytes, memory: Memory, element: bytes) -> bytes:
    if acc != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    return witness_for_root(memory.root, element)


def simulate_update(root: Node, root_digest: bytes, op: str, element: bytes) -> tuple[Node, bytes, bytes, bytes]:
    """Apply add/del to a root snapshot whose digest is ``root_digest``;
    returns (new root, its digest, update witness bytes, the element's key).

    The witness records the element's search path under the old root, from
    which a verifier recomputes both the before- and after-roots; the new
    root is rebuilt from the same walk that wrote the witness. After an add,
    the new leaf is the returned key object.
    """
    key = element_digest(element)
    path = []
    steps, terminal = tree.descend(root, key, path)
    if op == "add":
        new_root, new_digest = tree.insert_at(path, terminal, key, root, root_digest)
        return new_root, new_digest, pack(WitnessKind.UPDATE_ADD, key, steps, tree.leaf_key(terminal)), key
    if op == "del":
        new_root, new_digest = tree.remove_at(path, terminal, key)
        return new_root, new_digest, pack(WitnessKind.UPDATE_DEL, key, steps), key
    raise ValueError(f"unknown update op {op!r}")


def update(op: str, acc_before: bytes, memory: Memory, element: bytes) -> UpdateResult:
    """Add or delete ``element`` as one epoch of ``memory``, mutating it in place."""
    if acc_before != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    new_root, acc_after, w, key = simulate_update(memory.root, acc_before, op, element)
    changes = Changes(memory)
    changes.record(op, element, key)
    apply_update(memory, changes, (new_root, acc_after))
    return UpdateResult(acc_after, w)


class Changes:
    """Adds and deletes for one memory, netted per element as they are recorded.

    Each step is checked against the memory plus the steps recorded before
    it, so a batch that would fail applied one step at a time raises here,
    before anything changes: AlreadyPresent for adding an element that is
    present at that point, NotPresent for deleting one that is absent. An add
    and a later delete of the same element cancel, and so do a delete and a
    later re-add. Like the memory, ``adds`` and ``dels`` map trie keys to
    elements; a step recorded with the ``key`` object a simulated add made
    its leaf keeps that object, so the added keys can be the leaves.
    """

    __slots__ = ("memory", "epoch", "adds", "dels")

    def __init__(self, memory: Memory, steps=()):
        self.memory = memory
        self.epoch = memory.epoch
        self.adds: dict[bytes, bytes] = {}
        self.dels: dict[bytes, bytes] = {}
        for op, element in steps:
            self.record(op, element)

    def record(self, op: str, element: bytes, key: bytes | None = None):
        """Record one step; ``key``, if given, is ``element``'s digest, not computed again."""
        if key is None:
            key = element_digest(element)
        if op == "add":
            if self.dels.pop(key, None) is None:
                if key in self.adds or key in self.memory.elements:
                    raise AlreadyPresent(f"element digest {key.hex()} already accumulated")
                self.adds[key] = element
        elif op == "del":
            if self.adds.pop(key, None) is None:
                if key in self.dels or key not in self.memory.elements:
                    raise NotPresent(f"element digest {key.hex()} not accumulated")
                self.dels[key] = element
        else:
            raise ValueError(f"unknown update op {op!r}")

    def check_current(self, memory: Memory):
        """Raise StaleAccumulator unless these changes were recorded against ``memory`` as it is now."""
        if self.memory is not memory or self.epoch != memory.epoch:
            raise StaleAccumulator("changes were recorded against another memory state")

    def __len__(self) -> int:
        return len(self.adds) + len(self.dels)


def updated_root(memory: Memory, changes: Changes) -> tuple[Node, bytes]:
    """The trie of ``memory`` with current ``changes`` applied, and its
    digest, as ``apply_update`` walks it; the persistent trie leaves
    ``memory`` as it is, and as it holds its root, the walk frees nothing."""
    root, digest = memory.root, memory.value
    for key in changes.dels:
        root, digest = tree.remove(root, key)
    return tree.insert_many(root, digest, sorted(changes.adds))


def _let_go(memory: Memory) -> Node:
    """``memory``'s root, which the memory stops holding: passed straight
    on, it is the only reference this module keeps."""
    root, memory.root = memory.root, tree.EMPTY
    return root


def apply_update(memory: Memory, changes: Changes, built: tuple[Node, bytes] | None = None) -> bytes:
    """Apply a batch of changes as one epoch; returns the new accumulator value.

    The new elements are keyed by the key objects ``changes`` holds, which
    are the new leaves. Without ``built`` the memory's trie is walked as
    ``updated_root`` walks it, which makes them the leaves, but the memory
    lets go of its root before the merge: when nothing else holds the old
    root (a lagging storage node's history, a chain tip), the merge frees
    each tuple branch and each region of rows it replaces as it goes (see
    ``tree``). ``built = (root, digest)`` skips the walk: ``root`` is
    already the trie of the memory with exactly these changes applied, its
    new leaves the added keys, and ``digest`` is its digest. The caller vouches for ``root``: the storage
    network passes its chain tip with the tip's own batch, or a walk whose
    digest it checked against the value the contract accepted.
    """
    changes.check_current(memory)
    # nothing below can fail: record() checked that every deleted key is
    # present, every added key absent, and that no key is both
    if built is None:
        for key in changes.dels:
            memory.root, memory.value = tree.remove(memory.root, key)
        built = tree.insert_many(_let_go(memory), memory.value, sorted(changes.adds))
    memory.root, memory.value = built
    elements = memory.elements
    for key in changes.dels:
        del elements[key]
    elements.update(changes.adds)
    memory.epoch += 1
    return memory.value
