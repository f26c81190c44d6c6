"""Manager-side accumulator operations: setup, witness, update, and batched
commits (``Changes`` netted per element, applied by ``apply_update``).

The verification half (belongs / check_update) lives in ``verify`` and never
imports this module or the tree, so verifiers can run without any memory.
"""

from dataclasses import dataclass

from ..errors import AlreadyPresent, NotPresent, StaleAccumulator, UnsupportedParameter
from . import tree
from .hashing import DIGEST_BYTES, element_digest
from .tree import Memory, Node
from .witness import Witness, WitnessKind

SUPPORTED_BITS = DIGEST_BYTES * 8


@dataclass
class UpdateResult:
    acc_after: bytes
    witness: Witness


def setup(security_parameter_bits: int) -> tuple[bytes, Memory]:
    """Initial accumulator value for the empty set, plus fresh memory."""
    if security_parameter_bits != SUPPORTED_BITS:
        raise UnsupportedParameter(
            f"only {SUPPORTED_BITS}-bit digests are supported, got {security_parameter_bits}"
        )
    memory = Memory()
    return memory.value, memory


def witness_for_root(root: Node, element: bytes) -> Witness:
    """(Non)membership witness for ``element`` against an arbitrary root snapshot."""
    key = element_digest(element)
    path, terminal = tree.walk(root, key)
    steps = tree.path_steps(path)
    occupant = tree.leaf_key(terminal)
    if occupant == key:
        return Witness(WitnessKind.MEMBERSHIP, key, steps)
    return Witness(WitnessKind.NON_MEMBERSHIP, key, steps, occupant)


def witness(acc: bytes, memory: Memory, element: bytes) -> Witness:
    if acc != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    return witness_for_root(memory.root, element)


def simulate_update(root: Node, op: str, element: bytes) -> tuple[Node, Witness]:
    """Apply add/del to a root snapshot; returns (new root, update witness).

    The witness records the element's search path under the old root, from
    which a verifier recomputes both the before- and after-roots; the new
    root is rebuilt from that same walk.
    """
    key = element_digest(element)
    path, terminal = tree.walk(root, key)
    steps = tree.path_steps(path)
    if op == "add":
        new_root = tree.insert_at(path, terminal, key)
        return new_root, Witness(WitnessKind.UPDATE_ADD, key, steps, tree.leaf_key(terminal))
    if op == "del":
        return tree.remove_at(path, terminal, key), Witness(WitnessKind.UPDATE_DEL, key, steps)
    raise ValueError(f"unknown update op {op!r}")


def update(op: str, acc_before: bytes, memory: Memory, element: bytes) -> UpdateResult:
    """Add or delete ``element``, mutating ``memory`` in place."""
    if acc_before != memory.value:
        raise StaleAccumulator("accumulator value does not match memory root")
    new_root, w = simulate_update(memory.root, op, element)
    key = element_digest(element)
    memory.root = new_root
    if op == "add":
        memory.elements[key] = element
    else:
        del memory.elements[key]
    memory.epoch += 1
    return UpdateResult(tree.digest(new_root), w)


class Changes:
    """Adds and deletes for one memory, netted per element as they are recorded.

    Each step is checked against the memory plus the steps recorded before
    it, so a batch that would fail applied one step at a time raises here,
    before anything changes: AlreadyPresent for adding an element that is
    present at that point, NotPresent for deleting one that is absent. An add
    and a later delete of the same element cancel, and so do a delete and a
    later re-add. Like the memory, ``adds`` and ``dels`` map trie keys to
    elements.
    """

    __slots__ = ("memory", "epoch", "adds", "dels")

    def __init__(self, memory: Memory, steps=()):
        self.memory = memory
        self.epoch = memory.epoch
        self.adds: dict[bytes, bytes] = {}
        self.dels: dict[bytes, bytes] = {}
        for op, element in steps:
            self.record(op, element)

    def record(self, op: str, element: bytes):
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

    def __len__(self) -> int:
        return len(self.adds) + len(self.dels)


def apply_update(memory: Memory, changes: Changes, built: tuple[Node, dict] | None = None) -> bytes:
    """Apply a batch of changes as one epoch; returns the new accumulator value.

    Without ``built`` the trie takes the deletions one by one and then all
    additions in one merge. ``built = (root, keys)`` skips that work: ``root``
    is already the trie of the memory with exactly these changes applied and
    is installed as it is, and each new element is keyed by the ``bytes``
    object ``keys`` maps its key to (``keys`` holds every added key), the
    one its leaf holds, so leaf and element dict share it. The caller
    vouches for ``root``: the storage network passes its chain tip when the
    tip's digest is the value the contract accepted and the tip's netted
    keys are these changes' keys. The storage network commits through this,
    where the changes were already verified by the contract and witnesses
    would go unread.
    """
    if changes.memory is not memory or changes.epoch != memory.epoch:
        raise StaleAccumulator("changes were recorded against another memory state")
    # nothing below can fail: record() checked that every deleted key is
    # present, every added key absent, and that no key is both
    elements = memory.elements
    if built is None:
        root = memory.root
        for key in changes.dels:
            root = tree.remove(root, key)
            del elements[key]
        elements.update(changes.adds)
        root = tree.insert_many(root, sorted(changes.adds))
    else:
        root, keys = built
        for key in changes.dels:
            del elements[key]
        for key, element in changes.adds.items():
            elements[keys[key]] = element
    memory.root = root
    memory.epoch += 1
    return memory.value
