"""Simulated external storage network holding one token's accumulator memories.

The network serves one token contract, so its accumulators are addressed by
name (``erc20.bundle.BALANCES`` and the others). It is in-process and
deterministic under a seed. It serves logarithmic-size witness payloads to
clients and applies contract-confirmed updates; it never ships a whole
memory. A payload is the wire bytes ``core`` wrote as it walked the trie
(layout in ``accumulator.witness``), served as they are: storage neither
encodes nor parses a witness. Fault policies model an unreliable network on
the serving path only (corrupted bytes, stale roots, refused requests).
Clients are expected to detect bad payloads via ``belongs``.

A commit takes one transaction's batches, one per accumulator it writes
(population growth commits a whole checkpoint's), and installs each as one
epoch, all or none: if any batch is stale or does not reach the value the
contract accepted, nothing is installed. Every batch is checked before the
first is installed, and once checked, each is kept only until it lands.
Each accumulator keeps only the history its fault policy can serve: a node
that lags ``k`` epochs keeps its last ``k`` commits, each with the root
before it and its changes, and serves the oldest of those roots with an
element view that rolls all of those changes back. The lag is read from the
policy when it is used, so a policy assigned to a live network takes effect
at once. Honest storage keeps no history.

A client builds one bundle at a time, so each accumulator keeps one chain
tip: the simulated root of its latest ``build_update_witness``, the root's
digest, which the build returned (a trie's nodes hold their children's
digests, so a root that is a lone leaf or empty has its digest nowhere
else), the chain's steps as a ``core.Changes`` batch of the memory, each
step recorded with the key object the simulation made its leaf, the
(op, element) steps themselves in build order, and the element each key of
the root holds: the chain's adds, else the served view's. The batch checks
every step against the memory as it is recorded, so a chain the memory
refutes (one begun on a stale root) is refused at the build. A build
without a base starts a new chain and replaces the tip; a build on the
tip's digest continues it, taking the digest as the root's; any other base
is refused.

A verified transaction commits its update steps, per accumulator in chain
order, and the value the contract accepted. When that value is the tip's
digest and the steps are the tip's, byte for byte and in order, the tip's
root is the root of exactly the committed changes (the digest binds the key
set, the trie's layout is canonical, and the tip's batch is those steps
recorded against the memory as it is), so the commit installs the tip's root
with the tip's own batch: nothing is digested or walked again. Any other
steps (a bundle built elsewhere, an earlier bundle whose chain was
superseded, a chain of other steps) are recorded into a batch, walked path by
path, and refused unless the walk reaches the accepted value. Deployment and
growth commit ``core.Changes`` batches they recorded themselves, with no
accepted value, and these are walked at install. Such a walk cannot fail:
recording the batch checked each step against the memory. A batch that nets
to no change installs nothing, and a commit clears the tips of the
accumulators it writes, so a bundle that never lands pins at most one
simulated root per accumulator. The tip is cleared before the walk, and the
memory hands the walk its trie: unless a lagging node's history holds the
old root, the walk frees what it replaces as it goes, each tuple branch as
it unpacks it and each region of rows (what a batch merge writes, see
``accumulator.tree``) once it has written the region that replaces it. A
chain tip is a path copy: tuples over the memory's nodes and rows, so a
tip that never lands keeps its root valid, as rows never change.

An accumulator is registered with its key length (``accumulator.hashing``),
so a lookup of a prefix reads the one element the prefix's key holds; one
keyed by whole elements has no lookup, and keeps each element's key only.
"""

import random
from collections import deque
from collections.abc import Callable, Collection
from dataclasses import dataclass, field
from typing import NamedTuple

from .accumulator import core
from .accumulator.hashing import element_digest
from .accumulator.tree import Memory, Node
from .errors import StorageError, Unavailable

HONEST = "honest"
CORRUPT_BITS = "corrupt-bits"
STALE = "stale"
UNAVAILABLE = "unavailable"

_MODES = (HONEST, CORRUPT_BITS, STALE, UNAVAILABLE)


@dataclass(frozen=True)
class FaultPolicy:
    mode: str = HONEST
    rate: float = 0.0
    lag_epochs: int = 0
    probability: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("corruption rate must lie in [0, 1]")
        if self.lag_epochs < 0:
            raise ValueError("lag must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")

    @classmethod
    def honest(cls) -> "FaultPolicy":
        return cls()

    @classmethod
    def corrupt_bits(cls, rate: float, seed: int = 0) -> "FaultPolicy":
        return cls(mode=CORRUPT_BITS, rate=rate, seed=seed)

    @classmethod
    def stale(cls, lag_epochs: int, seed: int = 0) -> "FaultPolicy":
        return cls(mode=STALE, lag_epochs=lag_epochs, seed=seed)

    @classmethod
    def unavailable(cls, probability: float, seed: int = 0) -> "FaultPolicy":
        return cls(mode=UNAVAILABLE, probability=probability, seed=seed)


@dataclass
class ServingStats:
    witness_fetches: int = 0
    witness_bytes: int = 0
    update_builds: int = 0
    update_witness_bytes: int = 0
    lookups: int = 0
    lookup_bytes: int = 0


# (op, element) steps of one accumulator, in chain order; a replace's
# element is the pair (old, new) of elements under one key
Steps = list[tuple[str, bytes | tuple[bytes, bytes]]]

# the element each key of some root holds, None for a key it does not hold (a
# ``core`` builder's ``held``)
Held = Callable[[bytes], bytes | None]


def _chained(adds: dict[bytes, bytes], served: Held) -> Held:
    """What a chain's keys hold: its ``adds``, as they grow, else what the root it began on held."""
    return lambda key: adds[key] if key in adds else served(key)


class _Tip(NamedTuple):
    """The latest ``build_update_witness`` chain of an accumulator: the next
    build may continue it, and a commit of its ``steps`` to its ``value``
    installs its ``root`` and ``changes``."""

    value: bytes  # the root's digest
    root: Node
    changes: core.Changes  # the steps recorded, each added key being a new leaf of the root
    steps: Steps
    held: Held  # the element each key of the root holds


@dataclass
class _Registered:
    memory: Memory
    # (root before, value before, changes) of the commits a stale node lags
    # behind, oldest first
    history: deque = field(default_factory=deque)
    tip: _Tip | None = None  # None after a commit


class StorageNetwork:
    """Holds one Memory per registered accumulator name; single writer per name."""

    def __init__(self, policy: FaultPolicy | None = None):
        self.policy = policy or FaultPolicy.honest()
        self._rng = random.Random(self.policy.seed)
        self._entries: dict[str, _Registered] = {}
        self.stats = ServingStats()

    # -- registry ----------------------------------------------------------

    def register(self, acc: str, key_len: int | None = None) -> bytes:
        """Set up a fresh accumulator named ``acc`` keyed by ``key_len``; returns its initial value."""
        if acc in self._entries:
            raise StorageError(f"{acc} already registered")
        acc0, memory = core.setup(256, key_len)
        self._entries[acc] = _Registered(memory=memory)
        return acc0

    def _entry(self, acc: str) -> _Registered:
        try:
            return self._entries[acc]
        except KeyError:
            raise StorageError(f"{acc} not registered") from None

    # -- ledger view -------------------------------------------------------------

    def elements(self, acc: str, prefix: bytes | None = None) -> Collection[bytes]:
        """What ``acc`` holds now, read-only: all of it, or the element under a lookup ``prefix``, if any.

        The ledger view for integrity checks, not the served view: no fault
        applies and ``stats`` counts nothing. It yields the elements, or
        under whole-element keys, which keep no element, their keys.
        """
        entry = self._entry(acc)
        if prefix is None:
            return entry.memory.elements.values()
        return self._under(entry, prefix, entry.memory.elements.get)

    @staticmethod
    def _under(entry: _Registered, prefix: bytes, held: Held) -> list[bytes]:
        """What ``held`` maps a lookup ``prefix``'s key to, as a list of 0 or 1 elements."""
        key_len = entry.memory.key_len
        if key_len is None:
            raise StorageError("the accumulator is keyed by whole elements and serves no lookup")
        if len(prefix) != key_len:
            raise StorageError(f"lookups require a {key_len}-byte prefix")
        element = held(element_digest(prefix))
        return [] if element is None else [element]

    # -- fault layer ---------------------------------------------------------

    def _maybe_refuse(self):
        if self.policy.mode == UNAVAILABLE and self._rng.random() < self.policy.probability:
            raise Unavailable("storage node did not respond")

    def _serve_bytes(self, payload: bytes) -> bytes:
        if self.policy.mode != CORRUPT_BITS or self.policy.rate == 0.0:
            return payload
        out = bytearray(payload)
        for i in range(len(out)):
            if self._rng.random() < self.policy.rate:
                out[i] ^= self._rng.randrange(1, 256)
        return bytes(out)

    def _lag(self) -> int:
        """How many epochs the node lags, read from the policy as it is now."""
        return self.policy.lag_epochs if self.policy.mode == STALE else 0

    def _behind(self, entry: _Registered) -> list:
        """The commits the served view predates, oldest first: the last
        ``_lag()`` of those the history holds."""
        lag = self._lag()
        return list(entry.history)[-lag:] if lag else []

    def _serving(self, entry: _Registered) -> tuple[Node, bytes, Held]:
        """The root the node serves, its digest, and the element each of its keys holds."""
        elements = entry.memory.elements
        behind = self._behind(entry)
        if not behind:
            return entry.memory.root, entry.memory.value, elements.get

        def held(key: bytes) -> bytes | None:
            # roll back the commits the served root predates, newest first
            element = elements.get(key)
            for _root, _digest, changes in reversed(behind):
                if key in changes.dels:
                    element = changes.dels[key]
                elif key in changes.adds:
                    element = None
            return element

        return behind[0][0], behind[0][1], held

    # -- serving API ---------------------------------------------------------

    def lookup(self, acc: str, prefix: bytes) -> list[bytes]:
        """The accumulated element whose encoding starts with ``prefix``, as a list of it, or an empty list."""
        self._maybe_refuse()
        entry = self._entry(acc)
        served = self._under(entry, prefix, self._serving(entry)[2])
        if self.policy.mode == CORRUPT_BITS:
            served = [self._serve_bytes(e) for e in served]
        self.stats.lookups += 1
        self.stats.lookup_bytes += sum(map(len, served))
        return served

    def fetch_witness(self, acc: str, element: bytes) -> bytes:
        """Serialized (non)membership witness for ``element``."""
        self._maybe_refuse()
        entry = self._entry(acc)
        root, _digest, held = self._serving(entry)
        payload = self._serve_bytes(core.witness_for_root(root, element, entry.memory.key_len, held))
        self.stats.witness_fetches += 1
        self.stats.witness_bytes += len(payload)
        return payload

    def build_update_witness(
        self,
        acc: str,
        op: str,
        element: bytes | tuple[bytes, bytes],
        base: bytes | None = None,
    ) -> tuple[bytes, bytes]:
        """Simulate ``op`` (add, del, or replace of an (old, new) pair under one key) without mutating memory.

        Returns (predicted accumulator value after the op, serialized update
        witness). Without a ``base`` the op starts a new chain on the served
        root; passing the value the latest build returned as ``base`` chains
        the op on top of it, which is how clients assemble multi-update
        proof bundles against one snapshot. Any other ``base`` is refused.
        A step the memory refutes raises AlreadyPresent or NotPresent.
        """
        self._maybe_refuse()
        entry = self._entry(acc)
        if base is None:
            root, digest, served = self._serving(entry)
            changes, steps = core.Changes(entry.memory), []
            held = _chained(changes.adds, served)
        elif entry.tip is not None and base == entry.tip.value:
            digest, root, changes, steps, held = entry.tip
        else:
            raise StorageError("unknown base snapshot; rebuild from current")
        # an add's or a replace's new leaf is ``key``
        new_root, acc_after, witness, key = core.simulate_update(root, digest, op, element, entry.memory.key_len, held)
        changes.record(op, element, key)
        steps.append((op, element))
        entry.tip = _Tip(acc_after, new_root, changes, steps, held)
        payload = self._serve_bytes(witness)
        predicted = self._serve_bytes(acc_after)
        self.stats.update_builds += 1
        self.stats.update_witness_bytes += len(payload)
        return predicted, payload

    # -- commit path -----------------------------------------------------------

    def changes(self, acc: str, steps=()) -> core.Changes:
        """A batch of changes to ``acc``'s memory for ``commit``, with the
        (op, element) ``steps`` recorded; record more with its ``record``."""
        return core.Changes(self._entry(acc).memory, steps)

    def commit(
        self, batches: dict[str, core.Changes | Steps], accepted: dict[str, bytes] | None = None
    ) -> dict[str, bytes]:
        """Install one transaction's batches, each as one epoch of its accumulator, all or none.

        A batch is a ``core.Changes`` of the accumulator's memory, or the
        (op, element) steps of a verified transaction in chain order.
        ``accepted`` holds the values the contract accepted. Every batch is
        checked before any is installed: it must not be stale, and it must
        reach its accepted value, by the chain tip when the tip's digest is
        that value and the batch is the tip's steps (the tip's root and
        batch are then installed), or else by a walk. A batch without an
        accepted value is walked at install. A batch that nets to no change
        must hold its accepted value already, like an accumulator accepted
        without a batch, and installs nothing: no epoch, and its tip stays.
        Returns the value each batch reached.

        Once every batch is checked, this keeps each one only until it is
        installed; a caller that hands over ``batches`` with nothing else
        holding them (``TokenSystem.bootstrap`` does) has each go as it lands.
        """
        accepted = accepted or {}
        staged = {acc: self._staged(acc, batch, accepted.get(acc)) for acc, batch in batches.items()}
        for acc, value in accepted.items():
            if acc not in batches and value != self._entry(acc).memory.value:
                raise StorageError(f"{acc} holds another value than the contract accepted")
        del batches
        return {acc: self._install(*staged.pop(acc)) for acc in list(staged)}

    def _staged(self, acc: str, batch: core.Changes | Steps, value: bytes | None):
        """Check one of ``commit``'s batches, whose accepted value is
        ``value``; returns the accumulator's entry, the batch as a
        ``core.Changes`` and the (root, digest) it reaches, or None for a
        batch to be walked at install."""
        entry = self._entry(acc)
        memory, tip, built = entry.memory, entry.tip, None
        if batch.__class__ is core.Changes:
            changes = batch
        elif tip and tip.value == value and tip.steps == batch:
            changes, built = tip.changes, (tip.root, value)
        else:
            changes = core.Changes(memory, batch)
        changes.check_current(memory)
        if not changes:
            built = memory.root, memory.value
        elif value is not None and built is None:
            built = core.updated_root(memory.root, memory.value, changes)
        if value is not None and built[1] != value:
            raise StorageError(f"{acc} changes do not reach the value the contract accepted")
        return entry, changes, built

    def _install(self, entry: _Registered, changes: core.Changes, built: tuple[Node, bytes] | None) -> bytes:
        memory = entry.memory
        if not changes:
            return memory.value
        # a stale node keeps the old root to serve; honest storage holds none,
        # and drops the chain tip before the walk, so the walk frees the nodes
        # it replaces as it goes
        lag = self._lag()
        lagged = (memory.root, memory.value, changes) if lag else None
        entry.tip = None
        acc_after = core.apply_update(memory, changes, built)
        history = entry.history
        if lagged:
            history.append(lagged)
        while len(history) > lag:
            history.popleft()
        return acc_after
