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
contract accepted, nothing is installed. Each accumulator keeps only the
history its fault policy can serve: a node that lags ``k`` epochs keeps its
last ``k`` commits, each with the root before it and its changes, and serves
the oldest of those roots with an element view that rolls all of those
changes back. Honest storage keeps no history.

A client builds one bundle at a time, so each accumulator keeps one chain
tip: the simulated root of its latest ``build_update_witness``, the root's
digest, which the build returned (a trie's nodes hold their children's
digests, so a root that is a lone leaf or empty has its digest nowhere
else), and the chain's steps as a ``core.Changes`` batch of the memory,
each step recorded with the key object the simulation made its leaf. The
batch checks every step against the memory as it is recorded, so a chain
the memory refutes (one begun on a stale root) is refused at the build. A
build without a base starts a new chain and replaces the tip; a build on the
tip's digest continues it, taking the digest as the root's; any other base
is refused. A commit is told the value the contract accepted; when that is
the tip's digest and the committed batch has the tip batch's keys, the
tip's root is the root of exactly the committed changes (the digest binds
the key set, and the trie's layout is canonical), so the commit installs
the tip's root with the tip's own batch instead of walking and rehashing
the same paths again. Any other batch (a bundle built elsewhere, an earlier
bundle whose chain was superseded, a chain of other keys than the batch's)
is walked path by path, and refused unless the walk reaches the accepted
value; deployment and growth have no accepted value. A commit clears the
tips of the accumulators it writes, so a bundle that never lands pins at
most one simulated root per accumulator.

An accumulator registered with a lookup prefix length also keeps an index
from each prefix to the element under it: the token keeps one tuple per
owner and per pair, so one element per key, stored as itself rather than in
a one-element set. A commit that puts a second element under a key is still
applied, as the chain confirmed it, and the key's value becomes a tuple of
its elements. ``elements`` and ``lookup`` then show every element while
``lookup_keys`` lists the key once, which is how the integrity checks see
the surplus.
"""

import random
from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field

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


def _held(value) -> tuple[bytes, ...]:
    """The elements an index value stands for: one element, or a tuple of them."""
    return (value,) if value.__class__ is bytes else value


@dataclass
class _Registered:
    memory: Memory
    index_prefix_len: int | None
    # lookup prefix -> the element under it, or a tuple of the elements when
    # more than one is (a collision the integrity checks report)
    index: dict = field(default_factory=dict)
    # (epoch reached, root before, value before, changes) of the commits a
    # stale node lags behind, oldest first
    history: deque = field(default_factory=deque)
    # (digest, root, batch) of the latest build_update_witness chain, the
    # batch's added keys being the root's new leaves: the next build may
    # continue it, and a commit whose accepted value is its digest and whose
    # batch has its keys installs its root and batch; None after a commit
    tip: tuple[bytes, Node, core.Changes] | None = None


class StorageNetwork:
    """Holds one Memory per registered accumulator name; single writer per name."""

    def __init__(self, policy: FaultPolicy | None = None):
        self.policy = policy or FaultPolicy.honest()
        self._rng = random.Random(self.policy.seed)
        self._entries: dict[str, _Registered] = {}
        self.stats = ServingStats()
        self._lag = self.policy.lag_epochs if self.policy.mode == STALE else 0

    # -- registry ----------------------------------------------------------

    def register(self, acc: str, index_prefix_len: int | None = None) -> bytes:
        """Set up a fresh accumulator named ``acc``; returns its initial value."""
        if acc in self._entries:
            raise StorageError(f"{acc} already registered")
        acc0, memory = core.setup(256)
        self._entries[acc] = _Registered(memory=memory, index_prefix_len=index_prefix_len)
        return acc0

    def _entry(self, acc: str) -> _Registered:
        try:
            return self._entries[acc]
        except KeyError:
            raise StorageError(f"{acc} not registered") from None

    def accumulator_value(self, acc: str) -> bytes:
        return self._entry(acc).memory.value

    def epoch(self, acc: str) -> int:
        return self._entry(acc).memory.epoch

    # -- ledger view -------------------------------------------------------------

    def elements(self, acc: str, prefix: bytes | None = None) -> Collection[bytes]:
        """The elements ``acc`` holds now, read-only: all of them, or those under one lookup ``prefix``.

        The ledger view for integrity checks, not the served view: no fault
        applies and ``stats`` counts nothing.
        """
        entry = self._entry(acc)
        if prefix is None:
            return entry.memory.elements.values()
        plen = entry.index_prefix_len
        if plen is None or len(prefix) != plen:
            raise StorageError(f"lookups require a {plen}-byte prefix")
        return _held(entry.index.get(prefix, ()))

    def lookup_keys(self, acc: str) -> Collection[bytes]:
        """The lookup prefixes ``elements`` holds anything under now, read-only."""
        return self._entry(acc).index.keys()

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

    def _serving_root(self, entry: _Registered) -> tuple[Node, bytes]:
        """The root the node serves, and its digest."""
        if entry.history:
            return entry.history[0][1:3]
        return entry.memory.root, entry.memory.value

    def _serving_elements(self, acc: str, prefix: bytes) -> list[bytes]:
        current = self.elements(acc, prefix)  # checks the prefix length
        # roll back the commits the served root predates, newest first
        for _epoch, _root, _digest, changes in reversed(self._entry(acc).history):
            current = {element for element in current if element_digest(element) not in changes.adds}
            current.update(element for element in changes.dels.values() if element.startswith(prefix))
        return sorted(current)

    # -- serving API ---------------------------------------------------------

    def lookup(self, acc: str, prefix: bytes) -> list[bytes]:
        """Accumulated elements whose encoding starts with ``prefix``."""
        self._maybe_refuse()
        found = self._serving_elements(acc, prefix)
        served = [self._serve_bytes(e) for e in found]
        self.stats.lookups += 1
        self.stats.lookup_bytes += sum(len(e) for e in served)
        return served

    def fetch_witness(self, acc: str, element: bytes) -> bytes:
        """Serialized (non)membership witness for ``element``."""
        self._maybe_refuse()
        entry = self._entry(acc)
        payload = self._serve_bytes(core.witness_for_root(self._serving_root(entry)[0], element))
        self.stats.witness_fetches += 1
        self.stats.witness_bytes += len(payload)
        return payload

    def build_update_witness(
        self,
        acc: str,
        op: str,
        element: bytes,
        base: bytes | None = None,
    ) -> tuple[bytes, bytes]:
        """Simulate ``op`` without mutating memory.

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
            (root, digest), changes = self._serving_root(entry), core.Changes(entry.memory)
        elif entry.tip is not None and base == entry.tip[0]:
            digest, root, changes = entry.tip
        else:
            raise StorageError("unknown base snapshot; rebuild from current")
        new_root, acc_after, witness, key = core.simulate_update(root, digest, op, element)  # an add's new leaf is ``key``
        changes.record(op, element, key)
        entry.tip = (acc_after, new_root, changes)
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

    def commit(self, batches: dict[str, core.Changes], accepted: dict[str, bytes] | None = None) -> dict[str, bytes]:
        """Install one transaction's batches, each as one epoch of its accumulator, all or none.

        ``accepted`` holds the values the contract accepted. Every batch is
        checked before any is installed: it must not be stale, and it must
        reach its accepted value, by the chain tip when the tip's digest is
        that value and its batch has this batch's keys (the tip's root is
        then the trie of exactly these changes, and the tip's own batch is
        installed with it), or else by a walk. An accumulator accepted
        without a batch must hold its value already. A batch without an
        accepted value is walked at install. Returns the new values.
        """
        accepted = accepted or {}
        staged = {}
        for acc, changes in batches.items():
            entry = self._entry(acc)
            changes.check_current(entry.memory)
            value, tip, built = accepted.get(acc), entry.tip, None
            if tip and tip[0] == value and (
                tip[2].adds.keys() == changes.adds.keys() and tip[2].dels.keys() == changes.dels.keys()
            ):
                changes, built = tip[2], (tip[1], value)
            elif value:
                built = core.updated_root(entry.memory, changes)
                if built[1] != value:
                    raise StorageError(f"{acc} changes do not reach the value the contract accepted")
            staged[acc] = entry, changes, built
        for acc, value in accepted.items():
            if acc not in batches and value != self._entry(acc).memory.value:
                raise StorageError(f"{acc} holds another value than the contract accepted")
        return {acc: self._install(*batch) for acc, batch in staged.items()}

    def _install(self, entry: _Registered, changes: core.Changes, built: tuple[Node, bytes] | None) -> bytes:
        memory = entry.memory
        # honest storage holds no old root, so the replaced nodes are freed
        # as soon as the commit lands
        lagged = (memory.epoch + 1, memory.root, memory.value, changes) if self._lag else None
        acc_after = core.apply_update(memory, changes, built)
        if lagged:
            history = entry.history
            history.append(lagged)
            while history[0][0] <= memory.epoch - self._lag:
                history.popleft()
        plen = entry.index_prefix_len
        if plen is not None:
            index = entry.index
            for element in changes.dels.values():
                if len(element) >= plen:
                    prefix = element[:plen]
                    rest = tuple(other for other in _held(index.pop(prefix)) if other != element)
                    if rest:  # a collision: keep the others
                        index[prefix] = rest if len(rest) > 1 else rest[0]
            for element in changes.adds.values():
                if len(element) >= plen:
                    prefix = element[:plen]
                    held = index.setdefault(prefix, element)
                    if held is not element:  # a second element under the key
                        index[prefix] = (*_held(held), element)
        entry.tip = None
        return acc_after
