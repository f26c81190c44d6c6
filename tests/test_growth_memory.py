"""What a growth commit holds while it runs: the merge frees the trie it
replaces, and the batch's leaves it copies, as it goes.

Memory is read with ``tracemalloc`` from before the old trie is built, so the
old nodes the commit frees show in the traced size; a commit that holds them
until it returns peaks above its final size by about the part of the old trie
it replaced, and one that holds the batch's leaves, by about those leaves.
"""

import gc
import random
import sys
import tracemalloc

import pytest

from acctoken.accumulator import belongs, element_digest, tree
from acctoken.accumulator.hashing import EMPTY_DIGEST
from acctoken.erc20.bundle import BALANCES, KEY_LEN
from acctoken.erc20.elements import balance_element
from acctoken.storage import FaultPolicy, StorageNetwork
from storage_views import accumulator_value
from trie_layout import is_row, leaf_bytes, leaves, nodes, trie_bytes, whole_leaf

AID = "acc"
N = 2**12
# measured against the old trie's branches (``branch_bytes``): a commit that
# keeps every node it replaces until it returns peaks about 1.4 of them
# above its final size (the replaced regions, their leaves' data with them),
# and one that holds the batch's leaves until it returns about 0.9; one that
# frees both as it goes, each region's new leaves once it is written, about
# 0.15 (its own temporaries)
HELD_SHARE = 0.3


def elements(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    return [rng.randbytes(2) + b"-" + rng.randbytes(16) for _ in range(count)]


@pytest.fixture
def traced():
    tracemalloc.start()
    yield
    tracemalloc.stop()


def overshoot(commit) -> int:
    """How far the traced size peaks above where it ends while ``commit()`` runs."""
    tracemalloc.reset_peak()
    commit()
    current, peak = tracemalloc.get_traced_memory()
    return peak - current


def grown_network(policy=None) -> StorageNetwork:
    network = StorageNetwork(policy)
    network.register(AID)  # whole-element keys: the elements' 2-byte heads repeat
    network.commit({AID: network.changes(AID, [("add", element) for element in elements(1, N)])})
    assert regions(network) >= 200  # the growth batch wrote its branches as region rows
    return network


def branch_bytes(network) -> int:
    """What the accumulator's trie takes beside its leaves."""
    root = network._entry(AID).memory.root
    return trie_bytes(root) - leaf_bytes(root)


def regions(network) -> int:
    """How many regions the accumulator's trie reaches."""
    return len({id(node[0]) for node in nodes(network._entry(AID).memory.root) if is_row(node)})


class TestGrowthCommitPeaksAtWhatItKeeps:
    def test_the_merge_frees_each_branch_it_replaces_as_it_goes(self, traced):
        # handed the only reference to the old root, the merge holds at any
        # moment only the old subtrees it has yet to visit: it peaks where it
        # ends. A merge that drops a subtree only once it has merged all of
        # it peaks 0.2-0.35 of the old trie above that; one that holds the
        # old trie until it returns, about the whole of it.
        old_keys, new_keys = (sorted(map(element_digest, elements(seed, N))) for seed in (1, 2))
        trie = list(tree.insert_many(tree.EMPTY, EMPTY_DIGEST, old_keys, whole_leaf))  # [root, digest]
        old = trie_bytes(trie[0]) - leaf_bytes(trie[0])
        merged = []

        def merge():
            digest = trie.pop()
            merged.append(tree.insert_many(trie.pop(), digest, new_keys, whole_leaf))

        assert overshoot(merge) < 0.1 * old
        assert merged[0][1] == tree.insert_many(*tree.insert_many(tree.EMPTY, EMPTY_DIGEST, old_keys, whole_leaf), new_keys, whole_leaf)[1]

    def test_a_batch_of_n_adds_into_n_keys(self, traced):
        network = grown_network()
        old = branch_bytes(network)
        batch = network.changes(AID, [("add", element) for element in elements(2, N)])
        assert overshoot(lambda: network.commit({AID: batch})) < HELD_SHARE * old

    def test_a_pending_chain_tip_does_not_keep_the_old_trie(self, traced):
        # a sampled transaction dropped after its bundle was built leaves its
        # chain tip: a root that shares all but one path with the memory's
        network = grown_network()
        network.build_update_witness(AID, "add", b"dropped")
        old = branch_bytes(network)
        batch = network.changes(AID, [("add", element) for element in elements(2, N)])
        assert overshoot(lambda: network.commit({AID: batch})) < HELD_SHARE * old
        assert network._entry(AID).tip is None and regions(network) >= 200


class TestWholeElementCommitKeepsKeys:
    def test_the_memory_holds_no_element(self, traced):
        # the elements are made while tracing and dropped once committed:
        # what stays is the trie, its leaves the bare keys, each 32 bytes of
        # its region's data and a 4-byte end. A trie that held each key as
        # an object of its own would take about 41 bytes more per key (the
        # object's 33-byte header and its slot in a tuple), one that also
        # kept a map of its keys about 36 more in its table, and one that
        # held each 19-byte element about 52 more
        assert grown_by_adds(None, lambda: elements(1, N)) <= 12 * N


def grown_by_adds(key_len, made) -> int:
    """How far a fresh accumulator keyed by ``key_len`` grows the traced
    heap when one commit adds the elements ``made()`` returns, which are
    made while tracing and dropped once committed, beyond its trie's
    branches and the bytes of its leaves."""
    network = StorageNetwork()
    network.register(AID, key_len)
    gc.collect()
    before, _peak = tracemalloc.get_traced_memory()
    steps = [("add", element) for element in made()]
    network.commit({AID: network.changes(AID, steps)})
    del steps
    gc.collect()  # a full collection also empties the free lists the merge filled
    grown = tracemalloc.get_traced_memory()[0] - before
    root = network._entry(AID).memory.root
    return grown - (trie_bytes(root) - leaf_bytes(root)) - sum(map(len, leaves(root)))


class TestPrefixKeyedCommitKeepsLeaves:
    def test_the_memory_holds_each_element_once(self, traced):
        # 2^12 balance tuples, keyed by their owner: each leaf is the key
        # followed by the tuple, in its region's data with a 4-byte end, and
        # nothing else is kept per tuple. A leaf object of its own would take
        # about 41 bytes more per tuple (its header and its slot in a tuple),
        # and a memory whose leaves were bare keys and that kept each tuple
        # in a map from its key about 120 more than that: the tuple object
        # and the map's table
        rng = random.Random(5)
        made = lambda: [balance_element(rng.randbytes(20), 1 + rng.randrange(10**9)) for _ in range(N)]
        assert grown_by_adds(KEY_LEN[BALANCES], made) <= 12 * N


class TestRecordedGrowthBatchKeepsItsLeaves:
    def test_a_recorded_run_holds_its_leaves_and_a_slot_each(self, traced):
        # growth records each checkpoint's adds to an accumulator as one run
        # before its commit, and the commit's merge reads the run: until
        # then, the batch holds each tuple's leaf and one list slot, and no
        # key object (about 65 bytes more per tuple) or dict slot (about 40)
        key_len = KEY_LEN[BALANCES]
        rng = random.Random(6)
        made = [balance_element(rng.randbytes(20), 1 + rng.randrange(10**9)) for _ in range(2 * N)]
        network = StorageNetwork()
        network.register(AID, key_len)
        network.commit({AID: network.changes(AID, [("add", element) for element in made[:N]])})
        leaves_made = sum(sys.getsizeof(element_digest(element[:key_len]) + element) for element in made[N:])
        batch = network.changes(AID)
        gc.collect()
        before, _peak = tracemalloc.get_traced_memory()
        batch.record_run("add", iter(made[N:]))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
        # beside the slots, the list's header and the slot ``batch.run``
        # gives it, and what the trace itself makes: a few hundred bytes
        assert grown <= leaves_made + 8 * N + 1024
        assert len(batch) == N


class TestLaggingNodeAfterAFreeingMerge:
    @pytest.mark.parametrize("lag", [1, 2])
    def test_serves_its_lagged_root(self, lag):
        # ``lag`` growth batches land; the node still serves the root before the first
        network = grown_network(FaultPolicy.stale(lag))
        lagged = accumulator_value(network, AID)
        old, new = elements(1, N), elements(2, N)
        lagged_regions = {id(node[0]) for node in nodes(network._entry(AID).memory.root) if is_row(node)}
        for part in range(lag):
            batch = new[part * N // lag : (part + 1) * N // lag]
            network.commit({AID: network.changes(AID, [("add", element) for element in batch])})
        assert accumulator_value(network, AID) != lagged
        # the batches rewrote every region of the lagged root into new ones
        assert not lagged_regions & {id(node[0]) for node in nodes(network._entry(AID).memory.root) if is_row(node)}
        for element in old[:: N // 16]:
            assert belongs(lagged, element, network.fetch_witness(AID, element)) == 1
        for element in new[:: N // 16]:
            assert belongs(lagged, element, network.fetch_witness(AID, element)) == 0
