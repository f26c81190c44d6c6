"""What a growth commit holds while it runs: the merge frees the trie it replaces as it goes.

Memory is read with ``tracemalloc`` from before the old trie is built, so the
old nodes the commit frees show in the traced size; a commit that holds them
until it returns peaks above its final size by about the part of the old trie
it replaced.
"""

import gc
import random
import sys
import tracemalloc

import pytest

from acctoken.accumulator import belongs, element_digest, tree
from acctoken.accumulator.hashing import EMPTY_DIGEST
from acctoken.storage import FaultPolicy, StorageNetwork
from storage_views import accumulator_value
from trie_layout import nodes, trie_bytes, whole_leaf

AID = "acc"
N = 2**12
# a commit that keeps every node it replaces until it returns peaks about
# 0.65-0.75 of the old trie above its final size (the replaced branches, and
# the batch read as ints); one that frees them as it goes, about 0.1 (its own
# temporaries, the sorted keys: the element map grows before the merge)
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


def regions(network) -> int:
    """How many regions the accumulator's trie reaches."""
    return len({id(node[0]) for node in nodes(network._entry(AID).memory.root) if len(node) == 2})


class TestGrowthCommitPeaksAtWhatItKeeps:
    def test_the_merge_frees_each_branch_it_replaces_as_it_goes(self, traced):
        # handed the only reference to the old root, the merge holds at any
        # moment only the old subtrees it has yet to visit: it peaks where it
        # ends. A merge that drops a subtree only once it has merged all of
        # it peaks 0.2-0.35 of the old trie above that; one that holds the
        # old trie until it returns, about the whole of it.
        old_keys, new_keys = (sorted(map(element_digest, elements(seed, N))) for seed in (1, 2))
        trie = list(tree.insert_many(tree.EMPTY, EMPTY_DIGEST, old_keys, whole_leaf))  # [root, digest]
        old = trie_bytes(trie[0])
        merged = []

        def merge():
            digest = trie.pop()
            merged.append(tree.insert_many(trie.pop(), digest, new_keys, whole_leaf))

        assert overshoot(merge) < 0.1 * old
        assert merged[0][1] == tree.insert_many(*tree.insert_many(tree.EMPTY, EMPTY_DIGEST, old_keys, whole_leaf), new_keys, whole_leaf)[1]

    def test_a_batch_of_n_adds_into_n_keys(self, traced):
        network = grown_network()
        old = trie_bytes(network._entry(AID).memory.root)
        batch = network.changes(AID, [("add", element) for element in elements(2, N)])
        assert overshoot(lambda: network.commit({AID: batch})) < HELD_SHARE * old

    def test_a_pending_chain_tip_does_not_keep_the_old_trie(self, traced):
        # a sampled transaction dropped after its bundle was built leaves its
        # chain tip: a root that shares all but one path with the memory's
        network = grown_network()
        network.build_update_witness(AID, "add", b"dropped")
        old = trie_bytes(network._entry(AID).memory.root)
        batch = network.changes(AID, [("add", element) for element in elements(2, N)])
        assert overshoot(lambda: network.commit({AID: batch})) < HELD_SHARE * old
        assert network._entry(AID).tip is None and regions(network) >= 200


class TestWholeElementCommitKeepsKeys:
    def test_the_memory_holds_no_element(self, traced):
        # the elements are made while tracing and dropped once committed:
        # what stays is the trie, one key object per element (the leaf, filed
        # under itself) and the element map's table. A memory that also
        # held each 19-byte element would keep about 52 bytes more per key
        network = StorageNetwork()
        network.register(AID)
        gc.collect()
        before, _peak = tracemalloc.get_traced_memory()
        steps = [("add", element) for element in elements(1, N)]
        network.commit({AID: network.changes(AID, steps)})
        del steps
        gc.collect()  # a full collection also empties the free lists the merge filled
        grown = tracemalloc.get_traced_memory()[0] - before
        memory = network._entry(AID).memory
        keys = sum(map(sys.getsizeof, memory.elements))
        assert grown <= trie_bytes(memory.root) + keys + sys.getsizeof(memory.elements) + 8 * N


class TestLaggingNodeAfterAFreeingMerge:
    @pytest.mark.parametrize("lag", [1, 2])
    def test_serves_its_lagged_root(self, lag):
        # ``lag`` growth batches land; the node still serves the root before the first
        network = grown_network(FaultPolicy.stale(lag))
        lagged = accumulator_value(network, AID)
        old, new = elements(1, N), elements(2, N)
        lagged_regions = {id(node[0]) for node in nodes(network._entry(AID).memory.root) if len(node) == 2}
        for part in range(lag):
            batch = new[part * N // lag : (part + 1) * N // lag]
            network.commit({AID: network.changes(AID, [("add", element) for element in batch])})
        assert accumulator_value(network, AID) != lagged
        # the batches rewrote every region of the lagged root into new ones
        assert not lagged_regions & {id(node[0]) for node in nodes(network._entry(AID).memory.root) if len(node) == 2}
        for element in old[:: N // 16]:
            assert belongs(lagged, element, network.fetch_witness(AID, element)) == 1
        for element in new[:: N // 16]:
            assert belongs(lagged, element, network.fetch_witness(AID, element)) == 0
