"""Storage network: serving, chained update building, commits, fault injection."""

import pytest

from acctoken.accumulator import BOTTOM, belongs, check_update, decode_witness, tree, witness_size_bytes
from acctoken.erc20 import TokenSystem
from acctoken.erc20.bundle import BALANCES
from acctoken.erc20.elements import balance_element, balance_prefix
from acctoken.errors import AlreadyPresent, NotPresent, StaleAccumulator, StorageError, Unavailable
from acctoken.storage import FaultPolicy, StorageNetwork

AID = BALANCES
OWNER = b"\x0a" * 20


def commit(network, op, element):
    return network.commit(AID, network.changes(AID, [(op, element)]))


def fresh_network(policy=None, elements=()):
    network = StorageNetwork(policy)
    network.register(AID, index_prefix_len=2)
    for element in elements:
        commit(network, "add", element)
    return network


class TestRegistry:
    def test_register_returns_initial_value(self):
        network = StorageNetwork()
        acc0 = network.register(AID)
        assert acc0 == network.accumulator_value(AID)

    def test_double_register_rejected(self):
        network = fresh_network()
        with pytest.raises(StorageError):
            network.register(AID)

    def test_unknown_id_rejected(self):
        network = StorageNetwork()
        with pytest.raises(StorageError):
            network.fetch_witness("nope", b"x")


class TestHonestServing:
    def test_fetch_member(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        acc = network.accumulator_value(AID)
        payload = network.fetch_witness(AID, b"aa-1")
        assert belongs(acc, b"aa-1", payload) == 1

    def test_fetch_non_member(self):
        network = fresh_network(elements=[b"aa-1"])
        acc = network.accumulator_value(AID)
        assert belongs(acc, b"zz", network.fetch_witness(AID, b"zz")) == 0

    def test_lookup_by_prefix(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2", b"ab-3"])
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2"]
        assert network.lookup(AID, b"zz") == []
        with pytest.raises(StorageError):
            network.lookup(AID, b"a")  # wrong prefix length

    def test_byte_accounting_tracks_witness_sizes(self):
        network = fresh_network(elements=[b"aa-%d" % i for i in range(50)])
        expected = 0
        for i in range(50):
            payload = network.fetch_witness(AID, b"aa-%d" % i)
            expected += witness_size_bytes(decode_witness(payload))
        assert network.stats.witness_fetches == 50
        assert network.stats.witness_bytes == expected
        # the serving API never ships a memory: payloads stay witness-sized
        n = len(network._entry(AID).memory)
        assert network.stats.witness_bytes < n * 33 * 50


class TestLedgerView:
    @pytest.mark.parametrize(
        "policy",
        [FaultPolicy.honest(), FaultPolicy.stale(2), FaultPolicy.corrupt_bits(1.0), FaultPolicy.unavailable(1.0)],
        ids=["honest", "stale", "corrupt-bits", "unavailable"],
    )
    def test_reads_current_elements_without_faults_or_counts(self, policy):
        network = fresh_network(policy, elements=[b"aa-1", b"aa-2", b"ab-3"])
        commit(network, "del", b"aa-2")
        assert sorted(network.elements(AID)) == [b"aa-1", b"ab-3"]
        assert network.elements(AID, b"aa") == (b"aa-1",)
        assert network.elements(AID, b"zz") == ()
        assert sorted(network.lookup_keys(AID)) == [b"aa", b"ab"]
        assert network.stats == type(network.stats)()
        with pytest.raises(StorageError):
            network.elements(AID, b"a")  # wrong prefix length


class TestCollisions:
    """More than one element under one lookup key: the index keeps them all."""

    def test_lookup_and_elements_return_every_element(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2"])
        network.commit(AID, network.changes(AID, [("add", b"aa-3"), ("add", b"ab-4")]))
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2", b"aa-3"]
        assert sorted(network.elements(AID, b"aa")) == [b"aa-1", b"aa-2", b"aa-3"]
        assert network.elements(AID, b"ab") == (b"ab-4",)
        assert len(network.elements(AID)) - len(network.lookup_keys(AID)) == 2

    def test_conservation_reports_the_surplus(self):
        system = TokenSystem(OWNER, 1000)
        system.network.commit(BALANCES, system.network.changes(BALANCES, [("add", balance_element(OWNER, 0))]))
        assert sorted(system.network.elements(BALANCES, balance_prefix(OWNER))) == [
            balance_element(OWNER, 0), balance_element(OWNER, 1000)
        ]
        with pytest.raises(AssertionError, match=r"more than one balances tuple \(1 surplus\)"):
            system.check_conservation()

    def test_deleting_one_leaves_the_other(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2", b"ab-3"])
        commit(network, "del", b"aa-1")
        assert network.lookup(AID, b"aa") == [b"aa-2"]
        assert network.elements(AID, b"aa") == (b"aa-2",)
        commit(network, "del", b"aa-2")
        assert network.lookup(AID, b"aa") == []
        assert network.elements(AID, b"aa") == ()
        assert list(network.lookup_keys(AID)) == [b"ab"]

    def test_replacing_one_in_a_batch(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2"])
        network.commit(AID, network.changes(AID, [("del", b"aa-1"), ("add", b"aa-3")]))
        assert network.lookup(AID, b"aa") == [b"aa-2", b"aa-3"]
        network.commit(AID, network.changes(AID, [("del", b"aa-2"), ("del", b"aa-3"), ("add", b"aa-4")]))
        assert network.elements(AID, b"aa") == (b"aa-4",)

    def test_stale_node_rolls_back_across_a_collision(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"])
        network.commit(AID, network.changes(AID, [("add", b"aa-2"), ("add", b"aa-3")]))
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        network.commit(AID, network.changes(AID, [("del", b"aa-1"), ("del", b"aa-3")]))
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2", b"aa-3"]
        assert network.elements(AID, b"aa") == (b"aa-2",)
        commit(network, "add", b"ab-4")
        assert network.lookup(AID, b"aa") == [b"aa-2"]


class TestBuildUpdateWitness:
    def test_prediction_matches_commit(self):
        network = fresh_network(elements=[b"aa-1"])
        acc = network.accumulator_value(AID)
        predicted, payload = network.build_update_witness(AID, "add", b"ab-9")
        assert check_update(acc, predicted, b"ab-9", payload) == 1
        committed = commit(network, "add", b"ab-9")
        assert committed == predicted

    def test_build_does_not_mutate(self):
        network = fresh_network(elements=[b"aa-1"])
        before = network.accumulator_value(AID)
        network.build_update_witness(AID, "add", b"ab-9")
        assert network.accumulator_value(AID) == before
        assert network.epoch(AID) == 1

    def test_build_mirrors_preconditions(self):
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(AlreadyPresent):
            network.build_update_witness(AID, "add", b"aa-1")
        with pytest.raises(NotPresent):
            network.build_update_witness(AID, "del", b"zz")

    def test_chained_builds_compose(self):
        # del then add, second witness computed on the post-first snapshot
        network = fresh_network(elements=[b"aa-100"])
        acc = network.accumulator_value(AID)
        mid, w_del = network.build_update_witness(AID, "del", b"aa-100")
        end, w_add = network.build_update_witness(AID, "add", b"aa-70", base=mid)
        assert check_update(acc, mid, b"aa-100", w_del) == 1
        assert check_update(mid, end, b"aa-70", w_add) == 1
        # sequential oracle: committing the same ops lands on the same values
        assert commit(network, "del", b"aa-100") == mid
        assert commit(network, "add", b"aa-70") == end

    def test_unknown_base_rejected(self):
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(StorageError):
            network.build_update_witness(AID, "add", b"ab-1", base=b"\x00" * 32)

    def test_commit_clears_the_tip(self):
        network = fresh_network(elements=[b"aa-1"])
        mid, _ = network.build_update_witness(AID, "del", b"aa-1")
        commit(network, "add", b"ab-2")
        assert network._entry(AID).tip is None
        with pytest.raises(StorageError):
            network.build_update_witness(AID, "add", b"ac-3", base=mid)

    def test_new_chain_supersedes_the_old(self):
        network = fresh_network(elements=[b"aa-1"])
        old, _ = network.build_update_witness(AID, "add", b"ab-2")
        first, _ = network.build_update_witness(AID, "add", b"ac-3")
        with pytest.raises(StorageError):
            network.build_update_witness(AID, "add", b"ad-4", base=old)
        # the refused build left the new chain's tip in place
        end, w_add = network.build_update_witness(AID, "add", b"ad-4", base=first)
        assert check_update(first, end, b"ad-4", w_add) == 1

    def test_only_the_tip_is_kept(self):
        network = fresh_network(elements=[b"aa-%d" % i for i in range(8)])
        for i in range(8):
            mid, _ = network.build_update_witness(AID, "del", b"aa-%d" % i)
            end, _ = network.build_update_witness(AID, "add", b"ab-%d" % i, base=mid)
        digest, root, _added, _deleted = network._entry(AID).tip
        assert digest == end == tree.digest(root)

    def test_current_value_is_not_a_base(self):
        # a chain starts without a base; the current value is not a chain tip
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(StorageError):
            network.build_update_witness(AID, "add", b"ab-2", base=network.accumulator_value(AID))


class TestCommit:
    def test_round_trip_and_inverse(self):
        network = fresh_network()
        acc0 = network.accumulator_value(AID)
        commit(network, "add", b"aa-1")
        assert commit(network, "del", b"aa-1") == acc0

    def test_duplicate_add_rejected(self):
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(AlreadyPresent):
            commit(network, "add", b"aa-1")
        with pytest.raises(NotPresent):
            commit(network, "del", b"zz")

    def test_batch_is_one_epoch(self):
        network = fresh_network(elements=[b"aa-1"])
        network.commit(AID, network.changes(AID, [("add", b"ab-2"), ("del", b"aa-1"), ("add", b"ac-3")]))
        assert network.epoch(AID) == 2
        assert network.lookup(AID, b"aa") == []
        assert network.lookup(AID, b"ac") == [b"ac-3"]

    def test_rejected_commit_leaves_storage_untouched(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1", b"ab-2"])
        entry = network._entry(AID)
        stale = network.changes(AID, [("add", b"aa-3")])
        commit(network, "del", b"ab-2")
        before = (entry.memory.root, dict(entry.memory.elements), entry.memory.epoch,
                  dict(entry.index), list(entry.history))
        with pytest.raises(StaleAccumulator):
            network.commit(AID, stale)
        after = (entry.memory.root, entry.memory.elements, entry.memory.epoch, entry.index, list(entry.history))
        assert after == before

    def test_adopts_the_tip_the_contract_accepted(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        mid, _ = network.build_update_witness(AID, "del", b"aa-1")
        end, _ = network.build_update_witness(AID, "add", b"ac-3", base=mid)
        _digest, tip_root, added, _deleted = network._entry(AID).tip
        changes = network.changes(AID, [("del", b"aa-1"), ("add", b"ac-3")])
        assert network.commit(AID, changes, end) == end
        memory = network._entry(AID).memory
        assert memory.root is tip_root and network._entry(AID).tip is None
        (key,) = added
        assert next(k for k in memory.elements if k == key) is key
        assert network.lookup(AID, b"ac") == [b"ac-3"] and network.lookup(AID, b"aa") == []
        walked = fresh_network(elements=[b"aa-1", b"ab-2"])
        walked.commit(AID, walked.changes(AID, [("del", b"aa-1"), ("add", b"ac-3")]))
        assert memory.root == walked._entry(AID).memory.root

    @pytest.mark.parametrize("accepted", [None, b"\x00" * 32], ids=["none", "other"])
    def test_walks_past_a_tip_of_another_value(self, accepted):
        network = fresh_network(elements=[b"aa-1"])
        network.build_update_witness(AID, "add", b"ab-2")
        _digest, tip_root, _added, _deleted = network._entry(AID).tip
        commit_value = network.commit(AID, network.changes(AID, [("add", b"ab-2")]), accepted)
        assert network._entry(AID).memory.root is not tip_root
        assert network._entry(AID).memory.root == tip_root and commit_value == tree.digest(tip_root)

    def test_adopts_a_chain_begun_on_a_stale_root(self):
        # the stale node serves the root before its last two commits, which
        # took aa-1 out and put it back: another trie of the same key set,
        # so a chain there with the batch's keys reaches the batch's value
        network = fresh_network(FaultPolicy.stale(2), [b"aa-1", b"ab-2"])
        entry = network._entry(AID)
        served = entry.memory.root
        commit(network, "del", b"aa-1")
        commit(network, "add", b"aa-1")
        assert network._serving_root(entry) is served is not entry.memory.root
        end, _ = network.build_update_witness(AID, "add", b"ac-3")
        _digest, tip_root, _added, _deleted = entry.tip
        network.commit(AID, network.changes(AID, [("add", b"ac-3")]), end)
        assert entry.memory.root is tip_root
        assert sorted(network.elements(AID)) == [b"aa-1", b"ab-2", b"ac-3"]
        assert network.elements(AID, b"ac") == (b"ac-3",)

    def test_walks_a_chain_of_other_keys(self):
        # the accepted value is a chain's for ab-2, the batch adds ac-3:
        # adopting would leave a trie holding ab-2 beside elements holding ac-3
        network = fresh_network(elements=[b"aa-1"])
        accepted, _ = network.build_update_witness(AID, "add", b"ab-2")
        _digest, tip_root, _added, _deleted = network._entry(AID).tip
        value = network.commit(AID, network.changes(AID, [("add", b"ac-3")]), accepted)
        assert value != accepted and network._entry(AID).memory.root is not tip_root
        assert value == commit(fresh_network(elements=[b"aa-1"]), "add", b"ac-3")
        assert belongs(value, b"ac-3", network.fetch_witness(AID, b"ac-3")) == 1
        assert belongs(value, b"ab-2", network.fetch_witness(AID, b"ab-2")) == 0

    def test_walks_a_chain_of_the_same_value_and_other_keys(self):
        # the stale node serves the root before its last commit, which held
        # aa-1; a chain there that adds and deletes zz-9 ends on the value a
        # batch re-adding aa-1 reaches, but nets to no keys
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"])
        served = network.accumulator_value(AID)
        commit(network, "del", b"aa-1")
        mid, _ = network.build_update_witness(AID, "add", b"zz-9")
        end, _ = network.build_update_witness(AID, "del", b"zz-9", base=mid)
        _digest, tip_root, added, deleted = network._entry(AID).tip
        assert end == served and not added and not deleted
        assert network.commit(AID, network.changes(AID, [("add", b"aa-1")]), end) == end
        assert network._entry(AID).memory.root is not tip_root
        assert list(network.elements(AID)) == [b"aa-1"] and network.elements(AID, b"aa") == (b"aa-1",)

    def test_tip_nets_its_keys_like_a_batch(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        steps = [("add", b"ac-3"), ("del", b"ac-3"), ("del", b"aa-1"), ("add", b"aa-1"),
                 ("del", b"ab-2"), ("add", b"ad-4")]
        base = None
        for op, element in steps:
            base, _ = network.build_update_witness(AID, op, element, base=base)
        _digest, _root, added, deleted = network._entry(AID).tip
        changes = network.changes(AID, steps)
        assert added.keys() == changes.adds.keys() and deleted == changes.dels.keys()
        assert all(key is value for key, value in added.items())

    def test_epoch_advances(self):
        network = fresh_network()
        commit(network, "add", b"aa-1")
        commit(network, "add", b"ab-2")
        assert network.epoch(AID) == 2


class TestCorruptBits:
    def test_full_corruption_detected_by_client(self):
        network = fresh_network(FaultPolicy.corrupt_bits(1.0, seed=3), [b"aa-1"])
        acc = network.accumulator_value(AID)
        payload = network.fetch_witness(AID, b"aa-1")
        assert belongs(acc, b"aa-1", payload) is BOTTOM

    def test_partial_corruption_never_verifies_wrongly(self):
        network = fresh_network(FaultPolicy.corrupt_bits(0.10, seed=4), [b"aa-%d" % i for i in range(32)])
        acc = network.accumulator_value(AID)
        clean = 0
        for i in range(32):
            verdict = belongs(acc, b"aa-%d" % i, network.fetch_witness(AID, b"aa-%d" % i))
            if verdict == 1:
                clean += 1  # the fault left this payload untouched
            else:
                assert verdict is BOTTOM
        assert clean < 32

    def test_determinism_under_seed(self):
        a = fresh_network(FaultPolicy.corrupt_bits(0.3, seed=9), [b"aa-1", b"ab-2"])
        b = fresh_network(FaultPolicy.corrupt_bits(0.3, seed=9), [b"aa-1", b"ab-2"])
        assert a.fetch_witness(AID, b"aa-1") == b.fetch_witness(AID, b"aa-1")
        assert a.fetch_witness(AID, b"zz") == b.fetch_witness(AID, b"zz")


class TestStale:
    def test_witness_lags_one_epoch(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"])
        acc_now = network.accumulator_value(AID)
        commit(network, "add", b"ab-2")
        payload = network.fetch_witness(AID, b"ab-2")
        # served against the pre-commit snapshot: fails for the current value
        assert belongs(network.accumulator_value(AID), b"ab-2", payload) is BOTTOM
        assert belongs(acc_now, b"ab-2", payload) == 0

    def test_stale_lookup_rolls_back_elements(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"])
        commit(network, "add", b"aa-2")
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        commit(network, "add", b"ab-3")
        assert sorted(network.lookup(AID, b"aa")) == [b"aa-1", b"aa-2"]

    def test_batch_is_served_whole_while_stale(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1", b"aa-2"])
        before = network.accumulator_value(AID)
        batch = network.changes(AID, [("del", b"aa-1"), ("add", b"aa-3"), ("add", b"ab-4")])
        batch.record("add", b"aa-5")
        batch.record("del", b"aa-5")
        after = network.commit(AID, batch)
        # the served root and the served element view are both the pre-batch ones
        assert belongs(before, b"aa-1", network.fetch_witness(AID, b"aa-1")) == 1
        assert belongs(before, b"aa-3", network.fetch_witness(AID, b"aa-3")) == 0
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2"]
        assert network.lookup(AID, b"ab") == []
        commit(network, "add", b"ac-6")
        assert belongs(after, b"aa-3", network.fetch_witness(AID, b"aa-3")) == 1
        assert network.lookup(AID, b"aa") == [b"aa-2", b"aa-3"]
        assert network.lookup(AID, b"ab") == [b"ab-4"]

    def test_history_keeps_what_the_lag_serves(self):
        for lag in (0, 1, 3):
            network = fresh_network(FaultPolicy.stale(lag), [b"aa-%d" % i for i in range(6)])
            assert len(network._entry(AID).history) == lag  # the commits it lags behind

    def test_zero_lag_is_honest(self):
        network = fresh_network(FaultPolicy.stale(0), [b"aa-1"])
        acc = network.accumulator_value(AID)
        assert belongs(acc, b"aa-1", network.fetch_witness(AID, b"aa-1")) == 1


class TestUnavailable:
    def test_always_refuses(self):
        network = fresh_network(FaultPolicy.unavailable(1.0), [b"aa-1"])
        with pytest.raises(Unavailable):
            network.fetch_witness(AID, b"aa-1")
        with pytest.raises(Unavailable):
            network.build_update_witness(AID, "add", b"ab-2")

    def test_sometimes_refuses_deterministically(self):
        outcomes = []
        for _ in range(2):
            network = fresh_network(FaultPolicy.unavailable(0.5, seed=5), [b"aa-1"])
            run = []
            for _ in range(20):
                try:
                    network.fetch_witness(AID, b"aa-1")
                    run.append(True)
                except Unavailable:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert True in outcomes[0] and False in outcomes[0]


class TestPolicyValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            FaultPolicy.corrupt_bits(1.5)
        with pytest.raises(ValueError):
            FaultPolicy.stale(-1)
        with pytest.raises(ValueError):
            FaultPolicy.unavailable(2.0)
        with pytest.raises(ValueError):
            FaultPolicy(mode="weird")
