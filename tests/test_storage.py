"""Storage network: serving, chained update building, commits, fault injection."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acctoken.accumulator import BOTTOM, belongs, check_update, core, element_digest, tree
from acctoken.accumulator.witness import encoded_length
from acctoken.erc20 import TokenSystem
from acctoken.erc20.bundle import BALANCES
from acctoken.erc20.elements import balance_element, balance_prefix
from acctoken.errors import AlreadyPresent, NotPresent, StaleAccumulator, StorageError, Unavailable
from acctoken.storage import FaultPolicy, StorageNetwork
from reference_verify import canonical_digest, decode_witness

AID = BALANCES
OWNER = b"\x0a" * 20


def commit(network, op, element):
    return network.commit({AID: network.changes(AID, [(op, element)])})[AID]


def ledger(entry):
    """What a refused commit must leave as it was: root, elements, epoch, index, history and tip."""
    memory, tip = entry.memory, entry.tip
    tip = tip and (tip.value, tip.root, dict(tip.changes.adds), dict(tip.changes.dels), list(tip.steps))
    return memory.root, dict(memory.elements), memory.epoch, list(entry.index), list(entry.history), tip


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
            w = decode_witness(payload)
            expected += encoded_length(w.kind, len(w.steps))
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
        assert network.elements(AID, b"aa") == [b"aa-1"]
        assert network.elements(AID, b"zz") == []
        assert network.surplus(AID) == 0
        assert network.stats == type(network.stats)()
        with pytest.raises(StorageError):
            network.elements(AID, b"a")  # wrong prefix length


class TestCollisions:
    """More than one element under one lookup key: the index keeps them all."""

    def test_lookup_and_elements_return_every_element(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2"])
        network.commit({AID: network.changes(AID, [("add", b"aa-3"), ("add", b"ab-4")])})
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2", b"aa-3"]
        assert network.elements(AID, b"aa") == [b"aa-1", b"aa-2", b"aa-3"]
        assert network.elements(AID, b"ab") == [b"ab-4"]
        assert network.surplus(AID) == 2

    def test_conservation_reports_the_surplus(self):
        system = TokenSystem(OWNER, 1000)
        system.network.commit({BALANCES: system.network.changes(BALANCES, [("add", balance_element(OWNER, 0))])})
        assert sorted(system.network.elements(BALANCES, balance_prefix(OWNER))) == [
            balance_element(OWNER, 0), balance_element(OWNER, 1000)
        ]
        with pytest.raises(AssertionError, match=r"more than one balances tuple \(1 surplus\)"):
            system.check_conservation()

    def test_deleting_one_leaves_the_other(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2", b"ab-3"])
        commit(network, "del", b"aa-1")
        assert network.lookup(AID, b"aa") == [b"aa-2"]
        assert network.elements(AID, b"aa") == [b"aa-2"]
        assert network.surplus(AID) == 0
        commit(network, "del", b"aa-2")
        assert network.lookup(AID, b"aa") == []
        assert network.elements(AID, b"aa") == []
        assert network.elements(AID, b"ab") == [b"ab-3"] and network.surplus(AID) == 0

    def test_replacing_one_in_a_batch(self):
        network = fresh_network(elements=[b"aa-1", b"aa-2"])
        network.commit({AID: network.changes(AID, [("del", b"aa-1"), ("add", b"aa-3")])})
        assert network.lookup(AID, b"aa") == [b"aa-2", b"aa-3"]
        network.commit({AID: network.changes(AID, [("del", b"aa-2"), ("del", b"aa-3"), ("add", b"aa-4")])})
        assert network.elements(AID, b"aa") == [b"aa-4"]

    def test_stale_node_rolls_back_across_a_collision(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"])
        network.commit({AID: network.changes(AID, [("add", b"aa-2"), ("add", b"aa-3")])})
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        network.commit({AID: network.changes(AID, [("del", b"aa-1"), ("del", b"aa-3")])})
        assert network.lookup(AID, b"aa") == [b"aa-1", b"aa-2", b"aa-3"]
        assert network.elements(AID, b"aa") == [b"aa-2"]
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
        tip = network._entry(AID).tip
        assert tip.value == end == tree.digest(tip.root)

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
        network.commit({AID: network.changes(AID, [("add", b"ab-2"), ("del", b"aa-1"), ("add", b"ac-3")])})
        assert network.epoch(AID) == 2
        assert network.lookup(AID, b"aa") == []
        assert network.lookup(AID, b"ac") == [b"ac-3"]

    def test_rejected_commit_leaves_storage_untouched(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1", b"ab-2"])
        entry = network._entry(AID)
        stale = network.changes(AID, [("add", b"aa-3")])
        commit(network, "del", b"ab-2")
        before = ledger(entry)
        with pytest.raises(StaleAccumulator):
            network.commit({AID: stale})
        assert ledger(entry) == before

    def test_adopts_the_tip_the_contract_accepted(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        mid, _ = network.build_update_witness(AID, "del", b"aa-1")
        end, _ = network.build_update_witness(AID, "add", b"ac-3", base=mid)
        tip = network._entry(AID).tip
        assert network.commit({AID: [("del", b"aa-1"), ("add", b"ac-3")]}, {AID: end}) == {AID: end}
        memory = network._entry(AID).memory
        assert memory.root is tip.root and network._entry(AID).tip is None
        (key,) = tip.changes.adds
        assert next(k for k in memory.elements if k == key) is key
        assert network.lookup(AID, b"ac") == [b"ac-3"] and network.lookup(AID, b"aa") == []
        walked = fresh_network(elements=[b"aa-1", b"ab-2"])
        walked.commit({AID: walked.changes(AID, [("del", b"aa-1"), ("add", b"ac-3")])})
        assert memory.root == walked._entry(AID).memory.root

    def test_adopted_leaves_are_the_element_keys(self):
        # every leaf of the adopted root is the very key object that keys its
        # element, the chain's new leaves and the ones kept from before alike
        network = fresh_network(elements=[b"aa-%d" % i for i in range(40)])
        chain = [("del", b"aa-%d" % i) for i in range(0, 40, 3)] + [("add", b"ab-%d" % i) for i in range(30)]
        end = None
        for op, element in chain:
            end, _ = network.build_update_witness(AID, op, element, base=end)
        tip_root = network._entry(AID).tip.root
        network.commit({AID: chain}, {AID: end})
        memory = network._entry(AID).memory
        assert memory.root is tip_root
        keys = {key: key for key in memory.elements}
        stack, leaves = [memory.root], []
        while stack:
            node = stack.pop()
            if tree.leaf_key(node) is not None:
                leaves.append(node)
            elif node:
                stack += node[:2]
        assert len(leaves) == len(keys) == 40 - 14 + 30
        assert all(keys[leaf] is leaf for leaf in leaves)

    @pytest.mark.parametrize("told", [False, True], ids=["none", "other"])
    def test_walks_past_a_tip_of_another_value(self, told):
        # the chain goes on past the batch's value, so the tip is another
        # value than the one the batch reaches, whether it is told it or not
        network = fresh_network(elements=[b"aa-1"])
        mid, _ = network.build_update_witness(AID, "add", b"ab-2")
        mid_root = network._entry(AID).tip.root
        network.build_update_witness(AID, "add", b"ac-3", base=mid)
        tip_root = network._entry(AID).tip.root
        accepted = {AID: mid} if told else None
        commit_value = network.commit({AID: [("add", b"ab-2")]}, accepted)[AID]
        root = network._entry(AID).memory.root
        assert root is not tip_root and root is not mid_root
        assert root == mid_root and commit_value == tree.digest(mid_root) == mid

    def test_adopts_a_chain_begun_on_a_stale_root(self):
        # the stale node serves the root before its last two commits, which
        # took aa-1 out and put it back: another trie of the same key set,
        # so a chain there with the batch's keys reaches the batch's value
        network = fresh_network(FaultPolicy.stale(2), [b"aa-1", b"ab-2"])
        entry = network._entry(AID)
        served, served_value = entry.memory.root, entry.memory.value
        commit(network, "del", b"aa-1")
        commit(network, "add", b"aa-1")
        root, digest = network._serving_root(entry)
        assert root is served is not entry.memory.root and digest is served_value
        end, _ = network.build_update_witness(AID, "add", b"ac-3")
        tip_root = entry.tip.root
        network.commit({AID: [("add", b"ac-3")]}, {AID: end})
        assert entry.memory.root is tip_root
        assert sorted(network.elements(AID)) == [b"aa-1", b"ab-2", b"ac-3"]
        assert network.elements(AID, b"ac") == [b"ac-3"]

    def test_walks_a_chain_of_other_keys(self):
        # the accepted value is a chain's for ab-2, the batch adds ac-3:
        # adopting would leave a trie holding ab-2 beside elements holding
        # ac-3, and the walk reaches another value, so the commit is refused
        network = fresh_network(elements=[b"aa-1"])
        entry = network._entry(AID)
        accepted, _ = network.build_update_witness(AID, "add", b"ab-2")
        before = ledger(entry)
        for batch in ([("add", b"ac-3")], network.changes(AID, [("add", b"ac-3")])):
            with pytest.raises(StorageError, match="do not reach the value the contract accepted"):
                network.commit({AID: batch}, {AID: accepted})
        assert ledger(entry) == before
        value = commit(network, "add", b"ac-3")
        assert value != accepted and value == commit(fresh_network(elements=[b"aa-1"]), "add", b"ac-3")
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
        tip = network._entry(AID).tip
        assert end == served and not tip.changes
        assert network.commit({AID: [("add", b"aa-1")]}, {AID: end}) == {AID: end}
        assert network._entry(AID).memory.root is not tip.root
        assert list(network.elements(AID)) == [b"aa-1"] and network.elements(AID, b"aa") == [b"aa-1"]

    def test_tip_batch_is_the_chains_changes(self, monkeypatch):
        # the tip's batch has the adds and deletes a batch of the same steps
        # has, and every added key is the very leaf the simulation made
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        steps = [("add", b"ac-3"), ("del", b"ac-3"), ("del", b"aa-1"), ("add", b"aa-1"),
                 ("del", b"ab-2"), ("add", b"ad-4")]
        leaves, simulate = {}, core.simulate_update

        def spy(root, digest, op, element):
            result = simulate(root, digest, op, element)
            leaves[element] = result[3]  # an add's new leaf
            return result

        monkeypatch.setattr(core, "simulate_update", spy)
        base = None
        for op, element in steps:
            base, _ = network.build_update_witness(AID, op, element, base=base)
        tip = network._entry(AID).tip
        batch, changes = tip.changes, network.changes(AID, steps)
        assert tip.steps == steps
        assert batch.adds == changes.adds and batch.dels == changes.dels
        assert batch.adds and all(key is leaves[element] for key, element in batch.adds.items())

    def test_a_chain_the_memory_refutes_is_refused_at_the_build(self):
        # a node lagging one epoch serves the root that still holds aa-1;
        # the memory no longer does, so deleting it is refused as it is
        # recorded, and the tip stays as it was
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1", b"ab-2"])
        commit(network, "del", b"aa-1")
        entry = network._entry(AID)
        before = ledger(entry)
        with pytest.raises(NotPresent):
            network.build_update_witness(AID, "del", b"aa-1")
        assert ledger(entry) == before
        mid, _ = network.build_update_witness(AID, "add", b"ac-3")
        with pytest.raises(AlreadyPresent):
            network.build_update_witness(AID, "add", b"ab-2", base=mid)
        assert network._entry(AID).tip.value == mid

    def test_an_accumulator_accepted_without_a_batch_must_hold_its_value(self):
        network = fresh_network(elements=[b"aa-1"])
        entry, held = network._entry(AID), network.accumulator_value(AID)
        assert network.commit({}, {AID: held}) == {} and network.epoch(AID) == 1
        before = ledger(entry)
        with pytest.raises(StorageError, match="holds another value than the contract accepted"):
            network.commit({}, {AID: bytes(32)})
        assert ledger(entry) == before

    def test_epoch_advances(self):
        network = fresh_network()
        commit(network, "add", b"aa-1")
        commit(network, "add", b"ab-2")
        assert network.epoch(AID) == 2


NAMES = ("acc-0", "acc-1", "acc-2")
UNIVERSE = [b"%s-%d" % (prefix, i) for prefix in (b"aa", b"ab", b"ba") for i in range(5)]


class TestRootDigests:
    """Where no branch holds the root's digest (an empty or a lone-leaf root),
    ``Memory.value``, the chain tip's digest and ``tree.digest`` of the root
    still equal the digest of the trie's definition."""

    CASES = {  # start elements, chain of (op, element)
        "empty": ([], [("add", b"aa-1"), ("del", b"aa-1")]),
        "lone-leaf": ([], [("add", b"aa-1")]),
        "delete-to-one-leaf": ([b"aa-1", b"ab-2"], [("del", b"aa-1")]),
        "delete-to-empty": ([b"aa-1"], [("del", b"aa-1")]),
    }

    @staticmethod
    def want(elements):
        return canonical_digest(map(element_digest, elements))

    @pytest.mark.parametrize("case", CASES)
    def test_tip_and_memory_values(self, case):
        start, chain = self.CASES[case]
        network = fresh_network(elements=start)
        entry = network._entry(AID)
        memory = entry.memory
        assert memory.value == tree.digest(memory.root) == self.want(start)
        final = set(start)
        end = None
        for op, element in chain:
            end, _ = network.build_update_witness(AID, op, element, base=end)
            final ^= {element}
        digest, tip_root = entry.tip.value, entry.tip.root
        assert digest == end == tree.digest(tip_root) == self.want(final)
        assert tip_root is tree.EMPTY or tree.leaf_key(tip_root) is not None
        assert network.commit({AID: chain}, {AID: end}) == {AID: end}
        assert memory.root is tip_root
        assert memory.value == tree.digest(memory.root) == network.accumulator_value(AID) == self.want(final)
        walked = fresh_network(elements=start)
        assert walked.commit({AID: walked.changes(AID, chain)}) == {AID: end}

    def test_deployment_state(self):
        system = TokenSystem(OWNER, 1000)
        balances = system.network._entry(BALANCES).memory
        assert tree.leaf_key(balances.root) is not None  # one balance tuple: a lone leaf
        assert balances.value == tree.digest(balances.root) == self.want([balance_element(OWNER, 1000)])
        assert system.state.balances_acc == balances.value


@st.composite
def commit_cases(draw):
    """1-3 accumulators holding random elements, with a random batch of steps for each.

    A node lagging one epoch serves the root before a last commit of an
    element no step touches, so a chain built there reaches another value
    than the batch and is walked past. Some batches are first chained through
    ``build_update_witness``: over their own steps (adopted when the node is
    honest and the steps change something) or over all but the last. Returns
    (network, steps per accumulator, the accumulators whose tip the commit
    must adopt).
    """
    lag = draw(st.integers(0, 1))
    network = StorageNetwork(FaultPolicy.stale(lag))
    steps, adopting = {}, set()
    for name in NAMES[: draw(st.integers(1, 3))]:
        network.register(name, index_prefix_len=2)
        held = draw(st.sets(st.sampled_from(UNIVERSE), max_size=8))
        network.commit({name: network.changes(name, [("add", element) for element in sorted(held)])})
        network.commit({name: network.changes(name, [("add", b"zz-0")])})
        batch, start = [], set(held)
        for element in draw(st.lists(st.sampled_from(UNIVERSE), max_size=6)):
            batch.append(("del" if element in held else "add", element))
            held ^= {element}
        chained = draw(st.sampled_from([0, len(batch), len(batch) - 1]))
        base = None
        for op, element in batch[:chained]:
            base, _ = network.build_update_witness(name, op, element, base=base)
        if held != start and chained == len(batch) and not lag:
            adopting.add(name)
        steps[name] = batch
    return network, steps, adopting


class TestCommitAllOrNone:
    """A commit checks every batch before it installs any."""

    @settings(max_examples=150, deadline=None)
    @given(commit_cases(), st.sampled_from(["none", "wrong-digest", "stale"]), st.data())
    def test_refuses_whole_or_reaches_the_walked_tries(self, case, fault, data):
        network, steps, adopting = case
        walked = copy.deepcopy(network)
        right = walked.commit({name: walked.changes(name, batch) for name, batch in steps.items()})
        # a verified transaction's batches are its steps; a batch recorded
        # before an epoch lands (the stale fault) is a Changes
        batches = {name: network.changes(name, batch) for name, batch in steps.items()} if fault == "stale" else steps
        entries = {name: network._entry(name) for name in steps}
        changing = {name for name in steps if walked._entry(name).memory.epoch > entries[name].memory.epoch}
        if fault != "none":
            bad = data.draw(st.sampled_from(sorted(steps)))
            accepted = dict(right)
            if fault == "wrong-digest":
                accepted[bad] = bytes([right[bad][0] ^ 1]) + right[bad][1:]
            else:  # an epoch lands after the batches were recorded; with no
                # accepted values (as in growth) only the staleness check refuses
                network.commit({bad: network.changes(bad, [("add", b"zz-1")])})
                accepted = None
            before = {name: ledger(entry) for name, entry in entries.items()}
            with pytest.raises((StorageError, StaleAccumulator)):
                network.commit(batches, accepted)
            assert {name: ledger(entry) for name, entry in entries.items()} == before
            return
        tips = {name: entry.tip for name, entry in entries.items()}
        assert network.commit(batches, right) == right
        for name, entry in entries.items():
            other = walked._entry(name)
            assert entry.memory.root == other.memory.root and entry.memory.epoch == other.memory.epoch
            assert entry.memory.elements == other.memory.elements and entry.index == other.index
            # a batch that changes nothing installs nothing and leaves its tip
            # (whose root may then be the memory's own)
            adopted = name in changing and tips[name] is not None and entry.memory.root is tips[name].root
            assert entry.tip is (None if name in changing else tips[name]) and adopted == (name in adopting)


PREFIXES = (b"aa", b"ab", b"ba", b"bb")
ELEMENTS = [prefix + b"-%d" % i for prefix in PREFIXES for i in range(50)]


class TestSortedIndex:
    """The lookup index is the accumulator's elements, sorted, after any mix of commits."""

    @staticmethod
    def assert_index(network, states, lag):
        entry = network._entry(AID)
        held = list(entry.memory.elements.values())
        assert entry.index == sorted(held) and set(held) == states[-1]
        # a node lagging ``lag`` epochs serves the elements as they were then
        served = states[max(0, len(states) - 1 - lag)]
        for prefix in PREFIXES + (b"zz",):
            assert network.elements(AID, prefix) == sorted(e for e in held if e.startswith(prefix))
            assert network.lookup(AID, prefix) == sorted(e for e in served if e.startswith(prefix))
        assert network.surplus(AID) == len(held) - len({e[:2] for e in held})

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_index_is_the_sorted_elements(self, lag, data):
        network = fresh_network(FaultPolicy.stale(lag))
        states = [set()]  # the elements after each epoch
        for _ in range(data.draw(st.integers(1, 8))):
            held = states[-1]
            kind = data.draw(st.sampled_from(["growth", "adopted", "walked", "refused"]))
            if kind == "growth":  # up to 200 adds at once, so the index is sorted whole or added to by insort
                absent = sorted(set(ELEMENTS) - held)
                adds = data.draw(st.permutations(absent))[: data.draw(st.integers(0, len(absent)))]
                dels = data.draw(st.lists(st.sampled_from(sorted(held)), unique=True, max_size=3)) if held else []
                batch = network.changes(AID, [("add", e) for e in adds] + [("del", e) for e in dels])
                after = (held | set(adds)) - set(dels)
                network.commit({AID: batch})
            else:
                steps, after = [], set(held)
                for element in data.draw(st.lists(st.sampled_from(ELEMENTS), max_size=5)):
                    steps.append(("del" if element in after else "add", element))
                    after ^= {element}
                value = walked_value(network, steps)
                if kind == "adopted":
                    chained = None
                    try:
                        for op, element in steps:
                            chained, _ = network.build_update_witness(AID, op, element, base=chained)
                    except (AlreadyPresent, NotPresent):
                        assert lag  # the served root is stale; the commit walks
                    else:
                        assert chained in (value, None) or lag
                elif kind == "refused":
                    before = ledger(network._entry(AID))
                    with pytest.raises(StorageError):
                        network.commit({AID: steps}, {AID: bytes(32)})
                    assert ledger(network._entry(AID)) == before
                    after = held
                if kind != "refused":
                    tip = network._entry(AID).tip
                    assert network.commit({AID: steps}, {AID: value}) == {AID: value}
                    if kind == "adopted" and not lag and after != held:
                        assert network._entry(AID).memory.root is tip.root
            if after != held:
                states.append(after)
            self.assert_index(network, states, lag)


def walked_value(network, steps):
    """The value ``steps`` reach from ``network``'s current elements, on a fresh network."""
    other = fresh_network(elements=sorted(network.elements(AID)))
    return other.commit({AID: other.changes(AID, steps)})[AID]


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
        after = network.commit({AID: batch})[AID]
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
