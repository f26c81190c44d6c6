"""Storage network: serving, chained update building, commits, fault injection."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acctoken.accumulator import BOTTOM, belongs, check_update, core, element_digest, tree
from acctoken.accumulator.witness import encoded_length
from acctoken.erc20 import TokenSystem
from acctoken.erc20.bundle import BALANCES, KEY_LEN
from acctoken.erc20.elements import balance_element
from acctoken.errors import AlreadyPresent, NotPresent, StaleAccumulator, StorageError, Unavailable
from acctoken.storage import FaultPolicy, StorageNetwork
from reference_verify import canonical_digest, decode_witness, keyed
from storage_views import accumulator_epoch, accumulator_value
from trie_layout import children, node_digest, read_out

AID = BALANCES
OWNER = b"\x0a" * 20


def commit(network, op, element):
    return network.commit({AID: network.changes(AID, [(op, element)])})[AID]


def ledger(entry):
    """What a refused commit must leave as it was: root, elements, epoch, history and tip."""
    memory, tip = entry.memory, entry.tip
    tip = tip and (tip.value, tip.root, dict(tip.changes.adds), dict(tip.changes.dels), list(tip.steps))
    return memory.root, dict(memory.elements), memory.epoch, list(entry.history), tip


def keys(*elements):
    """The sorted keys of whole elements: what a whole-element accumulator's ledger view holds."""
    return sorted(map(element_digest, elements))


def fresh_network(policy=None, elements=(), key_len=None):
    """A network holding ``elements`` in one accumulator, keyed by whole
    elements, or by their first ``key_len`` bytes (``b"aa-1"`` by ``b"aa"``)."""
    network = StorageNetwork(policy)
    network.register(AID, key_len)
    for element in elements:
        commit(network, "add", element)
    return network


class TestRegistry:
    def test_register_returns_initial_value(self):
        network = StorageNetwork()
        acc0 = network.register(AID)
        assert acc0 == accumulator_value(network, AID)

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
        acc = accumulator_value(network, AID)
        payload = network.fetch_witness(AID, b"aa-1")
        assert belongs(acc, b"aa-1", payload) == 1

    def test_fetch_non_member(self):
        network = fresh_network(elements=[b"aa-1"])
        acc = accumulator_value(network, AID)
        assert belongs(acc, b"zz", network.fetch_witness(AID, b"zz")) == 0

    def test_lookup_by_prefix(self):
        network = fresh_network(elements=[b"aa-1", b"ab-3"], key_len=2)
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        assert network.lookup(AID, b"zz") == []
        with pytest.raises(StorageError):
            network.lookup(AID, b"a")  # wrong prefix length
        with pytest.raises(StorageError, match="keyed by whole elements and serves no lookup"):
            fresh_network(elements=[b"aa-1"]).lookup(AID, b"aa")

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
        network = fresh_network(policy, elements=[b"aa-1", b"ba-2", b"ab-3"], key_len=2)
        commit(network, "del", b"ba-2")
        assert sorted(network.elements(AID)) == [b"aa-1", b"ab-3"]
        assert network.elements(AID, b"aa") == [b"aa-1"]
        assert network.elements(AID, b"ba") == network.elements(AID, b"zz") == []
        assert network.stats == type(network.stats)()
        with pytest.raises(StorageError, match="lookups require a 2-byte prefix"):
            network.elements(AID, b"a")  # wrong prefix length
        whole = fresh_network(policy, elements=[b"aa-1"])
        assert list(whole.elements(AID)) == keys(b"aa-1")  # a whole-element accumulator holds keys
        with pytest.raises(StorageError, match="keyed by whole elements and serves no lookup"):
            whole.elements(AID, b"aa")


class TestBuildUpdateWitness:
    def test_prediction_matches_commit(self):
        network = fresh_network(elements=[b"aa-1"])
        acc = accumulator_value(network, AID)
        predicted, payload = network.build_update_witness(AID, "add", b"ab-9")
        assert check_update(acc, predicted, b"ab-9", payload) == 1
        committed = commit(network, "add", b"ab-9")
        assert committed == predicted

    def test_build_does_not_mutate(self):
        network = fresh_network(elements=[b"aa-1"])
        before = accumulator_value(network, AID)
        network.build_update_witness(AID, "add", b"ab-9")
        assert accumulator_value(network, AID) == before
        assert accumulator_epoch(network, AID) == 1

    def test_build_mirrors_preconditions(self):
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(AlreadyPresent):
            network.build_update_witness(AID, "add", b"aa-1")
        with pytest.raises(NotPresent):
            network.build_update_witness(AID, "del", b"zz")

    def test_chained_builds_compose(self):
        # del then add, second witness computed on the post-first snapshot
        network = fresh_network(elements=[b"aa-100"])
        acc = accumulator_value(network, AID)
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
        assert tip.value == end == node_digest(tip.root)

    def test_current_value_is_not_a_base(self):
        # a chain starts without a base; the current value is not a chain tip
        network = fresh_network(elements=[b"aa-1"])
        with pytest.raises(StorageError):
            network.build_update_witness(AID, "add", b"ab-2", base=accumulator_value(network, AID))


class TestCommit:
    def test_round_trip_and_inverse(self):
        network = fresh_network()
        acc0 = accumulator_value(network, AID)
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
        assert accumulator_epoch(network, AID) == 2
        assert sorted(network.elements(AID)) == keys(b"ab-2", b"ac-3")

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
        assert sorted(network.elements(AID)) == keys(b"ab-2", b"ac-3")
        walked = fresh_network(elements=[b"aa-1", b"ab-2"])
        walked.commit({AID: walked.changes(AID, [("del", b"aa-1"), ("add", b"ac-3")])})
        assert read_out(memory.root) == read_out(walked._entry(AID).memory.root)

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
            else:
                stack += children(node)
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
        assert read_out(root) == read_out(mid_root) and commit_value == node_digest(mid_root) == mid

    def test_adopts_a_chain_begun_on_a_stale_root(self):
        # the stale node serves the root before its last two commits, which
        # took aa-1 out and put it back: another trie of the same key set,
        # so a chain there with the batch's keys reaches the batch's value
        network = fresh_network(FaultPolicy.stale(2), [b"aa-1", b"ab-2"])
        entry = network._entry(AID)
        served, served_value = entry.memory.root, entry.memory.value
        commit(network, "del", b"aa-1")
        commit(network, "add", b"aa-1")
        root, digest, _held = network._serving(entry)
        assert root is served is not entry.memory.root and digest is served_value
        end, _ = network.build_update_witness(AID, "add", b"ac-3")
        tip_root = entry.tip.root
        network.commit({AID: [("add", b"ac-3")]}, {AID: end})
        assert entry.memory.root is tip_root
        assert sorted(network.elements(AID)) == keys(b"aa-1", b"ab-2", b"ac-3")

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
        served = accumulator_value(network, AID)
        commit(network, "del", b"aa-1")
        mid, _ = network.build_update_witness(AID, "add", b"zz-9")
        end, _ = network.build_update_witness(AID, "del", b"zz-9", base=mid)
        tip = network._entry(AID).tip
        assert end == served and not tip.changes
        assert network.commit({AID: [("add", b"aa-1")]}, {AID: end}) == {AID: end}
        assert network._entry(AID).memory.root is not tip.root
        assert list(network.elements(AID)) == keys(b"aa-1")

    def test_tip_batch_is_the_chains_changes(self, monkeypatch):
        # the tip's batch has the adds and deletes a batch of the same steps
        # has, and every added key is the very leaf the simulation made
        network = fresh_network(elements=[b"aa-1", b"ab-2"])
        steps = [("add", b"ac-3"), ("del", b"ac-3"), ("del", b"aa-1"), ("add", b"aa-1"),
                 ("del", b"ab-2"), ("add", b"ad-4")]
        leaves, simulate = {}, core.simulate_update

        def spy(root, digest, op, element, *held):
            result = simulate(root, digest, op, element, *held)
            if op == "add":
                leaves[element_digest(element)] = result[3]  # the new leaf
            return result

        monkeypatch.setattr(core, "simulate_update", spy)
        base = None
        for op, element in steps:
            base, _ = network.build_update_witness(AID, op, element, base=base)
        tip = network._entry(AID).tip
        batch, changes = tip.changes, network.changes(AID, steps)
        assert tip.steps == steps
        assert batch.adds == changes.adds and batch.dels == changes.dels
        # each added key is filed under itself
        assert batch.adds and all(key is value is leaves[key] for key, value in batch.adds.items())

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
        entry, held = network._entry(AID), accumulator_value(network, AID)
        assert network.commit({}, {AID: held}) == {} and accumulator_epoch(network, AID) == 1
        before = ledger(entry)
        with pytest.raises(StorageError, match="holds another value than the contract accepted"):
            network.commit({}, {AID: bytes(32)})
        assert ledger(entry) == before

    def test_epoch_advances(self):
        network = fresh_network()
        commit(network, "add", b"aa-1")
        commit(network, "add", b"ab-2")
        assert accumulator_epoch(network, AID) == 2


NAMES = ("acc-0", "acc-1", "acc-2")
PREFIXES = (b"aa", b"ab", b"ba", b"bb", b"ca", b"cb")
# keyed by their 2-byte prefix, the elements of one prefix share a key
UNIVERSE = [b"%s-%d" % (prefix, i) for prefix in PREFIXES for i in range(3)]


def steps_to(held: dict, picks) -> list:
    """Valid (op, element) steps, one or two per pick, and ``held`` (prefix
    -> element) moved along: a held pick is deleted, one under a free
    prefix added, and one under a taken prefix replaces the element there,
    a delete then an add."""
    steps = []
    for element in picks:
        prefix = element[:2]
        if held.get(prefix) == element:
            steps.append(("del", element))
            del held[prefix]
            continue
        if prefix in held:
            steps.append(("del", held[prefix]))
        steps.append(("add", element))
        held[prefix] = element
    return steps


class TestRootDigests:
    """Where no branch holds the root's digest (an empty or a lone-leaf root),
    ``Memory.value``, the chain tip's digest and the layout reader's digest of the root
    still equal the digest of the trie's definition."""

    CASES = {  # start elements, chain of (op, element)
        "empty": ([], [("add", b"aa-1"), ("del", b"aa-1")]),
        "lone-leaf": ([], [("add", b"aa-1")]),
        "delete-to-one-leaf": ([b"aa-1", b"ab-2"], [("del", b"aa-1")]),
        "delete-to-empty": ([b"aa-1"], [("del", b"aa-1")]),
    }

    @staticmethod
    def want(elements, key_len=None):
        leaves = keyed(elements, key_len)
        return canonical_digest(leaves, leaves)

    @pytest.mark.parametrize("case", CASES)
    def test_tip_and_memory_values(self, case):
        start, chain = self.CASES[case]
        network = fresh_network(elements=start)
        entry = network._entry(AID)
        memory = entry.memory
        assert memory.value == node_digest(memory.root) == self.want(start)
        final = set(start)
        end = None
        for op, element in chain:
            end, _ = network.build_update_witness(AID, op, element, base=end)
            final ^= {element}
        digest, tip_root = entry.tip.value, entry.tip.root
        assert digest == end == node_digest(tip_root) == self.want(final)
        assert tip_root is tree.EMPTY or tree.leaf_key(tip_root) is not None
        assert network.commit({AID: chain}, {AID: end}) == {AID: end}
        assert memory.root is tip_root
        assert memory.value == node_digest(memory.root) == accumulator_value(network, AID) == self.want(final)
        walked = fresh_network(elements=start)
        assert walked.commit({AID: walked.changes(AID, chain)}) == {AID: end}

    def test_deployment_state(self):
        system = TokenSystem(OWNER, 1000)
        balances = system.network._entry(BALANCES).memory
        assert tree.leaf_key(balances.root) is not None  # one balance tuple: a lone leaf
        deployed, key_len = [balance_element(OWNER, 1000)], KEY_LEN[BALANCES]
        assert balances.value == node_digest(balances.root, keyed(deployed, key_len)) == self.want(deployed, key_len)
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
        network.register(name, 2)
        held = {}
        network.commit({name: network.changes(name, steps_to(held, draw(st.lists(st.sampled_from(UNIVERSE), max_size=8))))})
        network.commit({name: network.changes(name, [("add", b"zz-0")])})
        start = dict(held)
        batch = steps_to(held, draw(st.lists(st.sampled_from(UNIVERSE), max_size=6)))
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
                network.commit({bad: network.changes(bad, [("add", b"zy-1")])})
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
            assert read_out(entry.memory.root) == read_out(other.memory.root) and entry.memory.epoch == other.memory.epoch
            assert entry.memory.elements == other.memory.elements
            # a batch that changes nothing installs nothing and leaves its tip
            # (whose root may then be the memory's own)
            adopted = name in changing and tips[name] is not None and entry.memory.root is tips[name].root
            assert entry.tip is (None if name in changing else tips[name]) and adopted == (name in adopting)


class TestLookupReadsTheKey:
    """``lookup`` and ``elements(acc, prefix)`` read the one element a
    prefix's key holds, after any mix of commits: the current one, or under
    ``stale(lag)`` the one the lagged root held, whose witnesses the node
    serves."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2), st.data())
    def test_reads_match_a_model(self, lag, data):
        network = fresh_network(FaultPolicy.stale(lag), key_len=2)
        states = [({}, accumulator_value(network, AID))]  # (prefix -> element, value) after each epoch
        for _ in range(data.draw(st.integers(1, 8))):
            held = dict(states[-1][0])
            steps = steps_to(held, data.draw(st.lists(st.sampled_from(UNIVERSE), max_size=6)))
            how = data.draw(st.sampled_from(["recorded", "adopted", "walked"]))
            if how == "recorded":
                network.commit({AID: network.changes(AID, steps)})
            else:
                value = walked_value(network, steps)
                if how == "adopted" and not lag:  # a lagging node builds on its old root, and the commit walks
                    chained = None
                    for op, element in steps:
                        chained, _ = network.build_update_witness(AID, op, element, base=chained)
                network.commit({AID: steps}, {AID: value})
            if held != states[-1][0]:
                states.append((held, accumulator_value(network, AID)))
            served, served_value = states[max(0, len(states) - 1 - lag)]
            for prefix in PREFIXES + (b"zz",):
                now, then = states[-1][0].get(prefix), served.get(prefix)
                assert network.elements(AID, prefix) == ([now] if now else [])
                assert network.lookup(AID, prefix) == ([then] if then else [])
            for element in UNIVERSE:
                then = served.get(element[:2])
                want = 1 if then == element else 0 if then is None else BOTTOM
                assert belongs(served_value, element, network.fetch_witness(AID, element), key_len=2) == want


def walked_value(network, steps):
    """The value ``steps`` reach from ``network``'s current elements, on a fresh network."""
    other = fresh_network(elements=sorted(network.elements(AID)), key_len=2)
    return other.commit({AID: other.changes(AID, steps)})[AID]


class TestOneElementPerKey:
    """Keyed by a 2-byte prefix, aa-1 and aa-2 share a key, which holds one of them."""

    def test_a_taken_key_refuses_an_add_and_a_foreign_delete(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"], key_len=2)
        before = ledger(network._entry(AID))
        with pytest.raises(AlreadyPresent):
            network.changes(AID, [("add", b"aa-2")])
        with pytest.raises(NotPresent):
            network.changes(AID, [("del", b"aa-2")])
        with pytest.raises(AlreadyPresent):
            network.build_update_witness(AID, "add", b"aa-2")
        with pytest.raises(NotPresent):
            network.build_update_witness(AID, "del", b"aa-2")
        assert ledger(network._entry(AID)) == before

    def test_a_witness_under_a_taken_key_proves_nothing(self):
        # asked about aa-2, storage serves aa's path, whose leaf holds aa-1
        network = fresh_network(elements=[b"aa-1", b"ab-2"], key_len=2)
        acc = accumulator_value(network, AID)
        payload = network.fetch_witness(AID, b"aa-2")
        assert decode_witness(payload).occupant == payload[1:33]
        assert belongs(acc, b"aa-2", payload, key_len=2) is BOTTOM
        assert belongs(acc, b"aa-1", network.fetch_witness(AID, b"aa-1"), key_len=2) == 1
        assert belongs(acc, b"ac-1", network.fetch_witness(AID, b"ac-1"), key_len=2) == 0

    def test_a_replace_is_a_delete_then_an_add(self):
        network = fresh_network(elements=[b"aa-1", b"ab-2"], key_len=2)
        before = accumulator_value(network, AID)
        mid, w_del = network.build_update_witness(AID, "del", b"aa-1")
        end, w_add = network.build_update_witness(AID, "add", b"aa-2", base=mid)
        assert check_update(before, mid, b"aa-1", w_del, key_len=2) == 1
        assert check_update(mid, end, b"aa-2", w_add, key_len=2) == 1
        network.policy = FaultPolicy.stale(1)
        assert network.commit({AID: [("del", b"aa-1"), ("add", b"aa-2")]}, {AID: end}) == {AID: end}
        assert network.elements(AID, b"aa") == [b"aa-2"]
        # the node lags one epoch: it serves aa-1 under aa, and its witnesses
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        assert belongs(before, b"aa-1", network.fetch_witness(AID, b"aa-1"), key_len=2) == 1
        assert belongs(before, b"aa-2", network.fetch_witness(AID, b"aa-2"), key_len=2) is BOTTOM


class TestCorruptBits:
    def test_full_corruption_detected_by_client(self):
        network = fresh_network(FaultPolicy.corrupt_bits(1.0, seed=3), [b"aa-1"])
        acc = accumulator_value(network, AID)
        payload = network.fetch_witness(AID, b"aa-1")
        assert belongs(acc, b"aa-1", payload) is BOTTOM

    def test_partial_corruption_never_verifies_wrongly(self):
        network = fresh_network(FaultPolicy.corrupt_bits(0.10, seed=4), [b"aa-%d" % i for i in range(32)])
        acc = accumulator_value(network, AID)
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
        acc_now = accumulator_value(network, AID)
        commit(network, "add", b"ab-2")
        payload = network.fetch_witness(AID, b"ab-2")
        # served against the pre-commit snapshot: fails for the current value
        assert belongs(accumulator_value(network, AID), b"ab-2", payload) is BOTTOM
        assert belongs(acc_now, b"ab-2", payload) == 0

    def test_stale_lookup_rolls_back_elements(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1"], key_len=2)
        network.commit({AID: network.changes(AID, [("del", b"aa-1"), ("add", b"aa-2")])})
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        commit(network, "add", b"ab-3")
        assert network.lookup(AID, b"aa") == [b"aa-2"]
        assert network.lookup(AID, b"ab") == []

    def test_batch_is_served_whole_while_stale(self):
        network = fresh_network(FaultPolicy.stale(1), [b"aa-1", b"ba-2"], key_len=2)
        before = accumulator_value(network, AID)
        batch = network.changes(AID, [("del", b"aa-1"), ("add", b"ac-3"), ("add", b"ab-4")])
        batch.record("add", b"ad-5")
        batch.record("del", b"ad-5")
        after = network.commit({AID: batch})[AID]
        # the served root and the served element view are both the pre-batch ones
        assert belongs(before, b"aa-1", network.fetch_witness(AID, b"aa-1"), key_len=2) == 1
        assert belongs(before, b"ac-3", network.fetch_witness(AID, b"ac-3"), key_len=2) == 0
        assert network.lookup(AID, b"aa") == [b"aa-1"]
        assert network.lookup(AID, b"ab") == []
        commit(network, "add", b"ae-6")
        assert belongs(after, b"ac-3", network.fetch_witness(AID, b"ac-3"), key_len=2) == 1
        assert network.lookup(AID, b"aa") == []
        assert network.lookup(AID, b"ab") == [b"ab-4"]

    def test_history_keeps_what_the_lag_serves(self):
        for lag in (0, 1, 3):
            network = fresh_network(FaultPolicy.stale(lag), [b"aa-%d" % i for i in range(6)])
            assert len(network._entry(AID).history) == lag  # the commits it lags behind

    def test_a_policy_assigned_to_a_live_network_takes_effect(self):
        network = fresh_network(elements=[b"aa-1"], key_len=2)
        before = accumulator_value(network, AID)
        network.policy = FaultPolicy.stale(1)
        commit(network, "add", b"ab-2")
        assert belongs(before, b"ab-2", network.fetch_witness(AID, b"ab-2"), key_len=2) == 0
        assert network.lookup(AID, b"ab") == []
        # back to honest: the current value at once, and the history goes at the next commit
        network.policy = FaultPolicy.honest()
        after = accumulator_value(network, AID)
        assert belongs(after, b"ab-2", network.fetch_witness(AID, b"ab-2"), key_len=2) == 1
        assert network.lookup(AID, b"ab") == [b"ab-2"]
        commit(network, "add", b"ac-3")
        assert not network._entry(AID).history

    def test_zero_lag_is_honest(self):
        network = fresh_network(FaultPolicy.stale(0), [b"aa-1"])
        acc = accumulator_value(network, AID)
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
