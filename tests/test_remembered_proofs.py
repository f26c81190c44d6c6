"""Remembered read proofs: a read asks storage nothing for a key it has proven, and stays sound.

The client remembers, by key, the element its reads proved a member of each
accumulator, against the value it was proven for, and follows the chains
of the transactions its system commits. The stateful test runs one
``TokenSystem`` through writes of its own client, which the client follows,
and through changes it does not follow: a second submitter that executes on
the contract and commits the record's chains to storage itself, and
bootstrap plans. Reads go to the node the last ``serve`` rule picked: the
system's storage, served honestly or with flipped bits, or a lagging node,
a copy of that storage from before its latest commit. A lagging node serves
superseded tuples, so a client that proved one against a value it did not
follow would return it; and a remembered key is read with no request, so a
client whose memory holds a superseded tuple, or another key's tuple, under
a key returns it whatever the node. After every step each read returns the
ledger's value or raises.
"""

import copy

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from acctoken.bench import effective_allowances
from acctoken.bench.workload import true_balance
from acctoken.erc20 import TokenClient, TokenSystem, encode_bundle, plan
from acctoken.erc20.bundle import ACCUMULATORS, ALLOWED_BALANCES, BALANCES, KEY_LEN
from acctoken.erc20.elements import (
    allowance_prefix,
    balance_element,
    balance_prefix,
    decode_allowance_element,
    decode_balance_element,
)
from acctoken.errors import AcctokenError, Unavailable
from acctoken.storage import CORRUPT_BITS, HONEST, STALE, FaultPolicy
from storage_views import accumulator_epoch, accumulator_value

A = bytes.fromhex("aa" * 20)
B = bytes.fromhex("bb" * 20)
C = bytes.fromhex("cc" * 20)
S = bytes.fromhex("55" * 20)

ACCOUNTS = (A, B, C)
PAIRS = tuple((owner, spender) for owner in ACCOUNTS for spender in ACCOUNTS if owner != spender)
OPS = {"transfer": 2, "approve": 2, "transfer_from": 3}  # op -> addresses it takes

accounts = st.sampled_from(ACCOUNTS)
amounts = st.integers(0, 25)


class RememberedProofs(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = TokenSystem(A, 100)
        # every account funded and every pair approved, so that most writes land
        self.system.bootstrap(
            [plan.transfer(A, B, 30, plan.Announced([100])), plan.transfer(A, C, 30, plan.Announced([70]))]
            + [plan.approve(owner, spender, 20, plan.Announced([])) for owner, spender in PAIRS]
        )
        self.other = TokenClient(self.system.contract, self.system.network)  # the second submitter's client
        self.lagging = copy.deepcopy(self.system.network)
        self.mode = HONEST

    def _route(self):
        network = self.system.network
        network.policy = FaultPolicy.corrupt_bits(0.02) if self.mode == CORRUPT_BITS else FaultPolicy.honest()
        self.system.client.network = self.lagging if self.mode == STALE else network

    def _commits(self, write):
        """Run ``write``; once it has committed, the lagging node is the storage from before it."""
        network = self.system.network
        before, epochs = copy.deepcopy(network), [accumulator_epoch(network, name) for name in ACCUMULATORS]
        try:
            write()
        except AcctokenError:
            return
        if epochs != [accumulator_epoch(network, name) for name in ACCUMULATORS]:
            self.lagging = before
            self.lagging.policy = FaultPolicy.honest()
            self._route()

    @rule(mode=st.sampled_from((HONEST, STALE, CORRUPT_BITS)))
    def serve(self, mode):
        self.mode = mode
        self._route()

    @rule(op=st.sampled_from(sorted(OPS)), addresses=st.lists(accounts, min_size=3, max_size=3), tokens=amounts)
    def submit(self, op, addresses, tokens):
        args = addresses[: OPS[op]]
        self._commits(lambda: getattr(self.system, op)(*args, tokens))

    @rule(op=st.sampled_from(sorted(OPS)), addresses=st.lists(accounts, min_size=3, max_size=3), tokens=amounts)
    def other_submits(self, op, addresses, tokens):
        """Another submitter's transaction, which the client does not follow."""
        args = addresses[: OPS[op]]

        def submit():
            bundle = getattr(self.other, "build_" + op)(*args, tokens)
            record = getattr(self.system.contract, op)(*args, tokens, bundle.announced, encode_bundle(bundle))
            accepted = self.system.state
            self.system.network.commit(record.updates, {name: accepted.value_of(name) for name in ACCUMULATORS})

        self._commits(submit)

    @rule(sender=accounts, to=accounts, tokens=amounts, owner=accounts, spender=accounts, allowance=amounts)
    def bootstrap(self, sender, to, tokens, owner, spender, allowance):
        """A transfer and an approval through ``bootstrap``, announced from the ledger; not followed."""
        network = self.system.network
        prior_balance = [decode_balance_element(e)[1] for e in network.elements(BALANCES, balance_prefix(to))]
        prior_allowance = [
            decode_allowance_element(e)[2] for e in network.elements(ALLOWED_BALANCES, allowance_prefix(owner, spender))
        ]
        plans = [
            plan.transfer(sender, to, tokens, plan.Announced([true_balance(self.system, sender), *prior_balance])),
            plan.approve(owner, spender, allowance, plan.Announced(prior_allowance)),
        ]
        self._commits(lambda: self.system.bootstrap(plans))

    @invariant()
    def contract_and_storage_agree(self):
        for name in ACCUMULATORS:
            assert accumulator_value(self.system.network, name) == self.system.state.value_of(name)

    @invariant()
    def reads_return_the_ledger_or_raise(self):
        allowances = effective_allowances(self.system)
        reads = [(self.system.balance_of, (owner,), true_balance(self.system, owner)) for owner in ACCOUNTS]
        reads += [(self.system.allowance, pair, allowances.get(pair, 0)) for pair in PAIRS]
        for read, args, want in reads:
            try:
                got = read(*args)
            except AcctokenError:
                continue
            assert got == want, f"{read.__name__} read {got}, the ledger holds {want} ({self.mode} storage)"


# a fixed search: the same 100 programs of up to 30 steps on every run, a
# budget at which ``TestMutantFollow`` checks that the search finds each
# mutant ``follow``
BUDGET = settings(max_examples=100, stateful_step_count=30, deadline=None, derandomize=True, database=None)
RememberedProofs.TestCase.settings = BUDGET
TestRememberedProofs = RememberedProofs.TestCase


def _key_of(acc, op, element):
    # the key a chain step is under: a replace's pair shares one
    return (element[0] if op == "replace" else element)[: KEY_LEN[acc]]


def follow_keeping_replaced(client, before, after, updates):
    """A mutant ``TokenClient.follow`` that forgets what a chain deletes but
    keeps the old element of each replace under its key."""
    for acc, steps in updates.items():
        value, held = client._proven.get(acc, (None, None))
        if value != before.value_of(acc):
            continue
        for op, element in steps:
            if op == "del":
                held.pop(_key_of(acc, op, element), None)
        client._proven[acc] = after.value_of(acc), held


def follow_filing_under_previous_key(client, before, after, updates):
    """A mutant ``TokenClient.follow`` that files each replace's new element
    under the key of the step before it in the chain (the first step's under
    the last step's key), so a transfer's sender tuple lands under the
    recipient's key, and the recipient's under the sender's."""
    for acc, steps in updates.items():
        value, held = client._proven.get(acc, (None, None))
        if value != before.value_of(acc):
            continue
        keys = [_key_of(acc, op, element) for op, element in steps]
        for i, (op, element) in enumerate(steps):
            if op == "del":
                held.pop(keys[i], None)
            elif op == "replace" and keys[i - 1] in held:
                held[keys[i - 1]] = element[1]
        client._proven[acc] = after.value_of(acc), held


def killed_by_the_ledger_check(monkeypatch, mutant):
    """Run TestRememberedProofs's own search with ``mutant`` as ``follow``,
    stopped at the first failing program, which must fail a read's "the
    ledger holds" check, not crash."""
    monkeypatch.setattr(TokenClient, "follow", mutant)
    with pytest.raises(AssertionError, match="the ledger holds"):
        run_state_machine_as_test(RememberedProofs, settings=settings(BUDGET, phases=[Phase.generate]))


class TestMutantFollow:
    # every write to a held tuple is a replace, and a remembered key is read
    # with no request, so a key a mutant leaves holding another tuple is
    # read to a value the ledger does not hold

    def test_the_machine_kills_a_follow_that_keeps_replaced_elements(self, monkeypatch):
        killed_by_the_ledger_check(monkeypatch, follow_keeping_replaced)

    def test_the_machine_kills_a_follow_that_files_a_tuple_under_another_key(self, monkeypatch):
        killed_by_the_ledger_check(monkeypatch, follow_filing_under_previous_key)


def other_submits_transfer(system, sender, to, tokens):
    """A transfer built by another client and committed without the system, so its client does not follow it."""
    bundle = TokenClient(system.contract, system.network).build_transfer(sender, to, tokens)
    record = system.contract.transfer(sender, to, tokens, bundle.announced, encode_bundle(bundle))
    system.network.commit(record.updates, {name: system.state.value_of(name) for name in ACCUMULATORS})


class TestRepeatedReads:
    def test_a_repeated_read_fetches_no_witness(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        assert (system.balance_of(A), system.allowance(A, S)) == (1000, 50)
        fetches = system.network.stats.witness_fetches
        assert (system.balance_of(A), system.allowance(A, S)) == (1000, 50)
        assert system.network.stats.witness_fetches == fetches

    def test_a_followed_replace_is_read_with_no_request(self):
        system = TokenSystem(A, 1000)
        assert system.balance_of(A) == 1000
        system.transfer(A, B, 100)  # replaces A's tuple under A's remembered key
        stats = system.network.stats
        requests = stats.lookups, stats.witness_fetches
        assert system.balance_of(A) == 900
        assert (stats.lookups, stats.witness_fetches) == requests

    def test_a_remembered_read_answers_while_storage_refuses_every_request(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        assert (system.balance_of(A), system.allowance(A, S)) == (1000, 50)
        system.network.policy = FaultPolicy.unavailable(1.0)
        assert (system.balance_of(A), system.allowance(A, S)) == (1000, 50)
        with pytest.raises(Unavailable):
            system.balance_of(B)  # never read, so asked of storage

    def test_a_zero_read_still_asks_storage(self):
        system = TokenSystem(A, 1000)
        stats = system.network.stats
        for _ in range(2):
            requests = stats.lookups, stats.witness_fetches
            assert system.balance_of(B) == 0
            assert (stats.lookups, stats.witness_fetches) == (requests[0] + 1, requests[1] + 1)

    def test_a_followed_write_keeps_what_it_did_not_delete(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        assert (system.balance_of(A), system.balance_of(C)) == (900, 0)
        system.transfer(B, C, 10)  # writes B's and C's tuples, not A's
        system.approve(A, S, 50)  # writes no balance tuple
        fetches = system.network.stats.witness_fetches
        assert system.balance_of(A) == 900
        assert system.network.stats.witness_fetches == fetches
        assert system.balance_of(S) == 0  # non-membership is not remembered
        assert system.network.stats.witness_fetches == fetches + 1

    def test_a_value_not_followed_is_proven_again(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        assert system.balance_of(B) == 100
        other_submits_transfer(system, A, C, 100)  # B's tuple stays, the value moves
        fetches = system.network.stats.witness_fetches
        assert system.balance_of(B) == 100
        assert system.network.stats.witness_fetches == fetches + 1
        assert system.balance_of(B) == 100
        assert system.network.stats.witness_fetches == fetches + 1

    def test_a_followed_delete_forgets_the_key(self):
        # no plan deletes a tuple (a debit to zero is a replace), so the
        # chain is committed and followed here by hand
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        assert system.balance_of(B) == 100
        before, steps = system.state, [("del", balance_element(B, 100))]
        after = before.with_values(system.network.commit({BALANCES: steps}))
        system.client.follow(before, after, {BALANCES: steps})
        system.contract.state = after
        lookups = system.network.stats.lookups
        assert system.balance_of(B) == 0
        assert system.network.stats.lookups == lookups + 1


class TestRememberedAmountsInBundles:
    def test_a_bundle_reads_remembered_amounts_with_no_lookup(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        assert (system.balance_of(A), system.balance_of(B)) == (900, 100)
        lookups = system.network.stats.lookups
        system.transfer(A, B, 10)
        assert system.network.stats.lookups == lookups
        assert (system.balance_of(A), system.balance_of(B)) == (890, 110)

    def test_a_bundle_looks_up_a_key_remembered_against_another_value(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        assert (system.balance_of(A), system.balance_of(B)) == (900, 100)
        other_submits_transfer(system, A, C, 100)  # the value moves on unfollowed
        lookups = system.network.stats.lookups
        system.transfer(A, B, 10)
        assert system.network.stats.lookups == lookups + 2
        assert (system.balance_of(A), system.balance_of(B)) == (790, 110)
