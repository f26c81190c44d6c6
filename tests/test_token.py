"""Accumulator token: contract verification, client builds, atomicity."""

import copy
import hashlib
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acctoken.accumulator import WitnessKind, belongs, hashing, tree
from acctoken.baseline import BaselineToken
from acctoken.bench import effective_allowances, effective_balances
from acctoken.bench.workload import true_balance
from acctoken.erc20 import (
    CONTRACT_KEYS,
    BundleEntry,
    OpTag,
    ProofBundle,
    TokenSystem,
    TxRecord,
    abi_calldata,
    decode_bundle,
    encode_bundle,
    plan,
)
from acctoken.erc20.bundle import (
    ACCUMULATORS,
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    ERC20_NAME,
    MEMBER,
    NON_MEMBER,
    STORAGE_OP,
    UPDATE_ADD,
    UPDATE_DEL,
    purpose,
    purpose_claim,
)
from acctoken.erc20.elements import allowance_element, balance_element, balance_prefix
from acctoken.errors import (
    AcctokenError,
    AlreadyPresent,
    BundleSchemaMismatch,
    InsufficientAllowance,
    InsufficientBalance,
    InvalidProof,
    NotApproved,
    NotPresent,
    Overflow,
    StorageError,
    TokenError,
    VerificationFailed,
    ZeroSupply,
)
from acctoken.gas import HASH, SLOAD, SSTORE_UPDATE
from acctoken.storage import FaultPolicy, StorageNetwork

import reference_verify

A = bytes.fromhex("aa" * 20)
B = bytes.fromhex("bb" * 20)
C = bytes.fromhex("cc" * 20)
D = bytes.fromhex("dd" * 20)
S = bytes.fromhex("55" * 20)


def snapshot(system):
    state = system.contract.state
    storage = tuple((system.network.accumulator_value(name), system.network.epoch(name)) for name in ACCUMULATORS)
    return state, storage, len(system.contract.logs)


class TestDeploy:
    def test_initial_mint_is_provable(self):
        system = TokenSystem(A, 1000)
        assert system.balance_of(A) == 1000

    def test_total_supply(self):
        system = TokenSystem(A, 1000)
        assert system.total_supply() == 1000

    def test_zero_supply_rejected(self):
        with pytest.raises(ZeroSupply):
            TokenSystem(A, 0)

    def test_oversized_supply_rejected(self):
        with pytest.raises(Overflow):
            TokenSystem(A, 2**256)

    def test_mint_log(self):
        system = TokenSystem(A, 1000)
        log = system.contract.logs[0]
        assert log.event == "Transfer" and log.addr_to == A and log.amount == 1000


class TestClientReads:
    def test_unknown_address_is_zero_via_non_membership(self):
        system = TokenSystem(A, 1000)
        assert system.balance_of(B) == 0

    def test_balances_after_transfer(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 300)
        assert system.balance_of(A) == 700
        assert system.balance_of(B) == 300

    def test_never_approved_allowance_is_zero(self):
        system = TokenSystem(A, 1000)
        assert system.allowance(A, S) == 0

    def test_allowance_after_approve(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        assert system.allowance(A, S) == 50

    def test_allowance_after_partial_spend(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        system.transfer_from(S, A, B, 20)
        assert system.allowance(A, S) == 30

    def test_total_supply_invariant_under_ops(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 10)
        system.approve(A, S, 5)
        assert system.total_supply() == 1000


class TestTransfer:
    def test_moves_balance_and_conserves(self):
        system = TokenSystem(A, 1000)
        record = system.transfer(A, B, 300)
        assert record.log.event == "Transfer"
        system.check_conservation()

    def test_insufficient_balance(self):
        system = TokenSystem(A, 1000)
        before = snapshot(system)
        with pytest.raises(InsufficientBalance):
            system.transfer(A, B, 1001)
        assert snapshot(system) == before

    def test_transfer_between_existing_accounts_has_six_entries(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        bundle = system.client.build_transfer(A, B, 50)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims.count(MEMBER) == 2
        assert claims.count(UPDATE_ADD) + claims.count(UPDATE_DEL) == 4

    def test_fresh_destination_uses_non_membership(self):
        system = TokenSystem(A, 1000)
        bundle = system.client.build_transfer(A, B, 50)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims.count(MEMBER) == 1 and claims.count(NON_MEMBER) == 1
        assert len(bundle.entries) == 5
        system.transfer(A, B, 50, bundle)
        assert system.balance_of(B) == 50

    def test_zero_amount_accepted(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 5)
        acc_before = system.state.balances_acc
        system.transfer(A, B, 0)
        assert system.state.balances_acc == acc_before
        assert system.balance_of(A) == 995

    def test_self_transfer_rejected(self):
        system = TokenSystem(A, 1000)
        with pytest.raises(BundleSchemaMismatch):
            system.transfer(A, A, 1)

    def test_whole_balance_leaves_zero_tuple(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 1000)
        assert system.balance_of(A) == 0
        assert system.balance_of(B) == 1000
        system.check_conservation()

    def test_acc_chain_integrity(self):
        system = TokenSystem(A, 1000)
        bundle = system.client.build_transfer(A, B, 10)
        running = system.state.balances_acc
        for entry in bundle.entries:
            if entry.claimed_after is not None:
                assert entry.claimed_after != running
                running = entry.claimed_after
        system.transfer(A, B, 10, bundle)
        assert system.state.balances_acc == running


class TestTransferTampering:
    def tampered_submissions(self, system, bundle):
        raw = encode_bundle(bundle)
        for position in range(len(raw)):
            mutated = bytearray(raw)
            mutated[position] ^= 0x40
            yield bytes(mutated)

    def test_every_byte_flip_rejected_atomically(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        bundle = system.client.build_transfer(A, B, 25)
        before = snapshot(system)
        accepted = 0
        for mutated in self.tampered_submissions(system, bundle):
            try:
                decoded = decode_bundle(mutated)
                decoded.announced = bundle.announced  # calldata words unchanged
                system.transfer(A, B, 25, decoded)
                accepted += 1
            except (InvalidProof, BundleSchemaMismatch):
                pass
            assert snapshot(system) == before
        assert accepted == 0

    def test_witness_byte_flip_is_invalid_proof(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        bundle = system.client.build_transfer(A, B, 25)
        raw = encode_bundle(bundle)
        # flip one byte inside the first entry's witness (skip frame + purpose)
        mutated = bytearray(raw)
        mutated[3 + 10] ^= 0x01
        decoded = decode_bundle(bytes(mutated))
        decoded.announced = bundle.announced
        with pytest.raises(InvalidProof):
            system.transfer(A, B, 25, decoded)

    def test_wrong_claimed_after_rejected(self):
        system = TokenSystem(A, 1000)
        bundle = system.client.build_transfer(A, B, 25)
        for entry in bundle.entries:
            if entry.claimed_after is not None:
                entry.claimed_after = bytes(32)
                break
        with pytest.raises(InvalidProof):
            system.transfer(A, B, 25, bundle)


class TestStaleness:
    def test_competing_commit_invalidates_bundle(self):
        system = TokenSystem(A, 1000)
        bundle = system.client.build_transfer(A, B, 10)
        system.transfer(A, C, 5)  # competing transaction lands first
        before = snapshot(system)
        # the first entry proves A's tuple against the superseded value
        with pytest.raises(InvalidProof) as rejected:
            system.transfer(A, B, 10, bundle)
        assert rejected.value.step == 0
        assert snapshot(system) == before
        # rebuilding against the new value succeeds
        system.transfer(A, B, 10)
        assert system.balance_of(B) == 10

    def test_stale_chain_is_refused_at_the_build(self):
        # the lagged root still holds A's old tuple and the memory does not,
        # so storage refuses the chain's first step as it records it; the
        # client reports that as a failed verification, as it did when its
        # check of the built witness failed
        system = TokenSystem(A, 1000, policy=FaultPolicy.stale(1))
        system.bootstrap([plan.transfer(A, B, 10, plan.Announced((1000,)))])
        with pytest.raises(NotPresent):
            system.network.build_update_witness(BALANCES, "del", balance_element(A, 1000))
        before = snapshot(system)
        with pytest.raises(VerificationFailed, match="cannot build"):
            system.transfer(A, C, 5)
        assert snapshot(system) == before

    def test_stale_storage_detected_at_build_time(self):
        system = TokenSystem(A, 1000, policy=FaultPolicy.stale(1))
        # land one committed transfer without touching the faulty serving path
        system.bootstrap([plan.transfer(A, B, 10, plan.Announced((1000,)))])
        # the lagged view still knows a tuple for A, but its witness replays
        # to a superseded root; client verification against the contract's
        # current value must reject it
        with pytest.raises(VerificationFailed):
            system.balance_of(A)
        with pytest.raises(VerificationFailed):
            system.transfer(A, C, 5)


class TestApprove:
    def test_first_time_uses_non_membership(self):
        system = TokenSystem(A, 1000)
        bundle = system.client.build_approve(A, S, 50)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims == [NON_MEMBER, UPDATE_ADD, UPDATE_ADD]
        system.approve(A, S, 50, bundle)
        assert system.allowance(A, S) == 50

    def test_reapprove_uses_membership_and_replaces(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        bundle = system.client.build_approve(A, S, 20)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims == [MEMBER, UPDATE_DEL, UPDATE_ADD]
        system.approve(A, S, 20, bundle)
        assert system.allowance(A, S) == 20  # replaced, not summed

    def test_membership_bundle_for_absent_pair_rejected(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        stale_style = system.client.build_approve(A, S, 20)
        fresh_system = TokenSystem(A, 1000)
        before = snapshot(fresh_system)
        with pytest.raises(InvalidProof):
            fresh_system.approve(A, S, 20, stale_style)
        assert snapshot(fresh_system) == before

    def test_approve_zero_keeps_pair(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        system.approve(A, S, 0)
        assert system.allowance(A, S) == 0
        bundle = system.client.build_approve(A, S, 9)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims[0] == MEMBER  # still a re-approval: the pair survives
        system.approve(A, S, 9, bundle)
        assert system.allowance(A, S) == 9

    def test_approval_log(self):
        system = TokenSystem(A, 1000)
        record = system.approve(A, S, 50)
        assert record.log.event == "Approval"
        assert (record.log.addr_from, record.log.addr_to, record.log.amount) == (A, S, 50)


class TestTransferFrom:
    def test_spend_with_allowance(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        system.transfer_from(S, A, B, 20)
        assert system.balance_of(A) == 980
        assert system.balance_of(B) == 20
        assert system.allowance(A, S) == 30
        system.check_conservation()

    def test_insufficient_allowance(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        before = snapshot(system)
        with pytest.raises(InsufficientAllowance):
            system.transfer_from(S, A, B, 60)
        assert snapshot(system) == before

    def test_never_approved(self):
        system = TokenSystem(A, 1000)
        with pytest.raises(NotApproved):
            system.transfer_from(S, A, B, 1)

    def test_bundle_counts_standard(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)  # destination exists afterwards
        system.approve(A, S, 50)
        bundle = system.client.build_transfer_from(S, A, B, 20)
        claims = [purpose_claim(p) for p in bundle.purposes()]
        assert claims.count(MEMBER) == 4
        assert claims.count(UPDATE_ADD) + claims.count(UPDATE_DEL) == 6
        assert len(bundle.entries) == 10
        system.transfer_from(S, A, B, 20, bundle)

    def test_full_allowance_spend_keeps_zero_tuple(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        system.transfer_from(S, A, B, 50)
        assert system.allowance(A, S) == 0
        system.approve(A, S, 5)  # re-approval still works afterwards
        assert system.allowance(A, S) == 5


class TestLiftedPreconditionMode:
    def test_same_outcome_with_fewer_verifications(self):
        normal = TokenSystem(A, 1000)
        lifted = TokenSystem(A, 1000, lift_checkupdate_precondition=True)
        r_normal = normal.transfer(A, B, 300)
        r_lifted = lifted.transfer(A, B, 300)
        assert normal.state.balances_acc == lifted.state.balances_acc
        assert r_lifted.verifications == r_normal.verifications - 2
        assert r_lifted.bundle_bytes < r_normal.bundle_bytes
        ra_normal = normal.approve(A, S, 9)
        ra_lifted = lifted.approve(A, S, 9)
        assert ra_lifted.verifications == ra_normal.verifications - 1
        rf_normal = normal.transfer_from(S, A, C, 4)
        rf_lifted = lifted.transfer_from(S, A, C, 4)
        assert rf_lifted.verifications == rf_normal.verifications - 4
        assert normal.state == lifted.state
        # the lifted client fetches no membership witness it would drop
        assert lifted.network.stats.witness_fetches == 0 < normal.network.stats.witness_fetches

    def test_lifted_contract_rejects_full_bundles(self):
        lifted = TokenSystem(A, 1000, lift_checkupdate_precondition=False)
        bundle = lifted.client.build_transfer(A, B, 1)
        lifted.contract.lift = True
        with pytest.raises(BundleSchemaMismatch):
            lifted.contract.transfer(A, B, 1, bundle.announced, encode_bundle(bundle))


class TestStorageCannotUpdate:
    """A lookup naming a tuple storage cannot update fails as a verification, not an accumulator error."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize(
        "owner, served, tokens",
        [
            (A, [balance_element(A, 999)], 5),  # deleting a tuple A does not hold: NotPresent
            (B, [], 100),  # adding (B, 100), which B holds already: AlreadyPresent
        ],
        ids=["sender-amount", "recipient-absent"],
    )
    def test_reported_as_verification_failed(self, owner, served, tokens, lift):
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        honest_lookup = system.network.lookup
        lying = balance_prefix(owner)
        system.network.lookup = lambda acc, prefix: served if prefix == lying else honest_lookup(acc, prefix)
        before = snapshot(system)
        with pytest.raises(VerificationFailed, match="cannot build"):
            system.transfer(A, B, tokens)
        assert snapshot(system) == before


class TestConstantState:
    def test_key_count_is_four_regardless_of_accounts(self):
        system = TokenSystem(A, 10_000)
        recipients = [bytes.fromhex(f"{i:040x}") for i in range(1, 40)]
        for addr in recipients:
            system.transfer(A, addr, 7)
        assert system.persistent_key_count() == CONTRACT_KEYS == 4
        assert len(vars(system.contract.state)) == 4
        system.check_conservation()


class TestLockStep:
    def test_storage_matches_contract_after_every_tx(self):
        system = TokenSystem(A, 1000)
        for i, (op, args) in enumerate(
            [
                ("transfer", (A, B, 10)),
                ("approve", (A, S, 40)),
                ("transfer_from", (S, A, C, 15)),
                ("transfer", (B, C, 5)),
            ]
        ):
            getattr(system, op)(*args)
            for name in ACCUMULATORS:
                assert system.state.value_of(name) == system.network.accumulator_value(name)


def epochs(system):
    return {name: system.network.epoch(name) for name in ACCUMULATORS}


class TestOneCommitPath:
    """A verified transaction commits one netted batch per accumulator it writes."""

    @pytest.mark.parametrize(
        "op, args, written",
        [
            ("transfer", (A, B, 25), {BALANCES}),
            ("transfer", (A, C, 25), {BALANCES}),
            ("transfer_from", (S, A, B, 5), {BALANCES, ALLOWED_BALANCES}),
            ("approve", (A, D, 7), {ALLOWED_ADDRESSES, ALLOWED_BALANCES}),
            ("approve", (A, S, 9), {ALLOWED_BALANCES}),
        ],
        ids=["transfer", "transfer-fresh", "transfer_from", "approve-first", "approve-again"],
    )
    def test_one_epoch_per_accumulator_written(self, op, args, written):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        before = epochs(system)
        getattr(system, op)(*args)
        assert epochs(system) == {name: epoch + (name in written) for name, epoch in before.items()}

    def test_stale_node_serves_the_pre_transaction_root(self):
        honest, lagging = TokenSystem(A, 1000), TokenSystem(A, 1000, policy=FaultPolicy.stale(1))
        for system in (honest, lagging):
            system.bootstrap([plan.transfer(A, B, 100, announced(1000))])
        old = lagging.state.balances_acc
        lagging.transfer(A, B, 10, honest.client.build_transfer(A, B, 10))
        assert lagging.state.balances_acc != old
        for owner, amount in ((A, 900), (B, 100)):
            element = balance_element(owner, amount)
            assert belongs(old, element, lagging.network.fetch_witness(BALANCES, element)) == 1

    def test_zero_transfer_to_holder_commits_nothing(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        before = epochs(system)
        system.transfer(A, B, 0)
        assert epochs(system) == before
        for name in ACCUMULATORS:
            assert system.state.value_of(name) == system.network.accumulator_value(name)
        # no commit cleared its chain; the next bundle still starts a new one
        assert system.network._entry(BALANCES).tip.value == system.state.balances_acc
        commits = spy_commits(system)
        system.client.build_transfer(A, B, 5)
        batch = system.network._entry(BALANCES).tip.changes
        assert sorted(batch.adds) == sorted(hashing.element_digest(balance_element(*e)) for e in ((A, 895), (B, 105)))
        system.transfer(A, B, 5)
        assert commits == [(BALANCES, True)]


def accumulator_values(system):
    return [system.network.accumulator_value(name) for name in ACCUMULATORS]


def announced(*words):
    return plan.Announced(word for word in words if word is not None)


class TestFastPathEquivalence:
    """``bootstrap`` reaches the state the verified ops reach."""

    @pytest.mark.parametrize("to, to_balance", [(B, 100), (C, None)], ids=["standard", "fresh"])
    def test_fast_transfer(self, to, to_balance):
        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        for system in (fast, verified):
            system.transfer(A, B, 100)
        fast.bootstrap([plan.transfer(A, to, 25, announced(900, to_balance))])
        verified.transfer(A, to, 25)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)

    @pytest.mark.parametrize("old", [50, None], ids=["again", "first"])
    def test_fast_approve(self, old):
        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        if old is not None:
            for system in (fast, verified):
                system.approve(A, S, old)
        fast.bootstrap([plan.approve(A, S, 7, announced(old))])
        verified.approve(A, S, 7)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)

    def test_stream_of_plans(self):
        # the deployer funds, re-funds and approves in one batch: its
        # intermediate balance tuples and B's first allowances cancel out;
        # C empties its balance and B's allowance for S ends at zero
        ops = [("transfer", (A, B, 100)), ("transfer", (A, C, 50)), ("approve", (B, S, 30)),
               ("transfer", (A, B, 5)), ("approve", (B, S, 9)), ("approve", (C, B, 1)),
               ("transfer", (C, D, 50)), ("approve", (B, S, 0))]

        def plans():
            amounts = {A: 1000}
            allowances = {}
            for kind, (owner, other, tokens) in ops:
                if kind == "transfer":
                    yield plan.transfer(owner, other, tokens, announced(amounts[owner], amounts.get(other)))
                    amounts[owner] -= tokens
                    amounts[other] = amounts.get(other, 0) + tokens
                else:
                    yield plan.approve(owner, other, tokens, announced(allowances.get((owner, other))))
                    allowances[owner, other] = tokens

        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        fast.bootstrap(plans())
        for kind, args in ops:
            getattr(verified, kind)(*args)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)
        assert [fast.network.epoch(name) for name in ACCUMULATORS] == [2, 1, 1]
        assert effective_balances(fast) == {A: 845, B: 105, D: 50}

        # the mapping token reaches through its bootstrap what its transactions reach
        mapped, transacted = BaselineToken.deploy(A, 1000), BaselineToken.deploy(A, 1000)
        mapped.bootstrap(plans())
        for kind, args in ops:
            getattr(transacted, kind)(*args)
        for attribute in ("balances", "allowed", "ever_approved", "key_count"):
            assert getattr(mapped, attribute) == getattr(transacted, attribute), attribute
        assert mapped.balances == {A: 845, B: 105, D: 50}
        assert mapped.allowed == {(C, B): 1}
        assert mapped.ever_approved == {(B, S), (C, B)}
        assert mapped.key_count == 4
        assert mapped.log_count == 1  # the deployment's; bootstrap logs nothing
        assert effective_balances(fast) == effective_balances(mapped)
        assert effective_allowances(fast) == effective_allowances(mapped)

    @pytest.mark.parametrize(
        "bad_plan, error",
        [
            (plan.transfer(A, C, 5, announced(999)), NotPresent),  # A holds 900, not 999
            (plan.approve(A, S, 8, announced()), AlreadyPresent),  # the pair is approved twice
            (plan.transfer(A, C, 950, announced(900)), InsufficientBalance),
            (plan.approve(B, S, 7, announced(3)), NotPresent),  # no allowance to replace
            (plan.approve(B, S, 2**256, announced()), Overflow),
            (plan.transfer(A, B, -5, announced(900, 100)), Overflow),  # would mint 5 for A
        ],
        ids=["wrong-balance", "first-approval-twice", "overspend", "wrong-allowance", "amount", "negative-amount"],
    )
    def test_rejected_stream_changes_nothing(self, bad_plan, error):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        before = snapshot(system)
        plans = [plan.approve(A, S, 7, announced()), bad_plan, plan.transfer(A, D, 1, announced(900))]
        with pytest.raises(error):
            system.bootstrap(plans)
        assert snapshot(system) == before


def fresh_bundle_for_holder(system, sender, to, tokens):
    """The fresh-destination bundle a client builds when it ignores ``to``'s tuple."""
    honest_lookup = system.client._balance_entry
    system.client._balance_entry = lambda owner: None if owner == to else honest_lookup(owner)
    try:
        return system.client.build_transfer(sender, to, tokens)
    finally:
        del system.client._balance_entry


class TestOneTuplePerKey:
    def test_second_balance_tuple_is_detected(self):
        # a fresh-destination transfer to a holder is still accepted (it only
        # proves that (to, 0) is absent); the invariant checks must notice
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.transfer(A, B, 10, fresh_bundle_for_holder(system, A, B, 10))
        assert true_balance(system, B) == 110
        assert effective_balances(system)[B] == 110
        with pytest.raises(AssertionError, match="more than one balances tuple"):
            system.check_conservation()
        with pytest.raises(VerificationFailed):
            system.balance_of(B)

    def test_second_allowance_tuple_is_detected(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        # planted straight into storage: no bundle schema can add it
        system.network.commit(
            {ALLOWED_BALANCES: system.network.changes(ALLOWED_BALANCES, [("add", allowance_element(A, S, 7))])}
        )
        assert effective_allowances(system)[(A, S)] == 57
        with pytest.raises(AssertionError, match="more than one allowed-balances tuple"):
            system.check_conservation()
        with pytest.raises(VerificationFailed):
            system.allowance(A, S)


def update_chain(system, acc, ops):
    """(value after, witness payload) of each of ``ops``, simulated as one chain on ``acc``'s current value."""
    chain, base = [], None
    for op, element in ops:
        base, payload = system.network.build_update_witness(acc, op, element, base=base)
        chain.append((base, payload))
    return chain


class TestWitnessKindMatchesClaim:
    """An update witness of the other kind verifies as its own kind, so the contract must check the kind.

    Without that check both bundles below are accepted, the contract writes
    its words and its log, and the storage commit of the swapped step fails.
    """

    def swapped_bundle(self, system):
        """C's fresh transfer of 7 to B, whose add of (B, 7) carries the update-del witness of B's tuple."""
        system.transfer(A, B, 7)
        system.transfer(A, C, 100)
        # the fresh variant: (C, 100) is a member and (B, 0) is not
        membership = [
            BundleEntry(purpose(BALANCES, claim), system.network.fetch_witness(BALANCES, element))
            for claim, element in ((MEMBER, balance_element(C, 100)), (NON_MEMBER, balance_element(B, 0)))
        ]
        chain = update_chain(
            system,
            BALANCES,
            [
                ("del", balance_element(C, 100)),
                ("add", balance_element(C, 93)),
                ("del", balance_element(B, 7)),  # in the slot of the add of (B, 7)
            ],
        )
        claims = (UPDATE_DEL, UPDATE_ADD, UPDATE_ADD)
        updates = [BundleEntry(purpose(BALANCES, claim), w, after) for claim, (after, w) in zip(claims, chain)]
        return ProofBundle(OpTag.TRANSFER, membership + updates, (100,))

    def test_update_del_witness_in_an_update_add_slot(self):
        system = TokenSystem(A, 1000)
        bundle = self.swapped_bundle(system)
        before = snapshot(system)
        with pytest.raises(InvalidProof):
            system.transfer(C, B, 7, bundle)
        assert snapshot(system) == before

    def test_a_commit_storage_refuses_is_rolled_back(self, monkeypatch):
        # without the kind check the contract accepts the bundle and writes
        # its words and its log; storage then refuses to add (B, 7) twice
        system = TokenSystem(A, 1000)
        bundle = self.swapped_bundle(system)
        before = snapshot(system)
        monkeypatch.setattr(WitnessKind, "__ne__", lambda kind, other: False)
        with pytest.raises(AlreadyPresent):
            system.transfer(C, B, 7, bundle)
        monkeypatch.undo()
        assert snapshot(system) == before
        system.check_conservation()
        system.transfer(C, B, 7)  # contract and storage still move together

    def test_update_add_witness_in_an_update_del_slot_lifted(self):
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=True)
        system.transfer(A, B, 100)
        y1 = 10**6  # announced for B, who holds 100
        chain = update_chain(
            system,
            BALANCES,
            [
                ("add", balance_element(B, y1)),  # in the slot of the delete of (B, y1)
                ("del", balance_element(A, 900)),
                ("add", balance_element(B, y1 - 1)),
                ("add", balance_element(A, 901)),
            ],
        )
        claims = (UPDATE_DEL, UPDATE_DEL, UPDATE_ADD, UPDATE_ADD)
        entries = [BundleEntry(purpose(BALANCES, claim), w, after) for claim, (after, w) in zip(claims, chain)]
        bundle = ProofBundle(OpTag.TRANSFER, entries, (y1, 900))
        before = snapshot(system)
        with pytest.raises(InvalidProof):
            system.transfer(B, A, 1, bundle)
        assert snapshot(system) == before


class TestChainTip:
    """Storage keeps only the update chain being built: one simulated root per accumulator."""

    def test_unsubmitted_bundles_leave_one_root_per_accumulator(self):
        system = TokenSystem(A, 10_000)
        system.approve(A, S, 50)
        recipients = [bytes.fromhex(f"{i:040x}") for i in range(1, 30)]
        for to in recipients:
            system.transfer(A, to, 7)
        for to in recipients:
            last = system.client.build_transfer(to, A, 1)
        last_from = system.client.build_transfer_from(S, A, B, 1)
        tips = {name: system.network._entry(name).tip for name in ACCUMULATORS}
        assert tips[ALLOWED_ADDRESSES] is None  # no update on it since the last commit
        assert tips[BALANCES][0] == last_from.entries[-3].claimed_after != last.entries[-1].claimed_after
        assert tips[ALLOWED_BALANCES][0] == last_from.entries[-1].claimed_after
        with pytest.raises(StorageError):  # the chain of an earlier bundle is gone
            system.network.build_update_witness(BALANCES, "del", balance_element(A, 9797), base=last.entries[-1].claimed_after)

    @pytest.mark.parametrize("case", ["transfer_from-standard", "transfer_from-fresh", "approve-first"])
    def test_chains_across_accumulators_build_and_land(self, case):
        op, args, _other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        system.client.build_transfer(A, B, 5)  # an unsubmitted bundle's chain
        before = epochs(system)
        getattr(system, op)(*args)
        written = [name for name, epoch in epochs(system).items() if epoch > before[name]]
        assert written and all(system.network._entry(name).tip is None for name in written)  # a commit clears it
        system.check_conservation()


FORGERY_CASES = {  # op variant -> (op, args, args the other variant's bundle is built for)
    "transfer-standard": ("transfer", (A, B, 25), (A, C, 25)),
    "transfer-fresh": ("transfer", (A, C, 25), (A, B, 25)),
    "approve-again": ("approve", (A, S, 7), (A, D, 7)),
    "approve-first": ("approve", (A, D, 7), (A, S, 7)),
    "transfer_from-standard": ("transfer_from", (S, A, B, 5), (S, A, C, 5)),
    "transfer_from-fresh": ("transfer_from", (S, A, C, 5), (S, A, B, 5)),
}


def spy_commits(system):
    """Check every storage commit of ``system`` against a walking commit of the same batches.

    Before each commit the network and the batches are copied; the copy
    commits them path by path (no accepted values, so no tip is adopted and
    nothing is checked) and must reach the same tries, tuple for tuple, the
    same elements and the same indexes. Returns the list of (accumulator,
    whether the commit adopted the chain tip's root) that the batches
    installed append to; a refused commit, or a batch that nets to no
    change, appends nothing.
    """
    network = system.network
    commit = network.commit
    seen = []

    def checked(batches, accepted=None):
        tips = {acc: network._entry(acc).tip for acc in batches}
        held = {acc: set(network._entry(acc).memory.elements) for acc in batches}
        epochs = {acc: network.epoch(acc) for acc in batches}
        twin, twin_batches = copy.deepcopy((network, batches))
        values = commit(batches, accepted)
        StorageNetwork.commit(twin, twin_batches)
        for acc in batches:
            entry, walked = network._entry(acc), twin._entry(acc)
            root = entry.memory.root
            assert root == walked.memory.root
            # the walk built its own branches; a lone-leaf root is the
            # batch's own key object in both
            assert root is not walked.memory.root or root is tree.leaf_key(walked.memory.root)
            assert entry.memory.elements == walked.memory.elements and entry.index == walked.index
            if entry.memory.epoch == epochs[acc]:
                continue  # nothing installed
            adopted = tips[acc] is not None and root is tips[acc].root
            if adopted:  # the new elements are keyed by the very objects their leaves hold
                keys = {key: key for key in entry.memory.elements}
                for key in keys.keys() - held[acc]:
                    _path, leaf = tree.walk(root, key)
                    assert keys[key] is tree.leaf_key(leaf)
            seen.append((acc, adopted))
        return values

    network.commit = checked
    return seen


class TestChainTipAdoption:
    """A commit adopts the root of the update chain the contract accepted, and walks otherwise."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_own_bundle_adopts_the_tip(self, case, lift):
        op, args, _other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        commits = spy_commits(system)
        getattr(system, op)(*args)
        written = {acc for acc, _adopted in commits}
        assert len(commits) == len(written) == METERED_ACCESSES[case][1]
        assert all(adopted for _acc, adopted in commits)

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    def test_bundle_built_on_a_twin_walks(self, lift):
        system, twin = (TokenSystem(A, 1000, lift_checkupdate_precondition=lift) for _ in range(2))
        for each in (system, twin):
            each.transfer(A, B, 100)
        system.client.build_transfer(A, B, 3)  # system's own chain, never submitted
        commits = spy_commits(system)
        bundle = twin.client.build_transfer(A, C, 5)
        twin.transfer(A, C, 5, bundle)
        system.transfer(A, C, 5, bundle)
        assert commits == [(BALANCES, False)]
        assert accumulator_values(system) == accumulator_values(twin)

    def test_superseded_own_bundle_walks(self):
        system = TokenSystem(A, 1000)
        system.approve(A, S, 50)
        commits = spy_commits(system)
        first = system.client.build_transfer_from(S, A, B, 5)
        system.client.build_approve(A, S, 9)  # a later chain, never submitted
        system.transfer_from(S, A, B, 5, first)
        assert commits == [(BALANCES, True), (ALLOWED_BALANCES, False)]

    def test_a_chain_for_other_steps_is_not_adopted(self, monkeypatch):
        # a contract that accepts the chain built for a transfer of 10 as the
        # proof of one of 20 takes the chain's value; the commit of the 20
        # walks elsewhere, so storage refuses it and the contract is rolled back
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        bundle = system.client.build_transfer(A, B, 10)
        monkeypatch.setattr("acctoken.erc20.contract.check_update", lambda *args: 1)
        commits = spy_commits(system)
        before, held = snapshot(system), sorted(system.network.elements(BALANCES))
        with pytest.raises(StorageError, match="balances changes do not reach the value the contract accepted"):
            system.transfer(A, B, 20, bundle)
        assert commits == []
        assert snapshot(system) == before and sorted(system.network.elements(BALANCES)) == held
        system.transfer(A, B, 10, bundle)  # the chain is still the tip, and its own transfer adopts it
        assert commits == [(BALANCES, True)]
        assert accumulator_values(system) == [system.state.value_of(name) for name in ACCUMULATORS]

    def test_a_refused_batch_keeps_the_others_out(self, monkeypatch):
        # a transferFrom of 5 whose allowed-balances updates come from the
        # bundle for 7: its balances batch reaches the accepted value (and
        # would adopt the tip), its allowed-balances batch does not, and
        # neither lands
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        other = system.client.build_transfer_from(S, A, B, 7)
        own = system.client.build_transfer_from(S, A, B, 5)
        allowance_updates = {purpose(ALLOWED_BALANCES, UPDATE_DEL), purpose(ALLOWED_BALANCES, UPDATE_ADD)}
        entries = [theirs if mine.purpose in allowance_updates else mine
                   for mine, theirs in zip(own.entries, other.entries)]
        monkeypatch.setattr("acctoken.erc20.contract.check_update", lambda *args: 1)
        commits = spy_commits(system)
        before = snapshot(system)
        held = [sorted(system.network.elements(name)) for name in ACCUMULATORS]
        with pytest.raises(StorageError, match="allowed-balances changes do not reach"):
            system.transfer_from(S, A, B, 5, replace(own, entries=entries))
        assert commits == []
        assert snapshot(system) == before
        assert [sorted(system.network.elements(name)) for name in ACCUMULATORS] == held
        assert system.network._entry(BALANCES).tip is not None  # nothing cleared the balances chain
        system.transfer_from(S, A, B, 5, own)
        assert commits == [(BALANCES, True), (ALLOWED_BALANCES, True)]
        assert system.balance_of(B) == 105 and system.allowance(A, S) == 45

    @pytest.mark.parametrize(
        "policy", [FaultPolicy.stale(1), FaultPolicy.corrupt_bits(1.0, seed=2)], ids=["stale", "corrupt-bits"]
    )
    def test_faulty_storage_walks(self, policy):
        system, twin = TokenSystem(A, 1000, policy=policy), TokenSystem(A, 1000)
        for each in (system, twin):
            each.bootstrap([plan.transfer(A, B, 100, announced(1000))])
        with pytest.raises(VerificationFailed):  # the client rejects what storage serves
            system.transfer(A, C, 5)
        system.network.build_update_witness(BALANCES, "add", balance_element(D, 1))  # a chain on the served root
        commits = spy_commits(system)
        bundle = twin.client.build_transfer(A, C, 5)
        twin.transfer(A, C, 5, bundle)
        system.transfer(A, C, 5, bundle)
        assert commits == [(BALANCES, False)]
        assert accumulator_values(system) == accumulator_values(twin)


#: the first four bytes of the SHA-256 of each op's ERC20 signature
SELECTORS = {
    OpTag.TRANSFER: bytes.fromhex("3c4098f4"),  # transfer(address,address,uint256)
    OpTag.APPROVE: bytes.fromhex("b22bd365"),  # approve(address,address,uint256)
    OpTag.TRANSFER_FROM: bytes.fromhex("6c3d961e"),  # transferFrom(address,address,address,uint256)
}


class TestTxRecord:
    """The contract's record of a transaction is the one ``TokenSystem`` returns."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_contract_record_matches_bundle_and_plan(self, case, lift):
        op, args, _other_args = FORGERY_CASES[case]
        tag = OpTag[op.upper()]
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        bundle = getattr(system.client, "build_" + op)(*args)
        data = encode_bundle(bundle)
        record = getattr(system.contract, op)(*args, bundle.announced, data)
        assert isinstance(record, TxRecord) and record.op == ERC20_NAME[tag]
        assert record.bundle_bytes == len(data) and record.verifications == len(bundle.entries)
        _log, steps = plan.PLANS[tag](*args, plan.Announced(bundle.announced))
        updates = [step for step in steps if step[1] in STORAGE_OP]
        assert record.updates == updates
        assert [purpose(acc, claim) for acc, claim, _element in updates] == [
            entry.purpose for entry in bundle.entries if entry.claimed_after is not None
        ]

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_system_returns_the_contracts_record(self, case, lift, monkeypatch):
        op, args, _other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        returned = []
        execute = getattr(system.contract, op)

        def spy(*call):
            returned.append(execute(*call))
            return returned[-1]

        monkeypatch.setattr(system.contract, op, spy)
        record = getattr(system, op)(*args)
        assert returned == [record] and returned[0] is record
        assert record.trace.calldata[:4] == SELECTORS[OpTag[op.upper()]]

    @pytest.mark.parametrize("tag", OpTag, ids=lambda tag: tag.name)
    def test_selectors_are_the_erc20_ones(self, tag):
        addresses = [A, B, C][: 3 if tag is OpTag.TRANSFER_FROM else 2]
        assert abi_calldata(tag, addresses, 1, (), b"")[:4] == SELECTORS[tag]


def honest_bundles(case, lift):
    """A system where B holds a balance and A has approved S, with the honest bundles of ``case`` and its other variant."""
    op, args, other_args = FORGERY_CASES[case]
    system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
    system.transfer(A, B, 100)
    system.approve(A, S, 50)
    build = getattr(system.client, "build_" + op)
    return system, op, args, build(*args), build(*other_args)


class TestSemanticForgery:
    """Well-formed bundles that say the wrong thing are rejected atomically.

    B holds a balance and C does not; A has approved S but not D.
    """

    def forgeries(self, honest, other):
        for i in range(len(honest.announced)):
            words = list(honest.announced)
            words[i] += 1
            yield replace(honest, announced=tuple(words))
        for i in range(len(honest.entries)):
            for j in range(i + 1, len(honest.entries)):
                entries = list(honest.entries)
                entries[i], entries[j] = entries[j], entries[i]
                yield replace(honest, entries=entries)
        yield replace(honest, entries=honest.entries[:-1])
        yield other

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_rejected_with_state_untouched(self, case, lift):
        system, op, args, honest, other = honest_bundles(case, lift)
        assert other.purposes() != honest.purposes()  # the other variant
        before = snapshot(system)
        for forged in self.forgeries(honest, other):
            with pytest.raises(AcctokenError):
                getattr(system, op)(*args, forged)
            assert snapshot(system) == before
        getattr(system, op)(*args, honest)  # the honest bundle still goes through


# op variant -> (entries, entries when lifted, announced words) of its honest bundle
HONEST_COUNTS = {
    "transfer-standard": (6, 4, 2),
    "transfer-fresh": (5, 3, 1),
    "approve-again": (3, 2, 1),
    "approve-first": (3, 2, 0),
    "transfer_from-standard": (10, 6, 3),
    "transfer_from-fresh": (9, 5, 2),
}


class TestPlanIsTheSchema:
    """The op's plan fixes how many entries and announced words a bundle carries; other counts do not fit it."""

    def miscounted(self, honest):
        if honest.announced:
            yield replace(honest, announced=honest.announced[:-1])
        yield replace(honest, announced=honest.announced + (0,))
        yield replace(honest, entries=honest.entries + honest.entries[-1:])  # encoded with the count byte raised
        yield replace(honest, entries=honest.entries[:-1])

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_honest_counts(self, case, lift):
        _system, _op, _args, bundle, _other = honest_bundles(case, lift)
        entries, lifted_entries, words = HONEST_COUNTS[case]
        assert len(bundle.entries) == (lifted_entries if lift else entries)
        assert len(bundle.announced) == words

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_miscounted_bundles_rejected_with_state_untouched(self, case, lift):
        system, op, args, honest, _other = honest_bundles(case, lift)
        before = snapshot(system)
        forgeries = list(self.miscounted(honest))
        assert len(forgeries) == (4 if honest.announced else 3)
        for forged in forgeries:
            with pytest.raises(BundleSchemaMismatch):
                getattr(system, op)(*args, forged)
            assert snapshot(system) == before
        getattr(system, op)(*args, honest)  # the honest bundle still goes through


def _flipped(raw: bytes, flips) -> bytes:
    mutated = bytearray(raw)
    for position, mask in flips:
        mutated[position] ^= mask
    return bytes(mutated)


def _spliced(honest: bytes, splice) -> bytes:
    start, stop, insert = splice
    return honest[: min(start, stop)] + insert + honest[max(start, stop) :]


def bundle_mutations(honest: bytes, other: bytes):
    """Bytes near ``honest``: random, flipped, truncated, extended, or spliced with random bytes or part of ``other``."""
    n = len(honest)
    part_of_other = st.tuples(st.integers(0, len(other)), st.integers(0, len(other))).map(
        lambda span: other[min(span) : max(span)]
    )
    flips = st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, 255)), min_size=1, max_size=4)
    splices = st.tuples(st.integers(0, n), st.integers(0, n), st.one_of(st.binary(max_size=48), part_of_other))
    return st.one_of(
        st.binary(max_size=n + 64),
        flips.map(lambda flips: _flipped(honest, flips)),
        st.integers(0, n - 1).map(lambda cut: honest[:cut]),
        st.binary(min_size=1, max_size=48).map(lambda tail: honest + tail),
        splices.map(lambda splice: _spliced(honest, splice)),
    )


class TestContractOnBytes:
    """The contract takes bundle bytes: any bytes but the honest bundle's are rejected, with state untouched."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_decode_encode_is_identity(self, case, lift):
        _system, _op, _args, honest, other = honest_bundles(case, lift)
        for bundle in (honest, other):
            raw = encode_bundle(bundle)
            decoded = decode_bundle(raw)
            assert encode_bundle(decoded) == raw
            assert decoded.entries == bundle.entries

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_only_the_honest_bytes_are_accepted(self, case, lift):
        system, op, args, honest, other = honest_bundles(case, lift)
        execute = getattr(system.contract, op)
        honest_raw = encode_bundle(honest)
        before = snapshot(system)

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(bundle_mutations(honest_raw, encode_bundle(other)))
        def rejected(raw):
            assume(raw != honest_raw)
            try:
                execute(*args, honest.announced, raw)
            except AcctokenError:
                assert snapshot(system) == before
            else:
                pytest.fail(f"the contract accepted bundle bytes other than the honest ones: {raw.hex()}")

        rejected()
        execute(*args, honest.announced, honest_raw)  # the honest bytes still verify
        assert system.contract.state != before[0]


# op variant -> membership witnesses the client fetches; it derives the others
# from the first update on their accumulator
CLIENT_FETCHES = {
    "transfer-standard": 1,
    "transfer-fresh": 1,
    "approve-again": 0,
    "approve-first": 0,
    "transfer_from-standard": 2,
    "transfer_from-fresh": 2,
}


class TestDerivedMembership:
    """Membership entries about an accumulator's first update are derived from its witness."""

    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_fetches_and_entries(self, case):
        op, args, _other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        fetched = system.network.stats.witness_fetches
        bundle = getattr(system.client, "build_" + op)(*args)
        assert system.network.stats.witness_fetches - fetched == CLIENT_FETCHES[case]
        # every membership entry, derived or fetched, is the payload storage
        # serves for it, byte for byte; a derived one is the payload of the
        # first update on its accumulator with another kind byte
        _log, steps = plan.PLANS[bundle.op](*args, plan.Announced(bundle.announced))
        steps = list(steps)
        membership = [(acc, element) for acc, claim, element in steps if claim in (MEMBER, NON_MEMBER)]
        updates = [(acc, element) for acc, claim, element in steps if claim in (UPDATE_ADD, UPDATE_DEL)]
        first_update = {}
        for (acc, element), entry in reversed(list(zip(updates, bundle.entries[len(membership) :]))):
            first_update[acc] = (element, entry.witness)
        derived = 0
        for (acc, element), entry in zip(membership, bundle.entries):
            assert entry.witness == system.network.fetch_witness(acc, element)
            updated, payload = first_update.get(acc, (None, None))
            if updated == element:
                assert entry.witness[0] != payload[0] and entry.witness[1:] == payload[1:]
                derived += 1
        assert derived == len(membership) - CLIENT_FETCHES[case]
        getattr(system, op)(*args, bundle)


class TestCodecFreePath:
    """A witness is its wire bytes on the whole verified path: with the parsed
    view's codec (``reference_verify``) switched off, every op variant and
    read still runs."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    def test_every_op_runs_without_the_codec(self, lift, monkeypatch):
        def switched_off(*_args, **_kwargs):
            raise AssertionError("the witness codec ran on the verified path")

        for codec in ("encode_witness", "decode_witness"):
            monkeypatch.setattr(reference_verify, codec, switched_off)
        monkeypatch.setattr(reference_verify.Witness, "__init__", switched_off)
        for case, (op, args, _other_args) in FORGERY_CASES.items():
            system, oracle = TokenSystem(A, 1000, lift_checkupdate_precondition=lift), BaselineToken.deploy(A, 1000)
            for token in (system, oracle):
                token.transfer(A, B, 100)
                token.approve(A, S, 50)
                getattr(token, op)(*args)
            for owner in (A, B, C, D, S):
                assert system.balance_of(owner) == oracle.balance_of(owner), (case, owner)
                for spender in (S, D):
                    assert system.allowance(owner, spender) == oracle.allowance(owner, spender), (case, owner)


# op variant -> (contract reads, contract writes): the accumulators its plan touches and updates
METERED_ACCESSES = {
    "transfer-standard": (1, 1),
    "transfer-fresh": (1, 1),
    "approve-again": (1, 1),
    "approve-first": (2, 2),
    "transfer_from-standard": (3, 2),
    "transfer_from-fresh": (3, 2),
}


class _RecordingHashlib:
    def __init__(self):
        self.lengths = []

    def sha256(self, data=b""):
        self.lengths.append(len(data))
        return hashlib.sha256(data)


class TestContractMetering:
    """An accepted transaction's trace holds the reads, hashes and writes the contract made."""

    @pytest.mark.parametrize("lift", [False, True], ids=["normal", "lifted"])
    @pytest.mark.parametrize("case", FORGERY_CASES)
    def test_trace_follows_execution(self, case, lift, monkeypatch):
        op, args, _other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        bundle = getattr(system.client, "build_" + op)(*args)
        recorder = _RecordingHashlib()
        monkeypatch.setattr(hashing, "hashlib", recorder)
        outcome = getattr(system.contract, op)(*args, bundle.announced, encode_bundle(bundle))
        monkeypatch.undo()
        kinds = [kind for kind, _arg in outcome.trace.events]
        hashed = sorted(arg for kind, arg in outcome.trace.events if kind == HASH)
        assert recorder.lengths and hashed == sorted(recorder.lengths)
        reads, writes = METERED_ACCESSES[case]
        assert (kinds.count(SLOAD), kinds.count(SSTORE_UPDATE)) == (reads, writes)
        assert len(kinds) == len(hashed) + reads + writes
