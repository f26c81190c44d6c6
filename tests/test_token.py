"""Accumulator token: contract verification, client builds, atomicity."""

import copy
import hashlib
from dataclasses import replace

import pytest

from acctoken.accumulator import WitnessKind, belongs, decode_witness, hashing, tree
from acctoken.bench import effective_allowances, effective_balances
from acctoken.bench.workload import true_balance
from acctoken.erc20 import (
    CONTRACT_KEYS,
    BundleEntry,
    OpTag,
    ProofBundle,
    TokenSystem,
    decode_bundle,
    encode_bundle,
    plan,
)
from acctoken.erc20.bundle import (
    ACCUMULATORS,
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    MEMBER,
    NON_MEMBER,
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
    StaleProof,
    StorageError,
    TokenError,
    VerificationFailed,
    ZeroSupply,
)
from acctoken.gas import HASH, SLOAD, SSTORE_UPDATE
from acctoken.storage import FaultPolicy, StorageNetwork

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
                decoded.base_accs = dict(bundle.base_accs)
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
        with pytest.raises(StaleProof):
            system.transfer(A, B, 10, bundle)
        assert snapshot(system) == before
        # rebuilding against the new value succeeds
        system.transfer(A, B, 10)
        assert system.balance_of(B) == 10

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
        with pytest.raises((InvalidProof, StaleProof)):
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
            lifted.contract.transfer(A, B, 1, bundle)


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
            witness = decode_witness(lagging.network.fetch_witness(BALANCES, element))
            assert belongs(old, element, witness) == 1

    def test_zero_transfer_to_holder_commits_nothing(self):
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        before = epochs(system)
        system.transfer(A, B, 0)
        assert epochs(system) == before
        for name in ACCUMULATORS:
            assert system.state.value_of(name) == system.network.accumulator_value(name)
        # no commit cleared its chain; the next bundle still starts a new one
        assert system.network._entry(BALANCES).tip[0] == system.state.balances_acc
        commits = spy_commits(system)
        system.client.build_transfer(A, B, 5)
        _digest, _root, added, _deleted = system.network._entry(BALANCES).tip
        assert sorted(added) == sorted(hashing.element_digest(balance_element(*e)) for e in ((A, 895), (B, 105)))
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
        # intermediate balance tuples and B's first allowance cancel out
        ops = [("transfer", (A, B, 100)), ("transfer", (A, C, 50)), ("approve", (B, S, 30)),
               ("transfer", (A, B, 5)), ("approve", (B, S, 9)), ("approve", (C, B, 1))]
        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        amounts = {A: 1000}
        allowances = {}

        def plans():
            for kind, (owner, other, tokens) in ops:
                if kind == "transfer":
                    yield plan.transfer(owner, other, tokens, announced(amounts[owner], amounts.get(other)))
                    amounts[owner] -= tokens
                    amounts[other] = amounts.get(other, 0) + tokens
                else:
                    yield plan.approve(owner, other, tokens, announced(allowances.get((owner, other))))
                    allowances[owner, other] = tokens

        fast.bootstrap(plans())
        for kind, args in ops:
            getattr(verified, kind)(*args)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)
        assert [fast.network.epoch(name) for name in ACCUMULATORS] == [2, 1, 1]
        assert effective_balances(fast) == {A: 845, B: 105, C: 50}

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
            ALLOWED_BALANCES, system.network.changes(ALLOWED_BALANCES, [("add", allowance_element(A, S, 7))])
        )
        assert effective_allowances(system)[(A, S)] == 57
        with pytest.raises(AssertionError, match="more than one allowed-balances tuple"):
            system.check_conservation()
        with pytest.raises(VerificationFailed):
            system.allowance(A, S)


def update_chain(system, acc, ops):
    """(value after, witness) of each of ``ops``, simulated as one chain on ``acc``'s current value."""
    chain, base = [], None
    for op, element in ops:
        base, payload = system.network.build_update_witness(acc, op, element, base=base)
        chain.append((base, decode_witness(payload)))
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
            BundleEntry(purpose(BALANCES, claim), decode_witness(system.network.fetch_witness(BALANCES, element)))
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
        return ProofBundle(OpTag.TRANSFER, membership + updates, (100,), {BALANCES: system.state.balances_acc})

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
        bundle = ProofBundle(OpTag.TRANSFER, entries, (y1, 900), {BALANCES: system.state.balances_acc})
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
    """Check every storage commit of ``system`` against a walking commit of the same changes.

    Before each commit the network and the changes are copied; the copy
    commits them path by path (no accepted value, so no tip is adopted) and
    must reach the same trie, tuple for tuple, the same elements and the
    same index. Returns the list of (accumulator, whether the commit adopted
    the chain tip's root) the commits append to.
    """
    network = system.network
    commit = network.commit
    seen = []

    def checked(acc, changes, accepted=None):
        tip = network._entry(acc).tip
        twin, twin_changes = copy.deepcopy((network, changes))
        value = commit(acc, changes, accepted)
        StorageNetwork.commit(twin, acc, twin_changes)
        entry, walked = network._entry(acc), twin._entry(acc)
        root = entry.memory.root
        assert root == walked.memory.root and root is not walked.memory.root
        assert entry.memory.elements == walked.memory.elements and entry.index == walked.index
        adopted = tip is not None and root is tip[1]
        if adopted:  # the new elements are keyed by the very objects their leaves hold
            keys = {key: key for key in entry.memory.elements}
            for key in changes.adds:
                _path, leaf = tree.walk(root, key)
                assert keys[key] is tree.leaf_key(leaf)
        seen.append((acc, adopted))
        return value

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
        # walks, and storage lands elsewhere than the contract
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        bundle = system.client.build_transfer(A, B, 10)
        monkeypatch.setattr("acctoken.erc20.contract.check_update", lambda *args: 1)
        commits = spy_commits(system)
        with pytest.raises(AssertionError, match="storage diverged from contract on balances"):
            system.transfer(A, B, 20, bundle)
        assert commits == [(BALANCES, False)]

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
        op, args, other_args = FORGERY_CASES[case]
        system = TokenSystem(A, 1000, lift_checkupdate_precondition=lift)
        system.transfer(A, B, 100)
        system.approve(A, S, 50)
        build = getattr(system.client, "build_" + op)
        honest, other = build(*args), build(*other_args)
        assert other.purposes() != honest.purposes()  # the other variant
        before = snapshot(system)
        for forged in self.forgeries(honest, other):
            with pytest.raises(AcctokenError):
                getattr(system, op)(*args, forged)
            assert snapshot(system) == before
        getattr(system, op)(*args, honest)  # the honest bundle still goes through


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
        # every membership entry, derived or fetched, is the witness storage serves
        _log, steps = plan.PLANS[bundle.op](*args, plan.Announced(bundle.announced))
        membership = [(acc, element) for acc, claim, element in steps if claim in (MEMBER, NON_MEMBER)]
        for (acc, element), entry in zip(membership, bundle.entries[: len(membership)]):
            assert entry.witness == decode_witness(system.network.fetch_witness(acc, element))
        getattr(system, op)(*args, bundle)


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
        outcome = getattr(system.contract, op)(*args, bundle)
        monkeypatch.undo()
        kinds = [kind for kind, _arg in outcome.trace.events]
        hashed = sorted(arg for kind, arg in outcome.trace.events if kind == HASH)
        assert recorder.lengths and hashed == sorted(recorder.lengths)
        reads, writes = METERED_ACCESSES[case]
        assert (kinds.count(SLOAD), kinds.count(SSTORE_UPDATE)) == (reads, writes)
        assert len(kinds) == len(hashed) + reads + writes
