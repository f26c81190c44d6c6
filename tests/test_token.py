"""Accumulator token: contract verification, client builds, atomicity."""

from dataclasses import replace

import pytest

from acctoken.bench import effective_allowances, effective_balances
from acctoken.bench.workload import true_balance
from acctoken.erc20 import CONTRACT_KEYS, OpTag, TokenSystem, decode_bundle, encode_bundle
from acctoken.erc20.bundle import (
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    MEMBER,
    NON_MEMBER,
    UPDATE_ADD,
    UPDATE_DEL,
    purpose_claim,
)
from acctoken.erc20.elements import allowance_element
from acctoken.errors import (
    AcctokenError,
    BundleSchemaMismatch,
    InsufficientAllowance,
    InsufficientBalance,
    InvalidProof,
    NotApproved,
    Overflow,
    StaleProof,
    TokenError,
    VerificationFailed,
    ZeroSupply,
)
from acctoken.storage import FaultPolicy

A = bytes.fromhex("aa" * 20)
B = bytes.fromhex("bb" * 20)
C = bytes.fromhex("cc" * 20)
D = bytes.fromhex("dd" * 20)
S = bytes.fromhex("55" * 20)


def snapshot(system):
    state = system.contract.state
    storage = tuple(
        (system.network.accumulator_value(acc_id), system.network.epoch(acc_id))
        for acc_id in system.acc_ids.values()
    )
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
        system.fast_transfer(A, B, 10, 1000, None)
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

    def test_lifted_contract_rejects_full_bundles(self):
        lifted = TokenSystem(A, 1000, lift_checkupdate_precondition=False)
        bundle = lifted.client.build_transfer(A, B, 1)
        lifted.contract.lift = True
        with pytest.raises(BundleSchemaMismatch):
            lifted.contract.transfer(A, B, 1, bundle)


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
            for name, acc_id in system.acc_ids.items():
                assert system.state.value_of(name) == system.network.accumulator_value(acc_id)


def accumulator_values(system):
    return [system.network.accumulator_value(acc_id) for acc_id in system.acc_ids.values()]


class TestFastPathEquivalence:
    """The bootstrap fast path reaches the state the verified op reaches."""

    @pytest.mark.parametrize("to, to_balance", [(B, 100), (C, None)], ids=["standard", "fresh"])
    def test_fast_transfer(self, to, to_balance):
        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        for system in (fast, verified):
            system.transfer(A, B, 100)
        fast.fast_transfer(A, to, 25, 900, to_balance)
        verified.transfer(A, to, 25)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)

    @pytest.mark.parametrize("old", [50, None], ids=["again", "first"])
    def test_fast_approve(self, old):
        fast, verified = TokenSystem(A, 1000), TokenSystem(A, 1000)
        if old is not None:
            for system in (fast, verified):
                system.approve(A, S, old)
        fast.fast_approve(A, S, 7, old)
        verified.approve(A, S, 7)
        assert fast.state == verified.state
        assert accumulator_values(fast) == accumulator_values(verified)


class TestOneTuplePerKey:
    def fresh_bundle_for_holder(self, system, sender, to, tokens):
        """The fresh-destination bundle a client builds when it ignores ``to``'s tuple."""
        honest_lookup = system.client._balance_entry
        system.client._balance_entry = lambda owner: None if owner == to else honest_lookup(owner)
        try:
            return system.client.build_transfer(sender, to, tokens)
        finally:
            del system.client._balance_entry

    def test_second_balance_tuple_is_detected(self):
        # a fresh-destination transfer to a holder is still accepted (it only
        # proves that (to, 0) is absent); the invariant checks must notice
        system = TokenSystem(A, 1000)
        system.transfer(A, B, 100)
        system.transfer(A, B, 10, self.fresh_bundle_for_holder(system, A, B, 10))
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
        system.network.commit(system.acc_ids[ALLOWED_BALANCES], "add", allowance_element(A, S, 7))
        assert effective_allowances(system)[(A, S)] == 57
        with pytest.raises(AssertionError, match="more than one allowed-balances tuple"):
            system.check_conservation()
        with pytest.raises(VerificationFailed):
            system.allowance(A, S)


FORGERY_CASES = {  # op variant -> (op, args, args the other variant's bundle is built for)
    "transfer-standard": ("transfer", (A, B, 25), (A, C, 25)),
    "transfer-fresh": ("transfer", (A, C, 25), (A, B, 25)),
    "approve-again": ("approve", (A, S, 7), (A, D, 7)),
    "approve-first": ("approve", (A, D, 7), (A, S, 7)),
    "transfer_from-standard": ("transfer_from", (S, A, B, 5), (S, A, C, 5)),
    "transfer_from-fresh": ("transfer_from", (S, A, C, 5), (S, A, B, 5)),
}


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
