"""Mapping-based baseline token: semantics, storage traces, key accounting."""

import pytest

from acctoken.baseline import BaselineToken
from acctoken.erc20 import plan
from acctoken.errors import (
    InsufficientAllowance,
    InsufficientBalance,
    NotApproved,
    Overflow,
    ZeroSupply,
)
from acctoken.gas import SLOAD, SSTORE_NEW, SSTORE_UPDATE

A = bytes.fromhex("aa" * 20)
B = bytes.fromhex("bb" * 20)
C = bytes.fromhex("cc" * 20)
D = bytes.fromhex("dd" * 20)
S = bytes.fromhex("55" * 20)


def event_kinds(trace):
    return [kind for kind, _ in trace.events]


class TestSemantics:
    def test_deploy_and_transfer(self):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 300)
        assert token.balance_of(B) == 300
        assert token.balance_of(A) == 700
        assert token.total_supply == 1000

    def test_zero_supply(self):
        with pytest.raises(ZeroSupply):
            BaselineToken.deploy(A, 0)

    def test_insufficient_balance(self):
        token = BaselineToken.deploy(A, 1000)
        with pytest.raises(InsufficientBalance):
            token.transfer(A, B, 1001)
        assert token.balance_of(A) == 1000

    def test_approve_and_transfer_from(self):
        token = BaselineToken.deploy(A, 1000)
        token.approve(A, S, 50)
        assert token.allowance(A, S) == 50
        token.transfer_from(S, A, B, 20)
        assert token.allowance(A, S) == 30
        assert token.balance_of(B) == 20

    def test_reapprove_replaces(self):
        token = BaselineToken.deploy(A, 1000)
        token.approve(A, S, 50)
        token.approve(A, S, 20)
        assert token.allowance(A, S) == 20

    def test_never_approved_vs_insufficient(self):
        token = BaselineToken.deploy(A, 1000)
        with pytest.raises(NotApproved):
            token.transfer_from(S, A, B, 1)
        token.approve(A, S, 5)
        with pytest.raises(InsufficientAllowance):
            token.transfer_from(S, A, B, 6)

    def test_amount_validation(self):
        token = BaselineToken.deploy(A, 1000)
        with pytest.raises(Overflow):
            token.transfer(A, B, -1)
        with pytest.raises(Overflow):
            token.approve(A, S, 2**256)

    def test_conservation(self):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 400)
        token.transfer(B, C, 150)
        token.check_conservation()

    @pytest.mark.parametrize("op", ["transfer", "transfer_from"])
    @pytest.mark.parametrize("tokens", [10, 100], ids=["part", "whole"])
    def test_transfer_to_oneself_keeps_the_balance(self, op, tokens):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 100)
        token.approve(B, S, 100)
        if op == "transfer":
            token.transfer(B, B, tokens)
        else:
            token.transfer_from(S, B, B, tokens)
            assert token.allowance(B, S) == 100 - tokens
        assert token.balance_of(B) == 100
        token.check_conservation()

    def test_transfer_to_oneself_checks_what_the_debit_leaves(self):
        token = BaselineToken.deploy(A, 2**256 - 1)
        token.transfer(A, A, 1)  # the credit lands on the debited balance, so nothing overflows
        assert token.balance_of(A) == 2**256 - 1


class TestStorageTraces:
    def test_transfer_between_existing_accounts(self):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 300)
        record = token.transfer(A, B, 100)  # both accounts now exist
        kinds = event_kinds(record.trace)
        assert kinds.count(SLOAD) == 2
        assert kinds.count(SSTORE_UPDATE) == 2
        assert kinds.count(SSTORE_NEW) == 0

    def test_transfer_to_fresh_account_writes_new_key(self):
        token = BaselineToken.deploy(A, 1000)
        record = token.transfer(A, B, 300)
        kinds = event_kinds(record.trace)
        assert kinds.count(SSTORE_NEW) == 1
        assert kinds.count(SSTORE_UPDATE) == 1

    def test_first_time_approve_writes_new_key(self):
        token = BaselineToken.deploy(A, 1000)
        record = token.approve(A, S, 50)
        kinds = event_kinds(record.trace)
        assert kinds.count(SSTORE_NEW) == 1
        assert kinds.count(SSTORE_UPDATE) == 0

    def test_reapprove_is_an_update(self):
        token = BaselineToken.deploy(A, 1000)
        token.approve(A, S, 50)
        record = token.approve(A, S, 20)
        kinds = event_kinds(record.trace)
        assert kinds.count(SSTORE_NEW) == 0
        assert kinds.count(SSTORE_UPDATE) == 1

    def test_transfer_from_trace(self):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 10)
        token.approve(A, S, 50)
        record = token.transfer_from(S, A, B, 5)
        kinds = event_kinds(record.trace)
        assert kinds.count(SLOAD) == 3
        assert kinds.count(SSTORE_UPDATE) == 3

    def test_events_carry_key_counts(self):
        token = BaselineToken.deploy(A, 1000)
        record = token.transfer(A, B, 300)
        for _, n_keys in record.trace.events:
            assert n_keys in (1, 2)


class TestKeyAccounting:
    def test_key_count_tracks_live_entries(self):
        token = BaselineToken.deploy(A, 1000)
        assert token.key_count == 1
        token.transfer(A, B, 300)
        assert token.key_count == 2
        token.approve(A, S, 50)
        assert token.key_count == 3

    def test_zeroed_balance_entry_is_deleted(self):
        token = BaselineToken.deploy(A, 1000)
        token.transfer(A, B, 1000)
        assert A not in token.balances
        assert token.key_count == 1

    def test_zeroed_allowance_keeps_its_pair(self):
        token = BaselineToken.deploy(A, 1000)
        token.approve(A, S, 50)
        # the zero releases the pair's storage key, and the pair stays approved
        record = token.approve(A, S, 0)
        assert record.trace.events == [(SLOAD, 2), (SSTORE_UPDATE, 2)]
        assert token.allowed == {(A, S): 0} and token.key_count == 1
        assert token.allowance(A, S) == 0
        with pytest.raises(InsufficientAllowance):
            token.transfer_from(S, A, B, 1)
        with pytest.raises(NotApproved):
            token.transfer_from(C, A, B, 1)
        # a zero for a pair never approved writes nothing, and approves it
        assert token.approve(B, S, 0).trace.events == [(SLOAD, 1)]
        assert token.key_count == 1
        with pytest.raises(InsufficientAllowance):
            token.transfer_from(S, B, A, 1)
        # approvals resume from zero with a new storage key
        assert token.approve(A, S, 9).trace.events == [(SLOAD, 1), (SSTORE_NEW, 1)]
        assert token.allowance(A, S) == 9 and token.key_count == 2

    def test_log_retention_flag(self):
        token = BaselineToken.deploy(A, 1000, keep_logs=False)
        token.transfer(A, B, 1)
        assert token.logs == []
        assert token.log_count == 2


def ledger(token):
    return dict(token.balances), dict(token.allowed), token.key_count, token.log_count


def funded():
    token = BaselineToken.deploy(A, 1000)
    token.transfer(A, B, 100)
    token.approve(B, S, 10)
    return token


# the mapping token reads a plan's log record, never its announced words
NO_WORDS = plan.Announced(())


class TestBootstrap:
    def test_applies_logs_without_transactions(self):
        token = funded()
        token.bootstrap([plan.transfer(A, C, 30, NO_WORDS), plan.approve(C, S, 5, NO_WORDS),
                         plan.transfer(B, D, 100, NO_WORDS), plan.approve(B, S, 0, NO_WORDS)])
        assert token.balances == {A: 870, C: 30, D: 100}
        # B's pair for S stays approved at zero, which holds no storage key
        assert token.allowed == {(B, S): 0, (C, S): 5}
        assert token.key_count == 4
        assert token.log_count == 3  # the deployment and the two transactions
        token.check_conservation()

    @pytest.mark.parametrize(
        "bad_plan, error",
        [
            (plan.transfer(A, C, 901, NO_WORDS), InsufficientBalance),  # A holds 900
            (plan.transfer(A, C, 2**256, NO_WORDS), Overflow),
            (plan.transfer(A, C, -1, NO_WORDS), Overflow),  # would credit A
            (plan.approve(C, S, 2**256, NO_WORDS), Overflow),
            (plan.approve(C, S, -1, NO_WORDS), Overflow),
        ],
        ids=["overspend", "transfer-above-uint256", "transfer-negative", "approve-above-uint256", "approve-negative"],
    )
    def test_refused_plan_writes_nothing(self, bad_plan, error):
        token, expected = funded(), funded()
        expected.bootstrap([plan.approve(A, S, 7, NO_WORDS)])
        with pytest.raises(error):
            token.bootstrap([plan.approve(A, S, 7, NO_WORDS), bad_plan, plan.transfer(A, D, 1, NO_WORDS)])
        assert ledger(token) == ledger(expected)
