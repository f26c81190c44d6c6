"""Seeded random token workloads and the dual-token oracle runner.

The generator draws transfers, approvals and transferFroms over a fixed
account pool, with amounts that sometimes overshoot balances or allowances so
rejection paths get exercised. Senders are always drawn from accounts that
have received funds at least once; never-funded senders behave differently in
the two implementations (the mapping token treats them as zero balances, the
accumulator token has no tuple to prove) and self-transfers have no bundle
schema, so neither appears in generated workloads.
"""

import hashlib
import random
from dataclasses import dataclass

from ..baseline import BaselineToken
from ..erc20.bundle import ALLOWED_BALANCES, BALANCES
from ..erc20.elements import balance_prefix, decode_allowance_element, decode_balance_element
from ..erc20.system import TokenSystem
from ..errors import AcctokenError


def make_address(index: int) -> bytes:
    return hashlib.sha256(b"account:%d" % index).digest()[:20]


@dataclass(frozen=True)
class WorkloadOp:
    kind: str  # transfer | approve | transfer_from
    args: tuple


def generate_workload(seed: int, n_ops: int, n_accounts: int) -> list[WorkloadOp]:
    """Seeded ops over accounts ``make_address(0..n_accounts-1)``, for a token account 0 deployed with 10**12."""
    rng = random.Random(seed)
    addresses = [make_address(i) for i in range(n_accounts)]
    # the generator simulates acceptance so it knows which accounts actually
    # hold a balance tuple; senders are only ever drawn from those
    shadow = BaselineToken.deploy(addresses[0], 10**12, keep_logs=False)
    has_tuple = {0}
    approved: set[tuple[int, int]] = set()
    ops = []
    for _ in range(n_ops):
        kind = rng.choices(
            ("transfer", "approve", "transfer_from"),
            weights=(5, 3, 2),
        )[0]
        if kind == "transfer":
            src = rng.choice(sorted(has_tuple))
            dst = rng.randrange(n_accounts)
            while dst == src:
                dst = rng.randrange(n_accounts)
            amount = rng.choice((0, 1, 2, 5, 17, 10**4, 10**9))
            op = WorkloadOp("transfer", (addresses[src], addresses[dst], amount))
            if apply_op(shadow, op) is None:
                has_tuple.add(dst)
        elif kind == "approve":
            owner = rng.choice(sorted(has_tuple))
            spender = rng.randrange(n_accounts)
            amount = rng.choice((0, 1, 7, 40, 10**3))
            op = WorkloadOp("approve", (addresses[owner], addresses[spender], amount))
            apply_op(shadow, op)
            approved.add((owner, spender))
        else:
            if approved and rng.random() < 0.8:
                owner, spender = rng.choice(sorted(approved))
                if owner not in has_tuple:
                    owner = rng.choice(sorted(has_tuple))
            else:
                owner, spender = rng.choice(sorted(has_tuple)), rng.randrange(n_accounts)
            dst = rng.randrange(n_accounts)
            while dst == owner:
                dst = rng.randrange(n_accounts)
            amount = rng.choice((0, 1, 3, 25, 10**6))
            op = WorkloadOp(
                "transfer_from",
                (addresses[spender], addresses[owner], addresses[dst], amount),
            )
            if apply_op(shadow, op) is None:
                has_tuple.add(dst)
        ops.append(op)
    return ops


def apply_op(token, op: WorkloadOp):
    """Run one op on a TokenSystem or BaselineToken; returns the error class or None.

    Honest runs only ever surface TokenError subclasses; under fault policies
    the client reports bad data as VerificationFailed (a TokenError) and a
    refused request as Unavailable, and both count as dropped.
    """
    try:
        getattr(token, op.kind)(*op.args)
        return None
    except AcctokenError as exc:
        return type(exc)


def run_workload(token, ops: list[WorkloadOp]) -> list[type | None]:
    """Per-op verdicts: None for accepted, the error class otherwise."""
    return [apply_op(token, op) for op in ops]


def true_balance(token, owner: bytes) -> int:
    """Balance read straight from ledger state, bypassing the serving path."""
    if isinstance(token, BaselineToken):
        return token.balance_of(owner)
    assert isinstance(token, TokenSystem)
    held = token.network.elements(BALANCES, balance_prefix(owner))
    return sum(decode_balance_element(element)[1] for element in held)


def effective_balances(token) -> dict[bytes, int]:
    """Nonzero balances by address, regardless of implementation.

    For the accumulator token this sums every tuple an owner holds, as
    ``true_balance`` does, so a second tuple shows instead of overwriting.
    """
    if isinstance(token, BaselineToken):
        return {a: v for a, v in token.balances.items() if v}
    assert isinstance(token, TokenSystem)
    out = {}
    for element in token.network.elements(BALANCES):
        owner, amount = decode_balance_element(element)
        out[owner] = out.get(owner, 0) + amount
    return {owner: amount for owner, amount in out.items() if amount}


def effective_allowances(token) -> dict[tuple[bytes, bytes], int]:
    if isinstance(token, BaselineToken):
        return {pair: v for pair, v in token.allowed.items() if v}
    assert isinstance(token, TokenSystem)
    out = {}
    for element in token.network.elements(ALLOWED_BALANCES):
        owner, spender, amount = decode_allowance_element(element)
        out[(owner, spender)] = out.get((owner, spender), 0) + amount
    return {pair: amount for pair, amount in out.items() if amount}
