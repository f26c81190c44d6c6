"""Seeded random token workloads and the dual-token oracle runner.

The generator draws transfers, approvals and transferFroms over a fixed
account pool, with amounts that sometimes overshoot balances or allowances so
rejection paths get exercised. Senders are always drawn from accounts that
have received funds at least once; never-funded senders behave differently in
the two implementations (the mapping token treats them as zero balances, the
accumulator token has no tuple to prove) and self-transfers have no bundle
schema, so neither appears in generated workloads.
"""

import random
from dataclasses import dataclass

from acctoken.baseline import BaselineToken
from acctoken.bench import make_address
from acctoken.errors import AcctokenError


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
