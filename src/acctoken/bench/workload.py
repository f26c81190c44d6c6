"""Benchmark accounts by index, and token state read straight from the ledger.

The readers take either token, a ``TokenSystem`` or a ``BaselineToken``, and
bypass the serving path, so a fault policy on it cannot mask what the ledger
holds: scenarios spot-check balances with ``true_balance``, and the
benchmark's final-state checks compare ``effective_balances`` and
``effective_allowances`` with the mapping oracle's.
"""

import hashlib

from ..baseline import BaselineToken
from ..erc20.bundle import ALLOWED_BALANCES, BALANCES
from ..erc20.elements import balance_prefix, decode_allowance_element, decode_balance_element
from ..erc20.system import TokenSystem


def make_address(index: int) -> bytes:
    return hashlib.sha256(b"account:%d" % index).digest()[:20]


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
