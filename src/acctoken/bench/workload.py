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
from ..erc20.elements import balance_amount, balance_prefix, decode_allowance_element, decode_balance_element
from ..erc20.system import TokenSystem


def make_address(index: int) -> bytes:
    return hashlib.sha256(b"account:%d" % index).digest()[:20]


def true_balance(token, owner: bytes) -> int:
    """Balance read straight from ledger state, bypassing the serving path."""
    if isinstance(token, BaselineToken):
        return token.balance_of(owner)
    assert isinstance(token, TokenSystem)
    held = token.network.elements(BALANCES, balance_prefix(owner))
    return balance_amount(held[0]) if held else 0


def effective_balances(token) -> dict[bytes, int]:
    """Nonzero balances by address, regardless of implementation."""
    if isinstance(token, BaselineToken):
        return {a: v for a, v in token.balances.items() if v}
    assert isinstance(token, TokenSystem)
    held = map(decode_balance_element, token.network.elements(BALANCES))
    return {owner: amount for owner, amount in held if amount}


def effective_allowances(token) -> dict[tuple[bytes, bytes], int]:
    if isinstance(token, BaselineToken):
        return {pair: v for pair, v in token.allowed.items() if v}
    assert isinstance(token, TokenSystem)
    held = map(decode_allowance_element, token.network.elements(ALLOWED_BALANCES))
    return {(owner, spender): amount for owner, spender, amount in held if amount}
