"""One plan per token operation: its ordered proof steps and where its guards run.

``transfer``, ``approve`` and ``transfer_from`` take the op's arguments and an
``amounts`` source and return the log record and the steps, ``(accumulator,
claim, element)`` triples: membership claims, then updates in chain order.
A tuple that changes under its key (an owner's balance, a pair's allowance)
is one replace step, whose element is the pair (old tuple, new tuple); a
tuple under a key that held none is an add.
The contract walks them in lock-step with a bundle's entries, so they are
the bundle schema: one entry per step, each carrying its step's claim. The
client builds bundles from them, and ``TokenSystem`` commits their update
steps (a verified transaction's and ``bootstrap``'s alike).
``mint`` is deployment's plan, its one step the deployer's balance tuple;
``grow`` is population growth's, the net changes of a run of new accounts
that the deployer funds and that each approve a spender. Neither is a
transaction, so ``PLANS`` does not list them; ``TokenSystem`` bootstraps
their steps, and the mapping token (``BaselineToken.bootstrap``) applies
their records.

Steps are made lazily, so amounts are read and guards run where the plan
says; a plan checks its own amount before its first step. ``amounts.spend(acc,
*key)`` gives an amount the op draws on; ``amounts.prior(acc, *key)`` gives
the tuple the op replaces, or None, which picks the variant (standard or
fresh destination, approval again or first). Each op reads one prior amount,
after its spent ones; the non-None amounts, in order, are the announced
words.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

from ..errors import BundleSchemaMismatch, InsufficientAllowance, InsufficientBalance
from .bundle import (
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    MEMBER,
    NON_MEMBER,
    UPDATE_ADD,
    UPDATE_REPLACE,
    OpTag,
)
from .elements import (
    ZERO_ADDRESS,
    allowance_column,
    allowance_element,
    balance_column,
    balance_element,
    check_amount,
    pair_column,
    pair_element,
)


@dataclass(slots=True)
class LogRecord:
    event: str  # "Transfer" | "Approval"
    addr_from: bytes
    addr_to: bytes
    amount: int


@dataclass(frozen=True, slots=True)
class Growth:
    """The record of a growth plan: ``deployer``, which holds ``balance``,
    grants ``grant`` to each of ``accounts``, and each account approves the
    spender at its index in ``spenders`` for ``allowance``."""

    deployer: bytes
    balance: int
    grant: int
    allowance: int
    accounts: Sequence[bytes]
    spenders: Sequence[bytes]

    def __post_init__(self):
        if len(self.accounts) != len(self.spenders):
            raise ValueError("a growth names one spender per account")


Step = tuple[str, int, bytes | tuple[bytes, bytes]]  # (accumulator, claim, element or a replace's pair)
Plan = tuple[LogRecord | Growth, Iterator[Step]]  # (record, steps)


class Announced:
    """Amounts given as announced words, in plan order; the prior one may be left out."""

    __slots__ = ("_words", "read")

    def __init__(self, words):
        self._words = iter(words)
        self.read = 0  # words handed out

    def spend(self, acc, *key) -> int:
        word = next(self._words, None)
        if word is None:
            raise BundleSchemaMismatch("the announced words run out before the op's spent amounts")
        self.read += 1
        return word

    def prior(self, acc, *key) -> int | None:
        word = next(self._words, None)
        if word is not None:
            self.read += 1
        return word


def _check_distinct(sender: bytes, to: bytes):
    if sender == to:
        raise BundleSchemaMismatch("transfer to self has no bundle schema")


def _cover(amount: int, tokens: int, error, what: str):
    if amount < tokens:
        raise error(f"{what} {amount} cannot cover {tokens}")


def _move(sender: bytes, to: bytes, tokens: int, amounts) -> Iterator[Step]:
    """Debit ``sender``, credit ``to``: the balance half of transfer and transferFrom."""
    y1 = amounts.spend(BALANCES, sender)
    sender_tuple = balance_element(sender, y1)
    yield (BALANCES, MEMBER, sender_tuple)
    _cover(y1, tokens, InsufficientBalance, "balance")
    y2 = amounts.prior(BALANCES, to)
    fresh = y2 is None
    y2 = 0 if fresh else y2
    to_tuple = balance_element(to, y2)
    yield (BALANCES, NON_MEMBER if fresh else MEMBER, to_tuple)
    check_amount(y2 + tokens)
    yield (BALANCES, UPDATE_REPLACE, (sender_tuple, balance_element(sender, y1 - tokens)))
    credited = balance_element(to, y2 + tokens)
    yield (BALANCES, UPDATE_ADD, credited) if fresh else (BALANCES, UPDATE_REPLACE, (to_tuple, credited))


def _transfer_steps(sender: bytes, to: bytes, tokens: int, amounts) -> Iterator[Step]:
    check_amount(tokens)
    _check_distinct(sender, to)
    yield from _move(sender, to, tokens, amounts)


def transfer(sender: bytes, to: bytes, tokens: int, amounts) -> Plan:
    return LogRecord("Transfer", sender, to, tokens), _transfer_steps(sender, to, tokens, amounts)


def _approve_steps(owner: bytes, spender: bytes, tokens: int, amounts) -> Iterator[Step]:
    check_amount(tokens)
    old = amounts.prior(ALLOWED_BALANCES, owner, spender)
    allowance = allowance_element(owner, spender, tokens)
    if old is None:
        pair = pair_element(owner, spender)
        yield (ALLOWED_ADDRESSES, NON_MEMBER, pair)
        yield (ALLOWED_ADDRESSES, UPDATE_ADD, pair)
        yield (ALLOWED_BALANCES, UPDATE_ADD, allowance)
    else:
        old_allowance = allowance_element(owner, spender, old)
        yield (ALLOWED_BALANCES, MEMBER, old_allowance)
        yield (ALLOWED_BALANCES, UPDATE_REPLACE, (old_allowance, allowance))


def approve(owner: bytes, spender: bytes, tokens: int, amounts) -> Plan:
    return LogRecord("Approval", owner, spender, tokens), _approve_steps(owner, spender, tokens, amounts)


def _transfer_from_steps(spender: bytes, sender: bytes, to: bytes, tokens: int, amounts) -> Iterator[Step]:
    check_amount(tokens)
    _check_distinct(sender, to)
    allowed = amounts.spend(ALLOWED_BALANCES, sender, spender)
    old_allowance = allowance_element(sender, spender, allowed)
    yield (ALLOWED_ADDRESSES, MEMBER, pair_element(sender, spender))
    yield (ALLOWED_BALANCES, MEMBER, old_allowance)
    _cover(allowed, tokens, InsufficientAllowance, "allowance")
    yield from _move(sender, to, tokens, amounts)
    yield (ALLOWED_BALANCES, UPDATE_REPLACE, (old_allowance, allowance_element(sender, spender, allowed - tokens)))


def transfer_from(spender: bytes, sender: bytes, to: bytes, tokens: int, amounts) -> Plan:
    return LogRecord("Transfer", sender, to, tokens), _transfer_from_steps(spender, sender, to, tokens, amounts)


def mint(owner: bytes, total: int) -> Plan:
    """Deployment: the whole supply credited to ``owner``, from the zero address."""
    steps = [(BALANCES, UPDATE_ADD, balance_element(owner, total))]
    return LogRecord("Transfer", ZERO_ADDRESS, owner, total), iter(steps)


def _growth_steps(growth: Growth) -> Iterator[Step]:
    """``grow``'s steps: the deployer's replace, then one column of adds per
    accumulator, each a run of one (accumulator, claim) that ``bootstrap``
    records in one go: every new balance tuple, every pair, every allowance."""
    deployer, balance, grant = growth.deployer, growth.balance, growth.grant
    check_amount(grant)
    check_amount(growth.allowance)
    debit = grant * len(growth.accounts)
    _cover(balance, debit, InsufficientBalance, "balance")
    yield (BALANCES, UPDATE_REPLACE, (balance_element(deployer, balance), balance_element(deployer, balance - debit)))
    accounts, spenders = growth.accounts, growth.spenders
    yield from zip(repeat(BALANCES), repeat(UPDATE_ADD), balance_column(accounts, grant))
    yield from zip(repeat(ALLOWED_ADDRESSES), repeat(UPDATE_ADD), pair_column(accounts, spenders))
    yield from zip(repeat(ALLOWED_BALANCES), repeat(UPDATE_ADD), allowance_column(accounts, spenders, growth.allowance))


def grow(
    deployer: bytes, balance: int, accounts: Sequence[bytes], spenders: Sequence[bytes], grant: int, allowance: int
) -> Plan:
    """Population growth: ``deployer``, holding ``balance``, funds each new
    account of ``accounts`` with ``grant``, and each approves its spender in
    ``spenders`` for ``allowance``, as a first transfer to it and a first
    approval would; the steps are the net changes of those ops.

    Those are one replace of the deployer's balance tuple, by the whole
    debit, then every account's balance tuple, then every pair, then every
    allowance, each an add, so that each accumulator's adds come as one
    run. The deployer's cover is checked once, for the whole debit, and
    each add is refused where its key holds a tuple already, as the ops'
    fresh variants are. Nothing proves the steps, so they carry no
    membership claims.
    """
    growth = Growth(deployer, balance, grant, allowance, accounts, spenders)
    return growth, _growth_steps(growth)


PLANS = {OpTag.TRANSFER: transfer, OpTag.APPROVE: approve, OpTag.TRANSFER_FROM: transfer_from}
