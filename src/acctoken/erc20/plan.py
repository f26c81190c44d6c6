"""One plan per token operation: its ordered proof steps and where its guards run.

``transfer``, ``approve`` and ``transfer_from`` take the op's arguments and an
``amounts`` source and return the log record and the steps, ``(accumulator,
claim, element)`` triples: membership claims, then updates in chain order.
The contract verifies them, the client builds bundles from them,
``TokenSystem`` commits their update steps (a verified transaction's and
``bootstrap``'s growth stream alike) and the bundle schemas derive from
them.

Steps are made lazily, so amounts are read and guards run where the plan
says. ``amounts.spend(acc, *key)`` gives an amount the op draws on;
``amounts.prior(acc, *key)`` gives the tuple the op replaces, or None, which
picks the variant (standard or fresh destination, approval again or first).
Each op reads one prior amount, after its spent ones; the non-None amounts,
in order, are the announced words.
"""

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

from ..errors import BundleSchemaMismatch, InsufficientAllowance, InsufficientBalance
from .bundle import (
    ACCUMULATORS,
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    MEMBER,
    NON_MEMBER,
    STORAGE_OP,
    UPDATE_ADD,
    UPDATE_DEL,
    OpTag,
    ProofBundle,
    is_update_purpose,
    purpose,
)
from .elements import ZERO_ADDRESS, allowance_element, balance_element, check_amount, pair_element


@dataclass
class LogRecord:
    event: str  # "Transfer" | "Approval"
    addr_from: bytes
    addr_to: bytes
    amount: int


Step = tuple[str, int, bytes]  # (accumulator, claim, element)
Plan = tuple[LogRecord, Iterator[Step]]  # (log record, steps)


class Announced:
    """Amounts given as announced words, in plan order; the prior one may be left out."""

    def __init__(self, words):
        self._words = iter(words)
        self.read = 0  # words handed out

    def spend(self, acc, *key) -> int:
        self.read += 1
        return next(self._words)

    def prior(self, acc, *key) -> int | None:
        word = next(self._words, None)
        if word is not None:
            self.read += 1
        return word


def check_distinct(sender: bytes, to: bytes):
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
    yield (BALANCES, UPDATE_DEL, sender_tuple)
    if not fresh:
        yield (BALANCES, UPDATE_DEL, to_tuple)
    yield (BALANCES, UPDATE_ADD, balance_element(sender, y1 - tokens))
    yield (BALANCES, UPDATE_ADD, balance_element(to, y2 + tokens))


def transfer(sender: bytes, to: bytes, tokens: int, amounts) -> Plan:
    return LogRecord("Transfer", sender, to, tokens), _move(sender, to, tokens, amounts)


def approve(owner: bytes, spender: bytes, tokens: int, amounts) -> Plan:
    def steps():
        old = amounts.prior(ALLOWED_BALANCES, owner, spender)
        if old is None:
            pair = pair_element(owner, spender)
            yield (ALLOWED_ADDRESSES, NON_MEMBER, pair)
            yield (ALLOWED_ADDRESSES, UPDATE_ADD, pair)
        else:
            old_allowance = allowance_element(owner, spender, old)
            yield (ALLOWED_BALANCES, MEMBER, old_allowance)
            yield (ALLOWED_BALANCES, UPDATE_DEL, old_allowance)
        yield (ALLOWED_BALANCES, UPDATE_ADD, allowance_element(owner, spender, tokens))

    return LogRecord("Approval", owner, spender, tokens), steps()


def transfer_from(spender: bytes, sender: bytes, to: bytes, tokens: int, amounts) -> Plan:
    def steps():
        allowed = amounts.spend(ALLOWED_BALANCES, sender, spender)
        old_allowance = allowance_element(sender, spender, allowed)
        yield (ALLOWED_ADDRESSES, MEMBER, pair_element(sender, spender))
        yield (ALLOWED_BALANCES, MEMBER, old_allowance)
        _cover(allowed, tokens, InsufficientAllowance, "allowance")
        yield from _move(sender, to, tokens, amounts)
        yield (ALLOWED_BALANCES, UPDATE_DEL, old_allowance)
        yield (ALLOWED_BALANCES, UPDATE_ADD, allowance_element(sender, spender, allowed - tokens))

    return LogRecord("Transfer", sender, to, tokens), steps()


PLANS = {OpTag.TRANSFER: transfer, OpTag.APPROVE: approve, OpTag.TRANSFER_FROM: transfer_from}


def accumulators(steps) -> tuple[str, ...]:
    """The accumulators ``steps`` touch, in canonical order."""
    touched = {acc for acc, _claim, _element in steps}
    return tuple(name for name in ACCUMULATORS if name in touched)


# -- bundle schemas ---------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """One op variant's bundle layout and the accumulators it reads (sloads) and writes."""

    purposes: tuple[int, ...]
    words: int  # announced words
    reads: tuple[str, ...]
    writes: tuple[str, ...]


def _shape(op: OpTag, words) -> Shape:
    """The shape of the variant that zero-valued announced ``words`` pick."""
    amounts = Announced(words)
    addresses = (ZERO_ADDRESS,) * (3 if op == OpTag.TRANSFER_FROM else 2)
    _log, steps = PLANS[op](*addresses, 0, amounts)
    steps = tuple(steps)
    updates = tuple(step for step in steps if step[1] in STORAGE_OP)
    return Shape(
        tuple(purpose(acc, claim) for acc, claim, _element in steps),
        amounts.read,
        accumulators(steps),
        accumulators(updates),
    )


def _shapes(op: OpTag) -> tuple[Shape, Shape]:
    with_prior = _shape(op, repeat(0))
    # one word fewer: the spent amounts are all there, the prior tuple is not
    return with_prior, _shape(op, [0] * (with_prior.words - 1))


SHAPES = {op: _shapes(op) for op in PLANS}


def match_schema(bundle: ProofBundle, op: OpTag, lifted: bool = False) -> Shape:
    """The variant whose purpose sequence the bundle carries.

    With ``lifted`` the (non)membership entries are expected to be absent
    (the what-if mode that drops redundant Belongs verifications).
    """
    if bundle.op != op:
        raise BundleSchemaMismatch(f"bundle op {bundle.op} does not match {op}")
    got = bundle.purposes()
    for shape in SHAPES[op]:
        expected = tuple(p for p in shape.purposes if is_update_purpose(p)) if lifted else shape.purposes
        if got == expected:
            return shape
    raise BundleSchemaMismatch(f"entry purposes {tuple(hex(p) for p in got)} match no {op.name} schema")
