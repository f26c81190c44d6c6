"""Bare-bones mapping-based ERC20: the comparison oracle and gas baseline.

Balances and allowances live directly in contract storage; every map access
is reported to the gas meter as one storage-key operation carrying the
contract's key count at that moment. Zeroed entries are deleted, mirroring
storage-release semantics, so the key count tracks live entries only.

``bootstrap`` grows a population through the same writes, unmetered.

``ever_approved`` is bookkeeping, not a storage key: it only classifies a
failed transferFrom as NotApproved (pair never approved) versus
InsufficientAllowance, matching the verdicts the accumulator token produces.
"""

from dataclasses import dataclass, field
from typing import Iterable

from .erc20.bundle import ERC20_NAME, OpTag
from .erc20.contract import LogRecord, TxRecord
from .erc20.elements import ZERO_ADDRESS, check_address, check_amount, check_supply
from .erc20.system import abi_calldata
from .erc20.plan import Plan
from .errors import InsufficientAllowance, InsufficientBalance, NotApproved
from .gas import TxTrace


class _Untraced:
    """Where ``bootstrap`` writes: the storage events a ``TxTrace`` would record go nowhere."""

    def sload(self, n_keys: int):
        pass

    sstore_new = sstore_update = sload


_UNTRACED = _Untraced()


@dataclass
class BaselineToken:
    balances: dict[bytes, int] = field(default_factory=dict)
    allowed: dict[tuple[bytes, bytes], int] = field(default_factory=dict)
    total_supply: int = 0
    ever_approved: set[tuple[bytes, bytes]] = field(default_factory=set)
    logs: list[LogRecord] = field(default_factory=list)
    # large population-growth runs disable retention to bound memory;
    # log_count still tracks emissions
    keep_logs: bool = True
    log_count: int = 0

    @classmethod
    def deploy(cls, deployer: bytes, total: int, keep_logs: bool = True) -> "BaselineToken":
        check_address(deployer)
        check_supply(total)
        token = cls(balances={deployer: total}, total_supply=total, keep_logs=keep_logs)
        token._log(LogRecord("Transfer", ZERO_ADDRESS, deployer, total))
        return token

    def _log(self, record: LogRecord):
        self.log_count += 1
        if self.keep_logs:
            self.logs.append(record)

    @property
    def key_count(self) -> int:
        return len(self.balances) + len(self.allowed)

    # -- views -----------------------------------------------------------------

    def balance_of(self, owner: bytes) -> int:
        return self.balances.get(owner, 0)

    def allowance(self, owner: bytes, spender: bytes) -> int:
        return self.allowed.get((owner, spender), 0)

    # -- storage helpers ---------------------------------------------------------

    def _write(self, trace: TxTrace, mapping: dict, key, value: int):
        """Store ``value`` under ``key`` in ``mapping`` (balances or allowances); a zero deletes the entry."""
        if key in mapping:
            trace.sstore_update(self.key_count)
            if value == 0:
                del mapping[key]
            else:
                mapping[key] = value
        elif value != 0:
            trace.sstore_new(self.key_count)
            mapping[key] = value

    def _move(self, trace: TxTrace, sender: bytes, to: bytes, tokens: int, spend: tuple | None = None):
        """Debit ``sender`` and credit ``to``; every check runs before the first write.

        ``spend`` is an allowance write, ``(pair, remaining)``, made before
        the balance writes: transferFrom's.
        """
        check_amount(tokens)
        trace.sload(self.key_count)
        from_balance = self.balances.get(sender, 0)
        if from_balance < tokens:
            raise InsufficientBalance(f"balance {from_balance} cannot cover {tokens}")
        trace.sload(self.key_count)
        # the credit goes on what the debit leaves, so a transfer to oneself
        # leaves the balance as it was
        to_balance = from_balance - tokens if to == sender else self.balances.get(to, 0)
        check_amount(to_balance + tokens)
        if spend is not None:
            self._write(trace, self.allowed, *spend)
        self._write(trace, self.balances, sender, from_balance - tokens)
        self._write(trace, self.balances, to, to_balance + tokens)

    def _approve(self, trace: TxTrace, owner: bytes, spender: bytes, tokens: int):
        """Set the allowance and mark the pair approved."""
        check_amount(tokens)
        trace.sload(self.key_count)
        pair = (owner, spender)
        self._write(trace, self.allowed, pair, tokens)
        self.ever_approved.add(pair)

    # -- operations ---------------------------------------------------------------

    def transfer(self, sender: bytes, to: bytes, tokens: int) -> TxRecord:
        check_address(sender), check_address(to)
        trace = TxTrace()
        self._move(trace, sender, to, tokens)
        trace.calldata = abi_calldata(OpTag.TRANSFER, [sender, to], tokens, (), b"")
        log = LogRecord("Transfer", sender, to, tokens)
        self._log(log)
        return TxRecord(ERC20_NAME[OpTag.TRANSFER], log, trace)

    def approve(self, owner: bytes, spender: bytes, tokens: int) -> TxRecord:
        check_address(owner), check_address(spender)
        trace = TxTrace()
        self._approve(trace, owner, spender, tokens)
        trace.calldata = abi_calldata(OpTag.APPROVE, [owner, spender], tokens, (), b"")
        log = LogRecord("Approval", owner, spender, tokens)
        self._log(log)
        return TxRecord(ERC20_NAME[OpTag.APPROVE], log, trace)

    def transfer_from(self, spender: bytes, sender: bytes, to: bytes, tokens: int) -> TxRecord:
        check_address(spender), check_address(sender), check_address(to)
        check_amount(tokens)
        trace = TxTrace()
        trace.sload(self.key_count)
        pair = (sender, spender)
        if pair not in self.ever_approved:
            raise NotApproved("spender was never approved by this owner")
        allowed = self.allowed.get(pair, 0)
        if allowed < tokens:
            raise InsufficientAllowance(f"allowance {allowed} cannot cover {tokens}")
        self._move(trace, sender, to, tokens, spend=(pair, allowed - tokens))
        trace.calldata = abi_calldata(OpTag.TRANSFER_FROM, [spender, sender, to], tokens, (), b"")
        log = LogRecord("Transfer", sender, to, tokens)
        self._log(log)
        return TxRecord(ERC20_NAME[OpTag.TRANSFER_FROM], log, trace)

    def bootstrap(self, plans: Iterable[Plan]):
        """Apply transfer and approve plans by their log records, without transactions.

        The mapping token's counterpart of ``TokenSystem.bootstrap``, for
        population growth: a Transfer moves a balance and an Approval sets
        an allowance, through the writes the transactions use. The plans'
        steps are not read, and no trace, calldata or log is made. Each plan
        runs its op's amount and cover checks before it writes, so a refused
        plan writes nothing; the plans before it stay applied. A transferFrom
        plan's log is a Transfer too, so it would move the balance and leave
        the allowance: give those as transactions.
        """
        for log, _steps in plans:
            if log.event == "Transfer":
                self._move(_UNTRACED, log.addr_from, log.addr_to, log.amount)
            else:
                self._approve(_UNTRACED, log.addr_from, log.addr_to, log.amount)

    # -- integrity ------------------------------------------------------------------

    def check_conservation(self):
        total = sum(self.balances.values())
        if total != self.total_supply:
            raise AssertionError(f"balances sum to {total}, total supply is {self.total_supply}")
