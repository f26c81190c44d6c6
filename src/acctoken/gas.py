"""Transaction cost model: flat and storage-scaled gas schedules, plus rent.

The flat schedule reproduces mainnet constants (200/20,000/5,000 gas for
storage reads, new keys and updates; SHA-256 at 60 + 12 per word behind a
700-gas precompile call; KECCAK-256 at 30 + 6 per word). The scaled schedule
multiplies storage prices by the work a key-value backend actually performs:
4*log2(n) binary-search accesses per read and, with the backing LSM tree's
x11 write amplification, 44*log2(n) accesses per write, where n is the
contract's storage key count at execution time.

Rent is a recurring, burned fee per storage key per year. It is flat up to a
low utilization of the system-wide capacity, grows logarithmically with the
total key count up to a high watermark, and scales linearly beyond it.
"""

import math
from collections import Counter
from dataclasses import dataclass, field, fields, replace

BASE_CATEGORY = "base"
CALLDATA_CATEGORY = "calldata"
HASH_CATEGORY = "hashing"
READ_CATEGORY = "storage-read"
WRITE_CATEGORY = "storage-write"
#: a receipt's breakdown, in this order
CATEGORIES = (BASE_CATEGORY, CALLDATA_CATEGORY, HASH_CATEGORY, READ_CATEGORY, WRITE_CATEGORY)

FLAT = "flat"
SCALED = "scaled"

GIB = 2**30


def ceil_log2_span(n: int) -> int:
    """max(1, ceil(log2(n))) with n clamped to at least 2; exact integer math."""
    return max(1, (max(n, 2) - 1).bit_length())


@dataclass(frozen=True)
class GasSchedule:
    mode: str = FLAT
    base_tx_gas: int = 21_000
    calldata_zero_gas: int = 4
    calldata_nonzero_gas: int = 68
    sload_flat: int = 200
    sstore_new_flat: int = 20_000
    sstore_update_flat: int = 5_000
    sha256_base: int = 60
    sha256_per_word: int = 12
    keccak_base: int = 30
    keccak_per_word: int = 6
    precompile_call_gas: int = 700
    remove_precompile_call_cost: bool = False
    equalize_hash_costs: bool = False
    read_access_factor: int = 4
    write_amplification: int = 11

    def __post_init__(self):
        if self.mode not in (FLAT, SCALED):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        for f in fields(self):
            if f.type is int and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    @property
    def write_access_factor(self) -> int:
        return self.write_amplification * self.read_access_factor

    def scaled(self) -> "GasSchedule":
        return replace(self, mode=SCALED)


def sload_cost(schedule: GasSchedule, n_contract_keys: int) -> int:
    if schedule.mode == FLAT:
        return schedule.sload_flat
    return schedule.sload_flat * schedule.read_access_factor * ceil_log2_span(n_contract_keys)


def sstore_cost(schedule: GasSchedule, kind: str, n_contract_keys: int) -> int:
    if kind == "new":
        flat = schedule.sstore_new_flat
    elif kind == "update":
        flat = schedule.sstore_update_flat
    else:
        raise ValueError(f"unknown sstore kind {kind!r}")
    if schedule.mode == FLAT:
        return flat
    return flat * schedule.write_access_factor * ceil_log2_span(n_contract_keys)


def hash_cost(schedule: GasSchedule, input_bytes: int) -> int:
    words = (input_bytes + 31) // 32
    if schedule.equalize_hash_costs:
        cost = schedule.keccak_base + schedule.keccak_per_word * words
    else:
        cost = schedule.sha256_base + schedule.sha256_per_word * words
    if not schedule.remove_precompile_call_cost:
        cost += schedule.precompile_call_gas
    return cost


# -- transaction metering -----------------------------------------------------

SLOAD = "sload"
SSTORE_NEW = "sstore_new"
SSTORE_UPDATE = "sstore_update"


@dataclass
class TxTrace:
    """What a transaction did: calldata, storage ops in order, and hashes in order.

    Storage events carry the contract's key count at execution time.
    ``hashes`` holds each SHA-256 input length in bytes; the contract hands
    its ``append`` to the verifiers as their ``hashed`` callback, so the
    verifiers meter through a builtin.
    """

    calldata: bytes = b""
    events: list[tuple[str, int]] = field(default_factory=list)
    hashes: list[int] = field(default_factory=list)

    def sload(self, n_keys: int):
        self.events.append((SLOAD, n_keys))

    def sstore_new(self, n_keys: int):
        self.events.append((SSTORE_NEW, n_keys))

    def sstore_update(self, n_keys: int):
        self.events.append((SSTORE_UPDATE, n_keys))


@dataclass
class GasReceipt:
    total: int
    breakdown: dict[str, int]
    counts: dict[str, int]


def calldata_cost(schedule: GasSchedule, calldata: bytes) -> int:
    zeros = calldata.count(0)
    return zeros * schedule.calldata_zero_gas + (len(calldata) - zeros) * schedule.calldata_nonzero_gas


def meter_transaction(schedule: GasSchedule, trace: TxTrace) -> GasReceipt:
    breakdown = dict.fromkeys(CATEGORIES, 0)
    breakdown[BASE_CATEGORY] = schedule.base_tx_gas
    breakdown[CALLDATA_CATEGORY] = calldata_cost(schedule, trace.calldata)
    counts = dict.fromkeys(CATEGORIES, 0)
    counts[BASE_CATEGORY] = 1
    counts[CALLDATA_CATEGORY] = len(trace.calldata)
    for kind, arg in trace.events:
        if kind == SLOAD:
            breakdown[READ_CATEGORY] += sload_cost(schedule, arg)
            counts[READ_CATEGORY] += 1
        elif kind == SSTORE_NEW:
            breakdown[WRITE_CATEGORY] += sstore_cost(schedule, "new", arg)
            counts[WRITE_CATEGORY] += 1
        elif kind == SSTORE_UPDATE:
            breakdown[WRITE_CATEGORY] += sstore_cost(schedule, "update", arg)
            counts[WRITE_CATEGORY] += 1
        else:
            raise ValueError(f"unknown trace event {kind!r}")
    # a hash's price depends on its input length only, and few lengths occur
    breakdown[HASH_CATEGORY] = sum(hash_cost(schedule, n) * times for n, times in Counter(trace.hashes).items())
    counts[HASH_CATEGORY] = len(trace.hashes)
    return GasReceipt(total=sum(breakdown.values()), breakdown=breakdown, counts=counts)


# -- storage rent ---------------------------------------------------------------

@dataclass(frozen=True)
class RentParams:
    """Recurring-fee parameters. Rent is burned; there is no recipient."""

    s_max_bytes: int = 500 * GIB
    bytes_per_key: int = 32
    u_low: float = 0.25
    u_high: float = 0.80
    r_base_wei: float = 530_657_634.8

    def __post_init__(self):
        if not 0 < self.u_low < self.u_high < 1:
            raise ValueError("utilization thresholds must satisfy 0 < U_low < U_high < 1")
        if self.s_max_bytes <= 0 or self.bytes_per_key <= 0:
            raise ValueError("capacity parameters must be positive")

    @property
    def k_max(self) -> float:
        return self.s_max_bytes / self.bytes_per_key

    @property
    def k_low(self) -> float:
        return self.u_low * self.k_max

    @property
    def k_high(self) -> float:
        return self.u_high * self.k_max


def rent_rate(params: RentParams, k_total: int) -> float:
    """Wei per storage key per year at a system-wide key count of ``k_total``."""
    if k_total < 0:
        raise ValueError("key count must be non-negative")
    if k_total <= params.k_low:
        return params.r_base_wei
    if k_total <= params.k_high:
        return params.r_base_wei * (1.0 + math.log2(k_total / params.k_low))
    ceiling = params.r_base_wei * (1.0 + math.log2(params.k_high / params.k_low))
    return ceiling * (k_total / params.k_high)


def annual_rent(params: RentParams, k_contract: int, k_total: int) -> float:
    """Yearly rent in Wei for a contract holding ``k_contract`` storage keys."""
    if k_contract < 0 or k_contract > k_total:
        raise ValueError("contract keys must lie within the system total")
    return k_contract * rent_rate(params, k_total)


def derive_base_rent(
    usd_per_gib_month: float = 0.30,
    usd_per_eth: float = 202.18,
    bytes_per_key: int = 32,
) -> float:
    """Base rent from cloud-storage pricing: Wei per key per year."""
    wei_per_gib_year = usd_per_gib_month * 12 / usd_per_eth * 1e18
    keys_per_gib = GIB // bytes_per_key
    return wei_per_gib_year / keys_per_gib
