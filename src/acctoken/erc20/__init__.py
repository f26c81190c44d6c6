"""Accumulator-backed ERC20: four words of contract state, proofs for the rest."""

from .bundle import (
    ALLOWED_ADDRESSES,
    ALLOWED_BALANCES,
    BALANCES,
    BundleEntry,
    OpTag,
    ProofBundle,
    decode_bundle,
    encode_bundle,
)
from .client import TokenClient
from .contract import CONTRACT_KEYS, AccTokenContract, ContractState, LogRecord, TxRecord
from .system import TokenSystem, abi_calldata

__all__ = [
    "ALLOWED_ADDRESSES",
    "ALLOWED_BALANCES",
    "BALANCES",
    "BundleEntry",
    "CONTRACT_KEYS",
    "AccTokenContract",
    "ContractState",
    "LogRecord",
    "OpTag",
    "ProofBundle",
    "TokenClient",
    "TokenSystem",
    "TxRecord",
    "abi_calldata",
    "decode_bundle",
    "encode_bundle",
]
