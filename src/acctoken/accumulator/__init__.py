"""Hash-tree universal accumulator over byte-string elements.

Five-algorithm interface: setup, witness, belongs, update, check_update.
The accumulator value is 32 bytes; witnesses are hash paths of expected
O(log n) length with publicly verifiable additions and deletions.
"""

from .core import SUPPORTED_BITS, UpdateResult, setup, simulate_update, update, witness, witness_for_root
from .hashing import EMPTY_DIGEST, element_digest
from .tree import Memory
from .verify import BOTTOM, belongs, check_update
from .witness import Witness, WitnessKind, decode_witness, encode_witness

__all__ = [
    "BOTTOM",
    "EMPTY_DIGEST",
    "Memory",
    "SUPPORTED_BITS",
    "UpdateResult",
    "Witness",
    "WitnessKind",
    "belongs",
    "check_update",
    "decode_witness",
    "element_digest",
    "encode_witness",
    "setup",
    "simulate_update",
    "update",
    "witness",
    "witness_for_root",
]
