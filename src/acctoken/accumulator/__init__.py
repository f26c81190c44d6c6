"""Hash-tree universal accumulator over byte-string elements.

Five-algorithm interface: setup, witness, belongs, update, check_update.
The accumulator value is 32 bytes; witnesses are hash paths of expected
O(log n) length with publicly verifiable additions and deletions.
"""

from .core import SUPPORTED_BITS, UpdateResult, setup, simulate_update, update, witness, witness_for_root
from .hashing import EMPTY_DIGEST, element_digest
from .tree import Memory
from .verify import BOTTOM, belongs, check_update
from .witness import WitnessKind

__all__ = [
    "BOTTOM",
    "EMPTY_DIGEST",
    "Memory",
    "SUPPORTED_BITS",
    "UpdateResult",
    "WitnessKind",
    "belongs",
    "check_update",
    "element_digest",
    "setup",
    "simulate_update",
    "update",
    "witness",
    "witness_for_root",
]
