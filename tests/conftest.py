import random

import pytest

from acctoken.accumulator import setup
from acctoken.accumulator.core import Changes, apply_update


@pytest.fixture(scope="session")
def large_tree_2_16():
    """One 2^16-element accumulator shared by size/benchmark-ish tests."""
    rng = random.Random(160_001)
    elements = [rng.randbytes(16) for _ in range(2**16)]
    _acc, memory = setup(256)
    acc = apply_update(memory, Changes(memory, (("add", element) for element in elements)))
    return acc, memory, elements
