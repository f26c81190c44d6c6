"""Constant-state token machinery: accumulator, storage network, tokens, gas model.

Top-level convenience re-exports; the subpackages are the real API surface:

- ``acctoken.accumulator``: hash-tree universal accumulator
- ``acctoken.storage``: simulated storage network with fault injection
- ``acctoken.erc20``: accumulator-backed token (contract + client + wiring)
- ``acctoken.baseline``: mapping-based comparison token
- ``acctoken.gas``: gas schedules, metering, storage rent
- ``acctoken.bench``: deterministic benchmark scenarios and CSV tooling
"""

from .baseline import BaselineToken
from .erc20 import TokenSystem
from .gas import GasSchedule, RentParams, annual_rent, meter_transaction, rent_rate
from .storage import FaultPolicy, StorageNetwork

__version__ = "0.1.0"

__all__ = [
    "BaselineToken",
    "FaultPolicy",
    "GasSchedule",
    "RentParams",
    "StorageNetwork",
    "TokenSystem",
    "annual_rent",
    "meter_transaction",
    "rent_rate",
    "__version__",
]
