"""What only tests read of a storage network: an accumulator's current value
and epoch, straight from its memory, with no fault applied and nothing
counted."""


def accumulator_value(network, acc: str) -> bytes:
    return network._entry(acc).memory.value


def accumulator_epoch(network, acc: str) -> int:
    return network._entry(acc).memory.epoch
