"""Canonical byte encodings for the tuples the token accumulates.

Each accumulator gets its own leading type byte so elements can never
collide across accumulators:

    balance tuple    0x01 || owner(20)  || amount(32, big-endian)
    approved pair    0x02 || owner(20)  || spender(20)
    allowance tuple  0x03 || owner(20)  || spender(20) || amount(32, big-endian)

Allowances carry the owner as well as the spender so that two owners
approving the same spender stay distinct elements.
"""

from ..errors import InvalidAddress, Overflow, ZeroSupply

ADDRESS_BYTES = 20
AMOUNT_BYTES = 32
AMOUNT_MAX = 2**256 - 1

BALANCE_TAG = b"\x01"
PAIR_TAG = b"\x02"
ALLOWANCE_TAG = b"\x03"

BALANCE_ELEMENT_LEN = 1 + ADDRESS_BYTES + AMOUNT_BYTES
ALLOWANCE_ELEMENT_LEN = 1 + 2 * ADDRESS_BYTES + AMOUNT_BYTES

ZERO_ADDRESS = b"\x00" * ADDRESS_BYTES


def check_address(addr: bytes) -> bytes:
    # exact types first: growth checks millions; anything else takes the full checks
    if addr.__class__ is bytes and len(addr) == ADDRESS_BYTES:
        return addr
    if not isinstance(addr, (bytes, bytearray)) or len(addr) != ADDRESS_BYTES:
        raise InvalidAddress("addresses are 20-byte strings")
    return bytes(addr)


def check_amount(value: int) -> int:
    if value.__class__ is int and 0 <= value <= AMOUNT_MAX:
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise Overflow("amounts are unsigned 256-bit integers")
    if not 0 <= value <= AMOUNT_MAX:
        raise Overflow(f"amount {value} outside uint256 range")
    return value


def check_supply(total: int) -> int:
    """A deployment's total supply: an amount other than zero."""
    if total == 0:
        raise ZeroSupply("deployment needs a positive total supply")
    return check_amount(total)


def balance_element(owner: bytes, amount: int) -> bytes:
    return BALANCE_TAG + check_address(owner) + check_amount(amount).to_bytes(AMOUNT_BYTES, "big")


def decode_balance_element(data: bytes) -> tuple[bytes, int]:
    if len(data) != BALANCE_ELEMENT_LEN or data[:1] != BALANCE_TAG:
        raise ValueError("not a balance element")
    return data[1 : 1 + ADDRESS_BYTES], int.from_bytes(data[1 + ADDRESS_BYTES :], "big")


def balance_prefix(owner: bytes) -> bytes:
    return BALANCE_TAG + check_address(owner)


def pair_element(owner: bytes, spender: bytes) -> bytes:
    return PAIR_TAG + check_address(owner) + check_address(spender)


def allowance_element(owner: bytes, spender: bytes, amount: int) -> bytes:
    return (
        ALLOWANCE_TAG
        + check_address(owner)
        + check_address(spender)
        + check_amount(amount).to_bytes(AMOUNT_BYTES, "big")
    )


def decode_allowance_element(data: bytes) -> tuple[bytes, bytes, int]:
    if len(data) != ALLOWANCE_ELEMENT_LEN or data[:1] != ALLOWANCE_TAG:
        raise ValueError("not an allowance element")
    owner = data[1 : 1 + ADDRESS_BYTES]
    spender = data[1 + ADDRESS_BYTES : 1 + 2 * ADDRESS_BYTES]
    return owner, spender, int.from_bytes(data[1 + 2 * ADDRESS_BYTES :], "big")


def allowance_prefix(owner: bytes, spender: bytes) -> bytes:
    return ALLOWANCE_TAG + check_address(owner) + check_address(spender)
