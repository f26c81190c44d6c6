"""SHA-256 primitives for the hash-tree accumulator.

Every node digest is domain-separated with a one-byte tag so that leaf,
internal and empty-tree preimages can never collide across roles.

An accumulator keys each element by the SHA-256 of its first ``key_len``
bytes, its lookup prefix: ``element_digest(element[:key_len])``, of all of
it when ``key_len`` is None. A key holds one element, and a leaf commits to
both: its digest is ``sha256(TAG_LEAF || key || sha256(element))``, where
under whole-element keys ``sha256(element)`` is the key itself.
"""

# Every SHA-256 the accumulator computes, here and in ``tree`` and ``verify``,
# calls ``hashlib.sha256`` through this module's ``hashlib`` name, looked up
# when the hash is made: the traced benchmark run and the verifier hash-profile
# tests count hashes by swapping that name for a recording stand-in, so a
# hash made around it would go uncounted.
import hashlib

DIGEST_BYTES = 32
KEY_BITS = DIGEST_BYTES * 8

TAG_LEAF = b"\x00"
TAG_INTERNAL = b"\x01"
TAG_EMPTY = b"\x02"


def element_digest(element: bytes) -> bytes:
    """The 32-byte digest of an element's canonical byte encoding."""
    return hashlib.sha256(element).digest()


#: the one-byte encoding of each branch bit (and of each witness kind)
BIT_BYTE = tuple(bytes((b,)) for b in range(KEY_BITS))

#: preimage prefix of a branch splitting at each bit: tag, then the bit
BIT_PREFIX = tuple(TAG_INTERNAL + BIT_BYTE[b] for b in range(KEY_BITS))


EMPTY_DIGEST = hashlib.sha256(TAG_EMPTY).digest()


#: bit ``b`` of a key read as a big-endian int (``int.from_bytes(key, "big")``)
BIT_MASK = tuple(1 << (KEY_BITS - 1 - b) for b in range(KEY_BITS))


def first_diff_bit(a: bytes, b: bytes) -> int | None:
    """Index of the first bit at which two 32-byte keys differ; None if they are equal."""
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return KEY_BITS - x.bit_length() if x else None
