"""SHA-256 primitives for the hash-tree accumulator.

Every node digest is domain-separated with a one-byte tag so that leaf,
internal and empty-tree preimages can never collide across roles.
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


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def element_digest(element: bytes) -> bytes:
    """32-byte trie key of an element's canonical byte encoding."""
    return hashlib.sha256(element).digest()


def leaf_hash(key: bytes) -> bytes:
    return hashlib.sha256(TAG_LEAF + key).digest()


#: preimage prefix of a branch splitting at each bit: tag, then the bit
BIT_PREFIX = tuple(TAG_INTERNAL + bytes((b,)) for b in range(KEY_BITS))


def branch_hash(bit: int, left: bytes, right: bytes) -> bytes:
    """Digest of an internal node splitting at key bit ``bit`` (0..255)."""
    return hashlib.sha256(BIT_PREFIX[bit] + left + right).digest()


EMPTY_DIGEST = sha256(TAG_EMPTY)


#: bit ``b`` of a key read as a big-endian int (``int.from_bytes(key, "big")``)
BIT_MASK = tuple(1 << (KEY_BITS - 1 - b) for b in range(KEY_BITS))


def bit_at(key: bytes, index: int) -> int:
    """Bit of ``key`` at ``index``, most-significant bit first."""
    return (key[index >> 3] >> (7 - (index & 7))) & 1


def first_diff_bit(a: bytes, b: bytes) -> int | None:
    """Index of the first differing bit between two equal-length keys."""
    for i in range(len(a)):
        x = a[i] ^ b[i]
        if x:
            return (i << 3) + (8 - x.bit_length())
    return None
