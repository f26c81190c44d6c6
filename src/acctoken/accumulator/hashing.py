"""SHA-256 primitives for the hash-tree accumulator.

Every node digest is domain-separated with a one-byte tag so that leaf,
internal and empty-tree preimages can never collide across roles.
"""

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


_BIT_PREFIX = tuple(TAG_INTERNAL + bytes((b,)) for b in range(KEY_BITS))


def branch_hash(bit: int, left: bytes, right: bytes) -> bytes:
    """Digest of an internal node splitting at key bit ``bit`` (0..255)."""
    return hashlib.sha256(_BIT_PREFIX[bit] + left + right).digest()


EMPTY_DIGEST = sha256(TAG_EMPTY)


def metered(hashed):
    """``element_digest``, ``leaf_hash`` and ``branch_hash`` that first call
    ``hashed`` with the length of the SHA-256 input they are about to hash."""

    def digest(element: bytes) -> bytes:
        hashed(len(element))
        return element_digest(element)

    def leaf(key: bytes) -> bytes:
        hashed(len(TAG_LEAF) + len(key))
        return leaf_hash(key)

    def branch(bit: int, left: bytes, right: bytes) -> bytes:
        hashed(len(_BIT_PREFIX[bit]) + len(left) + len(right))
        return branch_hash(bit, left, right)

    return digest, leaf, branch


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
