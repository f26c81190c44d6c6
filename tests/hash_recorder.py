"""A stand-in for ``hashlib`` inside ``acctoken.accumulator.hashing`` that
records the input length of every SHA-256 the program makes."""

import hashlib


class RecordingHashlib:
    """Records each SHA-256 input length, then hashes with ``real``."""

    def __init__(self, real=hashlib):
        self.real = real
        self.lengths = []

    def sha256(self, data=b""):
        self.lengths.append(len(data))
        return self.real.sha256(data)
