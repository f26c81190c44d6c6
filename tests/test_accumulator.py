"""Accumulator unit and property tests: the five-algorithm contract."""

import gc
import pathlib
import random
import shutil
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from acctoken.accumulator import (
    BOTTOM,
    EMPTY_DIGEST,
    WitnessKind,
    belongs,
    check_update,
    setup,
    simulate_update,
    update,
    witness,
    witness_for_root,
)
from acctoken.accumulator import tree
from acctoken.accumulator.core import Changes, apply_update, updated_root
from acctoken.accumulator.hashing import TAG_INTERNAL, element_digest, first_diff_bit
from acctoken.accumulator.witness import COUNT_AT, HEADER_BYTES, OCCUPANT_BYTES, PRECONDITION, STEP_BYTES, ZERO_PAYLOAD
from acctoken.errors import (
    AlreadyPresent,
    NotPresent,
    StaleAccumulator,
    UnsupportedParameter,
)
from acctoken.storage import StorageNetwork

import reference_verify
from hash_recorder import RecordingHashlib
from trie_layout import (
    body,
    children,
    elements_of,
    has_regions,
    held,
    identity,
    is_branch,
    is_leaf,
    is_row,
    leaf_of,
    leaf_parts,
    leaves,
    leftmost,
    node_digest,
    nodes,
    read_out,
    whole_leaf,
)
from reference_verify import Witness, canonical_digest, decode_witness, encode_witness, keyed


def build_set(elements, bits=256, key_len=None):
    acc, memory = setup(bits, key_len)
    for element in elements:
        acc = update("add", acc, memory, element).acc_after
    return acc, memory


class TestSetup:
    def test_deterministic_initial_value(self):
        acc_a, _ = setup(256)
        acc_b, _ = setup(256)
        assert acc_a == acc_b == EMPTY_DIGEST

    def test_rejects_other_widths(self):
        for bits in (128, 512, 0, -1):
            with pytest.raises(UnsupportedParameter):
                setup(bits)

    def test_empty_set_contains_nothing(self):
        acc, memory = setup(256)
        for probe in (b"a", b"longer element", b"\x00"):
            w = witness(acc, memory, probe)
            assert belongs(acc, probe, w) == 0


class TestWitnessAndBelongs:
    def test_singleton_membership(self):
        acc, memory = build_set([b"a"])
        w = witness(acc, memory, b"a")
        assert w[0] == WitnessKind.MEMBERSHIP
        assert belongs(acc, b"a", w) == 1

    def test_singleton_non_membership(self):
        acc, memory = build_set([b"a"])
        w = witness(acc, memory, b"b")
        assert w[0] == WitnessKind.NON_MEMBERSHIP
        assert belongs(acc, b"b", w) == 0

    def test_every_member_of_random_thousand(self):
        rng = random.Random(1009)
        elements = [rng.randbytes(rng.randint(1, 48)) for _ in range(1000)]
        elements = list(dict.fromkeys(elements))
        acc, memory = build_set(elements)
        # exhaustive loop over the generated set as the oracle
        for element in elements:
            assert belongs(acc, element, witness(acc, memory, element)) == 1
        for _ in range(200):
            probe = rng.randbytes(8)
            expected = 1 if probe in elements else 0
            assert belongs(acc, probe, witness(acc, memory, probe)) == expected

    def test_stale_accumulator_rejected(self):
        acc, memory = build_set([b"a"])
        update("add", acc, memory, b"b")
        with pytest.raises(StaleAccumulator):
            witness(acc, memory, b"a")

    def test_element_binding(self):
        acc, memory = build_set([b"a", b"b"])
        w = witness(acc, memory, b"a")
        assert belongs(acc, b"b", w) is BOTTOM
        assert belongs(acc, b"not-there", w) is BOTTOM

    def test_wrong_root_is_bottom(self):
        acc, memory = build_set([b"a", b"b"])
        w = witness(acc, memory, b"a")
        assert belongs(EMPTY_DIGEST, b"a", w) is BOTTOM

    def test_update_kinds_are_bottom_for_belongs(self):
        acc, memory = build_set([b"a"])
        result = update("add", acc, memory, b"b")
        assert belongs(result.acc_after, b"b", result.witness) is BOTTOM


class TestUpdate:
    def test_add_del_returns_to_initial_value(self):
        acc0, memory = setup(256)
        added = update("add", acc0, memory, b"x")
        removed = update("del", added.acc_after, memory, b"x")
        assert removed.acc_after == acc0
        assert memory.epoch == 2

    def test_duplicate_add(self):
        acc, memory = build_set([b"x"])
        with pytest.raises(AlreadyPresent):
            update("add", acc, memory, b"x")

    def test_delete_missing(self):
        acc, memory = build_set([b"x"])
        with pytest.raises(NotPresent):
            update("del", acc, memory, b"y")

    def test_stale_value_rejected(self):
        acc, memory = build_set([b"x"])
        with pytest.raises(StaleAccumulator):
            update("add", EMPTY_DIGEST, memory, b"y")

    def test_insertion_order_independence(self):
        rng = random.Random(77)
        elements = [rng.randbytes(16) for _ in range(100)]
        acc_a, _ = build_set(elements)
        shuffled = elements[:]
        rng.shuffle(shuffled)
        acc_b, _ = build_set(shuffled)
        assert acc_a == acc_b

    def test_history_independence_with_deletions(self):
        rng = random.Random(78)
        pool = [rng.randbytes(12) for _ in range(60)]
        acc, memory = setup(256)
        shadow = set()
        for _ in range(400):
            element = rng.choice(pool)
            if element in shadow:
                acc = update("del", acc, memory, element).acc_after
                shadow.discard(element)
            else:
                acc = update("add", acc, memory, element).acc_after
                shadow.add(element)
        rebuilt, _ = build_set(sorted(shadow))
        assert acc == rebuilt

    def test_update_witness_round_trip(self):
        acc, memory = build_set([b"a", b"b", b"c"])
        result = update("add", acc, memory, b"d")
        assert check_update(acc, result.acc_after, b"d", result.witness) == 1
        back = update("del", result.acc_after, memory, b"d")
        assert check_update(result.acc_after, back.acc_after, b"d", back.witness) == 1


class TestCheckUpdate:
    def test_wrong_after_value_rejected(self):
        rng = random.Random(5)
        acc, memory = build_set([b"a", b"b"])
        result = update("add", acc, memory, b"c")
        for _ in range(64):
            fake = rng.randbytes(32)
            if fake != result.acc_after:
                assert check_update(acc, fake, b"c", result.witness) == 0

    def test_wrong_before_value_rejected(self):
        acc, memory = build_set([b"a", b"b"])
        result = update("add", acc, memory, b"c")
        assert check_update(EMPTY_DIGEST, result.acc_after, b"c", result.witness) == 0

    def test_element_substitution_rejected(self):
        acc, memory = build_set([b"a", b"b"])
        result = update("add", acc, memory, b"c")
        assert check_update(acc, result.acc_after, b"c2", result.witness) == 0

    def test_membership_witness_rejected(self):
        acc, memory = build_set([b"a"])
        w = witness(acc, memory, b"a")
        assert check_update(acc, acc, b"a", w) == 0

    def test_empty_tree_add(self):
        acc0, memory = setup(256)
        result = update("add", acc0, memory, b"first")
        assert check_update(acc0, result.acc_after, b"first", result.witness) == 1

    def test_last_element_delete(self):
        acc0, memory = setup(256)
        added = update("add", acc0, memory, b"only")
        removed = update("del", added.acc_after, memory, b"only")
        assert check_update(added.acc_after, acc0, b"only", removed.witness) == 1


class TestCompleteness:
    def test_randomized_sequence_against_shadow_set(self):
        rng = random.Random(4242)
        acc, memory = setup(256)
        shadow = {}
        for step in range(10_000):
            element = rng.randbytes(rng.randint(1, 24))
            if element in shadow.values() and rng.random() < 0.5:
                acc = update("del", acc, memory, element).acc_after
                shadow = {k: v for k, v in shadow.items() if v != element}
            elif element not in shadow.values():
                acc = update("add", acc, memory, element).acc_after
                shadow[len(shadow), step] = element
            if step % 20 == 0:
                members = list(shadow.values())
                probe = rng.choice(members) if members and rng.random() < 0.5 else rng.randbytes(6)
                expected = 1 if probe in members else 0
                assert belongs(acc, probe, witness(acc, memory, probe)) == expected
        assert len(memory) == len(shadow)


class TestTamperSoundness:
    MASKS = (0x01, 0x10, 0x80, 0xFF)

    def tamper_all_bytes(self, raw: bytes):
        for position in range(len(raw)):
            for mask in self.MASKS:
                mutated = bytearray(raw)
                mutated[position] ^= mask
                yield bytes(mutated)

    def test_belongs_rejects_every_single_byte_flip(self):
        rng = random.Random(9)
        elements = [rng.randbytes(12) for _ in range(16)]
        acc, memory = build_set(elements)
        probes = elements[:4] + [b"absent-1", b"absent-2"]
        for probe in probes:
            raw = witness(acc, memory, probe)
            assert belongs(acc, probe, raw) in (0, 1)
            for mutated in self.tamper_all_bytes(raw):
                assert belongs(acc, probe, mutated) is BOTTOM

    def test_sampled_tamper_on_large_witnesses(self, large_tree_2_16):
        acc, memory, elements = large_tree_2_16
        rng = random.Random(31)
        for element in rng.sample(elements, 4) + [b"absent-big-1", b"absent-big-2"]:
            raw = witness(acc, memory, element)
            for _ in range(300):
                position = rng.randrange(len(raw))
                mutated = bytearray(raw)
                mutated[position] ^= rng.randrange(1, 256)
                assert belongs(acc, element, bytes(mutated)) is BOTTOM

    def test_check_update_rejects_every_single_byte_flip(self):
        rng = random.Random(10)
        elements = [rng.randbytes(12) for _ in range(16)]
        acc, memory = build_set(elements)
        added = update("add", acc, memory, b"tamper-add")
        raw = added.witness
        for mutated in self.tamper_all_bytes(raw):
            assert check_update(acc, added.acc_after, b"tamper-add", mutated) == 0
        acc2 = added.acc_after
        removed = update("del", acc2, memory, b"tamper-add")
        raw = removed.witness
        for mutated in self.tamper_all_bytes(raw):
            assert check_update(acc2, removed.acc_after, b"tamper-add", mutated) == 0


class TestHashProfile:
    """The sizes the ``hashed`` callback reports must mirror the verifier's actual hashing."""

    @staticmethod
    def record(fn, *args):
        """Run ``fn`` once; return its verdict, the hashlib input lengths and the reported ones."""
        import acctoken.accumulator.hashing as hashing_module

        recorder = RecordingHashlib(hashing_module.hashlib)
        reported = []
        hashing_module.hashlib = recorder
        try:
            result = fn(*args, reported.append)
        finally:
            hashing_module.hashlib = recorder.real
        return result, sorted(recorder.lengths), sorted(reported)

    def test_belongs_matches_profile(self):
        acc, memory = build_set([bytes([i]) * 3 for i in range(32)])
        for probe in (bytes([7]) * 3, b"missing-element", b"x"):
            w = witness(acc, memory, probe)
            verdict, recorded, reported = self.record(belongs, acc, probe, w)
            assert verdict in (0, 1)
            assert recorded and reported == recorded

    def test_check_update_matches_profile(self):
        acc, memory = build_set([bytes([i]) * 3 for i in range(32)])
        added = update("add", acc, memory, b"fresh-element")
        ok, recorded, reported = self.record(check_update, acc, added.acc_after, b"fresh-element", added.witness)
        assert ok == 1
        assert recorded and reported == recorded
        removed = update("del", added.acc_after, memory, b"fresh-element")
        ok, recorded, reported = self.record(
            check_update, added.acc_after, removed.acc_after, b"fresh-element", removed.witness
        )
        assert ok == 1
        assert recorded and reported == recorded

    def test_empty_tree_forms(self):
        acc0, memory = setup(256)
        w = witness(acc0, memory, b"ghost")
        verdict, recorded, reported = self.record(belongs, acc0, b"ghost", w)
        assert verdict == 0
        assert reported == recorded
        added = update("add", acc0, memory, b"ghost")
        ok, recorded, reported = self.record(check_update, acc0, added.acc_after, b"ghost", added.witness)
        assert ok == 1
        assert recorded and reported == recorded


class TestHashReport:
    """The verifiers' ``hashed`` callback reports exactly the SHA-256 inputs they hash."""

    @staticmethod
    def hashlib_lengths(fn, *args, **kwargs):
        import acctoken.accumulator.hashing as hashing_module

        recorder = RecordingHashlib(hashing_module.hashlib)
        hashing_module.hashlib = recorder
        try:
            result = fn(*args, **kwargs)
        finally:
            hashing_module.hashlib = recorder.real
        return result, sorted(recorder.lengths)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sets(st.binary(max_size=12), max_size=24),
        st.binary(max_size=12),
    )
    def test_callback_sizes_equal_hashlib_lengths(self, elements, probe):
        elements.discard(probe)
        acc, memory = build_set(elements)
        # (verifier, key length, claim and witness)
        cases = [(belongs, None, (acc, probe, witness(acc, memory, probe)))]  # non-membership
        if elements:  # membership and deletion need a present element
            member = min(elements)
            cases.append((belongs, None, (acc, member, witness(acc, memory, member))))
        added = update("add", acc, memory, probe)
        cases.append((check_update, None, (acc, added.acc_after, probe, added.witness)))
        if elements:
            removed = update("del", added.acc_after, memory, member)
            cases.append((check_update, None, (added.acc_after, removed.acc_after, member, removed.witness)))
            # a replace needs a prefix key: here each element's first byte
            acc_k, keyed = build_set({bytes((i,)) + e for i, e in enumerate(sorted(elements))}, key_len=1)
            pair = (b"\x00" + member, b"\x00" + probe)
            replaced = update("replace", acc_k, keyed, pair)
            cases.append((check_update, 1, (acc_k, replaced.acc_after, pair, replaced.witness)))
        assert {args[-1][0] for _fn, _key_len, args in cases} == (
            set(WitnessKind) if elements else {WitnessKind.NON_MEMBERSHIP, WitnessKind.UPDATE_ADD}
        )
        wrong = b"\x5a" * 32
        for fn, key_len, (acc_arg, *rest) in cases:
            # the genuine claim, then the same witness against a wrong accumulator value
            for args in ((acc_arg, *rest), (wrong, *rest)):
                plain = fn(*args, key_len=key_len)
                reported = []
                verdict, seen = self.hashlib_lengths(fn, *args, reported.append, key_len=key_len)
                assert verdict == plain
                assert sorted(reported) == seen
            assert fn(acc_arg, *rest, key_len=key_len) in (0, 1)


class TestWitnessSizes:
    def test_empty_set_non_membership_size(self):
        acc, memory = setup(256)
        w = witness(acc, memory, b"whatever")
        # header (35) plus the fixed 64-byte empty-tree payload
        assert len(w) == 99
        assert w[HEADER_BYTES:] == ZERO_PAYLOAD

    def test_size_linear_in_steps(self):
        acc, memory = build_set([bytes([i]) for i in range(64)])
        for probe in (bytes([3]), bytes([40]), b"absent"):
            w = witness(acc, memory, probe)
            payload = 64 if w[0] == WitnessKind.NON_MEMBERSHIP else 0
            assert len(w) == 35 + 33 * len(decode_witness(w).steps) + payload

    def test_mean_size_at_2_16(self, large_tree_2_16):
        acc, memory, elements = large_tree_2_16
        rng = random.Random(11)
        sample = rng.sample(elements, 2000)
        sizes = [len(witness(acc, memory, e)) for e in sample]
        mean = sum(sizes) / len(sizes)
        target = 33 * 16 + 35
        assert 0.5 * target <= mean <= 1.5 * target


class TestLogarithmicPaths:
    @pytest.mark.parametrize("exponent", [8, 12])
    def test_path_lengths_small(self, exponent):
        self.check_paths(2**exponent, seed=exponent)

    def test_path_lengths_2_16(self, large_tree_2_16):
        acc, memory, elements = large_tree_2_16
        self.assert_bounds(acc, memory, elements, 16)

    def check_paths(self, n, seed):
        rng = random.Random(seed)
        elements = [rng.randbytes(16) for _ in range(n)]
        acc, memory = build_set(elements)
        self.assert_bounds(acc, memory, elements, n.bit_length() - 1)

    def assert_bounds(self, acc, memory, elements, log2n):
        lengths = sorted(len(decode_witness(witness(acc, memory, e)).steps) for e in elements)
        mean = sum(lengths) / len(lengths)
        p99 = lengths[min(len(lengths) - 1, (99 * len(lengths) + 99) // 100)]
        assert mean <= 2 * log2n
        assert p99 <= 4 * log2n


class TestPurity:
    def test_memory_free_verifier_build(self, tmp_path):
        """The verifier runs from a build containing no tree or memory code."""
        import acctoken
        import acctoken.accumulator as accumulator_pkg

        source = pathlib.Path(accumulator_pkg.__file__).parent
        build = tmp_path / "vbuild"
        (build / "accumulator").mkdir(parents=True)
        (build / "__init__.py").write_text("")
        (build / "accumulator" / "__init__.py").write_text("")
        shutil.copy(pathlib.Path(acctoken.__file__).parent / "errors.py", build / "errors.py")
        for name in ("hashing.py", "witness.py", "verify.py"):
            shutil.copy(source / name, build / "accumulator" / name)

        acc, memory = build_set([b"a", b"b", b"c"])
        raw = witness(acc, memory, b"a")
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from vbuild.accumulator.verify import belongs\n"
            f"acc = bytes.fromhex('{acc.hex()}')\n"
            f"raw = bytes.fromhex('{raw.hex()}')\n"
            "assert belongs(acc, b'a', raw) == 1\n"
            "assert belongs(acc, b'b', raw) is not None\n"
        )
        subprocess.run([sys.executable, "-c", code, str(tmp_path)], check=True)

    def test_verification_without_memory(self):
        acc, memory = build_set([b"a", b"b", b"c"])
        raw = witness(acc, memory, b"a")
        del memory
        assert belongs(acc, b"a", raw) == 1


class TestHypothesisProperties:
    @given(st.binary(min_size=1, max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_added_element_is_member(self, element):
        acc, memory = build_set([b"base-1", b"base-2"])
        result = update("add", acc, memory, element)
        w = witness(result.acc_after, memory, element)
        assert belongs(result.acc_after, element, w) == 1

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=24, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_witness_encoding_round_trip(self, elements):
        acc, memory = build_set(elements)
        for element in (elements[0], b"\xff" * 4):
            w = witness(acc, memory, element)
            assert encode_witness(decode_witness(w)) == w

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_belongs_never_crashes_on_garbage(self, blob):
        verdict = belongs(EMPTY_DIGEST, b"x", blob)
        assert verdict in (0, 1) or verdict is BOTTOM
        assert check_update(EMPTY_DIGEST, EMPTY_DIGEST, b"x", blob) in (0, 1)

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=2, max_size=30, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_root_depends_only_on_set(self, elements):
        acc_a, _ = build_set(elements)
        acc_b, _ = build_set(list(reversed(elements)))
        assert acc_a == acc_b

    @given(st.lists(st.binary(min_size=1, max_size=16), min_size=1, max_size=20, unique=True),
           st.integers(min_value=0, max_value=19))
    @settings(max_examples=60, deadline=None)
    def test_update_witnesses_replay(self, elements, pick):
        acc, memory = build_set(elements)
        victim = elements[pick % len(elements)]
        result = update("del", acc, memory, victim)
        assert check_update(acc, result.acc_after, victim, result.witness) == 1
        assert check_update(result.acc_after, acc, victim, result.witness) == 0


def flip_bit(data: bytes, index: int) -> bytes:
    out = bytearray(data)
    out[index // 8] ^= 1 << (index % 8)
    return bytes(out)


def split_steps(raw: bytes) -> list[bytes]:
    """The 33-byte steps of well-formed witness bytes, root first."""
    end = HEADER_BYTES + STEP_BYTES * int.from_bytes(raw[COUNT_AT:HEADER_BYTES], "big")
    return [raw[off : off + STEP_BYTES] for off in range(HEADER_BYTES, end, STEP_BYTES)]


def with_steps(raw: bytes, steps, count: int | None = None) -> bytes:
    """Well-formed witness bytes ``raw`` with ``steps`` in place of its own;
    the count word says ``count``, by default the number of ``steps``."""
    end = HEADER_BYTES + STEP_BYTES * len(split_steps(raw))
    count = len(steps) if count is None else count
    return raw[:COUNT_AT] + count.to_bytes(2, "big") + b"".join(steps) + raw[end:]


_ELEMENTS = st.binary(min_size=1, max_size=6)
_DIGESTS = st.binary(min_size=32, max_size=32)
_STEPS = st.builds(lambda bit, sibling: bytes((bit,)) + sibling, st.integers(0, 255), _DIGESTS)


@st.composite
def update_claims(draw):
    """A set, an element, and an update claim about it that may be forged.

    The witness is an honest update witness built on the set itself, or on a
    set that differs from it by the element or by one other element, so a
    genuine-looking claim can target the wrong set. It may then be tampered
    with at byte level: a flipped bit, the steps of another element's path,
    or its own steps cut or extended.
    """
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 8]))  # empty and one-element sets included
    elements = draw(st.lists(_ELEMENTS, min_size=size, max_size=size, unique=True))
    element = draw(st.sampled_from(elements) | _ELEMENTS) if elements else draw(_ELEMENTS)
    op = draw(st.sampled_from(["add", "del"]))
    source = set(elements)
    if (element in source) != (op == "del"):
        source ^= {element}  # build the claim on a set where the op is possible
    if draw(st.booleans()):
        source ^= {draw(_ELEMENTS.filter(lambda other: other != element))}
    _acc, memory = build_set(sorted(source))
    _root, acc_after, raw, _key = simulate_update(memory.root, memory.value, op, element)
    honest = source == set(elements)

    tamper = draw(st.sampled_from(["none", "flip", "foreign", "cut", "extend"]))
    steps = split_steps(raw)
    if tamper == "flip":
        forged = flip_bit(raw, draw(st.integers(0, len(raw) * 8 - 1)))
    elif tamper == "foreign":
        acc, memory = build_set(elements)
        forged = with_steps(raw, split_steps(witness(acc, memory, draw(_ELEMENTS))))
    elif tamper == "cut":
        k = draw(st.integers(1, len(steps) + 1))
        forged = with_steps(raw, steps[k:] if draw(st.booleans()) else steps[:-k])
    elif tamper == "extend":
        extra = draw(_STEPS)
        forged = with_steps(raw, [*steps, extra] if draw(st.booleans()) else [extra, *steps])
    else:
        forged = raw
    return elements, element, acc_after, forged, honest and forged == raw


class TestUpdateProvesPrecondition:
    """An accepted update witness proves what ``belongs`` would: presence before a delete, absence before an add."""

    @given(update_claims())
    @settings(max_examples=400, deadline=None)
    def test_accepted_update_proves_its_precondition(self, claim):
        elements, element, acc_after, raw, honest = claim
        acc_before, _memory = build_set(elements)
        verdict = check_update(acc_before, acc_after, element, raw)
        if honest:
            assert verdict == 1
        if verdict == 1:
            deleted = raw[0] == WitnessKind.UPDATE_DEL
            assert (element in elements) == deleted
            # the (non)membership kind of the same layout differs in byte 0 only
            kind = PRECONDITION[raw[0]]
            assert belongs(acc_before, element, bytes((kind,)) + raw[1:]) == (1 if deleted else 0)


_FORGERIES = ("none", "flip", "foreign", "cut", "extend", "kind", "occupant-is-key", "zero-occupant",
              "repeated-bit", "swapped-bits")

# the kind with a payload that shares each payload-free kind's steps
_WITH_PAYLOAD = {
    WitnessKind.MEMBERSHIP: WitnessKind.NON_MEMBERSHIP,
    WitnessKind.UPDATE_DEL: WitnessKind.UPDATE_ADD,
    WitnessKind.UPDATE_REPLACE: WitnessKind.UPDATE_ADD,
}


def with_occupant(raw: bytes, occupant: bytes) -> bytes:
    """``raw`` with ``occupant`` as its payload, of the kind with a payload that has its layout."""
    if raw[0] in _WITH_PAYLOAD:
        return bytes((_WITH_PAYLOAD[raw[0]],)) + raw[1:] + occupant
    return raw[:-OCCUPANT_BYTES] + occupant


_PAYLOADS = st.binary(min_size=OCCUPANT_BYTES, max_size=OCCUPANT_BYTES)


@st.composite
def verifier_calls(draw):
    """A ``belongs`` or ``check_update`` call, as (name, arguments, key length), honest or forged.

    The set is keyed by whole elements or by a 1- or 2-byte prefix, so under
    a prefix the element's key may hold another element. The witness is the
    bytes the builders return for its element, on the set itself or on a
    set that differs from it by one other element, added, deleted or put in
    place of the one its key holds; an update is an add, a delete, or a
    replace of what the element's key holds, by the element or by another
    element under its key. It may then be forged, at byte level: a
    flipped bit; another element's steps; its steps cut or extended, with
    the count word adjusted or left stale; each kind byte 0-5 and 9, with
    the payload fitted to the new kind or not; the element's own key as
    occupant; a zero occupant with steps; a repeated bit byte; or two bit
    bytes, or two whole steps, swapped.
    """
    key_len = draw(st.sampled_from([None, None, 1, 2]))
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 8]))
    elements = draw(st.lists(_ELEMENTS, min_size=size, max_size=size, unique_by=lambda e: e[:key_len]))
    element = draw(st.sampled_from(elements) | _ELEMENTS) if elements else draw(_ELEMENTS)
    source = {element_digest(e[:key_len]): e for e in elements}
    if draw(st.booleans()):
        other = draw(_ELEMENTS.filter(lambda other: other != element))
        key = element_digest(other[:key_len])
        if source.get(key) == other:
            del source[key]
        else:
            source[key] = other
    acc, _memory = build_set(sorted(elements), key_len=key_len)
    _acc, memory = build_set(sorted(source.values()), key_len=key_len)
    held = source.get(element_digest(element[:key_len]))
    if held is not None and draw(st.booleans()):
        # a replace of what the key holds, by the element or, when the key is
        # its prefix, by another element under it (whole-element keys
        # replace an element by itself)
        new = element
        if held == element and key_len is not None and len(element) >= key_len:
            new = element[:key_len] + draw(st.binary(max_size=4))
        pair = (held, new)
        _root, after, raw, _key = simulate_update(memory.root, memory.value, "replace", pair, key_len)
        name, claim = "check_update", (acc, after, pair)
    elif draw(st.booleans()) or held not in (None, element):  # an add under a taken key has no witness
        name, claim = "belongs", (acc, element)
        raw = witness_for_root(memory.root, element, key_len)
    else:
        op = "del" if held == element else "add"
        _root, after, raw, _key = simulate_update(memory.root, memory.value, op, element, key_len)
        name, claim = "check_update", (acc, after, element)

    forgery = draw(st.sampled_from(_FORGERIES))
    steps = split_steps(raw)
    count = len(steps) if draw(st.booleans()) else None  # a stale count word, or one that fits
    if forgery == "flip":
        raw = flip_bit(raw, draw(st.integers(0, len(raw) * 8 - 1)))
    elif forgery == "foreign":
        raw = with_steps(raw, split_steps(witness_for_root(memory.root, draw(_ELEMENTS), key_len)))
    elif forgery == "cut":
        k = draw(st.integers(1, len(steps) + 1))
        raw = with_steps(raw, steps[k:] if draw(st.booleans()) else steps[:-k], count)
    elif forgery == "extend":
        extra = draw(_STEPS)
        raw = with_steps(raw, [*steps, extra] if draw(st.booleans()) else [extra, *steps], count)
    elif forgery == "kind":
        kind = draw(st.sampled_from([0, 1, 2, 3, 4, 5, 9]))
        forged = bytes((kind,)) + raw[1:]
        if draw(st.booleans()):  # fit the payload to the new kind
            has, wants = raw[0] in (2, 3), kind in (2, 3)
            if has and not wants:
                forged = forged[:-OCCUPANT_BYTES]
            elif wants and not has:
                forged += draw(st.sampled_from([ZERO_PAYLOAD, raw[1:33] * 2]) | _PAYLOADS)
        raw = forged
    elif forgery == "occupant-is-key":  # with its own digest, or another
        raw = with_occupant(raw, raw[1:33] + draw(st.just(element_digest(element)) | _DIGESTS))
    elif forgery == "zero-occupant":
        raw = with_occupant(with_steps(raw, steps or [draw(_STEPS)]), ZERO_PAYLOAD)
    elif forgery == "repeated-bit" and steps:
        i = draw(st.integers(0, len(steps) - 1))
        if len(steps) > 1 and draw(st.booleans()):  # another step takes this one's bit
            j = draw(st.integers(0, len(steps) - 1).filter(lambda j: j != i))
            steps[j] = steps[i][:1] + steps[j][1:]
        else:  # this step twice, with its own sibling or a zero one
            steps.insert(i, steps[i][:1] + draw(st.sampled_from([steps[i][1:], bytes(32)])))
        raw = with_steps(raw, steps)
    elif forgery == "swapped-bits" and len(steps) > 1:
        i, j = sorted(draw(st.lists(st.integers(0, len(steps) - 1), min_size=2, max_size=2, unique=True)))
        if draw(st.booleans()):  # the bit bytes only
            steps[i], steps[j] = steps[j][:1] + steps[i][1:], steps[i][:1] + steps[j][1:]
        else:
            steps[i], steps[j] = steps[j], steps[i]
        raw = with_steps(raw, steps)
    return name, (*claim, raw), key_len


class TestReferenceEquivalence:
    """The one-pass verifiers decide as the step-by-step folds in ``reference_verify`` do,
    and report the same SHA-256 input lengths through ``hashed``, in the same order."""

    @given(verifier_calls())
    @settings(max_examples=600, deadline=None)
    def test_same_verdict_and_hash_sequence(self, call):
        name, args, key_len = call
        kernel, reference = {"belongs": belongs, "check_update": check_update}[name], getattr(reference_verify, name)
        reported, expected = [], []
        verdict = kernel(*args, reported.append, key_len=key_len)  # never raises: a raise fails the test
        assert verdict == reference(*args, expected.append, key_len=key_len) and reported == expected
        assert kernel(*args, key_len=key_len) == verdict
        assert verdict in (0, 1) or verdict is BOTTOM

    def test_only_bytes_are_witnesses(self):
        # anything but ``bytes`` is malformed, the parsed view and the honest
        # bytes in another container too: BOTTOM or 0, before any hash
        acc, memory = build_set([b"a", b"b", b"c"])
        calls = [(belongs, (acc, b"a"), 1), (belongs, (acc, b"z"), 0)]
        calls = [(fn, (*claim, witness(acc, memory, claim[1])), want) for fn, claim, want in calls]
        for op, element in (("add", b"z"), ("del", b"a"), ("replace", (b"b", b"b"))):
            _root, after, raw, _key = simulate_update(memory.root, acc, op, element)
            calls.append((check_update, (acc, after, element, raw), 1))
        for fn, (*claim, raw), want in calls:
            assert fn(*claim, raw) == want
            rejected = BOTTOM if fn is belongs else 0
            for other in (decode_witness(raw), raw.hex(), None, 7, list(raw), bytearray(raw), memoryview(raw)):
                reported = []
                assert fn(*claim, other, reported.append) is rejected
                assert reported == []
                assert getattr(reference_verify, fn.__name__)(*claim, other) is rejected


@st.composite
def served_sets(draw):
    """A key length, a set of 0, 1, 2 or many elements, and elements to serve
    witnesses for: present, absent, and, under a prefix, under a taken key."""
    key_len = draw(st.sampled_from([None, 1, 2]))
    size = draw(st.sampled_from([0, 1, 2, 40]))
    elements = draw(
        st.lists(st.binary(min_size=1, max_size=8), min_size=size, max_size=size, unique_by=lambda e: e[:key_len])
    )
    probes = draw(st.lists(_ELEMENTS, min_size=1, max_size=3))
    if elements:
        probes += draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
    return key_len, elements, probes


class TestServedBytesCanonical:
    """Every payload the builders return is the canonical encoding of its parsed
    view, and the reference verifier accepts it with the kernel's verdict:
    1 for a member, 0 for an absent key, BOTTOM for a key holding another element."""

    @given(served_sets())
    @settings(max_examples=150, deadline=None)
    def test_payloads_are_canonical(self, case):
        key_len, elements, probes = case
        acc, memory = build_set(elements, key_len=key_len)
        by_key = {element_digest(element[:key_len]): element for element in elements}
        for element in probes:
            held = by_key.get(element_digest(element[:key_len]))
            want = 1 if held == element else 0 if held is None else BOTTOM
            raw = witness_for_root(memory.root, element, key_len)
            assert encode_witness(decode_witness(raw)) == raw
            verdicts = belongs(acc, element, raw, key_len=key_len), reference_verify.belongs(acc, element, raw, key_len=key_len)
            assert verdicts == (want, want)
            op = "del" if held == element else "add"
            if want is BOTTOM:
                with pytest.raises(AlreadyPresent):
                    simulate_update(memory.root, acc, op, element, key_len)
                continue
            root, after, raw, leaf = simulate_update(memory.root, acc, op, element, key_len)
            assert encode_witness(decode_witness(raw)) == raw and raw[1:33] == leaf_parts(leaf)[0]
            leaves_after = keyed(set(elements) ^ {element}, key_len)
            assert after == node_digest(root) == canonical_digest(leaves_after, leaves_after)
            checks = (fn(acc, after, element, raw, key_len=key_len) for fn in (check_update, reference_verify.check_update))
            assert tuple(checks) == (1, 1)


def bytewise_first_diff_bit(a: bytes, b: bytes) -> int | None:
    """``first_diff_bit`` one byte at a time, most significant bit first."""
    for i in range(len(a)):
        x = a[i] ^ b[i]
        if x:
            return (i << 3) + (8 - x.bit_length())
    return None


keys32 = st.binary(min_size=32, max_size=32)


class TestFirstDiffBit:
    @given(keys32, keys32)
    @example(bytes(32), bytes(32))
    @example(bytes(32), bytes(31) + b"\x01")
    @example(b"\xff" * 32, b"\xff" * 31 + b"\xfe")
    def test_matches_bytewise_reference(self, a, b):
        assert first_diff_bit(a, b) == bytewise_first_diff_bit(a, b)

    @given(keys32, st.integers(0, 255))
    @example(bytes(32), 255)
    def test_single_bit_apart(self, key, bit):
        flipped = (int.from_bytes(key, "big") ^ (1 << (255 - bit))).to_bytes(32, "big")
        assert first_diff_bit(key, flipped) == first_diff_bit(flipped, key) == bit
        assert bytewise_first_diff_bit(key, flipped) == bit
        assert first_diff_bit(key, key) is None is bytewise_first_diff_bit(key, key)


def one_at_a_time(memory, steps):
    for step in steps:
        apply_update(memory, Changes(memory, [step]))
    return memory


@st.composite
def batches(draw):
    """(key length, initial set, valid add/del steps, final set): elements
    come from a small pool, so repeated picks give add-then-delete and
    delete-then-re-add pairs, and, keyed by a 1-byte prefix, replaces: the
    delete of the element a key holds, then the add of another under it."""
    key_len = draw(st.sampled_from([None, 1]))
    pool = draw(st.lists(st.binary(max_size=6), unique=True, max_size=16))
    held = {}  # key -> the element it holds
    for element in sorted(draw(st.sets(st.sampled_from(pool)))) if pool else ():
        held.setdefault(element_digest(element[:key_len]), element)
    initial = sorted(held.values())
    steps = []
    for element in draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else ():
        key = element_digest(element[:key_len])
        if held.get(key) == element:
            steps.append(("del", element))
            del held[key]
            continue
        if key in held:
            steps.append(("del", held[key]))
        steps.append(("add", element))
        held[key] = element
    return key_len, initial, steps, set(held.values())


@st.composite
def crafted_keys(draw):
    """32-byte keys in groups that share long prefixes, down to all but the last byte."""
    keys = set()
    for _ in range(draw(st.integers(1, 4))):
        head = draw(st.binary(min_size=32, max_size=32))
        shared = draw(st.sampled_from([0, 8, 24, 30, 31, 31]))
        tails = draw(st.lists(st.binary(min_size=32 - shared, max_size=32 - shared), max_size=12))
        keys.update(head[:shared] + tail for tail in tails)
    keys = sorted(keys)
    cut = draw(st.integers(0, len(keys)))
    order = draw(st.permutations(keys))
    return order[:cut], order[cut:]


class TestBatchUpdate:
    @given(batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_root_equals_sequential_root(self, batch):
        key_len, initial, steps, final = batch
        _, batched = build_set(initial, key_len=key_len)
        _, sequential = build_set(initial, key_len=key_len)
        acc = apply_update(batched, Changes(batched, steps))
        one_at_a_time(sequential, steps)
        leaves_after = keyed(final, key_len)
        assert acc == batched.value == sequential.value == canonical_digest(leaves_after, leaves_after)
        assert elements_of(batched.root) == elements_of(sequential.root)
        assert batched.epoch == len(initial) + 1

    @given(crafted_keys())
    @settings(max_examples=300, deadline=None)
    def test_merge_with_shared_prefixes(self, split_keys):
        old, new = split_keys
        root, digest = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, sorted(old), whole_leaf)
        merged = tree.insert_many(root, digest, sorted(new), whole_leaf)
        sequential = root, digest
        for key in new:
            sequential = tree.insert_many(*sequential, [key], whole_leaf)
        assert digest == node_digest(root) == canonical_digest(old)
        assert read_out(merged[0]) == read_out(sequential[0]) and merged[1] == sequential[1]
        assert merged[1] == node_digest(merged[0]) == canonical_digest(old + new)

    def test_keys_differing_in_the_last_bit(self):
        head = bytes(31)
        keys = [head + bytes([b]) for b in range(256)]
        root = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, keys[::2], whole_leaf)
        assert tree.insert_many(*root, keys[1::2], whole_leaf)[1] == canonical_digest(keys)

    @staticmethod
    def merge_counting_hashes(root, digest, keys):
        """``tree.insert_many(root, digest, keys, whole_leaf)`` and the number of SHA-256 calls it made."""
        import acctoken.accumulator.hashing as hashing_module

        recorder = RecordingHashlib(hashing_module.hashlib)
        hashing_module.hashlib = recorder
        try:
            merged = tree.insert_many(root, digest, keys, whole_leaf)
        finally:
            hashing_module.hashlib = recorder.real
        return merged, len(recorder.lengths)

    def assert_hashed_once_and_reused(self, old, new, trie=None):
        """Merge ``new`` into the trie of ``old`` (``trie``, a root and its
        digest, when a merge alone did not build it) and check what the
        merge hashed and what it kept."""
        root, digest = trie or tree.insert_many(tree.EMPTY, EMPTY_DIGEST, sorted(old), whole_leaf)
        (merged, merged_digest), hashes = self.merge_counting_hashes(root, digest, sorted(new))
        assert merged_digest == canonical_digest(old + new)
        old_nodes, merged_nodes = nodes(root), nodes(merged)
        old_ids = {identity(node) for node in old_nodes}
        merged_ids = {identity(node) for node in merged_nodes}
        old_rows = {body(node) for node in old_nodes if is_branch(node)}
        merged_rows = {body(node) for node in merged_nodes if is_row(node)}
        old_leaves = {leaf_of(node) for node in old_nodes if is_leaf(node)}
        merged_leaves = {leaf_of(node) for node in merged_nodes if is_leaf(node)}

        def reused(node, ids, rows, leaves):
            # a tuple subtree, a leaf of its own or a region kept whole is the
            # old node itself; a row or a leaf a rewritten region copied is an
            # old one's content, and so is a row written from a tuple branch a
            # path copy left in it
            if identity(node) in ids:
                return True
            if is_leaf(node):
                return leaf_of(node) in leaves
            return is_branch(node) and (is_row(node) or body(node)[1] >= tree.REGION_BIT) and body(node) in rows

        # every node the merge made is hashed once, and nothing else is hashed
        assert hashes == sum(not reused(node, old_ids, old_rows, old_leaves) for node in merged_nodes)
        new_ints = [int.from_bytes(key, "big") for key in new]
        for node in old_nodes:
            if not node:
                continue
            # a new key falls into a subtree when it has the subtree's common
            # prefix: the bits before a branch's own bit, or a leaf's whole key
            shift = 256 - body(node)[1] if is_branch(node) else 0
            prefix = int.from_bytes(leftmost(node), "big") >> shift
            if all(x >> shift != prefix for x in new_ints):
                assert reused(node, merged_ids, merged_rows, merged_leaves)

    @given(crafted_keys())
    @settings(max_examples=200, deadline=None)
    def test_merge_hashes_new_nodes_once_and_reuses_the_rest(self, split_keys):
        old, new = split_keys
        self.assert_hashed_once_and_reused(old, new)

    @pytest.mark.parametrize("side", ["left", "right", "inside"])
    @pytest.mark.parametrize("count", [1, 2, 3, 40])
    def test_batches_around_the_root_prefix(self, side, count):
        rng = random.Random(f"{side}:{count}")
        # the old keys share their first byte, 0x80: a batch wholly left or
        # right of that prefix meets the root branch without entering it
        old = [b"\x80" + rng.randbytes(31) for _ in range(60)]
        first_bytes = {"left": (0, 0x80), "right": (0x81, 0x100), "inside": (0x80, 0x81)}[side]
        new = [bytes([rng.randrange(*first_bytes)]) + rng.randbytes(31) for _ in range(count)]
        self.assert_hashed_once_and_reused(old, new)

    SPINE_ROWS = 10

    @staticmethod
    def region_key(rng, bits) -> bytes:
        """A key in the region of first byte 0x80 whose next bits are ``bits``, the rest drawn from ``rng``."""
        rest = 248 - len(bits)
        x = 0x80 << 248 | int("".join(map(str, bits)) or "0", 2) << rest | rng.getrandbits(rest)
        return x.to_bytes(32, "big")

    @pytest.mark.parametrize("meets", ["leaf", "row"])
    @pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
    def test_one_key_meeting_a_row_at_every_depth(self, side, meets):
        # a region whose rows form a spine, at every other bit from bit 8 down:
        # key i leaves it at row i, and the last key ends it
        rng = random.Random(f"{side}:{meets}")
        rows, off = self.SPINE_ROWS, 1 - side
        spine = [self.region_key(rng, [side] * 2 * i + [off]) for i in range(rows)]
        spine.append(self.region_key(rng, [side] * 2 * rows))
        # a key off the spine at row 0 gives the region two keys, so the
        # other one's range is one key meeting row 1 of the spine
        beside = (int.from_bytes(spine[0], "big") ^ 1).to_bytes(32, "big")
        for depth in range(1, rows + 1):
            if meets == "leaf":  # down the spine to key ``depth``'s leaf, which it splits from at its last bit
                key = (int.from_bytes(spine[depth], "big") ^ 1).to_bytes(32, "big")
            else:  # off the spine just above row ``depth``, so the new row displaces that row's subtree
                key = self.region_key(rng, [side] * (2 * depth - 1) + [off])
            new = sorted([beside, key])
            root, digest = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, sorted(spine), whole_leaf)
            sequential = root, digest
            for one in new:
                sequential = tree.insert(*sequential, one, whole_leaf(one))
            merged = tree.insert_many(root, digest, new, whole_leaf)
            assert merged[1] == sequential[1] == canonical_digest(spine + new)
            assert read_out(merged[0]) == read_out(sequential[0])
            self.assert_hashed_once_and_reused(spine, new)

    @staticmethod
    def counting_rebuilds(monkeypatch) -> list:
        """The regions rewritten from here on, one entry per rewrite: the first byte their keys share."""
        rebuilt = []
        real = tree._rewrite
        monkeypatch.setattr(tree, "_rewrite", lambda *args: rebuilt.append(args[2][args[3]][0]) or real(*args))
        return rebuilt

    OLD_IN_REGION = 24

    @pytest.mark.parametrize("where", ["among", "beside"])
    @pytest.mark.parametrize("count", [2, 3, 6, 11, 12, 13])
    def test_region_rebuilt_once_at_every_density(self, monkeypatch, count, where):
        # the old keys of region 0x80 share their next four bits, so its root
        # row is at bit 12 or deeper: new keys "beside" them leave that
        # prefix at bit 8, and the old subtree is written again whole, its
        # root row too; keys in two other regions stay as they are
        rng = random.Random(f"{count}:{where}")
        old = [self.region_key(rng, [1, 0, 1, 0]) for _ in range(self.OLD_IN_REGION)]
        old += [bytes([head]) + rng.randbytes(31) for head in (0x10, 0x10, 0x10, 0xC0)]
        new = [self.region_key(rng, [1, 0, 1, 0] if where == "among" else [0]) for _ in range(count)]
        root, digest = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, sorted(old), whole_leaf)
        sequential = root, digest
        for key in new:
            sequential = tree.insert(*sequential, key, whole_leaf(key))
        rebuilt = self.counting_rebuilds(monkeypatch)
        merged = tree.insert_many(root, digest, sorted(new), whole_leaf)
        # however few keys the batch brings, the region is rewritten once, as a whole
        assert rebuilt == [0x80]
        assert merged[1] == sequential[1] == canonical_digest(old + new)
        assert read_out(merged[0]) == read_out(sequential[0])
        self.assert_hashed_once_and_reused(old, new)

    @pytest.mark.parametrize("count", [2, 12], ids=["sparse", "dense"])
    def test_rebuilt_region_reached_through_a_path_copy(self, monkeypatch, count):
        # a verified insert leaves its path in region 0x80 as tuple branches
        # over handles and its leaf; a batch then rebuilds the region from them
        rng = random.Random(3)
        old = [self.region_key(rng, []) for _ in range(20)] + [b"\x10" + rng.randbytes(31) for _ in range(5)]
        root, digest = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, sorted(old[1:]), whole_leaf)
        trie = tree.insert(root, digest, old[0], whole_leaf(old[0]))
        assert any(len(node) == 3 and body(node)[1] >= tree.REGION_BIT for node in nodes(trie[0]))
        new = [self.region_key(rng, []) for _ in range(count)]
        sequential = trie
        for key in new:
            sequential = tree.insert(*sequential, key, whole_leaf(key))
        rebuilt = self.counting_rebuilds(monkeypatch)
        merged = tree.insert_many(*trie, sorted(new), whole_leaf)
        assert rebuilt == [0x80]
        assert merged[1] == sequential[1] == canonical_digest(old + new)
        assert read_out(merged[0]) == read_out(sequential[0])
        self.assert_hashed_once_and_reused(old, new, trie)

    @pytest.mark.parametrize("twice", ["listed-twice", "present"])
    def test_rebuilt_region_refuses_a_key_held_twice(self, monkeypatch, twice):
        rng = random.Random(twice)
        old = sorted(self.region_key(rng, []) for _ in range(16))
        new = [self.region_key(rng, []) for _ in range(12)]
        new.append(new[5] if twice == "listed-twice" else old[7])
        root, digest = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, old, whole_leaf)
        before = read_out(root)
        rebuilt = self.counting_rebuilds(monkeypatch)
        with pytest.raises(AlreadyPresent):
            tree.insert_many(root, digest, sorted(new), whole_leaf)
        assert len(rebuilt) == 1
        assert read_out(root) == before and node_digest(root) == digest == canonical_digest(old)

    def test_duplicate_add_rejected(self):
        _, memory = build_set([b"a"])
        with pytest.raises(AlreadyPresent):
            Changes(memory, [("add", b"a")])
        with pytest.raises(AlreadyPresent):
            Changes(memory, [("add", b"b"), ("add", b"b")])
        with pytest.raises(AlreadyPresent):  # present again after a re-add
            Changes(memory, [("del", b"a"), ("add", b"a"), ("add", b"a")])
        key = element_digest(b"a")
        with pytest.raises(AlreadyPresent):
            tree.insert_many(memory.root, memory.value, [key], whole_leaf)
        with pytest.raises(AlreadyPresent):
            tree.insert_many(tree.EMPTY, EMPTY_DIGEST, [key, key], whole_leaf)

    def test_absent_delete_rejected(self):
        _, memory = build_set([b"a"])
        with pytest.raises(NotPresent):
            Changes(memory, [("del", b"b")])
        with pytest.raises(NotPresent):
            Changes(memory, [("del", b"a"), ("del", b"a")])
        with pytest.raises(NotPresent):  # absent again after the add is taken back
            Changes(memory, [("add", b"b"), ("del", b"b"), ("del", b"b")])

    def test_a_key_holds_one_element(self):
        # keyed by a 2-byte prefix, aa-1 and aa-2 share a key
        _, memory = build_set([b"aa-1", b"ab-2"], key_len=2)
        key = element_digest(b"aa-1"[:2])
        with pytest.raises(AlreadyPresent):
            Changes(memory, [("add", b"aa-2")])
        with pytest.raises(NotPresent):  # the key holds another element
            Changes(memory, [("del", b"aa-2")])
        with pytest.raises(NotPresent):  # after a replace, the key holds the new one
            Changes(memory, [("del", b"aa-1"), ("add", b"aa-2"), ("del", b"aa-1")])
        assert not Changes(memory, [("del", b"aa-1"), ("add", b"aa-1")])
        taken_back = Changes(memory, [("del", b"aa-1"), ("add", b"aa-2"), ("del", b"aa-2")])
        assert taken_back.dels == {key: key + b"aa-1"} and not taken_back.adds
        replace = Changes(memory, [("del", b"aa-1"), ("add", b"aa-2")])
        assert replace.dels == {key: key + b"aa-1"} and replace.adds == {key: key + b"aa-2"}
        acc = apply_update(memory, replace)
        leaves_after = keyed([b"aa-2", b"ab-2"], 2)
        assert acc == canonical_digest(leaves_after, leaves_after)
        assert sorted(elements_of(memory.root).values()) == [b"aa-2", b"ab-2"]
        assert belongs(acc, b"aa-2", witness(acc, memory, b"aa-2"), key_len=2) == 1
        # the key's path, with the leaf holding aa-2 as its occupant: no verdict
        assert belongs(acc, b"aa-1", witness(acc, memory, b"aa-1"), key_len=2) is BOTTOM
        assert belongs(acc, b"ac-1", witness(acc, memory, b"ac-1"), key_len=2) == 0

    def test_rejected_batch_leaves_memory_untouched(self):
        _, memory = build_set([b"a", b"b", b"c"])
        stale = Changes(memory, [("add", b"d")])
        apply_update(memory, Changes(memory, [("del", b"c")]))
        before = (memory.root, elements_of(memory.root), memory.epoch)
        with pytest.raises(StaleAccumulator):
            apply_update(memory, stale)
        with pytest.raises(AlreadyPresent):
            Changes(memory, [("del", b"b"), ("add", b"e"), ("add", b"a")])
        assert (memory.root, elements_of(memory.root), memory.epoch) == before

# elements keyed by their first two bytes: four keys the memory may hold, and
# eight it never does, each under three elements
RUN_ELEMENTS = [bytes((0, k, v)) for k in range(12) for v in range(3)]


def recorded(memory, prior, runs, by_run):
    """``prior`` recorded step by step into a new batch of ``memory`` (a step
    it refuses is left out), then ``runs``, by ``record_run`` or step by step;
    returns the batch's added leaves by key, its deletes and the digest
    ``updated_root`` reaches with it, or the class of what the runs raised."""
    changes = Changes(memory)
    for op, element in prior:
        try:
            changes.record(op, element)
        except (AlreadyPresent, NotPresent, ValueError):
            pass
    try:
        for op, elements in runs:
            if by_run:
                changes.record_run(op, iter(elements))
            else:
                for element in elements:
                    changes.record(op, element)
    except (AlreadyPresent, NotPresent, ValueError) as exc:
        return type(exc)
    added = dict(changes.adds)
    added.update((leaf_parts(leaf)[0], leaf) for leaf in changes.run)
    return added, changes.dels, updated_root(memory.root, memory.value, changes)[1]


@st.composite
def run_element(draw, op):
    """One ``op``'s element: a replace's pair mostly keeps its key."""
    old = draw(st.sampled_from(RUN_ELEMENTS))
    if op != "replace":
        return old
    same_key = st.sampled_from([old[:2] + bytes((v,)) for v in range(3)])
    return old, draw(st.one_of(same_key, same_key, st.sampled_from(RUN_ELEMENTS)))


def step_runs(max_size):
    """Runs of one op each, as ``(op, elements)``."""
    ops = st.sampled_from(["add", "add", "del", "replace"])
    return st.lists(ops.flatmap(lambda op: st.tuples(st.just(op), st.lists(run_element(op), max_size=max_size))), max_size=4)


@st.composite
def runs_and_later_steps(draw):
    """Runs of one op each, as ``step_runs``, then runs that name the
    elements the first runs added: their deletes, re-adds and replaces,
    which meet the run ``record_run`` keeps whole."""
    runs = draw(step_runs(6))
    added = [element for op, elements in runs if op == "add" for element in elements]
    if not added:
        return runs

    def named(op):
        if op != "replace":
            return st.sampled_from(added)
        return st.sampled_from(added).flatmap(lambda old: st.tuples(st.just(old), st.sampled_from([old[:2] + bytes((v,)) for v in range(3)])))

    ops = st.sampled_from(["add", "del", "del", "replace"])
    return runs + draw(st.lists(ops.flatmap(lambda op: st.tuples(st.just(op), st.lists(named(op), max_size=4))), max_size=3))


def memory_holding(held, built):
    """A memory keyed by two-byte prefixes that holds ``held``, put in by one
    batch (``insert_many``, which writes regions) or one update at a time
    (``per_op``, path copies)."""
    if built == "per_op":
        return build_set(held, key_len=2)[1]
    _acc, memory = setup(256, 2)
    apply_update(memory, Changes(memory, [("add", element) for element in held]))
    return memory


# 600 elements the memory of ``test_presence_comes_from_the_trie`` held, the
# first 40 of them deleted since, and 100 it never held
PRESENCE_HELD = [i.to_bytes(2, "big") + b"a" for i in range(600)]
PRESENCE_FRESH = [i.to_bytes(2, "big") + b"a" for i in range(600, 700)]


class TestRecordRun:
    """``Changes.record_run`` records a run of one op as ``record`` does, one
    step at a time, reading what the memory holds from its trie; a run of
    new keys is kept as its sorted leaves (``Changes.run``), which later
    steps read and change as ``record`` does its adds; a batch keeps one
    such run, and records a later one step by step."""

    @pytest.mark.parametrize("built", ["insert_many", "per_op"])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        held=st.lists(st.sampled_from(RUN_ELEMENTS[:12]), unique_by=lambda e: e[:2], max_size=4),
        prior=step_runs(3),
        runs=runs_and_later_steps(),
    )
    def test_a_run_nets_and_raises_as_its_steps_do(self, built, held, prior, runs):
        memory = memory_holding(held, built)
        before = memory.root, memory.value, elements_of(memory.root), memory.epoch
        prior = [(op, element) for op, elements in prior for element in elements]
        assert recorded(memory, prior, runs, True) == recorded(memory, prior, runs, False)
        assert (memory.root, memory.value, elements_of(memory.root), memory.epoch) == before

    @pytest.mark.parametrize(
        "prior, run, error",
        [
            ([], [b"\x00\x04a", b"\x00\x05a", b"\x00\x04b"], AlreadyPresent),  # a key named twice
            ([], [b"\x00\x04a", b"\x00\x01b"], AlreadyPresent),  # a held key
            ([("add", b"\x00\x05a")], [b"\x00\x04a", b"\x00\x05a"], AlreadyPresent),  # a key added before
            ([("del", b"\x00\x01a")], [b"\x00\x04a", b"\x00\x01a"], None),  # the re-add of a deleted element
            ([("del", b"\x00\x01a")], [b"\x00\x04a", b"\x00\x01b"], None),  # a replace
            ([("del", b"\x00\x01a")], [b"\x00\x04a", b"\x00\x05a"], None),  # all new beside a delete
        ],
        ids=["named-twice", "held", "added-before", "re-add", "replace", "beside-a-delete"],
    )
    def test_named_cases(self, prior, run, error):
        _acc, memory = setup(256, 2)
        apply_update(memory, Changes(memory, [("add", b"\x00\x01a")]))
        one_at_a_time = recorded(memory, prior, [("add", run)], False)
        assert recorded(memory, prior, [("add", run)], True) == one_at_a_time
        assert (one_at_a_time is error) if error else isinstance(one_at_a_time, tuple)

    @pytest.mark.parametrize(
        "later, error",
        [
            ([("del", [b"\x00\x04a"])], None),  # a delete of a run's leaf
            ([("del", [b"\x00\x04a"]), ("add", [b"\x00\x04a"])], None),  # and its re-add
            ([("del", [b"\x00\x04a", b"\x00\x05a", b"\x00\x03a"])], None),  # the whole run taken back
            ([("replace", [(b"\x00\x04a", b"\x00\x04b")])], None),  # a replace of a run's leaf
            ([("del", [b"\x00\x04b"])], NotPresent),  # another element under a run's key
            ([("add", [b"\x00\x04b"])], AlreadyPresent),  # an add under a run's key
            ([("add", [b"\x00\x06a", b"\x00\x05b"])], AlreadyPresent),  # a second run naming a run's key
            ([("add", [b"\x00\x07a", b"\x00\x06a"]), ("del", [b"\x00\x01a"])], None),  # a second run, a delete
            ([("replace", [(b"\x00\x01a", b"\x00\x01b")]), ("add", [b"\x00\x06a"])], None),  # a replace beside runs
        ],
        ids=["del", "re-add", "all-taken-back", "replace", "del-other", "add-held", "run-held", "second-run", "replace-beside"],
    )
    def test_later_steps_on_a_run(self, later, error):
        _acc, memory = setup(256, 2)
        apply_update(memory, Changes(memory, [("add", b"\x00\x01a")]))
        first = ("add", [b"\x00\x04a", b"\x00\x05a", b"\x00\x03a"])
        one_at_a_time = recorded(memory, [], [first, *later], False)
        assert recorded(memory, [], [first, *later], True) == one_at_a_time
        assert (one_at_a_time is error) if error else isinstance(one_at_a_time, tuple)
        changes = Changes(memory)
        changes.record_run(*first)
        assert not changes.adds and changes.run == sorted(element_digest(e[:2]) + e for e in first[1])

    @pytest.mark.parametrize("built", ["insert_many", "per_op"])
    @pytest.mark.parametrize(
        "prior, extra, error",
        [
            ([], [], None),  # all new
            ([], [PRESENCE_HELD[300]], AlreadyPresent),  # the add of a held element
            ([], [PRESENCE_HELD[300][:2] + b"b"], AlreadyPresent),  # another element under a held key
            ([], [PRESENCE_HELD[7]], None),  # the re-add of an element the memory deleted
            ([("del", PRESENCE_HELD[500])], [PRESENCE_HELD[500]], None),  # the re-add of one this batch deleted
            ([("del", PRESENCE_HELD[500])], [PRESENCE_HELD[500][:2] + b"b"], None),  # a replace
        ],
        ids=["all-new", "held", "held-key", "re-add-deleted", "re-add-in-batch", "replace"],
    )
    def test_presence_comes_from_the_trie(self, built, prior, extra, error):
        # the memory's trie, of regions and path copies over them or of path
        # copies alone, is all that says which keys it holds
        memory = memory_holding(PRESENCE_HELD, built)
        acc = memory.value
        for element in PRESENCE_HELD[:40]:
            acc = update("del", acc, memory, element).acc_after
        assert has_regions(memory.root) is (built == "insert_many")
        run = PRESENCE_FRESH[:50] + extra + PRESENCE_FRESH[50:]
        one_at_a_time = recorded(memory, prior, [("add", run)], False)
        assert recorded(memory, prior, [("add", run)], True) == one_at_a_time
        assert (one_at_a_time is error) if error else isinstance(one_at_a_time, tuple)

    def test_a_run_into_a_region_trie_walks_it_once(self, monkeypatch):
        # 4,096 new keys into a trie of 4,096 keys in regions: one walk of
        # the trie checks them all, and no key is looked up on its own
        elements = [i.to_bytes(2, "big") + b"v" for i in range(8192)]
        memory = memory_holding(elements[::2], "insert_many")
        assert has_regions(memory.root)
        finds, walks = [], []
        find, holds_any = tree.find, tree.holds_any
        monkeypatch.setattr(tree, "find", lambda root, key: finds.append(key) or find(root, key))
        monkeypatch.setattr(tree, "holds_any", lambda root, keys: walks.append(keys) or holds_any(root, keys))
        changes = Changes(memory)
        changes.record_run("add", elements[1::2])
        assert finds == [] and len(walks) == 1 and not changes.adds and len(changes.run) == 4096
        # a run naming a held key is recorded step by step, which finds it
        with pytest.raises(AlreadyPresent):
            Changes(memory).record_run("add", elements[1:9:2] + elements[:1])
        assert finds[-1] == element_digest(elements[0][:2])

    def test_a_run_of_new_keys_is_hashed_once_and_recorded_in_one_go(self, monkeypatch):
        _acc, memory = setup(256, 2)
        apply_update(memory, Changes(memory, [("add", b"\x00\x01a")]))
        changes = Changes(memory, [("replace", (b"\x00\x01a", b"\x00\x01b"))])
        steps = []
        monkeypatch.setattr(Changes, "record", lambda self, *step: steps.append(step))
        hashes = RecordingHashlib()
        monkeypatch.setattr("acctoken.accumulator.hashing.hashlib", hashes)
        run = [bytes((1, k, 0)) for k in range(50)]
        changes.record_run("add", run)
        assert steps == [] and hashes.lengths == [2] * len(run)
        key = element_digest(b"\x00\x01")
        assert changes.adds == {key: key + b"\x00\x01b"}
        assert changes.run == sorted(element_digest(e[:2]) + e for e in run)

    def test_a_second_run_goes_to_the_adds(self):
        # a batch keeps one run; a later run of new keys is recorded step by
        # step, and both merge into the trie a step-by-step batch reaches
        _acc, memory = setup(256, 2)
        apply_update(memory, Changes(memory, [("add", b"\x00\x01a")]))
        first, second = [bytes((2, k, 0)) for k in range(40)], [bytes((3, k, 0)) for k in range(40)]
        changes = Changes(memory)
        changes.record_run("add", first)
        changes.record_run("add", second)
        assert changes.run == sorted(element_digest(e[:2]) + e for e in first)
        assert changes.adds == {element_digest(e[:2]): element_digest(e[:2]) + e for e in second}
        stepped = Changes(memory)
        for element in first + second:
            stepped.record("add", element)
        assert updated_root(memory.root, memory.value, changes)[1] == updated_root(memory.root, memory.value, stepped)[1]

    def test_updated_root_leaves_the_run_as_it_was(self):
        # the staging walk reads the batch, and the commit spends it after
        _acc, memory = setup(256, 2)
        apply_update(memory, Changes(memory, [("add", b"\x00\x01a")]))
        run = [bytes((k % 4, k, 0)) for k in range(2, 200)]
        changes = Changes(memory)
        changes.record_run("add", run)
        held = list(changes.run)
        digest = updated_root(memory.root, memory.value, changes)[1]
        assert changes.run == held and len(changes) == len(run)
        assert apply_update(memory, changes) == digest
        assert changes.run == [] and not changes.adds


class TestCollectorFreeNodes:
    def test_no_node_stays_tracked(self):
        rng = random.Random(11)
        elements = [rng.randbytes(12) for _ in range(3000)]
        keys = sorted(map(element_digest, elements[:2500]))
        batched = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, keys[::2], whole_leaf)
        merged = tree.insert_many(*batched, keys[1::2], whole_leaf)
        inserted = batched
        for element in elements[2500:2600]:
            key = element_digest(element)
            inserted = tree.insert(*inserted, key, whole_leaf(key))
        removed = merged
        for key in keys[:300]:
            removed = tree.remove(removed[0], key)
        emptied = tree.remove(tree.insert(tree.EMPTY, EMPTY_DIGEST, keys[0], whole_leaf(keys[0]))[0], keys[0])
        simulated = removed
        for element in elements[2600:2700]:
            simulated = simulate_update(*simulated, "add", element)[:2]
        kept = [element for element in elements[:2500] if element_digest(element) > keys[299]]
        for element in kept[:100] + elements[2600:2650]:
            simulated = simulate_update(*simulated, "del", element)[:2]
        roots = [root for root, _digest in (batched, merged, inserted, removed, emptied, simulated)]
        found = nodes(*roots)
        branches = [node for node in found if is_branch(node)]
        # every other node is a leaf, which is its key, or EMPTY: no leaf is
        # a container the collector could track
        others = [node for node in found if not is_branch(node)]
        assert all(is_leaf(node) and len(leaf_of(node)) == 32 or node is tree.EMPTY for node in others)
        assert not any(gc.is_tracked(leaf_of(node)) for node in others if is_leaf(node))
        # a branch holds two nodes and its body, the bytes of its hash preimage
        assert all(body(branch).__class__ is bytes for branch in branches)
        # what the tries' branches hold: tuple branches, handles and regions
        # with their parts; a collection untracks a tuple only if it examines
        # the tuple's children first, so a fresh trie leaves over several
        # collections
        parts = held(*roots)
        tracked = None
        while True:
            gc.collect()
            previous, tracked = tracked, sum(map(gc.is_tracked, parts))
            if tracked == previous:
                break
        assert tracked == 0
        assert len(branches) > 2500 and len(others) > 2500


class TestLeavesAreKeys:
    """Keyed by whole elements, a memory's leaves are its elements' keys,
    each the bare 32-byte key, one per element it holds."""

    @staticmethod
    def assert_leaves_are_keys(memory, present):
        found = leaves(memory.root)
        assert all(leaf_parts(leaf) == (leaf, None) for leaf in found)  # bare keys
        assert sorted(found) == sorted(map(element_digest, present))
        assert len(memory) == len(present)

    def test_after_single_updates(self):
        elements = [b"e%d" % i for i in range(200)]
        acc, memory = build_set(elements)
        for element in elements[::3]:
            acc = update("del", acc, memory, element).acc_after
        added = [b"x%d" % i for i in range(50)]
        for element in added:
            acc = update("add", acc, memory, element).acc_after
        self.assert_leaves_are_keys(memory, [e for i, e in enumerate(elements) if i % 3] + added)

    def test_after_batches(self):
        _acc, memory = build_set([b"e%d" % i for i in range(100)])
        apply_update(memory, Changes(memory, [("add", b"x%d" % i) for i in range(400)]))
        steps = [("del", b"e%d" % i) for i in range(0, 100, 2)] + [("add", b"y%d" % i) for i in range(300)]
        apply_update(memory, Changes(memory, steps))
        present = [b"e%d" % i for i in range(1, 100, 2)] + [b"x%d" % i for i in range(400)] + [b"y%d" % i for i in range(300)]
        self.assert_leaves_are_keys(memory, present)
        assert memory.value == node_digest(memory.root) == canonical_digest(sorted(map(element_digest, present)))


class TestWholeElementMemoryHoldsKeys:
    """A memory keyed by whole elements holds each key as its own leaf: a
    bare key, which ``find`` reads back at it, whichever way the key came
    in; a leaf a path copy holds is the very object ``find`` reads back."""

    @staticmethod
    def assert_values_are_leaves(memory):
        found = [node for node in nodes(memory.root) if is_leaf(node)]
        assert found and all(leaf_parts(leaf_of(node)) == (leaf_of(node), None) for node in found)
        assert all(tree.find(memory.root, leaf_of(node)) == leaf_of(node) for node in found)
        assert all(tree.find(memory.root, node) is node for node in found if node.__class__ is bytes)

    def test_after_every_kind_of_commit(self):
        network = StorageNetwork()
        network.register("acc")
        memory = network._entry("acc").memory
        # a Changes batch, walked at install
        network.commit({"acc": network.changes("acc", [("add", b"e%d" % i) for i in range(300)])})
        self.assert_values_are_leaves(memory)
        # single updates: the simulated root is adopted
        update("add", memory.value, memory, b"x")
        update("del", memory.value, memory, b"e0")
        self.assert_values_are_leaves(memory)
        # a chain tip the contract accepted is adopted
        mid, _ = network.build_update_witness("acc", "del", b"e1")
        end, _ = network.build_update_witness("acc", "add", b"y", base=mid)
        network.commit({"acc": [("del", b"e1"), ("add", b"y")]}, {"acc": end})
        self.assert_values_are_leaves(memory)
        # a superseded chain's steps are walked, and checked against its value
        mid, _ = network.build_update_witness("acc", "del", b"e2")
        end, _ = network.build_update_witness("acc", "add", b"z", base=mid)
        network.build_update_witness("acc", "add", b"other")
        network.commit({"acc": [("del", b"e2"), ("add", b"z")]}, {"acc": end})
        self.assert_values_are_leaves(memory)
        keys = sorted(map(element_digest, [b"e%d" % i for i in range(3, 300)] + [b"x", b"y", b"z"]))
        assert memory.value == end == canonical_digest(keys)
        assert sorted(leaves(memory.root)) == keys

    def test_absent_and_present_elements_are_still_refused(self):
        acc, memory = build_set([b"a", b"b"])
        with pytest.raises(NotPresent):
            update("del", acc, memory, b"c")
        with pytest.raises(AlreadyPresent):
            update("add", acc, memory, b"a")
        with pytest.raises(NotPresent):
            Changes(memory, [("del", b"a"), ("del", b"a")])
        # a delete and a re-add of one element cancel, compared by key
        assert not Changes(memory, [("del", b"a"), ("add", b"a")])
        assert memory.value == acc


class TestBranchIsItsPreimage:
    """A branch is ``(left, right, body)``, its body the 66 bytes its digest hashes."""

    @staticmethod
    def assert_layout(memory, present):
        keys = set(map(element_digest, present))
        assert node_digest(memory.root) == memory.value
        leaves = 0
        for node in nodes(memory.root):
            if is_leaf(node):
                assert leaf_of(node) in keys  # keyed whole, a leaf is its element's bare key
                leaves += 1
            elif node:
                left, right = children(node)
                preimage = body(node)
                assert preimage.__class__ is bytes and len(preimage) == 66 and preimage[:1] == TAG_INTERNAL
                assert preimage[2:34] == node_digest(left) and preimage[34:] == node_digest(right)
                # the two subtrees split at the branch's bit
                assert first_diff_bit(leftmost(left), leftmost(right)) == preimage[1]
        assert leaves == len(keys)

    def test_after_single_updates_and_batches(self):
        elements = [b"e%d" % i for i in range(300)]
        acc, memory = build_set(elements[:100])
        self.assert_layout(memory, elements[:100])
        for element in elements[:100:3]:
            acc = update("del", acc, memory, element).acc_after
        kept = [e for i, e in enumerate(elements[:100]) if i % 3]
        apply_update(memory, Changes(memory, [("add", element) for element in elements[100:]]))
        self.assert_layout(memory, kept + elements[100:])
        apply_update(memory, Changes(memory, [("del", element) for element in elements[100:250]]))
        self.assert_layout(memory, kept + elements[250:])

    def test_traced_bytes_per_element(self):
        # a branch per element beyond the first. As a 3-tuple (64 requested
        # bytes) and its 66-byte body (99) it took about 163 bytes, and a
        # branch of five slots and two 32-byte digest objects about 210; the
        # region rows a batch writes take less (``TestRegions``). The keys
        # are the leaves, made before tracing
        keys = sorted(element_digest(b"%d" % i) for i in range(20_000))
        tracemalloc.start()
        try:
            built = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, keys, whole_leaf)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[1] == node_digest(built[0])
        assert traced / len(keys) < 180


class TestRegions:
    """The batch merge writes the branches at ``tree.REGION_BIT`` or deeper
    as region rows; the tries it builds serve what one insert at a time
    builds, byte for byte."""

    def test_traced_bytes_per_element(self):
        # a row per element beyond the first: its 66-byte body and 8 bytes
        # of child ids, and the key's 32 bytes in its region's data and its
        # 4-byte end (110), plus each region's and each tuple branch's share
        # above it. The keys, made before tracing, are copied in: the trie
        # holds no leaf object of its own, where a region that held each
        # key object in a tuple took about 82 bytes a key beside the key's 65
        keys = sorted(element_digest(b"%d" % i) for i in range(20_000))
        tracemalloc.start()
        try:
            built = tree.insert_many(tree.EMPTY, EMPTY_DIGEST, keys, whole_leaf)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built[1] == node_digest(built[0])
        assert any(map(is_row, nodes(built[0])))
        assert not any(node.__class__ is bytes for node in nodes(built[0]))
        assert traced / len(keys) < 120

    @staticmethod
    def assert_serve_alike(batched, single, present, rng):
        """The two memories hold one trie, and serve the same witnesses and
        update simulations; ``present`` lists the elements they hold."""
        assert batched.value == single.value and read_out(batched.root) == read_out(single.root)
        assert sorted(leaves(batched.root)) == sorted(map(element_digest, present))
        probes = rng.sample(present, min(len(present), 12)) + [rng.randbytes(8) for _ in range(6)]
        for element in probes:
            assert witness_for_root(batched.root, element) == witness_for_root(single.root, element)
            op = "del" if element in present else "add"
            (root, *served), (other_root, *other_served) = (
                simulate_update(memory.root, memory.value, op, element) for memory in (batched, single)
            )
            assert served == other_served and read_out(root) == read_out(other_root)

    # at 120 keys or more, two share a first byte, and so a region, but for
    # odds of about 1e-12
    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(120, 300), min_size=2, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_batches_serve_what_single_inserts_serve(self, seed, sizes):
        rng = random.Random(seed)
        _, batched = setup(256)
        _, single = setup(256)
        present = []
        for i, size in enumerate(sizes):
            steps = [("add", rng.randbytes(8)) for _ in range(size)]
            apply_update(batched, Changes(batched, steps))
            one_at_a_time(single, steps)
            present += [element for _op, element in steps]
            self.assert_serve_alike(batched, single, present, rng)
            if i:
                continue
            # path copies through a region: a delete of one of its keys, and
            # an add of a key with its first byte; the next batch then
            # merges over tuples laid over the region's rows
            rows = [node for node in nodes(batched.root) if is_row(node)]
            assert rows
            key = leftmost(rows[0])
            deleted = next(e for e in present if element_digest(e) == key)
            added = next(e for e in iter(lambda: rng.randbytes(8), None) if element_digest(e)[0] == key[0])
            for step in (("del", deleted), ("add", added)):
                for memory in (batched, single):
                    update(step[0], memory.value, memory, step[1])
            present.remove(deleted)
            present.append(added)
            assert any(len(node) == 3 and body(node)[1] >= tree.REGION_BIT for node in nodes(batched.root))
            self.assert_serve_alike(batched, single, present, rng)
