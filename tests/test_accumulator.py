"""Accumulator unit and property tests: the five-algorithm contract."""

import gc
import pathlib
import random
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acctoken.accumulator import (
    BOTTOM,
    EMPTY_DIGEST,
    Witness,
    WitnessKind,
    belongs,
    check_update,
    decode_witness,
    encode_witness,
    setup,
    simulate_update,
    update,
    witness,
    witness_for_root,
    witness_size_bytes,
)
from acctoken.accumulator import tree
from acctoken.accumulator.core import Changes, apply_update
from acctoken.accumulator.hashing import bit_at, branch_hash, element_digest, first_diff_bit, leaf_hash
from acctoken.errors import (
    AlreadyPresent,
    NotPresent,
    StaleAccumulator,
    UnsupportedParameter,
)

import reference_verify


def build_set(elements, bits=256):
    acc, memory = setup(bits)
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
        assert w.kind == WitnessKind.MEMBERSHIP
        assert belongs(acc, b"a", w) == 1

    def test_singleton_non_membership(self):
        acc, memory = build_set([b"a"])
        w = witness(acc, memory, b"b")
        assert w.kind == WitnessKind.NON_MEMBERSHIP
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
            expected = 1 if probe in memory.elements.values() else 0
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
            raw = encode_witness(witness(acc, memory, probe))
            assert belongs(acc, probe, raw) in (0, 1)
            for mutated in self.tamper_all_bytes(raw):
                assert belongs(acc, probe, mutated) is BOTTOM

    def test_sampled_tamper_on_large_witnesses(self, large_tree_2_16):
        acc, memory, elements = large_tree_2_16
        rng = random.Random(31)
        for element in rng.sample(elements, 4) + [b"absent-big-1", b"absent-big-2"]:
            raw = encode_witness(witness(acc, memory, element))
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
        raw = encode_witness(added.witness)
        for mutated in self.tamper_all_bytes(raw):
            assert check_update(acc, added.acc_after, b"tamper-add", mutated) == 0
        acc2 = added.acc_after
        removed = update("del", acc2, memory, b"tamper-add")
        raw = encode_witness(removed.witness)
        for mutated in self.tamper_all_bytes(raw):
            assert check_update(acc2, removed.acc_after, b"tamper-add", mutated) == 0


class _RecordingHashlib:
    """Stands in for ``hashlib`` inside ``accumulator.hashing``; records SHA-256 input lengths."""

    def __init__(self, real):
        self.real = real
        self.lengths = []

    def sha256(self, data=b""):
        self.lengths.append(len(data))
        return self.real.sha256(data)


class TestHashProfile:
    """The sizes the ``hashed`` callback reports must mirror the verifier's actual hashing."""

    @staticmethod
    def record(fn, *args):
        """Run ``fn`` once; return its verdict, the hashlib input lengths and the reported ones."""
        import acctoken.accumulator.hashing as hashing_module

        recorder = _RecordingHashlib(hashing_module.hashlib)
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
    def hashlib_lengths(fn, *args):
        import acctoken.accumulator.hashing as hashing_module

        recorder = _RecordingHashlib(hashing_module.hashlib)
        hashing_module.hashlib = recorder
        try:
            result = fn(*args)
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
        cases = [(belongs, acc, probe, witness(acc, memory, probe))]  # non-membership
        if elements:  # membership and deletion need a present element
            member = min(elements)
            cases.append((belongs, acc, member, witness(acc, memory, member)))
        added = update("add", acc, memory, probe)
        cases.append((check_update, acc, added.acc_after, probe, added.witness))
        if elements:
            removed = update("del", added.acc_after, memory, member)
            cases.append((check_update, added.acc_after, removed.acc_after, member, removed.witness))
        assert {args[-1].kind for _fn, *args in cases} == (
            set(WitnessKind) if elements else {WitnessKind.NON_MEMBERSHIP, WitnessKind.UPDATE_ADD}
        )
        wrong = b"\x5a" * 32
        for fn, acc_arg, *rest in cases:
            # the genuine claim, then the same witness against a wrong accumulator value
            for args in ((acc_arg, *rest), (wrong, *rest)):
                plain = fn(*args)
                reported = []
                verdict, seen = self.hashlib_lengths(fn, *args, reported.append)
                assert verdict == plain
                assert sorted(reported) == seen
            assert fn(acc_arg, *rest) in (0, 1)


class TestWitnessSizes:
    def test_empty_set_non_membership_size(self):
        acc, memory = setup(256)
        w = witness(acc, memory, b"whatever")
        # header (35) plus the fixed 32-byte empty-tree payload
        assert witness_size_bytes(w) == 67
        assert len(encode_witness(w)) == 67

    def test_size_linear_in_steps(self):
        acc, memory = build_set([bytes([i]) for i in range(64)])
        for probe in (bytes([3]), bytes([40]), b"absent"):
            w = witness(acc, memory, probe)
            payload = 32 if w.kind == WitnessKind.NON_MEMBERSHIP else 0
            assert witness_size_bytes(w) == 35 + 33 * len(w.steps) + payload

    def test_mean_size_at_2_16(self, large_tree_2_16):
        acc, memory, elements = large_tree_2_16
        rng = random.Random(11)
        sample = rng.sample(elements, 2000)
        sizes = [witness_size_bytes(witness(acc, memory, e)) for e in sample]
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
        self.assert_bounds(acc, memory, list(memory.elements.values()), n.bit_length() - 1)

    def assert_bounds(self, acc, memory, elements, log2n):
        lengths = sorted(len(witness(acc, memory, e).steps) for e in elements)
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
        raw = encode_witness(witness(acc, memory, b"a"))
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
        raw = encode_witness(witness(acc, memory, b"a"))
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
            assert decode_witness(encode_witness(w)) == w

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


_ELEMENTS = st.binary(min_size=1, max_size=6)


@st.composite
def update_claims(draw):
    """A set, an element, and an update claim about it that may be forged.

    The witness is an honest update witness built on the set itself, or on a
    set that differs from it by the element or by one other element, so a
    genuine-looking claim can target the wrong set. It may then be tampered
    with: a flipped bit, the steps of another element's path, or its own
    steps cut or extended.
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
    new_root, w = simulate_update(memory.root, op, element)
    honest = source == set(elements)

    tamper = draw(st.sampled_from(["none", "flip", "foreign", "cut", "extend"]))
    if tamper == "flip":
        raw = encode_witness(w)
        return elements, element, tree.digest(new_root), flip_bit(raw, draw(st.integers(0, len(raw) * 8 - 1))), False
    if tamper == "foreign":
        acc, memory = build_set(elements)
        steps = witness(acc, memory, draw(_ELEMENTS)).steps
    elif tamper == "cut":
        k = draw(st.integers(1, len(w.steps) + 1))
        steps = w.steps[k:] if draw(st.booleans()) else w.steps[:-k]
    elif tamper == "extend":
        extra = (draw(st.integers(0, 255)), draw(st.binary(min_size=32, max_size=32)))
        steps = (*w.steps, extra) if draw(st.booleans()) else (extra, *w.steps)
    else:
        steps = w.steps
    forged = replace(w, steps=steps)
    return elements, element, tree.digest(new_root), encode_witness(forged), honest and forged == w


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
            w = decode_witness(raw)
            deleted = w.kind == WitnessKind.UPDATE_DEL
            assert (element in elements) == deleted
            kind = WitnessKind.MEMBERSHIP if deleted else WitnessKind.NON_MEMBERSHIP
            assert belongs(acc_before, element, replace(w, kind=kind)) == (1 if deleted else 0)


def _not_bytes(digest: bytes, how: str):
    """A stand-in for a 32-byte digest that is not ``bytes``."""
    return {"str": "x" * 32, "bytearray": bytearray(digest), "memoryview": memoryview(digest),
            "none": None, "int": 7}[how]


_NOT_BYTES_KINDS = ("str", "bytearray", "memoryview", "none", "int")
_NOT_BYTES = st.sampled_from(_NOT_BYTES_KINDS)


_FORGERIES = ("none", "flip", "foreign", "cut", "extend", "kind", "occupant-is-key",
              "repeated-bit", "unsorted-bits", "bit-out-of-range", "sibling-type", "occupant-type")


@st.composite
def verifier_calls(draw):
    """A ``belongs`` or ``check_update`` call, as (name, arguments), honest or forged.

    The witness is honest for its element on the set itself or on a set that
    differs from it by one other element. It may then be forged: a flipped
    bit, another element's steps, its steps cut or extended, another kind
    (the other update kind included), the element's own key as occupant,
    a repeated, unsorted or out-of-range bit, or a sibling or occupant that
    is not ``bytes``. Integer bits only: the decoder never makes others.
    """
    size = draw(st.sampled_from([0, 1, 1, 2, 3, 8]))
    elements = draw(st.lists(_ELEMENTS, min_size=size, max_size=size, unique=True))
    element = draw(st.sampled_from(elements) | _ELEMENTS) if elements else draw(_ELEMENTS)
    source = set(elements)
    if draw(st.booleans()):
        source ^= {draw(_ELEMENTS.filter(lambda other: other != element))}
    acc, _memory = build_set(sorted(elements))
    _acc, memory = build_set(sorted(source))
    if draw(st.booleans()):
        name, claim = "belongs", (acc, element)
        w = witness_for_root(memory.root, element)
    else:
        new_root, w = simulate_update(memory.root, "del" if element in source else "add", element)
        name, claim = "check_update", (acc, tree.digest(new_root), element)

    forgery = draw(st.sampled_from(_FORGERIES))
    kind, steps, occupant = w.kind, list(w.steps), w.occupant
    pick = draw(st.integers(0, 255))
    if forgery == "flip":
        raw = encode_witness(w)
        return name, (*claim, flip_bit(raw, draw(st.integers(0, len(raw) * 8 - 1))))
    if forgery == "foreign":
        steps = list(witness_for_root(memory.root, draw(_ELEMENTS)).steps)
    elif forgery == "cut":
        k = draw(st.integers(1, len(steps) + 1))
        steps = steps[k:] if draw(st.booleans()) else steps[:-k]
    elif forgery == "extend":
        extra = (draw(st.integers(0, 255)), draw(st.binary(min_size=32, max_size=32)))
        steps = [*steps, extra] if draw(st.booleans()) else [extra, *steps]
    elif forgery == "kind":
        kind = draw(st.sampled_from([*WitnessKind, 0, 9]))
    elif forgery == "occupant-is-key":
        occupant = w.element_digest
    elif forgery == "repeated-bit" and steps:
        i = pick % len(steps)
        steps.insert(i, (steps[i][0], draw(st.sampled_from([steps[i][1], bytes(32)]))))
    elif forgery == "unsorted-bits" and len(steps) > 1:
        steps = draw(st.permutations(steps))
    elif forgery == "bit-out-of-range":
        bad = (draw(st.sampled_from([-1, -256, 256, 300])), bytes(32))
        if steps:
            steps[pick % len(steps)] = bad
        else:
            steps = [bad]
    elif forgery == "sibling-type" and steps:
        i = pick % len(steps)
        steps[i] = (steps[i][0], _not_bytes(steps[i][1], draw(_NOT_BYTES)))
    elif forgery == "occupant-type":
        occupant = _not_bytes(occupant or w.element_digest, draw(_NOT_BYTES))
    forged = replace(w, kind=kind, steps=tuple(steps), occupant=occupant)
    if draw(st.booleans()):
        try:
            return name, (*claim, encode_witness(forged))
        except (TypeError, ValueError):
            pass  # not encodable: pass the object
    return name, (*claim, forged)


class TestReferenceEquivalence:
    """The one-pass verifiers decide as the step-by-step folds in ``reference_verify`` do,
    and report the same SHA-256 input lengths through ``hashed``, in the same order."""

    @given(verifier_calls())
    @settings(max_examples=600, deadline=None)
    def test_same_verdict_and_hash_sequence(self, call):
        name, args = call
        kernel, reference = {"belongs": belongs, "check_update": check_update}[name], getattr(reference_verify, name)
        reported, expected = [], []
        verdict = kernel(*args, reported.append)  # never raises: a raise fails the test
        assert verdict == reference(*args, expected.append) and reported == expected
        assert kernel(*args) == verdict
        assert verdict in (0, 1) or verdict is BOTTOM

    def test_not_bytes_at_every_position(self):
        # a sibling that is not bytes fails where its level is hashed, after
        # the levels below it have been reported, in every fold of both verifiers
        elements = [bytes([i]) * 3 for i in range(12)]
        calls = []
        for size in (0, 1, 8):  # paths of no steps included
            acc, memory = build_set(elements[:size])
            for element in elements:
                root, w = simulate_update(memory.root, "del" if element in elements[:size] else "add", element)
                calls.append((check_update, reference_verify.check_update, (acc, tree.digest(root), element), w))
                calls.append((belongs, reference_verify.belongs, (acc, element), witness(acc, memory, element)))
        for kernel, reference, claim, w in calls:
            forged = [replace(w, occupant=_not_bytes(w.occupant or w.element_digest, how)) for how in _NOT_BYTES_KINDS]
            for i, (bit, sibling) in enumerate(w.steps):
                for how in _NOT_BYTES_KINDS:
                    steps = (*w.steps[:i], (bit, _not_bytes(sibling, how)), *w.steps[i + 1:])
                    forged.append(replace(w, steps=steps))
            for each in forged:
                reported, expected = [], []
                assert kernel(*claim, each, reported.append) == reference(*claim, each, expected.append)
                assert reported == expected


def canonical_digest(keys) -> bytes:
    """Root digest of the compressed trie over ``keys``, straight from its definition."""
    keys = sorted(keys)
    if not keys:
        return EMPTY_DIGEST
    if len(keys) == 1:
        return leaf_hash(keys[0])
    split = first_diff_bit(keys[0], keys[-1])
    zeros = [key for key in keys if not bit_at(key, split)]
    ones = [key for key in keys if bit_at(key, split)]
    return branch_hash(split, canonical_digest(zeros), canonical_digest(ones))


def one_at_a_time(memory, steps):
    for step in steps:
        apply_update(memory, Changes(memory, [step]))
    return memory


@st.composite
def batches(draw):
    """(initial set, valid add/del steps): elements come from a small pool, so
    repeated picks give add-then-delete and delete-then-re-add pairs."""
    pool = draw(st.lists(st.binary(max_size=6), unique=True, max_size=16))
    present = set(draw(st.sets(st.sampled_from(pool)))) if pool else set()
    initial = sorted(present)
    steps = []
    for element in draw(st.lists(st.sampled_from(pool), max_size=40)) if pool else ():
        steps.append(("del" if element in present else "add", element))
        present ^= {element}
    return initial, steps, present


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
        initial, steps, final = batch
        _, batched = build_set(initial)
        _, sequential = build_set(initial)
        acc = apply_update(batched, Changes(batched, steps))
        one_at_a_time(sequential, steps)
        assert acc == batched.value == sequential.value == canonical_digest(map(element_digest, final))
        assert batched.elements == sequential.elements
        assert batched.epoch == len(initial) + 1

    @given(crafted_keys())
    @settings(max_examples=300, deadline=None)
    def test_merge_with_shared_prefixes(self, split_keys):
        old, new = split_keys
        root = tree.insert_many(tree.EMPTY, sorted(old))
        merged = tree.insert_many(root, sorted(new))
        sequential = root
        for key in new:
            sequential = tree.insert_many(sequential, [key])
        assert tree.digest(root) == canonical_digest(old)
        assert tree.digest(merged) == tree.digest(sequential) == canonical_digest(old + new)

    def test_keys_differing_in_the_last_bit(self):
        head = bytes(31)
        keys = [head + bytes([b]) for b in range(256)]
        root = tree.insert_many(tree.EMPTY, keys[::2])
        assert tree.digest(tree.insert_many(root, keys[1::2])) == canonical_digest(keys)

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
            tree.insert_many(memory.root, [key])
        with pytest.raises(AlreadyPresent):
            tree.insert_many(tree.EMPTY, [key, key])

    def test_absent_delete_rejected(self):
        _, memory = build_set([b"a"])
        with pytest.raises(NotPresent):
            Changes(memory, [("del", b"b")])
        with pytest.raises(NotPresent):
            Changes(memory, [("del", b"a"), ("del", b"a")])
        with pytest.raises(NotPresent):  # absent again after the add is taken back
            Changes(memory, [("add", b"b"), ("del", b"b"), ("del", b"b")])

    def test_rejected_batch_leaves_memory_untouched(self):
        _, memory = build_set([b"a", b"b", b"c"])
        stale = Changes(memory, [("add", b"d")])
        apply_update(memory, Changes(memory, [("del", b"c")]))
        before = (memory.root, dict(memory.elements), memory.epoch)
        with pytest.raises(StaleAccumulator):
            apply_update(memory, stale)
        with pytest.raises(AlreadyPresent):
            Changes(memory, [("del", b"b"), ("add", b"e"), ("add", b"a")])
        assert (memory.root, memory.elements, memory.epoch) == before


def trie_nodes(*roots):
    """Every distinct node reachable from ``roots``."""
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if len(node) == 4:
                stack += node[1:3]
    return list(seen.values())


class TestCollectorFreeNodes:
    def test_no_node_stays_tracked(self):
        rng = random.Random(11)
        elements = [rng.randbytes(12) for _ in range(3000)]
        keys = sorted(map(element_digest, elements[:2500]))
        batched = tree.insert_many(tree.EMPTY, keys[::2])
        merged = tree.insert_many(batched, keys[1::2])
        inserted = batched
        for element in elements[2500:2600]:
            inserted = tree.insert(inserted, element_digest(element))
        removed = merged
        for key in keys[:300]:
            removed = tree.remove(removed, key)
        emptied = tree.remove(tree.insert(tree.EMPTY, keys[0]), keys[0])
        simulated = removed
        for element in elements[2600:2700]:
            simulated, _ = simulate_update(simulated, "add", element)
        kept = [element for element in elements[:2500] if element_digest(element) > keys[299]]
        for element in kept[:100] + elements[2600:2650]:
            simulated, _ = simulate_update(simulated, "del", element)
        nodes = trie_nodes(batched, merged, inserted, removed, emptied, simulated)
        # a collection untracks a tuple only if it examines the tuple's
        # children first, so a fresh trie leaves over several collections
        tracked = None
        while True:
            gc.collect()
            previous, tracked = tracked, sum(map(gc.is_tracked, nodes))
            if tracked == previous:
                break
        assert tracked == 0
        assert len(nodes) > 5000
