"""Canonical wire formats: golden vectors and strict decoding."""

import json
import pathlib

import pytest

from acctoken.accumulator import (
    EMPTY_DIGEST,
    check_update,
    WitnessKind,
    element_digest,
    setup,
    update,
    witness,
)
from acctoken.accumulator.witness import HEADER_BYTES, encoded_length
from acctoken.erc20.bundle import (
    BundleEntry,
    OpTag,
    ProofBundle,
    decode_bundle,
    encode_bundle,
    purpose,
    BALANCES,
    MEMBER,
    UPDATE_ADD,
)
from acctoken.errors import BundleSchemaMismatch, InvalidProof
from reference_verify import Witness, WitnessDecodeError, decode_witness, encode_witness

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "witness_vectors.json").read_text()
)


def rebuild_golden_state():
    acc, memory = setup(256)
    accs = [acc]
    update_witnesses = []
    for name in GOLDEN["elements"]:
        result = update("add", acc, memory, name.encode())
        update_witnesses.append(result.witness)
        acc = result.acc_after
        accs.append(acc)
    return acc, memory, accs, update_witnesses


class TestGoldenVectors:
    def test_empty_root(self):
        assert EMPTY_DIGEST.hex() == GOLDEN["empty_root_hex"]

    def test_element_digests(self):
        for name, expected in zip(GOLDEN["elements"], GOLDEN["element_digests_hex"]):
            assert element_digest(name.encode()).hex() == expected

    def test_accumulator_values(self):
        _, _, accs, _ = rebuild_golden_state()
        assert [a.hex() for a in accs] == GOLDEN["acc_values_hex"]

    def test_update_witness_bytes(self):
        _, _, _, update_witnesses = rebuild_golden_state()
        got = [w.hex() for w in update_witnesses]
        assert got == GOLDEN["update_add_witnesses_hex"]

    def test_membership_and_non_membership_bytes(self):
        acc, memory, _, _ = rebuild_golden_state()
        assert witness(acc, memory, b"alpha").hex() == GOLDEN["membership_alpha_hex"]
        assert witness(acc, memory, b"zeta").hex() == GOLDEN["nonmembership_zeta_hex"]

    def test_delete_witness_bytes(self):
        acc, memory, _, _ = rebuild_golden_state()
        result = update("del", acc, memory, b"beta")
        assert result.witness.hex() == GOLDEN["update_del_beta_hex"]
        assert result.acc_after.hex() == GOLDEN["acc_after_del_hex"]

    def test_replace_witness_bytes(self):
        # a replace needs a prefix key: the golden elements keyed by their first bytes
        key_len = GOLDEN["replace_key_len"]
        acc, memory = setup(256, key_len)
        for name in GOLDEN["elements"]:
            acc = update("add", acc, memory, name.encode()).acc_after
        assert acc.hex() == GOLDEN["acc_before_replace_hex"]
        old, new = (name.encode() for name in GOLDEN["replace_pair"])
        member = witness(acc, memory, old)
        result = update("replace", acc, memory, (old, new))
        assert result.witness.hex() == GOLDEN["update_replace_alpha_hex"]
        assert result.acc_after.hex() == GOLDEN["acc_after_replace_hex"]
        # the old element's membership witness, under another kind byte
        assert result.witness[0] == WitnessKind.UPDATE_REPLACE and result.witness[1:] == member[1:]
        assert check_update(acc, result.acc_after, (old, new), result.witness, key_len=key_len) == 1

    def test_empty_non_membership_bytes(self):
        acc, memory = setup(256)
        assert witness(acc, memory, b"anything").hex() == GOLDEN["empty_nonmembership_hex"]


class TestHeaderLayout:
    def test_field_offsets(self):
        acc, memory, _, _ = rebuild_golden_state()
        raw = witness(acc, memory, b"alpha")
        w = decode_witness(raw)
        assert raw[0] == WitnessKind.MEMBERSHIP
        assert raw[1:33] == element_digest(b"alpha")
        assert int.from_bytes(raw[33:35], "big") == len(w.steps)
        # steps are 33 bytes each: branch bit then sibling digest
        first_bit, first_sibling = w.steps[0]
        assert raw[35] == first_bit
        assert raw[36:68] == first_sibling

    def test_non_membership_payload_is_trailing(self):
        acc, memory, _, _ = rebuild_golden_state()
        raw = witness(acc, memory, b"zeta")
        w = decode_witness(raw)
        # the occupant leaf's key, then the digest of the element it holds
        assert raw[-64:] == w.occupant + w.held

    def test_size_matches_encoding(self):
        acc, memory, _, _ = rebuild_golden_state()
        for probe in (b"alpha", b"beta", b"zeta", b"other"):
            raw = witness(acc, memory, probe)
            assert encoded_length(raw[0], len(decode_witness(raw).steps)) == len(raw)

    @pytest.mark.parametrize("bit", [-1, 256, 1000])
    def test_bit_outside_a_byte_rejected(self, bit):
        sibling = bytes(32)
        for steps in (((bit, sibling),), ((3, sibling), (bit, sibling))):
            with pytest.raises(ValueError):
                encode_witness(Witness(WitnessKind.MEMBERSHIP, element_digest(b"alpha"), steps))
        with pytest.raises(ValueError):  # nor is a kind
            encode_witness(Witness(bit, element_digest(b"alpha"), ()))


class TestStrictDecoding:
    def good_witness(self):
        acc, memory, _, _ = rebuild_golden_state()
        return witness(acc, memory, b"alpha")

    def test_truncation_rejected(self):
        raw = self.good_witness()
        for cut in (0, 1, 34, len(raw) - 1):
            with pytest.raises(WitnessDecodeError):
                decode_witness(raw[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WitnessDecodeError):
            decode_witness(self.good_witness() + b"\x00")

    def test_unknown_kind_rejected(self):
        raw = bytearray(self.good_witness())
        raw[0] = 9
        with pytest.raises(WitnessDecodeError):
            decode_witness(bytes(raw))

    def test_absurd_step_count_rejected(self):
        raw = bytearray(self.good_witness())
        raw[33:35] = (2000).to_bytes(2, "big")
        with pytest.raises(WitnessDecodeError):
            decode_witness(bytes(raw))

    def test_round_trip_identity(self):
        raw = self.good_witness()
        assert encode_witness(decode_witness(raw)) == raw


class TestBundleEncoding:
    def make_bundle(self):
        acc, memory, _, _ = rebuild_golden_state()
        member = witness(acc, memory, b"alpha")
        result = update("add", acc, memory, b"delta")
        entries = [
            BundleEntry(purpose(BALANCES, MEMBER), member),
            BundleEntry(purpose(BALANCES, UPDATE_ADD), result.witness, result.acc_after),
        ]
        return ProofBundle(OpTag.TRANSFER, entries, (1, 2))

    def test_round_trip(self):
        bundle = self.make_bundle()
        raw = encode_bundle(bundle)
        decoded = decode_bundle(raw)
        assert decoded.op == bundle.op
        assert decoded.purposes() == bundle.purposes()
        assert [e.witness for e in decoded.entries] == [e.witness for e in bundle.entries]
        assert decoded.entries[1].claimed_after == bundle.entries[1].claimed_after

    def test_frame_layout(self):
        bundle = self.make_bundle()
        raw = encode_bundle(bundle)
        assert raw[0] == OpTag.TRANSFER
        assert raw[1] == 2
        assert raw[2] == purpose(BALANCES, MEMBER)
        member, added = bundle.entries
        # frame, then purpose byte + witness per entry, + claimed after-value for updates
        assert len(raw) == 2 + (1 + len(member.witness)) + (1 + len(added.witness) + 32)
        # the entries' witness bytes, framed and joined as they are
        framed = bytes((OpTag.TRANSFER, 2, member.purpose)) + member.witness
        assert raw == framed + bytes((added.purpose,)) + added.witness + added.claimed_after

    def test_metadata_not_serialized(self):
        bundle = self.make_bundle()
        raw = encode_bundle(bundle)
        bundle.announced = (7, 8, 9)
        assert encode_bundle(bundle) == raw
        # announced words ride in calldata, never in the bundle frame
        assert decode_bundle(raw).announced == ()

    def test_bad_op_tag(self):
        raw = bytearray(encode_bundle(self.make_bundle()))
        raw[0] = 200
        with pytest.raises(BundleSchemaMismatch):
            decode_bundle(bytes(raw))

    def test_truncation(self):
        raw = encode_bundle(self.make_bundle())
        with pytest.raises(BundleSchemaMismatch):
            decode_bundle(raw[:-8])

    # the first entry's witness starts after the frame (2 bytes) and its purpose byte
    @pytest.mark.parametrize(
        "corrupt, error",
        [
            (lambda raw: raw[: 3 + HEADER_BYTES + 10], InvalidProof),  # witness body cut short
            (lambda raw: raw[: 3 + HEADER_BYTES - 1], BundleSchemaMismatch),  # header cut short
            (lambda raw: raw[:3] + b"\x09" + raw[4:], InvalidProof),  # unknown witness kind
            (lambda raw: raw[:36] + (300).to_bytes(2, "big") + raw[38:], InvalidProof),  # step count 300
            (lambda raw: raw + b"\x00", BundleSchemaMismatch),  # trailing byte
        ],
        ids=["short-body", "short-header", "unknown-kind", "300-steps", "trailing-byte"],
    )
    def test_decode_error_classes(self, corrupt, error):
        raw = encode_bundle(self.make_bundle())
        with pytest.raises(error):
            decode_bundle(corrupt(raw))
