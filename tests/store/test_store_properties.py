"""Property tests: arbitrary chains survive the store, corruption never does.

Three claims the framing layer stakes its correctness on:

* round-trip — any chain of well-formed blocks written through
  :class:`ChainStore` is byte-identical after a cold reopen + replay;
* rejection — any torn truncation or single-byte corruption of a CRC
  framing (``blocks.log``, ``headers.log``, ``ledger-*.snap``,
  ``index.snap``) is *detected* (truncated to a byte-identical good
  prefix, or surfaced as :class:`StoreCorruption`), never mis-decoded
  into a different value;
* one error, one byte form — hostile bytes into a plain framing
  (``unpack_all``, a block, a chain dump, a barrier blob, a snapshot
  body, an index-state body, an SRA / R† / R* record payload) either
  decode or raise the
  :class:`CodecError` family, and what decodes re-encodes to the same
  bytes; a record carrying such a payload, under any kind, is
  ``decode_payload``'s typed value or None, never an error.
"""

import io
import random
import tempfile
from contextlib import closing, contextmanager
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.serialization import (
    decode_block,
    decode_record,
    encode_block,
    encode_header,
    export_chain,
    import_chain,
)
from repro.codec import CodecError, pack, unpack, unpack_all
from repro.core.reports import DetailedReport, InitialReport, decode_payload
from repro.core.sra import SignedSRA
from repro.crypto.keys import Address
from repro.network.messages import MessageKind
from repro.query.indices import ChainIndex
from repro.query.persistence import decode_index_state, encode_index_state
from repro.shard.frames import (
    CrossShardFrame,
    FrameKind,
    decode_frames,
    encode_frames,
)
from repro.store import (
    ChainStore,
    HeaderStore,
    LedgerSnapshot,
    SnapshotStore,
    StoreCorruption,
    read_index_file,
    write_index_file,
)
from repro.store.frames import FRAME_HEADER_BYTES, FrameScan, write_frame

from tests.query.conftest import (
    DUMMY_SIG,
    build_mixed_chain,
    make_report_record,
    make_sra_record,
)
from tests.store.conftest import build_chain, bump_last_prefix


def record_fields(record: ChainRecord) -> list:
    """The five wire fields, spelled from the record's public attributes."""
    return [
        record.kind.value.encode(),
        record.record_id,
        record.payload,
        record.fee.to_bytes(16, "big"),
        record.sender.value if record.sender is not None else b"",
    ]


def from_fields(block: Block) -> Block:
    """``block`` with every record rebuilt from its five public fields.

    A decoded record carries the blob it was parsed from as its
    ``to_bytes()`` memo, so encoding it would compare that blob with
    itself; a rebuilt record has no memo and is packed afresh.
    """
    return Block(
        header=block.header,
        records=tuple(
            ChainRecord(r.kind, r.record_id, r.payload, r.fee, r.sender)
            for r in block.records
        ),
    )


def encode_block_from_fields(block: Block) -> bytes:
    return encode_block(from_fields(block))


def export_chain_from_fields(chain) -> bytes:
    return pack([encode_block_from_fields(b) for b in chain.iter_canonical()])


def encode_frames_from_fields(frames) -> bytes:
    return encode_frames(
        [
            frame._replace(payload=from_fields(frame.payload))
            if isinstance(frame.payload, Block)
            else frame
            for frame in frames
        ]
    )


#: log file -> (store class, what a block contributes, its encoder, the read).
LOGS = {
    "blocks.log": (
        ChainStore, lambda b: b, encode_block_from_fields, ChainStore.block_at,
    ),
    "headers.log": (
        HeaderStore, lambda b: b.header, encode_header, HeaderStore.header_at,
    ),
}


@contextmanager
def _fresh_store_dir():
    # @given re-runs the test body per example, so the function-scoped
    # tmp_path fixture would leak one example's store into the next;
    # each example gets its own throwaway directory instead.
    with tempfile.TemporaryDirectory(prefix="store-prop-") as root:
        yield Path(root) / "replica"


def _fill(path, chain, log="blocks.log"):
    store_class, item_of, _, _ = LOGS[log]
    store = store_class(path)
    for block in chain.iter_canonical():
        store.append(item_of(block))
    store.close()
    return store.log_path.read_bytes()


def _flipped(original: bytes, bit: int) -> bytes:
    mutated = bytearray(original)
    mutated[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutated)


@st.composite
def _hostile(draw, original: bytes):
    """``(how, bytes)``: one way outside bytes differ from an encoder's."""
    how = draw(st.sampled_from(["cut", "flip", "stray", "bump", "binary"]))
    if how == "cut":
        return how, original[: draw(st.integers(0, len(original) - 1))]
    if how == "flip":
        return how, _flipped(original, draw(st.integers(0, len(original) * 8 - 1)))
    if how == "stray":
        return how, original + draw(st.binary(min_size=1, max_size=3))
    if how == "bump":
        return how, bump_last_prefix(original, draw(st.sampled_from([1, 77, 1000])))
    return how, draw(st.binary(max_size=300))


class TestRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(
        blocks=st.integers(min_value=1, max_value=6),
        records=st.integers(min_value=0, max_value=3),
    )
    def test_any_chain_survives_append_reopen_replay(self, blocks, records):
        chain = build_chain(blocks, records_per_block=records)
        with _fresh_store_dir() as path:
            _fill(path, chain)
            with closing(ChainStore(path)) as reopened:
                assert reopened.last_recovery.clean
                loaded = reopened.load_chain(confirmation_depth=2)
                assert [
                    encode_block_from_fields(b) for b in loaded.iter_canonical()
                ] == [encode_block(b) for b in chain.iter_canonical()]
                replay = reopened.replay_ledger()
                assert replay.height == chain.height

    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=200), max_size=8))
    def test_any_payloads_round_trip_the_frame_layer(self, payloads):
        handle = io.BytesIO()
        for payload in payloads:
            write_frame(handle, payload)
        scan = FrameScan(handle)
        assert [payload for _, payload in scan] == payloads
        assert scan.corruption is None

    @settings(max_examples=30, deadline=None)
    @given(
        height=st.integers(min_value=0, max_value=2**40),
        block_id=st.binary(min_size=32, max_size=32),
        minted=st.integers(min_value=0, max_value=2**80),
        balances=st.dictionaries(
            st.binary(min_size=20, max_size=20).map(Address),
            st.integers(min_value=0, max_value=2**64),
            max_size=5,
        ),
        nonces=st.dictionaries(
            st.binary(min_size=20, max_size=20).map(Address),
            st.integers(min_value=0, max_value=2**32),
            max_size=5,
        ),
        data=st.data(),
    )
    def test_ledger_snapshot_round_trips(
        self, height, block_id, minted, balances, nonces, data
    ):
        snapshot = LedgerSnapshot(
            height=height,
            block_id=block_id,
            balances=balances,
            nonces=nonces,
            minted=minted,
        )
        encoded = snapshot.to_bytes()
        assert LedgerSnapshot.from_bytes(encoded) == snapshot
        _, hostile = data.draw(_hostile(encoded))
        try:
            decoded = LedgerSnapshot.from_bytes(hostile)
        except CodecError:
            return
        assert decoded.to_bytes() == hostile

    @settings(max_examples=25, deadline=None)
    @given(
        blocks=st.integers(min_value=1, max_value=4),
        records=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_any_chain_has_one_byte_form(self, blocks, records, data):
        chain = build_chain(blocks, records_per_block=records)
        dump = export_chain(chain)
        assert export_chain(import_chain(dump)) == dump
        assert export_chain_from_fields(import_chain(dump)) == dump
        for encoded in unpack_all(dump):
            assert encode_block_from_fields(decode_block(encoded)) == encoded
        for original, decode, encode in (
            (dump, import_chain, export_chain_from_fields),
            (unpack_all(dump)[-1], decode_block, encode_block_from_fields),
        ):
            _, hostile = data.draw(_hostile(original))
            try:
                value = decode(hostile)
            except CodecError:
                continue
            assert encode(value) == hostile


class TestCorruptionIsAlwaysDetected:
    # One reference chain for every example: assembling blocks is the
    # slow part, and the corruption space being explored is byte offsets.
    CHAIN = build_chain(4)

    @pytest.mark.parametrize("log", LOGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_keeps_only_a_byte_identical_prefix(self, log, data):
        chain = self.CHAIN
        store_class, item_of, encode, read = LOGS[log]
        with _fresh_store_dir() as path:
            original = _fill(path, chain, log)
            cut = data.draw(
                st.integers(min_value=0, max_value=len(original) - 1),
                label="cut",
            )
            (path / log).write_bytes(original[:cut])

            with closing(store_class(path)) as reopened:
                recovery = reopened.last_recovery
                surviving = reopened.log_path.read_bytes()
                assert original.startswith(surviving)
                if recovery.clean:
                    # Clean reopen ⇒ the cut landed exactly on a frame edge.
                    assert surviving == original[:cut]
                else:
                    assert recovery.tail_bytes_truncated > 0
                # Every surviving frame is the original frame, bit for bit.
                for index in range(len(reopened)):
                    assert encode(read(reopened, index)) == encode(
                        item_of(chain.block_at_height(index))
                    )

    @pytest.mark.parametrize("log", LOGS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_corruption_is_rejected_never_misdecoded(
        self, log, data
    ):
        chain = self.CHAIN
        store_class, item_of, encode, read = LOGS[log]
        frames = [encode(item_of(block)) for block in chain.iter_canonical()]
        with _fresh_store_dir() as path:
            original = _fill(path, chain, log)
            offset = data.draw(
                st.integers(min_value=0, max_value=len(original) - 1),
                label="offset",
            )
            delta = data.draw(
                st.integers(min_value=1, max_value=255), label="xor"
            )
            mutated = bytearray(original)
            mutated[offset] ^= delta
            (path / log).write_bytes(bytes(mutated))

            # Opening never raises on corrupt bytes: it truncates.
            with closing(store_class(path)) as reopened:
                # CRC-32 catches every single-byte error, so the reopen can
                # never be clean — and never yields a different chain.
                assert not reopened.last_recovery.clean
                kept = len(reopened)
                assert kept < len(frames)
                for index in range(kept):
                    assert encode(read(reopened, index)) == frames[index]
                # The flipped byte sits past everything that was kept.
                span_end = sum(
                    FRAME_HEADER_BYTES + len(frame) for frame in frames[:kept]
                )
                assert span_end <= offset


def _sample_snapshot() -> LedgerSnapshot:
    chain = TestCorruptionIsAlwaysDetected.CHAIN
    return LedgerSnapshot(
        height=chain.height,
        block_id=chain.head.block_id,
        balances={Address(b"\x02" * 20): 5, Address(b"\x01" * 20): 7 * 10**20},
        nonces={Address(b"\x02" * 20): 3},
        minted=7 * 10**20 + 5,
    )


def _write_snapshot(directory: Path) -> Path:
    return SnapshotStore(directory).write(_sample_snapshot())


def _write_index(directory: Path) -> Path:
    chain = TestCorruptionIsAlwaysDetected.CHAIN
    return write_index_file(
        directory / "index.snap", chain.height, chain.head.block_id, b"body" * 9
    )


class TestSingleFrameFilesAreAlwaysDetected:
    """``ledger-*.snap`` and ``index.snap``: one frame, all or nothing."""

    FILES = {
        "ledger.snap": (_write_snapshot, SnapshotStore.load_file),
        "index.snap": (_write_index, read_index_file),
    }

    @pytest.mark.parametrize("name", FILES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_or_single_byte_corruption_is_store_corruption(
        self, name, data
    ):
        write, read = self.FILES[name]
        with tempfile.TemporaryDirectory(prefix="frame-prop-") as root:
            file = write(Path(root))
            pristine = read(file)
            original = file.read_bytes()
            offset = data.draw(st.integers(0, len(original) - 1), label="offset")
            delta = data.draw(st.integers(0, 255), label="xor (0 = cut here)")
            if delta:
                mutated = bytearray(original)
                mutated[offset] ^= delta
                file.write_bytes(bytes(mutated))
            else:
                file.write_bytes(original[:offset])
            with pytest.raises(StoreCorruption):
                read(file)
            file.write_bytes(original)
            assert read(file) == pristine


def _barrier_blob() -> bytes:
    genesis = TestCorruptionIsAlwaysDetected.CHAIN.genesis
    head = TestCorruptionIsAlwaysDetected.CHAIN.head
    common = dict(
        src="provider-0", dst="light-3", origin="provider-0",
        message_kind=MessageKind.BLOCK_ANNOUNCE, dedup_key=b"\x01" * 16,
    )
    return encode_frames(
        [
            CrossShardFrame(kind=FrameKind.INV, arrival=1.25, seq=0, **common),
            CrossShardFrame(
                kind=FrameKind.GETDATA, arrival=1.5, seq=1, wants_headers=True,
                **common,
            ),
            CrossShardFrame(
                kind=FrameKind.PAYLOAD, arrival=2.0, seq=2, payload=head, **common
            ),
            CrossShardFrame(
                kind=FrameKind.PAYLOAD, arrival=2.5, seq=3, payload=genesis.header,
                **common,
            ),
            CrossShardFrame(
                kind=FrameKind.PAYLOAD, arrival=3.0, seq=4, payload=b"raw", **common
            ),
            # The same body again: one atom, two rows.
            CrossShardFrame(
                kind=FrameKind.PAYLOAD, arrival=3.5, seq=5, payload=head,
                **{**common, "dst": "light-4"},
            ),
        ]
    )


_SRA_RECORD = make_sra_record(random.Random(1), 1)


class TestPlainFramings:
    """No CRC here: the decoder itself is the only check on outside bytes."""

    #: name -> (an encoder's output, decode, encode, canonical to the value).
    #: Whatever carries chain records is re-encoded from their fields, not
    #: from the wire bytes the decoder left on them.
    #: The index-state body is canonical at its framing only: a flipped
    #: string reference decodes to another well-formed state whose string
    #: table the encoder would order differently.  Its integrity is the
    #: CRC envelope and the tip check of ``index.snap``; re-encoding on
    #: every warm start to compare would cost what the warm start saves.
    FRAMINGS = {
        "unpack_all": (pack([b"", b"abc", b"\x00" * 7]), unpack_all, pack, True),
        "block": (
            encode_block(build_chain(1, records_per_block=3).head),
            decode_block, encode_block_from_fields, True,
        ),
        "chain-dump": (
            export_chain(TestCorruptionIsAlwaysDetected.CHAIN),
            import_chain, export_chain_from_fields, True,
        ),
        "barrier-blob": (
            _barrier_blob(), decode_frames, encode_frames_from_fields, True,
        ),
        "snapshot": (
            _sample_snapshot().to_bytes(),
            LedgerSnapshot.from_bytes, LedgerSnapshot.to_bytes, True,
        ),
        "index-state": (
            encode_index_state(
                ChainIndex(build_mixed_chain(seed=11, blocks=8)[0]).dump_state()
            ),
            decode_index_state, encode_index_state, False,
        ),
        # Chain-record payloads: a confirmed one reaches every reader of
        # every honest replica (block acceptance never looks inside), so
        # bad UTF-8 / wei / severity / widths must be the codec family
        # too.  Canonical at the framing only (``int()`` reads "07").
        "sra-payload": (
            _SRA_RECORD.payload, SignedSRA.from_payload, SignedSRA.to_payload, False,
        ),
        "detailed-report-payload": (
            make_report_record(random.Random(2), _SRA_RECORD.record_id, 2).payload,
            DetailedReport.from_payload, DetailedReport.to_payload, False,
        ),
        "initial-report-payload": (
            InitialReport(
                sra_id=_SRA_RECORD.record_id,
                detector_id="det-1",
                detailed_hash=b"\x11" * 32,
                wallet=Address(b"\x22" * 20),
                report_id=b"\x33" * 32,
                signature=DUMMY_SIG,
            ).to_payload(),
            InitialReport.from_payload, InitialReport.to_payload, False,
        ),
    }

    #: The record payload framings, and the type each kind carries.
    RECORD_KINDS = {
        "sra-payload": RecordKind.SRA,
        "detailed-report-payload": RecordKind.DETAILED_REPORT,
        "initial-report-payload": RecordKind.INITIAL_REPORT,
    }
    PAYLOAD_TYPES = {
        RecordKind.SRA: SignedSRA,
        RecordKind.INITIAL_REPORT: InitialReport,
        RecordKind.DETAILED_REPORT: DetailedReport,
    }

    def assert_the_record_codec_never_raises(self, name: str, blob: bytes) -> None:
        """``decode_payload`` of a record carrying ``blob``, under every
        kind: ``from_payload``'s value or None under its own, a value of
        the kind's type or None under another."""
        if name not in self.RECORD_KINDS:
            return
        try:
            expected = self.FRAMINGS[name][1](blob)
        except CodecError:
            expected = None
        for kind in RecordKind:
            value = decode_payload(ChainRecord(kind, b"\x00" * 32, blob))
            if kind == self.RECORD_KINDS[name]:
                assert value == expected
            elif value is not None:
                assert type(value) is self.PAYLOAD_TYPES[kind]

    @pytest.mark.parametrize("name", FRAMINGS)
    def test_an_encoders_output_round_trips(self, name):
        original, decode, encode, _ = self.FRAMINGS[name]
        assert encode(decode(original)) == original
        self.assert_the_record_codec_never_raises(name, original)

    @pytest.mark.parametrize("name", FRAMINGS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_hostile_bytes_decode_canonically_or_raise_the_codec_family(
        self, name, data
    ):
        original, decode, encode, value_canonical = self.FRAMINGS[name]
        how, hostile = data.draw(_hostile(original))
        self.assert_the_record_codec_never_raises(name, hostile)
        try:
            # Anything but the codec family (struct.error, IndexError,
            # UnicodeDecodeError, a bare ValueError) fails the test.
            value = decode(hostile)
        except CodecError:
            return
        if value_canonical or how != "flip":
            assert encode(value) == hostile

    #: framing -> how many leading bytes get *every* cut and *every* bit
    #: flip.  The barrier blob whole: no length prefix guards its rows.
    #: Of the index state, its cursor — ``u32 8 ‖ tip height ‖ u32 32 ‖
    #: tip block id`` — the two fields ``load_index`` checks against the
    #: envelope, so a damaged one must not decode to some other cursor
    #: an encoder would have written differently.
    EXHAUSTIVE = {"barrier-blob": None, "index-state": 4 + 8 + 4 + 32}

    @pytest.mark.parametrize("name", EXHAUSTIVE)
    def test_every_cut_and_every_bit_flip(self, name):
        """The hypothesis property, exhaustively: nothing but the codec
        family comes out, and nothing is accepted that an encoder would
        not write."""
        original, decode, encode, _ = self.FRAMINGS[name]
        span = self.EXHAUSTIVE[name] or len(original)
        hostile = [original[:cut] for cut in range(span)]
        hostile += [_flipped(original, bit) for bit in range(span * 8)]
        accepted = 0
        for blob in hostile:
            try:
                value = decode(blob)
            except CodecError:
                continue
            accepted += 1
            assert encode(value) == blob
        # Not vacuous: a flip inside seq, arrival, a name, raw bytes, a
        # header field no hash covers — or the tip height / id — is
        # another well-formed value.
        assert accepted


class TestADecodedRecordKeepsItsWireBytes:
    """``decode_record`` hands the blob to the record as its ``to_bytes()``
    memo, which is sound only while the blob is what the fields pack to."""

    @staticmethod
    def assert_memo_is_the_fields(record: ChainRecord, blob: bytes) -> None:
        assert record.to_bytes() == pack(record_fields(record)) == blob

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(list(RecordKind)),
        record_id=st.binary(min_size=32, max_size=32),
        payload=st.binary(max_size=200),
        fee=st.sampled_from([0, 2**128 - 1]) | st.integers(0, 2**128 - 1),
        sender=st.none() | st.binary(min_size=20, max_size=20).map(Address),
        data=st.data(),
    )
    def test_any_record_and_any_hostile_version_of_it(
        self, kind, record_id, payload, fee, sender, data
    ):
        record = ChainRecord(kind, record_id, payload, fee, sender)
        blob = pack(record_fields(record))
        decoded = decode_record(blob)
        assert decoded == record
        self.assert_memo_is_the_fields(decoded, blob)
        _, hostile = data.draw(_hostile(blob))
        try:
            value = decode_record(hostile)
        except CodecError:
            return
        self.assert_memo_is_the_fields(value, hostile)

    def test_every_cut_and_every_single_byte_change_of_a_record(self):
        blob = pack(
            record_fields(
                ChainRecord(
                    RecordKind.DETAILED_REPORT, b"\x07" * 32, b"finding", 9,
                    Address(b"\x05" * 20),
                )
            )
        )
        hostile = [blob[:cut] for cut in range(len(blob))]
        for offset in range(len(blob)):
            for delta in range(1, 256):
                mutated = bytearray(blob)
                mutated[offset] ^= delta
                hostile.append(bytes(mutated))
        accepted = 0
        for version in hostile:
            try:
                value = decode_record(version)
            except CodecError:
                continue
            accepted += 1
            self.assert_memo_is_the_fields(value, version)
        # Not vacuous: any change inside the id, payload, fee or sender
        # bytes is another well-formed record.
        assert accepted >= 255 * (32 + 7 + 16 + 20)

    def test_a_replaced_decoded_record_re_encodes(self):
        decoded = decode_record(_SRA_RECORD.to_bytes())
        tampered = replace(decoded, payload=b"tampered")
        assert tampered.to_bytes() != decoded.to_bytes()
        self.assert_memo_is_the_fields(tampered, tampered.to_bytes())


class TestSnapshotDecodeIsCanonical:
    BODY = _sample_snapshot().to_bytes()

    def _with_balances(self, table: bytes) -> bytes:
        fields = unpack(self.BODY, 6)
        fields[4] = table
        return pack(fields)

    @pytest.mark.parametrize("bump", [1, 77, 1000])
    def test_lying_last_account_prefix_rejected(self, bump):
        table = bump_last_prefix(unpack(self.BODY, 6)[4], bump)
        with pytest.raises(CodecError, match="overruns"):
            LedgerSnapshot.from_bytes(self._with_balances(table))

    @pytest.mark.parametrize("stray", [b"\x00", b"\x00\x00", b"\x00\x00\x00"])
    def test_stray_tail_rejected(self, stray):
        with pytest.raises(CodecError):
            LedgerSnapshot.from_bytes(self.BODY + stray)
        with pytest.raises(CodecError):
            LedgerSnapshot.from_bytes(
                self._with_balances(unpack(self.BODY, 6)[4] + stray)
            )

    def test_short_address_is_a_codec_error(self):
        table = pack([pack([b"short", b"\x01"])])
        with pytest.raises(CodecError, match="20 bytes"):
            LedgerSnapshot.from_bytes(self._with_balances(table))

    def test_unsorted_accounts_rejected(self):
        entries = unpack_all(unpack(self.BODY, 6)[4])
        assert len(entries) == 2
        with pytest.raises(CodecError, match="canonical"):
            LedgerSnapshot.from_bytes(self._with_balances(pack(entries[::-1])))

    def test_padded_integer_rejected(self):
        address, amount = unpack(unpack_all(unpack(self.BODY, 6)[4])[0], 2)
        padded = pack([pack([address, b"\x00" + amount])])
        with pytest.raises(CodecError, match="canonical"):
            LedgerSnapshot.from_bytes(self._with_balances(padded))
