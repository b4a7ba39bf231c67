"""Property tests: arbitrary chains survive the store, corruption never does.

Two claims the durability layer stakes its correctness on:

* round-trip — any chain of well-formed blocks written through
  :class:`ChainStore` is byte-identical after a cold reopen + replay;
* rejection — any torn truncation or single-byte corruption of the log
  is *detected* (truncated to a byte-identical good prefix, or surfaced
  as an error), never mis-decoded into a different chain.
"""

import io
import tempfile
from contextlib import closing, contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.serialization import encode_block
from repro.crypto.keys import Address
from repro.codec import CodecError
from repro.store import ChainStore, LedgerSnapshot, StoreError
from repro.store.frames import FRAME_HEADER_BYTES, scan_frames, write_frame

from tests.store.conftest import build_chain


@contextmanager
def _fresh_store_dir():
    # @given re-runs the test body per example, so the function-scoped
    # tmp_path fixture would leak one example's store into the next;
    # each example gets its own throwaway directory instead.
    with tempfile.TemporaryDirectory(prefix="store-prop-") as root:
        yield Path(root) / "replica"


def _fill(path, chain):
    store = ChainStore(path)
    for block in chain.iter_canonical():
        store.append(block)
    store.close()
    return store.log_path.read_bytes()


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
                assert [encode_block(b) for b in loaded.iter_canonical()] == [
                    encode_block(b) for b in chain.iter_canonical()
                ]
                replay = reopened.replay_ledger()
                assert replay.height == chain.height

    @settings(max_examples=40, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=200), max_size=8))
    def test_any_payloads_round_trip_the_frame_layer(self, payloads):
        handle = io.BytesIO()
        for payload in payloads:
            write_frame(handle, payload)
        seen = []
        scan = scan_frames(handle, on_payload=lambda i, off, p: seen.append(p))
        assert scan.clean
        assert seen == payloads

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
    )
    def test_ledger_snapshot_round_trips(
        self, height, block_id, minted, balances, nonces
    ):
        snapshot = LedgerSnapshot(
            height=height,
            block_id=block_id,
            balances=balances,
            nonces=nonces,
            minted=minted,
        )
        assert LedgerSnapshot.from_bytes(snapshot.to_bytes()) == snapshot


class TestCorruptionIsAlwaysDetected:
    # One reference chain for every example: assembling blocks is the
    # slow part, and the corruption space being explored is byte offsets.
    CHAIN = build_chain(4)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_truncation_keeps_only_a_byte_identical_prefix(self, data):
        chain = self.CHAIN
        with _fresh_store_dir() as path:
            original = _fill(path, chain)
            cut = data.draw(
                st.integers(min_value=0, max_value=len(original) - 1),
                label="cut",
            )
            (path / "blocks.log").write_bytes(original[:cut])

            with closing(ChainStore(path)) as reopened:
                recovery = reopened.last_recovery
                surviving = reopened.log_path.read_bytes()
                assert original.startswith(surviving)
                if recovery.clean:
                    # Clean reopen ⇒ the cut landed exactly on a frame edge.
                    assert surviving == original[:cut]
                else:
                    assert recovery.tail_bytes_truncated > 0
                # Every surviving block is the original block, bit for bit.
                for index in range(len(reopened)):
                    assert encode_block(reopened.block_at(index)) == encode_block(
                        chain.block_at_height(index)
                    )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_corruption_is_rejected_never_misdecoded(
        self, data
    ):
        chain = self.CHAIN
        original_ids = [block.block_id for block in chain.iter_canonical()]
        with _fresh_store_dir() as path:
            original = _fill(path, chain)
            offset = data.draw(
                st.integers(min_value=0, max_value=len(original) - 1),
                label="offset",
            )
            delta = data.draw(
                st.integers(min_value=1, max_value=255), label="xor"
            )
            mutated = bytearray(original)
            mutated[offset] ^= delta
            (path / "blocks.log").write_bytes(bytes(mutated))

            try:
                reopened = ChainStore(path)
            except (StoreError, CodecError):
                return  # rejected outright: acceptable
            with closing(reopened):
                # CRC-32 catches every single-byte error, so the reopen can
                # never be clean — and never yields a different chain.
                assert not reopened.last_recovery.clean
                kept = len(reopened)
                assert kept < len(original_ids)
                for index in range(kept):
                    assert reopened.block_at(index).block_id == original_ids[index]
                # The flipped byte sits past everything that was kept.
                span_end = sum(
                    FRAME_HEADER_BYTES
                    + len(encode_block(chain.block_at_height(i)))
                    for i in range(kept)
                )
                assert span_end <= offset
