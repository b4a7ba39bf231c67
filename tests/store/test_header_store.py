"""HeaderStore: the light client's durable headers-only log."""

import pytest

from repro.chain.serialization import decode_header, encode_header
from repro.core.lightclient import HeaderChain
from repro.store import HeaderStore, StoreError, tear_frame

from tests.store.conftest import build_chain, extend_chain, opened


def _headers(chain):
    return [block.header for block in chain.iter_canonical()]


class TestAppendAndReload:
    def test_append_then_cold_reopen(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        for header in _headers(chain):
            store.append(header)
        assert len(store) == chain.height + 1
        assert store.tip_id() == chain.head.block_id
        store.close()

        reopened = opened(HeaderStore(tmp_path / "light"))
        assert reopened.last_recovery.clean
        headers = reopened.load_headers()
        assert len(headers) == chain.height + 1
        assert headers.tip.header_hash() == chain.head.block_id

    def test_append_is_idempotent_at_the_tip(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        for header in _headers(chain):
            store.append(header)
        assert store.append(chain.head.header) is False
        assert len(store) == chain.height + 1

    def test_non_linking_header_is_rejected(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        store.append(chain.genesis.header)
        with pytest.raises(StoreError, match="chain link"):
            store.append(chain.block_at_height(5).header)

    def test_first_frame_must_be_genesis(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        with pytest.raises(StoreError, match="genesis"):
            store.append(chain.head.header)

    def test_header_round_trips_bytes(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        for header in _headers(chain):
            store.append(header)
        for index, header in enumerate(_headers(chain)):
            stored = store.header_at(index)
            assert encode_header(stored) == encode_header(header)
            assert stored.header_hash() == header.header_hash()

    def test_encode_decode_header_round_trip(self, chain):
        header = chain.head.header
        decoded = decode_header(encode_header(header))
        assert decoded == header
        assert decoded.header_hash() == header.header_hash()


class TestTruncateAndRecovery:
    def test_truncate_drops_the_reorged_tail(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        for header in _headers(chain):
            store.append(header)
        dropped = store.truncate(8)
        assert dropped == chain.height + 1 - 8
        assert len(store) == 8
        store.close()
        reopened = opened(HeaderStore(tmp_path / "light"))
        assert reopened.last_recovery.clean
        assert len(reopened) == 8

    def test_torn_tail_recovers_on_reopen(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        for header in _headers(chain):
            store.append(header)
        tear_frame(store)
        recovery = store.reopen()
        assert not recovery.clean
        assert recovery.frames_kept == chain.height
        headers = store.load_headers()
        assert len(headers) == chain.height

    def test_ensure_genesis_rejects_a_foreign_chain(self, tmp_path, chain):
        store = opened(HeaderStore(tmp_path / "light"))
        store.ensure_genesis(chain.genesis.header)
        other = build_chain(1, label="other")
        with pytest.raises(StoreError, match="different chain"):
            store.ensure_genesis(other.block_at_height(1).header)


class TestHeaderChainMirroring:
    def test_hooks_mirror_accepts_and_reorg_truncation(self, tmp_path):
        # A full-node reorg seen from the light side: sync chain A, then
        # a heavier chain B diverging at height 3 — the store must end
        # up holding exactly B's headers.
        chain_a = build_chain(6, label="a")
        chain_b = build_chain(3, label="a")  # shared prefix
        extend_chain(chain_b, 8, label="b")

        store = opened(HeaderStore(tmp_path / "light"))
        headers = HeaderChain()
        headers.on_accept = store.append
        headers.on_truncate = store.truncate

        headers.sync_from(chain_a)
        assert store.tip_id() == chain_a.head.block_id
        headers.sync_from(chain_b)
        assert headers.reorgs == 1
        assert store.tip_id() == chain_b.head.block_id
        assert len(store) == len(headers)

        store.close()
        reopened = opened(HeaderStore(tmp_path / "light"))
        rebuilt = reopened.load_headers()
        assert rebuilt.tip.header_hash() == chain_b.head.block_id
        assert len(rebuilt) == chain_b.height + 1
