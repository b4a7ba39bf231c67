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


def _sync_upward(headers: HeaderChain, chain) -> int:
    """``sync_from`` as it was: compare every height from genesis up."""
    added = 0
    for block in chain.iter_canonical():
        height = block.header.height
        if height < len(headers):
            if headers.at_height(height).header_hash() == block.block_id:
                continue
            headers._truncate(height)
            headers.reorgs += 1
        if headers.accept(block.header):
            added += 1
    return added


def _logged(first=None):
    """A HeaderChain whose hook calls are recorded, synced to ``first``."""
    headers, calls = HeaderChain(), []
    if first is not None:
        headers.sync_from(first)
    headers.on_accept = lambda header: calls.append(("accept", header.height))
    headers.on_truncate = lambda height: calls.append(("truncate", height))
    return headers, calls


class TestSyncFindsTheForkFromTheTop:
    """Downward compare over the common range == the old upward scan."""

    @staticmethod
    def _branch(prefix: int, extra: int, label: str):
        chain = build_chain(prefix, label="a")
        extend_chain(chain, extra, label=label)
        return chain

    def test_a_source_that_is_a_strict_prefix_changes_nothing(self):
        ours, source = build_chain(9, label="a"), build_chain(4, label="a")
        headers, calls = _logged(ours)
        assert headers.sync_from(source) == 0
        assert (headers.reorgs, calls, len(headers)) == (0, [], 10)
        assert headers.tip.header_hash() == ours.head.block_id

    def test_an_empty_header_chain_accepts_everything_and_truncates_nothing(self):
        source = build_chain(5)
        headers, calls = _logged()
        assert headers.sync_from(source) == 6
        assert headers.reorgs == 0
        assert calls == [("accept", height) for height in range(6)]

    def test_a_deep_fork_truncates_once_at_the_fork(self):
        ours, source = self._branch(1, 8, "a"), self._branch(1, 11, "b")
        headers, calls = _logged(ours)
        assert headers.sync_from(source) == 11
        assert headers.reorgs == 1
        assert calls == [("truncate", 2)] + [
            ("accept", height) for height in range(2, 13)
        ]

    @pytest.mark.parametrize(
        "ours, source",
        [
            ((6, 0, "a"), (6, 0, "a")),  # equal
            ((6, 0, "a"), (9, 0, "a")),  # source extends us
            ((9, 0, "a"), (4, 0, "a")),  # source is a strict prefix
            ((3, 6, "a"), (3, 2, "b")),  # shorter source, fork inside it
            ((3, 2, "a"), (3, 6, "b")),  # longer source, fork inside us
            ((0, 5, "a"), (0, 5, "b")),  # nothing shared but genesis
        ],
    )
    def test_same_calls_same_count_as_the_upward_scan(self, ours, source):
        source = self._branch(*source)
        outcomes = []
        for sync in (HeaderChain.sync_from, _sync_upward):
            headers, calls = _logged(self._branch(*ours))
            added = sync(headers, source)
            outcomes.append(
                (added, headers.reorgs, calls, [h.header_hash() for h in headers._headers])
            )
        assert outcomes[0] == outcomes[1]

    def test_a_store_backed_light_replica_follows_a_full_node_reorg(self, tmp_path):
        from repro.core.distributed import LightReplicaNode, ReplicaNode

        chain_a, chain_b = self._branch(3, 3, "a"), self._branch(3, 8, "b")
        store = opened(HeaderStore(tmp_path / "light"))
        light = LightReplicaNode("light-0", chain_a.genesis, store=store)

        def server(chain):
            node = ReplicaNode("provider-0", chain.genesis)
            node.chain = chain
            return node

        assert light.resync(server(chain_a)) == 6
        assert light.resync(server(build_chain(2, label="a"))) == 0  # a prefix
        assert (light.headers.reorgs, len(store)) == (0, 7)
        assert light.resync(server(chain_b)) == 8
        assert light.headers.reorgs == 1
        assert store.tip_id() == chain_b.head.block_id
        store.close()
        reopened = opened(HeaderStore(tmp_path / "light"))
        assert reopened.last_recovery.clean
        assert [
            reopened.header_at(index).header_hash() for index in range(len(reopened))
        ] == [block.block_id for block in chain_b.iter_canonical()]
