"""Tests for the web3-style RPC facade."""

import random

import pytest

from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.core import PlatformConfig, SmartCrowdPlatform
from repro.detection import build_detector_fleet, build_system
from repro.rpc import RpcError, Web3Shim
from repro.units import to_wei


@pytest.fixture(scope="module")
def connected():
    platform = SmartCrowdPlatform(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(4, 8), seed=95),
        PlatformConfig(seed=95, detection_window=600.0),
    )
    system = build_system("rpc-sys", vulnerability_count=2, rng=random.Random(1))
    sra = platform.announce_release("provider-1", system, insurance_wei=to_wei(1000))
    platform.advance_for(900.0)
    platform.finish_pending()
    shim = Web3Shim.connect_node(platform.replicas["provider-1"], platform.runtime)
    return platform, shim, sra


@pytest.fixture
def provider_shim():
    """A shim bound to a node that keeps a pending pool of its own."""
    from repro.core.stakeholders import DecentralizedDeployment

    deployment = DecentralizedDeployment(PAPER_HASHPOWER_SHARES, [], seed=95)
    provider = deployment.providers["provider-1"]
    return provider, Web3Shim.connect_node(provider, deployment.runtime)


class TestChainReads:
    def test_is_connected(self, connected):
        _, w3, _ = connected
        assert w3.is_connected()

    def test_block_number_matches_chain(self, connected):
        platform, w3, _ = connected
        assert w3.eth.block_number == platform.chain.height

    def test_get_block_latest_and_earliest(self, connected):
        _, w3, _ = connected
        latest = w3.eth.get_block("latest")
        earliest = w3.eth.get_block("earliest")
        assert latest["number"] == w3.eth.block_number
        assert earliest["number"] == 0

    def test_get_block_by_height_and_hash(self, connected):
        _, w3, _ = connected
        by_height = w3.eth.get_block(3)
        by_hash = w3.eth.get_block(by_height["hash"])
        assert by_hash == by_height

    def test_blocks_link_by_parent_hash(self, connected):
        _, w3, _ = connected
        child = w3.eth.get_block(5)
        parent = w3.eth.get_block(4)
        assert child["parentHash"] == parent["hash"]

    def test_unknown_height_raises(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError):
            w3.eth.get_block(10**9)

    def test_bad_hash_raises(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError):
            w3.eth.get_block("0xzznothex")


class TestTransactionReads:
    def test_sra_record_lookup(self, connected):
        _, w3, sra = connected
        tx = w3.eth.get_transaction(sra.sra_id)
        assert tx["kind"] == "sra"
        assert tx["confirmations"] > 0
        assert tx["blockNumber"] >= 1

    def test_hex_form_accepted(self, connected):
        _, w3, sra = connected
        tx = w3.eth.get_transaction("0x" + sra.sra_id.hex())
        assert tx["hash"] == "0x" + sra.sra_id.hex()

    def test_unknown_transaction_raises(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError):
            w3.eth.get_transaction(b"\x00" * 32)


class TestAccountsAndLogs:
    def test_get_balance_matches_state(self, connected):
        platform, w3, _ = connected
        address = platform.provider_keys["provider-1"].address
        assert w3.eth.get_balance(address) == platform.runtime.state.balance(address)

    def test_get_balance_follows_the_state_between_blocks(self, connected):
        platform, w3, _ = connected
        address = platform.provider_keys["provider-1"].address
        before, head = w3.eth.get_balance(address), platform.chain.head
        platform.runtime.state.mint(address, 7)
        assert platform.chain.head is head
        assert w3.eth.get_balance(address) == before + 7

    def test_get_balance_hex_form(self, connected):
        platform, w3, _ = connected
        address = platform.provider_keys["provider-2"].address
        assert w3.eth.get_balance(address.hex()) == w3.eth.get_balance(address)

    def test_logs_filterable(self, connected):
        _, w3, _ = connected
        paid = w3.eth.get_logs("BountyPaid")
        assert paid
        assert all(entry["event"] == "BountyPaid" for entry in paid)
        assert len(w3.eth.get_logs()) >= len(paid)


class TestErrorPaths:
    def test_malformed_transaction_hex(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="not valid hex"):
            w3.eth.get_transaction("0xnothex!!")

    def test_transaction_id_wrong_type(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="must be bytes or 0x hex"):
            w3.eth.get_transaction(12345)

    def test_unknown_transaction_message_names_the_id(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="0x" + "00" * 32):
            w3.eth.get_transaction(b"\x00" * 32)

    def test_missing_receipt_is_descriptive(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="no receipt"):
            w3.eth.get_transaction_receipt(b"\x01" * 32)

    def test_malformed_receipt_hex(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="not valid hex"):
            w3.eth.get_transaction_receipt("0xqq")

    def test_malformed_address(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="malformed address"):
            w3.eth.get_balance("0xnothex")

    def test_unknown_block_height_message(self, connected):
        _, w3, _ = connected
        with pytest.raises(RpcError, match="no block at height"):
            w3.eth.get_block(10**9)

    def test_pending_lookup_without_mempool(self, connected):
        platform, _, _ = connected
        from repro.rpc import Web3Shim as Shim

        bare = Shim(platform.chain, platform.runtime)
        with pytest.raises(RpcError, match="no mempool attached"):
            bare.eth.get_pending_transactions()

    def test_get_block_rejects_bools(self, connected):
        # bool subclasses int: get_block(True) used to silently serve
        # height 1 and get_block(False) the genesis.
        _, w3, _ = connected
        with pytest.raises(RpcError, match="True/False"):
            w3.eth.get_block(True)
        with pytest.raises(RpcError, match="True/False"):
            w3.eth.get_block(False)

    def test_get_block_negative_height_is_descriptive(self, connected):
        # Python-list semantics (-1 = head) must fail loudly.
        _, w3, _ = connected
        with pytest.raises(RpcError, match="negative"):
            w3.eth.get_block(-1)


class TestReceiptsAndCounts:
    def test_receipt_matches_transaction(self, connected):
        _, w3, sra = connected
        tx = w3.eth.get_transaction(sra.sra_id)
        receipt = w3.eth.get_transaction_receipt(sra.sra_id)
        assert receipt["status"] == 1
        assert receipt["blockHash"] == tx["blockHash"]
        assert receipt["blockNumber"] == tx["blockNumber"]
        assert receipt["transactionIndex"] == tx["transactionIndex"]
        assert receipt["confirmations"] == w3.eth.get_transaction(sra.sra_id)[
            "confirmations"
        ]

    def test_transaction_count_counts_senders(self, connected):
        platform, w3, _ = connected
        totals = sum(
            w3.eth.get_transaction_count(keys.address)
            for keys in platform.detector_keys.values()
        )
        # Every detector report on the canonical chain has a sender.
        assert totals >= 1

    def test_transaction_count_matches_full_scan_oracle(self, connected):
        # get_transaction_count is index-backed now; the historical
        # full-chain scan stays here as the parity oracle.
        platform, w3, _ = connected
        chain = platform.chain
        accounts = [keys.address for keys in platform.detector_keys.values()]
        accounts += [keys.address for keys in platform.provider_keys.values()]
        for address in accounts:
            scanned = 0
            for block in chain.iter_canonical():
                for record in block.records:
                    if record.sender == address:
                        scanned += 1
            assert w3.eth.get_transaction_count(address) == scanned

    def test_pending_transactions_shape(self, provider_shim):
        provider, w3 = provider_shim
        provider.mempool.add(_probe_record())
        (entry,) = w3.eth.get_pending_transactions()
        assert set(entry) == {"hash", "kind", "fee", "from"}

    def test_pending_record_visible_before_mining(self, provider_shim):
        provider, w3 = provider_shim
        record = _probe_record()
        provider.mempool.add(record)
        hashes = [entry["hash"] for entry in w3.eth.get_pending_transactions()]
        assert hashes == ["0x" + record.record_id.hex()]
        with pytest.raises(RpcError, match="pending in the mempool"):
            w3.eth.get_transaction_receipt(record.record_id)


def _probe_record():
    from repro.chain.block import ChainRecord, RecordKind
    from repro.crypto.hashing import hash_fields

    return ChainRecord(
        kind=RecordKind.TRANSACTION,
        record_id=hash_fields("rpc-pending-probe"),
        payload=b"probe",
    )


class TestNodeBoundShim:
    """connect_node: live binding that survives restart-from-disk.

    The regression these lock in: receipt and pending lookups against a
    node that is mid-recovery, or that restarted from an empty store,
    must answer with a documented RpcError (or an empty result) — never
    a KeyError from a stale chain object.
    """

    @pytest.fixture
    def stored_fleet(self, tmp_path):
        """A settled store-backed fleet and one confirmed record."""
        from repro.chain.block import ChainRecord, RecordKind
        from repro.core.distributed import DistributedChain
        from repro.crypto.hashing import hash_fields
        from repro.network.latency import ConstantLatency
        from repro.shard import FleetSpec

        spec = FleetSpec(
            full_nodes=len(PAPER_HASHPOWER_SHARES),
            store_dir=str(tmp_path / "stores"),
            store_snapshot_interval=4,
        )
        with DistributedChain(
            PAPER_HASHPOWER_SHARES,
            latency=ConstantLatency(0.05),
            seed=0,
            confirmation_depth=4,
            spec=spec,
        ) as fleet:
            record = ChainRecord(
                kind=RecordKind.INITIAL_REPORT,
                record_id=hash_fields("rpc-node-bound", 0),
                payload=b"rpc-record",
            )
            fleet.submit_record(record)
            fleet.run_blocks(8)
            fleet.finalize()
            yield fleet, record

    def test_receipt_survives_restart_from_disk(self, stored_fleet):
        fleet, record = stored_fleet
        node = fleet.replicas["provider-2"]
        w3 = Web3Shim.connect_node(node)
        before = w3.eth.get_transaction_receipt(record.record_id)
        assert before["status"] == 1

        fleet.crash("provider-2")
        fleet.run_blocks(6)
        fleet.restart("provider-2")
        fleet.run_blocks(2)
        fleet.finalize()

        # node.chain was swapped wholesale by the recovery; the shim
        # must follow it, not the pre-crash object.
        assert w3.eth.service.live_view()[0].chain is node.chain
        after = w3.eth.get_transaction_receipt(record.record_id)
        assert after["transactionHash"] == before["transactionHash"]
        assert after["status"] == 1

    def test_crashed_node_raises_not_keyerror(self, stored_fleet):
        fleet, record = stored_fleet
        node = fleet.replicas["provider-2"]
        w3 = Web3Shim.connect_node(node)
        fleet.crash("provider-2")
        assert not w3.is_connected()
        with pytest.raises(RpcError, match="down \\(crashed or mid-recovery\\)"):
            w3.eth.get_transaction_receipt(record.record_id)
        with pytest.raises(RpcError, match="down"):
            w3.eth.get_pending_transactions()
        with pytest.raises(RpcError, match="down"):
            w3.eth.block_number
        fleet.restart("provider-2")
        assert w3.is_connected()
        assert w3.eth.get_transaction_receipt(record.record_id)["status"] == 1

    def test_empty_store_restart_answers_unknown_not_keyerror(self, stored_fleet):
        # Wipe the victim's log while it is down: it restarts from an
        # empty store (genesis) and resyncs.  Queries fired mid-window
        # must stay documented errors, never KeyError.
        fleet, record = stored_fleet
        node = fleet.replicas["provider-2"]
        w3 = Web3Shim.connect_node(node)
        fleet.crash("provider-2")
        node.store.log_path.write_bytes(b"")
        node.store.mark_stale()
        fleet.restart("provider-2")
        # Recovery ran from the emptied store, then peers refilled it.
        assert node.store_recoveries == 1
        fleet.finalize()
        assert w3.eth.get_transaction_receipt(record.record_id)["status"] == 1
        with pytest.raises(RpcError, match="not found on the canonical chain"):
            w3.eth.get_transaction(b"\x00" * 32)

    def test_node_without_mempool_is_a_documented_error(self, stored_fleet):
        fleet, _ = stored_fleet
        node = fleet.replicas["provider-1"]  # ReplicaNode: no mempool
        w3 = Web3Shim.connect_node(node)
        with pytest.raises(RpcError, match="no mempool attached"):
            w3.eth.get_pending_transactions()

    def test_light_client_cannot_be_connected(self):
        from repro.core.distributed import DistributedChain
        from repro.network.latency import ConstantLatency
        from repro.shard import FleetSpec

        fleet = DistributedChain(
            PAPER_HASHPOWER_SHARES,
            latency=ConstantLatency(0.05),
            seed=0,
            spec=FleetSpec(full_nodes=len(PAPER_HASHPOWER_SHARES), light_nodes=1),
        )
        with pytest.raises(RpcError, match="light clients cannot"):
            Web3Shim.connect_node(fleet.light_replicas["light-0"])

    def test_balance_without_runtime_is_documented(self, stored_fleet):
        fleet, _ = stored_fleet
        w3 = Web3Shim.connect_node(fleet.replicas["provider-1"])
        with pytest.raises(RpcError, match="no contract runtime attached"):
            w3.eth.get_balance("0x" + "00" * 20)


class TestBothDoorsOneAnswer:
    """``Eth`` is web3 shaping over ``QueryService.serve``: for every
    method both doors serve, the same result (``get_transaction`` plus
    ``confirmations``) or the same refusal, word for word."""

    @pytest.fixture(scope="class")
    def doors(self):
        from repro.contracts.vm import ContractRuntime
        from repro.query import QueryService
        from tests.query.conftest import SENDERS, build_mixed_chain, extend_mixed

        chain, sra_ids = build_mixed_chain(seed=61, blocks=16)
        runtime = ContractRuntime()
        for index, sender in enumerate(SENDERS):
            runtime.state.mint(sender, (index + 1) * 10**18)
        # A one-block side branch the chain stores but does not follow.
        parent = chain.block_at_height(chain.head.height - 1)
        (side,) = extend_mixed(
            chain, random.Random(3), 1, 2, list(sra_ids), parent=parent
        )
        return Web3Shim(chain, runtime), QueryService(chain=chain, runtime=runtime), chain, side

    def test_every_shared_read_agrees(self, doors):
        from repro.query import QueryRequest
        from tests.query.conftest import SENDERS

        w3, service, chain, _ = doors
        ask = lambda request: service.serve(request).result  # noqa: E731
        assert w3.eth.block_number == ask(QueryRequest.head())["number"]
        head_id = chain.head.block_id
        for identifier in ("latest", "earliest", 0, 7, head_id, "0x" + head_id.hex()):
            assert w3.eth.get_block(identifier) == ask(
                QueryRequest.get_block(identifier)
            )
        for sender in SENDERS:
            assert w3.eth.get_balance(sender) == ask(QueryRequest.get_balance(sender))
            assert w3.eth.get_balance(sender.hex()) == ask(
                QueryRequest.get_balance(sender)
            )
            assert w3.eth.get_transaction_count(sender) == ask(
                QueryRequest.get_transaction_count(sender)
            )
        for block in (chain.block_at_height(3), chain.head):
            for record in block.records:
                served = ask(QueryRequest.get_transaction(record.record_id))
                assert w3.eth.get_transaction(record.record_id) == {
                    **served,
                    "confirmations": chain.height - block.height,
                }

    def test_every_refusal_agrees(self, doors):
        from repro.query import QueryRequest

        w3, service, _, side = doors
        refusals = [
            (w3.eth.get_block, QueryRequest.get_block, True),
            (w3.eth.get_block, QueryRequest.get_block, -1),
            (w3.eth.get_block, QueryRequest.get_block, 10**9),
            (w3.eth.get_block, QueryRequest.get_block, "0xzznothex"),
            (w3.eth.get_block, QueryRequest.get_block, b"\x07" * 32),
            (w3.eth.get_block, QueryRequest.get_block, side.block_id),
            (w3.eth.get_transaction, QueryRequest.get_transaction, b"\x00" * 32),
            (w3.eth.get_transaction, QueryRequest.get_transaction, "0x"),
            (w3.eth.get_balance, QueryRequest.get_balance, "0xnothex"),
            (w3.eth.get_transaction_count, QueryRequest.get_transaction_count, 5),
        ]
        for call, request, argument in refusals:
            response = service.serve(request(argument))
            assert not response.ok
            with pytest.raises(RpcError) as raised:
                call(argument)
            assert str(raised.value) == response.error
        assert "side branch" in service.serve(
            QueryRequest.get_block(side.block_id)
        ).error

    def test_logs_walk_every_page_of_the_service(self, connected):
        from repro.query import QueryRequest

        platform, w3, _ = connected
        service = platform.query_service("provider-1", runtime=platform.runtime)
        everything = w3.eth.get_logs()
        assert [entry["event"] for entry in everything] == [
            event.name for event in platform.runtime.events
        ]
        for name in ("BountyPaid", None):
            walked, after = [], None
            while True:
                page = service.serve(
                    QueryRequest.get_logs(name, limit=2, after=after)
                ).result
                walked += page["rows"]
                after = page["next_cursor"]
                if after is None:
                    break
            assert walked == w3.eth.get_logs(name)
        assert len(everything) > 2  # the small-limit walk really paged

    def test_rpc_errors_are_query_errors(self):
        from repro.query import QueryError

        assert issubclass(RpcError, QueryError)
