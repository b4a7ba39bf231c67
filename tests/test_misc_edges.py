"""Edge cases across modules that the focused suites don't reach."""

import pytest

from repro.contracts.explorer import Explorer
from repro.contracts.vm import ContractRuntime
from repro.crypto.keys import KeyPair
from repro.experiments.fig3 import run_fig3b
from repro.network.messages import Message, MessageKind
from repro.network.node import Node


class TestNodeEdges:
    def test_send_without_network_raises(self):
        node = Node("loner")
        with pytest.raises(RuntimeError):
            node.send("anyone", MessageKind.CONTROL, "x")

    def test_delivered_count_increments(self):
        node = Node("counter")
        node.deliver(Message.wrap(MessageKind.CONTROL, "a", "x"))
        node.deliver(Message.wrap(MessageKind.CONTROL, "b", "x"))
        assert node.delivered_count == 2

    def test_multiple_handlers_all_fire(self):
        node = Node("multi")
        calls = []
        node.on(MessageKind.CONTROL, lambda n, m: calls.append(1))
        node.on(MessageKind.CONTROL, lambda n, m: calls.append(2))
        node.deliver(Message.wrap(MessageKind.CONTROL, "x", "y"))
        assert calls == [1, 2]

    def test_unhandled_kind_ignored(self):
        node = Node("deaf")
        node.deliver(Message.wrap(MessageKind.SRA_ANNOUNCE, "x", "y"))
        assert node.delivered_count == 1  # delivered, no handler, no crash

    def test_default_keys_derived_from_name(self):
        assert Node("stable").keys.address == Node("stable").keys.address


class TestExplorerEdges:
    def test_empty_runtime_views(self):
        explorer = Explorer(ContractRuntime())
        assert explorer.release_statements() == []
        assert explorer.top_detectors() == []
        assert explorer.vulnerable_release_fraction() == 0.0
        assert explorer.isolation_events() == []

    def test_statement_for_unknown_wallet_empty(self):
        explorer = Explorer(ContractRuntime())
        wallet = KeyPair.from_seed(b"nobody").address
        statement = explorer.detector_statement(wallet)
        assert statement.total_earned_wei == 0
        assert statement.vulnerabilities_found == ()


class TestFig3Edges:
    def test_histogram_covers_all_samples(self):
        result = run_fig3b(blocks=200)
        counted = sum(count for _, count in result.histogram())
        assert counted == 200

    def test_histogram_overflow_bucket(self):
        result = run_fig3b(blocks=400)
        labels = [label for label, _ in result.histogram(bucket=1.0, buckets=3)]
        assert labels[-1].startswith(">=")
