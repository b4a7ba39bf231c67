"""Tests for the genesis block.

The PoW drive is the fleet control plane's: its deadline,
monotonic-clock, records-flow and duplicate-submission cases live in
``tests/shard/test_one_engine.py::TestDriveAndHonestPool``, run on every
engine.
"""

from repro.chain.consensus import make_genesis


class TestGenesis:
    def test_genesis_has_zero_height(self):
        assert make_genesis().height == 0

    def test_genesis_has_no_records(self):
        assert make_genesis().omega == 0
