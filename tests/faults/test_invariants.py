"""Invariant checker: passes on healthy systems, catches broken ones."""

import random

import pytest

from repro.chain.block import Block, ChainRecord, RecordKind
from repro.chain.chain import Blockchain
from repro.chain.consensus import make_genesis
from repro.chain.pow import PAPER_HASHPOWER_SHARES
from repro.contracts.vm import ContractRuntime
from repro.core.stakeholders import DecentralizedDeployment
from repro.crypto.hashing import hash_fields
from repro.crypto.keys import KeyPair
from repro.detection import build_detector_fleet, build_system
from repro.faults.invariants import InvariantChecker, InvariantReport
from repro.network.latency import ConstantLatency

MINER = KeyPair.from_seed(b"invariant-miner").address


def _chain_with_blocks(tags, confirmation_depth=2, kind=RecordKind.TRANSACTION):
    genesis = make_genesis(difficulty=1)
    chain = Blockchain(genesis, confirmation_depth=confirmation_depth)
    parent = genesis
    for i, tag_group in enumerate(tags):
        records = tuple(
            ChainRecord(
                kind=kind,
                record_id=hash_fields("inv", tag),
                payload=tag.encode(),
            )
            for tag in tag_group
        )
        block = Block.assemble(
            prev_block_id=parent.block_id,
            height=parent.height + 1,
            records=records,
            timestamp=float(i + 1),
            difficulty=1,
            miner=MINER,
        )
        chain.add_block(block)
        parent = block
    return chain


@pytest.fixture(scope="module")
def healthy():
    deployment = DecentralizedDeployment(
        PAPER_HASHPOWER_SHARES,
        build_detector_fleet(thread_counts=(4, 8), seed=33),
        latency=ConstantLatency(0.05),
        seed=33,
    )
    system = build_system("inv-sys", vulnerability_count=2, rng=random.Random(6))
    deployment.announce("provider-1", system)
    deployment.advance_for(900.0)
    deployment.simulator.advance()
    for _ in range(20):
        if deployment.converged():
            break
        deployment.advance_for(30.0)
        deployment.simulator.advance()
    return deployment


class TestHealthySystem:
    def test_all_invariants_hold(self, healthy):
        report = InvariantChecker.for_deployment(healthy).run_all()
        assert report.ok, report.render()
        assert "ledger-conservation" in report.checked
        assert "single-tip-convergence" in report.checked
        assert "unique-confirmed-reports" in report.checked
        assert "insurance-accounting" in report.checked

    def test_assert_ok_passes(self, healthy):
        InvariantChecker.for_deployment(healthy).run_all().assert_ok()

    def test_render_mentions_outcome(self, healthy):
        text = InvariantChecker.for_deployment(healthy).run_all().render()
        assert "all invariants hold" in text

    def test_every_published_report_landed_once(self, healthy):
        checker = InvariantChecker.for_deployment(healthy)
        assert checker.published == {
            detailed_id: name
            for name, detector in healthy.detectors.items()
            for detailed_id in detector.detailed_ids
        }
        assert checker.published
        assert checker.run_all().holds("published-reports-once")


class TestViolationsDetected:
    def test_divergent_tips_flagged(self):
        chain_a = _chain_with_blocks([["a1"], ["a2"]])
        chain_b = _chain_with_blocks([["b1"]])
        report = InvariantChecker(chains={"a": chain_a, "b": chain_b}).run_all()
        assert not report.ok
        assert any(
            v.name == "single-tip-convergence" for v in report.violations
        )
        with pytest.raises(AssertionError):
            report.assert_ok()

    def test_duplicate_record_id_flagged(self):
        chain = _chain_with_blocks([["dup"], ["dup"]])
        report = InvariantChecker(chains={"x": chain}).run_all()
        assert any(
            v.name == "unique-confirmed-reports" for v in report.violations
        )

    def test_an_undecodable_detailed_report_claims_no_commitment(self):
        # A byzantine miner's R* no encoder wrote: not a violation, and
        # not a crash of the checker either.
        chain = _chain_with_blocks(
            [["not-a-report"], ["nor-this"]], kind=RecordKind.DETAILED_REPORT
        )
        checker = InvariantChecker(chains={"x": chain})
        report = InvariantReport()
        checker.check_unique_reports(report)
        assert report.checked == ["unique-confirmed-reports"]
        assert report.ok, report.render()

    def test_ledger_imbalance_flagged(self):
        runtime = ContractRuntime()
        account = KeyPair.from_seed(b"inv-account").address
        runtime.state.mint(account, 1000)
        # Corrupt the ledger behind the mint accounting.
        runtime.state._balances[account] += 1
        report = InvariantChecker(runtime=runtime).run_all()
        assert any(
            v.name == "ledger-conservation" for v in report.violations
        )

    def test_empty_checker_checks_nothing(self):
        report = InvariantChecker().run_all()
        assert report.ok
        assert report.checked == []


class TestPublishedReports:
    """Each published R* on every alive chain exactly once: counted in
    the canonical walk the unique-reports clause already makes."""

    REPORT = hash_fields("inv", "r1")

    def _report(self, chains):
        checker = InvariantChecker(chains=chains, published={self.REPORT: "det-a"})
        return checker.run_all()

    def test_all_landed(self):
        report = self._report(
            {"a": _chain_with_blocks([["r1"], ["x"]]), "b": _chain_with_blocks([["r1"]])}
        )
        assert report.holds("published-reports-once")
        assert report.checked == [
            "single-tip-convergence",
            "unique-confirmed-reports",
            "published-reports-once",
        ]

    def test_missing_from_one_chain(self):
        report = self._report(
            {"a": _chain_with_blocks([["r1"]]), "b": _chain_with_blocks([["x"]])}
        )
        (violation,) = [v for v in report.violations if v.name == "published-reports-once"]
        assert violation.detail == (
            f"det-a R* {self.REPORT.hex()[:12]} counts={{'a': 1, 'b': 0}}"
        )

    def test_duplicated(self):
        report = self._report({"a": _chain_with_blocks([["r1"], ["r1"]])})
        (violation,) = [v for v in report.violations if v.name == "published-reports-once"]
        assert violation.detail.endswith("counts={'a': 2}")
        assert not report.holds("unique-confirmed-reports")

    def test_nothing_published_checks_no_clause(self):
        report = InvariantChecker(chains={"a": _chain_with_blocks([["r1"]])}).run_all()
        assert "published-reports-once" not in report.checked
        assert not report.holds("published-reports-once")
