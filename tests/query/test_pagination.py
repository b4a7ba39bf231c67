"""Cursor-based pagination: bounded pages, reorg-safe resumption.

Multi-row requests (``get_reports``/``get_sras``/``get_logs``) return
``{"rows", "next_cursor", "truncated"}``.  The contract under test:
pages chain into exactly the full listing (no duplicates, no gaps,
deterministic order), a cursor whose anchor block was reorged away
fails descriptively instead of silently skipping rows, and limits are
validated rather than clamped.
"""

from __future__ import annotations

import random

import pytest

from repro.query import (
    DEFAULT_PAGE_LIMIT,
    MAX_PAGE_LIMIT,
    QueryRequest,
    QueryService,
)

from tests.query.conftest import (
    build_mixed_chain,
    extend_mixed,
    full_scan_block_at_height,
    full_scan_reports,
    report_identities,
)


@pytest.fixture
def busy_service():
    """A chain dense enough that small pages must truncate."""
    chain, sra_ids = build_mixed_chain(seed=103, blocks=30, records_per_block=6)
    return QueryService(chain=chain), chain, sra_ids


def collect_pages(svc, make_request, limit):
    """Walk next_cursor to exhaustion; returns (all_rows, page_count)."""
    rows, cursor, pages = [], None, 0
    while True:
        response = svc.serve(make_request(limit=limit, after=cursor))
        assert response.ok, response.error
        result = response.result
        rows.extend(result["rows"])
        pages += 1
        if result["next_cursor"] is None:
            assert not result["truncated"] or result["rows"]
            return rows, pages
        assert result["truncated"]
        assert len(result["rows"]) == limit  # full pages until the last
        cursor = result["next_cursor"]
        assert pages < 1000  # malformed cursors must not loop forever


class TestPageShape:
    def test_default_limit_bounds_the_page(self, busy_service):
        svc, chain, _ = busy_service
        svc.default_page_limit = 4
        result = svc.serve(QueryRequest.get_reports()).result
        assert len(result["rows"]) == 4
        assert result["truncated"] and result["next_cursor"] is not None

    def test_untruncated_page_has_no_cursor(self, busy_service):
        svc, _, _ = busy_service
        result = svc.serve(QueryRequest.get_reports(limit=MAX_PAGE_LIMIT)).result
        assert not result["truncated"] and result["next_cursor"] is None

    def test_service_default_is_module_default(self, busy_service):
        svc, _, _ = busy_service
        assert svc.default_page_limit == DEFAULT_PAGE_LIMIT


class TestCursorChaining:
    @pytest.mark.parametrize("limit", [1, 3, 7])
    def test_report_pages_chain_to_full_scan(self, busy_service, limit):
        svc, chain, _ = busy_service
        rows, pages = collect_pages(svc, QueryRequest.get_reports, limit)
        assert report_identities(rows) == full_scan_reports(chain)
        assert pages == max(1, -(-len(rows) // limit))  # ceil(n / limit)

    def test_filtered_pages_chain_consistently(self, busy_service):
        svc, chain, _ = busy_service
        full = svc.serve(
            QueryRequest.get_reports(severity="high", limit=MAX_PAGE_LIMIT)
        ).result["rows"]
        paged, _ = collect_pages(
            svc,
            lambda limit, after: QueryRequest.get_reports(
                severity="high", limit=limit, after=after
            ),
            2,
        )
        assert paged == full

    def test_sra_pages_chain_to_full_listing(self, busy_service):
        svc, _, _ = busy_service
        full = svc.serve(QueryRequest.get_sras(limit=MAX_PAGE_LIMIT)).result
        paged, _ = collect_pages(svc, QueryRequest.get_sras, 3)
        assert paged == full["rows"] and len(paged) > 3

    def test_pages_are_deterministic(self, busy_service):
        svc, _, _ = busy_service
        first = svc.serve(QueryRequest.get_reports(limit=5)).result
        second = svc.serve(QueryRequest.get_reports(limit=5)).result
        assert first == second


class TestReorgSafety:
    def test_cursor_survives_growth_above_its_anchor(self, busy_service):
        svc, chain, sra_ids = busy_service
        page = svc.serve(QueryRequest.get_reports(limit=3)).result
        extend_mixed(chain, random.Random(3), 4, 4, sra_ids)
        resumed = svc.serve(
            QueryRequest.get_reports(limit=MAX_PAGE_LIMIT, after=page["next_cursor"])
        )
        assert resumed.ok
        combined = report_identities(page["rows"] + resumed.result["rows"])
        assert combined == full_scan_reports(chain)

    def test_reorged_cursor_fails_descriptively(self, busy_service):
        svc, chain, sra_ids = busy_service
        svc.default_page_limit = 3
        page = svc.serve(QueryRequest.get_reports()).result
        cursor = page["next_cursor"]
        # Reorg below the cursor's anchor: fork under it and outgrow.
        anchor_height = int(cursor.split(":")[0])
        parent = full_scan_block_at_height(chain, anchor_height - 1)
        rng = random.Random(9)
        extend_mixed(
            chain,
            rng,
            chain.head.height - anchor_height + 2,
            4,
            sra_ids,
            parent=parent,
        )
        response = svc.serve(QueryRequest.get_reports(after=cursor))
        assert not response.ok
        assert "reorg" in response.error and "restart the scan" in response.error

    def test_cursor_above_shrunken_head_fails_descriptively(self, busy_service):
        svc, chain, _ = busy_service
        tip_id = chain.head.block_id.hex()
        phantom = f"{chain.head.height + 50}:0:{tip_id}"
        response = svc.serve(QueryRequest.get_reports(after=phantom))
        assert not response.ok and "above the canonical head" in response.error


class TestLogPaging:
    def _event_service(self):
        from repro.chain import PAPER_HASHPOWER_SHARES
        from repro.core import PlatformConfig, SmartCrowdPlatform
        from repro.detection import build_detector_fleet, build_system

        platform = SmartCrowdPlatform(
            PAPER_HASHPOWER_SHARES,
            build_detector_fleet(),
            PlatformConfig(seed=7),
        )
        system = build_system("camera-x", vulnerability_count=2)
        platform.announce_release("provider-1", system)
        platform.advance_for(1500.0)
        return platform.query_service("provider-1", runtime=platform.runtime)

    def test_log_pages_chain_to_full_listing(self):
        svc = self._event_service()
        full = svc.serve(
            QueryRequest.get_logs("InitialReportConfirmed", limit=MAX_PAGE_LIMIT)
        ).result
        assert len(full["rows"]) >= 2, "platform run should confirm reports"
        rows, cursor = [], None
        while True:
            result = svc.serve(
                QueryRequest.get_logs(
                    "InitialReportConfirmed", limit=1, after=cursor
                )
            ).result
            rows.extend(result["rows"])
            if result["next_cursor"] is None:
                break
            cursor = result["next_cursor"]
        assert rows == full["rows"]

    def test_log_cursor_is_append_only_stable(self):
        svc = self._event_service()
        page = svc.serve(
            QueryRequest.get_logs("InitialReportConfirmed", limit=1)
        ).result
        assert page["truncated"] and page["next_cursor"] == "1"

    def test_logs_need_a_runtime(self, busy_service):
        svc, _, _ = busy_service
        response = svc.serve(QueryRequest.get_logs("Anything"))
        assert not response.ok and "runtime" in response.error


class TestValidation:
    @pytest.mark.parametrize("bad", [0, -2, True, 2.5, "10"])
    def test_bad_limits_rejected(self, busy_service, bad):
        svc, _, _ = busy_service
        response = svc.serve(QueryRequest.get_reports(limit=bad))
        assert not response.ok and "limit" in response.error

    def test_oversized_limit_rejected_not_clamped(self, busy_service):
        svc, _, _ = busy_service
        response = svc.serve(QueryRequest.get_reports(limit=MAX_PAGE_LIMIT + 1))
        assert not response.ok and str(MAX_PAGE_LIMIT) in response.error

    @pytest.mark.parametrize(
        "bad",
        ["nonsense", "1:2", "a:b:ff", "-1:0:" + "00" * 32, "1:2:zz", 123],
    )
    def test_bad_entry_cursors_rejected(self, busy_service, bad):
        svc, _, _ = busy_service
        response = svc.serve(QueryRequest.get_reports(after=bad))
        assert not response.ok and "cursor" in response.error

    def test_bad_log_cursors_rejected(self):
        svc = self._make_runtime_service()
        for bad in ("abc", "-3", True):
            response = svc.serve(QueryRequest.get_logs("X", after=bad))
            assert not response.ok and "cursor" in response.error

    @staticmethod
    def _make_runtime_service():
        from repro.contracts.vm import ContractRuntime

        chain, _ = build_mixed_chain(seed=107, blocks=4)
        return QueryService(chain=chain, runtime=ContractRuntime())
