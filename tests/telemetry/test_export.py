"""Round-trip tests: emit → JSONL → parse → report."""

import io
import json

import pytest

from repro.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    read_jsonl,
    summarize_run,
    write_jsonl,
)


def _populated() -> Telemetry:
    telemetry = Telemetry()
    telemetry.counter("gossip.messages", status="sent").inc(10)
    telemetry.counter("gossip.messages", status="dropped").inc(2)
    telemetry.gauge("sim.queue_depth").set(7)
    telemetry.histogram("mining.interval_seconds").observe(15.35)
    telemetry.histogram("mining.interval_seconds").observe(14.0)
    telemetry.event("fault", kind="crash", target="provider-1")
    telemetry.event("block.mined", miner="provider-2", height=3)
    return telemetry


class TestRoundTrip:
    def test_emit_jsonl_report(self, tmp_path):
        telemetry = _populated()
        path = str(tmp_path / "run.jsonl")
        lines = telemetry.export_jsonl(path, meta={"seed": 7})
        # header + 2 events + 4 metric series
        assert lines == 1 + 2 + 4
        record = read_jsonl(path)
        assert record.meta["seed"] == 7
        assert record.events_by_kind() == {"fault": 1, "block.mined": 1}
        sent = record.metric("gossip.messages", status="sent")
        assert sent["value"] == 10
        interval = record.metric("mining.interval_seconds")
        assert interval["count"] == 2
        assert interval["max"] == 15.35

        report = summarize_run(path)
        assert "fault" in report
        assert "gossip.messages{status=sent} = 10" in report
        assert "mining.interval_seconds" in report

    def test_every_line_is_valid_json(self):
        buffer = io.StringIO()
        write_jsonl(_populated(), buffer)
        buffer.seek(0)
        rows = [json.loads(line) for line in buffer if line.strip()]
        assert rows[0]["type"] == "meta"
        assert rows[0]["format"] == "repro.telemetry/v1"
        assert {row["type"] for row in rows[1:]} <= {
            "trace", "counter", "gauge", "histogram"
        }

    def test_handle_and_path_destinations_agree(self, tmp_path):
        telemetry = _populated()
        buffer = io.StringIO()
        write_jsonl(telemetry, buffer)
        path = str(tmp_path / "run.jsonl")
        write_jsonl(telemetry, path)
        with open(path) as written:
            assert buffer.getvalue() == written.read()

    def test_summarize_accepts_run_record(self):
        buffer = io.StringIO()
        write_jsonl(_populated(), buffer)
        buffer.seek(0)
        record = read_jsonl(buffer)
        assert summarize_run(record) == summarize_run(
            io.StringIO(buffer.getvalue())
        )

    def test_null_telemetry_exports_header_only(self):
        buffer = io.StringIO()
        lines = write_jsonl(NULL_TELEMETRY, buffer)
        assert lines == 1

    def test_metric_rows_lists_all_series(self):
        buffer = io.StringIO()
        write_jsonl(_populated(), buffer)
        buffer.seek(0)
        record = read_jsonl(buffer)
        assert len(record.metric_rows("gossip.messages")) == 2


class TestMalformedInput:
    """Anything that is not a telemetry row is a ``ValueError`` naming its line."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nope", "not JSON"),
            ("[1]", "JSON object"),
            ('"s"', "JSON object"),
            ("7", "JSON object"),
            ('{"type": "trace"}', "'time'"),
            ('{"type": "trace", "time": "soon", "kind": "k"}', "'time'"),
            ('{"type": "counter", "name": "c", "labels": {}}', "'value'"),
            ('{"type": "gauge", "name": "g", "labels": [], "value": 1}', "'labels'"),
            ('{"type": "histogram", "name": "h", "labels": {}, "count": 2}', "'mean'"),
            ('{"type": "bogus"}', "unknown telemetry row type 'bogus'"),
            ('{"kind": "no type"}', "unknown telemetry row type None"),
        ],
    )
    def test_bad_line_is_a_value_error_naming_it(self, line, message):
        buffer = io.StringIO('{"type": "meta"}\n\n' + line + "\n")
        with pytest.raises(ValueError, match="line 3") as error:
            read_jsonl(buffer)
        assert message in str(error.value)

    def test_an_empty_histogram_needs_no_stats(self):
        buffer = io.StringIO(
            '{"type": "histogram", "name": "h", "labels": {}, "count": 0,'
            ' "mean": null, "min": null, "max": null}\n'
        )
        assert "h count=0" in summarize_run(buffer)
