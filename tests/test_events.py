"""Tests for the campaign event stream (bus, sinks, engine threading).

The contracts under test: the envelope is versioned and gap-free, the
stream never perturbs logged rows (off vs on, in every engine), the
parallel coordinator emits a worker-count-invariant record sequence,
and ``goofi watch --replay`` is a deterministic fold over the records.
"""

from __future__ import annotations

import json
import socket

import pytest

from tests.conftest import make_campaign
from repro.core.errors import ConfigurationError
from repro.core.events import (
    EVENT_SCHEMA_VERSION,
    DatagramEventSink,
    EventBus,
    EventSink,
    JsonlEventSink,
    events_destination_sink,
    iter_jsonl,
    resolve_events,
)


class RecordingSink(EventSink):
    def __init__(self):
        self.records = []
        self.lines = []
        self.closed = False

    def write(self, record, line):
        self.records.append(record)
        self.lines.append(line)

    def close(self):
        self.closed = True


class InProcessSink(RecordingSink):
    """An in-process subscriber that also keeps each span's text."""

    wants_line = False

    def __init__(self):
        super().__init__()
        self.texts = []

    def write_span(self, record, line, span_json):
        self.texts.append(span_json)
        self.write(record, line)


def rows_by_name(db, campaign: str) -> dict:
    return {
        record.experiment_name.split("/", 1)[1]: (
            record.experiment_data,
            record.state_vector,
            record.parent_experiment,
        )
        for record in db.iter_experiments(campaign)
    }


def read_events(path) -> list[dict]:
    return list(iter_jsonl(path))


def stable_fields(record: dict) -> tuple:
    """The deterministic subset of an ``experiment_finished`` record —
    everything except wall-clock-derived fields."""
    return (
        record["campaign"],
        record["experiment"],
        record["outcome"],
        record["completed"],
        record["total"],
        record["pruned"],
        record["spot_check"],
    )


class TestEnvelope:
    def test_versioned_gap_free_sequence(self):
        sink = RecordingSink()
        bus = EventBus([sink])
        for _ in range(5):
            bus.emit("campaign_started", campaign="c", total=1, workers=1)
        assert [r["seq"] for r in sink.records] == [1, 2, 3, 4, 5]
        assert all(r["v"] == EVENT_SCHEMA_VERSION for r in sink.records)
        assert all(isinstance(r["ts"], float) for r in sink.records)

    def test_line_matches_record(self):
        sink = RecordingSink()
        bus = EventBus([sink])
        record = bus.emit("gate_verdict", campaign="c", passed=True)
        assert json.loads(sink.lines[0]) == record == sink.records[0]

    def test_envelope_fields_lead_the_line(self):
        """Field order is deterministic without sort_keys: envelope
        first, then payload in emit-call order."""
        sink = RecordingSink()
        EventBus([sink]).emit("span", campaign="c", worker=1)
        assert sink.lines[0].startswith('{"v":')
        assert list(json.loads(sink.lines[0])) == [
            "v", "seq", "ts", "kind", "campaign", "worker",
        ]

    def test_close_closes_sinks_once(self):
        sink = RecordingSink()
        bus = EventBus([sink])
        bus.close()
        bus.close()
        assert sink.closed
        assert bus.sinks == []

    def test_in_process_sinks_get_no_encoding(self, monkeypatch):
        """A bus whose sinks are all in-process subscribers never
        JSON-encodes: they get ``None`` for the line, while the record
        envelope stays gap-free.  One wire sink encodes once for all."""
        import repro.core.events as events

        encoded = []

        def counting_encode(record):
            encoded.append(record["seq"])
            return json.dumps(record)

        monkeypatch.setattr(events, "_encode", counting_encode)

        class Subscriber(RecordingSink):
            wants_line = False

        subscriber = Subscriber()
        bus = EventBus([subscriber])
        bus.emit("campaign_started", campaign="c", total=1, workers=1)
        assert EventBus().emit("span", campaign="c")["seq"] == 1
        assert encoded == []
        assert subscriber.lines == [None]
        wire = RecordingSink()
        bus.sinks.append(wire)
        bus.emit("campaign_finished", campaign="c")
        assert encoded == [2]
        assert json.loads(wire.lines[0])["seq"] == 2


class TestSpanRecord:
    """``EventBus.span``: the span is encoded once, the line splices that
    text in, and every sink gets the same text."""

    SPAN = {"worker": 1, "experiment": "c/e0", "phases": {"setup": 0.5}, "a": [1, 2]}

    def test_line_splices_the_span_text(self):
        wire, keeper = RecordingSink(), InProcessSink()
        record = EventBus([keeper, wire]).span("c", dict(self.SPAN))
        assert record["span"] == self.SPAN
        assert keeper.records == wire.records == [record]
        assert keeper.texts == [
            json.dumps(self.SPAN, sort_keys=True, separators=(",", ":"))
        ]
        line = wire.lines[0]
        assert json.loads(line) == record
        assert line.endswith(',"span":' + keeper.texts[0] + "}")
        assert list(json.loads(line)) == [
            "v", "seq", "ts", "kind", "campaign", "worker", "span",
        ]

    def test_in_process_sinks_get_no_line(self, monkeypatch):
        import repro.core.events as events

        monkeypatch.setattr(
            events, "_encode", lambda record: pytest.fail("line was built")
        )
        keeper = InProcessSink()
        bus = EventBus([keeper])
        bus.emit("campaign_started", campaign="c", total=1, workers=1)
        bus.span("c", dict(self.SPAN))
        assert keeper.lines == [None, None]
        assert [r["seq"] for r in keeper.records] == [1, 2]
        assert len(keeper.texts) == 1


class TestResolveEvents:
    def test_none_and_false_are_off(self):
        """No destination still gives a live bus — just one with no
        sinks of its own."""
        for value in (None, False):
            bus = resolve_events(value)
            assert isinstance(bus, EventBus)
            assert bus.sinks == []
        assert resolve_events(None) is not resolve_events(None)

    def test_bus_passes_through(self):
        bus = EventBus()
        assert resolve_events(bus) is bus

    def test_string_builds_jsonl_sink(self, tmp_path):
        bus = resolve_events(str(tmp_path / "e.jsonl"))
        assert isinstance(bus.sinks[0], JsonlEventSink)

    def test_sink_list(self):
        sink = RecordingSink()
        bus = resolve_events([sink])
        assert bus.sinks == [sink]

    def test_garbage_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_events(42)


class TestDestinationSink:
    def test_dash_is_stdout_jsonl(self):
        sink = events_destination_sink("-")
        assert isinstance(sink, JsonlEventSink)
        assert sink.path == "-"

    def test_udp_address(self):
        sink = events_destination_sink("udp://127.0.0.1:9123")
        assert isinstance(sink, DatagramEventSink)
        assert sink.address == ("127.0.0.1", 9123)
        sink.close()

    def test_bad_udp_rejected(self):
        with pytest.raises(ConfigurationError):
            events_destination_sink("udp://nowhere")

    def test_sock_suffix_is_datagram(self, tmp_path):
        sink = events_destination_sink(str(tmp_path / "live.sock"))
        assert isinstance(sink, DatagramEventSink)
        sink.close()

    def test_plain_path_is_jsonl(self, tmp_path):
        sink = events_destination_sink(str(tmp_path / "events.log"))
        assert isinstance(sink, JsonlEventSink)


class TestJsonlSink:
    def test_every_record_is_flushed(self, tmp_path):
        """An aborted writer leaves a parseable file: each record is a
        complete flushed line before the next emit."""
        path = tmp_path / "e.jsonl"
        bus = EventBus([JsonlEventSink(path)])
        bus.emit("campaign_started", campaign="c", total=2, workers=1)
        # Read back *without* closing the writer — the flush-per-record
        # contract means the line is already durable.
        assert [r["kind"] for r in iter_jsonl(path)] == ["campaign_started"]
        bus.close()

    def test_truncated_final_line_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "e.jsonl"
        path.write_text(
            '{"v": 1, "seq": 1, "kind": "campaign_started"}\n'
            '{"v": 1, "seq": 2, "kind": "experi'  # killed mid-write
        )
        with caplog.at_level("WARNING"):
            records = list(iter_jsonl(path))
        assert [r["seq"] for r in records] == [1]
        assert "truncated" in caplog.text

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('\n{"v": 1, "seq": 1, "kind": "span"}\n\n')
        assert len(list(iter_jsonl(path))) == 1


class TestDatagramSink:
    def test_delivers_to_bound_unix_socket(self, tmp_path):
        address = str(tmp_path / "live.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        listener.bind(address)
        listener.settimeout(2.0)
        bus = EventBus([DatagramEventSink(address)])
        bus.emit("campaign_started", campaign="c", total=1, workers=1)
        record = json.loads(listener.recv(65536).decode("utf-8"))
        assert record["kind"] == "campaign_started"
        bus.close()
        listener.close()

    def test_missing_listener_is_swallowed(self, tmp_path):
        bus = EventBus([DatagramEventSink(str(tmp_path / "nobody.sock"))])
        bus.emit("campaign_started", campaign="c", total=1, workers=1)
        assert bus._seq == 1  # the run carries on
        bus.close()

    def test_oversized_record_dropped(self, tmp_path):
        address = str(tmp_path / "live.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        listener.bind(address)
        listener.settimeout(0.2)
        bus = EventBus([DatagramEventSink(address)])
        bus.emit("span", campaign="c", blob="x" * 70_000)
        bus.emit("span", campaign="c", blob="small")
        record = json.loads(listener.recv(65536).decode("utf-8"))
        assert record["blob"] == "small"  # the oversized one never arrived
        bus.close()
        listener.close()


class TestSerialStream:
    def test_lifecycle_and_per_experiment_records(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=6, seed=31)
        session.run_campaign("c", events=str(path))
        records = read_events(path)
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "campaign_planned"
        assert kinds[1] == "campaign_started"
        assert kinds[-1] == "campaign_finished"
        assert kinds.count("experiment_finished") == 6
        assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
        finished = [r for r in records if r["kind"] == "experiment_finished"]
        assert [r["completed"] for r in finished] == [1, 2, 3, 4, 5, 6]
        assert all(r["total"] == 6 for r in finished)
        assert all(r["v"] == EVENT_SCHEMA_VERSION for r in records)

    def test_abort_emits_campaign_aborted(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=12, seed=32)

        def abort_early(event):
            if event.completed >= 3:
                session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            result = session.run_campaign("c", events=str(path))
        finally:
            session.progress.observers.remove(abort_early)
        assert result.aborted
        records = read_events(path)
        assert records[-1]["kind"] == "campaign_aborted"
        assert records[-1]["completed"] == result.experiments_run

    def test_span_events_reuse_telemetry_payload(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=4, seed=33)
        session.run_campaign("c", events=str(path), telemetry="spans")
        spans = [r["span"] for r in read_events(path) if r["kind"] == "span"]
        assert len(spans) == 4
        stored = session.db.iter_spans("c")
        assert [s["experiment"] for s in spans] == [
            record.experiment_name for record in stored
        ]
        assert all("phases" in s for s in spans)

    def test_gate_verdict_lands_on_the_same_stream(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "g.db")
        events = tmp_path / "gate.jsonl"
        pack = "examples/packs/quickstart.yaml"
        code = main([
            "gate", "--db", db, pack, "--events", str(events),
            "--experiments", "40",
        ])
        capsys.readouterr()
        records = read_events(events)
        verdicts = [r for r in records if r["kind"] == "gate_verdict"]
        assert len(verdicts) == 1
        assert verdicts[0]["seq"] == records[-1]["seq"]  # same bus, same run
        assert verdicts[0]["passed"] == (code == 0)


def span_text(line: str) -> str:
    """The exact text of the ``span`` value in one JSONL line."""
    start = line.index('"span":') + len('"span":')
    _, end = json.JSONDecoder().raw_decode(line, start)
    return line[start:end]


class TestSpansEncodedOnce:
    """A telemetered run encodes each span once: the ``spanJson`` column
    holds the very text of the span's JSONL line, compact with sorted
    keys, and the span rows of one flush share one ``createdAt``."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_span_json_is_the_line_text(self, session, tmp_path, workers):
        path = tmp_path / "run.jsonl"
        subscriber = InProcessSink()
        make_campaign(session, "c", num_experiments=6, seed=35)
        session.run_campaign(
            "c", workers=workers, telemetry="spans",
            events=[JsonlEventSink(path), subscriber],
        )
        lines = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            if json.loads(line)["kind"] == "span":
                text = span_text(line)
                lines[json.loads(text)["experiment"]] = text
        spans = {
            record["span"]["experiment"]: record["span"]
            for record in subscriber.records
            if record["kind"] == "span"
        }
        stored = session.db.execute_sql(
            "SELECT experimentName, spanJson, createdAt FROM ExperimentSpan "
            "WHERE campaignName = ?", ("c",),
        )
        assert len(stored) == len(lines) == len(spans) == 6
        for name, span_json, _ in stored:
            assert span_json == lines[name]
            assert json.loads(span_json) == spans[name]
            assert span_json == json.dumps(
                spans[name], sort_keys=True, separators=(",", ":")
            )
        assert sorted(subscriber.texts) == sorted(text for _, text, _ in stored)
        assert len({created for _, _, created in stored}) == 1

    @pytest.mark.parametrize("wire", [False, True])
    def test_each_span_encoded_once(self, session, tmp_path, monkeypatch, wire):
        import repro.core.events as events

        encoded = []
        monkeypatch.setattr(
            events, "encode_span",
            lambda span: encoded.append(span["experiment"]) or json.dumps(span),
        )
        make_campaign(session, "c", num_experiments=5, seed=36)
        session.run_campaign(
            "c", telemetry="spans",
            events=str(tmp_path / "run.jsonl") if wire else None,
        )
        assert sorted(encoded) == sorted(
            record.experiment_name for record in session.db.iter_spans("c")
        )
        assert len(encoded) == 5


class TestRowEquivalence:
    """Events on or off, the logged rows are bit-identical — in every
    engine."""

    def test_serial(self, session, tmp_path):
        make_campaign(session, "off", num_experiments=8, seed=41)
        session.run_campaign("off")
        make_campaign(session, "on", num_experiments=8, seed=41)
        session.run_campaign("on", events=str(tmp_path / "e.jsonl"))
        assert rows_by_name(session.db, "on") == rows_by_name(session.db, "off")

    def test_parallel(self, session, tmp_path):
        make_campaign(session, "off", num_experiments=8, seed=42)
        session.run_campaign("off", workers=2)
        make_campaign(session, "on", num_experiments=8, seed=42)
        session.run_campaign("on", workers=2, events=str(tmp_path / "e.jsonl"))
        assert rows_by_name(session.db, "on") == rows_by_name(session.db, "off")

    def test_checkpointed(self, session, tmp_path):
        make_campaign(session, "off", num_experiments=8, seed=43)
        session.run_campaign("off", checkpoints=True)
        make_campaign(session, "on", num_experiments=8, seed=43)
        session.run_campaign(
            "on", checkpoints=True, events=str(tmp_path / "e.jsonl")
        )
        assert rows_by_name(session.db, "on") == rows_by_name(session.db, "off")

    def test_pruned(self, session, tmp_path):
        make_campaign(session, "off", num_experiments=20, seed=62)
        session.run_campaign("off", prune=0.0)
        make_campaign(session, "on", num_experiments=20, seed=62)
        result = session.run_campaign(
            "on", prune=0.0, events=str(tmp_path / "e.jsonl")
        )
        assert result.prune["pruned"] > 0
        assert rows_by_name(session.db, "on") == rows_by_name(session.db, "off")


class TestParallelStream:
    def test_stream_is_worker_count_invariant(self, session, tmp_path):
        """The deterministic fields of the per-experiment records (and
        their order) do not depend on how many workers ran the plan —
        the coordinator releases events in plan order."""
        streams = {}
        for workers in (1, 2, 4):
            name = f"w{workers}"
            path = tmp_path / f"{name}.jsonl"
            make_campaign(session, name, num_experiments=10, seed=51)
            session.run_campaign(name, workers=workers, events=str(path))
            finished = [
                r
                for r in read_events(path)
                if r["kind"] == "experiment_finished"
            ]
            # The campaign name (and so the experiment-name prefix)
            # differs per run; everything else must not.
            streams[workers] = [
                (r["experiment"].split("/", 1)[1],) + stable_fields(r)[2:]
                for r in finished
            ]
        assert streams[2] == streams[1]
        assert streams[4] == streams[1]

    def test_empty_plan_takes_one_path_for_any_worker_count(
        self, session, tmp_path
    ):
        """Resuming a completed campaign leaves nothing to run: every
        worker count then records the same stream and result, and no
        worker process starts — so the coordinator's resource samples
        carry the in-process worker id, in the stream and the table."""
        import dataclasses

        make_campaign(session, "c", num_experiments=4, seed=54)
        session.run_campaign("c")
        # ``sample`` holds the sampler's CPU/RSS readings.
        wall_clock = {"ts", "elapsed_seconds", "rate", "eta_seconds", "sample"}
        streams, results = {}, {}
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.jsonl"
            result = session.run_campaign(
                "c", resume=True, workers=workers, checkpoints=True,
                events=str(path), resources=True,
            )
            results[workers] = {
                key: value
                for key, value in dataclasses.asdict(result).items()
                if key != "elapsed_seconds"
            }
            records = read_events(path)
            streams[workers] = [
                {key: value for key, value in record.items() if key not in wall_clock}
                for record in records
            ]
            samples = [r for r in records if r["kind"] == "resource_sample"]
            assert samples
            assert {r["worker"] for r in samples} == {0}
            assert {r["sample"]["worker"] for r in samples} == {0}
            assert {
                row.worker for row in session.db.iter_resource_samples("c")
            } == {0}
        assert streams[2] == streams[1]
        assert results[2] == results[1]
        started = next(r for r in streams[1] if r["kind"] == "campaign_started")
        assert started["workers"] == 1 and started["total"] == 0

    def test_worker_lifecycle_records(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=8, seed=52)
        session.run_campaign("c", workers=3, events=str(path))
        records = read_events(path)
        assert [r["kind"] for r in records if r["kind"].startswith("worker")] \
            .count("worker_started") == 3
        done = [r["worker"] for r in records if r["kind"] == "worker_done"]
        assert sorted(done) == [0, 1, 2]
        planned = next(r for r in records if r["kind"] == "campaign_planned")
        assert planned["workers"] == 3
        assert records[-1]["kind"] == "campaign_finished"

    def test_worker_failure_streams_worker_failed(
        self, session, tmp_path, monkeypatch
    ):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method to patch worker code")

        from repro.core.algorithms import FaultInjectionAlgorithms
        from repro.core.parallel import WorkerFailure

        path = tmp_path / "run.jsonl"
        original = FaultInjectionAlgorithms._run_scifi_experiment

        def crashing(self, config, spec, trace):
            if spec.index == 3:
                raise RuntimeError("worker wedged")
            return original(self, config, spec, trace)

        monkeypatch.setattr(
            FaultInjectionAlgorithms, "_run_scifi_experiment", crashing
        )
        make_campaign(session, "c", num_experiments=8, seed=53)
        with pytest.raises(WorkerFailure, match="worker wedged"):
            session.run_campaign("c", workers=2, events=str(path))
        records = read_events(path)
        kinds = [r["kind"] for r in records]
        assert "worker_failed" in kinds
        assert records[-1]["kind"] == "campaign_aborted"


class TestPrunedStream:
    def test_pruned_records_carry_provenance(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=20, seed=61)
        result = session.run_campaign("c", prune=1.0, events=str(path))
        assert result.prune["pruned"] > 0
        records = read_events(path)
        finished = [r for r in records if r["kind"] == "experiment_finished"]
        assert len(finished) == 20
        pruned = [r for r in finished if r["pruned"]]
        assert len(pruned) == result.prune["pruned"]
        # prune=1.0 spot-checks every pruned experiment: those rows are
        # simulated after all, so they stream with spot_check provenance.
        assert all(r["spot_check"] for r in pruned)
        planned = next(r for r in records if r["kind"] == "campaign_planned")
        # ``pruned`` counts every prunable experiment (spot-checked ones
        # included — they still run, so nothing streams up front).
        assert planned["pruned"] == result.prune["pruned"]
        assert not any(r["completed"] is None for r in finished)

    def test_skipped_experiments_stream_upfront(self, session, tmp_path):
        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=20, seed=62)
        result = session.run_campaign("c", prune=0.0, events=str(path))
        skipped = result.prune["skipped"]
        assert skipped > 0
        records = read_events(path)
        planned = next(r for r in records if r["kind"] == "campaign_planned")
        assert planned["pruned"] == skipped
        upfront = [
            r
            for r in records
            if r["kind"] == "experiment_finished" and r["completed"] is None
        ]
        assert len(upfront) == skipped
        assert all(r["pruned"] and not r["spot_check"] for r in upfront)


class TestWatchReplay:
    def test_replay_is_deterministic(self, session, tmp_path, capsys):
        from repro.cli.watch import watch

        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=6, seed=71)
        session.run_campaign("c", events=str(path), telemetry="spans")

        summaries = []
        for _ in range(2):
            model = watch(str(path), replay=True, once=True)
            summaries.append(model.summary())
        capsys.readouterr()
        assert summaries[0] == summaries[1]
        assert "status: completed — 6/6 experiments" in summaries[0]
        assert "phases" in summaries[0]

    def test_replay_counts_transport_loss(self, tmp_path, capsys):
        from repro.cli.watch import WatchModel

        model = WatchModel()
        model.consume({"v": 1, "seq": 1, "kind": "campaign_started",
                       "campaign": "c", "total": 5, "workers": 1})
        model.consume({"v": 1, "seq": 4, "kind": "campaign_finished",
                       "campaign": "c", "completed": 5, "total": 5})
        assert model.lost == 2
        assert "2 event(s) lost" in model.summary()

    def test_cli_watch_replay_once(self, session, tmp_path, capsys):
        from repro.cli.main import main

        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=4, seed=72)
        session.run_campaign("c", events=str(path))
        assert main(["watch", "--replay", "--once", str(path)]) == 0
        out = capsys.readouterr().out
        assert "campaign: c" in out
        assert "4/4 experiments" in out

    def test_cli_watch_replay_aborted_run_exits_one(
        self, session, tmp_path, capsys
    ):
        from repro.cli.main import main

        path = tmp_path / "run.jsonl"
        make_campaign(session, "c", num_experiments=12, seed=73)

        def abort_early(event):
            session.progress.end()

        session.progress.observers.append(abort_early)
        try:
            session.run_campaign("c", events=str(path))
        finally:
            session.progress.observers.remove(abort_early)
        assert main(["watch", "--replay", "--once", str(path)]) == 1
        assert "status: aborted" in capsys.readouterr().out


class TestLiveSocket:
    def test_run_streams_to_watch_socket(self, session, tmp_path):
        """End to end over the live transport: bind the watch socket,
        run a campaign at it, fold the datagrams."""
        import threading

        from repro.cli.watch import WatchModel, _socket_records

        address = str(tmp_path / "live.sock")
        model = WatchModel()
        ready = threading.Event()

        def listen():
            records = _socket_records(address, timeout=10.0)
            ready.set()
            for record in records:
                model.consume(record)

        thread = threading.Thread(target=listen)
        thread.start()
        # _socket_records binds lazily on first next(); nudge it.
        ready.wait(timeout=2.0)
        deadline = 50
        import os
        import time

        while not os.path.exists(address) and deadline:
            time.sleep(0.02)
            deadline -= 1
        make_campaign(session, "c", num_experiments=5, seed=81)
        session.run_campaign("c", events=address)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert model.finished and not model.aborted
        assert model.completed == 5


class TestCliRun:
    def test_run_events_flag_writes_jsonl(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "r.db")
        events = tmp_path / "run.jsonl"
        assert main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "5",
        ]) == 0
        assert main([
            "run", "--db", db, "c", "--quiet", "--events", str(events),
        ]) == 0
        capsys.readouterr()
        records = read_events(events)
        assert records[-1]["kind"] == "campaign_finished"
        assert sum(r["kind"] == "experiment_finished" for r in records) == 5

    def test_run_events_stdout_moves_summary_to_stderr(self, tmp_path, capsys):
        from repro.cli.main import main

        db = str(tmp_path / "r.db")
        assert main([
            "campaign", "create", "--db", db, "--name", "c",
            "--workload", "fibonacci", "--experiments", "3",
        ]) == 0
        capsys.readouterr()  # drain the create command's output
        assert main(["run", "--db", db, "c", "--quiet", "--events"]) == 0
        captured = capsys.readouterr()
        # stdout is pure JSONL — a machine can pipe it.
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert records[-1]["kind"] == "campaign_finished"
        assert "completed: 3/3 experiments" in captured.err
