"""Campaign event stream: versioned, JSON-serialisable run records.

The paper's progress window (Figure 7) is a *live* view of a running
campaign; everything else in this reproduction has been post-mortem
(``goofi stats`` / ``goofi analyze`` read the database after the fact).
This module is the live layer: an :class:`EventBus` the campaign
engines emit structured records into, with pluggable sinks — a JSONL
file for recording, stdout for piping, and local unix-domain/UDP
datagram sockets for ``goofi watch`` to attach to.  It is also the
wire format the ROADMAP's ``goofi serve`` will put on the network.

Every record is a flat JSON object with four envelope fields::

    {"v": 1, "seq": 17, "ts": 1754550000.123456, "kind": "...", ...}

``v`` is the schema version (bump on incompatible changes), ``seq`` a
per-run monotonically increasing counter (gap-free, so a reader can
detect datagram loss), ``ts`` a wall-clock unix timestamp, and ``kind``
one of the :data:`EVENT_KINDS` below.  Everything after the envelope is
kind-specific payload; phase-span events reuse the telemetry span
record (:class:`repro.core.telemetry.ExperimentSpan`) verbatim as their
``span`` payload, so the stream and the ``ExperimentSpan`` table speak
the same dialect.

The bus is the one way observation records leave a campaign run.  Every
run has one, possibly with no sinks of its own; the database and the
progress display are subscribers like any other sink (in-process ones
that take the record dict and never ask for its JSON line).  Emission
must never influence results: the campaign engines emit *after* an
experiment's row is final, and sinks never feed anything back.  A bus
whose sinks are all in-process builds no line; a span's payload alone
is always encoded, once, because the database stores that text.
"""

from __future__ import annotations

import json
import logging
import socket
import sys
import time
from pathlib import Path

from ..db.models import encode_span
from .errors import ConfigurationError

logger = logging.getLogger(__name__)

#: Version of the event record schema (the ``v`` envelope field).
EVENT_SCHEMA_VERSION = 1

#: Every record kind the campaign engines emit.
EVENT_KINDS = (
    "campaign_planned",     # plan generated (planned/pruned/to-run counts)
    "campaign_started",     # experiments about to run (total, workers)
    "experiment_finished",  # one experiment logged (outcome, progress, provenance)
    "span",                 # one telemetry span record (PR-4 payload, verbatim)
    "worker_started",       # a parallel worker process launched
    "worker_done",          # a parallel worker drained its shard cleanly
    "worker_failed",        # a parallel worker crashed or reported an error
    "campaign_finished",    # the run completed
    "campaign_aborted",     # the run was aborted (end request or failure)
    "gate_verdict",         # a dependability-gate verdict (goofi gate --events)
    "resource_sample",      # one worker CPU/RSS/shm sample (additive in v1:
                            # readers must skip unknown kinds, not fail)
    "metrics",              # the run's final telemetry snapshot (additive in v1)
)

#: Largest datagram we will send to a socket sink.  Span events for
#: detail-mode experiments can exceed typical datagram limits; oversized
#: records are dropped (with a debug log) rather than failing the run.
_MAX_DATAGRAM = 60_000

#: One shared compact encoder: the bus serialises each record exactly
#: once (sinks receive the encoded line alongside the dict), and the
#: envelope-first literal construction keeps the field order
#: deterministic without paying for ``sort_keys`` per event.  A ``span``
#: record's payload is the exception: it is encoded on its own, sorted,
#: and spliced in (:meth:`EventBus.span`).
_encode = json.JSONEncoder(separators=(",", ":")).encode


class EventSink:
    """Interface of one event destination.  ``write`` takes the record
    dict plus its one-shot JSON encoding (no trailing newline); sinks
    must never raise into the campaign loop — delivery problems are
    logged and dropped.  In-process subscribers set ``wants_line`` to
    False: the bus then encodes a record only when some other sink
    needs the line, and passes ``None`` when none does."""

    wants_line = True

    def write(self, record: dict, line: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def write_span(self, record: dict, line: str | None, span_json: str) -> None:
        """Deliver one ``span`` record (:meth:`EventBus.span`) along with
        ``span_json``, its span already encoded by
        :func:`~repro.db.models.encode_span`.  A sink that keeps the
        span's text overrides this; the rest take a plain :meth:`write`."""
        self.write(record, line)

    def close(self) -> None:
        return None


class JsonlEventSink(EventSink):
    """Append events to a JSON-lines file (or stdout for ``"-"``),
    flushing after every record so an aborted run still leaves a
    parseable file."""

    def __init__(self, path: str | Path) -> None:
        self.path = str(path)
        self._file = None

    def write(self, record: dict, line: str) -> None:
        if self._file is None:
            if self.path == "-":
                self._file = sys.stdout
            else:
                self._file = open(self.path, "a", encoding="utf-8")
        self._file.write(line + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None and self._file is not sys.stdout:
            self._file.close()
        self._file = None


class DatagramEventSink(EventSink):
    """Fire-and-forget datagram delivery to a local listener.

    Two address forms: a filesystem path (unix-domain datagram socket —
    create the listener with ``goofi watch PATH`` first) or a
    ``(host, port)`` tuple (UDP).  A missing or slow listener must not
    perturb the campaign: every send error is swallowed (logged at
    debug) and the record dropped — the JSONL sink is the lossless
    channel; sockets are a best-effort live feed.
    """

    def __init__(self, address: str | tuple[str, int]) -> None:
        self.address = address
        if isinstance(address, tuple):
            self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        else:
            self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        self._socket.setblocking(False)

    def write(self, record: dict, line: str) -> None:
        payload = line.encode("utf-8")
        if len(payload) > _MAX_DATAGRAM:
            logger.debug(
                "dropping oversized %r event (%d bytes)",
                record.get("kind"), len(payload),
            )
            return
        try:
            self._socket.sendto(payload, self.address)
        except OSError as exc:
            logger.debug(
                "dropping %r event: %s", record.get("kind"), exc
            )

    def close(self) -> None:
        self._socket.close()


class EventBus:
    """The per-run event emitter the campaign engines carry.

    Sequence numbers are per-bus and gap-free; the bus stamps the
    envelope and fans the record out to every sink in ``sinks`` (a
    plain list: a campaign run appends its database subscriber for the
    run's duration), JSON-encoding it at most once and only when a sink
    wants the line.  One bus serves one campaign run (serial or the
    parallel *coordinator* — workers never own sinks; their results
    flow through the coordinator, which emits in deterministic plan
    order).
    """

    __slots__ = ("sinks", "_seq")

    def __init__(self, sinks: list[EventSink] | tuple[EventSink, ...] = ()) -> None:
        self.sinks = list(sinks)
        self._seq = 0

    def _stamp(self, kind: str, fields: dict) -> dict:
        self._seq += 1
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self._seq,
            "ts": round(time.time(), 6),
            "kind": kind,
            **fields,
        }

    def emit(self, kind: str, **fields) -> dict:
        """Stamp the envelope and deliver one record to every sink."""
        record = self._stamp(kind, fields)
        line = None
        for sink in self.sinks:
            if line is None and sink.wants_line:
                line = _encode(record)
            sink.write(record, line)
        return record

    def span(self, campaign: str, span: dict) -> dict:
        """Deliver the ``span`` record of one telemetry span, which
        carries ``span`` verbatim as its ``span`` field.

        The span is encoded exactly once, by
        :func:`~repro.db.models.encode_span` (compact, sorted keys).  A
        line, when some sink wants one, is the envelope's encoding with
        that text spliced in as the last field; every sink receives the
        text through :meth:`EventSink.write_span`, so the database
        stores the very text the stream carries.
        """
        span_json = encode_span(span)
        record = self._stamp("span", {"campaign": campaign, "worker": span["worker"]})
        line = None
        for sink in self.sinks:
            if sink.wants_line:
                line = f'{_encode(record)[:-1]},"span":{span_json}}}'
                break
        record["span"] = span
        for sink in self.sinks:
            sink.write_span(record, line, span_json)
        return record

    def experiment_finished(
        self,
        progress_event,
        *,
        pruned: bool = False,
        spot_check: bool = False,
        worker: int = 0,
        completed: int | None = None,
        representative: str | None = None,
    ) -> dict:
        """The per-experiment record, built from a
        :class:`~repro.core.progress.ProgressEvent` (which carries the
        rolling rate/ETA).  ``completed`` overrides the progress
        counter when the coordinator releases buffered events in plan
        order (arrival order and release order differ there).
        ``representative`` names the experiment whose run a memo
        follower's row was replayed from (``None`` for any other)."""
        return self.emit(
            "experiment_finished",
            campaign=progress_event.campaign_name,
            experiment=progress_event.experiment_name,
            outcome=progress_event.outcome,
            completed=(
                progress_event.completed if completed is None else completed
            ),
            total=progress_event.total,
            elapsed_seconds=round(progress_event.elapsed_seconds, 6),
            rate=round(progress_event.rate, 6),
            eta_seconds=(
                None
                if progress_event.eta_seconds is None
                else round(progress_event.eta_seconds, 6)
            ),
            pruned=pruned,
            spot_check=spot_check,
            worker=worker,
            representative=representative,
        )

    def close(self) -> None:
        for sink in self.sinks:
            try:
                sink.close()
            except Exception:  # noqa: BLE001 - cleanup must not raise
                logger.debug("event sink close failed", exc_info=True)
        self.sinks = []


def events_destination_sink(destination: str) -> EventSink:
    """Build the sink for one ``--events[=DEST]`` destination string:

    * ``"-"`` — JSONL on stdout (pipe-friendly; pair with the stderr
      progress ticker);
    * ``"udp://host:port"`` — UDP datagrams to a listener;
    * a path ending in ``.sock`` (or an existing socket file) —
      unix-domain datagrams to a ``goofi watch`` listener;
    * anything else — a JSONL file appended at that path.
    """
    if destination == "-":
        return JsonlEventSink("-")
    if destination.startswith("udp://"):
        rest = destination[len("udp://"):]
        host, _, port = rest.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(
                f"bad UDP events destination {destination!r}; "
                f"expected udp://host:port"
            )
        return DatagramEventSink((host, int(port)))
    path = Path(destination)
    if destination.endswith(".sock") or (path.exists() and path.is_socket()):
        return DatagramEventSink(destination)
    return JsonlEventSink(destination)


def resolve_events(value) -> EventBus:
    """Normalise the ``run_campaign(events=...)`` knob.

    Accepts a ready :class:`EventBus`, a destination string (see
    :func:`events_destination_sink`), a list of sinks, or ``None`` /
    ``False`` (a bus with no sinks of its own).
    """
    if value is None or value is False:
        return EventBus()
    if isinstance(value, EventBus):
        return value
    if isinstance(value, str):
        return EventBus([events_destination_sink(value)])
    if isinstance(value, (list, tuple)):
        return EventBus(list(value))
    raise ConfigurationError(
        f"events must be a destination string, sink list, or EventBus; "
        f"got {value!r}"
    )


def iter_jsonl(path: str | Path):
    """Yield parsed records from a JSON-lines file, tolerating the
    truncated final line an aborted writer can leave behind: an
    undecodable line is skipped with a warning instead of crashing the
    reader (``goofi watch --replay``, trend analysis)."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                logger.warning(
                    "%s:%d: skipping undecodable JSONL line (truncated "
                    "write?)", path, number,
                )
