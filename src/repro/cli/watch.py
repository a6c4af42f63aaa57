"""``goofi watch`` — the paper's progress window (Figure 7), live.

Attaches to a running campaign's event stream (``goofi run
--events=live.sock`` on the other side) or replays a recorded JSONL
file, and renders what the original GUI showed: experiments completed,
per-outcome counts, throughput/ETA, phase breakdown, and worker health.

Two transports:

* **live** — ``goofi watch live.sock`` binds a unix-domain datagram
  socket (start ``watch`` first, then point ``goofi run --events`` at
  the same path); ``goofi watch udp://127.0.0.1:9999`` binds UDP.
* **replay** — ``goofi watch --replay run.jsonl`` consumes a recorded
  stream.  With ``--once`` it processes the file in one pass and
  prints the final summary (deterministic: the summary is a pure
  function of the records); without it, the reader follows the file
  like ``tail -f`` until a terminal campaign event arrives.

On a TTY the display redraws in place per experiment; otherwise (CI
logs, pipes) it degrades to one plain status line per campaign
lifecycle event and per block of 50 finished experiments, plus the
final summary, so logs stay readable.  ``goofi run`` draws its progress
ticker with the same model and renderer (:class:`ProgressTicker`, a
subscriber on the run's event bus).
"""

from __future__ import annotations

import json
import socket
import sys
import time
from collections import Counter

from ..core.events import EventSink, iter_jsonl

#: Datagram receive buffer — comfortably above the sender's cap.
_RECV_BYTES = 65536

#: Seconds between poll iterations when following a growing file or an
#: idle socket.
_POLL_SECONDS = 0.2

#: Finished experiments per plain status line when not on a TTY.
_LINE_BLOCK = 50


class WatchModel:
    """Aggregated view of one campaign's event stream.

    ``consume`` folds one record at a time; every derived quantity
    (counts, phases, worker states) is a pure function of the records
    seen, so replaying the same stream always yields the same summary.
    """

    def __init__(self) -> None:
        self.campaign: str | None = None
        self.planned = 0
        self.pruned_upfront = 0
        self.total = 0
        self.completed = 0
        self.workers = 0
        self.outcomes: Counter[str] = Counter()
        self.pruned = 0
        self.spot_checks = 0
        self.replayed = 0
        self.rate = 0.0
        self.eta_seconds: float | None = None
        self.elapsed_seconds: float | None = None
        self.phases: dict[str, float] = {}
        self.spans = 0
        self.resource_samples = 0
        self.unknown_kinds: Counter[str] = Counter()
        self.worker_state: dict[int, str] = {}
        self.gate: dict | None = None
        self.finished = False
        self.aborted = False
        self.records = 0
        self.last_seq: int | None = None
        self.lost = 0

    # ------------------------------------------------------------------
    def consume(self, record: dict) -> None:
        self.records += 1
        seq = record.get("seq")
        if isinstance(seq, int):
            if self.last_seq is not None and seq > self.last_seq + 1:
                # Datagram transports are lossy by design; the gap-free
                # seq lets us report (not hide) the loss.
                self.lost += seq - self.last_seq - 1
            self.last_seq = seq
        kind = record.get("kind")
        if kind == "campaign_planned":
            self.campaign = record.get("campaign")
            self.planned = record.get("planned", 0)
            self.pruned_upfront = record.get("pruned", 0)
            self.total = record.get("to_run", 0)
            self.workers = record.get("workers", 1)
        elif kind == "campaign_started":
            self.campaign = record.get("campaign", self.campaign)
            self.total = record.get("total", self.total)
            self.workers = record.get("workers", self.workers)
        elif kind == "experiment_finished":
            self.campaign = record.get("campaign", self.campaign)
            outcome = record.get("outcome", "unknown")
            self.outcomes[outcome] += 1
            if record.get("pruned"):
                self.pruned += 1
            if record.get("spot_check"):
                self.spot_checks += 1
            if record.get("representative"):
                # A memo follower: its row was replayed from the run of
                # the experiment named here.
                self.replayed += 1
            completed = record.get("completed")
            if completed is not None:
                self.completed = max(self.completed, completed)
            if record.get("rate"):
                self.rate = record["rate"]
            self.eta_seconds = record.get("eta_seconds", self.eta_seconds)
        elif kind == "span":
            self.spans += 1
            span = record.get("span") or {}
            for phase, seconds in (span.get("phases") or {}).items():
                self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        elif kind == "worker_started":
            self.worker_state[record.get("worker", -1)] = "running"
        elif kind == "worker_done":
            self.worker_state[record.get("worker", -1)] = "done"
        elif kind == "worker_failed":
            self.worker_state[record.get("worker", -1)] = "FAILED"
        elif kind == "campaign_finished":
            self.finished = True
            self.elapsed_seconds = record.get("elapsed_seconds")
        elif kind == "campaign_aborted":
            self.finished = True
            self.aborted = True
            self.elapsed_seconds = record.get("elapsed_seconds")
        elif kind == "resource_sample":
            self.resource_samples += 1
        elif kind == "metrics":
            pass  # the final telemetry snapshot: goofi stats reports it
        elif kind == "gate_verdict":
            self.gate = record
        else:
            # Event kinds are additive within a schema version: a newer
            # writer may emit kinds this reader predates.  Skip them,
            # but count what was skipped so the summary says so instead
            # of silently under-reporting.
            self.unknown_kinds[str(kind)] += 1

    @property
    def done(self) -> bool:
        return self.finished

    # ------------------------------------------------------------------
    def status_line(self) -> str:
        from ..core.progress import format_duration

        name = self.campaign or "?"
        fraction = self.completed / self.total if self.total else 0.0
        parts = [
            f"[{name}] {self.completed}/{self.total} ({fraction:.0%})"
        ]
        if self.rate:
            parts.append(f"{self.rate:.1f} exp/s")
            if self.eta_seconds is not None and self.completed < self.total:
                parts.append(f"ETA {format_duration(self.eta_seconds)}")
        if self.outcomes:
            top = ", ".join(
                f"{outcome}:{count}"
                for outcome, count in sorted(self.outcomes.items())
            )
            parts.append(top)
        return "  ".join(parts)

    def summary(self) -> str:
        from ..core.progress import format_duration

        name = self.campaign or "?"
        lines = [f"campaign: {name}"]
        if self.planned:
            lines.append(
                f"planned: {self.planned} experiments "
                f"({self.pruned_upfront} pruned up front, {self.total} to run)"
            )
        status = "running"
        if self.finished:
            status = "aborted" if self.aborted else "completed"
        elapsed = (
            f" in {format_duration(self.elapsed_seconds)}"
            if self.elapsed_seconds is not None
            else ""
        )
        lines.append(
            f"status: {status} — {self.completed}/{self.total} experiments{elapsed}"
        )
        if self.outcomes:
            lines.append("outcomes:")
            for outcome, count in sorted(self.outcomes.items()):
                lines.append(f"  {outcome:<24} {count}")
        if self.pruned or self.spot_checks or self.replayed:
            lines.append(
                f"provenance: {self.pruned} pruned, "
                f"{self.replayed} replayed, "
                f"{self.spot_checks} spot-checked"
            )
        if self.phases:
            lines.append(f"phases (from {self.spans} span records):")
            for phase, seconds in sorted(
                self.phases.items(), key=lambda item: -item[1]
            ):
                lines.append(f"  {phase:<24} {seconds:.3f}s")
        if self.worker_state:
            states = ", ".join(
                f"{worker}:{state}"
                for worker, state in sorted(self.worker_state.items())
            )
            lines.append(f"workers: {states}")
        if self.resource_samples:
            lines.append(f"resource samples: {self.resource_samples}")
        if self.unknown_kinds:
            skipped = ", ".join(
                f"{kind} ({count})"
                for kind, count in sorted(self.unknown_kinds.items())
            )
            lines.append(f"unrecognized kinds skipped: {skipped}")
        if self.gate is not None:
            verdict = "PASSED" if self.gate.get("passed") else "FAILED"
            lines.append(f"gate: {verdict}")
        if self.lost:
            lines.append(f"warning: {self.lost} event(s) lost in transport")
        return "\n".join(lines)


class _Renderer:
    """TTY-aware progress display: redraw-in-place on a terminal, one
    plain line per lifecycle change and per block of finished
    experiments otherwise."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.tty = self.stream.isatty()
        self._dangling = False

    def update(self, model: WatchModel, record: dict) -> None:
        kind = record.get("kind")
        if self.tty:
            if kind in ("experiment_finished", "campaign_started"):
                print(
                    f"\r\x1b[2K{model.status_line()}",
                    end="",
                    file=self.stream,
                    flush=True,
                )
                self._dangling = True
            elif kind in ("campaign_finished", "campaign_aborted"):
                print(f"\r\x1b[2K{model.status_line()}", file=self.stream)
                self._dangling = False
        elif kind in (
            "campaign_planned",
            "campaign_started",
            "campaign_finished",
            "campaign_aborted",
            "worker_failed",
            "gate_verdict",
        ) or (
            # Up-front pruned records carry no progress counter.
            kind == "experiment_finished"
            and record.get("completed")
            and record["completed"] % _LINE_BLOCK == 0
        ):
            print(f"{kind}: {model.status_line()}", file=self.stream)

    def finish(self, model: WatchModel) -> None:
        if self._dangling:
            print("", file=self.stream)
            self._dangling = False


class ProgressTicker(EventSink):
    """Progress display as an event-bus subscriber: folds each record
    into a :class:`WatchModel` and draws it with the ``goofi watch``
    renderer (on stderr unless ``stream`` is given).  ``goofi run``
    attaches one unless ``--quiet``; closing the bus ends a dangling
    TTY line."""

    wants_line = False

    def __init__(self, stream=None) -> None:
        self.model = WatchModel()
        self.renderer = _Renderer(stream)

    def write(self, record: dict, line: str | None) -> None:
        self.model.consume(record)
        self.renderer.update(self.model, record)

    def close(self) -> None:
        self.renderer.finish(self.model)


def _replay_records(path: str, follow: bool):
    """Records from a JSONL file; with ``follow`` keep polling for
    appended lines (live file tail) until a terminal event shows up."""
    if not follow:
        yield from iter_jsonl(path)
        return
    with open(path, "r", encoding="utf-8") as handle:
        buffered = ""
        while True:
            chunk = handle.readline()
            if not chunk:
                time.sleep(_POLL_SECONDS)
                continue
            buffered += chunk
            if not buffered.endswith("\n"):
                continue  # partial line — wait for the writer's flush
            line = buffered.strip()
            buffered = ""
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            yield record
            if record.get("kind") in ("campaign_finished", "campaign_aborted"):
                return


def _socket_records(destination: str, timeout: float | None):
    """Records from a bound datagram socket (unix-domain path or
    ``udp://host:port``).  Stops on a terminal campaign event or, with
    ``timeout``, after that many idle seconds."""
    from pathlib import Path

    if destination.startswith("udp://"):
        rest = destination[len("udp://"):]
        host, _, port = rest.rpartition(":")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((host or "127.0.0.1", int(port)))
    else:
        path = Path(destination)
        if path.exists() and path.is_socket():
            path.unlink()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM)
        sock.bind(destination)
    sock.settimeout(timeout if timeout is not None else _POLL_SECONDS)
    idle_started = time.monotonic()
    try:
        while True:
            try:
                payload = sock.recv(_RECV_BYTES)
            except socket.timeout:
                if timeout is not None:
                    return
                continue
            except InterruptedError:
                continue
            idle_started = time.monotonic()
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue
            yield record
            if record.get("kind") in ("campaign_finished", "campaign_aborted"):
                return
    finally:
        sock.close()
        if not destination.startswith("udp://"):
            Path(destination).unlink(missing_ok=True)


def watch(
    destination: str,
    replay: bool = False,
    once: bool = False,
    timeout: float | None = None,
    out=None,
    status=None,
) -> WatchModel:
    """Drive one watch session and return the final model.  ``out`` is
    the summary stream (default stdout), ``status`` the live-line
    stream (default stderr)."""
    out = out if out is not None else sys.stdout
    ticker = ProgressTicker(status)
    if replay:
        records = _replay_records(destination, follow=not once)
    else:
        records = _socket_records(destination, timeout)
    for record in records:
        ticker.write(record, None)
    ticker.close()
    print(ticker.model.summary(), file=out)
    return ticker.model


def cmd_watch(args) -> int:
    model = watch(
        args.destination,
        replay=args.replay,
        once=args.once,
        timeout=args.timeout,
    )
    if model.aborted:
        return 1
    return 0
