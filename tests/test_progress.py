"""Tests for the progress reporter (the paper's progress window)."""

from __future__ import annotations

import io
import threading
import time

import pytest

from repro.cli.watch import ProgressTicker
from repro.core.events import EventBus
from repro.core.progress import (
    ProgressEvent,
    ProgressReporter,
    format_duration,
)


def tick(completed_counts, total, stream=None, finish=False):
    """Drive a progress ticker through one campaign's records: started,
    the given experiment completions, and (optionally) finished."""
    bus = EventBus([ProgressTicker(stream)])
    bus.emit("campaign_started", campaign="camp", total=total, workers=1)
    for completed in completed_counts:
        bus.emit(
            "experiment_finished",
            campaign="camp",
            experiment=f"camp/exp{completed - 1}",
            outcome="workload_end",
            completed=completed,
            total=total,
            rate=0.0,
            eta_seconds=None,
        )
    if finish:
        bus.emit("campaign_finished", campaign="camp", completed=total, total=total)
    bus.close()


class TestReporting:
    def test_observers_see_each_experiment(self):
        events: list[ProgressEvent] = []
        reporter = ProgressReporter(observers=[events.append])
        reporter.start("camp", 3)
        for i in range(3):
            reporter.experiment_done(f"camp/exp{i}", "workload_end")
        reporter.finish()
        assert [e.completed for e in events] == [1, 2, 3]
        assert all(e.total == 3 for e in events)
        assert events[-1].fraction == 1.0

    def test_event_carries_outcome_and_name(self):
        events = []
        reporter = ProgressReporter(observers=[events.append])
        reporter.start("camp", 1)
        reporter.experiment_done("camp/exp0", "error_detected")
        assert events[0].experiment_name == "camp/exp0"
        assert events[0].outcome == "error_detected"

    def test_start_resets_counters(self):
        reporter = ProgressReporter()
        reporter.start("a", 2)
        reporter.experiment_done("a/exp0", "x")
        reporter.start("b", 5)
        assert reporter.completed == 0
        assert reporter.total == 5

    def test_fraction_with_zero_total(self):
        event = ProgressEvent("c", 0, 0, "e", "o", 0.0)
        assert event.fraction == 1.0


class TestControl:
    def test_end_sets_abort_flag(self):
        reporter = ProgressReporter()
        reporter.start("camp", 10)
        reporter.end()
        assert reporter.abort_requested

    def test_pause_blocks_until_resume(self):
        reporter = ProgressReporter(poll_interval=0.001)
        reporter.start("camp", 2)
        reporter.pause()
        finished = threading.Event()

        def worker():
            reporter.experiment_done("camp/exp0", "ok")
            finished.set()

        thread = threading.Thread(target=worker)
        thread.start()
        time.sleep(0.05)
        assert not finished.is_set()  # still paused
        reporter.resume()
        thread.join(timeout=2)
        assert finished.is_set()

    def test_end_releases_a_paused_campaign(self):
        reporter = ProgressReporter(poll_interval=0.001)
        reporter.start("camp", 2)
        reporter.pause()
        finished = threading.Event()

        def worker():
            reporter.experiment_done("camp/exp0", "ok")
            finished.set()

        thread = threading.Thread(target=worker)
        thread.start()
        reporter.end()
        thread.join(timeout=2)
        assert finished.is_set()
        assert reporter.abort_requested


class TestFormatDuration:
    @pytest.mark.parametrize(
        ("seconds", "rendered"),
        [
            (0.0, "0.0s"),
            (9.94, "9.9s"),
            (9.96, "10s"),  # rounds up across the sub-10s format switch
            (59.4, "59s"),
            (59.7, "1m00s"),  # rounds up across the minute boundary
            (60.0, "1m00s"),
            (90.5, "1m30s"),  # round() at .5: banker's rounding is fine
            (90.6, "1m31s"),
            (3599.6, "1h00m"),
            (3600.0, "1h00m"),
            (7265.0, "2h01m"),
        ],
    )
    def test_boundaries(self, seconds, rendered):
        assert format_duration(seconds) == rendered

    def test_monotonic_across_boundaries(self):
        """The rendered value never decreases as the duration grows —
        the ``59.7 -> "60s" vs 60.0 -> "1m00s"`` glitch stays fixed."""

        def sort_key(text: str) -> float:
            if text.endswith("m") and "h" in text:
                hours, minutes = text[:-1].split("h")
                return float(hours) * 3600 + float(minutes) * 60
            if "m" in text:
                minutes, secs = text[:-1].split("m")
                return float(minutes) * 60 + float(secs)
            return float(text[:-1])

        samples = [i / 10 for i in range(0, 40000, 3)]
        rendered = [sort_key(format_duration(s)) for s in samples]
        assert rendered == sorted(rendered)

    def test_negative_clamped(self):
        assert format_duration(-5.0) == "0.0s"


class TestConsoleObserver:
    """The ``goofi run`` progress ticker: an event-bus subscriber drawing
    with the ``goofi watch`` renderer."""

    def test_prints_to_stderr_not_stdout(self, capsys):
        tick(range(1, 11), 10, finish=True)
        captured = capsys.readouterr()
        assert "10/10" in captured.err
        assert captured.out == ""

    def test_silent_between_blocks(self, capsys):
        tick([1, 2, 3], 10)
        err = capsys.readouterr().err
        assert err.startswith("campaign_started:")
        assert err.count("\n") == 1  # no experiment line before 50

    def test_prints_every_block_of_fifty(self, capsys):
        tick(range(1, 101), 200)
        lines = capsys.readouterr().err.splitlines()
        blocks = [line for line in lines if line.startswith("experiment_finished")]
        assert len(blocks) == 2
        assert "50/200" in blocks[0] and "100/200" in blocks[1]

    def test_non_tty_has_no_carriage_returns(self, capsys):
        """CI logs and redirected stderr get plain lines, never the
        ``\\r``-rewriting that turns a log file into one long line."""
        tick(range(1, 101), 100, finish=True)
        err = capsys.readouterr().err
        assert "\r" not in err
        # campaign_started, two blocks of 50, campaign_finished.
        assert err.count("\n") == 4

    def test_tty_rewrites_in_place(self):
        stream = io.StringIO()
        stream.isatty = lambda: True  # type: ignore[method-assign]
        tick([1, 2], 2, stream=stream)
        text = stream.getvalue()
        # campaign_started and every experiment redraw the line.
        assert text.count("\r") == 3
        assert text.endswith("\n")  # closing the bus terminates it
