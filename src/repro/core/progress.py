"""Campaign progress monitoring and control.

The paper's progress window (Figure 7) lets the user watch "the number
of faults injected" and "pause, restart or end the campaign".  This is
the headless equivalent: a :class:`ProgressReporter` the campaign loop
notifies after every experiment, with a control knob the observer can
flip to pause or abort.  Display is not done here: ``goofi run`` draws
its progress ticker from the campaign event stream
(:class:`repro.cli.watch.ProgressTicker`); tests and benchmarks attach
recording observers.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: Completion timestamps kept for the rolling-throughput window.
_RATE_WINDOW = 50


def format_duration(seconds: float) -> str:
    """``90.5`` → ``"1m31s"`` — compact durations for progress lines
    and the stats report.

    Rounding happens *before* the unit-selection branches so the
    display is monotonic at the boundaries: ``59.7`` rounds to 60 and
    renders ``"1m00s"`` (not ``"60s"`` next to ``60.0``'s ``"1m00s"``),
    and ``9.96`` rounds to 10 and renders ``"10s"`` (not ``"10.0s"``).
    """
    seconds = max(0.0, seconds)
    if seconds < 10 and round(seconds, 1) < 10:
        return f"{seconds:.1f}s"
    total = int(round(seconds))
    if total < 60:
        return f"{total}s"
    minutes, secs = divmod(total, 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


@dataclass(frozen=True, slots=True)
class ProgressEvent:
    """Snapshot sent to observers after each experiment."""

    campaign_name: str
    completed: int
    total: int
    experiment_name: str
    outcome: str
    elapsed_seconds: float
    #: Rolling throughput (experiments/s) over the last
    #: ``_RATE_WINDOW`` experiments; ``0.0`` until two have finished.
    rate: float = 0.0
    #: Estimated seconds to campaign completion at the rolling rate;
    #: ``None`` until the rate is known.
    eta_seconds: float | None = None

    @property
    def fraction(self) -> float:
        return self.completed / self.total if self.total else 1.0


@dataclass(slots=True)
class ProgressReporter:
    """Mutable campaign progress state with observer callbacks.

    The campaign loop calls :meth:`start`, then :meth:`experiment_done`
    per experiment (which blocks while paused and raises through the
    runner when ended), then :meth:`finish`.
    """

    observers: list[Callable[[ProgressEvent], None]] = field(default_factory=list)
    poll_interval: float = 0.01

    campaign_name: str = ""
    total: int = 0
    completed: int = 0
    _paused: bool = False
    _abort_requested: bool = False
    _started_at: float = 0.0
    _recent: deque = field(default_factory=lambda: deque(maxlen=_RATE_WINDOW))

    # ------------------------------------------------------------------
    # Control (the pause / restart / end buttons)
    # ------------------------------------------------------------------
    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        self._paused = False

    def end(self) -> None:
        """Request the campaign to stop after the current experiment."""
        self._abort_requested = True
        self._paused = False

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def abort_requested(self) -> bool:
        return self._abort_requested

    # ------------------------------------------------------------------
    # Campaign-loop side
    # ------------------------------------------------------------------
    def start(self, campaign_name: str, total: int) -> None:
        self.campaign_name = campaign_name
        self.total = total
        self.completed = 0
        self._abort_requested = False
        self._paused = False
        self._started_at = time.monotonic()
        self._recent.clear()

    def experiment_done(self, experiment_name: str, outcome: str) -> ProgressEvent:
        """Record one finished experiment and notify observers.  Blocks
        while paused (unless an end request arrives).  Returns the
        :class:`ProgressEvent` it sent, so the campaign loop can forward
        the rolling rate/ETA into the event stream."""
        self.completed += 1
        now = time.monotonic()
        self._recent.append(now)
        rate = 0.0
        eta: float | None = None
        if len(self._recent) >= 2:
            window = now - self._recent[0]
            if window > 0:
                rate = (len(self._recent) - 1) / window
                if self.total:
                    eta = max(self.total - self.completed, 0) / rate
        event = ProgressEvent(
            campaign_name=self.campaign_name,
            completed=self.completed,
            total=self.total,
            experiment_name=experiment_name,
            outcome=outcome,
            elapsed_seconds=now - self._started_at,
            rate=rate,
            eta_seconds=eta,
        )
        for observer in self.observers:
            observer(event)
        while self._paused and not self._abort_requested:
            time.sleep(self.poll_interval)
        return event

    def finish(self) -> None:
        self._paused = False

    @property
    def elapsed_seconds(self) -> float:
        return time.monotonic() - self._started_at if self._started_at else 0.0
