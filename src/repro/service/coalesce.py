"""Bounded time/size coalescing window for the resident SpMM service.

The dispatcher holds admitted requests that share a fusion key —
``(matrix_fingerprint, format config, rung)`` — for at most
``window_s`` seconds (or until the window's summed dense width would
exceed ``max_k``), then emits the group as one fused wide-k execution
(see :mod:`repro.runtime.fusion`).  The paper's amortization applies
directly: N coalesced requests pay the sparse-matrix stream once instead
of N times.

Fairness and SLO safety are structural, not tuned:

* a window's deadline is set by its *first* member — later arrivals
  never extend the wait, so worst-case added latency is exactly
  ``window_s``;
* only rung-0 requests enter a window; degraded rungs and
  deadline-demoted requests bypass coalescing entirely (the server
  dispatches them solo immediately), so coalescing never costs an SLO;
* a window that still has one member at its deadline dispatches solo —
  fusion is only ever applied to 2+ members.

The scheduler is a passive data structure: the server's dispatcher loop
calls :meth:`add` / :meth:`pop_ready` under its own lock and clock, and
batch fusion (:func:`repro.runtime.fusion.plan_fusion_groups`) files a
whole static batch, then flushes it.
"""

from __future__ import annotations

from ..errors import ConfigError


class _Window:
    """One open coalescing window: members + size/time bounds."""

    __slots__ = ("key", "members", "total_k", "deadline")

    def __init__(self, key, deadline: float):
        self.key = key
        self.members: list = []
        self.total_k = 0
        self.deadline = float(deadline)


class CoalescingScheduler:
    """Group fusable dispatches into bounded wide-k windows.

    ``add`` files a member under its fusion key and returns any window
    that *closed* as a result (the size bound tripped); ``pop_ready``
    returns every window whose time bound has expired.  Members come
    back as ``(key, [member, ...])`` in arrival order; the caller
    decides what a "member" is (the server uses its ``_Pending``
    entries) — the scheduler only needs each member's dense width.
    """

    def __init__(self, *, window_s: float, max_k: int):
        if window_s <= 0:
            raise ConfigError(f"window_s must be > 0, got {window_s}")
        if max_k < 1:
            raise ConfigError(f"max_k must be >= 1, got {max_k}")
        self.window_s = float(window_s)
        self.max_k = int(max_k)
        self._open: dict = {}  # key -> _Window

    @property
    def pending(self) -> int:
        """How many members are currently parked in open windows."""
        return sum(len(w.members) for w in self._open.values())

    def add(self, key, member, k: int, now: float) -> list:
        """File ``member`` (dense width ``k``) under ``key``.

        Returns the windows this arrival *closed* (0, 1, or 2 of them):
        a member that would overflow an open window's ``max_k`` closes
        that window first and starts a fresh one; a member whose ``k``
        alone meets ``max_k`` closes its own window immediately.
        """
        closed = []
        window = self._open.get(key)
        if window is not None and window.total_k + k > self.max_k:
            closed.append(self._close(key))
            window = None
        if window is None:
            window = _Window(key, now + self.window_s)
            self._open[key] = window
        window.members.append(member)
        window.total_k += int(k)
        if window.total_k >= self.max_k:
            closed.append(self._close(key))
        return closed

    def pop_ready(self, now: float, *, flush_all: bool = False) -> list:
        """Close and return every window past its deadline.

        ``flush_all`` closes everything regardless of deadline (used on
        drain).  Windows come back oldest-deadline first.
        """
        due = [
            w.key
            for w in sorted(self._open.values(), key=lambda w: w.deadline)
            if flush_all or w.deadline <= now
        ]
        return [self._close(key) for key in due]

    def next_deadline(self) -> float | None:
        """The earliest open-window deadline, or ``None`` when idle."""
        if not self._open:
            return None
        return min(w.deadline for w in self._open.values())

    def _close(self, key) -> tuple:
        window = self._open.pop(key)
        return window.key, window.members
