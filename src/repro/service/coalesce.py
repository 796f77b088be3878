"""Size-bounded coalescing windows for the resident SpMM service.

The dispatcher files admitted requests that share a fusion key —
``(matrix_fingerprint, format config, rung)`` — into one window per key
and emits each window as one fused wide-k execution (see
:mod:`repro.runtime.fusion`): N coalesced requests pay the sparse-matrix
stream once instead of N times.

There is no timer.  The service pulls a unit only when a worker has
room for it and each pull closes the oldest window (:meth:`pop_ready`),
so a window fills only while every worker is busy, when fusion pays.
A window also stops taking members once its summed dense width reaches
``max_k``; windows leave in the order they opened, full or not; only
rung-0 requests enter one; and a window of one dispatches solo.

The scheduler is a passive data structure: the server's dispatcher loop
calls :meth:`add` / :meth:`pop_ready` under its own lock, and batch
fusion (:func:`repro.runtime.fusion.plan_fusion_groups`) files a whole
static batch, then flushes it.
"""

from __future__ import annotations

from collections import deque

from ..errors import ConfigError


class _Window:
    """One coalescing window: its key, members and summed dense width."""

    __slots__ = ("key", "members", "total_k")

    def __init__(self, key):
        self.key = key
        self.members: list = []
        self.total_k = 0


class CoalescingScheduler:
    """Group fusable dispatches into size-bounded wide-k windows.

    ``add`` files a member under its fusion key; ``pop_ready`` closes
    the oldest window and returns it as ``(key, [member, ...])``, members
    in arrival order.  A window that reaches ``max_k`` takes no further
    members but keeps its place in line.  The caller decides what a
    "member" is (the server uses its ``_Pending`` entries) — the
    scheduler only needs each member's dense width.
    """

    def __init__(self, *, max_k: int):
        if max_k < 1:
            raise ConfigError(f"max_k must be >= 1, got {max_k}")
        self.max_k = int(max_k)
        #: every window not yet popped, in opening order (oldest first)
        self._windows: deque = deque()
        #: key -> the window of ``_windows`` still taking members
        self._open: dict = {}

    @property
    def pending(self) -> int:
        """How many members are currently parked in windows."""
        return sum(len(w.members) for w in self._windows)

    def add(self, key, member, k: int, now: float) -> list:
        """File ``member`` (dense width ``k``) under ``key``.

        A member that would overflow its key's window starts a fresh one
        behind it; a window whose summed ``k`` meets ``max_k`` takes no
        more members.  Every window leaves through :meth:`pop_ready`, so
        this returns an empty list; the list return and the unread
        ``now`` stay because perfbench's traced layer reads both.
        """
        window = self._open.get(key)
        if window is None or window.total_k + k > self.max_k:
            window = self._open[key] = _Window(key)
            self._windows.append(window)
        window.members.append(member)
        window.total_k += int(k)
        if window.total_k >= self.max_k:
            del self._open[key]
        return []

    def oldest(self) -> list | None:
        """The members of the oldest window (left in place), or None."""
        return self._windows[0].members if self._windows else None

    def pop_ready(self, *, flush_all: bool = False) -> list:
        """Close and return the oldest window (none when idle).

        ``flush_all`` closes every window instead, oldest first (used
        at the end of a static batch and when the dispatcher dies).
        """
        closed = []
        while self._windows and (flush_all or not closed):
            window = self._windows.popleft()
            if self._open.get(window.key) is window:
                del self._open[window.key]
            closed.append((window.key, window.members))
        return closed
