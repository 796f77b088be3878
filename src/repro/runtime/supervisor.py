"""Supervised worker pool: crash/hang detection, bounded retry, quarantine.

``concurrent.futures.ProcessPoolExecutor`` is all-or-nothing: one worker
SIGKILLed mid-batch raises ``BrokenProcessPool`` and the whole batch's
work is gone.  That is fatal for corpus-scale serving, so the batch path
runs on this supervisor instead — the host-layer analogue of the engine
model's Fig. 11 request/response discipline (deadlines, retry with
backoff, failover), applied to real ``multiprocessing.Process`` workers:

* **crash detection** — a worker whose process exits mid-request has its
  item retried on a replacement worker;
* **hang detection** — a per-request deadline (``request_timeout_s``)
  SIGKILLs and replaces a worker stuck on one item, and a heartbeat
  thread in each worker lets the supervisor notice a *frozen* process
  (SIGSTOP, swap death) even when no deadline is set;
* **bounded retry** — failed items re-enter the queue with exponential
  backoff, up to ``max_retries`` re-dispatches;
* **quarantine** — an item that exhausts its budget (or fails planning,
  before dispatch) becomes a structured :class:`FailedItem` in the
  batch result; the batch itself always completes (unless
  ``fail_fast`` asks for an abort, which raises
  :class:`~repro.errors.SupervisionError`);
* **admission control** — at most ``max_pending`` items are materialized
  ahead of the workers, so a 10k-request batch holds a bounded window of
  planned handles rather than the whole corpus;
* **chaos seam** — :class:`ChaosFault` injects kills, hangs, and poison
  requests *inside* workers deterministically, the same philosophy as the
  PR 1 engine fault campaigns, driving ``tests/runtime/test_chaos.py``.

The supervisor is task-agnostic: it runs any picklable module-level
``task_fn(task_ctx, item) -> payload`` over ``(index, item)`` pairs.  The
batch executor (:mod:`repro.runtime.parallel`) supplies the SpMM task.
One loop serves two transports, worker processes and the in-process one
(:attr:`WorkerSupervisor.in_process`, the one-worker batch path), so
retry, backoff, quarantine, ``fail_fast`` and the stats exist once, here.
Start method is explicit and validated (``fork``/``spawn``/``forkserver``)
— nothing here relies on copy-on-write inheritance, so ``spawn`` (the
macOS / Python ≥ 3.14 default) is fully supported.

Retry/kill/quarantine totals are mirrored into the tracer's metrics under
``supervisor.*`` (catalog: ``docs/OBSERVABILITY.md``); semantics are
documented in ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait

from ..errors import ConfigError, SupervisionError
from ..telemetry import NULL_TRACER

#: Wire tags for worker → supervisor messages.
_MSG_HEARTBEAT, _MSG_OK, _MSG_ERR = "hb", "ok", "err"

#: Chaos fault kinds (see :class:`ChaosFault`).
CHAOS_KILL, CHAOS_HANG, CHAOS_RAISE = "kill", "hang", "raise"
CHAOS_CORRUPT = "corrupt"

#: How long a hang-injected worker sleeps — effectively forever; the
#: per-request deadline is what ends it.
_CHAOS_HANG_S = 3600.0

#: Supervisor event-loop poll quantum (seconds).  Worker results,
#: :meth:`WorkerSupervisor.wake` and the stream's ``next_deadline`` wake
#: the loop on time; this only bounds how late a request-deadline or
#: heartbeat check or a backoff expiry can fire.
_TICK_S = 0.02

#: Grace given to workers to exit on the shutdown sentinel before SIGKILL.
_SHUTDOWN_GRACE_S = 2.0

#: Streaming sentinel an item iterable may yield to say "no work available
#: right now, keep the loop (heartbeats, deadlines, retries) ticking".
#: Unlike ``StopIteration`` it does not end the run — the resident service
#: front end uses this to feed an open-ended request stream to one
#: long-lived supervisor, and calls :meth:`WorkerSupervisor.wake` when the
#: stream has work again.
NO_ITEM = object()


@dataclass(frozen=True)
class ChaosFault:
    """One injected host-layer fault, applied inside the worker.

    ``kind`` is one of ``kill`` (SIGKILL self — a real worker crash),
    ``hang`` (sleep past any deadline), ``raise`` (a poison request that
    raises deterministically), or ``corrupt`` (flip bytes in the item's
    shared-memory operand segment *before* executing, so the attach-time
    checksum pass must catch it — the integrity campaign's fault).
    ``attempts`` lists the dispatch attempts the fault fires on
    (``None`` = every attempt, the permanent poison pill; the default
    ``(0,)`` faults only the first try so retries succeed).
    """

    kind: str
    attempts: tuple[int, ...] | None = (0,)

    def __post_init__(self):
        if self.kind not in (CHAOS_KILL, CHAOS_HANG, CHAOS_RAISE, CHAOS_CORRUPT):
            raise ConfigError(f"unknown chaos fault kind {self.kind!r}")

    def applies(self, attempt: int) -> bool:
        """Whether this fault fires on dispatch attempt ``attempt``."""
        return self.attempts is None or attempt in self.attempts


@dataclass
class FailedItem:
    """One batch item given up on — the structured alternative to abort.

    ``error_type`` is the exception class name that exhausted the budget
    (``WorkerCrashError``, ``RequestTimeoutError``, ``HeartbeatLostError``
    for supervision failures; the raising type for poison requests) and
    ``attempts`` counts every dispatch, so ``attempts == max_retries + 1``
    for a quarantined item.
    """

    index: int
    error_type: str
    message: str
    attempts: int
    fingerprint: str | None = None
    phase: str = "execute"

    def to_dict(self) -> dict:
        """Plain-JSON form, inverse of :meth:`from_dict`."""
        return {
            "index": int(self.index),
            "error_type": self.error_type,
            "message": self.message,
            "attempts": int(self.attempts),
            "fingerprint": self.fingerprint,
            "phase": self.phase,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FailedItem":
        """Rebuild from the :meth:`to_dict` form."""
        return cls(
            index=int(d["index"]),
            error_type=d["error_type"],
            message=d["message"],
            attempts=int(d["attempts"]),
            fingerprint=d.get("fingerprint"),
            phase=d.get("phase", "execute"),
        )


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs governing worker supervision; immutable and picklable.

    The defaults favor safety over latency: no per-request deadline (a
    legitimate huge matrix must not be killed), two retries with 50 ms
    doubling backoff, half-second heartbeats judged lost after 30 s, and
    an admission window of 64 planned items.
    """

    #: per-request wall-clock deadline; None disables hang detection
    request_timeout_s: float | None = None
    #: re-dispatches after the first attempt before quarantine
    max_retries: int = 2
    #: backoff before retry ``n`` is ``base * factor**n`` seconds
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: worker heartbeat cadence; 0 disables heartbeats entirely
    heartbeat_interval_s: float = 0.5
    #: silence longer than this marks a live-but-frozen worker lost
    heartbeat_timeout_s: float = 30.0
    #: admission-control window: max items planned ahead of the workers
    max_pending: int = 64
    #: abort the batch (raise SupervisionError) on the first failure
    fail_fast: bool = False
    #: multiprocessing start method; None picks fork when available
    start_method: str | None = None

    def __post_init__(self):
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ConfigError("request_timeout_s must be positive or None")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_s < 0:
            raise ConfigError("backoff_base_s must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1")
        if self.heartbeat_interval_s < 0:
            raise ConfigError("heartbeat_interval_s must be >= 0")
        if self.heartbeat_timeout_s <= 0:
            raise ConfigError("heartbeat_timeout_s must be positive")
        if self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1")
        self.resolve_start_method()  # validate eagerly

    def backoff_s(self, attempt: int) -> float:
        """Backoff before re-dispatching attempt ``attempt + 1``."""
        return self.backoff_base_s * self.backoff_factor ** attempt

    def resolve_start_method(self) -> str:
        """The validated multiprocessing start method to use.

        Explicit selection beats inheriting the platform default: the old
        pool path silently assumed ``fork`` copy-on-write semantics, which
        breaks on platforms defaulting to ``spawn``.  ``None`` prefers
        ``fork`` (cheapest) and falls back to ``spawn``.
        """
        available = multiprocessing.get_all_start_methods()
        if self.start_method is None:
            return "fork" if "fork" in available else "spawn"
        if self.start_method not in available:
            raise ConfigError(
                f"start method {self.start_method!r} not available here; "
                f"choose from {available}"
            )
        return self.start_method


def _worker_main(
    worker_id, task_fn, task_ctx, task_r, result_w, heartbeat_interval_s,
    chaos, close_fds=(),
):
    """Entry point of one supervised worker process.

    ``close_fds`` lists inherited file descriptors a forked child must
    drop immediately: the parent's ends of its own, its siblings' and
    the wake pipes (else ``task_r`` never reads EOF and the worker
    outlives a SIGKILLed parent), and e.g. a resident server's listening
    socket, which would otherwise keep the socket's accept backlog alive
    in orphaned workers, wedging clients that connect to the stale
    socket during a restart.

    Receives ``(index, attempt, item)`` tasks on its private ``task_r``
    pipe until the ``None`` sentinel (or EOF), answering each with one
    ``ok`` or ``err`` message on its private ``result_w`` pipe; a
    background thread posts heartbeats every ``heartbeat_interval_s``.

    Each worker owns both pipe ends exclusively — unlike a shared
    ``multiprocessing.Queue``, whose cross-process write lock a SIGKILLed
    worker can take to its grave, deadlocking every survivor.  A kill can
    only ever corrupt the dying worker's own channel, which the
    supervisor already treats as a crash.  Module-level on purpose:
    ``spawn`` pickles the target by qualified name.
    """
    for fd in close_fds:
        try:
            os.close(fd)
        except OSError:
            pass
    stop = threading.Event()
    send_lock = threading.Lock()  # heartbeat thread + task loop both send

    def send(msg) -> None:
        try:
            with send_lock:
                result_w.send(msg)
        except Exception:
            stop.set()  # supervisor hung up; no point continuing to beat

    if heartbeat_interval_s:

        def _beat():
            while not stop.is_set():
                send((_MSG_HEARTBEAT, worker_id, None, None, None))
                stop.wait(heartbeat_interval_s)

        threading.Thread(target=_beat, daemon=True).start()
    try:
        while True:
            try:
                task = task_r.recv()
            except (EOFError, OSError):
                return
            if task is None:
                return
            index, attempt, item = task
            fault = chaos.get(index) if chaos else None
            try:
                if fault is not None and fault.applies(attempt):
                    if fault.kind == CHAOS_KILL:
                        os.kill(os.getpid(), signal.SIGKILL)
                    elif fault.kind == CHAOS_HANG:
                        time.sleep(_CHAOS_HANG_S)
                    if fault.kind == CHAOS_CORRUPT:
                        # Damage the operand bytes, then execute normally:
                        # the attach-time verification must turn this into
                        # a structured OperandCorruptionError, never a
                        # silently wrong result.
                        from ..resilience.injectors import corrupt_item_operands

                        corrupt_item_operands(item)
                    else:
                        raise RuntimeError(
                            f"chaos: injected poison request (item {index})"
                        )
                payload = task_fn(task_ctx, item)
            except Exception as exc:
                send(
                    (_MSG_ERR, worker_id, index, attempt,
                     (type(exc).__name__, str(exc)))
                )
                continue
            send((_MSG_OK, worker_id, index, attempt, payload))
    finally:
        stop.set()
        # Drop any shared-memory operand attachments before exit so the
        # worker never outlives its mappings (the parent owns segment
        # lifetime; see repro.store.registry).
        try:
            from ..store.registry import detach_all

            detach_all()
        except Exception:
            pass


class _Worker:
    """Supervisor-side handle for one worker process.

    ``task_w`` / ``result_r`` are the parent's ends of the worker's two
    private pipes (tasks down, results/heartbeats up).
    """

    __slots__ = ("id", "process", "task_w", "result_r", "last_beat", "task")

    def __init__(self, worker_id, process, task_w, result_r, now):
        self.id = worker_id
        self.process = process
        self.task_w = task_w
        self.result_r = result_r
        self.last_beat = now
        #: the dispatched (index, attempt, item, started_at), or None (idle)
        self.task = None

    def close_pipes(self) -> None:
        """Drop the parent's pipe ends (idempotent; ignores late errors)."""
        for conn in (self.task_w, self.result_r):
            try:
                conn.close()
            except OSError:
                pass


class WorkerSupervisor:
    """Owns N worker processes and drives a batch through them to the end.

    Construct with the picklable task function and its shared context,
    then call :meth:`run` with an iterable of ``(index, item)`` pairs.
    Every index is resolved exactly once — into a payload or a
    :class:`FailedItem` — and ``BrokenProcessPool``-style batch aborts
    cannot happen: worker death is a per-item, retryable event.
    """

    #: every counter :attr:`stats` carries (all zero until :meth:`run`)
    STAT_KEYS = (
        "dispatched",
        "executed",
        "retries",
        "quarantined",
        "worker_crashes",
        "worker_kills",
        "deadline_misses",
        "heartbeat_losses",
        "worker_respawns",
        "healed",
    )

    def __init__(
        self,
        task_fn,
        task_ctx,
        *,
        workers: int,
        policy: SupervisionPolicy | None = None,
        chaos: dict | None = None,
        heal=None,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.task_fn = task_fn
        self.task_ctx = task_ctx
        self.workers = int(workers)
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.chaos = dict(chaos) if chaos else {}
        #: optional ``heal(item, error_type, message) -> new_item | None``
        #: called in the parent before a failed item re-enters the queue —
        #: the repair seam: the batch executor republishes corrupted
        #: operand segments here and hands back a replacement item whose
        #: fresh descriptors force workers to re-attach and re-verify.
        #: Returning None (or raising) retries the original item.
        self.heal = heal
        #: inherited fds every *forked* child closes at startup (set by
        #: resident servers to their listening socket; read per spawn so
        #: respawned workers honor it too; ignored under ``spawn``, whose
        #: children inherit nothing and whose fd numbers mean other files)
        self.child_close_fds: tuple = ()
        #: the in-process transport (set by one-worker batches): each task
        #: runs in this loop, with no processes, pickling, heartbeats or
        #: chaos, so nothing interrupts it; the policy applies unchanged
        self.in_process = False
        #: counters for the last :meth:`run` (see RELIABILITY.md)
        self.stats: dict[str, int] = dict.fromkeys(self.STAT_KEYS, 0)
        #: write end of the active run's wake pipe (None outside a run);
        #: reentrant lock, so a signal handler that wakes cannot deadlock
        #: on a wake its own thread was in the middle of
        self._wake_w: int | None = None
        self._wake_lock = threading.RLock()

    def wake(self) -> None:
        """Cut the run's current wait short: the item stream has new work.

        Thread- and signal-safe: writes one byte to a non-blocking pipe
        that :meth:`run` waits on next to its workers' result pipes.  A
        no-op outside a run, whose first pull already sees any work
        queued before it started.
        """
        with self._wake_lock:
            if self._wake_w is None:
                return
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # pipe full: a wake is already pending

    # ----------------------------------------------------------- the loop
    def run(self, items, *, tracer=NULL_TRACER, on_payload=None,
            on_failure=None, next_deadline=None):
        """Execute every ``(index, item)``; returns ``(payloads, failures)``.

        ``payloads`` maps index → the task function's return value;
        ``failures`` lists one :class:`FailedItem` per quarantined index.
        ``on_payload(index, payload)`` fires as each item completes (in
        completion order — this is the journal checkpoint hook) and
        ``on_failure(failed_item, item)`` as each item is quarantined
        (``item`` as last dispatched), so a streaming caller can answer
        per item without waiting for the run to end.  Items are pulled
        from the iterable lazily under the admission window; an iterable
        may yield :data:`NO_ITEM` to keep the loop alive while it waits
        for more work (streaming mode), and a :class:`FailedItem` as the
        item of a request that failed before dispatch (its planning
        raised): that one is quarantined at once, never retried.

        A streaming caller calls :meth:`wake` when it has work again, and
        may pass ``next_deadline()``: the monotonic time at which the
        stream will have an item without being woken (e.g. a coalescing
        window closing), or None.  While the admission window has room,
        the loop's wait ends by then; when it is full the deadline cannot
        be acted on, so it never shortens the wait (no busy spin).
        """
        policy = self.policy
        ctx = multiprocessing.get_context(policy.resolve_start_method())
        self.stats = stats = dict.fromkeys(self.STAT_KEYS, 0)
        metrics = tracer.metrics
        it = iter(items)
        window = max(policy.max_pending, self.workers)
        pending: deque = deque()  # (index, attempt, item, eligible_at)
        payloads: dict[int, object] = {}
        failures: list[FailedItem] = []
        resolved: set[int] = set()
        seen = 0
        exhausted = False
        workers: dict[int, _Worker] = {}
        next_wid = 0

        def spawn(now, respawn: bool) -> None:
            nonlocal next_wid
            task_r, task_w = ctx.Pipe(duplex=False)
            result_r, result_w = ctx.Pipe(duplex=False)
            close_fds = ()
            if ctx.get_start_method() == "fork":
                # Leave the parent the only writer on each task pipe, so
                # a worker whose parent is SIGKILLed reads EOF and exits.
                close_fds = (
                    *self.child_close_fds,
                    task_w.fileno(), result_r.fileno(), wake_r, wake_w,
                    *(conn.fileno() for w in workers.values()
                      for conn in (w.task_w, w.result_r)),
                )
            process = ctx.Process(
                target=_worker_main,
                args=(
                    next_wid, self.task_fn, self.task_ctx, task_r, result_w,
                    policy.heartbeat_interval_s, self.chaos, close_fds,
                ),
                daemon=True,
            )
            process.start()
            # The child holds its own copies now; drop ours so each pipe
            # has exactly one writer and fds don't leak across respawns.
            task_r.close()
            result_w.close()
            workers[next_wid] = _Worker(next_wid, process, task_w, result_r, now)
            next_wid += 1
            if respawn:
                stats["worker_respawns"] += 1
                metrics.counter("supervisor.worker_respawns").inc()

        def quarantine(failed: FailedItem, item=None) -> None:
            """Give up on one item; honors fail_fast."""
            if policy.fail_fast:
                raise SupervisionError(
                    f"batch item {failed.index} failed on attempt "
                    f"{failed.attempts} ({failed.error_type}: "
                    f"{failed.message}) and fail_fast is set"
                )
            stats["quarantined"] += 1
            metrics.counter("supervisor.quarantined").inc()
            failures.append(failed)
            if on_failure is not None:
                on_failure(failed, item)

        def task_failed(index, attempt, item, error_type, message) -> None:
            """Retry with backoff, or quarantine."""
            if index in resolved:
                return
            if attempt < policy.max_retries and not policy.fail_fast:
                if self.heal is not None:
                    try:
                        replacement = self.heal(item, error_type, message)
                    except Exception:
                        replacement = None
                    if replacement is not None:
                        item = replacement
                        stats["healed"] += 1
                        metrics.counter("supervisor.healed").inc()
                stats["retries"] += 1
                metrics.counter("supervisor.retries").inc()
                pending.append(
                    (index, attempt + 1, item,
                     time.monotonic() + policy.backoff_s(attempt))
                )
            else:
                resolved.add(index)
                quarantine(FailedItem(
                    index=index, error_type=error_type, message=message,
                    attempts=attempt + 1,
                ), item)

        def task_done(index, body) -> None:
            """Resolve an index with its payload (first answer wins)."""
            if index not in resolved:
                resolved.add(index)
                payloads[index] = body
                stats["executed"] += 1
                if on_payload is not None:
                    on_payload(index, body)

        def reap(worker, now, error_type, message, *, kill) -> None:
            """Remove a worker (killing it first if needed), fail its task."""
            if kill:
                stats["worker_kills"] += 1
                metrics.counter("supervisor.worker_kills").inc()
                worker.process.kill()
            worker.process.join(timeout=_SHUTDOWN_GRACE_S)
            workers.pop(worker.id, None)
            worker.close_pipes()
            task = worker.task
            if task is not None:
                index, attempt, item, _ = task
                task_failed(index, attempt, item, error_type, message)
            if not exhausted or len(resolved) < seen:
                spawn(now, respawn=True)

        wake_r, wake_w = os.pipe()
        os.set_blocking(wake_r, False)
        os.set_blocking(wake_w, False)
        with self._wake_lock:
            self._wake_w = wake_w
        try:
            for _ in range(0 if self.in_process else self.workers):
                spawn(time.monotonic(), respawn=False)
            while True:
                now = time.monotonic()
                # 1. admission control: top up the planned-item window.
                while not exhausted and seen - len(resolved) < window:
                    try:
                        task = next(it)
                    except StopIteration:
                        exhausted = True
                        break
                    if task is NO_ITEM:
                        break  # stream idle until a wake or deadline
                    index, item = task
                    seen += 1
                    if isinstance(item, FailedItem):  # failed pre-dispatch
                        resolved.add(index)
                        quarantine(item)
                    else:
                        pending.append((index, 0, item, now))
                if exhausted and len(resolved) == seen:
                    break
                # 2. dispatch backoff-eligible items to idle workers (the
                # in-process transport runs the next one right here).
                if self.in_process and (task := self._pop_eligible(pending, now)):
                    index, attempt, item, _ = task
                    stats["dispatched"] += 1
                    try:
                        body = self.task_fn(self.task_ctx, item)
                    except Exception as exc:
                        task_failed(index, attempt, item, type(exc).__name__, str(exc))
                    else:
                        task_done(index, body)
                    continue
                idle = [w for w in workers.values() if w.task is None]
                for worker in idle:
                    task = self._pop_eligible(pending, now)
                    if task is None:
                        break
                    index, attempt, item, _ = task
                    worker.task = (index, attempt, item, now)
                    try:
                        worker.task_w.send((index, attempt, item))
                    except OSError:
                        # Pipe already broken: the worker died between the
                        # idle check and now.  Put the task back; the
                        # liveness pass below reaps the corpse (the retry
                        # there is a no-op since worker.task clears here).
                        worker.task = None
                        pending.appendleft((index, attempt, item, now))
                        continue
                    stats["dispatched"] += 1
                # 3. drain worker messages, waiting at most one tick — and
                # no later than the stream's next deadline while there is
                # room to admit what it will yield.
                timeout = _TICK_S
                if (
                    next_deadline is not None
                    and not exhausted
                    and seen - len(resolved) < window
                ):
                    due = next_deadline()
                    if due is not None:
                        timeout = min(
                            timeout, max(0.0, due - time.monotonic())
                        )
                for msg in self._drain(workers, timeout, wake_r):
                    tag, wid, index, attempt, body = msg
                    worker = workers.get(wid)
                    if tag == _MSG_HEARTBEAT:
                        if worker is not None:
                            worker.last_beat = time.monotonic()
                        continue
                    # Attribute the message to the worker's dispatched task;
                    # a reaped worker's late message has already been
                    # handled (retried/quarantined) by the reap itself.
                    attributed = (
                        worker is not None
                        and worker.task is not None
                        and worker.task[0] == index
                    )
                    item = worker.task[2] if attributed else None
                    if attributed:
                        worker.task = None
                    if tag == _MSG_OK:
                        task_done(index, body)
                    elif attributed:
                        error_type, message = body
                        task_failed(index, attempt, item, error_type, message)
                # 4. liveness: crashes, deadlines, lost heartbeats.
                now = time.monotonic()
                for worker in list(workers.values()):
                    if not worker.process.is_alive():
                        stats["worker_crashes"] += 1
                        metrics.counter("supervisor.worker_crashes").inc()
                        code = worker.process.exitcode
                        reap(
                            worker, now, "WorkerCrashError",
                            f"worker exited with code {code} mid-request",
                            kill=False,
                        )
                    elif (
                        worker.task is not None
                        and policy.request_timeout_s is not None
                        and now - worker.task[3] > policy.request_timeout_s
                    ):
                        stats["deadline_misses"] += 1
                        metrics.counter("supervisor.deadline_misses").inc()
                        reap(
                            worker, now, "RequestTimeoutError",
                            f"request exceeded its "
                            f"{policy.request_timeout_s:g}s deadline",
                            kill=True,
                        )
                    elif (
                        policy.heartbeat_interval_s
                        and now - worker.last_beat > policy.heartbeat_timeout_s
                    ):
                        stats["heartbeat_losses"] += 1
                        metrics.counter("supervisor.heartbeat_losses").inc()
                        reap(
                            worker, now, "HeartbeatLostError",
                            f"no heartbeat for "
                            f"{policy.heartbeat_timeout_s:g}s",
                            kill=True,
                        )
        finally:
            with self._wake_lock:
                self._wake_w = None
            os.close(wake_w)
            os.close(wake_r)
            self._shutdown(workers)
        return payloads, failures

    # ------------------------------------------------------------ helpers
    @staticmethod
    def _pop_eligible(pending: deque, now: float):
        """The first pending task whose backoff has expired, or None."""
        for _ in range(len(pending)):
            task = pending.popleft()
            if task[3] <= now:
                return task
            pending.append(task)
        return None

    @staticmethod
    def _drain(workers: dict, timeout: float, wake_r: int) -> list:
        """Every pending worker message, blocking at most ``timeout``.

        Waits on all workers' private result pipes and the wake pipe at
        once; a wake only ends the wait (its bytes are discarded before
        the loop pulls from the stream again, so none is lost).  A dead
        worker's broken pipe raises ``EOFError``/``OSError`` here, which
        is simply skipped — the liveness pass reaps the process itself.
        """
        messages = []
        conns = [w.result_r for w in workers.values()]
        for conn in _conn_wait(conns + [wake_r], timeout=timeout):
            if conn == wake_r:
                try:
                    while os.read(wake_r, 4096):
                        pass
                except BlockingIOError:
                    pass
                continue
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                continue
        return messages

    @staticmethod
    def _shutdown(workers: dict) -> None:
        """Sentinel every worker, SIGKILL stragglers, close all pipes."""
        for worker in workers.values():
            try:
                worker.task_w.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for worker in workers.values():
            worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers.values():
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=_SHUTDOWN_GRACE_S)
            worker.close_pipes()
