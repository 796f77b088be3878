"""The resident SpMM service: asyncio front end over the supervised pool.

``python -m repro serve`` promotes the batch executor into a long-lived
server.  One process, two cooperating threads:

* the **event loop** (this module's asyncio side) owns the Unix socket,
  parses and validates requests, runs admission control
  (:mod:`.admission`), durably logs every acceptance (:mod:`.state`),
  and parks each submit on a future;
* the **dispatcher thread** feeds one long-lived
  :class:`~repro.runtime.supervisor.WorkerSupervisor` through its
  streaming seam (:data:`~repro.runtime.supervisor.NO_ITEM`): it pops
  admitted requests from the priority lanes, plans them through the
  tenant's view of the shared :class:`.tenancy.MultiTenantPlanCache`,
  and yields picklable :class:`~repro.runtime.parallel.PlanHandle` items
  exactly like the batch path — so worker records are digest-identical
  to serial runs, and worker crash/hang/retry/quarantine semantics are
  inherited wholesale from the supervisor.

Dispatch is event-driven: every lane append and every drain request
calls :meth:`~repro.runtime.supervisor.WorkerSupervisor.wake`, and the
supervisor bounds its wait by the earliest coalescing-window deadline,
so a request never waits on a poll tick.

Completions flow back on the supervisor's ``on_payload``/``on_failure``
callbacks (dispatcher thread), which journal the record, update the
admission EWMAs, and resolve the client future via
``loop.call_soon_threadsafe`` — the only cross-thread handoff.  The
supervisor's admission window is pinned to the worker count, so the
backlog lives in the service's lanes where priority ordering and
backpressure apply, not in the supervisor's FIFO.

Crash contract (chaos-tested in ``tests/service/``): a request is
acknowledged only after its intent is fsynced; every completion is
fsynced to the run journal before the client sees 200.  SIGKILL the
server at any instant and a restart replays the journal, re-executes
``accepted - journaled`` before reopening the socket, and answers
duplicate submits from the journal — digest-identical, no silent loss.

Graceful shutdown: the ``drain`` op (or SIGTERM/SIGINT) stops admission
(new submits get 503), lets the lanes and in-flight work finish, then
shuts the pool down and returns a drain summary.

The telemetry tracer's span stack is synchronous and single-threaded, so
the service emits **metrics only** (``service.*``; catalog in
``docs/OBSERVABILITY.md``) — spans stay inside the workers.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import os
import signal
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace

from ..errors import ReproError
from ..gpu import get_config
from ..matrices import from_spec
from ..runtime import (
    FULL_CAPABILITIES,
    Capabilities,
    FailedItem,
    Planner,
    PlanHandle,
    RunRecord,
    SpmmRequest,
    SpmmRuntime,
    SupervisionPolicy,
    WorkerSupervisor,
    request_fingerprint,
)
from ..runtime.cache import mirror_cache_gauges
from ..runtime.fusion import (
    dispatch_unit,
    fan_out_failure,
    fan_out_payload,
    fusion_group_key,
)
from ..runtime.parallel import execute_handle, heal, make_handle
from ..runtime.pressure import ResourcePressure
from ..runtime.supervisor import NO_ITEM
from ..store import PersistentFormatStore, SharedOperandRegistry
from ..telemetry import MetricsRegistry
from .admission import AdmissionConfig, AdmissionController, N_RUNGS
from .coalesce import CoalescingScheduler
from .protocol import (
    LANES,
    MAX_LINE_BYTES,
    STATUS_BAD_REQUEST,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_UNAVAILABLE,
    ProtocolError,
    decode_message,
    encode_message,
    parse_request,
    parse_submit,
    request_id,
    service_fingerprint,
)
from .state import ServiceState
from .tenancy import MultiTenantPlanCache

#: The degradation ladder by rung: ``None`` means full capability (plain
#: run, no ladder enforcement); rung 1 rules out the online engine; rung
#: 2 falls all the way back to untiled CSR.  Indexed by
#: :meth:`.admission.AdmissionController.choose_rung`.
LADDER: tuple = (
    None,
    FULL_CAPABILITIES.without_online(),
    Capabilities(online_allowed=False, offline_tiled_available=False),
)
assert len(LADDER) == N_RUNGS


@dataclass(frozen=True)
class ServiceConfig:
    """Everything one :class:`SpmmService` instance is configured by."""

    #: Unix socket to listen on (created on start, removed on drain)
    socket_path: str
    #: durable state directory (intent log + run journal; see state.py)
    state_dir: str
    workers: int = 2
    gpu: str = "gv100"
    ssf_threshold: float | None = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: worker supervision knobs; ``max_pending`` is overridden to the
    #: worker count so the backlog stays in the service's lanes
    policy: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    #: shared plan-cache entry budget across all tenants
    cache_entries: int = 128
    #: per-tenant plan-cache entry budget
    tenant_cache_entries: int = 32
    #: per-tenant cache hit-rate SLO floor (health endpoint verdicts)
    cache_hit_rate_slo: float = 0.5
    #: chaos seam: dispatch index -> ChaosFault, injected in workers
    chaos: dict | None = None
    #: persistent format/plan store directory (docs/STORAGE.md); None
    #: disables the disk tier.  A restart against the same directory
    #: warm-starts planning and pre-attaches hot operands before the
    #: socket opens.
    store_dir: str | None = None
    #: request coalescing (docs/SERVICE.md): fuse concurrent same-matrix
    #: rung-0 requests into one wide-k SpMM.  ``coalesce=False`` (or a
    #: non-positive window) dispatches every request solo.
    coalesce: bool = True
    #: how long the first member of a window waits for company, in
    #: milliseconds — the worst-case latency coalescing can add
    coalesce_window_ms: float = 5.0
    #: size bound: a window closes once its summed dense width reaches
    #: this many columns
    coalesce_max_k: int = 1024


@dataclass
class _Pending:
    """One admitted request between acceptance and resolution."""

    index: int
    rid: str
    fingerprint: str
    tenant: str
    lane: str
    rung: int
    request: SpmmRequest
    #: asyncio future the submit handler awaits; None for recovery work
    future: object | None
    enqueued_at: float
    dispatched_at: float = 0.0
    recovery: bool = False


class SpmmService:
    """One resident service instance (see the module docstring).

    Construct, then either ``await serve()`` inside an event loop or call
    :meth:`run` to own one.  A single instance serves one lifetime; make
    a new instance (same ``state_dir``) to restart.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.gpu_config = get_config(config.gpu)
        self.ssf_threshold = Planner(
            self.gpu_config, config.ssf_threshold
        ).ssf_threshold
        #: one resource-pressure policy shared by every durable plane
        #: (journal, intent log, persist tier, operand registry), so the
        #: health/selfcheck report is a single unified per-plane view
        self.pressure = ResourcePressure()
        self.metrics = MetricsRegistry()
        self.state = ServiceState(config.state_dir, pressure=self.pressure)
        # both logs count their appends and losses on the service metrics
        self.state.journal.metrics = self.state.intents.metrics = self.metrics
        self.admission = AdmissionController(
            config.admission, workers=config.workers
        )
        self.persist = (
            PersistentFormatStore(config.store_dir, pressure=self.pressure)
            if config.store_dir
            else None
        )
        self.cache = MultiTenantPlanCache(
            max_entries=config.cache_entries,
            tenant_max_entries=config.tenant_cache_entries,
            hit_rate_slo=config.cache_hit_rate_slo,
            persist=self.persist,
        )
        #: the operand plane: every dispatched matrix is published here
        #: once per fingerprint and shipped to workers as a descriptor
        self.operands = SharedOperandRegistry(
            lease_dir=os.path.join(config.state_dir, "operand-leases"),
            pressure=self.pressure,
        )
        self.supervisor = WorkerSupervisor(
            execute_handle,
            (self.gpu_config, False),
            workers=config.workers,
            policy=replace(config.policy, max_pending=config.workers),
            chaos=config.chaos,
            heal=functools.partial(heal, self.operands, self.metrics),
        )
        self._runtimes: dict[str, SpmmRuntime] = {}
        #: matrices built from generator specs, LRU-bounded by
        #: ``cache_entries`` (event-loop thread only; see _matrix)
        self._matrices: OrderedDict = OrderedDict()
        self._lanes: dict[str, deque] = {lane: deque() for lane in LANES}
        self._inflight: dict[int, _Pending] = {}
        #: the coalescing window (docs/SERVICE.md); None = disabled
        self._coalescer = (
            CoalescingScheduler(
                window_s=config.coalesce_window_ms / 1000.0,
                max_k=config.coalesce_max_k,
            )
            if config.coalesce and config.coalesce_window_ms > 0
            else None
        )
        #: closed windows not yet handed to the supervisor, oldest first
        self._closed: deque = deque()
        #: per lane: requests out of their lane but not yet dispatched (in
        #: an open or closed window) — still backlog for admission
        self._parked: dict[str, int] = dict.fromkeys(LANES, 0)
        self._lock = threading.Lock()
        self._completed: dict[str, RunRecord] = {}
        self._failures: list[FailedItem] = []
        self._counts = {"completed": 0, "replayed": 0, "failed": 0,
                        "shed": 0, "recovered": 0}
        #: dispatch indexes, one per admitted request and per fused window
        self._indexes = itertools.count()
        self._draining = False
        self._recovery_pending = 0
        self._dispatch_error: str | None = None
        self._started_at = time.monotonic()
        self._loop = None
        self._drained: asyncio.Event | None = None
        self._dispatcher: threading.Thread | None = None
        self._tasks: set = set()

    # =================================================== lifecycle (async)
    async def serve(self) -> dict:
        """Serve until drained; returns the drain summary."""
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._recover()
        self._preattach()
        # The service owns its socket path: a stale file left by a
        # SIGKILLed predecessor would otherwise block the bind.
        try:
            os.unlink(self.config.socket_path)
        except OSError:
            pass
        server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.config.socket_path,
            limit=MAX_LINE_BYTES,
        )
        # Forked workers must not inherit the listening socket: an
        # orphaned worker would keep the accept backlog alive after a
        # SIGKILL, wedging clients that connect to the stale socket while
        # a replacement restarts.  Registered before the dispatcher (and
        # so any worker) starts; respawns re-read it.
        self.supervisor.child_close_fds = tuple(
            sock.fileno() for sock in (server.sockets or ())
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="spmm-dispatch", daemon=True
        )
        self._dispatcher.start()
        handled_signals = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self.request_drain)
                handled_signals.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # not the main thread (in-process test servers)
        try:
            await self._drained.wait()
        finally:
            # Close only the listener (``wait_closed`` would wait for
            # every connected client to hang up first); per-line response
            # tasks are gathered below so in-flight replies still land.
            server.close()
            for sig in handled_signals:
                try:
                    self._loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            self._draining = True
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            await self._loop.run_in_executor(None, self._dispatcher.join)
            # Workers are down; unlink every operand segment this
            # lifetime published (a crash instead of a drain leaves them
            # for the next lifetime's orphan sweep).
            self.operands.close()
            try:
                os.unlink(self.config.socket_path)
            except OSError:
                pass
        return self.drain_summary()

    def run(self) -> dict:
        """Blocking convenience wrapper: own an event loop, serve, return."""
        return asyncio.run(self.serve())

    def request_drain(self) -> None:
        """Stop admitting; finish queued + in-flight work; then stop.

        Idempotent and thread/signal-safe: it flips a flag and wakes the
        dispatcher, which flushes open windows and ends once the lanes
        and in-flight work are empty.
        """
        self._draining = True
        self.supervisor.wake()

    def drain_summary(self) -> dict:
        """What a drain (or SIGTERM) reports back."""
        return {
            "completed": self._counts["completed"],
            "replayed": self._counts["replayed"],
            "failed": len(self._failures),
            "shed": self._counts["shed"],
            "recovered": self._counts["recovered"],
            "recovery_pending_at_start": self._recovery_pending,
            "supervisor": dict(self.supervisor.stats),
            "dispatch_error": self._dispatch_error,
        }

    # ============================================================ recovery
    def _recover(self) -> None:
        """Replay the journal; re-queue accepted-but-unjournaled intents.

        Runs before the socket opens, so a client can never observe the
        window between restart and recovery.
        """
        replay = self.state.journal.resume()
        self._completed = dict(replay.records)
        intents = self.state.load_accepted()
        outstanding = [
            i for i in intents if i["fingerprint"] not in self._completed
        ]
        self.state.compact_accepted(outstanding)
        for intent in outstanding:
            try:
                matrix = self._matrix(str(intent["matrix"]))
                request = SpmmRequest(
                    matrix,
                    k=int(intent["k"]),
                    seed=int(intent["seed"]),
                    tile_width=int(intent["tile_width"]),
                )
                rung = min(max(int(intent["rung"]), 0), N_RUNGS - 1)
            except (ReproError, TypeError, ValueError) as exc:
                self._failures.append(
                    FailedItem(
                        index=-1,
                        error_type=type(exc).__name__,
                        message=f"unrecoverable intent: {exc}",
                        attempts=0,
                        fingerprint=str(intent["fingerprint"]),
                        phase="recover",
                    )
                )
                continue
            lane = intent["lane"] if intent["lane"] in LANES else "batch"
            with self._lock:
                self._lanes[lane].append(
                    _Pending(
                        index=next(self._indexes),
                        rid="",
                        fingerprint=str(intent["fingerprint"]),
                        tenant=str(intent["tenant"]),
                        lane=lane,
                        rung=rung,
                        request=request,
                        future=None,
                        enqueued_at=time.monotonic(),
                        recovery=True,
                    )
                )
            self._recovery_pending += 1
        self.metrics.gauge("service.recovery_pending").set(
            self._recovery_pending
        )

    def _preattach(self) -> None:
        """Warm the operand plane before the socket opens.

        Sweeps crash-orphaned segments left by a SIGKILLed predecessor,
        then publishes every matrix the persistent store knows about —
        the service's "hot" set — so the first submit of a known matrix
        ships only a descriptor.  Runs before ``start_unix_server``, so a
        client can never observe a cold operand plane after a restart.
        """
        swept = self.operands.sweep_orphans()
        if swept:
            self.metrics.counter("store.orphans_swept").inc(swept)
        if self.persist is None:
            return
        for fingerprint in self.persist.fingerprints():
            matrix = self.persist.load_matrix(fingerprint)
            if matrix is None:
                continue
            if self.operands.publish_matrix(
                matrix, fingerprint=fingerprint
            ) is not None:
                self.metrics.counter("store.preattached").inc()

    # ================================================== dispatcher thread
    def _runtime(self, tenant: str) -> SpmmRuntime:
        """This tenant's runtime over its view of the shared plan cache."""
        runtime = self._runtimes.get(tenant)
        if runtime is None:
            runtime = SpmmRuntime(
                self.gpu_config,
                ssf_threshold=self.config.ssf_threshold,
                cache=self.cache.view(tenant),
            )
            self._runtimes[tenant] = runtime
        return runtime

    def _stream(self):
        """The supervisor's item stream: closed windows, then lanes, or idle.

        Each pull first parks every queued coalescing-eligible request
        (rung 0, coalescing on, not draining) in the
        :class:`~.coalesce.CoalescingScheduler` and closes the windows
        whose deadline has passed; closed windows, size-closed ones
        included, then dispatch oldest first, each as one fused item.
        Everything else (demoted rungs, deadline-demoted requests,
        coalescing off, a drain's remainder) stays in its lane until the
        supervisor has room, so the lanes keep their priority order, and
        then dispatches solo.  A drain flushes every open window.

        Ends (StopIteration) only when draining with empty lanes, no
        parked request, and no in-flight work — which is exactly when
        the supervisor run, and with it the dispatcher thread, finishes.
        """
        while True:
            with self._lock:
                draining = self._draining
                members = self._next_unit(time.monotonic(), draining)
                if members is None and draining and not self._inflight:
                    return
            if members is None:
                yield NO_ITEM
                continue
            yield from self._emit(members)

    def _next_unit(self, now: float, draining: bool):
        """The members of the next dispatch unit, or None.

        Caller holds ``self._lock``.  The unit's members are registered
        in flight here, under the same lock that took them out of the
        lane or window, so admission never loses sight of them.
        """
        coalescer = self._coalescer
        if coalescer is not None:
            if not draining:
                for lane in LANES:
                    queue = self._lanes[lane]
                    for _ in range(len(queue)):
                        pend = queue.popleft()
                        if pend.rung != 0:
                            queue.append(pend)  # keeps its lane order
                            continue
                        self._parked[lane] += 1
                        self._closed.extend(coalescer.add(
                            self._fusion_key(pend),
                            pend,
                            pend.request.dense_cols,
                            now,
                        ))
            self._closed.extend(coalescer.pop_ready(now, flush_all=draining))
        if self._closed:
            _key, members = self._closed.popleft()
            for pend in members:
                self._parked[pend.lane] -= 1
        else:
            queue = next((self._lanes[lane] for lane in LANES
                          if self._lanes[lane]), None)
            if queue is None:
                return None
            members = [queue.popleft()]
            if coalescer is not None:
                # demoted rung (or drain flush): never held for company
                self.metrics.counter("coalesce.bypass").inc()
        for pend in members:
            self._inflight[pend.index] = pend
        return members

    def _next_deadline(self) -> float | None:
        """When the earliest open coalescing window closes (supervisor seam)."""
        if self._coalescer is None:
            return None
        with self._lock:
            return self._coalescer.next_deadline()

    def _queued(self) -> tuple[int, int]:
        """``(total, batch lane)`` admitted requests not yet dispatched.

        Caller holds ``self._lock``.  Counts every such request wherever
        it waits — in a lane, an open window, or a closed window not yet
        handed to the supervisor — so backpressure sees the whole backlog.
        """
        total = sum(len(q) for q in self._lanes.values())
        total += sum(self._parked.values())
        return total, len(self._lanes["batch"]) + self._parked["batch"]

    def _fusion_key(self, pend: _Pending) -> tuple:
        """The window grouping key: the batch's key plus the rung."""
        return fusion_group_key(
            self._runtime(pend.tenant), pend.request
        ) + (pend.rung,)

    def _emit(self, members: list):
        """Dispatch one unit (:func:`~repro.runtime.fusion.dispatch_unit`).

        Members are planned individually (a member whose planning fails
        gets its structured 500 without poisoning the window); two or
        more survivors share one synthetic dispatch index — the
        supervisor treats the window as a unit, so retry and quarantine
        apply to the whole group.
        """
        now = time.monotonic()
        for pend in members:
            pend.dispatched_at = now
        with self._lock:
            index = members[0].index if len(members) == 1 else next(self._indexes)
        return dispatch_unit(
            index, [(pend.index, pend) for pend in members],
            self._plan_handle, self.metrics,
        )

    def _plan_handle(self, pend: _Pending) -> PlanHandle:
        """Plan one request at its rung; package it for the workers.

        The matrix goes through the operand plane
        (:func:`~repro.runtime.parallel.make_handle`): published to shared
        memory once per fingerprint (a pre-attached hot operand is a
        publish hit) and shipped as a descriptor, with the resident bytes
        charged to the requesting tenant's accounting.
        """
        caps = LADDER[pend.rung]
        plan, _, _ = self._runtime(pend.tenant).plan(
            pend.request, caps if caps is not None else FULL_CAPABILITIES
        )
        handle = make_handle(
            pend.index, pend.request, plan, self.operands,
            capabilities=caps, metrics=self.metrics,
        )
        if handle.operand is not None:
            self.cache.charge_segment(
                pend.tenant, handle.fingerprint, handle.operand.total_bytes
            )
        return handle

    def _dispatch_loop(self) -> None:
        """The dispatcher thread body: one supervisor run for the lifetime."""
        try:
            self.supervisor.run(
                self._stream(),
                on_payload=self._on_payload,
                on_failure=self._on_failure,
                next_deadline=self._next_deadline,
            )
        except BaseException as exc:  # supervisor itself died: fail all
            self._dispatch_error = f"{type(exc).__name__}: {exc}"
            with self._lock:  # every stranded request is now in flight
                for lane in LANES:
                    self._inflight.update((p.index, p) for p in self._lanes[lane])
                    self._lanes[lane].clear()
                    self._parked[lane] = 0
                if self._coalescer is not None:
                    self._closed.extend(
                        self._coalescer.pop_ready(0.0, flush_all=True)
                    )
                for _key, members in self._closed:
                    self._inflight.update((p.index, p) for p in members)
                self._closed.clear()
                orphans = list(self._inflight)
            for index in orphans:
                self._on_failure(FailedItem(
                    index=index,
                    error_type="SupervisionError",
                    message=f"dispatcher died: {self._dispatch_error}",
                    attempts=0,
                    phase="dispatch",
                ))
        finally:
            self._notify_drained()

    def _notify_drained(self) -> None:
        if self._loop is None or self._drained is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._drained.set)
        except RuntimeError:
            pass  # loop already closed

    # ------------------------------------------- completion path (callbacks)
    def _on_payload(self, index: int, payload) -> None:
        """Supervisor completion hook: journal, account, resolve.

        A fused window's payload fans out into per-member completions
        (:func:`~repro.runtime.fusion.fan_out_payload`): each member
        record is journaled, accounted, and resolved exactly as a solo
        run's would be (digests match by the fusion contract — see
        :mod:`repro.runtime.fusion`).
        """
        for member, (record_json, _, _) in fan_out_payload(
            index, payload, self.metrics
        ):
            with self._lock:
                pend = self._inflight.pop(member, None)
            if pend is None:
                continue
            record = RunRecord.from_json(record_json)
            self.admission.observe_completion(
                time.monotonic() - pend.dispatched_at
            )
            # A degraded journal loses the line but never the answer; a
            # restart re-executes it (at-least-once, never silent loss).
            self.state.journal.append(pend.fingerprint, record)
            self._completed[pend.fingerprint] = record
            self._counts["completed"] += 1
            self.metrics.counter("service.completed").inc()
            if pend.recovery:
                self._counts["recovered"] += 1
                self.metrics.counter("service.recovered").inc()
            self._update_gauges()
            self._resolve(pend, self._ok_result(pend, record, replayed=False))

    def _on_failure(self, failed: FailedItem, item=None) -> None:
        """Quarantine hook: a structured 500 per request, never a hang.

        Serves the supervisor's quarantines, planning failures included
        (``item`` is what it dispatched: a fused window's quarantine fans
        out to every member via
        :func:`~repro.runtime.fusion.fan_out_failure`), and requests
        stranded by a dispatcher crash.
        """
        for member in fan_out_failure(failed, item):
            with self._lock:
                pend = self._inflight.pop(member.index, None)
            if pend is None:
                continue
            member.fingerprint = pend.fingerprint
            self._failures.append(member)
            self._counts["failed"] += 1
            self.metrics.counter("service.failed").inc()
            self._update_gauges()
            self._resolve(
                pend, {"status": STATUS_FAILED, "failure": member.to_dict()}
            )

    def _resolve(self, pend: _Pending, resp: dict) -> None:
        """Hand a response doc to the waiting submit handler, cross-thread."""
        future = pend.future
        if future is None:
            return

        def _set() -> None:
            if not future.done():
                future.set_result(resp)

        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:
            pass  # loop gone; the client connection is gone with it

    def _ok_result(self, pend: _Pending, record, *, replayed: bool) -> dict:
        return {
            "status": STATUS_OK,
            "result": {
                "fingerprint": pend.fingerprint,
                "digest": record.digest(),
                "variant": record.variant,
                "algorithm": record.algorithm,
                "time_s": record.time_s,
                "tenant": pend.tenant,
                "lane": pend.lane,
                "rung": pend.rung,
                "replayed": replayed,
            },
        }

    def _update_gauges(self) -> None:
        with self._lock:
            queued = sum(len(q) for q in self._lanes.values())
            inflight = len(self._inflight)
            window_pending = (
                self._coalescer.pending
                if self._coalescer is not None
                else 0
            )
        self.metrics.gauge("coalesce.window_pending").set(window_pending)
        self.metrics.gauge("service.queue_depth").set(queued)
        self.metrics.gauge("service.inflight").set(inflight)
        self.metrics.gauge("service.utilization").set(
            self.admission.utilization()
        )
        self.metrics.gauge("service.window").set(self.admission.window())
        mirror_cache_gauges(self.metrics, self.cache.cache.stats)
        # store.* gauges: the operand plane (docs/STORAGE.md,
        # docs/OBSERVABILITY.md).
        operands = self.operands.stats
        self.metrics.gauge("store.resident_segments").set(
            len(self.operands.descriptors)
        )
        self.metrics.gauge("store.bytes_shipped").set(
            operands["bytes_shipped"]
        )
        self.metrics.gauge("store.publish_hits").set(
            operands["publish_hits"]
        )
        self.metrics.gauge("store.dense_dedup_hits").set(
            operands["dense_dedup_hits"]
        )

    # ========================================================= socket side
    async def _handle_connection(self, reader, writer) -> None:
        """One client connection: any number of pipelined NDJSON requests."""
        wlock = asyncio.Lock()
        conn_tasks: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the stream limit: asyncio dropped what it had
                    # buffered, so the connection has lost its framing.
                    await self._reply(writer, wlock, {
                        "status": STATUS_BAD_REQUEST,
                        "error": "request line too large (limit "
                                 f"{MAX_LINE_BYTES} bytes)",
                        "id": "",
                    })
                    break
                if not line:
                    break
                task = asyncio.ensure_future(
                    self._serve_line(line, writer, wlock)
                )
                for pool in (conn_tasks, self._tasks):
                    pool.add(task)
                    task.add_done_callback(pool.discard)
        except (ConnectionResetError, OSError):
            pass
        finally:
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, OSError):
                pass

    async def _serve_line(self, line: bytes, writer, wlock) -> None:
        rid = ""
        try:
            doc = decode_message(line)
            rid = request_id(doc)
            op = parse_request(doc)
            if op == "submit":
                resp = await self._op_submit(doc)
            elif op == "health":
                resp = self._op_health()
            elif op == "stats":
                resp = self._op_stats()
            elif op == "selfcheck":
                resp = self._op_selfcheck()
            else:
                resp = await self._op_drain()
        except ProtocolError as exc:
            resp = {"status": STATUS_BAD_REQUEST, "error": str(exc)}
        except Exception as exc:  # never kill the connection for one line
            resp = {
                "status": STATUS_FAILED,
                "error": f"{type(exc).__name__}: {exc}",
            }
        resp["id"] = rid
        await self._reply(writer, wlock, resp)

    @staticmethod
    async def _reply(writer, wlock, resp: dict) -> None:
        """Write one response frame (serialized per connection)."""
        async with wlock:
            try:
                writer.write(encode_message(resp))
                await writer.drain()
            except (ConnectionResetError, OSError):
                pass  # client hung up; admitted work still completes

    # ------------------------------------------------------------ handlers
    def _matrix(self, spec: str):
        """The matrix ``spec`` names, built once per generator spec.

        A generator spec always yields the same matrix, so its container
        (with its memoized fingerprint) is kept in an LRU of at most
        ``cache_entries`` specs and shared by every request naming it.
        ``.mtx`` paths are read on every call: the file can change.
        Event-loop thread only (``_recover`` runs there before serving).
        """
        if spec.endswith(".mtx"):
            return from_spec(spec)
        matrix = self._matrices.get(spec)
        if matrix is not None:
            self._matrices.move_to_end(spec)
            return matrix
        matrix = from_spec(spec)
        self._matrices[spec] = matrix
        if len(self._matrices) > self.config.cache_entries:
            self._matrices.popitem(last=False)
        return matrix

    async def _op_submit(self, doc: dict) -> dict:
        if self._draining:
            return {
                "status": STATUS_UNAVAILABLE,
                "error": "service is draining",
            }
        req = parse_submit(doc)
        try:
            matrix = self._matrix(req.matrix_spec)
            request = SpmmRequest(
                matrix, k=req.k, seed=req.seed, tile_width=req.tile_width
            )
        except ReproError as exc:
            raise ProtocolError(str(exc)) from None
        base_fp = request_fingerprint(
            request, self.gpu_config, self.ssf_threshold
        )
        with self._lock:
            queued_total, queued_batch = self._queued()
            backlog = queued_total + len(self._inflight)
        rung = self.admission.choose_rung(req.deadline_s, backlog=backlog)
        if rung > 0:
            self.metrics.counter("service.demoted").inc()
        fingerprint = service_fingerprint(base_fp, rung)
        record = self._completed.get(fingerprint)
        if record is not None:
            # Journal fast path: already durably computed (this lifetime
            # or a previous one) — answer without consuming any quota.
            self._counts["replayed"] += 1
            self.metrics.counter("service.replayed").inc()
            pend = _Pending(
                index=-1, rid=req.id, fingerprint=fingerprint,
                tenant=req.tenant, lane=req.lane, rung=rung,
                request=request, future=None, enqueued_at=time.monotonic(),
            )
            return self._ok_result(pend, record, replayed=True)
        decision = self.admission.admit(
            req.tenant, req.lane,
            queued_total=queued_total, queued_batch=queued_batch,
        )
        if not decision.admitted:
            self._counts["shed"] += 1
            self.metrics.counter("service.shed").inc()
            return {
                "status": STATUS_SHED,
                "error": f"admission refused ({decision.reason})",
                "reason": decision.reason,
                "retry_after_s": round(decision.retry_after_s, 6),
            }
        # Durability ordering: fsync the intent *before* the request can
        # be dispatched (or this handler acknowledge anything).  On a
        # degraded intent plane (disk full) the service keeps serving
        # non-durable — the un-logged acceptance is counted, and the only
        # weakened guarantee is that a crash before completion drops the
        # request (the client sees its connection die, never a silent
        # wrong answer).
        self.state.record_accepted({
            "fingerprint": fingerprint,
            "tenant": req.tenant,
            "matrix": req.matrix_spec,
            "k": req.k,
            "seed": req.seed,
            "tile_width": req.tile_width,
            "lane": req.lane,
            "rung": rung,
        })
        future = self._loop.create_future()
        with self._lock:
            pend = _Pending(
                index=next(self._indexes), rid=req.id, fingerprint=fingerprint,
                tenant=req.tenant, lane=req.lane, rung=rung,
                request=request, future=future,
                enqueued_at=time.monotonic(),
            )
            self._lanes[req.lane].append(pend)
        self.supervisor.wake()
        self.metrics.counter("service.admitted").inc()
        return await future

    def _op_health(self) -> dict:
        with self._lock:
            queued = {lane: len(q) for lane, q in self._lanes.items()}
            inflight = len(self._inflight)
        return {
            "status": STATUS_OK,
            "result": {
                "state": "draining" if self._draining else "ok",
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "workers": self.config.workers,
                "queued": queued,
                "inflight": inflight,
                "counts": dict(self._counts),
                "failed": len(self._failures),
                "recovery_pending_at_start": self._recovery_pending,
                "admission": self.admission.snapshot(),
                "cache": self.cache.stats,
                "cache_slo": self.cache.slo_report(),
                "failures": [f.to_dict() for f in self._failures[-20:]],
                "dispatch_error": self._dispatch_error,
                "durability": self.pressure.snapshot(),
            },
        }

    def _op_stats(self) -> dict:
        self._update_gauges()
        return {
            "status": STATUS_OK,
            "result": {
                "metrics": self.metrics.snapshot(),
                "supervisor": dict(self.supervisor.stats),
                "cache": self.cache.stats,
                "admission": self.admission.snapshot(),
                "store": {
                    "operands": dict(self.operands.stats),
                    "resident_segments": len(self.operands.descriptors),
                    "persist": (
                        dict(self.persist.stats)
                        if self.persist is not None
                        else None
                    ),
                },
                "durability": self.pressure.snapshot(),
            },
        }

    def _op_selfcheck(self) -> dict:
        """On-demand integrity audit of every durable/shared plane.

        Checks each resident operand segment against its publish-time
        checksums (corrupt segments are quarantined and republished from
        the owner's source copy on the spot), audits every file the
        persistent store's manifest references (bad matrices/entries are
        quarantined so later gets re-derive), and reports the
        resource-pressure view of the journal/intent planes.  ``healthy``
        is the single verdict: no corruption found and no plane degraded.
        """
        corrupt = self.operands.verify_all()
        republished = {}
        for token in corrupt:
            republished[token] = self.operands.republish(token) is not None
        if corrupt:
            self.metrics.counter("integrity.corruption_detected").inc(
                len(corrupt)
            )
            self.metrics.counter("integrity.republished").inc(
                sum(1 for ok in republished.values() if ok)
            )
        segments = {
            "checked": len(self.operands.descriptors) + len(corrupt),
            "corrupt": {token: list(bad) for token, bad in corrupt.items()},
            "republished": republished,
        }
        persist_report = (
            self.persist.verify_manifest(repair=True)
            if self.persist is not None
            else None
        )
        persist_clean = persist_report is None or not (
            persist_report["corrupt"] or persist_report["missing"]
        )
        return {
            "status": STATUS_OK,
            "result": {
                "healthy": bool(
                    not corrupt
                    and persist_clean
                    and not self.pressure.any_degraded
                ),
                "segments": segments,
                "persist": persist_report,
                "durability": self.pressure.snapshot(),
            },
        }

    async def _op_drain(self) -> dict:
        self.request_drain()
        await self._drained.wait()
        return {"status": STATUS_OK, "result": self.drain_summary()}
