"""Per-layer tracing for the traced benchmark run.

:func:`install` wraps the public functions of each layer listed in
:data:`LAYERS` with a span recorder.  A span records its duration and
subtracts it from its parent span's self time (a per-thread stack), so a
layer's ``self_ms`` is its own time minus the layers it called.

A function is rebound everywhere it was imported: after wrapping, every
loaded ``repro`` module attribute that *is* the original function is
replaced too (``kernels/hybrid.py`` does ``from ..gpu.timing import
time_kernel``, so patching only the defining module would measure
nothing).  The coverage guard in ``run.py`` then checks that each layer
fired on the workload that owns it.

Spans stay in memory.  The program process writes its totals with
:func:`flush` when it finishes; forked pool workers inherit the wrappers,
clear the inherited totals at fork, and rewrite their own file after
every task, because a worker exits without running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: layer -> [(module, attribute path), ...]: the wrapped entry points
LAYERS = {
    "kernels.compute": [("repro.kernels.common", "compute_spmm")],
    "kernels.prepare": [("repro.kernels.backends.base", "canonical_csr")],
    "kernels.accounting": [
        ("repro.kernels.csr_spmm", "csr_spmm"),
        ("repro.kernels.dcsr_spmm", "dcsr_spmm"),
        ("repro.kernels.tiled_spmm", "b_stationary_spmm"),
    ],
    "gpu.timing": [("repro.gpu.timing", "time_kernel")],
    "runtime.record": [
        ("repro.runtime.record", "RunRecord.from_execution"),
        ("repro.runtime.record", "RunRecord.digest"),
    ],
    # the service's TenantCacheView.lookup goes through PlanCache.lookup,
    # so wrapping only the latter counts each lookup once on every path
    "runtime.cache": [("repro.runtime.cache", "PlanCache.lookup")],
    "runtime.planner": [("repro.runtime.planner", "Planner.plan")],
    "formats.convert": [("repro.formats.convert", "FormatStore.get")],
    "engine.convert": [("repro.engine.api", "convert_matrix_online")],
    "store.persist": [
        ("repro.store.persist", "PersistentFormatStore.put"),
        ("repro.store.persist", "PersistentFormatStore.get"),
    ],
    "store.registry": [
        ("repro.store.registry", "SharedOperandRegistry.publish_matrix"),
        ("repro.store.registry", "attach_matrix"),
        ("repro.store.registry", "attach_dense"),
        ("repro.store.layout", "verify_arrays"),
    ],
    "runtime.journal": [("repro.runtime.journal", "RunJournal.append")],
    "service.state": [("repro.service.state", "ServiceState.record_accepted")],
    "service.admission": [
        ("repro.service.admission", "AdmissionController.admit"),
    ],
    "service.coalesce": [
        ("repro.service.coalesce", "CoalescingScheduler.add"),
        ("repro.service.coalesce", "CoalescingScheduler.pop_ready"),
    ],
}

#: Not layers: ``SpmmRuntime.run`` is a span only to count runs; the worker
#: task is timed for the supervisor round trip.
_RUN = ("repro.runtime", "SpmmRuntime.run")
_TASK = ("repro.runtime.parallel", "execute_handle")


class Recorder:
    """Span totals for one process (reset in each forked child)."""

    def __init__(self):
        self.out_dir = None
        self.owner = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        #: span name -> [calls, total_s, self_s]
        self.spans: dict[str, list] = {}
        #: named counters and sums (hits, bytes, waits)
        self.counts: dict[str, float] = {}
        #: dispatch index -> supervisor-side dispatch / payload times
        self.dispatched: dict[int, float] = {}
        self.delivered: dict[int, float] = {}
        #: dispatch index -> worker task duration
        self.executed: dict[int, float] = {}
        #: id(pending request) -> coalescer add time (monotonic)
        self.window_added: dict[int, float] = {}

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, name: str, total: float, own: float) -> None:
        with self.lock:
            row = self.spans.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += total
            row[2] += own

    def count(self, name: str, value: float = 1.0) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "pid": os.getpid(),
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "dispatched": dict(self.dispatched),
                "delivered": dict(self.delivered),
                "executed": dict(self.executed),
            }

    def flush(self) -> None:
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


RECORDER = Recorder()


def _span(name, fn, before=None, after=None):
    """Wrap ``fn`` in a span named ``name`` with optional probes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        stack = rec.stack()
        frame = [0.0]
        ctx = before(args, kwargs) if before is not None else None
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            rec.add(name, dt, dt - frame[0])
        if after is not None:
            after(args, kwargs, result, ctx, dt)
        return result

    return wrapper


# ------------------------------------------------------------------ probes
def _cache_after(args, kwargs, result, ctx, dt):
    RECORDER.count("runtime.cache.hits", result is not None)


def _persist_after(args, kwargs, result, ctx, dt):
    RECORDER.count("store.persist.gets")
    RECORDER.count("store.persist.disk_hits", result is not None)


def _publish_before(args, kwargs):
    stats = args[0].stats
    return stats["publish_hits"], stats["bytes_shipped"]


def _publish_after(args, kwargs, result, ctx, dt):
    stats = args[0].stats
    RECORDER.count("store.registry.publishes")
    RECORDER.count("store.registry.publish_hits", stats["publish_hits"] - ctx[0])
    RECORDER.count("store.registry.bytes_shipped", stats["bytes_shipped"] - ctx[1])


def _verify_after(args, kwargs, result, ctx, dt):
    RECORDER.count("store.registry.verify_s", dt)


def _admit_after(args, kwargs, result, ctx, dt):
    RECORDER.count("service.admission.shed", not result.admitted)


def _windows(result):
    for _key, members in result:
        RECORDER.count("service.coalesce.windows")
        RECORDER.count("service.coalesce.window_members", len(members))
        RECORDER.count("service.coalesce.fused_windows", len(members) >= 2)


def _add_after(args, kwargs, result, ctx, dt):
    # CoalescingScheduler.add(self, key, member, k, now)
    member, now = args[2], args[4]
    with RECORDER.lock:
        RECORDER.window_added[id(member)] = now
    _windows(result)


def _pop_after(args, kwargs, result, ctx, dt):
    _windows(result)


_PROBES = {
    "PlanCache.lookup": (None, _cache_after),
    "PersistentFormatStore.get": (None, _persist_after),
    "SharedOperandRegistry.publish_matrix": (_publish_before, _publish_after),
    "verify_arrays": (None, _verify_after),
    "AdmissionController.admit": (None, _admit_after),
    "CoalescingScheduler.add": (None, _add_after),
    "CoalescingScheduler.pop_ready": (None, _pop_after),
}


def _plan_handle(fn):
    """Lane and window waits, read off each request as it is planned."""

    @functools.wraps(fn)
    def wrapper(self, pend):
        added = RECORDER.window_added.pop(id(pend), None)
        left_lane = added if added is not None else pend.dispatched_at
        RECORDER.count("service.admission.lane_wait_s",
                       left_lane - pend.enqueued_at)
        RECORDER.count("service.admission.lane_waits")
        if added is not None:
            RECORDER.count("service.coalesce.window_wait_s",
                           pend.dispatched_at - added)
            RECORDER.count("service.coalesce.window_waits")
        return fn(self, pend)

    return wrapper


def _pop_eligible(fn):
    """The supervisor sends a task right after popping it: dispatch time."""

    @functools.wraps(fn)
    def wrapper(pending, now):
        task = fn(pending, now)
        if task is not None:
            RECORDER.dispatched[task[0]] = time.perf_counter()
        return task

    return wrapper


def _supervisor_run(fn):
    """Stamp each payload's arrival at the supervisor."""

    @functools.wraps(fn)
    def wrapper(self, items, **kwargs):
        on_payload = kwargs.get("on_payload")

        def stamped(index, payload):
            RECORDER.delivered[index] = time.perf_counter()
            if on_payload is not None:
                on_payload(index, payload)

        kwargs["on_payload"] = stamped
        return fn(self, items, **kwargs)

    return wrapper


def _task(fn):
    """The worker's task: its duration, then a flush (workers skip atexit)."""

    @functools.wraps(fn)
    def wrapper(ctx, handle):
        t0 = time.perf_counter()
        try:
            return fn(ctx, handle)
        finally:
            RECORDER.executed[handle.index] = time.perf_counter() - t0
            if os.getpid() != RECORDER.owner:
                RECORDER.flush()

    return wrapper


# ---------------------------------------------------------------- install
def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part)
    return obj, parts[-1]


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(module: str, path: str, make) -> None:
    owner, attr = _resolve(module, path)
    if isinstance(owner, type):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(owner, attr)
    _rebind(original, make(original))


def install(out_dir: str) -> None:
    """Wrap every layer, the worker task and the supervisor seams."""
    for module in ("repro.runtime", "repro.service", "repro.store",
                   "repro.kernels", "repro.engine", "repro.gpu"):
        importlib.import_module(module)
    for layer, targets in LAYERS.items():
        for module, path in targets:
            before, after = _PROBES.get(path, (None, None))
            _patch(module, path,
                   lambda fn, n=layer, b=before, a=after: _span(n, fn, b, a))
    _patch(*_RUN, lambda fn: _span("runtime.run", fn))
    _patch(*_TASK, _task)
    _patch("repro.service.server", "SpmmService._plan_handle", _plan_handle)
    _patch("repro.runtime.supervisor", "WorkerSupervisor._pop_eligible",
           _pop_eligible)
    _patch("repro.runtime.supervisor", "WorkerSupervisor.run", _supervisor_run)
    os.makedirs(out_dir, exist_ok=True)
    RECORDER.out_dir = out_dir
    RECORDER.owner = os.getpid()
    os.register_at_fork(after_in_child=RECORDER.reset)


# -------------------------------------------------------------- summarize
def load(out_dir: str) -> list[dict]:
    """Every process snapshot written under ``out_dir``."""
    snaps = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                snaps.append(json.load(fh))
    return snaps


def since(final: list[dict], base: list[dict]) -> list[dict]:
    """Per-process totals accrued after the ``base`` snapshots were taken."""
    before = {snap["pid"]: snap for snap in base}
    out = []
    for snap in final:
        b = before.get(snap["pid"])
        if b is None:
            out.append(snap)
            continue
        zero = [0, 0.0, 0.0]
        out.append({
            "pid": snap["pid"],
            "spans": {name: [v - w for v, w in zip(row, b["spans"].get(name, zero))]
                      for name, row in snap["spans"].items()},
            "counts": {name: v - b["counts"].get(name, 0.0)
                       for name, v in snap["counts"].items()},
            **{field: {i: t for i, t in snap[field].items() if i not in b[field]}
               for field in ("dispatched", "delivered", "executed")},
        })
    return out


def merge(snapshot_groups: list[list[dict]]) -> dict:
    """Sum spans/counts over processes; join dispatch/payload/task times.

    Each group is one program process plus its workers: dispatch
    indexes are only unique within a group.
    """
    spans: dict[str, list] = {}
    counts: dict[str, float] = {}
    roundtrip_s = []
    for group in snapshot_groups:
        dispatched, delivered, executed = {}, {}, {}
        for snap in group:
            for name, row in snap["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += row[i]
            for name, value in snap["counts"].items():
                counts[name] = counts.get(name, 0.0) + value
            dispatched.update(snap["dispatched"])
            delivered.update(snap["delivered"])
            executed.update(snap["executed"])
        for index, sent in dispatched.items():
            if index in delivered and index in executed:
                roundtrip_s.append(delivered[index] - sent - executed[index])
    return {"spans": spans, "counts": counts, "roundtrip_s": roundtrip_s}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(merged: dict, n_requests: int) -> dict:
    """Per-request layer metrics (``<layer>.calls`` / ``.self_ms`` + extras)."""
    spans, counts = merged["spans"], merged["counts"]
    n = max(1, n_requests)
    out = {}
    for layer in LAYERS:
        calls, _total, own = spans.get(layer, (0, 0.0, 0.0))
        out[f"{layer}.calls"] = (calls / n, "count")
        out[f"{layer}.self_ms"] = (own * 1e3 / n, "ms")
    c = counts.get
    runs = spans.get("runtime.run", (0, 0.0, 0.0))[0]
    computes = spans.get("kernels.compute", (0, 0.0, 0.0))[0]
    lookups = spans.get("runtime.cache", (0, 0.0, 0.0))[0]
    rt = merged["roundtrip_s"]
    out.update({
        "kernels.compute.calls_per_run": (_ratio(computes, runs), "count"),
        "runtime.cache.hit_ratio": (
            _ratio(c("runtime.cache.hits", 0.0), lookups), "ratio"),
        "store.persist.disk_hit_ratio": (
            _ratio(c("store.persist.disk_hits", 0.0),
                   c("store.persist.gets", 0.0)), "ratio"),
        "store.registry.publish_hit_ratio": (
            _ratio(c("store.registry.publish_hits", 0.0),
                   c("store.registry.publishes", 0.0)), "ratio"),
        "store.registry.bytes_shipped": (
            c("store.registry.bytes_shipped", 0.0) / n, "bytes"),
        "store.registry.verify_ms": (
            c("store.registry.verify_s", 0.0) * 1e3 / n, "ms"),
        "runtime.supervisor.roundtrip_overhead_ms": (
            _ratio(sum(rt), len(rt)) * 1e3, "ms"),
        "service.admission.lane_wait_ms": (
            _ratio(c("service.admission.lane_wait_s", 0.0),
                   c("service.admission.lane_waits", 0.0)) * 1e3, "ms"),
        "service.admission.shed": (c("service.admission.shed", 0.0), "count"),
        "service.coalesce.window_wait_ms": (
            _ratio(c("service.coalesce.window_wait_s", 0.0),
                   c("service.coalesce.window_waits", 0.0)) * 1e3, "ms"),
        "service.coalesce.requests_per_pass": (
            _ratio(c("service.coalesce.window_members", 0.0),
                   c("service.coalesce.windows", 0.0)), "ratio"),
    })
    return out
