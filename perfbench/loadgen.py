"""Open-loop, pipelining NDJSON load generator for the service workload.

``ServiceClient`` allows one outstanding request per connection, which
would quietly turn an open loop into a closed one.  This client keeps
many requests in flight on at most ``nproc`` connections, matches replies
by ``id``, and sends each event at its scheduled time whether or not
earlier replies have arrived.  Latency runs from the *scheduled* send
time to the reply, so a stall also charges the requests queued behind
it; ``lag`` records how late the generator itself sent.
"""

from __future__ import annotations

import asyncio
import time

from repro.service.protocol import decode_message, encode_message

#: generous per-line limit: stats replies can exceed asyncio's 64 KiB
LINE_LIMIT = 1 << 22


class Connection:
    """One socket with any number of requests in flight, matched by id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.waiting: dict[str, asyncio.Future] = {}
        self.task = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, path: str) -> "Connection":
        reader, writer = await asyncio.open_unix_connection(path, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                doc = decode_message(line)
                future = self.waiting.pop(doc.get("id", ""), None)
                if future is not None and not future.done():
                    future.set_result((time.perf_counter(), doc))
        finally:
            for future in self.waiting.values():
                if not future.done():
                    future.set_result((time.perf_counter(), None))
            self.waiting.clear()

    def send(self, rid: str, doc: dict) -> asyncio.Future:
        future = asyncio.get_running_loop().create_future()
        self.waiting[rid] = future
        self.writer.write(encode_message(dict(doc, id=rid)))
        return future

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass


def submit_doc(req) -> dict:
    return {"op": "submit", "tenant": req.tenant, "lane": req.lane,
            "matrix": req.spec, "k": req.k, "seed": req.seed}


async def _call(path: str, doc: dict) -> dict | None:
    conn = await Connection.open(path)
    try:
        _t, reply = await conn.send("ctl", doc)
        return reply
    finally:
        await conn.close()


def call(path: str, op: str) -> dict | None:
    """One control request (health/stats/drain) on a fresh connection."""
    return asyncio.run(_call(path, {"op": op}))


async def _run(path, events, n_conns, grace_s):
    conns = [await Connection.open(path) for _ in range(n_conns)]
    tenants: dict[str, int] = {}
    sent = []  # (request, scheduled perf time, future)
    lags = []
    start = time.perf_counter() + 0.05
    try:
        for n, event in enumerate(events):
            due = start + event.t
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, time.perf_counter() - due))
            for m, req in enumerate(event.requests):
                conn = conns[tenants.setdefault(req.tenant, len(tenants)) % n_conns]
                sent.append((req, due, conn.send(f"{n}.{m}", submit_doc(req))))
            for conn in conns:
                await conn.writer.drain()
        if sent:
            await asyncio.wait([f for _, _, f in sent], timeout=grace_s)
    finally:
        for conn in conns:
            await conn.close()
    results = []
    for req, due, future in sent:
        at, reply = future.result() if future.done() else (None, None)
        results.append({
            "request": req,
            "reply": reply,
            "latency_s": None if reply is None else at - due,
        })
    return results, lags


def run_open_loop(path: str, events, *, n_conns: int, grace_s: float = 60.0):
    """Send ``events`` on schedule; returns (per-request results, lags)."""
    return asyncio.run(_run(path, events, n_conns, grace_s))


async def _saturate(path, requests, depth, n_conns, seconds, grace_s):
    conns = [await Connection.open(path) for _ in range(n_conns)]
    tenants: dict[str, int] = {}
    results = []
    start = time.perf_counter()
    stop = start + seconds

    async def slot(n):
        sent = 0
        while time.perf_counter() < stop:
            req = next(requests)
            conn = conns[tenants.setdefault(req.tenant, len(tenants)) % n_conns]
            try:
                at, reply = await asyncio.wait_for(
                    conn.send(f"p{n}.{sent}", submit_doc(req)), grace_s)
            except asyncio.TimeoutError:
                at, reply = None, None
            sent += 1
            results.append({
                "request": req,
                "reply": reply,
                "done_s": None if reply is None else at - start,
            })
            if reply is None:
                return

    try:
        await asyncio.gather(*(slot(n) for n in range(depth)))
    finally:
        for conn in conns:
            await conn.close()
    return results


def run_closed_loop(path: str, requests, *, depth: int, n_conns: int,
                    seconds: float, grace_s: float = 60.0) -> list[dict]:
    """Keep ``depth`` requests in flight for ``seconds``; per-request results.

    Each slot sends its next request as soon as its last reply arrives,
    so the service, not a schedule, sets the pace.  ``done_s`` is each
    reply's arrival, counted from the start of the loop.
    """
    return asyncio.run(_saturate(path, iter(requests), depth, n_conns,
                                 seconds, grace_s))
