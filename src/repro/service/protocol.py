"""Wire protocol of the resident SpMM service: NDJSON over a Unix socket.

One connection carries any number of requests; each request and each
response is one JSON object on one line.  Requests carry a client-chosen
``id`` echoed verbatim on the response, so a client may pipeline several
submits on one connection and match completions as they arrive (submits
finish in completion order, not submission order).

Request shapes (``op`` selects the handler)::

    {"id": "r1", "op": "submit", "tenant": "ml", "matrix": "<spec>",
     "k": 8, "seed": 7, "tile_width": 64, "lane": "interactive",
     "deadline_s": 0.5}
    {"id": "r2", "op": "health"}
    {"id": "r3", "op": "stats"}
    {"id": "r4", "op": "drain"}

``matrix`` is a matrix spec (:func:`repro.matrices.from_spec`): a
generator spec or a ``.mtx`` path.  ``lane`` is ``interactive`` (default)
or ``batch``; ``deadline_s`` is optional and opts the request into
deadline-driven demotion down the degradation ladder.

Responses carry an HTTP-flavored ``status``::

    200 ok          — ``result`` holds the payload
    400 bad request — malformed or unresolvable request; not retryable
    429 shed        — admission refused it; ``retry_after_s`` says when
                      to try again
    500 failed      — admitted but quarantined after retries;
                      ``failure`` is the structured FailedItem
    503 unavailable — the service is draining; find another instance

The grammar is deliberately tiny and validated here, in one place, so the
server never sees an unchecked field and the client never guesses.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from ..errors import ReproError

#: Response statuses (HTTP-flavored, carried as integers).
STATUS_OK = 200
STATUS_BAD_REQUEST = 400
STATUS_SHED = 429
STATUS_FAILED = 500
STATUS_UNAVAILABLE = 503

#: Operations a request may name.
OPS = ("submit", "health", "stats", "selfcheck", "drain")

#: Queue lanes, in dispatch-priority order.
LANES = ("interactive", "batch")

#: Longest request line the server reads, in bytes (asyncio's default
#: stream limit).  A longer line gets one 400 and the connection closes:
#: the rest of that line can no longer be framed.
MAX_LINE_BYTES = 2 ** 16


class ProtocolError(ReproError):
    """A request line the service cannot act on (answered with 400)."""


@dataclass(frozen=True)
class SubmitRequest:
    """One validated ``submit`` request, ready for admission."""

    id: str
    tenant: str
    matrix_spec: str
    k: int
    seed: int
    tile_width: int
    lane: str
    deadline_s: float | None


def encode_message(doc: dict) -> bytes:
    """One NDJSON frame: compact JSON plus the line terminator."""
    return (
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()


def decode_message(line: bytes | str) -> dict:
    """Parse one frame; raises :class:`ProtocolError` on junk."""
    try:
        doc = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integer literals over
        # Python's digit limit; RecursionError, nesting too deep to parse
        raise ProtocolError(f"request is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ProtocolError("request must be a JSON object")
    return doc


def request_id(doc: dict) -> str:
    """The request's echoable id (empty string when absent/invalid)."""
    rid = doc.get("id")
    return rid if isinstance(rid, str) else ""


def parse_request(doc: dict) -> str:
    """Validate the envelope; returns the ``op`` name."""
    op = doc.get("op")
    if op not in OPS:
        raise ProtocolError(f"op must be one of {list(OPS)}, got {op!r}")
    return op


def parse_submit(doc: dict) -> SubmitRequest:
    """Validate a ``submit`` body field by field (no silent defaults for
    malformed values — a bad field is a 400, never a guess)."""

    def _int(name, default, minimum):
        value = doc.get(name, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProtocolError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ProtocolError(f"{name} must be >= {minimum}, got {value}")
        return value

    matrix_spec = doc.get("matrix")
    if not isinstance(matrix_spec, str) or not matrix_spec:
        raise ProtocolError("submit needs a non-empty string 'matrix' spec")
    tenant = doc.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
    lane = doc.get("lane", "interactive")
    if lane not in LANES:
        raise ProtocolError(f"lane must be one of {list(LANES)}, got {lane!r}")
    deadline_s = doc.get("deadline_s")
    if deadline_s is not None:
        number = isinstance(deadline_s, (int, float)) and not isinstance(
            deadline_s, bool
        )
        try:
            seconds = float(deadline_s) if number else math.nan
        except OverflowError:  # an integer too large for a float
            seconds = math.inf
        if not (math.isfinite(seconds) and seconds > 0):
            raise ProtocolError(
                f"deadline_s must be a finite positive number, got {deadline_s!r}"
            )
        deadline_s = seconds
    return SubmitRequest(
        id=request_id(doc),
        tenant=tenant,
        matrix_spec=matrix_spec,
        k=_int("k", 8, 1),
        seed=_int("seed", 0, 0),
        tile_width=_int("tile_width", 64, 1),
        lane=lane,
        deadline_s=deadline_s,
    )


def service_fingerprint(base_fingerprint: str, rung: int) -> str:
    """Journal identity of one admitted request *at one ladder rung*.

    :func:`~repro.runtime.journal.request_fingerprint` deliberately omits
    capabilities (the batch path always runs at full capability), but a
    demoted service run produces a different record than the full-rung
    run of the same request, so the journal key must separate them or a
    resume would replay the wrong record.
    """
    h = hashlib.sha256()
    h.update(base_fingerprint.encode())
    h.update(f":rung:{int(rung)}".encode())
    return h.hexdigest()
