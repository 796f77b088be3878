"""Durable service state: the accepted-intent log beside the run journal.

The batch executor's :class:`~repro.runtime.journal.RunJournal` records
*completions*; a resident service additionally needs to remember
*acceptances*, because its crash contract is stronger than a batch's: a
request the server said yes to must survive the server.  The state
directory holds both halves::

    <state_dir>/accepted.jsonl   one line per admitted request (this module)
    <state_dir>/journal.jsonl    one line per completed record (RunJournal)

Both are :class:`~repro.runtime.journal.DurableLog` instances, so they
share one writer: an intent is one complete JSON line written with a
single ``write`` + flush + fsync *before* the request is queued, so a
crash can lose at most the request being accepted at that instant — and
that client never got its 200, so nothing admitted is ever silently
dropped.  On restart, ``accepted - journaled = the recovery set``:
exactly the requests that were in flight when the process died,
re-executed before the socket reopens.

Intent lines are self-describing (schema v1)::

    {"version": 1, "kind": "accepted", "fingerprint": "<service fp>",
     "tenant": "...", "matrix": "<spec>", "k": 8, "seed": 7,
     "tile_width": 64, "lane": "batch", "rung": 0}

``fingerprint`` is the :func:`~repro.service.protocol.service_fingerprint`
(request fingerprint x ladder rung), ``matrix`` a
:func:`~repro.matrices.from_spec` spec — everything needed to rebuild and
re-run the request at the same rung it was admitted at.  Loading uses the
journal's line reader: it tolerates a torn tail line and skips anything
it cannot decode or trust (a distrusted intent can only cause a redundant
re-execution, which the journal dedupes — never a loss).
:meth:`ServiceState.compact_accepted` rewrites the log atomically with
only still-outstanding intents so it stays bounded across restarts.
"""

from __future__ import annotations

import json
import os

from ..runtime.journal import DurableLog, RunJournal, read_log

#: Intent-line schema version; bump on incompatible change.
STATE_VERSION = 1

#: Fields every trusted intent line must carry.
_REQUIRED = ("fingerprint", "tenant", "matrix", "k", "seed", "tile_width",
             "lane", "rung")


def _intent_line(intent: dict) -> str:
    """One complete schema-v1 intent line (no trailing newline)."""
    doc = {"version": STATE_VERSION, "kind": "accepted"}
    doc.update({k: intent[k] for k in _REQUIRED})
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class ServiceState:
    """One service instance's durable state directory (see module doc)."""

    def __init__(self, state_dir: str, *, pressure=None):
        from ..runtime.pressure import ResourcePressure

        self.state_dir = str(state_dir)
        os.makedirs(self.state_dir, exist_ok=True)
        self.accepted_path = os.path.join(self.state_dir, "accepted.jsonl")
        self.journal_path = os.path.join(self.state_dir, "journal.jsonl")
        #: resource-exhaustion policy, shared by both logs so the service
        #: reports one unified per-plane health view
        self.pressure = pressure if pressure is not None else ResourcePressure()
        #: the completion journal (shared instance so appends dedupe)
        self.journal = RunJournal(self.journal_path, pressure=self.pressure)
        #: the intent log, keyed by service fingerprint (its ``degraded``
        #: and ``lost`` report the intent plane's durability)
        self.intents = DurableLog(
            self.accepted_path, "intent", pressure=self.pressure
        )

    # -------------------------------------------------------------- writes
    def record_accepted(self, intent: dict) -> bool:
        """Log one admitted request durably; returns False when it didn't.

        Must be called *before* the request becomes visible to the
        dispatcher — the ordering is the crash-safety argument.

        A write failure (``ENOSPC``, quota) degrades instead of raising
        (see :class:`~repro.runtime.journal.DurableLog`): the service
        keeps admitting and answering correctly, and the weakened
        contract is exactly "a crash between acceptance and completion
        may drop this request" — the client still gets its answer or its
        connection error, never a silent wrong result (see
        docs/RELIABILITY.md).
        """
        return self.intents.append_line(
            intent["fingerprint"], lambda: _intent_line(intent)
        )

    def compact_accepted(self, outstanding: list) -> bool:
        """Atomically rewrite the intent log with only ``outstanding``.

        Called after recovery planning: intents whose records are already
        journaled are dropped.  A failed compaction degrades instead of
        raising — the previous log is still whole, and already-journaled
        intents merely replay as dedupes on the next restart.  Returns
        whether the rewrite landed.
        """
        return self.intents.rewrite(
            {i["fingerprint"]: _intent_line(i) for i in outstanding}
        )

    # --------------------------------------------------------------- reads
    def load_accepted(self) -> list:
        """Every trusted intent, deduped by fingerprint, in append order.

        Never raises on content: undecodable or structurally wrong lines
        (including a torn tail) are skipped — the affected request was
        never acknowledged, or will simply be re-accepted by its client.
        """
        intents, seen = [], set()
        for _, doc in read_log(self.accepted_path, "intent log"):
            if (
                not isinstance(doc, dict)
                or doc.get("version") != STATE_VERSION
                or doc.get("kind") != "accepted"
                or any(k not in doc for k in _REQUIRED)
                or not isinstance(doc["fingerprint"], str)
            ):
                continue
            if doc["fingerprint"] in seen:
                continue
            seen.add(doc["fingerprint"])
            intents.append({k: doc[k] for k in _REQUIRED})
        self.intents.keys |= seen
        return intents
