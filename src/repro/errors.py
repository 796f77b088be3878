"""Exception hierarchy shared across :mod:`repro`.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class FormatError(ReproError):
    """A sparse-matrix container is structurally invalid.

    Raised by ``validate()`` methods and by constructors that check their
    inputs: non-monotone pointer arrays, out-of-range indices, mismatched
    array lengths, or shape/nnz disagreements.
    """


class ConversionError(ReproError):
    """A format conversion was requested that cannot be performed."""


class ConfigError(ReproError):
    """A hardware/simulation configuration is inconsistent.

    Examples: a cache whose capacity is not divisible by line size x ways,
    a GPU with zero memory channels, or a tile width that is not positive.
    """


class SimulationError(ReproError):
    """The functional simulation reached an impossible state.

    This indicates a bug in the model (e.g. an engine frontier passing its
    boundary) rather than bad user input, but is raised as a checked error
    so property tests can assert it never fires.
    """


class EngineError(SimulationError):
    """The near-memory conversion engine model detected an invalid state."""


class SupervisionError(ReproError):
    """The supervised batch executor aborted instead of degrading.

    Raised only when the caller asked for it (``fail_fast``) or when the
    supervisor itself cannot make progress (e.g. the worker pool cannot be
    started).  Ordinary worker failures never raise — they are returned as
    structured :class:`~repro.runtime.supervisor.FailedItem` entries.
    """


class WorkerCrashError(SupervisionError):
    """A worker process died (SIGKILL, OOM, hard crash) mid-request.

    Used as the ``error_type`` of the affected item's
    :class:`~repro.runtime.supervisor.FailedItem` once retries are
    exhausted; only raised directly under ``fail_fast``.
    """


class RequestTimeoutError(SupervisionError):
    """A batch item exceeded its per-request deadline in a worker.

    The supervisor kills the hung worker, respawns a replacement, and
    retries the item with backoff; the name appears as a
    :class:`~repro.runtime.supervisor.FailedItem` ``error_type`` when the
    retry budget runs out.
    """


class HeartbeatLostError(WorkerCrashError):
    """A worker stopped heartbeating while still registered as alive.

    Distinguishes a frozen process (e.g. SIGSTOP, swap death) from a
    clean crash; handled exactly like a crash.
    """


class JournalError(ReproError):
    """A run journal cannot be opened, appended to, or rewritten.

    Corrupt journal *content* is never an error — bad lines are reported
    as anomalies and their items re-executed (see
    :mod:`repro.runtime.journal`); this exception covers I/O failures
    on the *read* side only.  Write failures (disk full, quota) no longer
    raise: the journal flips into a loud non-durable degraded mode and
    counts the lost appends instead (see
    :class:`repro.runtime.pressure.ResourcePressure`).
    """


class OperandCorruptionError(ReproError):
    """Shipped or persisted operand bytes failed their integrity check.

    Raised when a shared-memory segment attach
    (:func:`repro.store.registry.attach_matrix` /
    :func:`~repro.store.registry.attach_dense`) or a persistent-store
    reload (:meth:`repro.store.persist.PersistentFormatStore.get`) finds
    an array whose CRC disagrees with the checksum stamped at
    publish/spill time.  Structured so recovery code can quarantine and
    republish the exact segment: ``token`` is the operand identity,
    ``segment`` the shared-memory block (or relative file path),
    ``arrays`` the names that failed, ``plane`` is ``"registry"`` or
    ``"persist"``.  Never a silent wrong result: callers either republish
    from the source of truth and retry, or drop the persisted entry and
    re-derive.
    """

    def __init__(
        self,
        message: str,
        *,
        token: str | None = None,
        segment: str | None = None,
        arrays: tuple = (),
        plane: str = "registry",
    ):
        super().__init__(message)
        self.token = token
        self.segment = segment
        self.arrays = tuple(arrays)
        self.plane = plane
