"""Deterministic host-layer fault injectors for the chaos tests,
``tools/chaos_smoke.py`` and the supervisor's ``corrupt`` chaos kind
(see :mod:`.injectors`)."""

from .injectors import (
    corrupt_item_operands,
    corrupt_segment,
    failing_fsync,
    flip_byte,
    truncate_file,
)

__all__ = [
    "corrupt_segment",
    "corrupt_item_operands",
    "flip_byte",
    "truncate_file",
    "failing_fsync",
]
