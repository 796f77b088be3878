"""The SpMM arithmetic every simulated kernel shares (see :mod:`.base`)."""

from __future__ import annotations

from .base import PreparedOperand, canonical_csr, spmm

__all__ = ["PreparedOperand", "canonical_csr", "spmm"]
