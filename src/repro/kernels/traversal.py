"""Tile-traversal orders for B-stationary SpMM (Section 3.1.3).

With B tiled 64x64, the kernel must visit every (A-strip, B-column-group)
pair; the *order* decides which operand's tiles stay hot in the LLC:

* ``column_major`` — walk down one strip of A before moving to the next B
  column group: C partial-sum tiles are revisited while resident, so atomic
  retouches mostly hit the LLC.  A strips are re-streamed per group.
* ``row_major`` — walk across strips for one row of B tiles: the A strip
  in flight is shared by concurrent SMs (A reuse), but the entire C
  surface is touched once per strip — C retouches all go to DRAM.

The paper concludes column-major usually wins because C's footprint
(dense) dwarfs A's (sparse); :func:`traversal_effects` encodes exactly
that asymmetry for the traffic model, and the Fig. 16 bench ablates it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError

ORDERS = ("column_major", "row_major")


@dataclass(frozen=True)
class TraversalEffects:
    """How an order interacts with the LLC, consumed by the traffic model."""

    #: C partial-sum retouches may hit the LLC
    c_cacheable: bool
    #: repeated A-strip reads (across column groups) may hit the LLC
    a_cacheable: bool


def traversal_effects(order: str) -> TraversalEffects:
    if order == "column_major":
        return TraversalEffects(c_cacheable=True, a_cacheable=False)
    if order == "row_major":
        return TraversalEffects(c_cacheable=False, a_cacheable=True)
    raise ConfigError(f"unknown traversal order {order!r}; expected {ORDERS}")
