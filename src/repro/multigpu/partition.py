"""Large-scale SpMM partitioning across GPUs (Section 6.2, Fig. 18).

For matrices whose dense operands dwarf GPU memory (a 2M x 2M dense pair is
~17 TB), the paper prescribes:

* replicate sparse **A** on every GPU (it is the space-efficient operand);
* split **B and C into vertical strips**, one span per GPU, so each GPU
  computes *complete* C columns and never communicates partial sums;
* stream B/C strip chunks between host and device, overlapping transfers
  with compute (:mod:`repro.multigpu.streaming`).

``plan_multi_gpu`` builds that work decomposition and checks it against
each GPU's memory: A (in CSC, the engine's storage format) plus the
resident chunk of B and C must fit, and the slack left over decides the
chunk size — which is exactly why the paper prefers the compact CSC over
offline tiled-DCSR here (a fatter A squeezes the streaming buffers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..util import ceil_div


@dataclass(frozen=True)
class GPUWorkItem:
    """One GPU's share: a vertical span of B/C columns."""

    gpu_id: int
    col_start: int
    col_end: int

    @property
    def n_cols(self) -> int:
        return self.col_end - self.col_start


@dataclass(frozen=True)
class MultiGPUPlan:
    """The full decomposition plus its memory/communication accounting."""

    n_gpus: int
    n_rows: int
    dense_cols: int
    a_bytes: float
    items: tuple[GPUWorkItem, ...]
    gpu_memory_bytes: float
    value_bytes: int = 4

    @property
    def b_strip_bytes(self) -> float:
        """Dense B bytes of the widest per-GPU strip."""
        widest = max(item.n_cols for item in self.items)
        return float(self.n_rows * widest * self.value_bytes)

    @property
    def c_strip_bytes(self) -> float:
        return self.b_strip_bytes  # same shape

    @property
    def streaming_slack_bytes(self) -> float:
        """Device memory left for staging chunks after A is resident."""
        return self.gpu_memory_bytes - self.a_bytes

    @property
    def host_traffic_bytes(self) -> float:
        """Total host<->device volume: A replicated to every GPU, each B/C
        strip in and out once."""
        strips = sum(
            item.n_cols * self.n_rows * self.value_bytes for item in self.items
        )
        return self.n_gpus * self.a_bytes + 2.0 * strips


def plan_multi_gpu(
    n_rows: int,
    dense_cols: int,
    a_bytes: float,
    *,
    n_gpus: int,
    gpu_memory_gb: float = 16.0,
    value_bytes: int = 4,
) -> MultiGPUPlan:
    """Split ``dense_cols`` of B/C into contiguous vertical spans per GPU."""
    if n_gpus <= 0:
        raise ConfigError("n_gpus must be positive")
    if n_rows <= 0 or dense_cols <= 0:
        raise ConfigError("matrix dimensions must be positive")
    if a_bytes < 0:
        raise ConfigError("a_bytes must be non-negative")
    gpu_bytes = gpu_memory_gb * (1024.0**3)
    if a_bytes > gpu_bytes:
        raise ConfigError(
            "sparse A alone exceeds one GPU's memory — repartition A first"
        )
    per = ceil_div(dense_cols, n_gpus)
    items = []
    for g in range(n_gpus):
        start = g * per
        end = min(start + per, dense_cols)
        if start >= end:
            break
        items.append(GPUWorkItem(gpu_id=g, col_start=start, col_end=end))
    return MultiGPUPlan(
        n_gpus=len(items),
        n_rows=n_rows,
        dense_cols=dense_cols,
        a_bytes=float(a_bytes),
        items=tuple(items),
        gpu_memory_bytes=gpu_bytes,
        value_bytes=value_bytes,
    )


def partition_coverage(plan: MultiGPUPlan) -> bool:
    """Spans are disjoint and cover [0, dense_cols) — property-tested."""
    cols = np.zeros(plan.dense_cols, dtype=np.int64)
    for item in plan.items:
        cols[item.col_start : item.col_end] += 1
    return bool(np.all(cols == 1))
