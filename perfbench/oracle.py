"""Correctness oracle and the paper's modeled-speedup baseline.

Reference digests come from serial in-process ``SpmmRuntime.run`` at the
rung the reply names — the method of ``serial_digest`` in
``tools/service_smoke.py`` — computed once per distinct request, untimed,
in the benchmark process (never in the process under test).  The
baseline for ``modeled_speedup_geomean`` is the untiled CSR kernel timed
by the same analytical model, so the metric is deterministic per seed.
"""

from __future__ import annotations

import math


class Oracle:
    """Memoized reference digests and CSR baselines for one input set."""

    def __init__(self, gpu: str = "gv100"):
        from repro.gpu import get_config
        from repro.runtime import SpmmRuntime

        self.config = get_config(gpu)
        self.runtime = SpmmRuntime(self.config)
        self._matrices: dict = {}
        self._digests: dict = {}
        self._baselines: dict = {}

    def matrix(self, spec: str):
        from repro.matrices import from_spec

        m = self._matrices.get(spec)
        if m is None:
            m = self._matrices[spec] = from_spec(spec)
        return m

    def digest(self, spec: str, k: int, seed: int, rung: int = 0) -> str:
        key = (spec, k, seed, rung)
        if key not in self._digests:
            from repro.runtime import SpmmRequest
            from repro.service import LADDER

            request = SpmmRequest(self.matrix(spec), k=k, seed=seed)
            caps = LADDER[rung]
            if caps is None:
                outcome = self.runtime.run(request)
            else:
                outcome = self.runtime.run(request, capabilities=caps,
                                           enforce_ladder=True)
            self._digests[key] = outcome.record.digest()
        return self._digests[key]

    def baseline_time_s(self, spec: str, k: int) -> float:
        """Modeled time of untiled CSR SpMM: the Fig. 16 normalizer."""
        key = (spec, k)
        if key not in self._baselines:
            import numpy as np

            from repro.formats.convert import FormatStore
            from repro.gpu.timing import time_kernel
            from repro.kernels import csr_spmm

            m = self.matrix(spec)
            csr = FormatStore(m).get("csr")
            dense = np.ones((m.n_cols, k), dtype=np.float32)
            self._baselines[key] = time_kernel(
                csr_spmm(csr, dense, self.config), self.config
            ).total_s
        return self._baselines[key]

    def is_failure(self, spec, k, seed, status, digest, rung=0) -> bool:
        """Any non-200 reply, missing reply or digest that differs."""
        if status != 200 or not digest:
            return True
        return digest != self.digest(spec, k, seed, rung)


def modeled_speedup_geomean(oracle: Oracle, modeled: dict) -> float:
    """Geomean over (spec, k) of baseline CSR time / the returned record's time."""
    logs = [
        math.log(oracle.baseline_time_s(spec, k) / t)
        for (spec, k), t in sorted(modeled.items())
    ]
    return math.exp(sum(logs) / len(logs))
