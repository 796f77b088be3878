"""Section 2 — SpMM's bytes per FLOP: why the kernel is memory bound.

The paper quotes 5.1 bytes/FLOP for an ``N x N`` SpMM at ``N = 20k`` and
density 0.1 %.  The model brackets that figure between perfect reuse of
B and C (each moved once) and no reuse (every access goes to DRAM), and
both ends sit far above the GV100 and TU116 machine balance.
"""

from repro.analysis import is_memory_bound, machine_balance, spmm_roofline
from repro.gpu import GV100, TU116

from .conftest import print_header

PAPER_N = 20_000
PAPER_DENSITY = 0.001
PAPER_BYTES_PER_FLOP = 5.1


def test_sec2_roofline(benchmark):
    benchmark(lambda: spmm_roofline(PAPER_N, PAPER_DENSITY, reuse="none"))
    band = {
        reuse: spmm_roofline(PAPER_N, PAPER_DENSITY, reuse=reuse)
        for reuse in ("perfect", "none")
    }

    print_header("Section 2 — bytes/FLOP at N = 20k, density 0.1 %")
    print(f"{'quantity':>34} {'paper':>10} {'measured':>10}")
    print(f"{'bytes/FLOP, perfect reuse':>34} {'':>10} "
          f"{band['perfect'].bytes_per_flop:10.2f}")
    print(f"{'bytes/FLOP, no reuse':>34} {'':>10} "
          f"{band['none'].bytes_per_flop:10.2f}")
    print(f"{'quoted bytes/FLOP':>34} {PAPER_BYTES_PER_FLOP:10.1f} {'':>10}")
    for gpu in (GV100, TU116):
        balance = machine_balance(gpu.peak_bandwidth_gbps, gpu.peak_fp32_gflops)
        print(f"{gpu.name + ' machine balance':>34} {'':>10} {balance:10.3f}")

    assert (
        band["perfect"].bytes_per_flop
        < PAPER_BYTES_PER_FLOP
        < band["none"].bytes_per_flop
    )
    for gpu in (GV100, TU116):
        for point in band.values():
            assert is_memory_bound(
                point, gpu.peak_bandwidth_gbps, gpu.peak_fp32_gflops
            )
