"""GPU configuration presets (Section 5.1's GV100 and Section 5.3's TU116).

The functional model only needs first-order machine parameters: FLOP and
bandwidth peaks, channel organization (for the FB-partition placement and
per-channel engine costing), cache and shared-memory capacities, and die
area / TDP (for the Section 5.3 overhead percentages).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError


@dataclass(frozen=True)
class GPUConfig:
    """First-order description of a GPU platform for the timing model."""

    name: str
    n_sms: int
    cuda_cores: int
    clock_ghz: float
    shared_mem_per_sm_kb: int
    l2_cache_kb: int
    #: number of independent memory channels (HBM2 pseudo channels / GDDR6
    #: 16-bit channels); one FB-partition conversion engine sits at each.
    mem_channels: int
    channel_bandwidth_gbps: float
    die_area_mm2: float
    tdp_w: float
    idle_power_w: float
    memory_type: str = "HBM2"
    warp_size: int = 32
    #: fraction of peak DRAM bandwidth a real streaming kernel achieves.
    bandwidth_efficiency: float = 0.85
    #: crossbar (SM <-> FB partition) bandwidth as a multiple of DRAM peak;
    #: Section 7 notes the Xbar has "large bandwidth available internally".
    xbar_bandwidth_factor: float = 3.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for attr in (
            "n_sms",
            "cuda_cores",
            "clock_ghz",
            "mem_channels",
            "channel_bandwidth_gbps",
            "die_area_mm2",
            "tdp_w",
        ):
            if getattr(self, attr) <= 0:
                raise ConfigError(f"{self.name}: {attr} must be positive")
        if not 0 < self.bandwidth_efficiency <= 1:
            raise ConfigError(
                f"{self.name}: bandwidth_efficiency must be in (0, 1]"
            )

    # ------------------------------------------------------------ derived
    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate DRAM bandwidth across all channels."""
        return self.mem_channels * self.channel_bandwidth_gbps

    @property
    def effective_bandwidth_gbps(self) -> float:
        """Achievable streaming bandwidth."""
        return self.peak_bandwidth_gbps * self.bandwidth_efficiency

    @property
    def peak_fp32_gflops(self) -> float:
        """FMA-counted FP32 peak: cores x clock x 2."""
        return self.cuda_cores * self.clock_ghz * 2.0

    @property
    def thread_slots_per_cycle(self) -> int:
        """Scalar thread executions retired per cycle (one per core)."""
        return self.cuda_cores

    @property
    def xbar_bandwidth_gbps(self) -> float:
        return self.peak_bandwidth_gbps * self.xbar_bandwidth_factor

    @property
    def channel_cycle_time_ns_fp32(self) -> float:
        """Worst-case per-row engine budget: deliver 8 B (index+FP32 value)
        at one channel's bandwidth (paper: 0.588 ns on a 13.6 GB/s HBM2
        pseudo channel)."""
        return 8.0 / self.channel_bandwidth_gbps

    @property
    def channel_cycle_time_ns_fp64(self) -> float:
        """As above for 12 B (index + FP64 value): 0.882 ns on HBM2."""
        return 12.0 / self.channel_bandwidth_gbps

    def cache_key(self) -> str:
        """Hashable identity over every field, for memos keyed by config.

        The config holds an ``extras`` dict, so it is not hashable itself,
        and ``name`` alone does not tell apart two configs that differ in
        one field.  The dataclass ``repr`` lists every field, floats
        exactly.
        """
        return repr(self)


#: Section 5.1's evaluation platform: NVIDIA GV100 (Volta).
GV100 = GPUConfig(
    name="GV100",
    n_sms=80,
    cuda_cores=5120,
    clock_ghz=1.53,
    shared_mem_per_sm_kb=96,
    l2_cache_kb=6144,
    mem_channels=64,  # HBM2 pseudo channels
    channel_bandwidth_gbps=13.6,  # 64 x 13.6 ≈ 870 GB/s
    die_area_mm2=815.0,
    tdp_w=250.0,
    idle_power_w=23.0,  # 0.68 W quoted as 2.96% of idle power
    memory_type="HBM2",
)

#: Section 5.3's small-GPU scaling point: NVIDIA TU116 (Turing).
TU116 = GPUConfig(
    name="TU116",
    n_sms=24,
    cuda_cores=1536,
    clock_ghz=1.53,
    shared_mem_per_sm_kb=64,
    l2_cache_kb=1536,
    mem_channels=24,  # 16-bit GDDR6 channels
    channel_bandwidth_gbps=12.0,  # 24 x 12 = 288 GB/s
    die_area_mm2=284.0,
    tdp_w=125.0,
    idle_power_w=12.0,
    memory_type="GDDR6",
)

PRESETS = {"gv100": GV100, "tu116": TU116}


def scaled_config(config: GPUConfig, problem_scale: float) -> GPUConfig:
    """Weak-scale a GPU to a reduced-size problem.

    The paper evaluates 4k-44k-row matrices against a 6 MB LLC; a sweep at
    1/10th the matrix dimension against the *full* LLC sees none of the
    cache pressure that drives the B-gather traffic (and hence the Fig. 16
    crossover).  ``scaled_config(GV100, 10)`` divides the LLC capacity by
    the same factor the problem shrank by, so per-operand working sets
    stress the cache exactly as they would at paper scale.  Compute and
    bandwidth peaks are left untouched: they cancel in every relative
    (speedup) measurement.
    """
    import dataclasses

    if problem_scale < 1:
        raise ConfigError(f"problem_scale must be >= 1, got {problem_scale}")
    l2 = max(64, int(round(config.l2_cache_kb / problem_scale)))
    return dataclasses.replace(
        config, name=f"{config.name}-x{problem_scale:g}", l2_cache_kb=l2
    )


def get_config(name: str) -> GPUConfig:
    """Look up a preset by (case-insensitive) name."""
    try:
        return PRESETS[name.lower()]
    except KeyError:
        raise ConfigError(
            f"unknown GPU preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
