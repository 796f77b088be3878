"""Seeded workload inputs: every matrix spec, dense seed and arrival time.

Everything a workload sends is a pure function of ``--seed``.  The *shape*
of each workload (families, densities, k mix, event mix, and the
service's arrival times) is fixed; the seed picks the generator seeds and
dense-operand seeds.  That keeps the cost composition of a run the same
from seed to seed, so two seeds differ in the data, not in how much of
each kind of work there is or when it arrives.

Matrices are 2048 x 2048 generator specs (``repro.matrices.from_spec``)
with 12k-105k nonzeros.  The family list covers both planner branches:
``c_stationary_best`` (uniform, power-law columns, bipartite, pruned DNN,
clustered) and ``online_tiled_dcsr`` (power-law rows, banded,
block-diagonal).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N = 2048
K_MIX = (16, 64, 128)

#: (family, density) slots; densities keep nnz within 12k-105k.
FAMILIES = (
    ("uniform", 0.01),
    ("powerlaw_rows", 0.02),
    ("powerlaw_cols", 0.01),
    ("banded", 0.01),
    ("block_diagonal", 0.01),
    ("bipartite", 0.006),
    ("pruned_dnn", 0.003),
    ("clustered", 0.025),
)

#: The service builds every submitted matrix from its spec on its event
#: loop, and its latency amplifies any CPU work into queueing on a shared
#: host, so its pool keeps to small specs (12k-33k nonzeros) that generate
#: in a few milliseconds.  Half of them plan online.
SERVICE_FAMILIES = (
    ("uniform", 0.004),
    ("powerlaw_rows", 0.004),
    ("banded", 0.008),
    ("block_diagonal", 0.004),
    ("bipartite", 0.004),
    ("clustered", 0.004),
)

WARM_DENSE_SEEDS = 2

#: service_open: open-loop event rate (events/s; about 7.5 requests/s, a
#: sixth of the 45-50 req/s the capacity probe measures on two workers),
#: and event mix per shuffled 20-event cycle:
#: 14 hot singles, 2 bursts of 3-4 same-matrix requests, 2 never-seen
#: matrices, 2 exact resubmits.
SERVICE_EVENT_RATE = 6.0
SERVICE_CYCLE = ("single",) * 14 + ("burst",) * 2 + ("new",) * 2 + ("resubmit",) * 2
#: a resubmit repeats a request scheduled at least this long before it,
#: so the original has normally completed and the journal answers it
RESUBMIT_MIN_AGE_S = 2.0
TENANTS = (("ml", "interactive"), ("etl", "batch"))
#: per-tenant plan-cache budget of the service.  Only the batch tenant
#: sends never-seen matrices (0.6 a second, 12 in a 20 s schedule), so it
#: outgrows this budget and evicts its own entries.  The hot pool reloads
#: from the persistent store on the restarted server, where a disk hit is
#: owned by no tenant, so the budget never touches it.
TENANT_CACHE_ENTRIES = 4
#: service_open's capacity probe: requests kept in flight (throughput
#: stops rising at 12-16 on two workers), spread over tenants of its own
#: so their 50 req/s admission quotas stay far above the service's rate
PROBE_DEPTH = 12
PROBE_TENANTS = tuple((f"probe{i}", "interactive") for i in range(4))


@dataclass(frozen=True)
class Request:
    """One SpMM request: a matrix spec plus the dense operand's width/seed."""

    spec: str
    family: str
    k: int
    seed: int
    tenant: str = ""
    lane: str = ""


def spec(family: str, density: float, gen_seed: int) -> str:
    return f"{family}:{N}:{N}:{density}:{gen_seed}"


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def _cycler(rng: random.Random, items: list):
    """Endless draws that exhaust a fresh shuffle of ``items`` each round."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def warm_pool(seed: int) -> list[Request]:
    """warm_rerun: 8 matrices x k in K_MIX x 2 dense seeds = 48 requests.

    The matrices are the same for every seed; ``seed`` picks the dense
    operands (and, in the program, the call order).  Two generator seeds
    of one family give the same nnz but can plan differently, which moved
    the per-call median by 20% from seed to seed.
    """
    structure = _rng(0, "warm-matrices")
    rng = _rng(seed, "warm")
    out = []
    for family, density in FAMILIES:
        s = spec(family, density, structure.randrange(1, 2**31))
        for k in K_MIX:
            for _ in range(WARM_DENSE_SEEDS):
                out.append(Request(s, family, k, rng.randrange(2**31)))
    return out


@dataclass(frozen=True)
class Event:
    """One open-loop arrival: its scheduled offset and the requests it sends."""

    t: float
    kind: str
    requests: tuple


def service_hot_pool(seed: int) -> list[str]:
    rng = _rng(seed, "hot")
    return [spec(f, d, rng.randrange(1, 2**31)) for f, d in SERVICE_FAMILIES]


def family_of(matrix_spec: str) -> str:
    return matrix_spec.split(":", 1)[0]


def service_warmup(seed: int, restarted: bool) -> list[tuple]:
    """Untimed warm-up rounds; each round is sent at once and awaited.

    First one round per hot matrix with all of its k (they coalesce into
    one pass), which plans and spills the hot pool on a fresh server and
    loads it back into the plan cache on a restarted one.  A restarted
    server's workers start empty, so rounds of two different hot matrices
    follow: the supervisor hands the first to the first idle worker and
    the second to the other, and rotating the pairs gives every worker
    every hot matrix's conversions.
    """
    rng = _rng(seed, f"warmup{int(restarted)}")
    tenant, lane = TENANTS[0]
    hot = service_hot_pool(seed)

    def req(s, k):
        return Request(s, family_of(s), k, rng.randrange(2**31), tenant, lane)

    rounds = [tuple(req(s, k) for k in K_MIX) for s in hot]
    if restarted:
        rounds += [
            (req(hot[i], K_MIX[i % 3]), req(hot[(i + 1) % len(hot)], K_MIX[i % 3]))
            for i in range(len(hot))
        ]
    return rounds


def service_schedule(seed: int, seconds: float) -> list[Event]:
    """Poisson arrivals over ``seconds`` with the fixed event mix.

    The event count is fixed at ``rate * seconds`` and the arrival times
    are uniform order statistics — a Poisson process conditioned on its
    count.  Times, event kinds and which hot (matrix, k) each event names
    come from one fixed stream; ``seed`` picks the matrices and dense
    operands.  Every seed thus offers the same requests at the same times.
    """
    rng = _rng(seed, "service")
    hot = service_hot_pool(seed)
    clock = _rng(0, "arrivals")
    # Balanced draws: every hot (matrix, k) pair, burst matrix, k and
    # new-matrix family comes round equally often, in a seeded order.
    pairs = _cycler(clock, [(i, k) for i in range(len(hot)) for k in K_MIX])
    burst_specs = _cycler(clock, list(range(len(hot))))
    ks = _cycler(clock, list(K_MIX))
    families = _cycler(clock, list(SERVICE_FAMILIES))
    counter = {"single": 0, "burst": 0}
    events: list[Event] = []
    sent: list[tuple[float, Request]] = []
    cycle: list[str] = []
    times = sorted(clock.uniform(0.0, seconds)
                   for _ in range(round(SERVICE_EVENT_RATE * seconds)))
    for t in times:
        if not cycle:
            cycle = list(SERVICE_CYCLE)
            clock.shuffle(cycle)
        kind = cycle.pop()
        old = [r for at, r in sent if at <= t - RESUBMIT_MIN_AGE_S]
        if kind == "resubmit" and not old:
            kind = "single"
        if kind in counter:
            counter[kind] += 1
        if kind == "single":
            i, k = next(pairs)
            s = hot[i]
            # two of every three singles come from the interactive tenant
            tenant, lane = TENANTS[0] if counter["single"] % 3 else TENANTS[1]
            reqs = (Request(s, family_of(s), k, rng.randrange(2**31),
                            tenant, lane),)
        elif kind == "burst":
            s = hot[next(burst_specs)]
            tenant, lane = TENANTS[0]
            reqs = tuple(
                Request(s, family_of(s), next(ks), rng.randrange(2**31),
                        tenant, lane)
                for _ in range(3 + counter["burst"] % 2)
            )
        elif kind == "new":
            family, density = next(families)
            tenant, lane = TENANTS[1]
            reqs = (Request(spec(family, density, rng.randrange(1, 2**31)),
                            family, next(ks), rng.randrange(2**31),
                            tenant, lane),)
        else:
            reqs = (clock.choice(old),)
        events.append(Event(t, kind, reqs))
        sent.extend((t, r) for r in reqs)
    return events


def service_probe(seed: int):
    """Endless hot-pool requests for the closed-loop capacity probe.

    Every (matrix, k) pair comes round once per shuffled cycle, each with
    a fresh dense seed (an exact repeat would be a journal replay), from
    the probe tenants in turn.
    """
    rng = _rng(seed, "probe")
    hot = service_hot_pool(seed)
    pairs = _cycler(rng, [(s, k) for s in hot for k in K_MIX])
    n = 0
    while True:
        s, k = next(pairs)
        n += 1
        tenant, lane = PROBE_TENANTS[n % len(PROBE_TENANTS)]
        yield Request(s, family_of(s), k, rng.randrange(2**31), tenant, lane)
