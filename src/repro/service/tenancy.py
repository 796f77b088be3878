"""Multi-tenant plan cache: one shared budget, per-tenant accounting.

The resident service plans every tenant's requests through one
size-budgeted :class:`~repro.runtime.cache.PlanCache` — sharing is the
point (two tenants asking about the same matrix should pay for planning
once) — but sharing without accounting lets one noisy tenant evict
everyone else's working set.  :class:`MultiTenantPlanCache` adds the
accounting:

* every entry has an **owner** (the tenant whose miss inserted it);
* each tenant has its own **entry budget**: inserting past it evicts the
  tenant's *own* least-recently-used entry first, so a tenant churning
  through matrices cannibalizes itself, not its neighbors;
* global LRU overflow evictions (shared budget exceeded) are **charged to
  the evicted entry's owner**, via the pair list
  :meth:`~repro.runtime.cache.PlanCache.insert` returns;
* hits/misses/evictions are counted **per tenant**, and each tenant's
  hit rate is checked against a configurable SLO floor surfaced through
  the health endpoint and the ``cache.*`` gauges
  (``docs/OBSERVABILITY.md``).

A cross-tenant *hit* is still allowed and counted for the requesting
tenant — tenancy here is a fairness boundary for capacity, not an
isolation boundary for data (every tenant submits to the same simulated
corpus; there is nothing secret in a plan).

:meth:`MultiTenantPlanCache.view` returns a per-tenant facade with the
``lookup``/``insert``/``stats`` surface :class:`~repro.runtime.SpmmRuntime`
expects from a plan cache, which is how one shared cache serves one
runtime per tenant without the runtime knowing about tenancy at all.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..runtime.cache import CacheEntry, PlanCache

#: Per-tenant counter names (mirrors the PlanCache stats vocabulary).
_COUNTS = ("hits", "misses", "evictions")


class TenantCacheView:
    """The :class:`PlanCache`-shaped facade one tenant's runtime sees."""

    __slots__ = ("_shared", "_tenant")

    def __init__(self, shared: "MultiTenantPlanCache", tenant: str):
        self._shared = shared
        self._tenant = tenant

    def lookup(self, key: tuple) -> CacheEntry | None:
        """Shared lookup, counted against this view's tenant."""
        return self._shared.lookup(self._tenant, key)

    def insert(self, key: tuple, entry: CacheEntry) -> list:
        """Shared insert owned by this view's tenant."""
        return self._shared.insert(self._tenant, key, entry)

    def writeback(self, key: tuple) -> bool:
        """Flush lazily-materialized conversions to the persistence tier."""
        return self._shared.cache.writeback(key)

    @property
    def stats(self) -> dict:
        """This tenant's stats, in the :attr:`PlanCache.stats` shape."""
        return self._shared.tenant_stats(self._tenant)


class MultiTenantPlanCache:
    """One shared, size-budgeted plan cache with per-tenant accounting."""

    def __init__(
        self,
        *,
        max_entries: int = 128,
        tenant_max_entries: int = 32,
        hit_rate_slo: float = 0.5,
        persist=None,
    ):
        if tenant_max_entries < 1:
            raise ConfigError("tenant_max_entries must be >= 1")
        if not 0.0 <= hit_rate_slo <= 1.0:
            raise ConfigError("hit_rate_slo must be in [0, 1]")
        self.cache = PlanCache(max_entries=max_entries, persist=persist)
        self.tenant_max_entries = int(tenant_max_entries)
        self.hit_rate_slo = float(hit_rate_slo)
        #: key -> owning tenant (the tenant whose miss paid for the entry)
        self._owner: dict[tuple, str] = {}
        #: tenant -> its keys in recency order (dict preserves insertion;
        #: refreshed on hit so the head is the tenant's LRU victim)
        self._tenant_keys: dict[str, dict] = {}
        self._counts: dict[str, dict] = {}
        #: tenant -> {fingerprint: resident shared-memory segment bytes};
        #: charged by the server when it publishes an operand on the
        #: tenant's behalf (docs/STORAGE.md).  Idempotent per pair, so
        #: repeat requests over a resident matrix don't double-charge.
        self._segments: dict[str, dict] = {}

    # ------------------------------------------------------------ plumbing
    def view(self, tenant: str) -> TenantCacheView:
        """The facade to hand a tenant's :class:`SpmmRuntime`."""
        self._tenant(tenant)  # materialize accounting rows eagerly
        return TenantCacheView(self, tenant)

    def _tenant(self, tenant: str) -> dict:
        counts = self._counts.get(tenant)
        if counts is None:
            counts = self._counts[tenant] = dict.fromkeys(_COUNTS, 0)
            self._tenant_keys[tenant] = {}
        return counts

    def _touch(self, tenant: str, key: tuple) -> None:
        keys = self._tenant_keys.get(tenant)
        if keys is not None and key in keys:
            del keys[key]
            keys[key] = True

    def _forget(self, key: tuple, *, charge: bool) -> None:
        owner = self._owner.pop(key, None)
        if owner is None:
            return
        self._tenant_keys[owner].pop(key, None)
        if charge:
            self._tenant(owner)["evictions"] += 1

    # ----------------------------------------------------------- core API
    def lookup(self, tenant: str, key: tuple) -> CacheEntry | None:
        """Shared-cache lookup counted against ``tenant``.

        A hit refreshes recency both globally and in the *owner's* queue
        (whoever owns it, it is demonstrably hot — evicting it next would
        hurt the requester too).
        """
        counts = self._tenant(tenant)
        entry = self.cache.lookup(key)
        if entry is None:
            counts["misses"] += 1
            return None
        counts["hits"] += 1
        owner = self._owner.get(key)
        if owner is not None:
            self._touch(owner, key)
        return entry

    def insert(self, tenant: str, key: tuple, entry: CacheEntry) -> list:
        """Insert on behalf of ``tenant``, enforcing both budgets.

        Order matters: the tenant's own budget is enforced *first* with a
        targeted eviction of its LRU entry, so the shared-LRU overflow
        path (which evicts the globally coldest entry, whoever owns it)
        only fires when the shared budget itself is the constraint.
        Returns every evicted ``(key, entry)`` pair, either way.
        """
        self._tenant(tenant)
        evicted = []
        keys = self._tenant_keys[tenant]
        if key not in keys and len(keys) >= self.tenant_max_entries:
            victim = next(iter(keys))
            dropped = self.cache.evict(victim)
            self._forget(victim, charge=True)
            if dropped is not None:
                evicted.append((victim, dropped))
        if key in self._owner and self._owner[key] != tenant:
            # Re-insert of another tenant's key: ownership transfers to
            # the most recent payer (they did the planning work just now).
            self._forget(key, charge=False)
        self._owner[key] = tenant
        keys = self._tenant_keys[tenant]
        keys.pop(key, None)
        keys[key] = True
        for pair in self.cache.insert(key, entry):
            self._forget(pair[0], charge=True)
            evicted.append(pair)
        return evicted

    # ------------------------------------------------------- operand plane
    def charge_segment(self, tenant: str, fingerprint: str, nbytes: int) -> None:
        """Charge ``tenant`` for a resident shared-memory operand segment.

        Idempotent per ``(tenant, fingerprint)`` — the server calls this
        on every dispatch, but a matrix resident once is charged once.
        """
        self._tenant(tenant)
        self._segments.setdefault(tenant, {})[fingerprint] = int(nbytes)

    def resident_bytes(self, tenant: str) -> int:
        """Total shared-memory bytes currently charged to ``tenant``."""
        return sum(self._segments.get(tenant, {}).values())

    # ------------------------------------------------------------ reports
    def tenant_stats(self, tenant: str) -> dict:
        """One tenant's stats in the :attr:`PlanCache.stats` shape.

        ``resident_bytes`` extends that shape with the tenant's operand-
        plane footprint (shared-memory segments published on its behalf).
        """
        counts = self._tenant(tenant)
        total = counts["hits"] + counts["misses"]
        return {
            "entries": len(self._tenant_keys[tenant]),
            "hits": counts["hits"],
            "misses": counts["misses"],
            "evictions": counts["evictions"],
            "hit_rate": counts["hits"] / total if total else 0.0,
            "resident_bytes": self.resident_bytes(tenant),
        }

    def hit_rate(self, tenant: str) -> float:
        """One tenant's lifetime hit fraction (0.0 before any lookup)."""
        return self.tenant_stats(tenant)["hit_rate"]

    @property
    def stats(self) -> dict:
        """Aggregate (shared-cache) stats plus the per-tenant breakdown."""
        stats = dict(self.cache.stats)
        stats["tenants"] = {
            tenant: self.tenant_stats(tenant) for tenant in sorted(self._counts)
        }
        return stats

    def slo_report(self) -> dict:
        """Per-tenant hit-rate SLO verdicts for the health endpoint.

        A tenant with fewer lookups than its entry budget is reported but
        not judged (``ok=None``) — a hit rate over a handful of cold
        lookups is noise, not a violation.
        """
        report = {}
        for tenant in sorted(self._counts):
            s = self.tenant_stats(tenant)
            lookups = s["hits"] + s["misses"]
            ok = (
                None
                if lookups < self.tenant_max_entries
                else s["hit_rate"] >= self.hit_rate_slo
            )
            report[tenant] = {
                "hit_rate": s["hit_rate"],
                "lookups": lookups,
                "slo": self.hit_rate_slo,
                "ok": ok,
            }
        return report
