"""Worker-resident simulation state (DESIGN.md §14).

Every served kernel job used to pay a *cold build* — system
construction, cluster pair-list build, and `StepCache` priming — which
BENCH_step.json shows is 5-7x the cost of one steady-state step.  This
module keeps that state *resident* in the executing process across
batches: a bounded LRU of :class:`ResidentEntry` objects keyed by the
request's ``system_key``.  A hit skips the build entirely; the warm
`StepCache` then shares the functional short-range evaluation across
the batch exactly as the cold path does.

Bit-identity is the contract, residency only moves *when* state is
built, never *what* is computed:

* `run_kernel` is a pure function of (system, plist, nb, spec) — it
  never mutates positions — so a resident system is byte-equal to a
  freshly built one (the drift guard below re-checks this on every
  lookup and invalidates instead of trusting it).
* warm `StepCache` reuse is already proven bitwise identical to cold
  evaluation (tests/core/test_stepcache.py).  A resident system's
  positions never change, so the cached short-range result answers
  every job after the first; the vectorized lane panels that first
  evaluation builds are released as soon as the batch (or warmup)
  ends (`StepCache.release_panels`), never kept with the entry.
* the kernel impl stays out of the key: ``REPRO_KERNEL`` picks between
  bit-identical evaluations (DESIGN.md §13), so an entry built under
  one impl answers exactly as the other would.

Residency is kernel-kind only.  MD jobs thermalize and integrate —
their positions *must* drift — so they execute cold, as before.

Affinity (the reason residency hits): :func:`lane_for_system` mirrors
the fleet's consistent-hash ring one level down, mapping a
``system_key`` onto a pool *lane* (`repro.parallel.pool.PoolBackend`
per-lane executors), so consecutive batches for one system land in the
process already holding it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.stepcache import position_fingerprint
from repro.serve.jobs import (
    KIND_KERNEL,
    BatchOutcome,
    JobRequest,
    ResidentEntry,
    build_entry,
    execute_batch,
)

#: Default bound on resident systems per worker process.  Entries are a
#: system + pair list + StepCache worth of arrays, never lane panels:
#: under 7 MB each for the serve tier's default 900-particle water box.
DEFAULT_RESIDENT_CAPACITY = 4


@dataclass
class ResidentStats:
    """Process-lifetime residency counters (reported as deltas)."""

    hits: int = 0
    misses: int = 0
    builds: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "resident_hits": self.hits,
            "resident_misses": self.misses,
            "resident_builds": self.builds,
            "resident_evictions": self.evictions,
            "resident_invalidations": self.invalidations,
        }


class ResidentCache:
    """Bounded LRU of :class:`ResidentEntry` keyed by ``system_key``.

    Invalidation rules (DESIGN.md §14):

    * **drift guard** — on every hit the entry's stored position
      fingerprint is re-checked against the live system; any mismatch
      (something mutated a resident system) invalidates the entry and
      rebuilds cold.  Residency can go *slow*, never *wrong*.
    * **LRU pressure** — exceeding ``capacity`` evicts the
      least-recently-used entry and invalidates its `StepCache` (which
      holds every memo derived from the entry's pair list).
    * **process death** — entries live in worker memory only; a lane
      crash discards the process and the next batch rebuilds cold
      (test-enforced in tests/serve/test_residency.py).
    """

    def __init__(self, capacity: int = DEFAULT_RESIDENT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"resident capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._entries: dict[tuple, ResidentEntry] = {}  # insertion = LRU order
        self.stats = ResidentStats()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        return list(self._entries)

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"resident capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self._evict_over_capacity()

    # -- lookup ------------------------------------------------------------
    def get_or_build(self, request: JobRequest) -> ResidentEntry:
        """Warm entry for ``request``'s system, building on miss."""
        key = request.system_key
        entry = self._entries.get(key)
        if entry is not None:
            if position_fingerprint(entry.system.positions) != entry.positions_fp:
                # Drift guard: resident positions no longer match the
                # deterministic build — never answer from mutated state.
                self._drop(key)
                self.stats.invalidations += 1
                entry = None
            else:
                # Refresh LRU position (dicts preserve insertion order).
                del self._entries[key]
                self._entries[key] = entry
                self.stats.hits += 1
                return entry

        self.stats.misses += 1
        entry = build_entry(request)
        self.stats.builds += 1
        self._entries[key] = entry
        self._evict_over_capacity()
        return entry

    def invalidate(self, key: tuple | None = None) -> int:
        """Drop one entry (or all with ``None``); returns count dropped."""
        keys = [key] if key is not None else list(self._entries)
        dropped = 0
        for k in keys:
            if k in self._entries:
                self._drop(k)
                self.stats.invalidations += 1
                dropped += 1
        return dropped

    # -- internals ---------------------------------------------------------
    def _drop(self, key: tuple) -> None:
        entry = self._entries.pop(key)
        entry.cache.invalidate()

    def _evict_over_capacity(self) -> None:
        while len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.stats.evictions += 1


# ---------------------------------------------------------------------------
# Process-global cache (what pool-lane workers actually use)
# ---------------------------------------------------------------------------

_PROCESS_CACHE: ResidentCache | None = None


def process_resident_cache(
    capacity: int = DEFAULT_RESIDENT_CAPACITY,
) -> ResidentCache:
    """The calling process's resident cache (created on first use).

    Lane workers are long-lived single processes, so module state *is*
    the residency store; ``capacity`` re-bounds an existing cache
    (evicting LRU-first) rather than replacing it.
    """
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = ResidentCache(capacity)
    elif _PROCESS_CACHE.capacity != capacity:
        _PROCESS_CACHE.set_capacity(capacity)
    return _PROCESS_CACHE


# ---------------------------------------------------------------------------
# Affinity: system_key -> pool lane (the fleet ring, one level down)
# ---------------------------------------------------------------------------

_LANE_RINGS: dict[int, object] = {}


def lane_for_system(system_key: tuple, lane_count: int) -> int:
    """Deterministic lane owning ``system_key``.

    Consistent hash over lane ids ``lane-0..N-1`` using the same
    ring/stable-key machinery the fleet router uses over workers, so
    the serve tier's placement argument (jobs sharing a system key land
    together) holds at both levels.  Imported lazily: `repro.fleet`
    imports the serve layer at module scope, so a top-level import here
    would cycle.
    """
    if lane_count <= 1:
        return 0
    ring = _LANE_RINGS.get(lane_count)
    if ring is None:
        from repro.fleet.ring import HashRing

        ring = HashRing()
        for lane in range(lane_count):
            ring.add(f"lane-{lane}")
        _LANE_RINGS[lane_count] = ring
    from repro.fleet.ring import stable_key

    return int(ring.route(stable_key(system_key)).split("-", 1)[1])


# ---------------------------------------------------------------------------
# Resident batch execution (pool-mappable; jobs.execute_batch fed by the LRU)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidentBatchTask:
    """One picklable resident-execution submission for a pool lane."""

    requests: tuple[JobRequest, ...]
    progress_paths: dict | None = None
    capacity: int = DEFAULT_RESIDENT_CAPACITY


def execute_batch_with(
    cache: ResidentCache,
    requests: tuple[JobRequest, ...],
    progress_paths: dict | None = None,
) -> BatchOutcome:
    """Execute a batch against ``cache``: `repro.serve.jobs.execute_batch`
    fed entries from the LRU instead of cold builds.

    Payloads are therefore bit-identical to the cold path: residency
    reuses the same sharing (one system / pair list / `StepCache` per
    system-key group), only across *batches* instead of within one.
    Resident counters are reported as **per-batch deltas** (the service
    sums outcome stats per batch), alongside the worker's occupancy and
    capacity.
    """
    stats0 = cache.stats.as_dict()
    outcome = execute_batch(
        requests, progress_paths, entry_for=cache.get_or_build
    )
    for key, val in cache.stats.as_dict().items():
        outcome.cache_stats[key] = val - stats0[key]
    return replace(
        outcome, resident={"occupancy": len(cache), "capacity": cache.capacity}
    )


def execute_batch_resident(task: ResidentBatchTask) -> BatchOutcome:
    """Pool-mappable resident execution (runs in a lane worker; uses
    the process-global cache so state survives across submissions)."""
    cache = process_resident_cache(task.capacity)
    return execute_batch_with(cache, task.requests, task.progress_paths)


# ---------------------------------------------------------------------------
# Warmup (the `warmup` wire op's worker half)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WarmupTask:
    """Pre-build residency for one request before a burst."""

    request: JobRequest
    capacity: int = DEFAULT_RESIDENT_CAPACITY


def warmup_with(cache: ResidentCache, request: JobRequest) -> dict:
    """Build (or refresh) residency for ``request``'s system in ``cache``.

    Runs one real kernel evaluation through the resident `StepCache` so
    the first post-warmup job is a pure hit — short-range result,
    packed layouts and partitions primed with exactly the keys
    `run_kernel` will ask for.  The lane panels that evaluation built
    are released: the cached result answers every later job.  MD
    requests are not resident (their positions must drift) and report
    so instead of building.
    """
    if request.kind != KIND_KERNEL:
        return {"resident": False, "reason": "md jobs execute cold"}
    from repro.core.kernels import ALL_SPECS, run_kernel

    builds0 = cache.stats.builds
    entry = cache.get_or_build(request)
    run_kernel(
        entry.system, entry.plist, entry.nb,
        ALL_SPECS[request.kernel_spec_name],
        cache=entry.cache,
    )
    entry.cache.release_panels()
    return {
        "resident": True,
        "built": cache.stats.builds > builds0,
        "occupancy": len(cache),
        "capacity": cache.capacity,
    }


def warmup_job(task: WarmupTask) -> dict:
    """Pool-mappable warmup (runs in a lane worker against the
    process-global cache)."""
    if task.request.kind != KIND_KERNEL:
        return {"resident": False, "reason": "md jobs execute cold"}
    return warmup_with(process_resident_cache(task.capacity), task.request)
