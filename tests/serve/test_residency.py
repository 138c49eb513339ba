"""Resident-state warm workers (DESIGN.md §14).

The contract under test: residency moves *when* simulation state is
built, never *what* is computed.  Every payload served off a warm
`ResidentSim` entry must be bit-identical to a cold build — across
kernel implementations, across backends, across LRU eviction, drift
invalidation, and lane crashes.  On top of that sit the serving
behaviours: affinity routing gives repeat systems the same lane, the
``warmup`` op pre-builds residency, and the ``stats`` op reports
occupancy and hit rate.
"""

from __future__ import annotations

import asyncio
import os
import signal

import numpy as np
import pytest

from repro.parallel.pool import PoolBackend, WorkerCrashError
from repro.serve.jobs import JobRequest, execute_batch, execute_request
from repro.serve.residency import (
    ResidentBatchTask,
    ResidentCache,
    WarmupTask,
    execute_batch_resident,
    execute_batch_with,
    lane_for_system,
    warmup_job,
    warmup_with,
)
from repro.serve.service import ServeConfig, SimulationService

FAST = dict(n_particles=300, r_cut=0.45)


def req(**kw) -> JobRequest:
    return JobRequest(**{**FAST, **kw})


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# ResidentCache: LRU, drift guard, invalidation
# ---------------------------------------------------------------------------


class TestResidentCache:
    def test_build_once_then_hit(self):
        cache = ResidentCache(capacity=2)
        a = cache.get_or_build(req(seed=1))
        b = cache.get_or_build(req(seed=1))
        assert a is b
        assert cache.stats.builds == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_spec_shares_system_entry(self):
        # Same system key, different strategy spec: one resident entry.
        cache = ResidentCache(capacity=2)
        a = cache.get_or_build(req(seed=1, spec="MARK"))
        b = cache.get_or_build(req(seed=1, spec="CACHE"))
        assert a is b
        assert len(cache) == 1

    def test_lru_eviction_under_pressure(self):
        cache = ResidentCache(capacity=2)
        cache.get_or_build(req(seed=1))
        cache.get_or_build(req(seed=2))
        cache.get_or_build(req(seed=1))  # refresh: seed 2 is now LRU
        cache.get_or_build(req(seed=3))  # evicts seed 2
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        keys = cache.keys()
        assert req(seed=2).system_key not in keys
        assert req(seed=1).system_key in keys
        # The evicted system rebuilds (a miss, never an error).
        cache.get_or_build(req(seed=2))
        assert cache.stats.builds == 4

    def test_drift_guard_invalidates_mutated_state(self):
        cache = ResidentCache(capacity=2)
        entry = cache.get_or_build(req(seed=1))
        clean = np.array(entry.system.positions)
        entry.system.positions[0, 0] += 1e-3  # simulate drift/corruption
        again = cache.get_or_build(req(seed=1))
        assert again is not entry
        assert cache.stats.invalidations == 1
        assert cache.stats.builds == 2
        # The rebuild is the deterministic cold build, not the drifted one.
        np.testing.assert_array_equal(again.system.positions, clean)

    def test_set_capacity_evicts_down(self):
        cache = ResidentCache(capacity=3)
        for seed in (1, 2, 3):
            cache.get_or_build(req(seed=seed))
        cache.set_capacity(1)
        assert len(cache) == 1
        assert cache.keys() == [req(seed=3).system_key]  # newest survives

    def test_invalidate_all(self):
        cache = ResidentCache(capacity=4)
        cache.get_or_build(req(seed=1))
        cache.get_or_build(req(seed=2))
        assert cache.invalidate() == 2
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResidentCache(capacity=0)


# ---------------------------------------------------------------------------
# Affinity: deterministic lane routing
# ---------------------------------------------------------------------------


class TestLaneRouting:
    def test_deterministic_and_in_range(self):
        keys = [req(seed=s).system_key for s in range(20)]
        lanes = [lane_for_system(k, 4) for k in keys]
        assert lanes == [lane_for_system(k, 4) for k in keys]
        assert all(0 <= lane < 4 for lane in lanes)
        assert len(set(lanes)) > 1  # systems actually spread over lanes

    def test_single_lane_short_circuits(self):
        assert lane_for_system(req().system_key, 1) == 0


# ---------------------------------------------------------------------------
# Bit-identity: serial vs resident, across REPRO_KERNEL x backend
# ---------------------------------------------------------------------------


class TestBitIdentityMatrix:
    @pytest.mark.parametrize("impl", ["scalar", "vectorized"])
    @pytest.mark.parametrize("backend_kind", ["serial", "pool"])
    def test_resident_payloads_equal_cold(
        self, impl, backend_kind, monkeypatch
    ):
        monkeypatch.setenv("REPRO_KERNEL", impl)
        requests = tuple(
            req(seed=1, spec=spec) for spec in ("MARK", "CACHE", "VEC")
        )
        cold = execute_batch(requests).payloads

        async def scenario(config):
            payloads = []
            async with SimulationService(config) as svc:
                for _ in range(2):  # second pass runs fully warm
                    for request in requests:
                        result = await svc.submit_and_wait(request)
                        assert result.ok
                        payloads.append(result.payload)
            return payloads

        if backend_kind == "serial":
            config = ServeConfig(max_depth=8, backend="serial", dedup=False)
            payloads = run(scenario(config))
        else:
            backend = PoolBackend(2)  # forked after setenv: workers see impl
            try:
                config = ServeConfig(max_depth=8, backend=backend, dedup=False)
                payloads = run(scenario(config))
            finally:
                backend.close()
        assert payloads == cold + cold

    def test_execute_batch_with_matches_cold_batch(self):
        requests = tuple(req(seed=3, spec=spec) for spec in ("MARK", "PKG"))
        cold = execute_batch(requests)
        cache = ResidentCache(capacity=2)
        warm1 = execute_batch_with(cache, requests)
        warm2 = execute_batch_with(cache, requests)  # pure residency hit
        assert warm1.payloads == cold.payloads
        assert warm2.payloads == cold.payloads
        assert warm2.cache_stats["resident_hits"] >= 1
        assert warm2.cache_stats["resident_builds"] == 0


class TestPanelRelease:
    """Resident lists keep no lane panels: a resident system's positions
    never change, so the StepCache's short-range result answers every
    job after the first and the panels would never be read again."""

    def test_no_panels_after_warmup_or_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        cache = ResidentCache(capacity=4)

        def list_memos():
            return [
                memo
                for entry in cache._entries.values()
                for memo in entry.cache._memos.values()
            ]

        warmup_with(cache, req(seed=1))
        assert len(list_memos()) == 1
        assert not any(memo.panels for memo in list_memos())
        # RCA evaluates the mirrored full list, a second pinned list.
        outcome = execute_batch_with(
            cache, (req(seed=1, spec="RCA"), req(seed=2))
        )
        assert outcome.cache_stats["sr_evals"] == 2
        assert len(list_memos()) == 3
        assert not any(memo.panels for memo in list_memos())


# ---------------------------------------------------------------------------
# Crash semantics: a dead lane loses residency, never correctness
# ---------------------------------------------------------------------------


def _exit_hard(_):
    os._exit(23)


def _pid(_):
    return os.getpid()


class TestCrashEvictsResidency:
    def test_lane_crash_then_bit_identical_rebuild(self):
        task = ResidentBatchTask(requests=(req(seed=4),), capacity=2)
        with PoolBackend(1) as backend:
            warm = backend.run_on(0, execute_batch_resident, task)
            again = backend.run_on(0, execute_batch_resident, task)
            assert again.cache_stats["resident_hits"] == 1
            with pytest.raises(WorkerCrashError):
                backend.run_on(0, _exit_hard, None)
            # Fresh lane process: residency is gone (a build, not a hit),
            # and the payload is bitwise what the warm lane served.
            rebuilt = backend.run_on(0, execute_batch_resident, task)
        assert rebuilt.cache_stats["resident_builds"] == 1
        assert rebuilt.cache_stats["resident_hits"] == 0
        assert rebuilt.payloads == warm.payloads

    def test_service_survives_lane_crash(self):
        """SIGKILL the lane that owns the job's system: the service is
        the first caller to meet the dead lane, retries once on a fresh
        lane, rebuilds the system cold and serves the direct path's
        payload."""
        request = req(seed=5, spec="CACHE")

        async def scenario():
            backend = PoolBackend(2)
            try:
                config = ServeConfig(max_depth=8, backend=backend)
                async with SimulationService(config) as svc:
                    first = await svc.submit_and_wait(req(seed=5))
                    lane = lane_for_system(
                        request.system_key, backend.lane_count
                    )
                    pid = backend.run_on(lane, _pid, None)
                    builds = svc.stats.resident_builds
                    os.kill(pid, signal.SIGKILL)
                    second = await svc.submit_and_wait(request)
                    return (
                        first,
                        second,
                        svc.stats.retries,
                        svc.stats.resident_builds - builds,
                        pid,
                        backend.run_on(lane, _pid, None),
                    )
            finally:
                backend.close()

        first, second, retries, new_builds, pid, new_pid = run(scenario())
        assert first.ok and second.ok
        assert second.attempts == 2
        assert retries == 1
        assert second.payload == execute_request(request)
        assert new_pid != pid
        assert new_builds == 1


# ---------------------------------------------------------------------------
# Warmup: the op, the counters, the stats surface
# ---------------------------------------------------------------------------


class TestWarmup:
    def test_warmup_then_burst_is_all_hits(self):
        async def scenario():
            config = ServeConfig(max_depth=8, backend="serial", dedup=False)
            async with SimulationService(config) as svc:
                info = await svc.warmup(req(seed=6))
                results = [
                    await svc.submit_and_wait(req(seed=6, spec=spec))
                    for spec in ("MARK", "CACHE", "VEC")
                ]
                return info, results, svc.resident_summary()

        info, results, summary = run(scenario())
        assert info["resident"] and info["built"]
        assert all(r.ok for r in results)
        assert summary["hits"] == 3  # every burst job rode the warm entry
        assert summary["misses"] == 0
        assert summary["warmups"] == 1
        assert summary["hit_rate"] == 1.0

    def test_warmup_idempotent(self):
        async def scenario():
            config = ServeConfig(max_depth=8, backend="serial")
            async with SimulationService(config) as svc:
                first = await svc.warmup(req(seed=7))
                second = await svc.warmup(req(seed=7))
                return first, second

        first, second = run(scenario())
        assert first["built"] is True
        assert second["built"] is False  # already warm

    def test_warmup_md_reports_cold(self):
        assert warmup_job(WarmupTask(request=req(kind="md", steps=1))) == {
            "resident": False,
            "reason": "md jobs execute cold",
        }

    def test_warmup_disabled_reports_reason(self):
        async def scenario():
            config = ServeConfig(max_depth=8, resident=False)
            async with SimulationService(config) as svc:
                return await svc.warmup(req(seed=8))

        info = run(scenario())
        assert info["resident"] is False
        assert "disabled" in info["reason"]

    def test_warmup_wire_op_and_stats_block(self):
        async def scenario():
            config = ServeConfig(max_depth=8, backend="serial")
            async with SimulationService(config) as svc:
                warm = await svc._dispatch_op(
                    {"op": "warmup", "job": req(seed=9).to_dict()}
                )
                await svc.submit_and_wait(req(seed=9))
                stats = await svc._dispatch_op({"op": "stats"})
                return warm, stats

        warm, stats = run(scenario())
        assert warm["ok"] and warm["warmup"]["resident"]
        resident = stats["resident"]
        assert resident["enabled"] is True
        assert resident["hits"] >= 1
        assert resident["occupancy"] >= 1
        assert stats["stats"]["warmups"] == 1


# ---------------------------------------------------------------------------
# Ablation: resident=False is the historical cold path
# ---------------------------------------------------------------------------


class TestAblation:
    def test_cold_dispatch_matches_resident_payloads(self):
        async def scenario(resident):
            config = ServeConfig(
                max_depth=8, backend="serial", resident=resident
            )
            async with SimulationService(config) as svc:
                result = await svc.submit_and_wait(req(seed=10))
                return result.payload, svc.resident_summary()

        warm_payload, warm_summary = run(scenario(True))
        cold_payload, cold_summary = run(scenario(False))
        assert warm_payload == cold_payload
        assert cold_summary["enabled"] is False
        assert cold_summary["hits"] == cold_summary["misses"] == 0

    def test_return_forces_round_trips_both_paths(self):
        direct = execute_request(req(seed=11, return_forces=True))

        async def scenario(backend):
            config = ServeConfig(max_depth=8, backend=backend)
            async with SimulationService(config) as svc:
                result = await svc.submit_and_wait(
                    req(seed=11, return_forces=True)
                )
                return result

        serial = run(scenario("serial"))
        np.testing.assert_array_equal(
            serial.payload["forces"], direct["forces"]
        )
        # Two workers make the backend parallel, so a lane process runs
        # the batch and the forces come back in its pickled outcome.
        backend = PoolBackend(2)
        try:
            pooled = run(scenario(backend))
        finally:
            backend.close()
        np.testing.assert_array_equal(
            pooled.payload["forces"], direct["forces"]
        )
        # And the wire form is plain JSON lists.
        wire = pooled.to_dict()
        assert wire["payload"]["forces"] == direct["forces"].tolist()

    def test_forces_join_fingerprint_only_when_set(self):
        plain = req(seed=12)
        with_forces = req(seed=12, return_forces=True)
        assert plain.fingerprint != with_forces.fingerprint
        assert "return_forces" not in plain.canonical()
        assert plain.system_key == with_forces.system_key
