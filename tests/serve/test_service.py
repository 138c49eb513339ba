"""End-to-end service semantics: the guarantees DESIGN.md §10 promises.

* **bit-identity** — a served payload equals the direct executor call,
  including when N identical concurrent submissions dedup into one
  execution;
* **deterministic admission** — over-capacity/draining/invalid requests
  are rejected with wire-stable reason codes;
* **no lost jobs** — drain completes every accepted job and releases the
  shared pool backend;
* **failure charging** — crashes retry through `RetryPolicy` with real
  backoff; deterministic errors and expired deadlines fail fast with
  structured reasons.

Each test drives one fresh service on its own event loop via
``asyncio.run`` (no pytest-asyncio dependency).
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import fields

import pytest

from repro.parallel import pool as pool_mod
from repro.parallel.pool import WorkerCrashError
from repro.resilience.retry import RetryPolicy
from repro.serve.jobs import BatchOutcome, JobRequest, execute_request
from repro.serve.queue import (
    REASON_DEADLINE,
    REASON_DRAINING,
    REASON_EXECUTION,
    REASON_INVALID,
    REASON_QUEUE_FULL,
    REASON_TENANT_QUOTA,
    REASON_TIMEOUT,
)
from repro.serve.service import (
    AdmissionRejected,
    ServeConfig,
    ServiceStats,
    SimulationService,
)
from repro.trace.events import CAT_SERVE, SERVE_TRACK, Tracer

FAST = dict(n_particles=300, r_cut=0.45)


def req(**kw) -> JobRequest:
    return JobRequest(**{**FAST, **kw})


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Bit-identity (the acceptance criterion)
# ---------------------------------------------------------------------------


class TestBitIdentity:
    def test_served_kernel_equals_direct_call(self):
        request = req()
        direct = execute_request(request)

        async def scenario():
            async with SimulationService(ServeConfig(max_depth=4)) as svc:
                return await svc.submit_and_wait(request)

        result = run(scenario())
        assert result.ok
        assert result.executed
        assert result.payload == direct

    def test_served_md_equals_direct_call(self):
        request = req(kind="md", steps=2)
        direct = execute_request(request)

        async def scenario():
            async with SimulationService(ServeConfig(max_depth=4)) as svc:
                return await svc.submit_and_wait(request)

        result = run(scenario())
        assert result.ok
        assert result.payload == direct

    def test_n_identical_requests_execute_once(self):
        # pause → submit 4 identical → resume: the batcher collapses
        # them into one unit; exactly one result is marked executed and
        # all four payloads equal the direct call.
        request = req()
        direct = execute_request(request)

        async def scenario():
            async with SimulationService(ServeConfig(max_depth=8)) as svc:
                await svc.pause()
                jobs = [await svc.submit(request) for _ in range(4)]
                await svc.resume()
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.stats

        results, stats = run(scenario())
        assert [r.executed for r in results] == [True, False, False, False]
        assert all(r.payload == direct for r in results)
        assert stats.executed_units == 1
        assert stats.dedup_hits == 3
        assert stats.completed == 4

    def test_late_arrival_joins_inflight_execution(self):
        # A request identical to one already executing joins it instead
        # of queueing a second execution (gated with events so the join
        # window is deterministic).
        request = req()
        direct = execute_request(request)

        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=8))
            await svc.start()
            started = threading.Event()
            release = threading.Event()
            orig = svc._execute_blocking

            def gated(units, progress_paths=None):
                started.set()
                release.wait(10)
                return orig(units, progress_paths)

            svc._execute_blocking = gated
            first = await svc.submit(request)
            await asyncio.to_thread(started.wait, 10)
            second = await svc.submit(request)  # executing → joins in-flight
            release.set()
            r1, r2 = await asyncio.gather(first.future, second.future)
            stats = await svc.drain()
            return r1, r2, stats

        r1, r2, stats = run(scenario())
        assert r1.executed and not r2.executed
        assert r1.payload == r2.payload == direct
        assert stats.executed_units == 1
        assert stats.dedup_hits == 1

    def test_batched_specs_share_stepcache(self):
        # Compatible specs dispatched as one batch: payloads still match
        # the direct path, and the worker reports shared sr evaluations.
        requests = [req(spec=s) for s in ("MARK", "CACHE", "VEC")]
        direct = [execute_request(r) for r in requests]

        async def scenario():
            async with SimulationService(ServeConfig(max_depth=8)) as svc:
                await svc.pause()
                jobs = [await svc.submit(r) for r in requests]
                await svc.resume()
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.stats

        results, stats = run(scenario())
        assert [r.payload for r in results] == direct
        assert stats.batches == 1
        assert stats.executed_units == 3
        assert stats.sr_evals == 1
        assert stats.sr_hits == 2

    def test_dedup_off_executes_every_job(self):
        request = req()

        async def scenario():
            config = ServeConfig(max_depth=8, dedup=False, max_inflight=1)
            async with SimulationService(config) as svc:
                await svc.pause()
                jobs = [await svc.submit(request) for _ in range(3)]
                await svc.resume()
                results = await asyncio.gather(*(j.future for j in jobs))
                return results, svc.stats

        results, stats = run(scenario())
        assert all(r.executed for r in results)
        assert stats.executed_units == 3
        assert stats.dedup_hits == 0


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejected_with_reason(self):
        async def scenario():
            config = ServeConfig(max_depth=2)
            async with SimulationService(config) as svc:
                await svc.pause()
                await svc.submit(req(seed=1))
                await svc.submit(req(seed=2))
                with pytest.raises(AdmissionRejected) as exc:
                    await svc.submit(req(seed=3))
                await svc.resume()
                return exc.value.error, svc.stats

        error, stats = run(scenario())
        assert error.code == REASON_QUEUE_FULL
        assert stats.rejected_by_reason == {REASON_QUEUE_FULL: 1}
        # The two accepted jobs still completed.
        assert stats.completed == 2

    def test_tenant_quota_rejected_other_tenant_admitted(self):
        async def scenario():
            config = ServeConfig(max_depth=8, max_per_tenant=1)
            async with SimulationService(config) as svc:
                await svc.pause()
                await svc.submit(req(seed=1, tenant="a"))
                with pytest.raises(AdmissionRejected) as exc:
                    await svc.submit(req(seed=2, tenant="a"))
                await svc.submit(req(seed=3, tenant="b"))
                await svc.resume()
                return exc.value.error, svc.stats

        error, stats = run(scenario())
        assert error.code == REASON_TENANT_QUOTA
        assert stats.accepted == 2

    def test_invalid_request_rejected(self):
        async def scenario():
            async with SimulationService(ServeConfig(max_depth=4)) as svc:
                with pytest.raises(AdmissionRejected) as exc:
                    await svc.submit(req(spec="NOPE"))
                return exc.value.error

        assert run(scenario()).code == REASON_INVALID

    def test_draining_service_rejects(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            await svc.drain()
            with pytest.raises(AdmissionRejected) as exc:
                await svc.submit(req())
            return exc.value.error

        assert run(scenario()).code == REASON_DRAINING

    def test_dedup_does_not_bypass_admission(self):
        # An identical duplicate still counts against the queue bound
        # while queued (dedup collapses at dispatch, not admission).
        async def scenario():
            config = ServeConfig(max_depth=2)
            async with SimulationService(config) as svc:
                await svc.pause()
                await svc.submit(req())
                await svc.submit(req())
                with pytest.raises(AdmissionRejected) as exc:
                    await svc.submit(req())
                await svc.resume()
                return exc.value.error

        assert run(scenario()).code == REASON_QUEUE_FULL


# ---------------------------------------------------------------------------
# Drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_completes_all_accepted_jobs(self):
        async def scenario():
            config = ServeConfig(max_depth=16)
            svc = SimulationService(config)
            await svc.start()
            await svc.pause()
            jobs = [
                await svc.submit(req(spec=s))
                for s in ("MARK", "CACHE", "VEC", "PKG")
            ]
            # Drain un-pauses and must finish everything already accepted.
            stats = await svc.drain()
            results = [j.future.result() for j in jobs]
            return stats, results

        stats, results = run(scenario())
        assert stats.drained
        assert all(r.ok for r in results)
        assert stats.completed == 4
        assert stats.failed == 0

    def test_drain_is_idempotent(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            first = await svc.drain()
            second = await svc.drain()
            return first, second

        first, second = run(scenario())
        assert first.drained and second.drained

    def test_drain_closes_shared_backend(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            await svc.submit_and_wait(req())
            assert pool_mod._SHARED_BACKENDS  # service holds the backend
            await svc.drain()
            return dict(pool_mod._SHARED_BACKENDS), svc.backend

        registry, backend = run(scenario())
        assert registry == {}
        assert backend is None

    def test_run_until_drained_wakes_on_drain(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            waiter = asyncio.create_task(svc.run_until_drained())
            await svc.submit_and_wait(req())
            await svc.drain()
            stats = await asyncio.wait_for(waiter, timeout=5)
            return stats

        assert run(scenario()).drained


# ---------------------------------------------------------------------------
# Failures, deadlines, retries
# ---------------------------------------------------------------------------


class TestFailures:
    def test_worker_crash_retries_then_succeeds(self):
        request = req()
        direct = execute_request(request)

        async def scenario():
            config = ServeConfig(
                max_depth=4,
                retry=RetryPolicy(max_attempts=3),
                backoff_cycle_s=0.0,
            )
            svc = SimulationService(config)
            await svc.start()
            orig = svc._execute_blocking
            calls = {"n": 0}

            def flaky(units, progress_paths=None):
                calls["n"] += 1
                if calls["n"] < 3:
                    raise WorkerCrashError("worker process died")
                return orig(units, progress_paths)

            svc._execute_blocking = flaky
            result = await svc.submit_and_wait(request)
            stats = await svc.drain()
            return result, stats

        result, stats = run(scenario())
        assert result.ok
        assert result.attempts == 3
        assert result.payload == direct
        assert stats.retries == 2

    def test_worker_crash_exhausts_attempts(self):
        async def scenario():
            config = ServeConfig(
                max_depth=4,
                retry=RetryPolicy(max_attempts=2),
                backoff_cycle_s=0.0,
            )
            svc = SimulationService(config)
            await svc.start()

            def always_crash(units, progress_paths=None):
                raise WorkerCrashError("worker process died")

            svc._execute_blocking = always_crash
            result = await svc.submit_and_wait(req())
            stats = await svc.drain()
            return result, stats

        result, stats = run(scenario())
        assert not result.ok
        assert result.error.code == REASON_EXECUTION
        assert "2 attempt" in result.error.message
        assert stats.retries == 1
        assert stats.failed_by_reason == {REASON_EXECUTION: 1}

    def test_deterministic_error_fails_fast(self):
        # A ValueError would recur on every reissue: exactly one attempt.
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()

            def boom(units, progress_paths=None):
                raise ValueError("bad physics")

            svc._execute_blocking = boom
            result = await svc.submit_and_wait(req())
            stats = await svc.drain()
            return result, stats

        result, stats = run(scenario())
        assert not result.ok
        assert result.error.code == REASON_EXECUTION
        assert "bad physics" in result.error.message
        assert result.attempts == 1
        assert stats.retries == 0

    def test_deadline_expired_before_dispatch(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            await svc.pause()
            job = await svc.submit(req(timeout_s=0.01))
            await asyncio.sleep(0.05)
            await svc.resume()
            result = await job.future
            stats = await svc.drain()
            return result, stats

        result, stats = run(scenario())
        assert not result.ok
        assert result.error.code == REASON_DEADLINE
        assert stats.failed_by_reason == {REASON_DEADLINE: 1}
        assert stats.executed_units == 0

    def test_execution_timeout(self):
        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()

            def slow(units, progress_paths=None):
                time.sleep(0.4)
                return BatchOutcome(payloads=[{"x": 1}])

            svc._execute_blocking = slow
            result = await svc.submit_and_wait(req(timeout_s=0.05))
            stats = await svc.drain()
            return result, stats

        result, stats = run(scenario())
        assert not result.ok
        assert result.error.code == REASON_TIMEOUT
        assert stats.failed_by_reason == {REASON_TIMEOUT: 1}

    def test_mixed_deadlines_do_not_cap_unbounded_jobs(self):
        # One job with a (generous) deadline batched with one without:
        # the batch must not inherit a finite timeout window, and both
        # complete.
        async def scenario():
            async with SimulationService(ServeConfig(max_depth=8)) as svc:
                await svc.pause()
                a = await svc.submit(req(timeout_s=30.0))
                b = await svc.submit(req())
                await svc.resume()
                return await asyncio.gather(a.future, b.future)

        ra, rb = run(scenario())
        assert ra.ok and rb.ok


# ---------------------------------------------------------------------------
# Fair-share dispatch order
# ---------------------------------------------------------------------------


class TestFairShare:
    def test_interleaves_tenants_deterministically(self):
        # Tenant "a" floods 3 distinct jobs, "b" submits 1; with one
        # dispatch slot the schedule must be a, b, a, a — not a, a, a, b.
        async def scenario():
            config = ServeConfig(max_depth=16, max_inflight=1)
            async with SimulationService(config) as svc:
                await svc.pause()
                jobs = [
                    await svc.submit(req(seed=1, tenant="a")),
                    await svc.submit(req(seed=2, tenant="a")),
                    await svc.submit(req(seed=3, tenant="a")),
                    await svc.submit(req(seed=4, tenant="b")),
                ]
                await svc.resume()
                await asyncio.gather(*(j.future for j in jobs))
                order = sorted(jobs, key=lambda j: j.dispatched_at)
                return [j.request.tenant for j in order]

        assert run(scenario()) == ["a", "b", "a", "a"]


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class TestTracing:
    def test_serve_spans_recorded(self):
        tracer = Tracer()

        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=8), tracer=tracer)
            await svc.start()
            await svc.pause()
            jobs = [await svc.submit(req()) for _ in range(2)]
            await svc.resume()
            await asyncio.gather(*(j.future for j in jobs))
            with pytest.raises(AdmissionRejected):
                await svc.submit(req(spec="NOPE"))
            await svc.drain()

        run(scenario())
        serve = [e for e in tracer.events if e.category == CAT_SERVE]
        names = [e.name for e in serve]
        assert all(e.cpe_id == SERVE_TRACK for e in serve)
        assert "queue:1" in names and "exec:1" in names
        assert "queue:2" in names and "exec:2" in names
        assert f"reject:{REASON_INVALID}" in names

    def test_exec_span_marks_dedup_fanout(self):
        tracer = Tracer()

        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=8), tracer=tracer)
            await svc.start()
            await svc.pause()
            jobs = [await svc.submit(req()) for _ in range(2)]
            await svc.resume()
            await asyncio.gather(*(j.future for j in jobs))
            await svc.drain()

        run(scenario())
        execs = [
            e for e in tracer.events
            if e.category == CAT_SERVE and e.name.startswith("exec:")
        ]
        assert sorted(e.args["executed"] for e in execs) == [False, True]


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestSockets:
    def test_unix_socket_full_session(self, tmp_path):
        # The smoke scenario, end to end over the Unix socket: ping →
        # pause → fill the queue → deterministic rejection → resume →
        # both results → client-driven drain.
        from repro.serve.client import ServeClient, ServeRequestError

        sock = str(tmp_path / "serve.sock")
        direct = execute_request(req(seed=1))

        async def scenario():
            config = ServeConfig(max_depth=2, max_inflight=1)
            svc = SimulationService(config)
            await svc.start()
            await svc.serve_unix(sock)
            client = ServeClient(socket_path=sock, timeout=30)

            def drive():
                assert client.ping()
                client.pause()
                id1 = client.submit(req(seed=1), wait=False)
                id2 = client.submit(req(seed=2), wait=False)
                try:
                    client.submit(req(seed=3), wait=False)
                    rejected = None
                except ServeRequestError as exc:
                    rejected = exc.code
                client.resume()
                r1 = client.wait(id1)
                r2 = client.wait(id2)
                stats = client.drain()
                return rejected, r1, r2, stats

            driver = asyncio.to_thread(drive)
            waiter = svc.run_until_drained()
            (rejected, r1, r2, stats), _ = await asyncio.gather(
                driver, waiter
            )
            return rejected, r1, r2, stats

        rejected, r1, r2, stats = run(scenario())
        assert rejected == REASON_QUEUE_FULL
        assert r1.ok and r2.ok
        assert r1.payload == direct
        assert stats["completed"] == 2
        assert stats["rejected_by_reason"] == {REASON_QUEUE_FULL: 1}
        assert stats["drained"] is True

    def test_tcp_socket_submit_and_wait(self):
        from repro.serve.client import ServeClient

        request = req()
        direct = execute_request(request)

        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            port = await svc.serve_tcp("127.0.0.1", 0)
            client = ServeClient(host="127.0.0.1", port=port, timeout=30)

            def drive():
                result = client.submit(request)
                stats = client.stats()
                client.drain()
                return result, stats

            (result, stats), _ = await asyncio.gather(
                asyncio.to_thread(drive), svc.run_until_drained()
            )
            return result, stats

        result, stats = run(scenario())
        assert result.ok and result.payload == direct
        assert stats["stats"]["completed"] == 1
        assert stats["queue_depth"] == 0

    def test_malformed_and_unknown_ops(self, tmp_path):
        import json
        import socket as socket_mod

        sock = str(tmp_path / "serve.sock")

        async def scenario():
            svc = SimulationService(ServeConfig(max_depth=4))
            await svc.start()
            await svc.serve_unix(sock)

            def raw_request(line: bytes) -> dict:
                with socket_mod.socket(
                    socket_mod.AF_UNIX, socket_mod.SOCK_STREAM
                ) as s:
                    s.settimeout(10)
                    s.connect(sock)
                    s.sendall(line)
                    data = b""
                    while not data.endswith(b"\n"):
                        chunk = s.recv(65536)
                        if not chunk:
                            break
                        data += chunk
                return json.loads(data)

            garbage = await asyncio.to_thread(raw_request, b"not json\n")
            unknown = await asyncio.to_thread(
                raw_request, b'{"op": "teleport"}\n'
            )
            unknown_job = await asyncio.to_thread(
                raw_request, b'{"op": "wait", "job_id": 999}\n'
            )
            await svc.drain()
            return garbage, unknown, unknown_job

        garbage, unknown, unknown_job = run(scenario())
        assert garbage["ok"] is False
        assert garbage["error"]["code"] == "bad_request"
        assert unknown["error"]["code"] == "unknown_op"
        assert unknown_job["error"]["code"] == "unknown_job"


class TestStatsOp:
    def test_stats_keys_are_service_stats_fields(self):
        async def scenario():
            async with SimulationService(ServeConfig(max_depth=4)) as svc:
                assert (await svc.submit_and_wait(req())).ok
                return await svc._dispatch_op({"op": "stats"})

        stats = run(scenario())["stats"]
        assert list(stats) == [f.name for f in fields(ServiceStats)]
        # The counters the perfbench serve workloads read.
        assert {
            "batches", "executed_units", "dedup_hits", "resident_hits",
            "resident_misses", "resident_builds", "resident_evictions",
            "sr_evals", "sr_hits",
        } <= stats.keys()
        assert stats["completed"] == 1


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfig:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ServeConfig(max_inflight=0)
        with pytest.raises(ValueError):
            ServeConfig(backoff_cycle_s=-1.0)

    def test_drain_before_start_rejected(self):
        svc = SimulationService(ServeConfig())
        with pytest.raises(RuntimeError, match="never started"):
            run(svc.drain())
