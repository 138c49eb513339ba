"""The fleet front-end: route, proxy, health-check, reassign (DESIGN.md §11).

One asyncio object, same single-loop/no-lock discipline as
:class:`~repro.serve.service.SimulationService`, speaking the *same*
JSON-lines protocol — a router socket is a drop-in replacement for a
service socket from any client's point of view.  What it adds:

* **placement** — ``submit`` routes on the request's
  :attr:`~repro.serve.jobs.JobRequest.system_key` through the
  consistent-hash ring, so fingerprint dedup, in-flight joins, and
  `StepCache` batching keep working *inside* each worker after sharding;
* **membership** — workers register and heartbeat over the wire
  (``worker_register`` / ``worker_heartbeat`` ops); a monitor task marks
  workers dead when their heartbeat deadline lapses, and any failed
  round trip to a worker kills it immediately (fail-fast detection for
  SIGKILLed processes);
* **reassignment** — a job whose worker dies mid-flight is resubmitted
  to the key's new owner with the resilience layer's
  :class:`~repro.resilience.retry.RetryPolicy` backoff.  Worker loss is
  just a coarser-grained fault than a crashed pool worker (DESIGN.md
  §7/§10), and the same purity argument makes the reissue safe: every
  request is a pure function, so a re-execution is bit-identical, even
  if the dead worker had already half-finished it;
* **queueing across ring changes** — with no routable worker (fleet
  starting up, every worker draining), submissions wait on membership
  for ``route_wait_s`` before the structured ``no_workers`` rejection,
  instead of failing the startup race.

Jobs carry *router-scope* ids on the client wire; the per-worker ids
never escape (results are rewritten on the way through), so a client
cannot observe which worker served it — or that the worker changed.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import asdict, dataclass, field

from repro.fleet.registry import (
    STATE_DEAD,
    UnknownWorkerError,
    WorkerRegistry,
)
from repro.fleet.ring import DEFAULT_VNODES, HashRing, stable_key
from repro.fleet.wire import parse_address, send_request
from repro.resilience.retry import RetryPolicy
from repro.serve.jobs import (
    InvalidRequestError,
    JobError,
    JobRequest,
    JobResult,
)
from repro.serve.queue import REASON_DRAINING, REASON_INVALID
from repro.trace.events import CAT_FLEET, FLEET_TRACK, NULL_TRACER, NullTracer

#: Fleet-level wire-stable reason codes (extending the serve set).
REASON_NO_WORKERS = "no_workers"
REASON_WORKER_LOST = "worker_lost"


@dataclass
class RouterConfig:
    """Router knobs: health-checking, routing waits, reassignment."""

    #: Heartbeat deadline before a silent worker is declared dead.
    heartbeat_timeout_s: float = 5.0
    #: Monitor wake-up period (deadline check granularity).
    check_interval_s: float = 0.5
    #: Max wait for a routable worker before ``no_workers`` rejection.
    route_wait_s: float = 10.0
    #: Timeout for control-plane round trips to workers (stats, pause,
    #: ping).  Submit/wait forwarding is never timed out here — a job
    #: legitimately runs for its full duration; per-job deadlines belong
    #: to ``JobRequest.timeout_s`` and are enforced worker-side.
    worker_op_timeout_s: float = 10.0
    #: Ceiling on one worker's graceful drain during fleet shutdown.
    drain_timeout_s: float = 60.0
    #: Virtual nodes per worker on the hash ring.
    vnodes: int = DEFAULT_VNODES
    #: Reissue policy for jobs stranded on dead workers — the same
    #: machinery that reissues failed DMA transactions (DESIGN.md §7),
    #: at fleet granularity.
    retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=4)
    )
    #: Wall seconds per modelled backoff cycle (see ServeConfig).
    backoff_cycle_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0: {self.heartbeat_timeout_s}"
            )
        if self.check_interval_s <= 0:
            raise ValueError(
                f"check_interval_s must be > 0: {self.check_interval_s}"
            )
        if self.route_wait_s < 0:
            raise ValueError(
                f"route_wait_s must be >= 0: {self.route_wait_s}"
            )


@dataclass
class RouterStats:
    """Router-lifetime counters (router-scope: each routed job once)."""

    routed: int = 0
    completed: int = 0
    failed: int = 0
    failed_by_reason: dict = field(default_factory=dict)
    rejected: int = 0
    rejected_by_reason: dict = field(default_factory=dict)
    reassignments: int = 0
    workers_registered: int = 0
    workers_lost: int = 0
    drained: bool = False

    def record_reject(self, code: str) -> None:
        self.rejected += 1
        self.rejected_by_reason[code] = (
            self.rejected_by_reason.get(code, 0) + 1
        )

    def record_failure(self, code: str) -> None:
        self.failed += 1
        self.failed_by_reason[code] = self.failed_by_reason.get(code, 0) + 1

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class RoutedJob:
    """One accepted client job and its current placement."""

    job_id: int
    request: JobRequest
    request_dict: dict
    route_key: str
    future: object = None  # asyncio.Future[dict]
    worker: str | None = None
    attempts: int = 0


#: ServiceStats keys summed across workers for the aggregated stats op.
_WORKER_SUM_KEYS = (
    "accepted",
    "rejected",
    "completed",
    "failed",
    "batches",
    "executed_units",
    "dedup_hits",
    "retries",
    "sr_evals",
    "sr_hits",
    "resident_hits",
    "resident_misses",
    "resident_builds",
    "resident_evictions",
    "resident_invalidations",
    "warmups",
    "journal_replays",
    "store_hits",
)

#: Per-tenant SLO counters summed across workers by the ``metrics`` op.
_METRIC_SUM_KEYS = (
    "submitted",
    "completed",
    "failed",
    "rejected",
    "retried",
    "journal_replays",
    "store_hits",
    "samples",
    "queue_depth",
)
#: Per-tenant values where the fleet reports the *worst* worker — a
#: conservative fleet percentile (exact merge would need raw samples).
_METRIC_MAX_KEYS = (
    "p50_latency_s",
    "p99_latency_s",
    "p50_queue_s",
    "p99_queue_s",
    "oldest_age_seconds",
)


def _merge_metrics(worker_metrics: dict[str, dict | None]) -> dict:
    """Fleet-level per-tenant SLO rollup: counts sum, percentiles take
    the worst worker, rates recompute from the merged counts."""
    fleet: dict[str, dict] = {}
    for metrics in worker_metrics.values():
        if not metrics:
            continue
        for tenant, row in metrics.items():
            agg = fleet.setdefault(
                tenant,
                {
                    **{k: 0 for k in _METRIC_SUM_KEYS},
                    **{k: 0.0 for k in _METRIC_MAX_KEYS},
                    "rejected_by_reason": {},
                },
            )
            for key in _METRIC_SUM_KEYS:
                agg[key] += int(row.get(key, 0))
            for key in _METRIC_MAX_KEYS:
                agg[key] = max(agg[key], float(row.get(key, 0.0)))
            for code, n in (row.get("rejected_by_reason") or {}).items():
                agg["rejected_by_reason"][code] = (
                    agg["rejected_by_reason"].get(code, 0) + int(n)
                )
    for agg in fleet.values():
        total = agg["submitted"] + agg["rejected"]
        agg["rejection_rate"] = agg["rejected"] / total if total else 0.0
        agg["retry_rate"] = (
            agg["retried"] / agg["submitted"] if agg["submitted"] else 0.0
        )
    return fleet


class FleetRouter:
    """Consistent-hash front-end over N registered serve workers."""

    def __init__(
        self,
        config: RouterConfig | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.config = config or RouterConfig()
        self.tracer = tracer
        self.registry = WorkerRegistry(
            heartbeat_timeout_s=self.config.heartbeat_timeout_s
        )
        self.ring = HashRing(vnodes=self.config.vnodes)
        self.stats = RouterStats()
        self.draining = False
        #: name -> the worker registered with a journal behind it, so
        #: failover decisions and fleet stats can tell which members
        #: recover their own accepted jobs after a crash.
        self.worker_durable: dict[str, bool] = {}
        #: name -> worker registered with the resident-state layer on
        #: (answers warmups, keeps warm systems across batches).
        self.worker_resident: dict[str, bool] = {}
        self._job_ids = iter(range(1, 1 << 62))
        self._jobs: dict[int, RoutedJob] = {}
        self._results: dict[int, dict] = {}
        self._job_tasks: set[asyncio.Task] = set()
        self._membership: asyncio.Event | None = None
        self._monitor_task: asyncio.Task | None = None
        self._servers: list[asyncio.AbstractServer] = []
        self._drained_event: asyncio.Event | None = None
        self._final_stats: dict | None = None
        self._t0 = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "FleetRouter":
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self._membership = asyncio.Event()
        self._drained_event = asyncio.Event()
        self._monitor_task = asyncio.create_task(self._monitor_loop())
        return self

    async def __aenter__(self) -> "FleetRouter":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def serve_unix(self, path: str) -> None:
        self._servers.append(
            await asyncio.start_unix_server(self._handle_connection, path=path)
        )

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        self._servers.append(server)
        return server.sockets[0].getsockname()[1]

    async def run_until_drained(self) -> dict:
        await self._drained_event.wait()
        return self._final_stats or {"router": self.stats.as_dict()}

    async def drain(self) -> dict:
        """Fleet-wide graceful shutdown: refuse new work, finish every
        routed job, drain every live worker, stop.  Idempotent."""
        if self._drained_event is None:
            raise RuntimeError("router was never started")
        if self._final_stats is not None:
            return self._final_stats
        self.draining = True
        self._membership.set()  # wake pickers: they see draining
        while self._jobs:
            await asyncio.gather(
                *(j.future for j in list(self._jobs.values())),
                return_exceptions=True,
            )
        worker_stats: dict[str, dict | None] = {}
        for name in self.registry.alive():
            info = self.registry.get(name)
            try:
                response = await send_request(
                    parse_address(info.address),
                    {"op": "drain"},
                    timeout=self.config.drain_timeout_s,
                )
                worker_stats[name] = response.get("stats")
            except (ConnectionError, asyncio.TimeoutError):
                worker_stats[name] = None
            self.registry.decommission(name)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
            try:
                await self._monitor_task
            except asyncio.CancelledError:
                pass
            self._monitor_task = None
        for server in self._servers:
            server.close()
        self._servers.clear()
        self.stats.drained = True
        self._final_stats = self._aggregate_stats(worker_stats)
        self._drained_event.set()
        return self._final_stats

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def _register_worker(
        self,
        name: str,
        address: str,
        durable: bool = False,
        resident: bool = False,
    ) -> dict:
        loop = asyncio.get_running_loop()
        parse_address(address)  # validate early: a bad address is a bad op
        self.registry.register(name, address, loop.time())
        self.ring.add(name)
        self.worker_durable[name] = bool(durable)
        self.worker_resident[name] = bool(resident)
        self.stats.workers_registered += 1
        self._membership.set()
        if self.tracer.enabled:
            self.tracer.instant(
                f"worker_register:{name}", CAT_FLEET, FLEET_TRACK,
                address=address, durable=bool(durable),
                resident=bool(resident),
            )
        return {
            "ok": True,
            "heartbeat_timeout_s": self.config.heartbeat_timeout_s,
        }

    def _worker_lost(
        self, name: str, incarnation: int, why: str
    ) -> bool:
        """Declare one worker incarnation dead and pull it off the ring."""
        try:
            if not self.registry.mark_dead(name, incarnation):
                return False
        except UnknownWorkerError:
            return False
        self.ring.remove(name)
        self.stats.workers_lost += 1
        if self.tracer.enabled:
            self.tracer.instant(
                f"worker_dead:{name}", CAT_FLEET, FLEET_TRACK, why=why,
            )
        return True

    async def _monitor_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.check_interval_s)
            for info in self.registry.expired(loop.time()):
                self._worker_lost(
                    info.name, info.incarnation, "heartbeat deadline missed"
                )

    async def _drain_worker(self, name: str) -> dict | None:
        """Gracefully take one worker out of service: off the ring at
        once (new work routes around it), then a service-level drain
        finishes everything it already accepted."""
        info = self.registry.start_drain(name)
        self.ring.remove(name)
        if self.tracer.enabled:
            self.tracer.instant(f"worker_drain:{name}", CAT_FLEET, FLEET_TRACK)
        try:
            response = await send_request(
                parse_address(info.address),
                {"op": "drain"},
                timeout=self.config.drain_timeout_s,
            )
            stats = response.get("stats")
        except (ConnectionError, asyncio.TimeoutError):
            stats = None
        if info.state != STATE_DEAD:
            self.registry.decommission(name)
        return stats

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _pick_worker(self, route_key: str) -> str:
        """Owner of ``route_key``, waiting out empty-ring windows (fleet
        startup, every worker mid-drain) up to ``route_wait_s``."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.route_wait_s
        while True:
            self._membership.clear()
            if self.ring.members:
                return self.ring.route(route_key)
            if self.draining:
                raise _NoWorkers("router is draining")
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise _NoWorkers(
                    f"no routable workers after waiting "
                    f"{self.config.route_wait_s:.1f}s"
                )
            try:
                await asyncio.wait_for(
                    self._membership.wait(), timeout=remaining
                )
            except (asyncio.TimeoutError, TimeoutError):
                pass

    async def _submit(self, request_dict: dict, wait: bool) -> dict:
        try:
            request = JobRequest.from_dict(request_dict)
            request.validate()
        except (InvalidRequestError, TypeError) as exc:
            self.stats.record_reject(REASON_INVALID)
            return _error_response(REASON_INVALID, str(exc))
        if self.draining:
            self.stats.record_reject(REASON_DRAINING)
            return _error_response(
                REASON_DRAINING, "fleet is draining and no longer accepts jobs"
            )
        loop = asyncio.get_running_loop()
        job = RoutedJob(
            job_id=next(self._job_ids),
            request=request,
            request_dict=request.to_dict(),
            route_key=stable_key(request.system_key),
            future=loop.create_future(),
        )
        self._jobs[job.job_id] = job
        self.stats.routed += 1
        task = asyncio.create_task(self._run_job(job))
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)
        if wait:
            return {"ok": True, "result": await job.future}
        return {"ok": True, "job_id": job.job_id}

    async def _run_job(self, job: RoutedJob) -> None:
        """Forward one job to its owner; reassign on worker loss."""
        policy = self.config.retry
        result: dict | None = None
        error: JobError | None = None
        while result is None and error is None:
            job.attempts += 1
            try:
                name = await self._pick_worker(job.route_key)
            except _NoWorkers as exc:
                error = JobError(REASON_NO_WORKERS, str(exc))
                break
            info = self.registry.get(name)
            incarnation = info.incarnation
            job.worker = name
            info.jobs_routed += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    f"{'route' if job.attempts == 1 else 'reassign'}:"
                    f"{job.job_id}",
                    CAT_FLEET, FLEET_TRACK,
                    worker=name, key=job.route_key, attempt=job.attempts,
                )
            try:
                response = await send_request(
                    parse_address(info.address),
                    {"op": "submit", "job": job.request_dict, "wait": True},
                )
            except ConnectionError as exc:
                # The round trip died under the job: treat the worker as
                # lost and reissue to the key's new owner with backoff —
                # safe because execution is a pure function of the
                # request (DESIGN.md §10), so a re-run is bit-identical
                # no matter how far the dead worker got.
                self._worker_lost(name, incarnation, f"round trip failed: {exc}")
                info.jobs_reassigned_away += 1
                self.stats.reassignments += 1
                if job.attempts >= policy.max_attempts:
                    error = JobError(
                        REASON_WORKER_LOST,
                        f"worker {name!r} lost and retries exhausted "
                        f"(after {job.attempts} attempt(s))",
                    )
                else:
                    await asyncio.sleep(
                        policy.backoff_seconds(
                            job.attempts, self.config.backoff_cycle_s
                        )
                    )
                continue
            if response.get("ok"):
                result = response["result"]
            else:
                # A structured worker-side answer (admission or terminal
                # failure) is authoritative: propagate, don't retry — a
                # deterministic failure recurs on every reissue.
                err = response.get("error") or {}
                error = JobError(
                    err.get("code", "unknown"), err.get("message", "")
                )
        if error is not None:
            result = JobResult(
                job_id=job.job_id,
                fingerprint=job.request.fingerprint,
                kind=job.request.kind,
                ok=False,
                error=error,
                executed=False,
                attempts=job.attempts,
            ).to_dict()
            self.stats.record_failure(error.code)
        else:
            # Router-scope ids on the client wire; worker ids stay private.
            result = dict(result)
            result["job_id"] = job.job_id
            if result.get("ok"):
                self.stats.completed += 1
            else:
                err = result.get("error") or {}
                self.stats.record_failure(err.get("code", "unknown"))
        self._results[job.job_id] = result
        self._jobs.pop(job.job_id, None)
        if not job.future.done():
            job.future.set_result(result)

    async def _warmup(self, request_dict: dict) -> dict:
        """Forward a warmup to the system key's owner (the worker whose
        residency the subsequent burst will actually hit).  Best-effort:
        a lost worker fails the warmup, never queues a reissue — the
        burst itself still executes correctly (cold) wherever it lands.
        """
        try:
            request = JobRequest.from_dict(request_dict)
            request.validate()
        except (InvalidRequestError, TypeError) as exc:
            self.stats.record_reject(REASON_INVALID)
            return _error_response(REASON_INVALID, str(exc))
        if self.draining:
            self.stats.record_reject(REASON_DRAINING)
            return _error_response(
                REASON_DRAINING, "fleet is draining and no longer accepts jobs"
            )
        try:
            name = await self._pick_worker(stable_key(request.system_key))
        except _NoWorkers as exc:
            self.stats.record_reject(REASON_NO_WORKERS)
            return _error_response(REASON_NO_WORKERS, str(exc))
        info = self.registry.get(name)
        incarnation = info.incarnation
        try:
            response = await send_request(
                parse_address(info.address),
                {"op": "warmup", "job": request.to_dict()},
                timeout=self.config.worker_op_timeout_s,
            )
        except (ConnectionError, asyncio.TimeoutError) as exc:
            self._worker_lost(
                name, incarnation, f"warmup round trip failed: {exc}"
            )
            return _error_response(
                REASON_WORKER_LOST,
                f"worker {name!r} lost during warmup: {exc}",
            )
        if not response.get("ok"):
            return response
        out = dict(response)
        out["worker"] = name
        return out

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    async def _fetch_from_workers(self, op: str) -> dict[str, dict | None]:
        """Best-effort ``op`` (``stats`` or ``metrics``) from every alive
        worker, in parallel; the op name is also the response key."""
        names = self.registry.alive()

        async def fetch(name: str) -> dict | None:
            info = self.registry.get(name)
            try:
                response = await send_request(
                    parse_address(info.address),
                    {"op": op},
                    timeout=self.config.worker_op_timeout_s,
                )
                return response.get(op)
            except (ConnectionError, asyncio.TimeoutError):
                return None

        results = await asyncio.gather(*(fetch(n) for n in names))
        return dict(zip(names, results))

    def _aggregate_stats(self, worker_stats: dict[str, dict | None]) -> dict:
        totals = {key: 0 for key in _WORKER_SUM_KEYS}
        for stats in worker_stats.values():
            if not stats:
                continue
            for key in _WORKER_SUM_KEYS:
                totals[key] += int(stats.get(key, 0))
        out = self.stats.as_dict()
        # Aliases so fleet-level drain/stats read like service stats on
        # the CLI: completed/failed/rejected stay router-scope (each
        # client job once), workers' internals land under workers_total.
        out["workers_total"] = totals
        return out

    # ------------------------------------------------------------------
    # wire protocol
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                msg = json.loads(line)
                response = await self._dispatch_op(msg)
            except Exception as exc:  # malformed input must not kill the loop
                response = _error_response(
                    "bad_request", f"{type(exc).__name__}: {exc}"
                )
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_op(self, msg: dict) -> dict:
        loop = asyncio.get_running_loop()
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping", "role": "router"}
        if op == "worker_register":
            worker = msg.get("worker") or {}
            name = str(worker.get("name", ""))
            address = str(worker.get("address", ""))
            if not name or not address:
                return _error_response(
                    "bad_request", "worker_register needs name and address"
                )
            return self._register_worker(
                name,
                address,
                durable=bool(worker.get("durable", False)),
                resident=bool(worker.get("resident", False)),
            )
        if op == "worker_heartbeat":
            name = str(msg.get("name", ""))
            try:
                self.registry.heartbeat(name, loop.time())
            except UnknownWorkerError:
                # The worker must re-register (it outlived a router
                # restart, or was declared dead and its jobs reassigned).
                return _error_response(
                    "unknown_worker",
                    f"worker {name!r} is not registered; register again",
                )
            return {"ok": True}
        if op == "submit":
            return await self._submit(
                msg.get("job") or {}, bool(msg.get("wait", True))
            )
        if op == "warmup":
            return await self._warmup(msg.get("job") or {})
        if op == "wait":
            job_id = int(msg["job_id"])
            if job_id in self._results:
                return {"ok": True, "result": self._results[job_id]}
            job = self._jobs.get(job_id)
            if job is None:
                return _error_response(
                    "unknown_job", f"no job with id {job_id}"
                )
            return {"ok": True, "result": await job.future}
        if op == "stats":
            worker_stats = await self._fetch_from_workers("stats")
            return {
                "ok": True,
                "stats": self._aggregate_stats(worker_stats),
                "queue_depth": len(self._jobs),
                "workers": {
                    name: {
                        **self.registry.get(name).as_dict(),
                        "stats": stats,
                    }
                    for name, stats in worker_stats.items()
                },
            }
        if op == "metrics":
            worker_metrics = await self._fetch_from_workers("metrics")
            return {
                "ok": True,
                "metrics": _merge_metrics(worker_metrics),
                "workers": worker_metrics,
            }
        if op == "fleet":
            worker_stats = await self._fetch_from_workers("stats")
            workers = self.registry.as_dict()
            for name, stats in worker_stats.items():
                workers[name]["stats"] = stats
                workers[name]["durable"] = self.worker_durable.get(name, False)
                workers[name]["resident"] = self.worker_resident.get(
                    name, False
                )
            return {
                "ok": True,
                "router": self.stats.as_dict(),
                "ring": self.ring.as_dict(),
                "workers": workers,
                "jobs": {
                    str(job_id): {"worker": job.worker, "attempts": job.attempts}
                    for job_id, job in sorted(self._jobs.items())
                },
                "results": len(self._results),
            }
        if op == "drain_worker":
            name = str(msg.get("name", ""))
            if name not in self.registry:
                return _error_response(
                    "unknown_worker", f"worker {name!r} is not registered"
                )
            stats = await self._drain_worker(name)
            return {"ok": True, "worker": name, "stats": stats}
        if op in ("pause", "resume"):
            answered = []
            for name in self.registry.alive():
                info = self.registry.get(name)
                try:
                    await send_request(
                        parse_address(info.address),
                        {"op": op},
                        timeout=self.config.worker_op_timeout_s,
                    )
                    answered.append(name)
                except (ConnectionError, asyncio.TimeoutError):
                    pass
            return {"ok": True, "op": op, "workers": answered}
        if op == "drain":
            stats = await self.drain()
            return {"ok": True, "stats": stats}
        return _error_response("unknown_op", f"unknown op {op!r}")


class _NoWorkers(RuntimeError):
    """No routable worker inside the routing wait window."""


def _error_response(code: str, message: str) -> dict:
    return {"ok": False, "error": {"code": code, "message": message}}
