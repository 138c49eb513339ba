"""The long-lived asyncio simulation service (DESIGN.md §10).

Dataflow, request to result::

    client ──admit──▶ JobQueue ──pick──▶ FairShareScheduler
                                  │
                            Batcher.collect          (dedup + batching)
                                  │
                        backend.map(execute_batch)   (one pool worker)
                                  │
                            fan-out to waiters ──▶ JobResult futures

The service owns one asyncio event loop; every data structure above is
touched only from that loop, so there is no locking — blocking work
(the pool ``map`` call) runs in ``asyncio.to_thread`` and returns to the
loop for fan-out.  Concurrency across batches is capped by a semaphore
sized to the backend's worker count, which is how jobs "pack onto pool
workers": each in-flight batch occupies exactly one worker.

Guarantees (test-enforced in ``tests/serve/``):

* **bit-identity** — a served payload equals the direct
  `run_kernel`/engine call for the same request, including through dedup
  and batching;
* **no lost jobs** — an accepted job always resolves: payload,
  structured error, or completion during graceful drain;
* **deterministic admission** — over-capacity submissions are rejected
  with a wire-stable reason code, never dropped;
* **clean drain** — :meth:`SimulationService.drain` stops admission,
  finishes every accepted job, closes the shared pool backend
  (`repro.parallel.pool.close_shared_backend`), and wakes
  :meth:`run_until_drained`.

Failures and deadlines are charged through the resilience layer's
:class:`~repro.resilience.retry.RetryPolicy`: a crashed worker or
transient execution error is reissued with exponential backoff up to
``max_attempts``; a job whose deadline lapses is failed with a
structured ``timeout``/``deadline_expired`` error instead of silently
running forever.

With ``journal_dir`` set, the durable layer (DESIGN.md §12) extends
"no lost jobs" across process death: acceptance and resolution are
journaled (`repro.durable.journal`), a restarted service replays the
difference bit-identically, completed payloads persist in the
fingerprint→result store (`repro.durable.results`) and answer
duplicate submissions — across restarts — with the structured
``duplicate_completed`` result code.  Per-tenant SLO metrics
(`repro.durable.slo`) and the streaming ``progress`` op are always on.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.durable.journal import JobJournal, JournalRecovery
from repro.durable.progress import read_progress
from repro.durable.results import CODE_DUPLICATE_COMPLETED, ResultStore
from repro.durable.slo import SloTracker
from repro.parallel.pool import (
    WorkerCrashError,
    close_shared_backend,
    shared_backend,
)
from repro.resilience.retry import DEFAULT_RETRY, RetryPolicy
from repro.serve.batcher import Batch, Batcher
from repro.serve.jobs import (
    KIND_MD,
    BatchOutcome,
    InvalidRequestError,
    JobError,
    JobRequest,
    JobResult,
    execute_batch,
    execute_batch_task,
    json_safe_payload,
)
from repro.serve.residency import (
    DEFAULT_RESIDENT_CAPACITY,
    ResidentBatchTask,
    ResidentCache,
    WarmupTask,
    execute_batch_resident,
    execute_batch_with,
    lane_for_system,
    warmup_job,
    warmup_with,
)
from repro.serve.queue import (
    REASON_DEADLINE,
    REASON_EXECUTION,
    REASON_INVALID,
    REASON_TIMEOUT,
    Job,
    JobQueue,
)
from repro.serve.scheduler import FairShareScheduler
from repro.trace.events import (
    CAT_DURABLE,
    CAT_SERVE,
    NULL_TRACER,
    SERVE_TRACK,
    NullTracer,
)


class AdmissionRejected(RuntimeError):
    """Raised by the in-process API when admission control says no."""

    def __init__(self, error: JobError) -> None:
        super().__init__(f"{error.code}: {error.message}")
        self.error = error


@dataclass
class ServeConfig:
    """Service knobs: capacity, batching, execution, and retry."""

    #: Admission window (total queued jobs).
    max_depth: int = 64
    #: Optional per-tenant queued-job cap.
    max_per_tenant: int | None = None
    #: Max distinct execution units per dispatched batch.
    max_batch: int = 16
    #: Coalesce identical/compatible requests (False = ablation baseline).
    dedup: bool = True
    #: Concurrent in-flight batches (None = backend worker count).
    max_inflight: int | None = None
    #: Host execution backend selection (`repro.parallel.pool`).
    backend: str | None = None
    workers: int | None = None
    #: Reissue policy for crashed/failed executions.
    retry: RetryPolicy = field(default_factory=lambda: DEFAULT_RETRY)
    #: Wall seconds per modelled backoff cycle (the service waits for
    #: real time, not simulated time; 1 µs/cycle puts the default
    #: policy's first backoff at 2 ms).
    backoff_cycle_s: float = 1e-6
    #: Durable layer root (DESIGN.md §12).  None = in-memory only; set
    #: to enable the job journal + result store and crash-safe restart.
    journal_dir: str | None = None
    #: Result-store bound (LRU-evicted fingerprint→result entries).
    result_store_max: int = 512
    #: Journal records per segment before atomic rotation.
    journal_segment_records: int = 1024
    #: fsync after every journal record (power-loss strictness; the
    #: default flush-per-record already survives ``kill -9``).
    journal_fsync: bool = False
    #: Resident-state layer (DESIGN.md §14): workers keep warm systems
    #: across batches and the service routes batches to the lane that
    #: already holds them.  False = cold-dispatch ablation baseline.
    resident: bool = True
    #: Warm systems kept per worker process (LRU beyond this).
    resident_capacity: int = DEFAULT_RESIDENT_CAPACITY

    def __post_init__(self) -> None:
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1 when set: {self.max_inflight}"
            )
        if self.backoff_cycle_s < 0:
            raise ValueError(
                f"backoff_cycle_s must be >= 0: {self.backoff_cycle_s}"
            )
        if self.result_store_max < 1:
            raise ValueError(
                f"result_store_max must be >= 1: {self.result_store_max}"
            )
        if self.journal_segment_records < 1:
            raise ValueError(
                "journal_segment_records must be >= 1: "
                f"{self.journal_segment_records}"
            )
        if self.resident_capacity < 1:
            raise ValueError(
                f"resident_capacity must be >= 1: {self.resident_capacity}"
            )


@dataclass
class ServiceStats:
    """Service-lifetime counters (wire-exported by the ``stats`` op)."""

    accepted: int = 0
    rejected: int = 0
    rejected_by_reason: dict = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    failed_by_reason: dict = field(default_factory=dict)
    batches: int = 0
    executed_units: int = 0
    dedup_hits: int = 0
    retries: int = 0
    #: Worker-side StepCache sharing across batched units.
    sr_evals: int = 0
    sr_hits: int = 0
    #: Resident-state layer (DESIGN.md §14): warm-system reuse across
    #: batches, summed from per-batch worker deltas (fleet-mergeable).
    resident_hits: int = 0
    resident_misses: int = 0
    resident_builds: int = 0
    resident_evictions: int = 0
    resident_invalidations: int = 0
    warmups: int = 0
    #: Durable layer: jobs replayed from the journal at restart, and
    #: submissions answered from the cross-restart result store.
    journal_replays: int = 0
    store_hits: int = 0
    drained: bool = False

    def record_failure(self, code: str, n: int = 1) -> None:
        self.failed += n
        self.failed_by_reason[code] = self.failed_by_reason.get(code, 0) + n

    def as_dict(self) -> dict:
        return asdict(self)


class SimulationService:
    """Queue → batcher → scheduler → pool, as one asyncio object.

    Use as an async context manager (starts/drains the scheduler), or
    call :meth:`start` / :meth:`drain` explicitly::

        async with SimulationService(ServeConfig(max_depth=8)) as svc:
            result = await svc.submit_and_wait(JobRequest(n_particles=300))
    """

    def __init__(
        self,
        config: ServeConfig | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        self.config = config or ServeConfig()
        self.tracer = tracer
        self.queue = JobQueue(
            max_depth=self.config.max_depth,
            max_per_tenant=self.config.max_per_tenant,
        )
        self.batcher = Batcher(
            max_batch=self.config.max_batch, dedup=self.config.dedup
        )
        self.scheduler = FairShareScheduler()
        self.stats = ServiceStats()
        self.backend = None
        self.paused = False
        self._job_ids = iter(range(1, 1 << 62))
        #: Pending accepted jobs by id (for the ``wait`` op).
        self._jobs: dict[int, Job] = {}
        #: Terminal results by id (kept for the service lifetime; the
        #: queue bound keeps admission — and thus this dict — finite per
        #: drain cycle, and a drained service is done).
        self._results: dict[int, JobResult] = {}
        #: fingerprint -> jobs waiting on an *executing* unit (late
        #: arrivals join in-flight work instead of re-queueing it).
        self._inflight: dict[str, list[Job]] = {}
        self._cond: asyncio.Condition | None = None
        self._sem: asyncio.Semaphore | None = None
        self._scheduler_task: asyncio.Task | None = None
        self._batch_tasks: set[asyncio.Task] = set()
        self._servers: list[asyncio.AbstractServer] = []
        self._drained_event: asyncio.Event | None = None
        self._t0 = 0.0
        # Durable layer (None unless journal_dir is configured).
        self.slo = SloTracker()
        self.journal: JobJournal | None = None
        self.store: ResultStore | None = None
        self.recovery: JournalRecovery | None = None
        #: fingerprint -> progress file of the executing MD unit.
        self._progress_paths: dict[str, str] = {}
        self._progress_dir: str | None = None
        self._progress_tmp: str | None = None
        # Resident-state layer (DESIGN.md §14).
        #: lane -> latest worker-reported resident snapshot.
        self._lane_resident: dict[int, dict] = {}
        #: Service-owned cache for the serial (inline) execution path.
        self._serial_resident: ResidentCache | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "SimulationService":
        loop = asyncio.get_running_loop()
        self._t0 = loop.time()
        self.backend = shared_backend(self.config.backend, self.config.workers)
        inflight = self.config.max_inflight
        if inflight is None:
            inflight = max(int(getattr(self.backend, "n_workers", 1)), 1)
        self._cond = asyncio.Condition()
        self._sem = asyncio.Semaphore(inflight)
        self._drained_event = asyncio.Event()
        self._open_durable()
        if self.recovery is not None:
            self._replay_pending(self.recovery)
        self._scheduler_task = asyncio.create_task(self._scheduler_loop())
        return self

    def _open_durable(self) -> None:
        """Open (or create) the journal + result store and recover the
        previous incarnation's state; set up the progress directory."""
        if self.config.journal_dir is None:
            # Progress streaming works without durability; publish into
            # a service-owned tempdir removed at drain.
            self._progress_tmp = tempfile.mkdtemp(prefix="repro-progress-")
            self._progress_dir = self._progress_tmp
            return
        root = Path(self.config.journal_dir)
        self.journal = JobJournal(
            root / "journal",
            segment_records=self.config.journal_segment_records,
            fsync_each=self.config.journal_fsync,
        )
        self.store = ResultStore(
            root / "results", max_entries=self.config.result_store_max
        )
        progress = root / "progress"
        progress.mkdir(parents=True, exist_ok=True)
        self._progress_dir = str(progress)
        self.recovery = self.journal.recover()
        # New job ids start above everything the journal has seen, so a
        # client's pre-crash job id stays valid for ``wait``/``progress``.
        self._job_ids = iter(range(self.recovery.max_jid + 1, 1 << 62))

    def _replay_pending(self, recovery: JournalRecovery) -> None:
        """Re-enqueue every accepted-but-unresolved journaled job.

        Jobs are pure functions of their fingerprinted request, so
        re-execution is bit-identical to the run the crash interrupted.
        Replayed jobs keep their original ids, bypass admission capacity
        (they were admitted once already), and answer from the result
        store when an identical fingerprint completed before the crash.
        """
        loop = asyncio.get_running_loop()
        for pending in recovery.pending:
            try:
                request = JobRequest.from_dict(pending.request)
                request.validate()
            except (InvalidRequestError, TypeError, KeyError) as exc:
                # A journaled request that no longer parses cannot be
                # completed; resolve it as failed instead of looping.
                self.journal.failed(
                    pending.jid,
                    pending.fingerprint,
                    REASON_INVALID,
                    f"unreplayable journal record: {exc}",
                )
                continue
            now = loop.time()
            job = Job(
                request=request,
                job_id=pending.jid,
                seq=self.queue.next_seq(),
                future=loop.create_future(),
                submitted_at=now,
                journaled=True,
                replayed=True,
            )
            self.stats.accepted += 1
            self.stats.journal_replays += 1
            self._jobs[job.job_id] = job
            self.slo.observe_submitted(request.tenant)
            if self.tracer.enabled:
                self.tracer.instant(
                    "journal_replay", CAT_DURABLE, SERVE_TRACK,
                    job_id=job.job_id, tenant=request.tenant,
                    fingerprint=request.fingerprint[:8],
                )
            record = (
                self.store.get(request.fingerprint)
                if self.store is not None
                else None
            )
            if record is not None:
                # The same work completed (under another job id) before
                # the crash: answer from the store, bit-identically.
                self.stats.store_hits += 1
                self._finish(job, self._store_result(job, record))
                self.stats.completed += 1
                continue
            self.queue.push(job)

    async def __aenter__(self) -> "SimulationService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def _notify(self) -> None:
        async with self._cond:
            self._cond.notify_all()

    async def pause(self) -> None:
        """Stop dispatching (admission continues; queue fills)."""
        self.paused = True

    async def resume(self) -> None:
        self.paused = False
        await self._notify()

    async def drain(self) -> ServiceStats:
        """Graceful shutdown: refuse new work, finish all accepted work,
        release the pool backend.  Idempotent."""
        if self._drained_event is None:
            raise RuntimeError("service was never started")
        self.queue.draining = True
        self.paused = False  # a paused service still drains
        await self._notify()
        if self._scheduler_task is not None:
            await self._scheduler_task
            self._scheduler_task = None
        while self._batch_tasks:
            await asyncio.gather(*tuple(self._batch_tasks))
        # close() stops accepting; in-flight connections (including the
        # one that requested this drain) finish on their own transports —
        # wait_closed() here would deadlock the drain op's own handler.
        for server in self._servers:
            server.close()
        self._servers.clear()
        close_shared_backend()
        self.backend = None
        if self._serial_resident is not None:
            self._serial_resident.invalidate()
            self._serial_resident = None
        # Durable epilogue: every accepted job has resolved, so the
        # journal can seal its open segment and the store fsync its
        # directory — a restart after a clean drain replays nothing.
        if self.journal is not None:
            self.journal.close()
        if self.store is not None:
            self.store.sync()
        if self._progress_tmp is not None:
            shutil.rmtree(self._progress_tmp, ignore_errors=True)
            self._progress_tmp = None
        self.stats.drained = True
        self._drained_event.set()
        return self.stats

    async def run_until_drained(self) -> ServiceStats:
        """Block until some client (or signal handler) triggers drain."""
        await self._drained_event.wait()
        return self.stats

    # ------------------------------------------------------------------
    # in-process API
    # ------------------------------------------------------------------
    async def submit(self, request: JobRequest) -> Job:
        """Admit one request; returns the accepted :class:`Job` (await
        ``job.future`` for its :class:`JobResult`) or raises
        :class:`AdmissionRejected` with the structured reason."""
        loop = asyncio.get_running_loop()
        hit = self._try_store_hit(request, loop)
        if hit is not None:
            return hit
        decision = self.queue.admit(request)
        if not decision.accepted:
            self.stats.rejected += 1
            code = decision.error.code
            self.stats.rejected_by_reason[code] = (
                self.stats.rejected_by_reason.get(code, 0) + 1
            )
            self.slo.observe_rejected(request.tenant, code)
            if self.tracer.enabled:
                self.tracer.instant(
                    f"reject:{code}", CAT_SERVE, SERVE_TRACK,
                    tenant=request.tenant,
                )
            raise AdmissionRejected(decision.error)
        now = loop.time()
        job = Job(
            request=request,
            job_id=next(self._job_ids),
            seq=self.queue.next_seq(),
            future=loop.create_future(),
            submitted_at=now,
            deadline=(
                now + request.timeout_s
                if request.timeout_s is not None
                else None
            ),
        )
        self.stats.accepted += 1
        self._jobs[job.job_id] = job
        self.slo.observe_submitted(request.tenant)
        if self.journal is not None:
            # Journal before acknowledging: once the caller holds the
            # Job, a crash must not lose it.
            self.journal.accepted(
                job.job_id, request.fingerprint, request.tenant,
                request.to_dict(),
            )
            job.journaled = True
        fp = request.fingerprint
        if self.config.dedup and fp in self._inflight:
            # Identical work is already executing: join it instead of
            # queueing a second execution.
            self._inflight[fp].append(job)
            self.stats.dedup_hits += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "dedup_join", CAT_SERVE, SERVE_TRACK,
                    job_id=job.job_id, fingerprint=fp[:8],
                )
            return job
        self.queue.push(job)
        await self._notify()
        return job

    async def submit_and_wait(self, request: JobRequest) -> JobResult:
        job = await self.submit(request)
        return await job.future

    async def warmup(self, request: JobRequest) -> dict:
        """Pre-build residency for ``request``'s system (the ``warmup``
        wire op): after this, the first job of a burst is a warm hit
        instead of paying the 5-7x cold build.  Returns the worker's
        report (``resident``/``built``/``occupancy``/``lane``)."""
        request.validate()
        if not self.config.resident:
            return {"resident": False, "reason": "residency disabled"}
        if self.queue.draining:
            return {"resident": False, "reason": "service is draining"}
        info = await asyncio.to_thread(self._warmup_blocking, request)
        self.stats.warmups += 1
        return info

    def _warmup_blocking(self, request: JobRequest) -> dict:
        backend = self.backend
        if backend is None or not getattr(backend, "parallel", False):
            info = warmup_with(self._serial_cache(), request)
            info["lane"] = 0
            return info
        lane = lane_for_system(request.system_key, backend.lane_count)
        task = WarmupTask(
            request=request, capacity=self.config.resident_capacity
        )
        info = backend.run_on(lane, warmup_job, task)
        info["lane"] = lane
        if info.get("resident"):
            self._lane_resident[lane] = {
                "occupancy": info.get("occupancy"),
                "capacity": info.get("capacity"),
            }
        return info

    def resident_summary(self) -> dict:
        """Occupancy/hit-rate snapshot for the ``stats`` op."""
        s = self.stats
        lookups = s.resident_hits + s.resident_misses
        lanes = {
            str(lane): dict(info)
            for lane, info in sorted(self._lane_resident.items())
        }
        if self._serial_resident is not None:
            lanes["serial"] = {
                "occupancy": len(self._serial_resident),
                "capacity": self._serial_resident.capacity,
            }
        return {
            "enabled": self.config.resident,
            "capacity": self.config.resident_capacity,
            "hits": s.resident_hits,
            "misses": s.resident_misses,
            "hit_rate": (s.resident_hits / lookups) if lookups else 0.0,
            "builds": s.resident_builds,
            "evictions": s.resident_evictions,
            "invalidations": s.resident_invalidations,
            "warmups": s.warmups,
            "occupancy": sum(
                int(info.get("occupancy") or 0) for info in lanes.values()
            ),
            "lanes": lanes,
        }

    def _try_store_hit(self, request: JobRequest, loop) -> Job | None:
        """Answer a submission from the durable result store, if it holds
        this fingerprint (serve-level memoization above ``StepCache``).

        Ordered after validity/drain checks but *before* capacity: a
        duplicate of completed work never costs queue space and never
        sees ``queue_full``.  Returns an already-resolved Job carrying
        the structured ``duplicate_completed`` result code, or None.
        """
        if self.store is None or self.queue.draining:
            return None
        try:
            request.validate()
        except InvalidRequestError:
            return None  # let queue.admit produce the structured reject
        record = self.store.get(request.fingerprint)
        if record is None:
            return None
        job = Job(
            request=request,
            job_id=next(self._job_ids),
            seq=self.queue.next_seq(),
            future=loop.create_future(),
            submitted_at=loop.time(),
        )
        self.stats.accepted += 1
        self.stats.store_hits += 1
        self._jobs[job.job_id] = job
        self.slo.observe_submitted(request.tenant)
        if self.tracer.enabled:
            self.tracer.instant(
                "store_hit", CAT_DURABLE, SERVE_TRACK,
                job_id=job.job_id, tenant=request.tenant,
                fingerprint=request.fingerprint[:8],
            )
        self._finish(job, self._store_result(job, record))
        self.stats.completed += 1
        return job

    def _store_result(self, job: Job, record: dict) -> JobResult:
        """A JobResult served from the durable store (not executed)."""
        return JobResult(
            job_id=job.job_id,
            fingerprint=job.request.fingerprint,
            kind=record.get("kind", job.request.kind),
            ok=True,
            payload=record["payload"],
            executed=False,
            attempts=0,
            result_code=CODE_DUPLICATE_COMPLETED,
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _dispatchable(self) -> bool:
        return bool(len(self.queue)) and not self.paused

    def _drain_complete(self) -> bool:
        return self.queue.draining and not len(self.queue)

    async def _scheduler_loop(self) -> None:
        while True:
            async with self._cond:
                await self._cond.wait_for(
                    lambda: self._dispatchable() or self._drain_complete()
                )
            if not self._dispatchable():
                if self._drain_complete():
                    return
                continue
            tenant = self.scheduler.pick(self.queue.tenants())
            seed = self.queue.pop(tenant)
            batch = self.batcher.collect(seed, self.queue)
            self.scheduler.charge(batch.tenant_shares())
            self.stats.batches += 1
            self.stats.dedup_hits += batch.dedup_hits
            await self._sem.acquire()
            task = asyncio.create_task(self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    def _execute_blocking(
        self,
        units: tuple[JobRequest, ...],
        progress_paths: dict[str, str] | None = None,
    ) -> BatchOutcome:
        """One batch on one worker (or inline under the serial backend).

        With residency on, the batch is routed to the *lane* owning its
        system key (`lane_for_system` — every unit in a batch shares one
        key by `Batcher` construction), so consecutive batches for one
        system land in the process already holding it warm.
        """
        backend = self.backend
        if backend is None or not getattr(backend, "parallel", False):
            if self.config.resident:
                return execute_batch_with(
                    self._serial_cache(), units, progress_paths
                )
            return execute_batch(units, progress_paths=progress_paths)
        if not self.config.resident:
            # backend.map passes exactly one pickled argument per item,
            # so units and progress paths ride together as a task tuple.
            return backend.map(execute_batch_task, [(units, progress_paths)])[0]
        lane = lane_for_system(units[0].system_key, backend.lane_count)
        task = ResidentBatchTask(
            requests=tuple(units),
            progress_paths=progress_paths,
            capacity=self.config.resident_capacity,
        )
        outcome = backend.run_on(lane, execute_batch_resident, task)
        if outcome.resident:
            self._lane_resident[lane] = dict(outcome.resident)
        return outcome

    def _serial_cache(self) -> ResidentCache:
        """The serial path's resident cache (service-owned, not process-
        global: two services in one process must not share residency)."""
        if self._serial_resident is None:
            self._serial_resident = ResidentCache(
                self.config.resident_capacity
            )
        return self._serial_resident

    def _progress_files(
        self, units: tuple[JobRequest, ...]
    ) -> dict[str, str]:
        """Register a progress-publish file per MD unit in this batch."""
        paths: dict[str, str] = {}
        if self._progress_dir is None:
            return paths
        for unit in units:
            if unit.kind == KIND_MD:
                path = os.path.join(
                    self._progress_dir, f"{unit.fingerprint}.progress"
                )
                paths[unit.fingerprint] = path
                self._progress_paths[unit.fingerprint] = path
        return paths

    def _release_progress_files(self, paths: dict[str, str]) -> None:
        for fp, path in paths.items():
            self._progress_paths.pop(fp, None)
            try:
                os.unlink(path)
            except OSError:
                pass

    def _fail_jobs(self, jobs: list[Job], error: JobError) -> None:
        loop = asyncio.get_running_loop()
        for job in jobs:
            result = JobResult(
                job_id=job.job_id,
                fingerprint=job.request.fingerprint,
                kind=job.request.kind,
                ok=False,
                error=error,
                executed=False,
                attempts=job.attempts,
                queue_seconds=max(
                    (job.dispatched_at or loop.time()) - job.submitted_at, 0.0
                ),
            )
            self._finish(job, result)
        self.stats.record_failure(error.code, len(jobs))

    def _finish(self, job: Job, result: JobResult) -> None:
        self._results[job.job_id] = result
        self._jobs.pop(job.job_id, None)
        if self.journal is not None and job.journaled:
            if result.ok:
                self.journal.completed(
                    job.job_id, result.fingerprint, code=result.result_code
                )
            else:
                self.journal.failed(
                    job.job_id, result.fingerprint,
                    result.error.code, result.error.message,
                )
        if (
            self.store is not None
            and result.ok
            and result.executed
            and result.payload is not None
        ):
            self.store.put(
                result.fingerprint,
                {
                    "kind": result.kind,
                    "payload": json_safe_payload(result.payload),
                },
            )
        self.slo.observe_result(
            job.request.tenant,
            result.ok,
            result.queue_seconds,
            result.execute_seconds,
            attempts=result.attempts,
            replayed=job.replayed,
            store_hit=result.result_code == CODE_DUPLICATE_COMPLETED,
        )
        if job.future is not None and not job.future.done():
            job.future.set_result(result)

    async def _run_batch(self, batch: Batch) -> None:
        loop = asyncio.get_running_loop()
        try:
            now = loop.time()
            for job in batch.jobs:
                job.dispatched_at = now

            # Deadline admission at dispatch: jobs already out of time
            # fail fast (and drop units nobody is waiting on anymore).
            live_waiters: dict[str, list[Job]] = {}
            expired: list[Job] = []
            for fp, jobs in batch.waiters.items():
                alive = []
                for job in jobs:
                    if job.deadline is not None and job.deadline <= now:
                        expired.append(job)
                    else:
                        alive.append(job)
                if alive:
                    live_waiters[fp] = alive
            if expired:
                self._fail_jobs(
                    expired,
                    JobError(
                        REASON_DEADLINE,
                        "deadline expired before the job was dispatched",
                    ),
                )
            units = tuple(
                u for u in batch.units if u.fingerprint in live_waiters
            )
            if not units:
                return
            for fp in live_waiters:
                self._inflight.setdefault(fp, [])

            deadlines = [
                j.deadline for js in live_waiters.values() for j in js
            ]
            timeout = (
                max(d - now for d in deadlines)
                if all(d is not None for d in deadlines) and deadlines
                else None
            )

            progress_paths = self._progress_files(units)
            outcome: BatchOutcome | None = None
            error: JobError | None = None
            attempts = 0
            policy = self.config.retry
            while outcome is None and error is None:
                attempts += 1
                for job in batch.jobs:
                    job.attempts = attempts
                try:
                    call = asyncio.to_thread(
                        self._execute_blocking, units, progress_paths
                    )
                    outcome = await (
                        asyncio.wait_for(call, timeout)
                        if timeout is not None
                        else call
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    # Out of time: a retry could not finish any sooner.
                    error = JobError(
                        REASON_TIMEOUT,
                        f"execution exceeded the {timeout:.3f}s deadline "
                        f"window after {attempts} attempt(s)",
                    )
                except WorkerCrashError as exc:
                    # The transient failure class: reissue with backoff,
                    # like a failed DMA transaction (DESIGN.md §7).
                    if attempts >= policy.max_attempts:
                        error = JobError(
                            REASON_EXECUTION,
                            f"{type(exc).__name__}: {exc} "
                            f"(after {attempts} attempt(s))",
                        )
                    else:
                        self.stats.retries += 1
                        await asyncio.sleep(
                            policy.backoff_seconds(
                                attempts, self.config.backoff_cycle_s
                            )
                        )
                except Exception as exc:
                    # Deterministic task errors would fail identically on
                    # every reissue — fail fast with the real cause.
                    error = JobError(
                        REASON_EXECUTION, f"{type(exc).__name__}: {exc}"
                    )

            done = loop.time()
            self._release_progress_files(progress_paths)
            self.stats.executed_units += len(units) if outcome else 0
            if outcome is not None:
                for key, val in outcome.cache_stats.items():
                    setattr(
                        self.stats, key, getattr(self.stats, key, 0) + val
                    )

            for i, unit in enumerate(units):
                fp = unit.fingerprint
                # Late joiners landed in _inflight while we executed.
                waiters = live_waiters.get(fp, []) + self._inflight.pop(fp, [])
                if error is not None:
                    self._fail_jobs(waiters, error)
                    continue
                payload = outcome.payloads[i]
                for k, job in enumerate(waiters):
                    result = JobResult(
                        job_id=job.job_id,
                        fingerprint=fp,
                        kind=unit.kind,
                        ok=True,
                        payload=payload,
                        executed=(k == 0),
                        attempts=attempts if k == 0 else 0,
                        queue_seconds=max(
                            job.dispatched_at - job.submitted_at, 0.0
                        ),
                        execute_seconds=done - now,
                    )
                    self._finish(job, result)
                    self.stats.completed += 1
                    if self.tracer.enabled:
                        t0 = self._t0
                        self.tracer.span_seconds(
                            f"queue:{job.job_id}", CAT_SERVE, SERVE_TRACK,
                            job.submitted_at - t0,
                            job.dispatched_at - job.submitted_at,
                            tenant=job.request.tenant,
                        )
                        self.tracer.span_seconds(
                            f"exec:{job.job_id}", CAT_SERVE, SERVE_TRACK,
                            now - t0, done - now,
                            fingerprint=fp[:8], executed=(k == 0),
                            batch_units=len(units),
                        )
        finally:
            self._sem.release()
            await self._notify()

    # ------------------------------------------------------------------
    # wire protocol (JSON lines, one request per connection)
    # ------------------------------------------------------------------
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

    async def _handle_connection(self, reader, writer) -> None:
        try:
            line = await reader.readline()
            if not line:
                return
            try:
                msg = json.loads(line)
                if isinstance(msg, dict) and msg.get("op") == "progress":
                    # The one streaming op: multiple JSON lines on a
                    # single connection, terminated by the final result.
                    await self._stream_progress(msg, writer)
                    return
                response = await self._dispatch_op(msg)
            except AdmissionRejected as exc:
                response = {"ok": False, "error": exc.error.to_dict()}
            except Exception as exc:  # malformed input must not kill the loop
                response = {
                    "ok": False,
                    "error": {
                        "code": "bad_request",
                        "message": f"{type(exc).__name__}: {exc}",
                    },
                }
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _stream_progress(self, msg: dict, writer) -> None:
        """Stream ``{"done": false, "progress": ...}`` lines for one job
        until it resolves, then the final ``{"done": true, "result": ...}``
        line.  Long MD jobs report partial step counts published by the
        engine's step loop (`repro.durable.progress`)."""
        try:
            job_id = int(msg["job_id"])
        except (KeyError, TypeError, ValueError):
            writer.write(
                json.dumps(
                    {
                        "ok": False,
                        "error": {
                            "code": "bad_request",
                            "message": "progress op requires a job_id",
                        },
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            return
        interval = max(float(msg.get("interval_s", 0.05)), 0.01)
        try:
            while True:
                if job_id in self._results:
                    result = self._results[job_id]
                    writer.write(
                        json.dumps(
                            {"ok": True, "done": True,
                             "result": result.to_dict()}
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    return
                job = self._jobs.get(job_id)
                if job is None:
                    writer.write(
                        json.dumps(
                            {
                                "ok": False,
                                "error": {
                                    "code": "unknown_job",
                                    "message": f"no job with id {job_id}",
                                },
                            }
                        ).encode()
                        + b"\n"
                    )
                    await writer.drain()
                    return
                writer.write(
                    json.dumps(
                        {"ok": True, "done": False,
                         "progress": self._progress_snapshot(job)}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                try:
                    # Wake early when the job resolves (shield: the
                    # timeout must not cancel the job's own future).
                    await asyncio.wait_for(
                        asyncio.shield(job.future), timeout=interval
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    pass
        except (ConnectionError, OSError):
            return  # client went away mid-stream

    def _progress_snapshot(self, job: Job) -> dict:
        snap = {
            "job_id": job.job_id,
            "kind": job.request.kind,
            "state": "executing" if job.dispatched_at else "queued",
            "attempts": job.attempts,
        }
        path = self._progress_paths.get(job.request.fingerprint)
        if path is not None:
            data = read_progress(path)
            if data is not None:
                snap["steps_done"] = data.get("steps_done")
                snap["steps_total"] = data.get("steps_total")
        return snap

    async def _dispatch_op(self, msg: dict) -> dict:
        op = msg.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}
        if op == "stats":
            loop = asyncio.get_running_loop()
            response = {
                "ok": True,
                "stats": self.stats.as_dict(),
                "queue_depth": len(self.queue),
                "tenants": self.scheduler.as_dict(),
                "tenant_queues": self.queue.tenant_queues(loop.time()),
                "resident": self.resident_summary(),
            }
            if self.journal is not None:
                response["durable"] = {
                    "journal_replays": self.stats.journal_replays,
                    "journal_records": self.journal.appended,
                    "journal_corrupt_records": (
                        self.recovery.corrupt_records
                        if self.recovery is not None
                        else 0
                    ),
                    "store": self.store.stats(),
                }
            return response
        if op == "metrics":
            loop = asyncio.get_running_loop()
            return {
                "ok": True,
                "metrics": self.slo.as_dict(
                    tenant_queues=self.queue.tenant_queues(loop.time())
                ),
            }
        if op == "pause":
            await self.pause()
            return {"ok": True, "paused": True}
        if op == "resume":
            await self.resume()
            return {"ok": True, "paused": False}
        if op == "drain":
            stats = await self.drain()
            return {"ok": True, "stats": stats.as_dict()}
        if op == "warmup":
            request = JobRequest.from_dict(msg.get("job") or {})
            info = await self.warmup(request)
            return {"ok": True, "warmup": info}
        if op == "submit":
            request = JobRequest.from_dict(msg.get("job") or {})
            job = await self.submit(request)
            if msg.get("wait", True):
                result = await job.future
                return {"ok": True, "result": result.to_dict()}
            return {"ok": True, "job_id": job.job_id}
        if op == "wait":
            job_id = int(msg["job_id"])
            if job_id in self._results:
                return {"ok": True, "result": self._results[job_id].to_dict()}
            job = self._jobs.get(job_id)
            if job is None:
                return {
                    "ok": False,
                    "error": {
                        "code": "unknown_job",
                        "message": f"no job with id {job_id}",
                    },
                }
            result = await job.future
            return {"ok": True, "result": result.to_dict()}
        return {
            "ok": False,
            "error": {"code": "unknown_op", "message": f"unknown op {op!r}"},
        }
