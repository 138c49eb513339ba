"""Host-parallel execution backend: real worker processes for simulated work.

The simulator models 64 CPEs, many ranks, and whole benchmark suites — yet
until this module everything executed serially in one CPython process.
GROMACS itself ships the same shape of work as multi-level parallelism
over real cores (Páll et al. 2015, 2020); this is the host-side analogue
for the reproduction (DESIGN.md §9).

Two interchangeable backends behind one tiny interface:

* :class:`SerialBackend` — in-process, zero dependencies, the default.
  ``map`` is a plain ordered loop.
* :class:`PoolBackend` — a ``concurrent.futures.ProcessPoolExecutor``
  over ``n_workers`` real processes.  Large read-only numpy arrays
  (positions, charges, LJ tables) travel once through POSIX shared
  memory (:func:`shared_inputs`, :class:`SharedArray`); per-task
  payloads (pair-list slices, partition bounds) and results are
  pickled per task.

Two IPC refinements ride on the pool backend (DESIGN.md §14):

* :meth:`PoolBackend.map_batched` coalesces many small tasks into one
  pickled submission per worker, cutting per-task executor and pickle
  overhead for wide fans (fidelity partitions);
* **affinity lanes** — :meth:`PoolBackend.run_on` dispatches one task to
  a *specific* long-lived worker process (a "lane": a dedicated
  single-process executor), which is what lets worker-resident state
  (`repro.serve.residency`) actually get hit: the serving layer hashes a
  system key to a lane and always lands work for that system on the
  process that already holds it.

Determinism contract (test-enforced in ``tests/parallel/test_pool.py``):
``map``/``map_batched`` return results in task-submission order on both
backends, and every job function in this repo is a pure function of its
arguments — so forces, energies, cache counters, trace-event multisets,
and fault replays are *bit-identical* between ``serial`` and ``pool``.

Backend selection: explicit argument > ``REPRO_BACKEND`` env var >
``"serial"``; worker count: explicit > ``REPRO_WORKERS`` env var > host
CPU count.  A worker process that dies mid-task surfaces as
:class:`WorkerCrashError` instead of a hang; a crashed *lane* is
discarded and lazily respawned (its resident state dies with it).

Every shared-memory segment created by this process is tracked in a
registry and unlinked by an ``atexit`` audit, so a ``WorkerCrashError``
that aborts a caller mid-``map`` cannot strand segments in ``/dev/shm``
past process exit.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import uuid
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

#: Environment variables the CLI / CI use to select the backend globally.
BACKEND_ENV = "REPRO_BACKEND"
WORKERS_ENV = "REPRO_WORKERS"

BACKEND_NAMES = ("serial", "pool")


class WorkerCrashError(RuntimeError):
    """A pool worker died (signal, os._exit, OOM kill) mid-task.

    Raised instead of hanging or surfacing the cryptic
    ``BrokenProcessPool`` so callers can tell a crashed *worker* apart
    from a bug in the task function (which propagates as itself).
    """


def host_cpu_count() -> int:
    """Usable CPUs for worker processes (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Shared-memory arrays
# ---------------------------------------------------------------------------

#: Per-process cache of attached segments: name -> (SharedMemory, ndarray).
#: Workers attach once per segment and keep the mapping for the process
#: lifetime (closing the segment would invalidate live views).
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}

#: Names of segments *created* (owned) by this process and not yet
#: unlinked.  The atexit audit below unlinks whatever is left, so a
#: caller aborted mid-``map`` by a WorkerCrashError cannot strand
#: ``/dev/shm`` segments past process exit.
_CREATED: set[str] = set()
_AUDIT_REGISTERED = False


def live_created_segments() -> tuple[str, ...]:
    """Names of shared segments this process owns and has not unlinked
    (regression hook for the crash-lifecycle tests)."""
    return tuple(sorted(_CREATED))


def audit_shared_segments() -> int:
    """Unlink every segment this process still owns; returns the count.

    Runs automatically at interpreter exit; callable earlier by services
    that want a deterministic cleanup point after a crash recovery.
    """
    leaked = 0
    for name in sorted(_CREATED):
        SharedArray(name=name, shape=(0,), dtype="|u1").unlink()
        leaked += 1
    return leaked


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment without registering it with the resource
    tracker.

    Only the creating process owns unlink.  A pool worker forked after
    the creator's tracker started shares that tracker, so a worker-side
    register/unregister pair would drop the creator's registration and
    make its later ``unlink`` print a tracker ``KeyError`` traceback.
    Before Python 3.13 ``SharedMemory`` always registers, so the attach
    suppresses it; attaches run in single-threaded pool workers.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


@dataclass(frozen=True)
class SharedArray:
    """Picklable handle to a numpy array living in POSIX shared memory.

    The creating process calls :meth:`create` (copies the array in) and
    eventually :meth:`unlink`; any process — including the creator —
    reads it back with :meth:`array`, which returns a *read-only* view.
    Pickling moves only ``(name, shape, dtype)``, never the payload.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str

    @classmethod
    def create(cls, arr: np.ndarray) -> "SharedArray":
        global _AUDIT_REGISTERED
        arr = np.ascontiguousarray(arr)
        # Deterministic `repro-` prefix so a stranded segment is
        # attributable at a glance (and CI can grep /dev/shm for strays).
        name = f"repro-{os.getpid()}-{uuid.uuid4().hex[:12]}"
        shm = shared_memory.SharedMemory(
            create=True, name=name, size=max(arr.nbytes, 1)
        )
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        handle = cls(name=shm.name, shape=tuple(arr.shape), dtype=arr.dtype.str)
        # The creator keeps its mapping alive through the same cache the
        # workers use, so `.array()` works uniformly everywhere.
        _ATTACHED[shm.name] = (shm, view)
        _CREATED.add(shm.name)
        if not _AUDIT_REGISTERED:
            _AUDIT_REGISTERED = True
            atexit.register(audit_shared_segments)
        return handle

    def array(self) -> np.ndarray:
        entry = _ATTACHED.get(self.name)
        if entry is None:
            shm = _attach(self.name)
            view = np.ndarray(self.shape, dtype=np.dtype(self.dtype), buffer=shm.buf)
            _ATTACHED[self.name] = (shm, view)
            entry = _ATTACHED[self.name]
        out = entry[1]
        out = out.view()
        out.setflags(write=False)
        return out

    def unlink(self) -> None:
        """Free the segment (creator only; views in live workers survive
        on Linux until the last mapping closes)."""
        _CREATED.discard(self.name)
        entry = _ATTACHED.pop(self.name, None)
        if entry is not None:
            shm = entry[0]
        else:
            try:
                shm = shared_memory.SharedMemory(name=self.name)
            except FileNotFoundError:
                return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class SerialBackend:
    """In-process fallback: the behaviour every pool result is pinned to."""

    name = "serial"
    n_workers = 1

    @property
    def parallel(self) -> bool:
        return False

    @property
    def lane_count(self) -> int:
        return 1

    def map(self, fn, items) -> list:
        return [fn(item) for item in items]

    def map_batched(self, fn, items, chunks: int | None = None) -> list:
        """Serial: batching is a no-op (same ordered loop)."""
        return self.map(fn, items)

    def run_on(self, lane: int, fn, item):
        """One lane, inline execution (affinity is trivially perfect)."""
        if lane != 0:
            raise ValueError(f"serial backend has one lane, got {lane}")
        return fn(item)

    def close(self) -> None:
        pass

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return "SerialBackend()"


def _worker_init() -> None:
    """Executed in every pool worker at startup: force nested backend
    resolution to ``serial``.

    Jobs may run whole engines (multi-rank runs, benchmark fan-outs)
    whose internals resolve their own backend from the environment; in a
    worker that must come out serial, or every worker would spawn its
    own grand-child pool and oversubscribe the host.
    """
    os.environ[BACKEND_ENV] = "serial"


def _run_task_chunk(chunk: tuple) -> list:
    """One ``map_batched`` submission: ``(fn, items)`` executed as an
    ordered loop inside a single worker (pure; order-preserving)."""
    fn, items = chunk
    return [fn(item) for item in items]


class PoolBackend:
    """Process-pool backend over ``n_workers`` real host cores.

    The executor is created lazily on the first :meth:`map`, so merely
    configuring ``backend="pool"`` costs nothing until parallel work
    exists.
    """

    name = "pool"

    def __init__(self, n_workers: int | None = None) -> None:
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1: {n_workers}")
        self.n_workers = n_workers or max(host_cpu_count(), 2)
        self._executor: ProcessPoolExecutor | None = None
        #: Affinity lanes: dedicated single-process executors, created
        #: lazily per lane id (see run_on).  Service threads reach
        #: run_on concurrently, so lane creation and removal hold
        #: ``_lanes_lock``.
        self._lanes: dict[int, ProcessPoolExecutor] = {}
        self._lanes_lock = threading.Lock()

    @property
    def parallel(self) -> bool:
        return self.n_workers > 1

    @property
    def lane_count(self) -> int:
        """Addressable affinity lanes (== worker count)."""
        return self.n_workers

    def _mp_context(self):
        try:
            return get_context("fork")  # cheap on Linux; inherits pages
        except ValueError:
            return get_context()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=self._mp_context(),
                initializer=_worker_init,
            )
        return self._executor

    def map(self, fn, items) -> list:
        """Ordered parallel map.  Task exceptions propagate as themselves;
        a dead worker raises :class:`WorkerCrashError`."""
        items = list(items)
        if not items:
            return []
        executor = self._ensure_executor()
        try:
            return list(executor.map(fn, items))
        except BrokenProcessPool as exc:
            # The executor is unusable after a worker death; drop it so a
            # retry on this backend starts a fresh pool.
            self._executor = None
            raise WorkerCrashError(
                f"a {self.name} backend worker process died while running "
                f"{getattr(fn, '__name__', fn)!r} over {len(items)} task(s); "
                "the pool has been discarded (common causes: OOM kill, "
                "os._exit in task code, a native-extension crash)"
            ) from exc

    def map_batched(self, fn, items, chunks: int | None = None) -> list:
        """Ordered parallel map with *one submission per worker*.

        Items are split into ``chunks`` contiguous groups (default: one
        per worker) and each group travels as a single pickled task, so
        a 64-way fan costs ``n_workers`` executor round trips instead of
        64.  Results come back flattened in submission order — the same
        ordering (and therefore bit-identity) contract as :meth:`map`.
        """
        items = list(items)
        if not items:
            return []
        n = max(min(chunks or self.n_workers, len(items)), 1)
        bounds = [len(items) * k // n for k in range(n + 1)]
        payload = [
            (fn, items[bounds[k] : bounds[k + 1]]) for k in range(n)
        ]
        executor = self._ensure_executor()
        try:
            nested = list(executor.map(_run_task_chunk, payload))
        except BrokenProcessPool as exc:
            self._executor = None
            raise WorkerCrashError(
                f"a {self.name} backend worker process died while running "
                f"a batched submission of "
                f"{getattr(fn, '__name__', fn)!r} over {len(items)} "
                f"task(s) in {n} chunk(s); the pool has been discarded"
            ) from exc
        return [result for chunk in nested for result in chunk]

    # -- affinity lanes ----------------------------------------------------
    def _ensure_lane(self, lane: int) -> ProcessPoolExecutor:
        if not 0 <= lane < self.n_workers:
            raise ValueError(
                f"lane must be in 0..{self.n_workers - 1}: {lane}"
            )
        with self._lanes_lock:
            executor = self._lanes.get(lane)
            if executor is None:
                executor = ProcessPoolExecutor(
                    max_workers=1,
                    mp_context=self._mp_context(),
                    initializer=_worker_init,
                )
                self._lanes[lane] = executor
        return executor

    def run_on(self, lane: int, fn, item):
        """Run one task on a *specific* long-lived worker process.

        The lane's process persists across calls, so module-global state
        built by earlier tasks (resident simulations, warmed caches) is
        visible to later ones — the whole point of affinity dispatch.
        A lane is one process, so its tasks run one at a time; callers
        on several threads need no lock of their own.  A crashed lane
        raises :class:`WorkerCrashError` and is discarded; the next
        ``run_on`` respawns it fresh (resident state is gone, which
        callers observe as a cold rebuild, never a wrong answer).
        """
        executor = self._ensure_lane(lane)
        try:
            return executor.submit(fn, item).result()
        except BrokenProcessPool as exc:
            with self._lanes_lock:
                # Another thread may already have replaced the lane.
                if self._lanes.get(lane) is executor:
                    del self._lanes[lane]
            executor.shutdown(wait=True, cancel_futures=True)
            raise WorkerCrashError(
                f"affinity lane {lane} of the {self.name} backend died "
                f"while running {getattr(fn, '__name__', fn)!r}; the lane "
                "has been discarded and will respawn (cold) on next use"
            ) from exc

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        with self._lanes_lock:
            lanes = list(self._lanes.values())
            self._lanes.clear()
        for executor in lanes:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "PoolBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"PoolBackend(n_workers={self.n_workers})"


#: Union type for annotations.
ExecutionBackend = SerialBackend | PoolBackend


def as_input(shared) -> np.ndarray:
    """Resolve a task input that may be a :class:`SharedArray` handle or a
    plain array (what :func:`shared_inputs` yields under a serial
    backend)."""
    if isinstance(shared, SharedArray):
        return shared.array()
    return np.asarray(shared)


def _backend_choice(
    backend: str | None, workers: int | None
) -> tuple[str, int | None]:
    """``(name, workers)`` from explicit values, then the environment."""
    name = (backend or os.environ.get(BACKEND_ENV) or "serial").lower()
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env is not None:
            workers = int(env)
    return name, workers


def _make_backend(name: str, workers: int | None) -> ExecutionBackend:
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    if name == "serial":
        return SerialBackend()
    return PoolBackend(n_workers=workers)


def resolve_backend(
    backend: str | ExecutionBackend | None = None,
    workers: int | None = None,
) -> ExecutionBackend:
    """Build the execution backend from an explicit choice or environment.

    Precedence: explicit ``backend`` object/name > :data:`BACKEND_ENV`
    env var > ``"serial"``.  Worker count: explicit ``workers`` >
    :data:`WORKERS_ENV` > host CPU count.  ``REPRO_WORKERS`` > 1 alone
    does *not* switch the backend — selection stays explicit so the env
    var can pre-size pools without changing semantics.
    """
    if isinstance(backend, (SerialBackend, PoolBackend)):
        return backend
    return _make_backend(*_backend_choice(backend, workers))


#: Process-wide backend cache keyed by (name, workers) — see shared_backend().
_SHARED_BACKENDS: dict[tuple[str, int | None], ExecutionBackend] = {}


def close_shared_backend() -> None:
    """Explicitly close and forget every process-wide shared backend.

    ``shared_backend()`` instances are normally reaped at interpreter
    exit via ``atexit`` — fine for one-shot CLI runs, but a long-lived
    process (the ``repro serve`` service, a notebook, a test harness)
    that is done with parallel work should release the worker pool
    *now*, not at exit.  The service calls this from graceful drain.

    Safe at any time: components still holding a closed ``PoolBackend``
    reference lazily respawn its executor on the next ``map``, and the
    next ``shared_backend()`` call simply builds a fresh instance.
    Idempotent, so the ``atexit`` backstop is a no-op once the registry
    is empty.
    """
    for be in _SHARED_BACKENDS.values():
        be.close()
    _SHARED_BACKENDS.clear()


atexit.register(close_shared_backend)


def shared_backend(
    backend: str | ExecutionBackend | None = None,
    workers: int | None = None,
) -> ExecutionBackend:
    """Resolve like :func:`resolve_backend` but reuse one process-wide
    instance per (name, workers) pair.

    Long-lived components (engines, MD loops, CLI commands) that resolve
    their backend from config/env should use this instead of
    :func:`resolve_backend`, so a test suite constructing hundreds of
    engines under ``REPRO_BACKEND=pool`` shares one executor rather than
    leaking one worker pool per engine.  Shared backends are closed at
    interpreter exit; callers must NOT ``close()`` them.  An explicit
    backend *object* is passed through untouched (caller owns it).
    """
    if isinstance(backend, (SerialBackend, PoolBackend)):
        return backend
    key = _backend_choice(backend, workers)
    if key not in _SHARED_BACKENDS:
        _SHARED_BACKENDS[key] = _make_backend(*key)
    return _SHARED_BACKENDS[key]


@contextmanager
def shared_inputs(backend, **arrays):
    """Publish named read-only arrays for one ``backend.map`` phase.

    Yields ``{name: handle}`` where each handle is a :class:`SharedArray`
    under a parallel backend and the plain array itself otherwise (tasks
    resolve either with :func:`as_input`).  Segments created here are
    unlinked on exit, so call-sites own exactly the segments they made —
    safe even when several call-sites share one backend instance.
    """
    created: list[SharedArray] = []
    handles: dict[str, object] = {}
    try:
        for key, arr in arrays.items():
            if getattr(backend, "parallel", False):
                handle = SharedArray.create(arr)
                created.append(handle)
                handles[key] = handle
            else:
                handles[key] = np.asarray(arr)
        yield handles
    finally:
        for handle in created:
            handle.unlink()
