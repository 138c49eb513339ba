"""Host-parallel execution backend (DESIGN.md §9).

The load-bearing property is *bit-identity*: everything the simulator
computes — forces, energies, cache counters, trace-event streams, fault
replays — must be byte-for-byte the same whether the work ran in-process
(`SerialBackend`) or on real worker processes (`PoolBackend`).  These
tests pin that contract, plus backend selection precedence, shared-memory
round trips, and crashed-worker surfacing.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.kernels import (
    ALL_SPECS,
    run_kernel_sequential,
    run_strategy_sweep,
)
from repro.hw.params import DEFAULT_PARAMS
from repro.md.pairlist import build_pair_list
from repro.md.water import build_water_system
from repro.parallel.multirank import derive_rank_faults, run_mpi_ranks
from repro.parallel import pool as pool_mod
from repro.parallel.pool import (
    BACKEND_ENV,
    WORKERS_ENV,
    PoolBackend,
    SerialBackend,
    SharedArray,
    WorkerCrashError,
    as_input,
    close_shared_backend,
    host_cpu_count,
    resolve_backend,
    shared_backend,
)
from repro.trace.events import Tracer


# ---------------------------------------------------------------------------
# Fixtures: one small water box and one long-lived 2-worker pool.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def water_600():
    return build_water_system(600, seed=21)


@pytest.fixture(scope="module")
def nb_75():
    from repro.md.nonbonded import NonbondedParams

    return NonbondedParams(r_cut=0.75, r_list=0.85, coulomb_mode="rf")


@pytest.fixture(scope="module")
def plist_600(water_600, nb_75):
    return build_pair_list(water_600, nb_75.r_list)


@pytest.fixture(scope="module")
def pool2():
    with PoolBackend(2) as backend:
        yield backend


# ---------------------------------------------------------------------------
# Shared-memory arrays
# ---------------------------------------------------------------------------


class TestSharedArray:
    def test_roundtrip_and_readonly(self):
        src = np.arange(24, dtype=np.float64).reshape(6, 4)
        handle = SharedArray.create(src)
        try:
            out = handle.array()
            np.testing.assert_array_equal(out, src)
            assert not out.flags.writeable
            with pytest.raises(ValueError):
                out[0, 0] = -1.0
        finally:
            handle.unlink()

    def test_pickles_header_not_payload(self):
        import pickle

        src = np.zeros(1024, dtype=np.float64)
        handle = SharedArray.create(src)
        try:
            blob = pickle.dumps(handle)
            assert len(blob) < 512  # name + shape + dtype, never 8 KiB
            clone = pickle.loads(blob)
            np.testing.assert_array_equal(clone.array(), src)
        finally:
            handle.unlink()

    def test_unlink_twice_is_safe(self):
        handle = SharedArray.create(np.ones(3))
        handle.unlink()
        handle.unlink()

    def test_as_input_accepts_both(self):
        arr = np.arange(5.0)
        np.testing.assert_array_equal(as_input(arr), arr)
        handle = SharedArray.create(arr)
        try:
            np.testing.assert_array_equal(as_input(handle), arr)
        finally:
            handle.unlink()


# ---------------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------------


class TestBackendSelection:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(), SerialBackend)

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "pool")
        monkeypatch.setenv(WORKERS_ENV, "3")
        backend = resolve_backend()
        assert isinstance(backend, PoolBackend)
        assert backend.n_workers == 3

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "pool")
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_explicit_workers_beat_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_backend("pool", workers=2).n_workers == 2

    def test_workers_env_alone_stays_serial(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert isinstance(resolve_backend(), SerialBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("threads")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            PoolBackend(0)

    def test_object_passes_through(self, pool2):
        assert resolve_backend(pool2) is pool2
        assert shared_backend(pool2) is pool2

    def test_shared_backend_is_cached(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert shared_backend() is shared_backend()
        assert shared_backend("serial") is shared_backend("serial")

    def test_host_cpu_count_positive(self):
        assert host_cpu_count() >= 1


class TestCloseSharedBackend:
    """Explicit release of the process-wide backend registry (used by the
    serve layer's graceful drain instead of waiting for atexit)."""

    def test_close_empties_registry_and_respawns(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        first = shared_backend()
        assert pool_mod._SHARED_BACKENDS
        close_shared_backend()
        assert pool_mod._SHARED_BACKENDS == {}
        second = shared_backend()
        assert second is not first
        assert second.map(_square, [3]) == [9]
        close_shared_backend()

    def test_close_is_idempotent(self):
        close_shared_backend()
        close_shared_backend()
        assert pool_mod._SHARED_BACKENDS == {}

    def test_closed_pool_backend_recovers_lazily(self, monkeypatch):
        # A component still holding the closed instance keeps working:
        # the executor respawns on the next map().
        monkeypatch.setenv(BACKEND_ENV, "pool")
        monkeypatch.setenv(WORKERS_ENV, "2")
        backend = shared_backend()
        assert backend.map(_square, [2]) == [4]
        close_shared_backend()
        assert backend.map(_square, [5]) == [25]
        backend.close()


# ---------------------------------------------------------------------------
# map semantics
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _raise_value_error(x):
    raise ValueError(f"task {x} failed")


def _exit_hard(x):
    os._exit(17)


class TestMapSemantics:
    def test_serial_map_ordered(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_pool_map_ordered(self, pool2):
        assert pool2.map(_square, list(range(16))) == [
            x * x for x in range(16)
        ]

    def test_empty_map(self, pool2):
        assert pool2.map(_square, []) == []
        assert SerialBackend().map(_square, []) == []

    def test_task_exception_propagates_as_itself(self, pool2):
        with pytest.raises(ValueError, match="task 5 failed"):
            pool2.map(_raise_value_error, [5])

    def test_dead_worker_raises_worker_crash_error(self):
        # A private pool: the crash poisons the executor by design.
        with PoolBackend(2) as backend:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                backend.map(_exit_hard, [1, 2])
            # The poisoned executor was discarded; the backend recovers.
            assert backend.map(_square, [4]) == [16]


# ---------------------------------------------------------------------------
# Bit-identity: fidelity walk, sweep, multi-rank fault replay
# ---------------------------------------------------------------------------


def _events_key(tracer):
    return [
        (
            e.name,
            e.category,
            e.cpe_id,
            e.start_cycle,
            e.duration_cycles,
            tuple(sorted(e.args.items())),
        )
        for e in tracer.events
    ]


class TestSerialPoolBitIdentity:
    @pytest.mark.parametrize("name", ["CACHE", "MARK"])
    def test_fidelity_walk_identical(
        self, name, water_600, nb_75, plist_600, pool2
    ):
        spec = ALL_SPECS[name]
        trace_a = Tracer(DEFAULT_PARAMS)
        trace_b = Tracer(DEFAULT_PARAMS)
        serial = run_kernel_sequential(
            water_600, plist_600, nb_75, spec, n_cpes=8,
            tracer=trace_a, backend=SerialBackend(),
        )
        pooled = run_kernel_sequential(
            water_600, plist_600, nb_75, spec, n_cpes=8,
            tracer=trace_b, backend=pool2,
        )
        np.testing.assert_array_equal(serial.forces, pooled.forces)
        assert serial.energy == pooled.energy
        assert serial.stats == pooled.stats
        assert serial.elapsed_seconds == pooled.elapsed_seconds
        assert _events_key(trace_a) == _events_key(trace_b)

    def test_strategy_sweep_identical(self, water_600, nb_75, plist_600, pool2):
        # The sweep runs in-process on any backend; in a worker process
        # (as on a serve lane) it gives the parent's results.
        task = (water_600, plist_600, nb_75, ("CACHE", "VEC", "MARK"))
        serial = _sweep(task)
        (pooled,) = pool2.map(_sweep, [task])
        assert list(serial) == list(pooled)
        for label in serial:
            np.testing.assert_array_equal(
                serial[label].forces, pooled[label].forces
            )
            assert serial[label].energy == pooled[label].energy
            assert serial[label].elapsed_seconds == pooled[label].elapsed_seconds
            assert serial[label].stats == pooled[label].stats

    def test_pair_list_build_identical(self, water_600, nb_75, pool2):
        serial = build_pair_list(water_600, nb_75.r_list)
        plist_pool = build_pair_list(water_600, nb_75.r_list, backend=pool2)
        np.testing.assert_array_equal(serial.pair_ci, plist_pool.pair_ci)
        np.testing.assert_array_equal(serial.pair_cj, plist_pool.pair_cj)
        np.testing.assert_array_equal(serial.perm, plist_pool.perm)

    def test_exact_filter_chunks_identical(
        self, water_600, nb_75, pool2, monkeypatch
    ):
        # Lower the fan-out threshold below the candidate count so the
        # pool path (shared positions + per-worker jobs) actually runs.
        from repro.md import pairlist

        monkeypatch.setattr(pairlist, "EXACT_FILTER_FANOUT", 256)
        sorted_pos, ci, cj = _exact_filter_inputs(water_600, 1200)
        box = water_600.box
        serial = pairlist._exact_cluster_filter(
            sorted_pos, box, ci, cj, nb_75.r_list
        )
        pooled = pairlist._exact_cluster_filter(
            sorted_pos, box, ci, cj, nb_75.r_list, backend=pool2
        )
        # (keep, lane mask), each concatenated in candidate order.
        for want, got in zip(serial, pooled):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(want, got)

    def test_exact_filter_splits_by_worker_count(
        self, water_600, nb_75, monkeypatch
    ):
        # One contiguous, near-equal chunk per worker: the largest chunk
        # sets the time, so a fixed chunk size would leave a worker idle.
        from repro.md import pairlist

        monkeypatch.setattr(pairlist, "EXACT_FILTER_FANOUT", 256)
        sorted_pos, ci, cj = _exact_filter_inputs(water_600, 1001)
        backend = _RecordingBackend(3)
        pairlist._exact_cluster_filter(
            sorted_pos, water_600.box, ci, cj, nb_75.r_list, backend=backend
        )
        assert backend.chunk_sizes == [333, 334, 334]

    def test_multirank_fault_replay_identical(self, water_600, nb_75, pool2):
        from repro.core.engine import EngineConfig
        from repro.resilience import ResiliencePolicy

        config = EngineConfig(
            nonbonded=nb_75,
            optimization_level=3,
            n_cgs=2,
            resilience=ResiliencePolicy(faults="seed=11,dma=1e-3,msg=5e-3"),
        )
        serial = run_mpi_ranks(
            water_600, 3, config=config, n_ranks=2, backend=SerialBackend()
        )
        pooled = run_mpi_ranks(
            water_600, 3, config=config, n_ranks=2, backend=pool2
        )
        np.testing.assert_array_equal(
            serial.reduced_energy, pooled.reduced_energy
        )
        assert serial.comm_seconds == pooled.comm_seconds
        assert serial.modelled_seconds == pooled.modelled_seconds
        for a, b in zip(serial.ranks, pooled.ranks):
            assert a.rank == b.rank
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.velocities, b.velocities)
            assert a.fault_counts == b.fault_counts
            assert a.timing_seconds == b.timing_seconds

    def test_multirank_trace_merges_by_rank(self, water_600, nb_75, pool2):
        from repro.core.engine import EngineConfig

        config = EngineConfig(nonbonded=nb_75, optimization_level=3, n_cgs=2)
        trace_a = Tracer(config.chip)
        trace_b = Tracer(config.chip)
        run_mpi_ranks(
            water_600, 2, config=config, n_ranks=2,
            backend=SerialBackend(), tracer=trace_a,
        )
        run_mpi_ranks(
            water_600, 2, config=config, n_ranks=2,
            backend=pool2, tracer=trace_b,
        )
        assert len(trace_a.events) > 0
        assert _events_key(trace_a) == _events_key(trace_b)
        # Rank 1's CPE events landed on shifted tracks.
        cpe_tracks = {e.cpe_id for e in trace_a.events if e.cpe_id >= 0}
        assert any(t >= config.chip.n_cpes for t in cpe_tracks)


def _sweep(task):
    system, plist, nb, specs = task
    return run_strategy_sweep(system, plist, nb, list(specs))


def _exact_filter_inputs(system, n_candidates):
    """Sorted slot positions and random candidate cluster pairs."""
    from repro.md.pairlist import _cluster_particles

    box = system.box
    _, _, sorted_pos, _ = _cluster_particles(box.wrap(system.positions), box)
    n_clusters = len(sorted_pos) // 4
    rng = np.random.default_rng(3)
    ci = rng.integers(0, n_clusters, size=n_candidates)
    cj = rng.integers(0, n_clusters, size=n_candidates)
    return sorted_pos, ci, cj


class _RecordingBackend(SerialBackend):
    """A serial backend that claims ``n_workers`` and records how many
    candidates each submitted exact-filter task carries."""

    parallel = True

    def __init__(self, n_workers):
        self.n_workers = n_workers
        self.chunk_sizes = []

    def map(self, fn, items):
        items = list(items)
        self.chunk_sizes.extend(len(task.ci) for task in items)
        return super().map(fn, items)


class TestRankFaultDerivation:
    def test_none_stays_none(self):
        assert derive_rank_faults(None, 3) is None

    def test_ranks_get_distinct_streams(self):
        from repro.resilience.faults import FaultSpec

        base = FaultSpec(seed=5, dma_error_rate=1e-3)
        seeds = {derive_rank_faults(base, r).seed for r in range(8)}
        assert len(seeds) == 8
        assert all(s != 5 for s in seeds)
        assert derive_rank_faults(base, 2).dma_error_rate == 1e-3


# ---------------------------------------------------------------------------
# Batched IPC: map_batched coalesces small tasks, same results as map
# ---------------------------------------------------------------------------


def _pid(_):
    return os.getpid()


class TestMapBatched:
    def test_serial_matches_map(self):
        assert SerialBackend().map_batched(_square, [3, 1, 2]) == [9, 1, 4]

    def test_pool_ordered(self, pool2):
        items = list(range(33))
        assert pool2.map_batched(_square, items) == [x * x for x in items]

    def test_empty(self, pool2):
        assert pool2.map_batched(_square, []) == []

    def test_more_chunks_than_items(self, pool2):
        assert pool2.map_batched(_square, [1, 2], chunks=8) == [1, 4]

    def test_task_exception_propagates(self, pool2):
        with pytest.raises(ValueError, match="task 1 failed"):
            pool2.map_batched(_raise_value_error, [1, 5])

    def test_crash_raises_and_recovers(self):
        with PoolBackend(2) as backend:
            with pytest.raises(WorkerCrashError):
                backend.map_batched(_exit_hard, [1, 2, 3, 4])
            assert backend.map_batched(_square, [4]) == [16]

    def test_coalesces_submissions(self, pool2):
        # 32 items on 2 workers: at most 2 distinct worker pids, i.e.
        # one chunk per worker, not one submission per item.
        pids = set(pool2.map_batched(_pid, list(range(32))))
        assert len(pids) <= 2


# ---------------------------------------------------------------------------
# Affinity lanes: run_on pins work to one long-lived process
# ---------------------------------------------------------------------------


class TestAffinityLanes:
    def test_run_on_pins_process(self):
        with PoolBackend(2) as backend:
            assert backend.lane_count == 2
            first = {lane: backend.run_on(lane, _pid, None) for lane in (0, 1)}
            again = {lane: backend.run_on(lane, _pid, None) for lane in (0, 1)}
            assert first == again  # residency-capable: same pid per lane
            assert first[0] != first[1]  # lanes are distinct processes

    def test_lane_out_of_range(self, pool2):
        with pytest.raises(ValueError):
            pool2.run_on(99, _square, 2)

    def test_lane_crash_respawns_cold(self):
        with PoolBackend(2) as backend:
            before = backend.run_on(0, _pid, None)
            with pytest.raises(WorkerCrashError):
                backend.run_on(0, _exit_hard, None)
            after = backend.run_on(0, _pid, None)
            assert after != before  # fresh process: residency is gone

    def test_lane_crash_does_not_poison_other_lanes(self):
        with PoolBackend(2) as backend:
            keep = backend.run_on(1, _pid, None)
            with pytest.raises(WorkerCrashError):
                backend.run_on(0, _exit_hard, None)
            assert backend.run_on(1, _pid, None) == keep

    def test_serial_lane_api(self):
        backend = SerialBackend()
        assert backend.lane_count == 1
        assert backend.run_on(0, _square, 3) == 9
        with pytest.raises(ValueError):
            backend.run_on(1, _square, 3)

    def test_concurrent_first_use_creates_one_lane(self, monkeypatch):
        # Service batches and warmups reach run_on from several threads;
        # the first use of a lane must still spawn exactly one executor.
        created = []

        class CountingExecutor(pool_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                created.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", CountingExecutor)
        n_threads = 4
        barrier = threading.Barrier(n_threads)

        def first_use(_):
            barrier.wait(timeout=60)
            return backend.run_on(0, _pid, None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with PoolBackend(2) as backend:
                with ThreadPoolExecutor(n_threads) as threads:
                    pids = set(threads.map(first_use, range(n_threads)))
                lanes = list(backend._lanes)
        finally:
            sys.setswitchinterval(interval)
        assert len(pids) == 1
        assert len(created) == 1
        assert lanes == [0]


# ---------------------------------------------------------------------------
# Shared-segment lifecycle: nothing strands /dev/shm, even across crashes
# ---------------------------------------------------------------------------


class TestSegmentAudit:
    def test_create_and_unlink_tracked(self):
        from repro.parallel.pool import live_created_segments

        handle = SharedArray.create(np.ones(8))
        assert handle.name in live_created_segments()
        handle.unlink()
        assert handle.name not in live_created_segments()

    def test_audit_unlinks_stranded_segments(self):
        from repro.parallel.pool import (
            audit_shared_segments,
            live_created_segments,
        )

        SharedArray.create(np.ones(16))  # deliberately not unlinked
        assert audit_shared_segments() >= 1
        assert live_created_segments() == ()
        # Idempotent once clean.
        assert audit_shared_segments() == 0

    def test_worker_crash_strands_nothing(self, water_600):
        """Regression (ISSUE 9): a WorkerCrashError mid-map must not
        strand the shared input segments the parent published."""
        from repro.parallel.pool import live_created_segments, shared_inputs

        before = set(live_created_segments())
        with PoolBackend(2) as backend:
            with pytest.raises(WorkerCrashError):
                with shared_inputs(
                    backend, positions=water_600.positions
                ) as handles:
                    assert set(live_created_segments()) > before
                    backend.map(_exit_hard, [1, 2])
        assert set(live_created_segments()) == before

    def test_worker_attach_leaves_tracker_alone(self):
        """Workers forked after the creator's resource tracker started
        share it; an attach that registered and unregistered there would
        drop the creator's registration, and the creator's unlink would
        then make the tracker print a KeyError traceback."""
        script = textwrap.dedent(
            """
            import os

            import numpy as np

            from repro.parallel.pool import PoolBackend, as_input, shared_inputs


            def total(handle):
                return float(as_input(handle).sum())


            print(os.getpid(), flush=True)
            with PoolBackend(2) as backend:
                for phase in range(2):
                    data = np.arange(1000.0) + phase
                    with shared_inputs(backend, data=data) as shared:
                        sums = backend.map(total, [shared["data"]] * 4)
                    assert sums == [float(data.sum())] * 4
            """
        )
        src = os.path.join(os.path.dirname(pool_mod.__file__), "..", "..")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        pid = proc.stdout.split()[0]
        if os.path.isdir("/dev/shm"):
            left = [
                name for name in os.listdir("/dev/shm")
                if name.startswith(f"repro-{pid}-")
            ]
            assert left == []
