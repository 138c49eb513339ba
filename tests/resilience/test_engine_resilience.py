"""End-to-end resilience: the repo's core invariant under failure.

Forces/trajectories must stay bit-identical to the fault-free reference
under every injected-fault schedule, and a run interrupted + restarted
from checkpoint must be bit-identical to an uninterrupted one.  Faults
are only allowed to show up in modelled time, counters, and the trace.
"""

import numpy as np
import pytest

from repro.core.engine import (
    KERNEL_CHECKPOINT,
    KERNEL_FAULT_RETRY,
    EngineConfig,
    SWGromacsEngine,
)
from repro.md.mdloop import MdConfig, MdLoop
from repro.resilience import (
    CheckpointError,
    ResiliencePolicy,
    load_checkpoint,
)
from repro.trace import Tracer, fault_report

N_STEPS = 14  # crosses one nstlist=10 rebuild boundary


@pytest.fixture(scope="module")
def reference(water_small, nb_water_small):
    """Uninterrupted fault-free run: final positions/velocities."""
    engine = SWGromacsEngine(
        water_small.copy(), EngineConfig(nonbonded=nb_water_small)
    )
    result = engine.run(N_STEPS)
    return result


class TestFaultTransparency:
    def test_faulty_run_is_bit_identical(
        self, reference, water_small, nb_water_small
    ):
        policy = ResiliencePolicy(
            faults="seed=11,dma=1e-3,cpe=0.02,msg=1e-4,dead=5"
        )
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        result = engine.run(N_STEPS)
        assert np.array_equal(
            result.system.positions, reference.system.positions
        )
        assert np.array_equal(
            result.system.velocities, reference.system.velocities
        )
        # ... but the failures are visible in the books.
        assert result.fault_counts is not None
        assert result.fault_counts.dma_errors > 0
        assert result.timing.seconds[KERNEL_FAULT_RETRY] > 0.0
        assert result.degradation is not None
        assert result.degradation.n_survivors < result.degradation.n_cpes

    def test_fault_overhead_slows_the_model(
        self, reference, water_small, nb_water_small
    ):
        policy = ResiliencePolicy(faults="seed=3,dma=5e-3")
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        result = engine.run(N_STEPS)
        retry = result.timing.seconds[KERNEL_FAULT_RETRY]
        assert retry > 0.0
        assert result.timing.total() == pytest.approx(
            reference.timing.total() + retry
        )

    def test_retries_reach_the_trace(self, water_small, nb_water_small):
        policy = ResiliencePolicy(faults="seed=3,dma=5e-3")
        config = EngineConfig(nonbonded=nb_water_small, resilience=policy)
        tracer = Tracer(config.chip)
        engine = SWGromacsEngine(water_small.copy(), config, tracer=tracer)
        engine.run(N_STEPS)
        report = fault_report(tracer)
        assert report.n_events > 0
        assert report.n_retries > 0
        assert report.retried_bytes > 0
        assert 0.0 < report.overhead_fraction < 1.0

    def test_mpe_fallback_below_min_cpes(self, water_small, nb_water_small):
        dead = "+".join(str(c) for c in range(60))  # 4 survivors
        policy = ResiliencePolicy(faults=f"seed=1,dead={dead}", min_cpes=8)
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        result = engine.run(3)
        assert result.degradation.mode == "mpe_fallback"
        # The MPE reference kernel carries the step: far slower per step
        # than the CPE ladder, but the run completes.
        assert result.force_result.name == "ORI"

    def test_repartition_costs_more_than_healthy(
        self, reference, water_small, nb_water_small
    ):
        policy = ResiliencePolicy(faults="seed=1,dead=0+1+2+3+4+5+6+7")
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        result = engine.run(N_STEPS)
        assert result.degradation.mode == "repartition"
        assert result.degradation.n_survivors == 56
        assert (
            result.timing.seconds["Force"]
            > reference.timing.seconds["Force"]
        )


class TestEngineCheckpointRestart:
    def test_interrupted_restart_is_bit_identical(
        self, tmp_path, reference, water_small, nb_water_small
    ):
        path = str(tmp_path / "state.ckpt")
        policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)
        writer = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        # "Crash" at step 13: the last checkpoint on disk is step 12,
        # mid pair-list interval (rebuild was at step 10).
        partial = writer.run(13)
        assert partial.checkpoints_written == 3
        ckpt = load_checkpoint(path)
        assert ckpt.step == 12
        assert ckpt.pairlist_rebuild_step == 10

        resumed = SWGromacsEngine(
            water_small.copy(), EngineConfig(nonbonded=nb_water_small)
        )
        resumed.restore(ckpt)
        result = resumed.run(N_STEPS)
        assert np.array_equal(
            result.system.positions, reference.system.positions
        )
        assert np.array_equal(
            result.system.velocities, reference.system.velocities
        )

    def test_restart_on_rebuild_boundary(
        self, tmp_path, reference, water_small, nb_water_small
    ):
        path = str(tmp_path / "state.ckpt")
        policy = ResiliencePolicy(checkpoint_every=10, checkpoint_path=path)
        writer = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        writer.run(11)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 10
        resumed = SWGromacsEngine(
            water_small.copy(), EngineConfig(nonbonded=nb_water_small)
        )
        resumed.restore(ckpt)
        result = resumed.run(N_STEPS)
        assert np.array_equal(
            result.system.positions, reference.system.positions
        )

    def test_checkpoint_cost_is_charged(
        self, tmp_path, water_small, nb_water_small
    ):
        path = str(tmp_path / "state.ckpt")
        policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        result = engine.run(N_STEPS)
        assert result.checkpoints_written == 3
        assert result.timing.seconds[KERNEL_CHECKPOINT] > 0.0

    def test_restore_rejects_wrong_box(
        self, tmp_path, water_small, water_medium, nb_water_small
    ):
        path = str(tmp_path / "state.ckpt")
        policy = ResiliencePolicy(checkpoint_every=2, checkpoint_path=path)
        engine = SWGromacsEngine(
            water_small.copy(),
            EngineConfig(nonbonded=nb_water_small, resilience=policy),
        )
        engine.run(2)
        other = SWGromacsEngine(
            water_medium.copy(), EngineConfig(nonbonded=nb_water_small)
        )
        with pytest.raises(CheckpointError):
            other.restore(load_checkpoint(path))


class TestMdLoopCheckpointRestart:
    def test_reference_loop_restart_is_bit_identical(
        self, tmp_path, water_small, nb_water_small
    ):
        cfg = MdConfig(nonbonded=nb_water_small)
        baseline = MdLoop(water_small.copy(), cfg).run(N_STEPS)

        path = str(tmp_path / "md.ckpt")
        cfg_ckpt = MdConfig(
            nonbonded=nb_water_small,
            resilience=ResiliencePolicy(
                checkpoint_every=4, checkpoint_path=path
            ),
        )
        partial = MdLoop(water_small.copy(), cfg_ckpt).run(13)
        assert partial.checkpoints_written == 3

        resumed = MdLoop(water_small.copy(), MdConfig(nonbonded=nb_water_small))
        resumed.restore(load_checkpoint(path))
        result = resumed.run(N_STEPS)
        assert np.array_equal(
            result.system.positions, baseline.system.positions
        )
        assert np.array_equal(
            result.system.velocities, baseline.system.velocities
        )


class TestRestartInvariantAccounting:
    """A restarted run's result accounting must match the uninterrupted
    run: rebuild counts, reporter series, trajectory frames, checkpoint
    counts — not just the physics."""

    def _md_cfg(self, nb, **kw):
        return MdConfig(
            nonbonded=nb, report_interval=2, output_interval=3, **kw
        )

    def test_mdloop_accounting_parity(
        self, tmp_path, water_small, nb_water_small
    ):
        path = str(tmp_path / "md.ckpt")
        policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)
        baseline = MdLoop(
            water_small.copy(), self._md_cfg(nb_water_small, resilience=policy)
        ).run(N_STEPS)

        MdLoop(
            water_small.copy(), self._md_cfg(nb_water_small, resilience=policy)
        ).run(13)  # crash at 13; last checkpoint = step 12
        resumed = MdLoop(
            water_small.copy(), self._md_cfg(nb_water_small, resilience=policy)
        )
        resumed.restore(load_checkpoint(path))
        result = resumed.run(N_STEPS)

        # The _rebuild_from_checkpoint regeneration is recovery work, not
        # a new rebuild: counts must match the uninterrupted run exactly.
        assert result.n_pairlist_rebuilds == baseline.n_pairlist_rebuilds
        # Pre-restart reporter history is carried through the checkpoint
        # bit-exactly (JSON floats round-trip).
        assert [
            (f.step, f.potential, f.kinetic, f.temperature)
            for f in result.reporter.frames
        ] == [
            (f.step, f.potential, f.kinetic, f.temperature)
            for f in baseline.reporter.frames
        ]
        assert len(result.trajectory_frames) == len(
            baseline.trajectory_frames
        )
        for a, b in zip(result.trajectory_frames, baseline.trajectory_frames):
            assert np.array_equal(a, b)
        assert result.checkpoints_written == baseline.checkpoints_written

    def test_mdloop_checkpoint_count_resets_between_runs(
        self, tmp_path, water_small, nb_water_small
    ):
        path = str(tmp_path / "md.ckpt")
        policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)
        loop = MdLoop(
            water_small.copy(), self._md_cfg(nb_water_small, resilience=policy)
        )
        first = loop.run(N_STEPS)
        second = loop.run(N_STEPS)
        # A second run() no longer inherits the first run's count.
        assert first.checkpoints_written == second.checkpoints_written == 3

    def test_engine_accounting_parity(
        self, tmp_path, water_small, nb_water_small
    ):
        path = str(tmp_path / "eng.ckpt")
        policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)

        def cfg():
            return EngineConfig(
                nonbonded=nb_water_small, report_interval=2, resilience=policy
            )

        baseline = SWGromacsEngine(water_small.copy(), cfg()).run(N_STEPS)
        SWGromacsEngine(water_small.copy(), cfg()).run(13)
        resumed = SWGromacsEngine(water_small.copy(), cfg())
        resumed.restore(load_checkpoint(path))
        result = resumed.run(N_STEPS)

        assert [
            (f.step, f.potential, f.kinetic, f.temperature)
            for f in result.reporter.frames
        ] == [
            (f.step, f.potential, f.kinetic, f.temperature)
            for f in baseline.reporter.frames
        ]
        assert result.checkpoints_written == baseline.checkpoints_written


class TestFaultScheduleRestart:
    """A restarted faulted run continues the fault schedule: the plan's
    generator state, dead CPEs and counts ride in the checkpoint."""

    @pytest.mark.parametrize(
        "faults, every",
        [
            pytest.param("seed=7,dma=1e-3", 4, id="dma-mid-interval"),
            pytest.param("seed=11,dma=1e-3,cpe=0.02,dead=5", 4,
                         id="cpe-mid-interval"),
            pytest.param("seed=11,dma=1e-3,cpe=0.02,dead=5", 5,
                         id="cpe-rebuild-boundary"),
        ],
    )
    def test_restart_ends_with_the_uninterrupted_schedule(
        self, tmp_path, water_small, nb_water_small, faults, every
    ):
        path = str(tmp_path / "faults.ckpt")

        def engine(**policy):
            return SWGromacsEngine(
                water_small.copy(),
                EngineConfig(
                    nonbonded=nb_water_small,
                    resilience=ResiliencePolicy(faults=faults, **policy),
                ),
            )

        whole = engine()
        baseline = whole.run(16)
        engine(checkpoint_every=every, checkpoint_path=path).run(12)
        ckpt = load_checkpoint(path)
        assert ckpt.step == 12 // every * every
        resumed = engine()
        resumed.restore(ckpt)
        result = resumed.run(16)

        assert result.fault_counts == baseline.fault_counts
        assert resumed.fault_plan.get_state() == whole.fault_plan.get_state()
        assert result.degradation == baseline.degradation
        assert np.array_equal(
            result.system.positions, baseline.system.positions
        )
