"""The MD workflow of the paper's Fig. 1: one driver, two ways of booking time.

``MdDriver`` runs initialise -> [neighbour search -> forces -> update ->
constraints -> output]* and owns everything a restart touches: the
rebuild cadence, the mid-interval list regeneration, the checkpoint
write and the restart-invariant accounting.  Its subclasses say only how
a list is built, how forces are evaluated and how each phase is booked
under the paper's Table 1 kernel taxonomy:

* ``MdLoop`` (here) books measured wall time.  It is the double-precision
  ground truth the SW26010 engine is validated against, and the
  "x86 / knl" curve of the Fig. 13 accuracy experiment;
* `repro.core.engine.SWGromacsEngine` books modelled SW26010 time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.hw.perf import KernelTiming
from repro.trace.events import CAT_STEP, MPE_TRACK, NULL_TRACER, NullTracer
from repro.md.bonded import compute_bonded
from repro.md.constraints import build_constraint_solver
from repro.md.integrator import IntegratorConfig, LeapfrogIntegrator
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import ClusterPairList, build_pair_list
from repro.parallel.pool import shared_backend
from repro.md.pme import PmeParams, PmeSolver
from repro.md.reporter import EnergyFrame, EnergyReporter
from repro.md.system import ParticleSystem
from repro.resilience import (
    CheckpointError,
    FaultPlan,
    MdCheckpoint,
    ResiliencePolicy,
    capture,
    save_checkpoint,
)
from repro.resilience import restore as restore_checkpoint_state

#: Kernel names following the paper's Table 1.
KERNEL_NEIGHBOR = "Neighbor search"
KERNEL_FORCE = "Force"
KERNEL_PME = "PME mesh"
KERNEL_BONDED = "Bonded"
KERNEL_UPDATE = "Update"
KERNEL_CONSTRAINTS = "Constraints"
KERNEL_COMM = "Comm. energies"
KERNEL_OUTPUT = "Write traj"
KERNEL_CHECKPOINT = "Checkpoint"


@dataclass
class MdConfig:
    """Everything an MD run needs besides the system itself."""

    nonbonded: NonbondedParams = field(default_factory=NonbondedParams)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    use_pme: bool = False
    pme: PmeParams = field(default_factory=PmeParams)
    precision: type = np.float64
    constraint_algorithm: str = "auto"  # auto | shake | lincs | settle
    output_interval: int = 0  # 0 = no trajectory output
    report_interval: int = 100
    #: Checkpoint cadence/path (fault injection is an engine-side
    #: concept; the reference loop only checkpoints).
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    #: Host-parallel execution backend (DESIGN.md §9): "serial", "pool",
    #: or None for ``REPRO_BACKEND``-or-serial.  Used for the pair-list
    #: exact filter; the list is bit-identical either way.
    backend: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.use_pme and self.nonbonded.coulomb_mode != "ewald":
            raise ValueError(
                "use_pme requires coulomb_mode='ewald' for the real-space part"
            )
        if self.use_pme and abs(self.pme.beta - self.nonbonded.ewald_beta) > 1e-9:
            raise ValueError(
                f"PME beta {self.pme.beta} != real-space beta "
                f"{self.nonbonded.ewald_beta}"
            )


@dataclass
class MdResult:
    """Run outcome: final state, energy series, per-kernel timings."""

    system: ParticleSystem
    reporter: EnergyReporter
    timing: KernelTiming
    n_steps: int
    n_pairlist_rebuilds: int
    trajectory_frames: list[np.ndarray] = field(default_factory=list)
    checkpoints_written: int = 0


class MdDriver:
    """The Fig. 1 step loop, checkpoint and restart shared by both drivers.

    Subclasses implement the hooks: ``_build_pairlist``,
    ``compute_forces``, ``_integrate``, ``_report``, ``_output``,
    ``_checkpoint_meta``, ``_book_checkpoint`` and ``_result``.  Every
    hook books its phase through :meth:`_add` in Fig. 1 order, so
    ``KernelTiming.total()`` sums the same kernels in the same order on
    every run.
    """

    def __init__(self, system: ParticleSystem, config, tracer: NullTracer) -> None:
        # Imported lazily: repro.core.engine imports this module, so a
        # top-level import of repro.core would be circular through the
        # packages' __init__ re-exports.
        from repro.core.stepcache import StepCache
        from repro.core.vectorized import resolve_kernel_impl

        self.system = system
        self.config = config
        #: Timeline tracer: step phases land on the MPE track in the
        #: unit the subclass books (measured or modelled seconds).
        self.tracer = tracer
        self.shake = build_constraint_solver(system, config.constraint_algorithm)
        self.integrator = LeapfrogIntegrator(config.integrator, self.shake)
        #: Execution backend for fan-out work (process-wide shared
        #: instance when selected by name/env; never closed here).
        self.backend = shared_backend(config.backend, config.workers)
        #: Record of the short-range impl ``REPRO_KERNEL`` selected at
        #: construction; each evaluation resolves it again (DESIGN.md §13).
        self.kernel_impl = resolve_kernel_impl()
        #: Pairlist-interval reuse layer (owner of the lane panels);
        #: invalidated before every list build and on restore()
        #: (DESIGN.md §8); tests assign a `NullStepCache` for the
        #: reuse-off baseline.
        self.stepcache = StepCache()
        self.pairlist: ClusterPairList | None = None
        #: Seeded fault oracle of a subclass that injects faults (None =
        #: perfect hardware); checkpoints carry its place in the schedule.
        self.fault_plan: FaultPlan | None = None
        self._start_step = 0
        self._next_step = 0
        self._pairlist_rebuild_step = 0
        self._pairlist_ref_positions: np.ndarray | None = None
        self._restart_ref_positions: np.ndarray | None = None
        #: True while the list a checkpoint was taken under is rebuilt.
        self._regenerating = False
        #: Accounting carried through restore() so a restarted run's
        #: result matches the uninterrupted one (None = fresh start).
        self._restored_history: dict | None = None
        self._restored_trajectory: list[np.ndarray] = []
        #: Live run state, referenced by checkpoint() mid-run.
        self._reporter: EnergyReporter | None = None
        self._trajectory: list[np.ndarray] = []
        self._rebuilds = 0
        self._checkpoints_written = 0

    def _add(self, timing: KernelTiming, kernel: str, seconds: float) -> None:
        """Record one step-phase duration (timing + trace)."""
        timing.add(kernel, seconds)
        if self.tracer.enabled:
            self.tracer.emit_seconds(kernel, CAT_STEP, MPE_TRACK, seconds)

    def _rebuild_pairlist(self, timing: KernelTiming, step: int = 0) -> None:
        """Build the pair list from the current positions at ``step``."""
        # Nothing reads the old list's panels again; free them before the
        # next list and its panels are built.
        self.stepcache.invalidate()
        self._build_pairlist(timing)
        self._pairlist_rebuild_step = step
        self._pairlist_ref_positions = self.system.positions.copy()

    def _rebuild_from_checkpoint(self, timing: KernelTiming) -> None:
        """Regenerate the mid-interval pair list after a restart:
        building from the checkpointed reference positions reproduces the
        interrupted run's list bit-for-bit."""
        if self._restart_ref_positions is None:
            raise CheckpointError(
                "restarted mid pair-list interval but the checkpoint "
                "carried no reference positions"
            )
        saved = self.system.positions
        self.system.positions = self._restart_ref_positions
        self._regenerating = True
        try:
            self._rebuild_pairlist(timing, self._pairlist_rebuild_step)
        finally:
            self.system.positions = saved
            self._restart_ref_positions = None
            self._regenerating = False

    def _record(self, step: int, potential: float) -> None:
        # Kinetic energy and temperature are only observable through
        # the reporter, so off-interval steps skip both reductions.
        if step % self._reporter.interval == 0:
            self._reporter.maybe_record(
                step,
                potential,
                self.system.kinetic_energy(),
                self.system.temperature(),
            )

    def _history_dict(self) -> dict:
        """Accumulated accounting to stow in a checkpoint (v2)."""
        frames = self._reporter.frames if self._reporter is not None else []
        history = {
            "n_pairlist_rebuilds": int(self._rebuilds),
            "checkpoints_written": int(self._checkpoints_written),
            "reporter_frames": [
                [f.step, f.potential, f.kinetic, f.temperature]
                for f in frames
            ],
        }
        if self.fault_plan is not None:
            history["fault_plan"] = self.fault_plan.get_state()
        return history

    def checkpoint(self, step: int | None = None) -> MdCheckpoint:
        """Snapshot the run (``step`` = next step to execute)."""
        return capture(
            self.system,
            self.integrator,
            step=self._next_step if step is None else step,
            pairlist_rebuild_step=self._pairlist_rebuild_step,
            pairlist_ref_positions=self._pairlist_ref_positions,
            meta={
                **self._checkpoint_meta(),
                "n_particles": self.system.n_particles,
            },
            history=self._history_dict(),
            trajectory=(
                np.stack(self._trajectory) if self._trajectory else None
            ),
        )

    def restore(self, ckpt: MdCheckpoint) -> None:
        """Resume from a checkpoint: the next :meth:`run` continues at
        ``ckpt.step`` and reproduces the uninterrupted run bit-for-bit."""
        restore_checkpoint_state(ckpt, self.system, self.integrator)
        self._start_step = self._next_step = ckpt.step
        self._pairlist_rebuild_step = ckpt.pairlist_rebuild_step
        self._restart_ref_positions = ckpt.pairlist_ref_positions
        self.pairlist = None
        self.stepcache.invalidate()
        if ckpt.history is not None:
            self._restored_history = dict(ckpt.history)
            # Continue the fault schedule where the checkpoint left it.
            fault_state = ckpt.history.get("fault_plan")
            if self.fault_plan is not None and fault_state is not None:
                self.fault_plan.set_state(fault_state)
        else:
            # Pre-v2 checkpoint: reconstruct the counters (reporter
            # history is unrecoverable and restarts empty).
            nstlist = self.config.nonbonded.nstlist
            every = self.config.resilience.checkpoint_every
            self._restored_history = {
                "n_pairlist_rebuilds": -(-ckpt.step // nstlist),
                "checkpoints_written": ckpt.step // every if every else 0,
                "reporter_frames": [],
            }
        self._restored_trajectory = (
            [np.array(f) for f in ckpt.trajectory]
            if ckpt.trajectory is not None
            else []
        )

    def _write_checkpoint(self, timing: KernelTiming, next_step: int) -> None:
        t0 = time.perf_counter()
        # Count the in-flight checkpoint before capturing so its own
        # history includes it — a restart from this file has "written" it.
        self._checkpoints_written += 1
        ckpt = self.checkpoint(next_step)
        save_checkpoint(ckpt, self.config.resilience.checkpoint_path)
        self._book_checkpoint(timing, ckpt, time.perf_counter() - t0)

    def run(self, n_steps: int, progress=None):
        """Run ``n_steps`` of MD, recording energies and kernel timings.

        After :meth:`restore` the loop continues from the checkpointed
        step, so ``n_steps`` is always the *total* step count of the
        trajectory, matching an uninterrupted run.

        ``progress`` is an optional observer with an
        ``update(steps_done, steps_total)`` method (see
        :class:`repro.durable.progress.ProgressWriter`), called once per
        completed step; it cannot affect results.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative: {n_steps}")
        cfg = self.config
        policy = cfg.resilience
        timing = KernelTiming()
        hist = self._restored_history or {}
        self._reporter = EnergyReporter(interval=cfg.report_interval)
        self._reporter.frames.extend(
            EnergyFrame(int(r[0]), float(r[1]), float(r[2]), float(r[3]))
            for r in hist.get("reporter_frames", [])
        )
        self._trajectory = list(self._restored_trajectory)
        # Restart-invariant accounting: counters resume from the restored
        # base (zero on a fresh start, so a second run() on the same
        # driver does not inherit the first run's counts).
        self._rebuilds = int(hist.get("n_pairlist_rebuilds", 0))
        self._checkpoints_written = int(hist.get("checkpoints_written", 0))

        for step in range(self._start_step, n_steps):
            if step % cfg.nonbonded.nstlist == 0:
                self._rebuild_pairlist(timing, step)
                self._rebuilds += 1
            elif self.pairlist is None:
                # Regenerating the checkpointed list is recovery work,
                # not a new rebuild — the uninterrupted run never did it.
                self._rebuild_from_checkpoint(timing)
            forces, potential = self.compute_forces(timing)
            self._integrate(timing, forces)
            self._next_step = step + 1
            self._report(timing, step, potential)
            if cfg.output_interval and step % cfg.output_interval == 0:
                self._output(timing)
            if (
                policy.checkpoint_every
                and (step + 1) % policy.checkpoint_every == 0
            ):
                self._write_checkpoint(timing, step + 1)
            if progress is not None:
                progress.update(step + 1, n_steps)
        return self._result(n_steps, timing)


class MdLoop(MdDriver):
    """Reference MD driver: every phase is booked as measured wall time
    (this is the x86-like engine, so wall time is the honest unit;
    conversion to trace cycles uses the tracer's clock)."""

    def __init__(
        self,
        system: ParticleSystem,
        config: MdConfig | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        super().__init__(system, config or MdConfig(), tracer)
        self.pme = (
            PmeSolver(system.box, self.config.pme) if self.config.use_pme else None
        )

    def compute_forces(self, timing: KernelTiming | None = None) -> tuple[np.ndarray, float]:
        """All forces and the total potential at the current positions."""
        timing = timing if timing is not None else KernelTiming()
        assert self.pairlist is not None, "neighbour list not built"
        t0 = time.perf_counter()
        sr = self.stepcache.short_range(
            self.system, self.pairlist, self.config.nonbonded,
            dtype=self.config.precision,
        )
        self._add(timing, KERNEL_FORCE, time.perf_counter() - t0)
        forces = sr.forces
        potential = sr.energy

        if self.pme is not None:
            t0 = time.perf_counter()
            pme_res = self.pme.compute(self.system)
            self._add(timing, KERNEL_PME, time.perf_counter() - t0)
            forces = forces + pme_res.forces
            potential += pme_res.energy

        topo = self.system.topology
        if topo.bonds or topo.angles or topo.dihedrals:
            t0 = time.perf_counter()
            bonded = compute_bonded(self.system)
            self._add(timing, KERNEL_BONDED, time.perf_counter() - t0)
            forces = forces + bonded.forces
            potential += bonded.energy
        return forces, potential

    def _build_pairlist(self, timing: KernelTiming) -> None:
        t0 = time.perf_counter()
        self.pairlist = build_pair_list(
            self.system, self.config.nonbonded.r_list, backend=self.backend
        )
        self._add(timing, KERNEL_NEIGHBOR, time.perf_counter() - t0)

    def _integrate(self, timing: KernelTiming, forces: np.ndarray) -> None:
        t0 = time.perf_counter()
        self.integrator.step(self.system, forces)
        dt_step = time.perf_counter() - t0
        # The constraint solve runs inside the integrator, which times
        # its solver calls; the rest of the step is the update.
        dt_constraints = self.integrator.constraint_seconds
        self._add(timing, KERNEL_UPDATE, dt_step - dt_constraints)
        if self.shake is not None and self.shake.n_constraints:
            self._add(timing, KERNEL_CONSTRAINTS, dt_constraints)

    def _report(self, timing: KernelTiming, step: int, potential: float) -> None:
        t0 = time.perf_counter()
        self._record(step, potential)
        self._add(timing, KERNEL_COMM, time.perf_counter() - t0)

    def _output(self, timing: KernelTiming) -> None:
        t0 = time.perf_counter()
        self._trajectory.append(self.system.positions.copy())
        self._add(timing, KERNEL_OUTPUT, time.perf_counter() - t0)

    def _checkpoint_meta(self) -> dict:
        return {"driver": "mdloop"}

    def _book_checkpoint(
        self, timing: KernelTiming, ckpt: MdCheckpoint, seconds: float
    ) -> None:
        self._add(timing, KERNEL_CHECKPOINT, seconds)

    def _result(self, n_steps: int, timing: KernelTiming) -> MdResult:
        return MdResult(
            system=self.system,
            reporter=self._reporter,
            timing=timing,
            n_steps=n_steps,
            n_pairlist_rebuilds=self._rebuilds,
            trajectory_frames=self._trajectory,
            checkpoints_written=self._checkpoints_written,
        )
