"""SWGromacsEngine: the whole MD workflow on the simulated SW26010.

Runs real dynamics (mixed-precision forces, leapfrog, SHAKE) while
accounting *modelled* chip time for every kernel of the paper's Table 1
taxonomy, under four optimisation levels matching Fig. 10:

* level 0 — ``Ori``:   everything on the MPE, MPI transport, slow I/O;
* level 1 — ``Cal``:   short-range force on CPEs (the MARK kernel);
* level 2 — ``List``:  + pair-list generation on CPEs (two-way cache);
* level 3 — ``Other``: + update/constraints on CPEs, RDMA transport,
  buffered fast I/O (everything in §3.6-3.7).

For multi-CG cases the engine runs ONE representative core group
functionally (SPMD symmetry: every CG executes the same kernels on
N/n_cgs local particles) and adds the communication model — the same
methodology the paper's own scalability analysis uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.comm_opt import Transport, step_comm
from repro.core.fastio import io_model_seconds
from repro.core.kernels import (
    ALL_SPECS,
    FORCE_PACKAGE_BYTES,
    KernelResult,
    run_kernel,
)
from repro.core.pairlist_cpe import cache_study, search_kernel_seconds, search_trace
from repro.hw.dma import DmaEngine
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.hw.perf import KernelTiming
from repro.md.integrator import IntegratorConfig
from repro.md.mdloop import (
    KERNEL_CHECKPOINT,
    KERNEL_COMM,
    KERNEL_CONSTRAINTS,
    KERNEL_FORCE,
    KERNEL_NEIGHBOR,
    KERNEL_OUTPUT,
    KERNEL_UPDATE,
    MdDriver,
)
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.reporter import EnergyReporter
from repro.md.system import ParticleSystem
from repro.parallel.pool import shared_backend
from repro.resilience import (
    MODE_MPE_FALLBACK,
    DegradationReport,
    FaultCounts,
    MdCheckpoint,
    ResiliencePolicy,
    degraded_chip,
    plan_degradation,
)
from repro.trace.events import (
    CAT_CHECKPOINT,
    CAT_FAULT,
    MPE_TRACK,
    NULL_TRACER,
    NullTracer,
)

KERNEL_DOMAIN_DECOMP = "Domain decomp."
KERNEL_WAIT_COMM_F = "Wait + comm. F"
KERNEL_BUFFER_OPS = "NB X/F buffer ops"
KERNEL_FAULT_RETRY = "Fault retries"

#: Workflow-kernel cost constants (MPE cycles), set so the level-0 MPE
#: run reproduces the paper's Table 1 case-1 fractions (force ~95 %,
#: neighbour search ~2.5 %, update ~0.3 %, constraints ~0.6 %).
MPE_NS_CHECK_CYCLES = 4.0
MPE_UPDATE_CYCLES_PER_PARTICLE = 80.0
MPE_CONSTRAINT_CYCLES_PER_PARTICLE = 160.0
MPE_DD_CYCLES_PER_PARTICLE = 60.0
MPE_BUFFER_CYCLES_PER_PARTICLE = 25.0
#: Effective CPE-parallel speedup for the §3.7 "other" kernels (update,
#: constraints, buffer ops): these stream the whole state through the
#: CPEs once, so they are DMA-bandwidth-bound, not compute-bound — far
#: below the 64x core ratio.
CPE_WORKFLOW_SPEEDUP = 2.0
#: Candidate-to-listed expansion of the neighbour search (§3.5 model).
NS_EXPANSION = 3.0

LEVEL_NAMES = ("Ori", "Cal", "List", "Other")


@dataclass
class EngineConfig:
    """Engine configuration: physics + chip + optimisation level."""

    nonbonded: NonbondedParams = field(default_factory=NonbondedParams)
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)
    optimization_level: int = 3
    n_cgs: int = 1
    output_interval: int = 0
    report_interval: int = 100
    use_pme_comm: bool = True  # PME all-to-all in the comm model
    chip: ChipParams = DEFAULT_PARAMS
    #: Failure/recovery knobs (default = perfect hardware, no checkpoints).
    resilience: ResiliencePolicy = field(default_factory=ResiliencePolicy)
    #: Host-parallel execution backend (DESIGN.md §9): "serial", "pool",
    #: or None for ``REPRO_BACKEND``-or-serial.  Fans the pair-list exact
    #: filter over real worker processes; results are bit-identical
    #: either way.
    backend: str | None = None
    #: Worker count for the pool backend (None = ``REPRO_WORKERS`` or
    #: host CPU count).
    workers: int | None = None
    #: Constraint solver (GROMACS' ``constraint-algorithm``): "auto"
    #: (SETTLE for pure water, SHAKE otherwise), "settle", "lincs", or
    #: "shake".  Scenario specs (DESIGN.md §15) select this per run.
    constraint_algorithm: str = "auto"

    def __post_init__(self) -> None:
        if not 0 <= self.optimization_level <= 3:
            raise ValueError(
                f"optimization_level must be 0..3: {self.optimization_level}"
            )
        if self.n_cgs < 1:
            raise ValueError(f"n_cgs must be >= 1: {self.n_cgs}")

    @property
    def level_name(self) -> str:
        return LEVEL_NAMES[self.optimization_level]

    @property
    def transport(self) -> Transport:
        return Transport.RDMA if self.optimization_level >= 3 else Transport.MPI

    @property
    def force_spec(self):
        return ALL_SPECS["MARK"] if self.optimization_level >= 1 else ALL_SPECS["ORI"]


@dataclass
class EngineResult:
    """Functional + modelled outcome of an engine run."""

    system: ParticleSystem
    reporter: EnergyReporter
    timing: KernelTiming  # modelled chip seconds per kernel
    n_steps: int
    level: str
    force_result: KernelResult | None = None
    #: Last degradation decision of the run (None = no fault plan).
    degradation: DegradationReport | None = None
    #: Totals of every injected fault (None = no fault plan).
    fault_counts: FaultCounts | None = None
    checkpoints_written: int = 0

    @property
    def modelled_seconds(self) -> float:
        return self.timing.total()

    def speedup_over(self, other: "EngineResult") -> float:
        if self.modelled_seconds <= 0 or other.modelled_seconds <= 0:
            raise ValueError("non-positive modelled time")
        return other.modelled_seconds / self.modelled_seconds

    def summary(self) -> dict:
        """JSON-able digest of the run: the serving layer's wire payload
        (`repro.serve`), also handy for scripting.

        The state fingerprint is BLAKE2b over the final positions, so
        two runs agree on the summary iff they agree on the trajectory —
        the serve bit-identity tests compare exactly this.
        """
        from repro.core.stepcache import position_fingerprint

        last = self.reporter.frames[-1] if self.reporter.frames else None
        return {
            "level": self.level,
            "n_steps": int(self.n_steps),
            "n_particles": int(self.system.n_particles),
            "potential": float(last.potential) if last else None,
            "kinetic": float(last.kinetic) if last else None,
            "temperature": float(last.temperature) if last else None,
            "modelled_seconds": float(self.modelled_seconds),
            "positions_fp": position_fingerprint(self.system.positions).hex(),
            "timing": {
                k: float(v) for k, v in sorted(self.timing.seconds.items())
            },
            "checkpoints_written": int(self.checkpoints_written),
        }


class SWGromacsEngine(MdDriver):
    """MD on the simulated chip: every phase is booked as modelled time."""

    def __init__(
        self,
        system: ParticleSystem,
        config: EngineConfig | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        # The force phase is the short range only: bonded terms would be
        # integrated without their forces.
        topo = system.topology
        terms = [
            f"{len(getattr(topo, name))} {name}"
            for name in ("bonds", "angles", "dihedrals")
            if getattr(topo, name)
        ]
        if terms:
            raise ValueError(
                "SWGromacsEngine evaluates no bonded forces; the topology "
                f"has {', '.join(terms)}"
            )
        #: Step phases land on the MPE track with their *modelled*
        #: durations; the force kernel additionally lays out its per-CPE
        #: compute and DMA phases whenever the pair list is rebuilt (see
        #: `repro.core.kernels.run_kernel`).
        super().__init__(system, config or EngineConfig(), tracer)
        self._cached_force_model: KernelResult | None = None
        self._cached_ns_seconds: float | None = None
        policy = self.config.resilience
        self.fault_plan = policy.build_fault_plan()
        #: Private DMA engine that replays the force kernel's recorded
        #: traffic against the fault plan — the force kernel's own DMA
        #: math is closed-form, so retry overhead is charged by replay.
        self._fault_dma = (
            DmaEngine(
                params=self.config.chip,
                tracer=tracer,
                fault_plan=self.fault_plan,
                retry=policy.retry,
            )
            if self.fault_plan is not None
            and self.fault_plan.spec.dma_error_rate > 0.0
            else None
        )
        #: Last degradation decision (refreshed at every list rebuild).
        self.degradation: DegradationReport | None = None

    # ------------------------------------------------------------------
    # per-kernel modelled costs
    # ------------------------------------------------------------------
    def _ns_seconds(self, chip: ChipParams | None = None) -> float:
        """Pair-list generation time at the current level (per rebuild)."""
        cfg = self.config
        chip = chip or cfg.chip
        assert self.pairlist is not None
        n_checks = self.pairlist.n_cluster_pairs * NS_EXPANSION
        if cfg.optimization_level < 2:
            return 16.0 * n_checks * MPE_NS_CHECK_CYCLES * chip.cycle_s
        trace = search_trace(self.pairlist, NS_EXPANSION)
        study = cache_study(trace, chip)
        return search_kernel_seconds(
            self.pairlist, study.two_way_miss_ratio, chip, NS_EXPANSION
        )

    def _update_constraint_seconds(self) -> tuple[float, float]:
        cfg = self.config
        n = self.system.n_particles
        upd = n * MPE_UPDATE_CYCLES_PER_PARTICLE * cfg.chip.cycle_s
        con = (
            n * MPE_CONSTRAINT_CYCLES_PER_PARTICLE * cfg.chip.cycle_s
            if self.shake is not None
            else 0.0
        )
        if cfg.optimization_level >= 3:
            upd /= CPE_WORKFLOW_SPEEDUP
            con /= CPE_WORKFLOW_SPEEDUP
        return upd, con

    def _comm_timing(self, timing: KernelTiming) -> None:
        cfg = self.config
        if cfg.n_cgs == 1:
            return
        total_particles = self.system.n_particles * cfg.n_cgs
        box_edge = self.system.box.min_edge * cfg.n_cgs ** (1.0 / 3.0)
        comm = step_comm(
            total_particles,
            cfg.n_cgs,
            box_edge,
            cfg.nonbonded.r_list,
            transport=cfg.transport,
            params=cfg.chip,
            use_pme=cfg.use_pme_comm,
        )
        self._add(timing, KERNEL_WAIT_COMM_F, comm.halo_seconds + comm.pme_seconds)
        self._add(timing, KERNEL_COMM, comm.energy_seconds)
        n_local = self.system.n_particles
        self._add(
            timing,
            KERNEL_BUFFER_OPS,
            n_local
            * MPE_BUFFER_CYCLES_PER_PARTICLE
            * cfg.chip.cycle_s
            / (CPE_WORKFLOW_SPEEDUP if cfg.optimization_level >= 3 else 1.0),
        )

    def _dd_seconds(self) -> float:
        if self.config.n_cgs == 1:
            return 0.0
        return (
            self.system.n_particles
            * MPE_DD_CYCLES_PER_PARTICLE
            * self.config.chip.cycle_s
        )

    def _io_seconds(self) -> float:
        cfg = self.config
        return io_model_seconds(
            self.system.n_particles,
            cfg.chip,
            fast=cfg.optimization_level >= 3,
        ).total

    # ------------------------------------------------------------------
    # resilience
    # ------------------------------------------------------------------
    def _degradation_decision(self) -> DegradationReport | None:
        """Spawn-time CPE roll call + recovery-mode choice (per rebuild).

        Only CPE-offload levels spawn; the level-0 MPE path has nothing
        to lose.
        """
        cfg = self.config
        if self.fault_plan is None or cfg.optimization_level < 1:
            return None
        spec = self.fault_plan.spec
        if not (spec.cpe_fail_rate or spec.dead_cpes):
            return None
        # Regenerating a checkpointed list repeats no spawn: the restored
        # dead set already holds the interrupted run's last roll call.
        if self._regenerating:
            survivors = len(self.fault_plan.alive_cpes(cfg.chip.n_cpes))
        else:
            survivors = len(self.fault_plan.surviving_cpes(cfg.chip.n_cpes))
        report = plan_degradation(
            survivors, cfg.chip, cfg.resilience.min_cpes
        )
        self.degradation = report
        if report.degraded and self.tracer.enabled:
            self.tracer.instant(
                "cpe_loss", CAT_FAULT, MPE_TRACK,
                mode=report.mode, survivors=report.n_survivors,
                lost=report.n_lost,
            )
        return report

    def _build_pairlist(self, timing: KernelTiming) -> None:
        """Rebuild the pair list + cached kernel cost model."""
        cfg = self.config
        chip = cfg.chip
        spec = cfg.force_spec
        report = self._degradation_decision()
        if report is not None and report.degraded:
            if report.mode == MODE_MPE_FALLBACK:
                # Too few survivors for the CPE ladder: run the MPE
                # reference kernel (same forces, "Ori" cost).
                spec = ALL_SPECS["ORI"]
            else:
                # Repartition over survivors: the same kernel costed
                # against a narrower core group.
                chip = degraded_chip(chip, report)
        self.pairlist = build_pair_list(
            self.system, self.config.nonbonded.r_list, backend=self.backend
        )
        self._cached_force_model = run_kernel(
            self.system,
            self.pairlist,
            self.config.nonbonded,
            spec,
            chip,
            tracer=self.tracer,
            cache=self.stepcache,
        )
        self._cached_ns_seconds = self._ns_seconds(chip)
        self._add(timing, KERNEL_NEIGHBOR, self._cached_ns_seconds)
        self._add(timing, KERNEL_DOMAIN_DECOMP, self._dd_seconds())

    def _replay_dma_faults(self) -> float:
        """Charge DMA retry overhead for one step's force-kernel traffic.

        The force kernel's DMA cost is closed-form, so fault injection
        replays its recorded per-phase byte totals through a private
        fault-carrying :class:`DmaEngine` at the kernel's own block
        sizes; only the retry-seconds delta is returned (base transfer
        time is already in the Force row).
        """
        dma = self._fault_dma
        stats = self._cached_force_model.stats
        chip = self.config.chip
        before = dma.stats.retry_seconds
        read_bytes = int(stats.get("read_bytes", 0))
        write_bytes = int(stats.get("write_bytes", 0))
        nblist_bytes = int(stats.get("nblist_bytes", 0))
        if read_bytes:
            size = max(chip.line_bytes, 1)
            dma.get_bulk(size, max(1, read_bytes // size))
        if nblist_bytes:
            size = chip.dma_curve[-1][0]  # streamed at the largest block
            dma.get_bulk(size, max(1, nblist_bytes // size))
        if write_bytes:
            dma.put_bulk(
                FORCE_PACKAGE_BYTES,
                max(1, write_bytes // FORCE_PACKAGE_BYTES),
            )
        return dma.stats.retry_seconds - before

    # ------------------------------------------------------------------
    # step phases (the hooks of MdDriver.run)
    # ------------------------------------------------------------------
    def compute_forces(self, timing: KernelTiming) -> tuple[np.ndarray, float]:
        """Functional short-range forces (mixed precision, identical to
        the modelled kernel's output), booked at the cached kernel
        analysis's modelled time.  At rebuild steps the kernel model
        already evaluated these exact forces — the step cache hands the
        shared result back instead of recomputing it."""
        sr = self.stepcache.short_range(
            self.system, self.pairlist, self.config.nonbonded, dtype=np.float32
        )
        self._add(timing, KERNEL_FORCE, self._cached_force_model.elapsed_seconds)
        if self._fault_dma is not None:
            self._add(timing, KERNEL_FAULT_RETRY, self._replay_dma_faults())
        return sr.forces, sr.energy

    def _integrate(self, timing: KernelTiming, forces: np.ndarray) -> None:
        self.integrator.step(self.system, forces)
        upd, con = self._update_constraint_seconds()
        self._add(timing, KERNEL_UPDATE, upd)
        if con:
            self._add(timing, KERNEL_CONSTRAINTS, con)

    def _report(self, timing: KernelTiming, step: int, potential: float) -> None:
        self._comm_timing(timing)
        self._record(step, potential)

    def _output(self, timing: KernelTiming) -> None:
        self._add(timing, KERNEL_OUTPUT, self._io_seconds())

    def _checkpoint_meta(self) -> dict:
        return {"level": self.config.level_name}

    def _book_checkpoint(
        self, timing: KernelTiming, ckpt: MdCheckpoint, seconds: float
    ) -> None:
        """Book the modelled cost of one checkpoint write (binary, no
        formatting): write + fsync + rename syscalls plus the payload at
        disk rate.  The measured ``seconds`` of the host write are not
        chip time."""
        chip = self.config.chip
        nbytes = ckpt.positions.nbytes + ckpt.velocities.nbytes
        if ckpt.pairlist_ref_positions is not None:
            nbytes += ckpt.pairlist_ref_positions.nbytes
        t = 3.0 * chip.io_syscall_s + nbytes / (chip.io_disk_bandwidth_gbs * 1e9)
        timing.add(KERNEL_CHECKPOINT, t)
        if self.tracer.enabled:
            self.tracer.emit_seconds(
                "checkpoint_write", CAT_CHECKPOINT, MPE_TRACK, t,
                step=ckpt.step, path=self.config.resilience.checkpoint_path,
            )

    def _result(self, n_steps: int, timing: KernelTiming) -> EngineResult:
        return EngineResult(
            system=self.system,
            reporter=self._reporter,
            timing=timing,
            n_steps=n_steps,
            level=self.config.level_name,
            force_result=self._cached_force_model,
            degradation=self.degradation,
            fault_counts=(
                self.fault_plan.counts if self.fault_plan is not None else None
            ),
            checkpoints_written=self._checkpoints_written,
        )

    def model_step(self) -> KernelTiming:
        """Modelled per-step timing without advancing dynamics (kernel
        times amortise the nstlist-periodic work)."""
        timing = KernelTiming()
        if self.pairlist is None:
            self._rebuild_pairlist(KernelTiming())
        nstlist = self.config.nonbonded.nstlist
        timing.add(KERNEL_NEIGHBOR, self._cached_ns_seconds / nstlist)
        timing.add(KERNEL_DOMAIN_DECOMP, self._dd_seconds() / nstlist)
        timing.add(KERNEL_FORCE, self._cached_force_model.elapsed_seconds)
        upd, con = self._update_constraint_seconds()
        timing.add(KERNEL_UPDATE, upd)
        if con:
            timing.add(KERNEL_CONSTRAINTS, con)
        self._comm_timing(timing)
        if self.config.output_interval:
            timing.add(
                KERNEL_OUTPUT, self._io_seconds() / self.config.output_interval
            )
        return timing


def _model_level_job(task: tuple[ParticleSystem, EngineConfig]) -> KernelTiming:
    """Model one optimisation level's step timing (pool-safe job)."""
    system, cfg = task
    return SWGromacsEngine(system.copy(), cfg).model_step()


def run_optimization_ladder(
    system_builder,
    n_local_particles: int,
    n_cgs: int = 1,
    nonbonded: NonbondedParams | None = None,
    output_interval: int = 0,
    chip: ChipParams = DEFAULT_PARAMS,
    backend=None,
) -> dict[str, KernelTiming]:
    """Fig. 10: modelled per-step timing at each optimisation level.

    ``system_builder(n_particles)`` builds the local (per-CG) system once;
    the four levels share it so differences are purely modelled.  The
    levels are independent, so under a parallel ``backend`` (or
    ``REPRO_BACKEND=pool``) each level models on its own worker; results
    merge in level order, so the dict is identical on any backend.
    """
    backend = shared_backend(backend)
    system = system_builder(n_local_particles)
    configs = [
        EngineConfig(
            nonbonded=nonbonded or NonbondedParams(),
            optimization_level=level,
            n_cgs=n_cgs,
            output_interval=output_interval,
            chip=chip,
            backend="serial",
        )
        for level in range(4)
    ]
    timings = backend.map(
        _model_level_job, [(system, cfg) for cfg in configs]
    )
    return {cfg.level_name: t for cfg, t in zip(configs, timings)}
