"""Seeded, deterministic fault injection for the simulated SW26010.

The paper's cost model assumes a perfect core group: every DMA lands,
all 64 CPEs answer every ``athread`` spawn, and no halo message is ever
lost.  Production Sunway runs are not like that (O2ATH documents how
fragile athread offloading is in practice), so the simulator needs a way
to *schedule* failure and observe how the strategies and the cost model
respond.

:class:`FaultPlan` is that schedule.  It draws every fault decision from
one seeded :class:`numpy.random.Generator`, so a plan is a pure function
of ``(seed, call sequence)``: two runs that issue the same transactions
in the same order see the same faults.  Three fault classes cover the
taxonomy in DESIGN.md §7:

* **DMA transaction errors** (transient) — a get/put fails and must be
  retried; hooked into :class:`repro.hw.dma.DmaEngine`;
* **CPE loss** (permanent) — a CPE drops out at ``athread`` spawn time
  and never comes back; hooked into :func:`repro.parallel.athread.spawn`
  and the engine's per-rebuild spawn of the force kernel;
* **message loss** (transient) — an MPI/RDMA message vanishes on the NoC
  and is resent; hooked into :class:`repro.parallel.mpi_sim.SimComm`.

Faults NEVER touch the functional path: injected failures are always
recovered (retry or re-partition), so forces and trajectories stay
bit-identical to a fault-free run — only the modelled time, counters,
and trace change.  That invariant is what the resilience tests pin.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

#: Fault-class names used in trace events and CLI specs.
FAULT_DMA = "dma"
FAULT_CPE = "cpe"
FAULT_MSG = "msg"


class PermanentFaultError(RuntimeError):
    """An injected fault survived every retry attempt (unrecoverable)."""


@dataclass(frozen=True)
class FaultSpec:
    """Parsed fault-injection parameters (one CLI ``--faults`` string).

    Rates are per-event probabilities: ``dma`` per DMA transaction,
    ``cpe`` per CPE per spawn (a triggered CPE stays dead), ``msg`` per
    message send.  ``dead_cpes`` marks CPEs dead from step zero.
    """

    seed: int = 0
    dma_error_rate: float = 0.0
    cpe_fail_rate: float = 0.0
    msg_loss_rate: float = 0.0
    dead_cpes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name in ("dma_error_rate", "cpe_fail_rate", "msg_loss_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1): {rate}")
        if any(c < 0 for c in self.dead_cpes):
            raise ValueError(f"dead_cpes must be non-negative: {self.dead_cpes}")

    @property
    def any_faults(self) -> bool:
        return bool(
            self.dma_error_rate
            or self.cpe_fail_rate
            or self.msg_loss_rate
            or self.dead_cpes
        )


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``seed=7,dma=1e-3,cpe=0.01,msg=1e-4,dead=3+17``.

    Keys: ``seed`` (int), ``dma``/``cpe``/``msg`` (per-event rates),
    ``dead`` ('+'-separated CPE ids dead from the start).  Unknown keys
    raise, so typos fail loudly instead of silently injecting nothing.
    """
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed fault spec entry {part!r} (want key=value)")
        key, value = (p.strip() for p in part.split("=", 1))
        if key == "seed":
            kwargs["seed"] = int(value)
        elif key == FAULT_DMA:
            kwargs["dma_error_rate"] = float(value)
        elif key == FAULT_CPE:
            kwargs["cpe_fail_rate"] = float(value)
        elif key == FAULT_MSG:
            kwargs["msg_loss_rate"] = float(value)
        elif key == "dead":
            kwargs["dead_cpes"] = tuple(
                int(v) for v in value.split("+") if v
            )
        else:
            raise ValueError(f"unknown fault spec key {key!r}")
    return FaultSpec(**kwargs)


@dataclass
class FaultCounts:
    """Running totals of everything a plan injected."""

    dma_errors: int = 0
    cpe_losses: int = 0
    messages_lost: int = 0

    @property
    def total(self) -> int:
        return self.dma_errors + self.cpe_losses + self.messages_lost


class FaultPlan:
    """Deterministic fault oracle, one per run.

    Consumers ask yes/no questions (``dma_failures``, ``message_lost``,
    ``surviving_cpes``); the plan answers from its seeded stream and
    records what it injected in :attr:`counts`.  The same plan instance
    must be shared by every hook of one run so the stream stays aligned.
    """

    def __init__(self, spec: FaultSpec | None = None, **kwargs) -> None:
        self.spec = spec or FaultSpec(**kwargs)
        self._rng = np.random.default_rng(self.spec.seed)
        self._dead: set[int] = set(self.spec.dead_cpes)
        self.counts = FaultCounts()

    # --- DMA --------------------------------------------------------------
    def dma_failures(self, n_transactions: int) -> int:
        """How many of ``n_transactions`` DMA attempts fail this round."""
        if n_transactions < 0:
            raise ValueError(f"n_transactions must be >= 0: {n_transactions}")
        rate = self.spec.dma_error_rate
        if rate == 0.0 or n_transactions == 0:
            return 0
        failed = int(self._rng.binomial(n_transactions, rate))
        self.counts.dma_errors += failed
        return failed

    # --- messages ---------------------------------------------------------
    def message_lost(self) -> bool:
        """Whether one message send is lost (drawn per attempt)."""
        rate = self.spec.msg_loss_rate
        if rate == 0.0:
            return False
        lost = bool(self._rng.random() < rate)
        if lost:
            self.counts.messages_lost += 1
        return lost

    # --- CPEs -------------------------------------------------------------
    def surviving_cpes(self, n_cpes: int) -> list[int]:
        """CPE ids alive for this spawn; newly-failed CPEs stay dead.

        Called once per spawn: each currently-alive CPE fails with
        ``cpe_fail_rate``, and failures are permanent (the degradation
        path re-partitions over the survivors).
        """
        if n_cpes < 1:
            raise ValueError(f"n_cpes must be >= 1: {n_cpes}")
        rate = self.spec.cpe_fail_rate
        if rate > 0.0:
            draws = self._rng.random(n_cpes)
            for cpe in range(n_cpes):
                if cpe not in self._dead and draws[cpe] < rate:
                    self._dead.add(cpe)
                    self.counts.cpe_losses += 1
        return self.alive_cpes(n_cpes)

    @property
    def dead_cpes(self) -> frozenset[int]:
        return frozenset(self._dead)

    def alive_cpes(self, n_cpes: int) -> list[int]:
        """CPE ids alive now, without a new roll call."""
        return [cpe for cpe in range(n_cpes) if cpe not in self._dead]

    # --- checkpointing ----------------------------------------------------
    def get_state(self) -> dict:
        """JSON-serialisable position in the schedule: the generator
        state, the dead CPEs and the counts so far."""
        return {
            "rng": self._rng.bit_generator.state,
            "dead": sorted(self._dead),
            "counts": asdict(self.counts),
        }

    def set_state(self, state: dict) -> None:
        """Resume the schedule captured by :meth:`get_state`."""
        self._rng.bit_generator.state = state["rng"]
        self._dead = set(state["dead"])
        self.counts = FaultCounts(**state["counts"])


#: Shared "no faults ever" plan: the default for every hook.
NO_FAULTS = FaultPlan(FaultSpec())
