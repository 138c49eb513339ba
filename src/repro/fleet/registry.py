"""Worker registry: membership, heartbeats, drain/decommission states.

A plain synchronous data structure, in the mold of
:class:`~repro.serve.queue.JobQueue`: every transition is a method call
with explicit timestamps, so the full lifecycle is unit-testable without
an event loop.  The router owns the clock and the async signalling.

Worker lifecycle::

    register ──▶ UP ──drain──▶ DRAINING ──drained──▶ GONE
                 │                 │
            (heartbeat deadline missed, or a round trip failed)
                 ▼                 ▼
                DEAD ◀─────────────┘
                 │
              register  (same name: a new incarnation revives it)
                 ▼
                 UP

Only UP workers are *routable* (on the hash ring).  A DRAINING worker
leaves the ring immediately — new work routes around it — but keeps
serving the jobs it already accepted until its service-level drain
completes (`SimulationService`'s no-lost-jobs guarantee does the rest).
A DEAD worker's jobs are reassigned by the router; if the same worker
name registers again it comes back as a fresh *incarnation*, so stale
state attached to the old incarnation is never confused with the new
process.
"""

from __future__ import annotations

from dataclasses import dataclass

STATE_UP = "up"
STATE_DRAINING = "draining"
STATE_DEAD = "dead"
STATE_GONE = "gone"

#: States that keep a heartbeat deadline armed.
_ALIVE_STATES = (STATE_UP, STATE_DRAINING)


class UnknownWorkerError(KeyError):
    """An operation named a worker the registry has never seen."""


@dataclass
class WorkerInfo:
    """One worker's registration record."""

    name: str
    address: str
    state: str = STATE_UP
    #: Bumped on every (re-)register of the same name, so the router can
    #: tell a revived worker from the process that died under that name.
    incarnation: int = 1
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    #: Router-side tallies (routing decisions, not worker-side stats).
    jobs_routed: int = 0
    jobs_reassigned_away: int = 0

    @property
    def alive(self) -> bool:
        return self.state in _ALIVE_STATES

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "address": self.address,
            "state": self.state,
            "incarnation": self.incarnation,
            "jobs_routed": self.jobs_routed,
            "jobs_reassigned_away": self.jobs_reassigned_away,
        }


class WorkerRegistry:
    """Name -> :class:`WorkerInfo`, with heartbeat-deadline bookkeeping."""

    def __init__(self, heartbeat_timeout_s: float = 5.0) -> None:
        if heartbeat_timeout_s <= 0:
            raise ValueError(
                f"heartbeat_timeout_s must be > 0: {heartbeat_timeout_s}"
            )
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._workers: dict[str, WorkerInfo] = {}

    # -- introspection -----------------------------------------------------
    def get(self, name: str) -> WorkerInfo:
        try:
            return self._workers[name]
        except KeyError:
            raise UnknownWorkerError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._workers

    def __len__(self) -> int:
        return len(self._workers)

    def routable(self) -> list[str]:
        """Names eligible for new work (sorted for determinism)."""
        return sorted(
            n for n, w in self._workers.items() if w.state == STATE_UP
        )

    def alive(self) -> list[str]:
        return sorted(n for n, w in self._workers.items() if w.alive)

    def as_dict(self) -> dict:
        return {
            name: info.as_dict()
            for name, info in sorted(self._workers.items())
        }

    # -- lifecycle ---------------------------------------------------------
    def register(self, name: str, address: str, now: float) -> WorkerInfo:
        """Add a worker, or revive/refresh one under an existing name.

        Re-registration is how a restarted worker (or a worker talking
        to a restarted router) rejoins: it always yields a fresh
        incarnation in the UP state.
        """
        prior = self._workers.get(name)
        info = WorkerInfo(
            name=name,
            address=address,
            state=STATE_UP,
            incarnation=(prior.incarnation + 1) if prior else 1,
            registered_at=now,
            last_heartbeat=now,
        )
        self._workers[name] = info
        return info

    def heartbeat(self, name: str, now: float) -> WorkerInfo:
        """Refresh a worker's deadline; raises on unknown names so the
        worker learns it must re-register (router-restart recovery)."""
        info = self.get(name)
        if not info.alive:
            # A heartbeat from a worker we declared dead: the process is
            # alive after all (e.g. a network blip) — but its jobs were
            # already reassigned, so it must re-register to rejoin.
            raise UnknownWorkerError(name)
        info.last_heartbeat = now
        return info

    def expired(self, now: float) -> list[WorkerInfo]:
        """Alive workers whose heartbeat deadline has lapsed."""
        cutoff = now - self.heartbeat_timeout_s
        return [
            info
            for _, info in sorted(self._workers.items())
            if info.alive and info.last_heartbeat < cutoff
        ]

    def mark_dead(self, name: str, incarnation: int | None = None) -> bool:
        """Transition to DEAD; False when a newer incarnation already
        replaced the one the caller observed failing (don't kill it)."""
        info = self.get(name)
        if incarnation is not None and info.incarnation != incarnation:
            return False
        if not info.alive:
            return False
        info.state = STATE_DEAD
        return True

    def start_drain(self, name: str) -> WorkerInfo:
        info = self.get(name)
        if info.state == STATE_UP:
            info.state = STATE_DRAINING
        return info

    def decommission(self, name: str) -> WorkerInfo:
        info = self.get(name)
        info.state = STATE_GONE
        return info
