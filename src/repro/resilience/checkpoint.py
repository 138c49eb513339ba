"""Atomic, checksummed checkpoint/restart of full MD state.

GROMACS treats checkpointing as a first-class exascale requirement
(Páll et al.): a multi-hour run must survive a node loss without
perturbing the physics.  The repo-wide invariant makes the bar precise —
a run interrupted and restarted from checkpoint must produce
**bit-identical** trajectories versus an uninterrupted run.  That
dictates exactly what must be captured:

* positions/velocities in full float64 (no text round-trip — ``.gro``'s
  fixed columns truncate to 3 decimals);
* the global step counter and the integrator's internals (thermostat RNG
  state, step count for COM-removal scheduling);
* the *pair-list age*: forces between rebuilds use the list built from
  positions at the last rebuild step, so the checkpoint stores those
  reference positions and the restart rebuilds the identical list.

File format (``REPROCKPT1``): one magic line, one SHA-256 line over the
payload, then an ``.npz`` payload (arrays + one JSON header).  Writes go
to a temp file in the target directory, are fsynced, then ``os.replace``d
— a crash mid-write leaves the previous checkpoint intact, never a torn
one.  Loads verify the checksum before deserialising anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"REPROCKPT1"
#: Header schema version inside the payload (bump on layout changes).
#: v2 adds the accounting ``history`` dict and the optional stacked
#: ``trajectory`` array; v1 files still load (both default to None).
FORMAT_VERSION = 2
#: Versions this build can read.
READABLE_VERSIONS = (1, 2)


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, torn, corrupt, or incompatible."""


@dataclass
class MdCheckpoint:
    """Everything needed to resume a run bit-identically.

    ``step`` is the next step to execute (the run completed steps
    ``0..step-1``).  ``pairlist_ref_positions`` are the positions the
    current pair list was built from; ``pairlist_rebuild_step`` is when.
    """

    step: int
    positions: np.ndarray
    velocities: np.ndarray
    box_lengths: tuple[float, float, float]
    integrator_state: dict
    pairlist_rebuild_step: int = 0
    pairlist_ref_positions: np.ndarray | None = None
    meta: dict = field(default_factory=dict)
    #: Accumulated run accounting (``n_pairlist_rebuilds``,
    #: ``checkpoints_written``, ``reporter_frames`` as [step, potential,
    #: kinetic, temperature] rows) so a restarted run reports the same
    #: `MdResult`/`EngineResult` counters as an uninterrupted one.  JSON
    #: floats round-trip exactly, preserving reporter bit-identity.
    #: None on pre-v2 files (restart then falls back to reconstruction).
    history: dict | None = None
    #: Trajectory frames written so far, stacked (n_frames, n, 3).
    trajectory: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.velocities = np.asarray(self.velocities, dtype=np.float64)
        if self.positions.shape != self.velocities.shape:
            raise CheckpointError(
                f"positions {self.positions.shape} != velocities "
                f"{self.velocities.shape}"
            )
        if self.step < 0:
            raise CheckpointError(f"step must be >= 0: {self.step}")

    @property
    def n_particles(self) -> int:
        return len(self.positions)

    @property
    def box(self):
        # Imported lazily: repro.hw.dma imports this package for fault
        # hooks, and a module-level repro.md import would close a cycle
        # (md -> hw.perf -> hw.dma -> resilience -> md).
        from repro.md.box import Box

        return Box(self.box_lengths)

    @property
    def pairlist_age(self) -> int:
        """Steps since the stored pair list was rebuilt."""
        return self.step - self.pairlist_rebuild_step


def _payload_bytes(ckpt: MdCheckpoint) -> bytes:
    """Serialise the checkpoint body to npz bytes (header + arrays)."""
    header = {
        "version": FORMAT_VERSION,
        "step": int(ckpt.step),
        "box_lengths": [float(v) for v in ckpt.box_lengths],
        "integrator_state": ckpt.integrator_state,
        "pairlist_rebuild_step": int(ckpt.pairlist_rebuild_step),
        "has_pairlist_ref": ckpt.pairlist_ref_positions is not None,
        "has_trajectory": ckpt.trajectory is not None,
        "meta": ckpt.meta,
        "history": ckpt.history,
    }
    arrays = {
        "positions": ckpt.positions,
        "velocities": ckpt.velocities,
        "header": np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
    }
    if ckpt.pairlist_ref_positions is not None:
        arrays["pairlist_ref_positions"] = np.asarray(
            ckpt.pairlist_ref_positions, dtype=np.float64
        )
    if ckpt.trajectory is not None:
        arrays["trajectory"] = np.asarray(ckpt.trajectory, dtype=np.float64)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def save_checkpoint(ckpt: MdCheckpoint, path: str) -> str:
    """Write the checkpoint atomically; returns the path written.

    The temp file lives in the destination directory so ``os.replace``
    is a same-filesystem atomic rename.
    """
    payload = _payload_bytes(ckpt)
    digest = hashlib.sha256(payload).hexdigest()
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(digest.encode("ascii") + b"\n")
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def load_checkpoint(path: str) -> MdCheckpoint:
    """Read + verify a checkpoint; raises :class:`CheckpointError` on any
    corruption (bad magic, checksum mismatch, truncated payload)."""
    try:
        with open(path, "rb") as fh:
            magic = fh.readline().rstrip(b"\n")
            digest_line = fh.readline().rstrip(b"\n")
            payload = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    if magic != MAGIC:
        raise CheckpointError(
            f"{path!r} is not a {MAGIC.decode()} checkpoint (magic {magic!r})"
        )
    digest = hashlib.sha256(payload).hexdigest()
    if digest.encode("ascii") != digest_line:
        raise CheckpointError(
            f"checksum mismatch in {path!r}: file is torn or corrupt"
        )
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as data:
            header = json.loads(bytes(data["header"]).decode("utf-8"))
            positions = data["positions"]
            velocities = data["velocities"]
            ref = (
                data["pairlist_ref_positions"]
                if header.get("has_pairlist_ref")
                else None
            )
            traj = (
                data["trajectory"] if header.get("has_trajectory") else None
            )
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint payload: {exc}") from exc
    if header.get("version") not in READABLE_VERSIONS:
        raise CheckpointError(
            f"unsupported checkpoint version {header.get('version')} "
            f"(this build reads {READABLE_VERSIONS})"
        )
    return MdCheckpoint(
        step=int(header["step"]),
        positions=positions,
        velocities=velocities,
        box_lengths=tuple(header["box_lengths"]),
        integrator_state=header["integrator_state"],
        pairlist_rebuild_step=int(header["pairlist_rebuild_step"]),
        pairlist_ref_positions=ref,
        meta=header.get("meta", {}),
        history=header.get("history"),
        trajectory=traj,
    )


def capture(
    system,
    integrator,
    step: int,
    pairlist_rebuild_step: int = 0,
    pairlist_ref_positions: np.ndarray | None = None,
    meta: dict | None = None,
    history: dict | None = None,
    trajectory: np.ndarray | None = None,
) -> MdCheckpoint:
    """Snapshot a driver's state (`repro.md.mdloop.MdDriver.checkpoint`)."""
    return MdCheckpoint(
        step=step,
        positions=system.positions.copy(),
        velocities=system.velocities.copy(),
        box_lengths=tuple(float(v) for v in system.box.lengths),
        integrator_state=integrator.get_state(),
        pairlist_rebuild_step=pairlist_rebuild_step,
        pairlist_ref_positions=(
            None
            if pairlist_ref_positions is None
            else pairlist_ref_positions.copy()
        ),
        meta=meta or {},
        history=history,
        trajectory=None if trajectory is None else np.asarray(trajectory),
    )


def restore(ckpt: MdCheckpoint, system, integrator) -> None:
    """Load a checkpoint's state into a driver's system + integrator.

    Refuses a checkpoint of another particle count or another box: its
    positions would be wrapped and paired under the wrong periodicity.
    """
    if ckpt.n_particles != system.n_particles:
        raise CheckpointError(
            f"checkpoint has {ckpt.n_particles} particles, "
            f"system has {system.n_particles}"
        )
    box = tuple(float(v) for v in system.box.lengths)
    if tuple(ckpt.box_lengths) != box:
        raise CheckpointError(f"checkpoint box {ckpt.box_lengths} != system box {box}")
    system.positions = ckpt.positions.copy()
    system.velocities = ckpt.velocities.copy()
    integrator.set_state(ckpt.integrator_state)
