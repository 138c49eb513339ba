"""Batched (vectorised) fidelity-walk and per-step force kernels.

The sequential fidelity walk (`repro.core.kernels._walk_fidelity_partition`)
executes one Python iteration per cluster pair — faithful to the CPE
program, but the iteration overhead caps the whole simulator at a few
steps per second.  This module provides the production implementation:
the same physics over all cluster pairs of a CPE partition in a handful
of numpy calls, with the DeferredUpdateCache / Bit-Map / SIMD-shuffle
*counters* replayed analytically so every observable output — forces,
energy partials, write-cache counters, shuffle counts, trace events —
is identical to the scalar walk (test-enforced, see
``tests/core/test_vectorized.py``).

Bit-identity rests on a small set of float32 accumulation identities
(DESIGN.md §13):

* ``np.add.at`` applies updates sequentially in operand order, so a
  grouped scatter-add reproduces a left-to-right ``+=`` loop exactly;
* a batched ``(M, 4, 4, 3).sum(axis=2)`` equals the per-pair
  ``(4, 4, 3).sum(axis=1)`` slice by slice (same pairwise reduction
  tree over the same elements);
* ``np.cumsum`` is a strict sequential accumulation, matching a scalar
  ``energy +=`` loop term for term;
* one ``np.bincount`` over i/j indices laid out chunk by chunk (each
  chunk's i indices, then its j indices) equals the reference's
  sequential ``np.add.at`` passes over those chunks (per-bin scan order
  is preserved).

The per-step path, `compute_short_range_vectorized`, serves pair lists
of every size; the chunked reference runs only under
``REPRO_KERNEL=scalar``.  Every evaluation is one block loop over a
lane stream: one fold per lane, then the pair kernel, the force
components and the scatter on the in-cutoff lanes only, whose energy
and virial both kernels sum per chunk.  Lanes travel as *ids*, their
flat positions in the list's ``(M, 4, 4)`` tiles (int32).

A list's first evaluation builds no lane panels.  At the list's build
positions it streams only the *listed* lanes, the valid lanes inside
the pair search's lane mask (`listed_lanes`); elsewhere (a list rebuilt
from a checkpoint's reference positions) it streams every valid lane.
Both select the same lanes, exactly: the mask holds every lane whose
float64 build-position ``r`` is below ``rlist + MASK_PAD``, a float32
fold of those positions moves ``r`` by at most ``_FOLD_SLACK`` per nm
of box edge (about 5e-6 nm in a 3.6 nm box, 4e-7 nm measured), and the
listed stream is taken only when ``r_keep`` plus that slack lies within
``rlist + MASK_PAD`` (`_first_lanes`), so no lane outside the stream
can fall within ``r_keep``, let alone the cutoff.  Its scan keeps the
ids of the lanes within ``r_keep`` as a pending selection; only an
evaluation at other positions fills the kept-lane panels from those
ids and streams them, so a list evaluated once (a serve batch, a
warmup) never pays for them.  Kept-lane buffer sets outlive their list
in the owner's pool (`retire_panels`): the next list's first evaluation
borrows one for its outputs and its fill takes one.  Forces, energy and
virial are grouped by the reference's ``chunk_pairs`` chunks, so they
stay bit-identical above one chunk too.

Implementation selection: ``REPRO_KERNEL`` is the one switch, read
only by ``resolve_kernel_impl``; it defaults to ``"vectorized"``, and
``REPRO_KERNEL=scalar`` selects the reference loops, the bit-identity
oracle the tests compare against.  ``compute_short_range_impl``
resolves it on every evaluation; the two impls are bit-identical, so
no caller, config or cache key needs to name one.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from repro.core.deferred import replay_write_trace
from repro.core.packing import package_views
from repro.core.shuffle import transpose_4x3
from repro.hw.simd import FloatV4, LANES, OpCounter
from repro.md.box import minimum_image_fold
from repro.md.forces import ShortRangeResult, compute_short_range
from repro.md.nonbonded import (
    COULOMB_CONSTANT,
    NonbondedParams,
    pair_force_energy,
)
from repro.md.pairlist import (
    CLUSTER_SIZE,
    LANE_BLOCK,
    MASK_PAD,
    TILE_LANE_I,
    TILE_LANE_J,
    ClusterPairList,
    unpack_lanes,
)
from repro.md.system import ParticleSystem
from repro.parallel.pool import as_input
from repro.trace.events import CAT_COMPUTE, TraceEvent

KERNEL_IMPLS = ("scalar", "vectorized")


def resolve_kernel_impl(impl: str | None = None) -> str:
    """Resolve a kernel implementation name.

    An explicit name is validated and returned; None reads the
    ``REPRO_KERNEL`` environment variable, else ``"vectorized"``
    (``"scalar"`` selects the bit-identity reference).
    """
    if impl is None:
        impl = os.environ.get("REPRO_KERNEL", "").strip() or "vectorized"
    impl = str(impl).lower()
    if impl not in KERNEL_IMPLS:
        raise ValueError(
            f"unknown kernel impl {impl!r}; expected one of {KERNEL_IMPLS}"
        )
    return impl


def _simd_shuffles_per_pair() -> int:
    """Shuffles the Fig. 7 post-treatment issues per cluster pair.

    Derived by probing one transpose rather than hard-coding 6, so the
    replayed counter tracks the shuffle implementation by construction.
    """
    probe = OpCounter()
    zero = np.zeros(LANES, dtype=np.float32)
    transpose_4x3(
        FloatV4(zero, probe), FloatV4(zero, probe), FloatV4(zero, probe), probe
    )
    return probe.shuffle


def walk_fidelity_partition_vectorized(task):
    """Batched equivalent of ``_walk_fidelity_partition``.

    Processes every cluster pair of the partition at once: struct-of-
    arrays package views feed one ``(n_pairs, 4, 4)`` interaction batch,
    forces scatter-add grouped by i-cluster and j-cluster, and the
    DeferredUpdateCache / bitmap / shuffle counters are replayed from
    the write trace (`repro.core.deferred.replay_write_trace`).  Returns
    the same ``_FidelityResult`` the scalar walk does, bit for bit.
    """
    from repro.core.kernels import _compute_cycles, _FidelityResult

    spec, params, nb_params = task.spec, task.params, task.nb_params
    pos = as_input(task.positions)
    q = as_input(task.charges)
    types = as_input(task.types)
    mols = as_input(task.mols)
    real = as_input(task.real)
    c6_tab = as_input(task.c6_table)
    c12_tab = as_input(task.c12_table)
    box_arr = task.box

    n_local = task.hi - task.lo
    counts = np.diff(np.asarray(task.i_starts, dtype=np.int64))
    cj = np.asarray(task.pair_cj, dtype=np.int64)
    m = int(cj.size)
    # Absolute i-cluster of each pair (pairs of one cluster are contiguous).
    ci_abs = task.lo + np.repeat(np.arange(n_local, dtype=np.int64), counts)
    pair_k = ci_abs - task.lo

    pos_cl, q_cl, t_cl, mol_cl, real_cl = package_views(
        pos, q, types, mols, real
    )

    # ---- one batched 4x4 tile evaluation over all pairs --------------------
    dr = pos_cl[ci_abs][:, :, None, :] - pos_cl[cj][:, None, :, :]
    dr = dr - box_arr * np.round(dr / box_arr)
    r2 = np.sum(dr * dr, axis=-1)
    valid = (
        real_cl[ci_abs][:, :, None]
        & real_cl[cj][:, None, :]
        & (mol_cl[ci_abs][:, :, None] != mol_cl[cj][:, None, :])
    )
    diag = ci_abs == cj
    if diag.any():
        lane = np.arange(CLUSTER_SIZE)
        if task.half:
            valid[diag] &= lane[:, None] < lane[None, :]
        else:
            valid[diag] &= lane[:, None] != lane[None, :]
    qq = q_cl[ci_abs][:, :, None] * q_cl[cj][:, None, :]
    ti = t_cl[ci_abs]
    tj = t_cl[cj]
    c6 = c6_tab[ti[:, :, None], tj[:, None, :]]
    c12 = c12_tab[ti[:, :, None], tj[:, None, :]]
    f_scalar, e = pair_force_energy(r2, qq, c6, c12, nb_params, mask=valid)

    # Energy: strict sequential accumulation in pair order (cumsum), each
    # term the same float64 tile sum the scalar walk adds.
    pair_e = e.sum(axis=(1, 2), dtype=np.float64)
    energy = float(np.cumsum(pair_e)[-1]) if pair_e.size else 0.0

    fvec = f_scalar[..., None] * dr
    # i-side per-pair package sums; the Fig. 7 transpose is a value
    # identity, so the SIMD and scalar variants accumulate the same f32.
    fsum_i = fvec.sum(axis=2)
    fi_acc = np.zeros((n_local, CLUSTER_SIZE, 3), dtype=np.float32)
    np.add.at(fi_acc, pair_k, fsum_i)
    shuffles = _simd_shuffles_per_pair() * m if spec.simd else 0

    # ---- write-trace replay ------------------------------------------------
    # The scalar walk accumulates, per i-cluster: each j package, then the
    # i package (always, even with zero pairs).  Rebuild that exact trace
    # and contribution sequence, then replay it through the cache model.
    i_vals = np.arange(task.lo, task.hi, dtype=np.int64)
    if task.half:
        insert_at = np.cumsum(counts)
        trace = np.insert(cj, insert_at, i_vals)
        contribs = np.insert(-fvec.sum(axis=1), insert_at, fi_acc, axis=0)
    else:
        trace = i_vals
        contribs = fi_acc
    copy = np.zeros((task.padded_slots, 3), dtype=np.float32)
    mark, wstats = replay_write_trace(
        trace, contribs, copy, params, use_mark=spec.mark
    )

    events: list[TraceEvent] = []
    if task.traced:
        n_pairs = int(task.i_starts[-1])
        events.append(
            TraceEvent(
                "fidelity_walk",
                CAT_COMPUTE,
                task.cpe,
                0.0,
                _compute_cycles(spec, n_pairs, params),
                {"cluster_pairs": n_pairs},
            )
        )
    return _FidelityResult(
        cpe=task.cpe,
        copy=copy,
        mark=mark if spec.mark else None,
        energy=energy,
        write_misses=wstats.misses,
        write_puts=wstats.puts,
        write_gets=wstats.gets,
        write_first_touches=wstats.first_touches,
        shuffles=shuffles,
        events=events,
    )


# ---------------------------------------------------------------------------
# Per-step short-range evaluation over pruned lanes.
# ---------------------------------------------------------------------------

#: Prune radius margin (nm) beyond ``r_cut`` for the kept lane set.
#: Wider keeps more lanes (every step folds and compacts them all);
#: narrower keeps fewer but trips the drift guard sooner, at
#: ``2*max_displacement > PRUNE_MARGIN``.  Chosen by measurement against
#: 0.2 nm (CHANGES.md): at 0.1 nm the 1500-water list keeps 313k lanes
#: instead of 397k.  With the shipped 0.1 nm Verlet buffer the guard
#: and the minimiser's buffer check (``2*max_move <= r_list - r_cut``)
#: fire at the same displacement, up to rounding.  The keep radius may
#: exceed ``r_list``: correctness only needs the kept set to be a
#: superset of every lane that can come inside ``r_cut`` before the
#: guard re-anchors.
PRUNE_MARGIN = 0.10

#: Per-lane pair constants: ``felec*qq``, ``c6``, ``c12`` and, with
#: ``shift_lj``, the LJ shift energy ``se``.  ``6*c6`` and ``12*c12``
#: are formed per block in the pair kernel's scratch, not kept.
_CONSTS = ("fqq", "c6", "c12", "se")


def _const_names(params: NonbondedParams) -> tuple[str, ...]:
    return _CONSTS if params.shift_lj else _CONSTS[:-1]


def valid_lanes(
    system: ParticleSystem, plist: ClusterPairList, panels: dict | None = None
) -> np.ndarray:
    """Flat full-lane index (int32) of every topology-valid tile lane.

    The lanes the reference mask (`tile_validity`) keeps, as positions
    in the flattened ``(M, 4, 4)`` tile block (a lane's *id*); slot
    pairs and pair constants are derived from them on demand
    (:func:`_lane_slots`).  Built block by block from per-cluster rows:
    each cluster's ``real`` and molecule-id row is laid out once as an i
    side and a j side of a tile's 16 lanes (`TILE_LANE_I`,
    `TILE_LANE_J`), so a block's ``(m, 16)`` tile masks are row gathers
    and flat compares; a diagonal tile also takes the constant 4x4
    triangle (``a < b`` on a half list, ``a != b`` on a full one).
    Nothing here depends on positions; a drift-guard re-anchor scans
    these lanes.  Memoised in ``panels``, the caller's per-list panel
    memo (None: no reuse).
    """
    return _memo_lanes(system, plist, panels, "lanes")


def listed_lanes(
    system: ParticleSystem, plist: ClusterPairList, panels: dict | None = None
) -> np.ndarray:
    """The `valid_lanes` whose bit is set in the list's lane mask
    (`ClusterPairList.lane_mask`): the valid lanes the pair search found
    within ``rlist + MASK_PAD`` at the build positions.  Built in the
    same block loop (one more AND per block) and memoised beside it
    until the panels are filled."""
    return _memo_lanes(system, plist, panels, "listed")


def _memo_lanes(
    system: ParticleSystem, plist: ClusterPairList, panels: dict | None, key: str
) -> np.ndarray:
    if panels is not None and key in panels:
        return panels[key]
    lanes = _lanes(system, plist, listed=key == "listed")
    if panels is not None:
        panels[key] = lanes
    return lanes


def _lanes(
    system: ParticleSystem, plist: ClusterPairList, listed: bool
) -> np.ndarray:
    mol = plist.gather(system.topology.mol_ids, fill=-1).reshape(-1, CLUSTER_SIZE)
    real = plist.real.reshape(-1, CLUSTER_SIZE)
    # np.take keeps the 16-lane rows C-contiguous (``mol[:, lanes]``
    # would not), so each block gathers whole rows.
    mol_i = np.take(mol, TILE_LANE_I, axis=1)
    mol_j = np.take(mol, TILE_LANE_J, axis=1)
    real_i = np.take(real, TILE_LANE_I, axis=1)
    real_j = np.take(real, TILE_LANE_J, axis=1)
    tri = TILE_LANE_I < TILE_LANE_J if plist.half else TILE_LANE_I != TILE_LANE_J
    tile = CLUSTER_SIZE * CLUSTER_SIZE
    m_total = plist.n_cluster_pairs
    lanes = np.empty(m_total * tile, dtype=np.int32)
    k = 0
    step = max(1, LANE_BLOCK // tile)
    for lo in range(0, m_total, step):
        ci = plist.pair_ci[lo : lo + step]
        cj = plist.pair_cj[lo : lo + step]
        valid = real_i[ci]
        valid &= real_j[cj]
        valid &= mol_i[ci] != mol_j[cj]
        valid[ci == cj] &= tri
        if listed:
            valid &= unpack_lanes(plist.lane_mask[lo : lo + step])
        hit = np.flatnonzero(valid)
        hit += lo * tile
        lanes[k : k + len(hit)] = hit
        k += len(hit)
    return lanes[:k]


def _lane_slots(
    plist: ClusterPairList, lanes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(slot_i, slot_j)`` of flat tile lanes — `tile_indices`' layout
    inverted: lane ``m*16 + a*4 + b`` pairs slot ``4*ci[m] + a`` with
    slot ``4*cj[m] + b`` (shifts and masks, as ``CLUSTER_SIZE`` is 4).
    The slots are int64, numpy's index type, so gathers take them as
    they are."""
    tile = lanes >> 4
    four = np.int64(CLUSTER_SIZE)
    return (
        np.take(plist.pair_ci, tile) * four + ((lanes >> 2) & 3),
        np.take(plist.pair_cj, tile) * four + (lanes & 3),
    )


def _chunk_cuts(
    lanes: np.ndarray, chunk_lanes: int, plist: ClusterPairList
) -> np.ndarray:
    """Where the reference's chunks after the first start in ``lanes``
    (ascending full-lane positions): each chunk holds ``chunk_lanes``
    full lanes (``chunk_pairs`` tiles)."""
    n_lanes = plist.n_cluster_pairs * CLUSTER_SIZE * CLUSTER_SIZE
    bounds = np.arange(chunk_lanes, n_lanes, chunk_lanes, dtype=lanes.dtype)
    return np.searchsorted(lanes, bounds)  # same dtype: no copy of lanes


def _segments(cuts: np.ndarray, n: int) -> list[tuple[int, int]]:
    """Ranges ``(a, z)`` of a lane stream of length ``n``, one per
    reference chunk, cut at ``cuts``."""
    ends = [0, *cuts.tolist(), n]
    return list(zip(ends[:-1], ends[1:]))


class _Scratch:
    """Temporaries of one lane block, allocated per call: the fold's
    ``dr`` (``d``) and ``r2``, the in-cutoff lanes compacted out of them
    (``c``: ``r2`` and ``dr``) with their pair constants (``k``), the
    pair kernel's temporaries (``t``) and two masks."""

    def __init__(self, n: int, dtype) -> None:
        self.d = np.empty((3, n), dtype=dtype)
        self.r2 = np.empty(n, dtype=dtype)
        self.t = np.empty((9, n), dtype=dtype)
        self.mask = np.empty((2, n), dtype=bool)
        self.c = np.empty((4, n), dtype=dtype)
        self.k = {name: np.empty(n, dtype=dtype) for name in _CONSTS}


def _mapped(shape, dtype) -> np.ndarray:
    """``np.empty(shape, dtype)`` in an anonymous mapping of its own.

    For outputs sized for a whole lane stream but written only in part:
    pages never written are never resident, and freeing the array
    unmaps them all.  Taken from numpy's allocator, such an array is
    carved from the malloc heap once earlier frees have raised glibc's
    mmap threshold; freed there, its unwritten rest is written by later
    allocations, which lifted a long-lived serve worker's peak RSS by
    up to 10-12 %.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))
    return np.frombuffer(buf, dtype, count=count).reshape(shape)


def _outputs(n: int, dtype, half: bool, empty=np.empty) -> dict:
    """Compact outputs of an evaluation over a stream of ``n`` lanes,
    with room for every lane though only the in-cutoff ones are written:
    their i (and, on a half list, j) scatter slots (``idx``, int64, laid
    out by `_evaluate`), the float64 weight buffer x, y and z take in
    turn (``wb``), the force components (``fvec``), energies (``ec``)
    and float64 ``f*r2`` (``wc``).  ``empty`` allocates them."""
    return {
        "idx": empty(2 * n if half else n, np.int64),
        "wb": empty(2 * n if half else n, np.float64),
        "fvec": empty((3, n), dtype),
        "ec": empty(n, dtype),
        "wc": empty(n, np.float64),
    }


#: Key of the owner's buffer pool in a per-list panel memo: a dict,
#: shared by every memo of one owner (`repro.core.stepcache.StepCache`),
#: of kept-lane buffer sets that dead lists left behind, one per
#: `_pool_key`.
POOL = "pool"


def _pool_key(dtype, half: bool, params: NonbondedParams) -> tuple:
    """What a kept-lane buffer set's layout depends on."""
    return (np.dtype(dtype).str, half, params.shift_lj)


def _lane_buffers(cap: int, dtype, half: bool, params: NonbondedParams) -> dict:
    """One kept-lane buffer set of capacity ``cap``: the compact outputs
    (`_outputs`), the slots (``sidx``) and the pair constants, each an
    anonymous mapping (`_mapped`), so the pages a list never writes are
    never resident."""
    bufs = _outputs(cap, dtype, half, _mapped)
    bufs["sidx"] = _mapped((2, cap), np.int64)
    for name in _const_names(params):
        bufs[name] = _mapped(cap, dtype)
    return bufs


def _pooled(pool: dict | None, key: tuple, n: int) -> dict | None:
    """Take the buffer set pooled under ``key``: the set if it holds
    ``n`` lanes, else None (a smaller set is dropped)."""
    bufs = pool.pop(key, None) if pool else None
    return bufs if bufs is not None and len(bufs["ec"]) >= n else None


def retire_panels(panels: dict, pool: dict) -> None:
    """Move the kept-lane buffer sets of a dead list's ``panels`` into
    ``pool`` (the larger set per `_pool_key`), for the next list's first
    evaluation and fill.  Only an owner that invalidates every list at
    once calls this, so no two live panel sets ever share a buffer."""
    for cp in panels.values():
        if isinstance(cp, CompactPanels) and cp.bufs:
            held = pool.get(cp.pool_key)
            if held is None or len(held["ec"]) < cp.cap:
                pool[cp.pool_key] = cp.bufs
            cp.bufs = {}


def _slot_tables(
    system: ParticleSystem, plist: ClusterPairList, dtype
) -> tuple[np.ndarray, ...]:
    """Per-slot charges, LJ table row offsets and types, plus the
    flattened LJ tables, for :func:`_pair_constants`."""
    topo = system.topology
    types = plist.gather(topo.type_ids).astype(np.int64)
    return (
        plist.gather(system.charges).astype(dtype),
        types * topo.c6_table.shape[1],
        types,
        topo.c6_table.astype(dtype).ravel(),
        topo.c12_table.astype(dtype).ravel(),
    )


def _pair_constants(
    tables: tuple[np.ndarray, ...],
    vi: np.ndarray,
    vj: np.ndarray,
    out: dict,
    lo: int,
    params: NonbondedParams,
    t: np.ndarray,
) -> None:
    """Pair constants (`_CONSTS`) of lanes ``(vi, vj)`` into
    ``out[name][lo:lo+len(vi)]``; ``t`` is scratch of that length.

    Exactly as the reference tiles form them (elementwise, so gathering
    to a lane subset first is exact), with ``felec*qq`` and the LJ shift
    hoisted out of the pair kernel: they commute bit for bit with its
    in-kernel order.
    """
    q, type_row, types, c6_flat, c12_flat = tables
    dt = q.dtype.type
    hi = lo + len(vi)
    fqq = out["fqq"][lo:hi]
    np.take(q, vi, out=fqq)
    fqq *= np.take(q, vj)
    fqq *= dt(COULOMB_CONSTANT)
    pair_type = np.take(type_row, vi)
    pair_type += np.take(types, vj)
    c6, c12 = out["c6"][lo:hi], out["c12"][lo:hi]
    np.take(c6_flat, pair_type, out=c6)
    np.take(c12_flat, pair_type, out=c12)
    if params.shift_lj:
        # lj_shift_energy, in place: ((c12*inv6)*inv6) - (c6*inv6).
        inv6 = (1.0 / params.r_cut) ** 6
        se = out["se"][lo:hi]
        np.multiply(c12, inv6, out=se)
        se *= inv6
        np.multiply(c6, inv6, out=t)
        se -= t


@dataclass
class CompactPanels:
    """Pruned lane data for the per-step fast path.

    The kept lanes are the tile entries that are topology-valid *and*
    within ``r_keep = r_cut + PRUNE_MARGIN`` of each other at
    ``anchor_pos``.  A list's first evaluation only selects them
    (``sel``); the next evaluation at other positions fills the
    kept-lane buffers from that selection at ``anchor_pos``, and each
    drift-guard re-anchor selects and fills again.  A pruned lane lies
    outside the cutoff, where it contributes exact zeros to the forces
    and nothing to energy or virial, so dropping it never changes a bit.
    """

    #: Kept-lane arrays at capacity ``cap``, consumed as ``[:n_kept]``
    #: views, so a re-anchor refills in place instead of reallocating
    #: (large numpy frees go straight back to the OS, so reallocation
    #: costs a page-fault storm every refresh).  Per kept lane: the i
    #: and j slots (int64 rows of ``sidx``, fed to the fold), the pair
    #: constants (`_CONSTS`) and room for a steady evaluation's compact
    #: outputs (`_outputs`).  Empty until the first fill.
    bufs: dict = field(repr=False)
    cap: int
    n_kept: int
    f_sorted: np.ndarray = field(repr=False)
    anchor_pos: np.ndarray = field(repr=False)
    r_keep: float
    half: bool
    #: Full lanes per reference chunk (``chunk_pairs`` tiles).
    chunk_lanes: int
    #: The kept lanes' chunk ranges (`_segments`), set by each fill.
    segs: list = field(default_factory=list)
    #: The owner's pool key of the buffer set (`_pool_key`).
    pool_key: tuple = ()
    #: A selection waiting for its fill: the ids (flat tile positions,
    #: int32, ascending) of the lanes kept at ``anchor_pos``.  None once
    #: filled.
    sel: np.ndarray | None = field(default=None, repr=False)

    # Named views for tests; the hot path slices ``bufs`` directly.
    @property
    def idx_i(self) -> np.ndarray:
        return self.bufs["sidx"][0, : self.n_kept]

    @property
    def idx_j(self) -> np.ndarray:
        return self.bufs["sidx"][1, : self.n_kept]

    @property
    def c6(self) -> np.ndarray:
        return self.bufs["c6"][: self.n_kept]

    @property
    def c12(self) -> np.ndarray:
        return self.bufs["c12"][: self.n_kept]


def _new_panels(
    plist: ClusterPairList,
    params: NonbondedParams,
    pos: np.ndarray,
    chunk_pairs: int,
) -> CompactPanels:
    """Empty panels for ``plist`` anchored at ``pos`` (nothing kept yet)."""
    return CompactPanels(
        bufs={},
        cap=0,
        n_kept=0,
        f_sorted=np.empty((plist.n_slots, 3), dtype=np.float64),
        anchor_pos=pos.copy(),
        r_keep=params.r_cut + PRUNE_MARGIN,
        half=plist.half,
        chunk_lanes=chunk_pairs * CLUSTER_SIZE * CLUSTER_SIZE,
        pool_key=_pool_key(pos.dtype, plist.half, params),
    )


def _select(
    cp: CompactPanels, plist: ClusterPairList, pos: np.ndarray, lanes: np.ndarray
) -> None:
    """Re-anchor ``cp`` at ``pos``: the ``lanes`` (every valid lane)
    within ``r_keep`` there become its pending selection (their ids), by
    one rounded fold per lane, block by block."""
    pcols = np.ascontiguousarray(pos.T)
    box_arr = plist.box.array.astype(pos.dtype)
    keep2 = pos.dtype.type(cp.r_keep) ** 2
    block = max(1, min(LANE_BLOCK, len(lanes)))
    s = _Scratch(block, pos.dtype)
    sel = np.empty(len(lanes), dtype=np.int32)
    k = 0
    for lo in range(0, len(lanes), block):
        ids = lanes[lo : lo + block]
        vi, vj = _lane_slots(plist, ids)
        r2 = minimum_image_fold(pcols, box_arr, vi, vj, s.d, s.r2, s.t[0])
        near = np.flatnonzero(r2 < keep2)
        np.take(ids, near, out=sel[k : k + len(near)])
        k += len(near)
    cp.sel = sel[:k]
    np.copyto(cp.anchor_pos, pos)


def _fill(
    cp: CompactPanels,
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    panels: dict | None,
) -> None:
    """Fill the kept-lane buffers from the pending selection: slots and
    pair constants (neither depends on positions), and the kept lanes'
    chunk ranges, all from the selected lane ids.

    When the kept set outgrows the capacity, the old buffers are
    released first; the owner's pooled set (``panels[POOL]``) is taken
    when it holds the kept set, else a set is allocated with room to
    spare, so a growth never holds two sets at once.
    """
    dtype = cp.anchor_pos.dtype
    sel, cp.sel = cp.sel, None
    k = len(sel)
    if panels is not None:
        panels.pop("listed", None)  # read by first evaluations only
    if not cp.bufs or k > cp.cap:
        cp.bufs = {}
        pooled = _pooled(panels and panels.get(POOL), cp.pool_key, k)
        if pooled is None:
            pooled = _lane_buffers(k + (k >> 4) + 1024, dtype, cp.half, params)
        cp.bufs, cp.cap = pooled, len(pooled["ec"])
    cp.n_kept = k
    cp.segs = _segments(_chunk_cuts(sel, cp.chunk_lanes, plist), k)

    b = cp.bufs
    tables = _slot_tables(system, plist, dtype)
    block = max(1, min(LANE_BLOCK, k))
    scratch = np.empty(block, dtype=dtype)
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        vi, vj = _lane_slots(plist, sel[lo:hi])
        b["sidx"][0, lo:hi] = vi
        b["sidx"][1, lo:hi] = vj
        _pair_constants(tables, vi, vj, b, lo, params, scratch[: hi - lo])


def _panel_key(dtype, params: NonbondedParams, chunk_pairs: int) -> tuple:
    # Different cutoffs never share a lane set, and the chunk size fixes
    # the kept lanes' chunk ranges.
    return ("compact", np.dtype(dtype).str, params, chunk_pairs)


def _pair_terms_compact(
    r2: np.ndarray,
    k: dict,
    s: _Scratch,
    params: NonbondedParams,
) -> tuple[np.ndarray, np.ndarray]:
    """`pair_force_energy` over in-cutoff lanes (every ``r2`` lies in
    ``(0, r_cut**2)``), with pair constants ``k[name][:len(r2)]``
    (`_CONSTS`), in place.

    Performs the same floating-point operations in the same association
    order as :func:`repro.md.nonbonded.pair_force_energy` does on a lane
    inside its cutoff mask, with the step-invariant factors
    (``felec*qq``, the LJ shift) taken pre-multiplied from ``k`` —
    products that commute bit-for-bit — and ``12*c12``, ``6*c6`` formed
    per block in scratch, so the force is
    ``((12*c12)*inv_r6)*inv_r6 - (6*c6)*inv_r6`` as there.  Outputs are
    views into the scratch ``s`` and bitwise equal to the reference lane
    for lane (test-enforced on random inputs for every coulomb mode).
    """
    dt = r2.dtype.type
    n = len(r2)
    inv_r2, inv_r6, e_lj, f_lj, t6, t7, t8, t9, t10 = (t[:n] for t in s.t)
    c6, c12, fqq = k["c6"][:n], k["c12"][:n], k["fqq"][:n]

    np.divide(dt(1.0), r2, out=inv_r2)
    np.multiply(inv_r2, inv_r2, out=inv_r6)
    inv_r6 *= inv_r2

    np.multiply(c12, inv_r6, out=e_lj)
    e_lj *= inv_r6
    np.multiply(c6, inv_r6, out=t6)
    e_lj -= t6
    if params.shift_lj:
        e_lj -= k["se"][:n]
    np.multiply(c12, dt(12.0), out=f_lj)
    f_lj *= inv_r6
    f_lj *= inv_r6
    np.multiply(c6, dt(6.0), out=t6)
    t6 *= inv_r6
    f_lj -= t6
    f_lj *= inv_r2

    if params.coulomb_mode == "none":
        # The reference adds all-zero coulomb arrays; ``x + 0.0`` is the
        # same elementwise operation.
        e_lj += dt(0.0)
        f_lj += dt(0.0)
        return f_lj, e_lj
    inv_r = t6
    np.sqrt(inv_r2, out=inv_r)
    if params.coulomb_mode == "cut":
        np.multiply(fqq, inv_r, out=t7)  # e_coul
        np.multiply(t7, inv_r2, out=t8)  # f_coul
    elif params.coulomb_mode == "rf":
        krf = dt(params.krf)
        np.multiply(krf, r2, out=t7)
        np.add(inv_r, t7, out=t7)
        t7 -= dt(params.crf)
        np.multiply(fqq, t7, out=t7)  # e_coul
        np.multiply(inv_r, inv_r2, out=t8)
        t8 -= dt(2.0) * krf
        np.multiply(fqq, t8, out=t8)  # f_coul
    else:  # ewald real space
        r = t8
        np.sqrt(r2, out=r)
        r *= dt(params.ewald_beta)
        erfc_br = erfc(r, out=t9)
        np.multiply(r, r, out=t10)
        np.negative(t10, out=t10)
        gauss = np.exp(t10, out=t10)
        np.multiply(fqq, erfc_br, out=t7)
        t7 *= inv_r  # e_coul
        np.multiply(erfc_br, inv_r, out=t8)  # r is dead; reuse t8
        gauss *= dt(2.0 * params.ewald_beta / np.sqrt(np.pi))
        t8 += gauss
        np.multiply(fqq, t8, out=t8)
        t8 *= inv_r2  # f_coul
    f_lj += t8
    e_lj += t7
    return f_lj, e_lj


#: Bound, per nm of the longest box edge, on how far a float32 fold's
#: ``r`` can lie from the float64 fold of the same float64 positions:
#: about ``5 eps`` (the cast of both positions and the edge, and the
#: subtraction, division and image subtraction, each within half an ulp
#: of ``L``, over three coordinates), taken with a margin of three.
_FOLD_SLACK = 16 * float(np.finfo(np.float32).eps)


def _first_lanes(
    system: ParticleSystem,
    plist: ClusterPairList,
    cp: CompactPanels,
    cur: np.ndarray,
    panels: dict | None,
) -> np.ndarray:
    """The lanes a first evaluation at sorted positions ``cur`` (float64)
    streams: the `listed_lanes` when ``cur`` are the list's build
    positions and its lane mask holds every lane the kernel's own fold
    can place within ``r_keep`` (``r_keep`` plus the fold's slack within
    ``rlist + MASK_PAD``); otherwise every valid lane, as after a
    restart that rebuilds a list from a checkpoint's reference
    positions.  Either stream selects the same kept lanes and the same
    in-cutoff lanes, as a lane outside both is outside ``r_keep``."""
    slack = _FOLD_SLACK * float(plist.box.array.max())
    if (
        plist.lane_mask is not None
        and cp.r_keep + slack <= plist.rlist + MASK_PAD
        and np.array_equal(cur, plist.sorted_positions)
    ):
        return listed_lanes(system, plist, panels)
    return valid_lanes(system, plist, panels)


def _drift2_max(
    pos: np.ndarray, anchor: np.ndarray, box_arr: np.ndarray
) -> float:
    """Largest squared particle displacement since the panel anchor.

    Displacements are minimum-imaged so a particle wrapping across the
    periodic boundary does not read as a box-length jump.
    """
    if not len(pos):
        return 0.0
    delta = pos - anchor
    delta -= box_arr * np.round(delta / box_arr)
    return float(np.einsum("ij,ij->i", delta, delta).max())


def _evaluate(
    cp: CompactPanels,
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    pos: np.ndarray,
    lanes: np.ndarray | None = None,
    pool: dict | None = None,
) -> ShortRangeResult:
    """Evaluate at ``pos`` over a lane stream, block by block.

    The stream is ``lanes`` on a list's first evaluation (`_first_lanes`),
    whose scan also selects the ids of the lanes within ``r_keep`` as
    ``cp``'s pending selection anchored at ``pos`` (as `_select` does);
    or, for None, the filled kept lanes.
    Per block: one rounded fold (the reference's, so ``r2`` equals its),
    then only the lanes with ``0 < r2 < r_cut**2`` go on.  Their ``r2``,
    ``dr``, slots and pair constants (derived from the slot tables on a
    scan, gathered from the kept lanes' after a fill) are compacted, the
    pair kernel runs on them, and their energies, float64 ``f*r2`` and
    force components land in lane order in compact outputs (`_outputs`:
    sized for the stream, of which only the written part touches
    memory).  A first evaluation borrows the owner's pooled buffer set
    (``pool``) for them when it is large enough and returns it after
    `_finish`, else maps temporaries of its own (`_mapped`).  Blocks
    never cross a reference chunk.  The scatter slots are laid out per
    chunk as its i slots, then its j slots.
    """
    dt = pos.dtype.type
    borrowed = None
    if lanes is not None:
        n = len(lanes)
        segs = _segments(_chunk_cuts(lanes, cp.chunk_lanes, plist), n)
        tables = _slot_tables(system, plist, pos.dtype)
        out = borrowed = _pooled(pool, cp.pool_key, n)
        if out is None:
            out = _outputs(n, pos.dtype, cp.half, _mapped)
        sel = np.empty(n, dtype=np.int32)
        keep2 = dt(cp.r_keep) ** 2
    else:
        n, segs, out = cp.n_kept, cp.segs, cp.bufs
        kept = [(name, out[name]) for name in _const_names(params)]
    idx, fvec, ec, wc = out["idx"], out["fvec"], out["ec"], out["wc"]
    # A chunk's j slots wait in the weight buffer (unused until
    # `_finish`) and move behind its i slots when the chunk ends.
    jdx = out["wb"].view(np.int64)
    pcols = np.ascontiguousarray(pos.T)
    box_arr = plist.box.array.astype(pos.dtype)
    cut2 = dt(params.r_cut) ** 2
    block = max(1, min(LANE_BLOCK, n))
    s = _Scratch(block, pos.dtype)
    chunks = []
    c = n_sel = n_in_cutoff = 0
    for a, z in segs:
        c0 = c
        ib = c0 if cp.half else 0  # compact lane x has its i slot at ib + x
        for lo in range(a, z, block):
            hi = min(lo + block, z)
            if lanes is not None:
                ids = lanes[lo:hi]
                vi, vj = _lane_slots(plist, ids)
            else:
                vi, vj = out["sidx"][0, lo:hi], out["sidx"][1, lo:hi]
            r2 = minimum_image_fold(pcols, box_arr, vi, vj, s.d, s.r2, s.t[0])
            if lanes is not None:
                near = np.flatnonzero(r2 < keep2)
                np.take(ids, near, out=sel[n_sel : n_sel + len(near)])
                n_sel += len(near)
            inside, positive = s.mask[0, : hi - lo], s.mask[1, : hi - lo]
            np.less(r2, cut2, out=inside)
            np.greater(r2, dt(0.0), out=positive)
            inside &= positive
            hit = np.flatnonzero(inside)
            h = len(hit)
            ci, cj = idx[ib + c : ib + c + h], jdx[c : c + h]
            np.take(vi, hit, out=ci)
            np.take(vj, hit, out=cj)
            cr2 = s.c[0, :h]
            np.take(r2, hit, out=cr2)
            for d in range(3):
                np.take(s.d[d], hit, out=s.c[1 + d, :h])
            if lanes is not None:
                _pair_constants(tables, ci, cj, s.k, 0, params, s.t[0, :h])
            else:
                for name, arr in kept:
                    np.take(arr[lo:hi], hit, out=s.k[name][:h])
            f_scalar, e = _pair_terms_compact(cr2, s.k, s, params)
            n_in_cutoff += int(np.count_nonzero(f_scalar))
            ec[c : c + h] = e
            np.multiply(f_scalar, cr2, out=wc[c : c + h], dtype=np.float64)
            for d in range(3):
                np.multiply(f_scalar, s.c[1 + d, :h], out=fvec[d, c : c + h])
            c += h
        if cp.half:
            idx[c0 + c : 2 * c] = jdx[c0:c]
        chunks.append((c0, c))
    if lanes is not None:
        cp.sel = sel[:n_sel]
        np.copyto(cp.anchor_pos, pos)
    result = _finish(system, plist, cp, out, chunks, n_in_cutoff)
    if borrowed is not None:
        pool[cp.pool_key] = borrowed
    return result


def _finish(
    system: ParticleSystem,
    plist: ClusterPairList,
    cp: CompactPanels,
    out: dict,
    chunks: list[tuple[int, int]],
    n_in_cutoff: int,
) -> ShortRangeResult:
    """The result of the compact lanes just evaluated (`_evaluate`),
    grouped as the reference groups it: ``chunks`` are their ranges per
    reference chunk.

    One ``np.bincount`` per component over weights laid out as the
    slots are (``wb``, float64) reproduces the reference's sequential
    ``np.add.at`` passes bit for bit: per slot, each chunk's i
    contributions, then its j contributions, chunk by chunk (a lane left
    out contributed exact zeros, and a zero weight never changes a
    slot).  A full list scatters i slots only, in lane order.  Energy
    and virial sum each chunk's range in float64 (the reference's tree
    over the same in-cutoff lanes) and add the chunk sums in order.
    """
    n = chunks[-1][1]
    idx = out["idx"][: 2 * n if plist.half else n]
    wb = out["wb"][: len(idx)]
    for d in range(3):
        f = out["fvec"][d]
        if plist.half:
            for a, z in chunks:
                np.copyto(wb[2 * a : a + z], f[a:z])
                np.negative(f[a:z], out=wb[a + z : 2 * z])
        else:
            np.copyto(wb, f[:n])
        cp.f_sorted[:, d] = np.bincount(idx, weights=wb, minlength=plist.n_slots)
    forces = np.zeros((system.n_particles, 3), dtype=np.float64)
    plist.scatter_add(forces, cp.f_sorted)

    energy = virial = 0.0
    for a, z in chunks:
        energy += float(out["ec"][a:z].sum(dtype=np.float64))
        virial += float(out["wc"][a:z].sum())
    if not plist.half:
        energy *= 0.5
        virial *= 0.5
    return ShortRangeResult(
        forces=forces,
        energy=energy,
        n_pairs_in_cutoff=n_in_cutoff,
        virial=virial,
    )


def compute_short_range_vectorized(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    chunk_pairs: int = 65536,
    panels: dict | None = None,
) -> ShortRangeResult:
    """Pruned-lane `compute_short_range`, bit-identical for lists of
    any size, with lane panels memoised in ``panels`` (the caller's
    per-list memo; None evaluates without keeping any).

    * **First evaluation** — ``panels`` holds no panels for this dtype,
      these params and this ``chunk_pairs`` (or is None), or holds a
      pending selection anchored at these very positions: the stream is
      the listed lanes at the list's build positions, else every valid
      lane (`_first_lanes`), and its scan keeps the ids of the lanes
      within ``r_keep`` as a pending selection (one int32 each) plus
      the anchor positions.  No kept-lane buffer is built, so a list
      evaluated once — a serve batch, a warmup — never builds more.
    * **Later evaluations** at other positions fill the kept-lane
      buffers from that selection, once; then the stream is the kept
      lanes.  A drift guard re-anchors the panels (select and fill at
      the current positions) whenever a particle has moved far enough
      that a pruned lane could enter the cutoff, so results stay exact
      for arbitrary motion, not just small MD steps.

    Both run one block loop (:func:`_evaluate`): the pair kernel, the
    force components and the scatter see only the lanes with
    ``0 < r2 < r_cut**2``, and every sum is grouped as the reference's
    ``chunk_pairs`` chunks group it (:func:`_finish`): forces scatter
    each chunk's i weights, then its j weights, in one ``np.bincount``
    per component, and energy and virial add per-chunk float64 sums of
    the in-cutoff lanes in chunk order.
    """
    cur = plist.current_positions(system)
    pos = cur.astype(dtype, copy=False)
    key = _panel_key(dtype, params, chunk_pairs)
    cp = panels.get(key) if panels is not None else None
    if cp is None or (cp.sel is not None and np.array_equal(pos, cp.anchor_pos)):
        if cp is None:
            cp = _new_panels(plist, params, pos, chunk_pairs)
            if panels is not None:
                panels[key] = cp
        lanes = _first_lanes(system, plist, cp, cur, panels)
        pool = panels.get(POOL) if panels is not None else None
        return _evaluate(cp, system, plist, params, pos, lanes, pool)

    margin = cp.r_keep - params.r_cut
    if 4.0 * _drift2_max(pos, cp.anchor_pos, plist.box.array.astype(dtype)) > (
        margin * margin
    ):
        # A pruned lane may have drifted inside the cutoff: re-anchor the
        # panels at the current positions.  A pending selection is
        # superseded.
        _select(cp, plist, pos, valid_lanes(system, plist, panels))
    if cp.sel is not None:
        _fill(cp, system, plist, params, panels)
    return _evaluate(cp, system, plist, params, pos)


def compute_short_range_impl(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    chunk_pairs: int = 65536,
    panels: dict | None = None,
) -> ShortRangeResult:
    """Dispatch a short-range evaluation to the impl ``REPRO_KERNEL``
    resolves to now (``panels`` is the vectorized kernel's per-list
    memo; the scalar reference keeps none)."""
    if resolve_kernel_impl() == "vectorized":
        return compute_short_range_vectorized(
            system,
            plist,
            params,
            dtype=dtype,
            chunk_pairs=chunk_pairs,
            panels=panels,
        )
    return compute_short_range(
        system, plist, params, dtype=dtype, chunk_pairs=chunk_pairs
    )
