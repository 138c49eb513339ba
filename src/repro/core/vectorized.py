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
* one ``np.bincount`` over concatenated i/j indices equals two
  sequential ``np.add.at`` calls (per-bin scan order is preserved).

Implementation selection: ``REPRO_KERNEL`` is the one switch, read
only by ``resolve_kernel_impl``; it defaults to ``"vectorized"``, and
``REPRO_KERNEL=scalar`` selects the reference loops, the bit-identity
oracle the tests compare against.  ``compute_short_range_impl``
resolves it on every evaluation; the two impls are bit-identical, so
no caller, config or cache key needs to name one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from repro.core.deferred import replay_write_trace
from repro.core.packing import package_views
from repro.core.shuffle import transpose_4x3
from repro.hw.simd import FloatV4, LANES, OpCounter
from repro.md.forces import (
    ShortRangeResult,
    compute_short_range,
    tile_indices,
    tile_validity,
)
from repro.md.nonbonded import (
    COULOMB_CONSTANT,
    NonbondedParams,
    pair_force_energy,
)
from repro.md.pairlist import CLUSTER_SIZE, ClusterPairList
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

#: Prune radius margin (nm) beyond ``r_cut`` for the compacted lane
#: set.  Wider keeps more lanes (slower steps, fewer re-anchors);
#: narrower keeps fewer lanes but trips the drift guard sooner.  On the
#: 1500-water benchmark at 300 K (~0.01 nm/step worst particle) the
#: guard re-anchors about once per 10-step ``nstlist`` interval.  The
#: keep radius may exceed ``r_list``: correctness only needs the kept
#: set to be a superset of every lane that can come inside ``r_cut``
#: before the guard re-anchors.
PRUNE_MARGIN = 0.20

#: Lanes per block of the elementwise passes (the anchor scan, the PBC
#: fold and the pair kernel).  Their temporaries are sized to one block
#: rather than to every kept lane; block boundaries never change a
#: result, since every operation in those passes is elementwise.
LANE_BLOCK = 16384


def valid_lanes(
    system: ParticleSystem, plist: ClusterPairList, panels: dict | None = None
) -> np.ndarray:
    """Flat full-lane index (int32) of every topology-valid tile lane.

    The lanes the reference mask (`tile_validity`) keeps, as positions
    in the flattened ``(M, 4, 4)`` tile block; slot pairs and pair
    constants are derived from them on demand (:func:`_lane_slots`).
    Nothing here depends on positions, so a drift-guard re-anchor reuses
    it and only redoes the positional scan.  Memoised in ``panels``, the
    caller's per-list panel memo (None: no reuse).
    """
    if panels is not None and "lanes" in panels:
        return panels["lanes"]
    ci = plist.pair_ci.astype(np.int64)
    cj = plist.pair_cj.astype(np.int64)
    slot_i, slot_j = tile_indices(ci, cj)
    mol = plist.gather(system.topology.mol_ids, fill=-1).astype(np.int64)
    valid = tile_validity(plist, ci, cj, slot_i, slot_j, mol)
    lanes = np.flatnonzero(valid.reshape(-1)).astype(np.int32)
    if panels is not None:
        panels["lanes"] = lanes
    return lanes


def _lane_slots(
    plist: ClusterPairList, lanes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(slot_i, slot_j)`` of flat tile lanes — `tile_indices`' layout
    inverted: lane ``m*16 + a*4 + b`` pairs slot ``4*ci[m] + a`` with
    slot ``4*cj[m] + b``."""
    tile, ab = np.divmod(lanes, CLUSTER_SIZE * CLUSTER_SIZE)
    a, b = np.divmod(ab, CLUSTER_SIZE)
    return (
        plist.pair_ci[tile] * CLUSTER_SIZE + a,
        plist.pair_cj[tile] * CLUSTER_SIZE + b,
    )


class _Scratch:
    """Temporaries of one lane block, allocated per call."""

    def __init__(self, n: int, dtype) -> None:
        self.d = np.empty((3, n), dtype=dtype)  # dr components
        self.r2 = np.empty(n, dtype=dtype)
        self.t = np.empty((10, n), dtype=dtype)  # pair-kernel temporaries
        self.mask = np.empty((2, n), dtype=bool)
        self.w = np.empty(n, dtype=np.float64)


def _fold(
    pcols: np.ndarray,
    box_arr: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    s: _Scratch,
    shift: np.ndarray | None = None,
) -> np.ndarray:
    """Minimum-image ``dr`` of lanes ``(ii, jj)`` into ``s.d``; returns
    ``r2``.

    The reference fold's elementwise operations in its order, one
    position column at a time.  ``shift`` (3, n) replaces the rounding
    by stored anchor shifts (see `CompactPanels`).  ``r2`` accumulates
    ``x*x + y*y + z*z`` left to right, as ``np.sum`` over a 3-element
    axis does.
    """
    n = len(ii)
    t = s.t[0, :n]
    for c in range(3):
        dc = s.d[c, :n]
        np.take(pcols[c], ii, out=dc, mode="clip")
        np.take(pcols[c], jj, out=t, mode="clip")
        dc -= t
        if shift is not None:
            dc -= shift[c]
        else:
            np.divide(dc, box_arr[c], out=t)
            np.round(t, out=t)
            t *= box_arr[c]
            dc -= t
    r2 = s.r2[:n]
    np.multiply(s.d[0, :n], s.d[0, :n], out=r2)
    np.multiply(s.d[1, :n], s.d[1, :n], out=t)
    r2 += t
    np.multiply(s.d[2, :n], s.d[2, :n], out=t)
    r2 += t
    return r2


@dataclass
class CompactPanels:
    """Flattened, pruned lane data for the per-step fast path.

    Anchored once per pair-list rebuild (and again after each drift-guard
    re-anchor): lanes are the tile entries that are topology-valid *and*
    within ``r_keep = r_cut + PRUNE_MARGIN`` of each other at
    ``anchor_pos``.  A pruned lane can only contribute an exact zero in
    the reference evaluation, so dropping it never changes a sum (the
    one invisible exception: a slot whose every contribution is a
    signed zero may flip zero sign, which ``==``/``np.array_equal``
    cannot observe and the integrator cannot propagate).

    ``bufs["shift"]`` holds ``box * round(dr/box)`` per kept lane when
    the static-shift precondition holds (``2*r_keep - r_cut`` under half
    the smallest box edge): while the drift guard passes, no kept lane's
    minimum image can reach half a box edge, so the rounding in the
    reference PBC fold is reproduced exactly by the stored shift.
    """

    #: Kept-lane arrays at capacity ``cap``, consumed as ``[:n_kept]``
    #: views, so a re-anchor refills in place instead of reallocating
    #: (large numpy frees go straight back to the OS, so reallocation
    #: costs a page-fault storm every refresh).  Per kept lane: the i/j
    #: slots (int64, they feed ``np.bincount``), the full-lane position
    #: (int32), the pair constants and hoisted products, the static
    #: shifts, the force components, and one float64 weight buffer
    #: shared by x, y and z.
    bufs: dict = field(repr=False)
    cap: int
    n_kept: int
    e_full: np.ndarray = field(repr=False)
    w_full: np.ndarray = field(repr=False)
    f_sorted: np.ndarray = field(repr=False)
    anchor_pos: np.ndarray = field(repr=False)
    r_keep: float
    half: bool
    static_shift: bool
    has_shift_e: bool

    # Named views for tests; the hot path slices ``bufs`` directly.
    @property
    def idx_i(self) -> np.ndarray:
        return self.bufs["sidx"][: self.n_kept]

    @property
    def idx_j(self) -> np.ndarray:
        return self.bufs["sidx"][self.n_kept : 2 * self.n_kept]

    @property
    def c6(self) -> np.ndarray:
        return self.bufs["c6"][: self.n_kept]

    @property
    def c12(self) -> np.ndarray:
        return self.bufs["c12"][: self.n_kept]


def _alloc_compact_bufs(cp: CompactPanels, dtype, cap: int) -> dict:
    bufs = {
        "sidx": np.empty(2 * cap, dtype=np.int64),
        "lane_sel": np.empty(cap, dtype=np.int32),
        "fvec": np.empty((3, cap), dtype=dtype),
        "wb": np.empty(2 * cap if cp.half else cap, dtype=np.float64),
    }
    names = ["fqq", "c6", "c12", "c6_6", "c12_12"]
    if cp.has_shift_e:
        names.append("se")
    for name in names:
        bufs[name] = np.empty(cap, dtype=dtype)
    if cp.static_shift:
        bufs["shift"] = np.empty((3, cap), dtype=dtype)
    return bufs


def _anchor(
    cp: CompactPanels,
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    pos: np.ndarray,
    panels: dict | None,
) -> None:
    """Anchor (or re-anchor) ``cp`` at ``pos``, in place.

    Scans the valid lanes block by block for those within ``r_keep``,
    then refills the kept-lane buffers.  When the kept set outgrows the
    capacity, the old buffers are released before the larger set is
    allocated, so a growth never holds two sets at once.
    """
    dtype = pos.dtype
    dt = dtype.type
    lanes = valid_lanes(system, plist, panels)
    pcols = np.ascontiguousarray(pos.T)
    box_arr = plist.box.array.astype(dtype)
    block = max(1, min(LANE_BLOCK, len(lanes)))
    s = _Scratch(block, dtype)

    keep2 = dt(cp.r_keep) ** 2
    pieces = []
    for lo in range(0, len(lanes), block):
        vi, vj = _lane_slots(plist, lanes[lo : lo + block])
        r2 = _fold(pcols, box_arr, vi, vj, s)
        pieces.append(np.flatnonzero(r2 < keep2).astype(np.int32) + np.int32(lo))
    sel = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int32)
    del pieces
    k = len(sel)

    if not cp.bufs or k > cp.cap:
        cp.bufs = {}
        cp.cap = k + (k >> 4) + 1024
        cp.bufs = _alloc_compact_bufs(cp, dtype, cp.cap)
    cp.n_kept = k
    cp.e_full.fill(0.0)
    cp.w_full.fill(0.0)
    np.copyto(cp.anchor_pos, pos)

    q = plist.gather(system.charges).astype(dtype)
    types = plist.gather(system.topology.type_ids).astype(np.int64)
    c6_tab = system.topology.c6_table.astype(dtype)
    c12_tab = system.topology.c12_table.astype(dtype)
    inv6 = (1.0 / params.r_cut) ** 6
    b = cp.bufs
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        kept = lanes[sel[lo:hi]]
        b["lane_sel"][lo:hi] = kept
        vi, vj = _lane_slots(plist, kept)
        b["sidx"][lo:hi] = vi
        b["sidx"][k + lo : k + hi] = vj
        # Pair constants, exactly as the reference tiles form them
        # (elementwise, so gathering to kept lanes first is exact), and
        # the step-invariant products hoisted out of the pair kernel
        # (they commute bit for bit with its in-kernel order): felec*qq,
        # 6*c6, 12*c12 and the LJ shift constant.
        fqq = b["fqq"][lo:hi]
        np.multiply(q[vi], q[vj], out=fqq)
        fqq *= dt(COULOMB_CONSTANT)
        ti, tj = types[vi], types[vj]
        c6, c12 = b["c6"][lo:hi], b["c12"][lo:hi]
        c6[...] = c6_tab[ti, tj]
        c12[...] = c12_tab[ti, tj]
        np.multiply(c6, dt(6.0), out=b["c6_6"][lo:hi])
        np.multiply(c12, dt(12.0), out=b["c12_12"][lo:hi])
        if cp.has_shift_e:
            # lj_shift_energy, in place: ((c12*inv6)*inv6) - (c6*inv6).
            se = b["se"][lo:hi]
            np.multiply(c12, inv6, out=se)
            se *= inv6
            t = s.t[0, : hi - lo]
            np.multiply(c6, inv6, out=t)
            se -= t
        if cp.static_shift:
            t = s.t[0, : hi - lo]
            for c in range(3):
                sh = b["shift"][c, lo:hi]
                np.take(pcols[c], vi, out=sh, mode="clip")
                np.take(pcols[c], vj, out=t, mode="clip")
                sh -= t
                sh /= box_arr[c]
                np.round(sh, out=sh)
                sh *= box_arr[c]


def compact_panels(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    panels: dict | None = None,
) -> CompactPanels:
    """Build (or fetch memoised) pruned lane panels for ``plist``.

    ``panels`` is the caller's per-list panel memo (a `StepCache` list
    memo's ``panels``; None builds throwaway panels).  The key includes
    dtype and the nonbonded parameters, so different cutoffs never
    share a lane set.  The anchor scan runs block by block over the
    cached valid lanes — no ``(M, 4, 4, 3)`` broadcast — so a
    drift-guard re-anchor costs a few streaming passes, not a tile
    rebuild.
    """
    key = ("compact", np.dtype(dtype).str, params)
    if panels is not None and key in panels:
        return panels[key]
    pos = plist.current_positions(system).astype(dtype)
    r_keep = params.r_cut + PRUNE_MARGIN
    n_lanes = plist.n_cluster_pairs * CLUSTER_SIZE * CLUSTER_SIZE
    # Static PBC shifts are only safe when the worst-case kept-lane
    # separation (anchor distance < r_keep plus guarded drift
    # < r_keep - r_cut) stays under half the smallest box edge.
    min_box = float(plist.box.array.astype(dtype).min())
    cp = CompactPanels(
        bufs={},
        cap=0,
        n_kept=0,
        e_full=np.zeros(n_lanes, dtype=dtype),
        w_full=np.zeros(n_lanes, dtype=np.float64),
        f_sorted=np.empty((plist.n_slots, 3), dtype=np.float64),
        anchor_pos=np.empty_like(pos),
        r_keep=r_keep,
        half=plist.half,
        static_shift=2.0 * r_keep - params.r_cut < 0.5 * min_box - 1e-9,
        has_shift_e=params.shift_lj,
    )
    _anchor(cp, system, plist, params, pos, panels)
    if panels is not None:
        panels[key] = cp
    return cp


def _pair_terms_compact(
    r2: np.ndarray,
    cp: CompactPanels,
    lo: int,
    s: _Scratch,
    params: NonbondedParams,
) -> tuple[np.ndarray, np.ndarray]:
    """`pair_force_energy` over kept lanes ``lo:lo+len(r2)``, in place.

    Performs the same floating-point operations in the same association
    order as :func:`repro.md.nonbonded.pair_force_energy` with an
    all-true mask (compact lanes are topology-valid by construction),
    with the step-invariant factors (``felec*qq``, ``6*c6``, ``12*c12``,
    the LJ shift) taken pre-multiplied from the panels — products that
    commute bit-for-bit.  Outputs are views into the scratch ``s`` and
    bitwise equal to the reference lane for lane (test-enforced on
    random inputs for every coulomb mode).
    """
    dt = r2.dtype.type
    n = len(r2)
    hi = lo + n
    b = cp.bufs
    mask, nmask = s.mask[0, :n], s.mask[1, :n]
    safe_r2, inv_r2, inv_r6, e_lj, f_lj, t6, t7, t8, t9, t10 = (
        t[:n] for t in s.t
    )
    c6, c12 = b["c6"][lo:hi], b["c12"][lo:hi]
    fqq, c6_6, c12_12 = b["fqq"][lo:hi], b["c6_6"][lo:hi], b["c12_12"][lo:hi]

    np.less(r2, dt(params.r_cut) ** 2, out=mask)
    np.greater(r2, dt(0.0), out=nmask)
    mask &= nmask
    np.logical_not(mask, out=nmask)
    np.copyto(safe_r2, r2)
    safe_r2[nmask] = dt(1.0)
    np.divide(dt(1.0), safe_r2, out=inv_r2)
    np.multiply(inv_r2, inv_r2, out=inv_r6)
    inv_r6 *= inv_r2

    np.multiply(c12, inv_r6, out=e_lj)
    e_lj *= inv_r6
    np.multiply(c6, inv_r6, out=t6)
    e_lj -= t6
    if cp.has_shift_e:
        e_lj -= b["se"][lo:hi]
    np.multiply(c12_12, inv_r6, out=f_lj)
    f_lj *= inv_r6
    np.multiply(c6_6, inv_r6, out=t6)
    f_lj -= t6
    f_lj *= inv_r2

    if params.coulomb_mode == "none":
        # The reference adds all-zero coulomb arrays; ``x + 0.0`` is the
        # same elementwise operation.
        e_lj += dt(0.0)
        f_lj += dt(0.0)
    else:
        inv_r = t6
        np.sqrt(inv_r2, out=inv_r)
        if params.coulomb_mode == "cut":
            np.multiply(fqq, inv_r, out=t7)  # e_coul
            np.multiply(t7, inv_r2, out=t8)  # f_coul
        elif params.coulomb_mode == "rf":
            krf = dt(params.krf)
            np.multiply(krf, safe_r2, out=t7)
            np.add(inv_r, t7, out=t7)
            t7 -= dt(params.crf)
            np.multiply(fqq, t7, out=t7)  # e_coul
            np.multiply(inv_r, inv_r2, out=t8)
            t8 -= dt(2.0) * krf
            np.multiply(fqq, t8, out=t8)  # f_coul
        else:  # ewald real space
            r = t8
            np.sqrt(safe_r2, out=r)
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
    f_lj[nmask] = dt(0.0)
    e_lj[nmask] = dt(0.0)
    return f_lj, e_lj


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


def compute_short_range_vectorized(
    system: ParticleSystem,
    plist: ClusterPairList,
    params: NonbondedParams,
    dtype: type = np.float64,
    chunk_pairs: int = 65536,
    panels: dict | None = None,
) -> ShortRangeResult:
    """Pruned-lane `compute_short_range` with memoised compact panels.

    Once per rebuild the 4x4 tiles are flattened to the lanes that are
    topology-valid and within ``r_keep`` (:func:`compact_panels`,
    memoised in the caller's ``panels``; None rebuilds them per call); per
    step only gathers, one PBC fold, ``r2``, the pair kernel and the
    force scatter run, block by block over the kept lanes.  A drift
    guard re-anchors the panels whenever a particle has moved far
    enough that a pruned lane could re-enter the cutoff (or a static
    shift could flip), so results stay exact for arbitrary motion, not
    just small MD steps.

    The force scatter uses one ``np.bincount`` per component over the
    concatenated i/j slot indices, which reproduces the reference's two
    sequential ``np.add.at`` passes bit for bit (per-slot accumulation
    order is preserved: surviving i contributions precede surviving j
    contributions; dropped lanes contributed exact zeros).  Energy and
    virial terms are scattered back into full-lane-shape zero panels
    before the float64 sums so the pairwise reduction tree matches the
    reference's exactly.

    Lists larger than one chunk fall back to the chunked reference:
    chunk boundaries interleave the accumulation grouping.  Large
    systems do reach it (a 3000-particle water or ionic box has about
    70,000 cluster pairs at ``r_list`` 1.0).
    """
    m_total = plist.n_cluster_pairs
    if m_total > chunk_pairs:
        return compute_short_range(
            system, plist, params, dtype=dtype, chunk_pairs=chunk_pairs
        )
    cp = compact_panels(system, plist, params, dtype=dtype, panels=panels)
    pos = plist.current_positions(system).astype(dtype)
    box_arr = plist.box.array.astype(dtype)

    margin = cp.r_keep - params.r_cut
    if 4.0 * _drift2_max(pos, cp.anchor_pos, box_arr) > margin * margin:
        # A pruned lane may have drifted inside the cutoff (or a static
        # shift may no longer round the same way): re-anchor the panels
        # at the current positions.
        _anchor(cp, system, plist, params, pos, panels)

    k = cp.n_kept
    b = cp.bufs
    sidx = b["sidx"]
    pcols = np.ascontiguousarray(pos.T)
    block = max(1, min(LANE_BLOCK, k))
    s = _Scratch(block, dtype)
    n_in_cutoff = 0
    for lo in range(0, k, block):
        hi = min(lo + block, k)
        r2 = _fold(
            pcols, box_arr, sidx[lo:hi], sidx[k + lo : k + hi], s,
            b["shift"][:, lo:hi] if cp.static_shift else None,
        )
        f_scalar, e = _pair_terms_compact(r2, cp, lo, s, params)
        n_in_cutoff += int(np.count_nonzero(f_scalar))
        lane_sel = b["lane_sel"][lo:hi]
        cp.e_full[lane_sel] = e
        w = s.w[: hi - lo]
        np.multiply(f_scalar, r2, out=w, dtype=np.float64)
        cp.w_full[lane_sel] = w
        for c in range(3):
            np.multiply(f_scalar, s.d[c, : hi - lo], out=b["fvec"][c, lo:hi])
    energy = 0.0 + float(cp.e_full.sum(dtype=np.float64))
    virial = 0.0 + float(cp.w_full.sum())

    n_weights = 2 * k if plist.half else k
    scatter_idx = sidx[:n_weights]
    wb = b["wb"][:n_weights]
    f_sorted = cp.f_sorted
    for c in range(3):
        np.copyto(wb[:k], b["fvec"][c, :k])
        if plist.half:
            np.negative(wb[:k], out=wb[k:])
        f_sorted[:, c] = np.bincount(
            scatter_idx, weights=wb, minlength=plist.n_slots
        )

    forces = np.zeros((system.n_particles, 3), dtype=np.float64)
    plist.scatter_add(forces, f_sorted)
    if not plist.half:
        energy *= 0.5
        virial *= 0.5
    return ShortRangeResult(
        forces=forces,
        energy=energy,
        n_pairs_in_cutoff=n_in_cutoff,
        virial=virial,
    )


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
