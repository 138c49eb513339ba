"""Cluster Verlet pair list (the Páll-Hess scheme GROMACS 5.x uses).

Particles are spatially sorted and grouped into clusters of 4; the pair
list stores *cluster pairs* whose bounding spheres are within ``rlist`` of
each other.  Kernels then evaluate all 4x4 = 16 particle interactions of a
cluster pair at once — exactly the structure the paper's particle packages
(Fig. 2) and SIMD kernels (§3.4) exploit: one cluster = one package.

A *half* list contains each unordered cluster pair once (Newton's third
law applied in the kernel); the *full* list of the RCA baseline
(Algorithm 2) duplicates every pair so each side updates only its own
forces at the cost of doubled computation.

The search's two distance filters (bounding spheres, then the exact 4x4
test of §3.5's neighbour-search kernel) run through the short-range
kernel's own fold, `repro.md.box.minimum_image_fold`, one position
column at a time on flat lane arrays in blocks of `LANE_BLOCK` lanes: no
``(B, 4, 4, 3)`` tensor, and every keep mask bitwise that of the
``(..., 3)`` form.

The exact filter already folds all 16 lanes of every candidate, so it
also records which of them lie within ``rlist + MASK_PAD`` at the build
positions: one uint16 *lane mask* per listed cluster pair
(`ClusterPairList.lane_mask`, bit ``4a + b`` for lane (a, b)).  This is
GROMACS' per-cluster-pair interaction mask, kept for the same reason:
the kernel's first evaluation at the build positions streams only the
lanes the search found inside the list radius instead of folding every
lane of the list again (`repro.core.vectorized.listed_lanes`).  The mask
never decides which pairs are listed; ``keep`` is the plain ``rlist``
test, so lists are the same with or without it.

The list is rebuilt every ``nstlist`` steps with a buffer
(``rlist > rcut``), as in the paper's Table 3 (nstlist = 10, rlist = 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.box import Box, minimum_image_fold
from repro.md.cells import CellGrid
from repro.md.system import ParticleSystem
from repro.parallel.pool import as_input, shared_inputs
from repro.util.scatter import scatter_add_rows

CLUSTER_SIZE = 4

#: Lanes per block of the fold's passes: the pair search's two filters
#: and the short-range kernel's lane scan, fold and pair kernel
#: (`repro.core.vectorized`).  Their temporaries are sized to one block
#: (16,384 lanes, 1,024 cluster-pair tiles) rather than to every lane;
#: block boundaries never change a result, since every operation in
#: those passes is elementwise per lane.
LANE_BLOCK = 16384

#: The tile lane layout: lane ``4a + b`` of a cluster pair's 16 pairs
#: member ``TILE_LANE_I[4a + b] = a`` of the i cluster with member
#: ``TILE_LANE_J[4a + b] = b`` of the j cluster (`forces.tile_indices`
#: flattened).
TILE_LANE_I = np.repeat(np.arange(CLUSTER_SIZE), CLUSTER_SIZE)
TILE_LANE_J = np.tile(np.arange(CLUSTER_SIZE), CLUSTER_SIZE)

#: Margin (nm) of the lane mask beyond ``rlist``.  A lane's bit is set
#: when its float64 build-position ``r2`` is below ``(rlist +
#: MASK_PAD)**2``, so the mask holds every lane that a float32 fold of
#: the same positions can place within ``rlist``: that fold differs from
#: the float64 one by at most about ``5 eps L`` in ``r`` (``L`` the
#: longest box edge, ``eps`` float32's), 4e-7 nm measured on n=1500 and
#: n=3000 water against 1e-4 here (DESIGN.md §13).
MASK_PAD = 1e-4


def pack_lanes(bits: np.ndarray) -> np.ndarray:
    """``(m, 16)`` booleans -> ``m`` uint16 lane masks (bit ``4a + b``
    for lane ``4a + b``): a tile's 16 lanes are two whole bytes, so one
    flat little-endian pack gives every mask at once."""
    flat = np.ascontiguousarray(bits).reshape(-1)
    return np.packbits(flat, bitorder="little").view("<u2")


def unpack_lanes(mask: np.ndarray) -> np.ndarray:
    """``m`` uint16 lane masks -> ``(m, 16)`` booleans (`pack_lanes`
    inverted)."""
    b = np.ascontiguousarray(mask, dtype="<u2").view(np.uint8)
    return np.unpackbits(b, bitorder="little").view(bool).reshape(-1, 16)


@dataclass
class ClusterPairList:
    """Spatially sorted particles, 4-particle clusters, and cluster pairs."""

    box: Box
    rlist: float
    half: bool
    #: original particle index per sorted slot; -1 marks padding.
    perm: np.ndarray
    #: True for slots holding a real particle.
    real: np.ndarray
    #: positions in sorted order *at build time* (padding slots duplicate a
    #: nearby real one).  Between rebuilds particles move; kernels must use
    #: :meth:`current_positions`, not this snapshot.
    sorted_positions: np.ndarray
    #: for each padding slot, the slot index of the real particle whose
    #: position it mirrors (identity for real slots).
    pad_source: np.ndarray
    #: cluster pairs in CSR form, sorted by i-cluster.
    pair_ci: np.ndarray
    pair_cj: np.ndarray
    i_starts: np.ndarray
    #: Lane mask per cluster pair, in list order (uint16, bit ``4a + b``
    #: set when lane (a, b) lies within ``rlist + MASK_PAD`` at
    #: ``sorted_positions``); None for a list built without the exact
    #: filter.
    lane_mask: np.ndarray | None = None

    @property
    def n_real(self) -> int:
        return int(self.real.sum())

    @property
    def n_slots(self) -> int:
        return len(self.perm)

    @property
    def n_clusters(self) -> int:
        return self.n_slots // CLUSTER_SIZE

    @property
    def n_cluster_pairs(self) -> int:
        return len(self.pair_ci)

    def pairs_of_cluster(self, ci: int) -> np.ndarray:
        """j-clusters paired with i-cluster ``ci`` (CSR slice)."""
        if not 0 <= ci < self.n_clusters:
            raise IndexError(f"cluster {ci} out of range [0, {self.n_clusters})")
        return self.pair_cj[self.i_starts[ci] : self.i_starts[ci + 1]]

    def current_positions(self, system: ParticleSystem) -> np.ndarray:
        """Sorted-slot positions reflecting the system's *current* state.

        Particles move between list rebuilds; this regathers positions
        through ``perm`` (padding slots mirror their source particle) so
        force kernels always act on fresh coordinates.
        """
        pos = np.empty((self.n_slots, 3))
        wrapped = self.box.wrap(system.positions)
        pos[self.real] = wrapped[self.perm[self.real]]
        pad = ~self.real
        if pad.any():
            pos[pad] = pos[self.pad_source[pad]]
        return pos

    def gather(self, per_particle: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """Reorder a per-particle array into sorted slots (padding = fill)."""
        arr = np.asarray(per_particle)
        out_shape = (self.n_slots,) + arr.shape[1:]
        out = np.full(out_shape, fill, dtype=arr.dtype)
        out[self.real] = arr[self.perm[self.real]]
        return out

    def scatter_add(self, target: np.ndarray, sorted_values: np.ndarray) -> None:
        """Accumulate sorted-slot values back into original particle order."""
        if len(sorted_values) != self.n_slots:
            raise ValueError(
                f"sorted_values has {len(sorted_values)} slots, expected {self.n_slots}"
            )
        scatter_add_rows(target, self.perm[self.real], sorted_values[self.real])

    def to_full(self) -> "ClusterPairList":
        """Duplicate every off-diagonal pair: the RCA full list (Algorithm 2)."""
        if not self.half:
            return self
        off = self.pair_ci != self.pair_cj
        ci = np.concatenate([self.pair_ci, self.pair_cj[off]])
        cj = np.concatenate([self.pair_cj, self.pair_ci[off]])
        order = np.argsort(ci, kind="stable")
        ci, cj = ci[order], cj[order]
        starts = np.searchsorted(ci, np.arange(self.n_clusters + 1))
        mask = None
        if self.lane_mask is not None:
            # Lane (a, b) of (ci, cj) is lane (b, a) of the mirror (cj, ci).
            mirrored = unpack_lanes(self.lane_mask[off]).reshape(
                -1, CLUSTER_SIZE, CLUSTER_SIZE
            )
            mirrored = pack_lanes(mirrored.transpose(0, 2, 1).reshape(-1, 16))
            mask = np.concatenate([self.lane_mask, mirrored])[order]
        return ClusterPairList(
            box=self.box,
            rlist=self.rlist,
            half=False,
            perm=self.perm,
            real=self.real,
            sorted_positions=self.sorted_positions,
            pad_source=self.pad_source,
            pair_ci=ci.astype(np.int32),
            pair_cj=cj.astype(np.int32),
            i_starts=starts.astype(np.int64),
            lane_mask=mask,
        )

    def average_neighbors_per_cluster(self) -> float:
        if self.n_clusters == 0:
            return 0.0
        return self.n_cluster_pairs / self.n_clusters


def _cluster_geometry(
    sorted_pos: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray]:
    """Bounding-sphere centre and radius per cluster (min-image safe)."""
    n_clusters = len(sorted_pos) // CLUSTER_SIZE
    members = sorted_pos.reshape(n_clusters, CLUSTER_SIZE, 3)
    anchor = members[:, 0:1, :]
    rel = box.minimum_image(members - anchor)
    centers = box.wrap(anchor[:, 0, :] + rel.mean(axis=1))
    radii = np.sqrt(
        np.max(np.sum((rel - rel.mean(axis=1, keepdims=True)) ** 2, axis=2), axis=1)
    )
    return centers, radii


def _cluster_particles(
    positions: np.ndarray, box: Box
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spatially sort and group particles into per-cell clusters of 4.

    Each grid cell's particles are padded to a multiple of 4 so no cluster
    spans a cell boundary — this keeps bounding spheres tight (GROMACS pads
    its grid columns the same way).  The sort cell targets ~4 clusters per
    cell to bound padding overhead.

    Returns ``(perm, real, sorted_pos, pad_source)`` in slot order.
    """
    n = len(positions)
    density = n / box.volume
    # ~16 particles per sort cell -> ~4 clusters, <~15 % padding overhead.
    target_edge = (16.0 / max(density, 1e-12)) ** (1.0 / 3.0)
    grid = CellGrid.build(positions, box, min_cell_edge=max(target_edge, 1e-3))
    counts = np.diff(grid.cell_starts)
    padded = (counts + CLUSTER_SIZE - 1) // CLUSTER_SIZE * CLUSTER_SIZE
    n_slots = int(padded.sum())

    perm = np.full(n_slots, -1, dtype=np.int64)
    real = np.zeros(n_slots, dtype=bool)
    sorted_pos = np.empty((n_slots, 3))
    # Destination slot of each sorted particle: its cell's padded base plus
    # its rank within the cell.
    padded_starts = np.concatenate([[0], np.cumsum(padded)])
    within = np.arange(n) - np.repeat(grid.cell_starts[:-1], counts)
    dest = np.repeat(padded_starts[:-1], counts) + within
    perm[dest] = grid.order
    real[dest] = True
    sorted_pos[dest] = positions[grid.order]
    # Padding slots copy their cell's last real particle (or the global
    # first particle for empty boxes) so cluster geometry stays tight.
    pad_source = np.arange(n_slots, dtype=np.int64)
    if n_slots > n:
        empty = ~real
        last_real = np.maximum.accumulate(
            np.where(real, np.arange(n_slots), -1)
        )
        src = last_real[empty]
        src = np.where(src >= 0, src, int(np.argmax(real)) if real.any() else 0)
        pad_source[empty] = src
        sorted_pos[empty] = sorted_pos[src]
    return perm, real, sorted_pos, pad_source


def _fold_scratch(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, r2, t)`` float64 scratch of `minimum_image_fold` for ``n``
    lanes."""
    return np.empty((3, n)), np.empty(n), np.empty(n)


def _candidate_pairs(
    centers: np.ndarray, radii: np.ndarray, box: Box, rlist: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate cluster pairs ``(ci, cj)`` (int64, ``ci <= cj``, the
    diagonal last): every pair whose centres lie within ``rlist + 2
    r_max``, so no true pair can be missed."""
    from scipy.spatial import cKDTree

    n_clusters = len(centers)
    r_max = float(radii.max()) if n_clusters else 0.0
    search = rlist + 2.0 * r_max
    diag = np.arange(n_clusters, dtype=np.int64)
    if search >= box.min_edge / 2.0:
        # KD-tree periodic queries require radius < half the box; fall back
        # to the all-pairs candidate set (small systems only).
        a, b = np.triu_indices(n_clusters, k=1)
        return np.concatenate([a, diag]), np.concatenate([b, diag])
    # boxsize requires strictly in-range coordinates.
    pts = np.minimum(centers, np.nextafter(box.array, -np.inf))
    tree = cKDTree(pts, boxsize=box.array)
    pairs = tree.query_pairs(search, output_type="ndarray").astype(np.int64)
    return np.concatenate([pairs[:, 0], diag]), np.concatenate([pairs[:, 1], diag])


def _sphere_filter(
    centers: np.ndarray,
    radii: np.ndarray,
    box: Box,
    ci: np.ndarray,
    cj: np.ndarray,
    rlist: float,
) -> np.ndarray:
    """True where the bounding spheres of clusters ``ci`` and ``cj``
    come within ``rlist`` (per-pair radii are tighter than the uniform
    query radius).

    Centre distances are the ``sqrt`` of `minimum_image_fold`'s ``r2``
    over the centre columns, in blocks of `LANE_BLOCK` pairs: bitwise
    `Box.distance` of the centre rows.
    """
    cols = np.ascontiguousarray(centers.T)
    box_arr = box.array
    n = len(ci)
    block = max(1, min(LANE_BLOCK, n))
    d, r2, t = _fold_scratch(block)
    keep = np.empty(n, dtype=bool)
    for lo in range(0, n, block):
        bi, bj = ci[lo : lo + block], cj[lo : lo + block]
        dist = minimum_image_fold(cols, box_arr, bi, bj, d, r2, t)
        np.sqrt(dist, out=dist)
        np.less_equal(dist, rlist + radii[bi] + radii[bj], out=keep[lo : lo + block])
    return keep


def build_pair_list(
    system: ParticleSystem,
    rlist: float,
    half: bool = True,
    exact_filter: bool = True,
    backend=None,
) -> ClusterPairList:
    """Build the cluster pair list for the current positions.

    Steps: spatially sort and cluster particles per cell; generate
    candidate cluster pairs with a periodic KD-tree over cluster centres
    (radius = rlist + 2 r_max, so no true pair can be missed); prefilter by
    per-pair bounding spheres; then (``exact_filter``) keep only pairs with
    an actual particle distance below ``rlist`` — the 4x4 distance work the
    paper's §3.5 neighbour-search kernel performs — and record each kept
    pair's lane mask (`ClusterPairList.lane_mask`).  Both filters fold one
    position column at a time through `minimum_image_fold`, block by
    block, so their keep masks equal those of the ``(..., 3)`` form bit
    for bit.

    ``backend`` (an `ExecutionBackend` or None for in-process) splits
    the exact filter across its worker processes above
    `EXACT_FILTER_FANOUT` candidates (`_exact_cluster_filter`); chunk
    results concatenate in order, so the built list is bit-identical
    regardless of backend.
    """
    box = system.box
    box.check_cutoff(rlist)
    positions = box.wrap(system.positions)

    perm, real, sorted_pos, pad_source = _cluster_particles(positions, box)
    centers, radii = _cluster_geometry(sorted_pos, box)
    n_clusters = len(centers)
    ci, cj = _candidate_pairs(centers, radii, box, rlist)

    mask = np.empty(0, dtype=np.uint16) if exact_filter else None
    if len(ci):
        keep = _sphere_filter(centers, radii, box, ci, cj, rlist)
        ci, cj = ci[keep], cj[keep]
        if exact_filter and len(ci):
            keep, mask = _exact_cluster_filter(
                sorted_pos, box, ci, cj, rlist, backend=backend
            )
            ci, cj, mask = ci[keep], cj[keep], mask[keep]
        order2 = np.argsort(ci, kind="stable")
        ci, cj = ci[order2], cj[order2]
        if mask is not None:
            mask = mask[order2]

    i_starts = np.searchsorted(ci, np.arange(n_clusters + 1))
    plist = ClusterPairList(
        box=box,
        rlist=rlist,
        half=True,
        perm=perm,
        real=real,
        sorted_positions=sorted_pos,
        pad_source=pad_source,
        pair_ci=ci.astype(np.int32),
        pair_cj=cj.astype(np.int32),
        i_starts=i_starts.astype(np.int64),
        lane_mask=mask,
    )
    # Candidates are generated in canonical ci <= cj form (a half list);
    # the RCA full list is derived by mirroring.
    return plist if half else plist.to_full()


@dataclass
class _ExactFilterTask:
    """One chunk of candidate cluster pairs for the exact distance filter."""

    positions: object  # sorted slot positions (SharedArray under pool)
    box: np.ndarray
    ci: np.ndarray
    cj: np.ndarray
    rlist: float


def _exact_filter_job(task: _ExactFilterTask) -> tuple[np.ndarray, np.ndarray]:
    """``(keep, mask)`` for one chunk (pure; runs in any process).

    Block by block over ``LANE_BLOCK // 16`` cluster pairs: lane
    ``16m + 4a + b`` of a block pairs slot ``4*ci[m] + a`` with slot
    ``4*cj[m] + b`` (`TILE_LANE_I`, `TILE_LANE_J`; the layout
    `repro.core.vectorized._lane_slots` inverts), `minimum_image_fold`
    gives the lanes' ``r2``, and a pair is kept when the smallest of its
    16 is below ``rlist**2``.  ``mask`` packs the lanes with ``r2 <
    (rlist + MASK_PAD)**2`` (`pack_lanes`).
    """
    cols = np.ascontiguousarray(as_input(task.positions).T)
    tile = CLUSTER_SIZE * CLUSTER_SIZE
    n = len(task.ci)
    step = max(1, min(LANE_BLOCK // tile, n))
    d, r2, t = _fold_scratch(step * tile)
    slots_i = np.empty((step, tile), dtype=np.int64)
    slots_j = np.empty((step, tile), dtype=np.int64)
    cut2 = task.rlist * task.rlist
    pad2 = (task.rlist + MASK_PAD) ** 2
    near = np.empty((step, tile), dtype=bool)
    keep = np.empty(n, dtype=bool)
    mask = np.empty(n, dtype=np.uint16)
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        si, sj = slots_i[: hi - lo], slots_j[: hi - lo]
        np.multiply(task.ci[lo:hi, None], CLUSTER_SIZE, out=si)
        si += TILE_LANE_I
        np.multiply(task.cj[lo:hi, None], CLUSTER_SIZE, out=sj)
        sj += TILE_LANE_J
        lane_r2 = minimum_image_fold(
            cols, task.box, si.reshape(-1), sj.reshape(-1), d, r2, t
        ).reshape(-1, tile)
        np.less(lane_r2.min(axis=1), cut2, out=keep[lo:hi])
        np.less(lane_r2, pad2, out=near[: hi - lo])
        mask[lo:hi] = pack_lanes(near[: hi - lo])
    return keep, mask


#: Candidate count above which a parallel backend splits the exact
#: filter over its workers (below it, shipping the positions costs more
#: than the split saves).
EXACT_FILTER_FANOUT = 262144


def _exact_cluster_filter(
    sorted_pos: np.ndarray,
    box: Box,
    ci: np.ndarray,
    cj: np.ndarray,
    rlist: float,
    backend=None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(keep, mask)``: True where some 4x4 particle distance of the
    cluster pair < rlist, and each candidate's lane mask.

    One blocked job (`_exact_filter_job`) over every candidate; with a
    parallel ``backend`` and more than `EXACT_FILTER_FANOUT` candidates,
    the candidates split into one contiguous, near-equal chunk per
    worker, each running the same job (ordered concatenation —
    bit-identical output, as both results are elementwise per pair).
    """
    box_arr = box.array
    m = len(ci)
    if getattr(backend, "parallel", False) and m > EXACT_FILTER_FANOUT:
        n = backend.n_workers
        bounds = [m * k // n for k in range(n + 1)]
        with shared_inputs(backend, positions=sorted_pos) as shared:
            chunks = backend.map(
                _exact_filter_job,
                [
                    _ExactFilterTask(
                        positions=shared["positions"],
                        box=box_arr,
                        ci=ci[lo:hi],
                        cj=cj[lo:hi],
                        rlist=rlist,
                    )
                    for lo, hi in zip(bounds[:-1], bounds[1:])
                ],
            )
        keeps, masks = zip(*chunks)
        return np.concatenate(keeps), np.concatenate(masks)
    return _exact_filter_job(_ExactFilterTask(sorted_pos, box_arr, ci, cj, rlist))


def brute_force_pairs(system: ParticleSystem, r_cut: float) -> set[tuple[int, int]]:
    """All particle pairs within ``r_cut`` by O(N^2) search (test oracle)."""
    pos = system.box.wrap(system.positions)
    n = len(pos)
    pairs: set[tuple[int, int]] = set()
    # Chunk rows to bound the O(N^2) memory footprint.
    chunk = max(1, int(4e6) // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        d = system.box.distance(pos[lo:hi, None, :], pos[None, :, :])
        ii, jj = np.nonzero(d < r_cut)
        ii = ii + lo
        upper = ii < jj
        pairs.update(zip(ii[upper].tolist(), jj[upper].tolist()))
    return pairs


def pair_list_covers(
    plist: ClusterPairList, pairs: set[tuple[int, int]]
) -> bool:
    """Check every oracle particle pair lies in some listed cluster pair.

    Fully vectorised: listed cluster pairs and queried pairs are encoded
    as ``ci * n_clusters + cj`` scalars and membership-tested with
    `np.isin` (tests pin the result to a scalar reference walk).
    """
    if not pairs:
        return True
    n_clusters = plist.n_clusters
    listed = np.unique(
        plist.pair_ci.astype(np.int64) * n_clusters
        + plist.pair_cj.astype(np.int64)
    )
    slot_of = np.full(
        int(plist.perm.max()) + 1 if len(plist.perm) else 0, -1, dtype=np.int64
    )
    real = plist.perm >= 0
    slot_of[plist.perm[real]] = np.nonzero(real)[0]
    query = np.array(list(pairs), dtype=np.int64)
    ci = slot_of[query[:, 0]] // CLUSTER_SIZE
    cj = slot_of[query[:, 1]] // CLUSTER_SIZE
    if plist.half:
        # The half list stores each unordered pair once, canonically.
        ci, cj = np.minimum(ci, cj), np.maximum(ci, cj)
    return bool(np.all(np.isin(ci * n_clusters + cj, listed)))
