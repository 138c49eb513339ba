"""The whole-array system builds against their per-molecule originals.

`repro.md.water` builds every system in a few array passes.  The
reference functions below are the per-molecule loops those passes
replaced, kept verbatim as the oracle: one rotation draw, one
`Topology.add_particles` call and three `Constraint` appends per
molecule.  Every build function must reproduce them bit for bit — positions
and velocities compared as int64 views, the topology arrays with their
dtypes, the constraint lists as equal lists.
"""

import re

import numpy as np
import pytest

from repro.md.box import Box
from repro.md.constants import (
    CL_ION,
    ION_CHARGE_CL,
    ION_CHARGE_NA,
    LJ_FLUID,
    LJ_FLUID_B,
    LJ_FLUID_DENSITY,
    NA_ION,
    SOLUTE_LJ,
    SPC,
    WATER_MODELS,
    WATER_MOLECULES_PER_NM3,
    WaterGeometry,
)
from repro.md.system import ParticleSystem
from repro.md.topology import Constraint, Topology
from repro.md import water

SIZES = (3, 7, 30, 301, 900, 1500, 3000)
SEEDS = (1, 2, 2019, 3001)
MODELS = ("spc", "spce", "tip3p")


# --- the per-molecule reference loops ---------------------------------------


def _random_rotation(rng):
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _lattice_sites(n_sites, box_edge):
    per_dim = int(np.ceil(n_sites ** (1.0 / 3.0)))
    spacing = box_edge / per_dim
    grid = (np.arange(per_dim) + 0.5) * spacing
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    return pts.reshape(-1, 3)[:n_sites]


def _jittered(n_sites, edge, jitter, rng):
    sites = _lattice_sites(n_sites, edge)
    spacing = edge / int(np.ceil(n_sites ** (1.0 / 3.0)))
    return sites + rng.uniform(-jitter, jitter, size=sites.shape) * spacing


def _add_water_molecule(topo, positions, site, rot, offsets, model, mol_id):
    ids = topo.add_particles(
        ["OW", "HW", "HW"],
        [model.q_oxygen, model.q_hydrogen, model.q_hydrogen],
        mol_id=mol_id,
    )
    positions[ids] = site + offsets @ rot.T
    o, h1, h2 = (int(i) for i in ids)
    topo.constraints.append(Constraint(o, h1, model.r_oh))
    topo.constraints.append(Constraint(o, h2, model.r_oh))
    topo.constraints.append(Constraint(h1, h2, model.r_hh))


def _finish(positions, edge, topo, temperature, rng):
    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def loop_water(n_particles, seed=2019, model=SPC, temperature=300.0,
               density=WATER_MOLECULES_PER_NM3, jitter=0.02):
    if n_particles < 3:
        raise ValueError(f"need at least one molecule (3 particles): {n_particles}")
    n_mol = max(1, n_particles // 3)
    edge = (n_mol / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    topo = Topology([model.oxygen_type(), model.hydrogen_type()])
    offsets = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg).site_offsets()
    sites = _jittered(n_mol, edge, jitter, rng)
    positions = np.empty((n_mol * 3, 3))
    for m in range(n_mol):
        rot = _random_rotation(rng)
        _add_water_molecule(topo, positions, sites[m], rot, offsets, model, m)
    return _finish(positions, edge, topo, temperature, rng)


def loop_ionic(n_particles, seed=2019, model=SPC, ion_frac=0.05,
               temperature=300.0, density=WATER_MOLECULES_PER_NM3,
               jitter=0.02):
    if n_particles < 5:
        raise ValueError(f"need at least one water + one ion pair (5 atoms): {n_particles}")
    n_sites = max(3, n_particles // 3)
    n_pairs = max(1, int(round(ion_frac * n_sites / 2.0)))
    if n_sites - 2 * n_pairs < 1:
        raise ValueError(f"ion_frac {ion_frac} leaves no water on a {n_sites}-site lattice")
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    topo = Topology([model.oxygen_type(), model.hydrogen_type(), NA_ION, CL_ION])
    offsets = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg).site_offsets()
    sites = _jittered(n_sites, edge, jitter, rng)
    ion_sites = rng.choice(n_sites, size=2 * n_pairs, replace=False)
    na_sites = set(int(s) for s in ion_sites[:n_pairs])
    cl_sites = set(int(s) for s in ion_sites[n_pairs:])
    n_atoms = 3 * (n_sites - 2 * n_pairs) + 2 * n_pairs
    positions = np.empty((n_atoms, 3))
    for s in range(n_sites):
        if s in na_sites:
            ids = topo.add_particles(["NA"], [ION_CHARGE_NA], mol_id=s)
            positions[ids] = sites[s]
        elif s in cl_sites:
            ids = topo.add_particles(["CL"], [ION_CHARGE_CL], mol_id=s)
            positions[ids] = sites[s]
        else:
            rot = _random_rotation(rng)
            _add_water_molecule(topo, positions, sites[s], rot, offsets, model, s)
    return _finish(positions, edge, topo, temperature, rng)


def loop_embedded(n_particles, seed=2019, model=SPC, temperature=300.0,
                  density=WATER_MOLECULES_PER_NM3, jitter=0.02):
    if n_particles < 7:
        raise ValueError(f"need the solute + at least two waters (7 atoms): {n_particles}")
    n_sites = max(2, (n_particles - 1) // 3)
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    topo = Topology([model.oxygen_type(), model.hydrogen_type(), SOLUTE_LJ])
    offsets = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg).site_offsets()
    sites = _jittered(n_sites, edge, jitter, rng)
    center = np.full(3, edge / 2.0)
    delta = sites - center
    delta -= edge * np.round(delta / edge)
    keep = np.flatnonzero(np.linalg.norm(delta, axis=1) > 0.55 * 0.60 + 0.10)
    if len(keep) < 2:
        raise ValueError(f"solute exclusion leaves {len(keep)} waters; raise n_particles")
    positions = np.empty((1 + 3 * len(keep), 3))
    ids = topo.add_particles(["SOL"], [0.0], mol_id=0)
    positions[ids] = center
    for m, s in enumerate(keep, start=1):
        rot = _random_rotation(rng)
        _add_water_molecule(topo, positions, sites[s], rot, offsets, model, m)
    return _finish(positions, edge, topo, temperature, rng)


def loop_lj_mixture(n_particles, seed=2019, temperature=120.0,
                    density=LJ_FLUID_DENSITY, jitter=0.05, fraction_b=0.5):
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    topo = Topology([LJ_FLUID, LJ_FLUID_B])
    positions = _jittered(n_particles, edge, jitter, rng)
    stride = max(2, int(round(1.0 / fraction_b)))
    for p in range(n_particles):
        name = "KR" if p % stride == stride - 1 else "AR"
        topo.add_particles([name], [0.0], mol_id=p)
    return _finish(positions, edge, topo, temperature, rng)


def loop_lj_fluid(n_particles, seed=2019, temperature=120.0,
                  density=LJ_FLUID_DENSITY, jitter=0.05):
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)
    topo = Topology([LJ_FLUID])
    positions = _jittered(n_particles, edge, jitter, rng)
    for p in range(n_particles):
        topo.add_particles(["AR"], [0.0], mol_id=p)
    return _finish(positions, edge, topo, temperature, rng)


# --- comparison --------------------------------------------------------------


def _assert_identical(got, want):
    for name in ("positions", "velocities"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.float64, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
    assert got.box.lengths == want.box.lengths
    for name in ("type_ids", "charges", "mol_ids"):
        a, b = getattr(got.topology, name), getattr(want.topology, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.topology.constraints == want.topology.constraints
    assert all(
        type(c.i) is type(c.j) is int and type(c.distance) is float
        for c in got.topology.constraints
    )


def _cases():
    for model in MODELS:
        yield "water", model, None, water.build_water_system, loop_water
        yield "embedded", model, None, water.build_embedded_solute, loop_embedded
        for ion_frac in (0.05, 0.3):
            yield "ionic", model, ion_frac, water.build_ionic_solution, loop_ionic
    yield "lj_mixture", None, None, water.build_lj_mixture, loop_lj_mixture
    yield "lj_fluid", None, None, water.build_lj_fluid, loop_lj_fluid


@pytest.mark.parametrize(
    "build, reference, kwargs",
    [
        pytest.param(
            build, loop,
            {
                **({"model": WATER_MODELS[model]} if model else {}),
                **({"ion_frac": ion_frac} if ion_frac else {}),
            },
            id="-".join(str(p) for p in (name, model, ion_frac) if p),
        )
        for name, model, ion_frac, build, loop in _cases()
    ],
)
def test_block_builds_match_per_molecule_loops(build, reference, kwargs):
    compared = 0
    for n in SIZES:
        for seed in SEEDS:
            try:
                want = reference(n, seed=seed, **kwargs)
            except ValueError as exc:
                # Too small for this system: both refuse it alike.
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    build(n, seed=seed, **kwargs)
                continue
            _assert_identical(build(n, seed=seed, **kwargs), want)
            compared += 1
    # Every build function accepts at least the four largest sizes.
    assert compared >= 4 * len(SEEDS)

