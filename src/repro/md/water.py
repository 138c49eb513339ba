"""System builders: SPC water boxes, an LJ test fluid, and the scenario
families layered on them (ionic solution, binary LJ mixture, embedded
LJ solute).

These stand in for the paper's ``water_GMX50_bare`` benchmark inputs: the
builder produces a box with the requested particle count at bulk water
density, molecules on a jittered lattice with random orientations (enough
to start a stable constrained simulation without an external equilibration
tool).  The scenario builders compose the same lattice/rotation/topology
machinery so the `repro.scenarios` registry can treat "add a workload"
as data rather than new physics.

Each system is built in whole-array passes: one block of rotation
draws, one broadcast for the water positions and one topology append.
The passes draw and compute exactly what a loop over the molecules
would, so a seed builds the same system bit for bit.
"""

from __future__ import annotations

import numpy as np

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
    WaterModel,
)
from repro.md.system import ParticleSystem
from repro.md.topology import Constraint, Topology


def _resolve_water_model(model: WaterModel | str) -> WaterModel:
    if isinstance(model, str):
        try:
            return WATER_MODELS[model.lower()]
        except KeyError:
            raise ValueError(
                f"unknown water model {model!r}; known: {sorted(WATER_MODELS)}"
            ) from None
    return model


def _random_rotations(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform random rotation matrices (QR of Gaussian matrices).

    One ``(n, 3, 3)`` draw fills in the order of ``n`` draws of
    ``(3, 3)``, and LAPACK factors each matrix of a stack on its own, so
    the stack equals ``n`` rotations drawn one at a time.
    """
    q, r = np.linalg.qr(rng.normal(size=(n, 3, 3)))
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0
    q[flip, :, 0] = -q[flip, :, 0]
    return q


def _jittered_lattice(
    n_sites: int, box_edge: float, jitter: float, rng: np.random.Generator
) -> np.ndarray:
    """First ``n_sites`` points of a cubic lattice filling the box, each
    moved by up to ``jitter`` lattice spacings along every axis."""
    per_dim = int(np.ceil(n_sites ** (1.0 / 3.0)))
    spacing = box_edge / per_dim
    grid = (np.arange(per_dim) + 0.5) * spacing
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"), axis=-1)
    sites = pts.reshape(-1, 3)[:n_sites]
    return sites + rng.uniform(-jitter, jitter, size=sites.shape) * spacing


def _water_constraints(oxygens: np.ndarray, model: WaterModel) -> list[Constraint]:
    """The O-H1, O-H2 and H1-H2 constraints of each water, molecule by
    molecule, for waters whose oxygen indices are ``oxygens`` (the two
    hydrogens follow their oxygen)."""
    i = (oxygens[:, None] + (0, 0, 1)).ravel().tolist()
    j = (oxygens[:, None] + (1, 2, 2)).ravel().tolist()
    return list(
        map(Constraint, i, j, [model.r_oh, model.r_oh, model.r_hh] * len(oxygens))
    )


def _place_molecules(
    topo: Topology,
    sites: np.ndarray,
    beads: np.ndarray,
    bead_types: list[tuple[str, float]],
    model: WaterModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Append one molecule per site to ``topo`` in site order; returns
    the positions.

    Site ``s`` holds a rigid ``model`` water when ``beads[s] < 0`` and
    the one-atom ``bead_types[beads[s]]`` (name, charge) otherwise; its
    molecule id is ``s``.  The waters' rotations are one block of draws
    in site order, the stream a loop drawing one rotation per water
    consumes.
    """
    water = beads < 0
    size = np.where(water, 3, 1)
    first = np.cumsum(size) - size
    site = np.repeat(np.arange(len(sites)), size)
    # Per atom: 0, 1, 2 = a water's O, H, H; 3 + k = bead type k.
    kind = np.where(water[site], np.arange(len(site)) - first[site], 3 + beads[site])
    names = np.array(["OW", "HW", "HW", *(name for name, _ in bead_types)])
    charges = np.array(
        [model.q_oxygen, model.q_hydrogen, model.q_hydrogen,
         *(q for _, q in bead_types)]
    )
    topo.add_particles(names[kind].tolist(), charges[kind], mol_id=site)

    oxygens = first[water]
    offsets = WaterGeometry(r_oh=model.r_oh, angle_deg=model.angle_deg).site_offsets()
    rots = _random_rotations(rng, len(oxygens))
    positions = sites[site]
    positions[oxygens[:, None] + np.arange(3)] = (
        sites[water][:, None, :] + offsets @ rots.transpose(0, 2, 1)
    )
    topo.constraints.extend(_water_constraints(oxygens, model))
    return positions


def build_water_system(
    n_particles: int,
    temperature: float = 300.0,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build a rigid 3-site water box with ~``n_particles`` atoms.

    ``model`` selects the parameter set ("spc", "spce", "tip3p" or a
    `WaterModel`).  Molecules sit on a jittered cubic lattice with random
    orientations; the box edge follows from the molecule count and
    ``density``.  Velocities are Maxwell-Boltzmann at ``temperature``.
    """
    model = _resolve_water_model(model)
    if n_particles < 3:
        raise ValueError(f"need at least one molecule (3 particles): {n_particles}")
    n_mol = max(1, n_particles // 3)
    edge = (n_mol / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([model.oxygen_type(), model.hydrogen_type()])
    sites = _jittered_lattice(n_mol, edge, jitter, rng)
    positions = _place_molecules(topo, sites, np.full(n_mol, -1), [], model, rng)

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_ionic_solution(
    n_particles: int,
    temperature: float = 300.0,
    ion_frac: float = 0.05,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build SPC water with dissolved Na+/Cl- pairs (~``n_particles`` atoms).

    ``ion_frac`` is the fraction of lattice sites carrying an ion instead
    of a water molecule; pairs are always balanced (net charge exactly
    zero).  Ions are LJ+point-charge sites sharing the water lattice, so
    the system reuses the water box machinery unchanged: jittered cubic
    lattice, random orientations for the waters, Maxwell-Boltzmann
    velocities.  Water molecules keep their rigid constraints; the ions
    are unconstrained — SETTLE is therefore *not* applicable (the
    scenario layer declares that conflict).
    """
    if n_particles < 5:
        raise ValueError(
            f"need at least one water + one ion pair (5 atoms): {n_particles}"
        )
    if not 0.0 < ion_frac <= 0.5:
        raise ValueError(f"ion_frac must be in (0, 0.5]: {ion_frac}")
    model = _resolve_water_model(model)
    n_sites = max(3, n_particles // 3)
    n_pairs = max(1, int(round(ion_frac * n_sites / 2.0)))
    if n_sites - 2 * n_pairs < 1:
        raise ValueError(
            f"ion_frac {ion_frac} leaves no water on a {n_sites}-site lattice"
        )
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology(
        [model.oxygen_type(), model.hydrogen_type(), NA_ION, CL_ION]
    )
    sites = _jittered_lattice(n_sites, edge, jitter, rng)

    # Deterministic, seeded ion placement: which lattice sites hold ions.
    ion_sites = rng.choice(n_sites, size=2 * n_pairs, replace=False)
    beads = np.full(n_sites, -1)
    beads[ion_sites[:n_pairs]] = 0
    beads[ion_sites[n_pairs:]] = 1
    positions = _place_molecules(
        topo, sites, beads,
        [("NA", ION_CHARGE_NA), ("CL", ION_CHARGE_CL)], model, rng,
    )

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_embedded_solute(
    n_particles: int,
    temperature: float = 300.0,
    density: float = WATER_MOLECULES_PER_NM3,
    seed: int = 2019,
    jitter: float = 0.02,
    model: WaterModel | str = SPC,
) -> ParticleSystem:
    """Build SPC water around one large uncharged LJ solute bead.

    The solute sits at the box centre; lattice sites inside its exclusion
    radius are carved out so the surrounding waters start overlap-free.
    The solute is heavy (:data:`~repro.md.constants.SOLUTE_LJ`) and
    unconstrained, so the topology is *not* pure 3-site water — the
    scenario layer uses that to reject ``constraints=settle``.
    """
    if n_particles < 7:
        raise ValueError(
            f"need the solute + at least two waters (7 atoms): {n_particles}"
        )
    model = _resolve_water_model(model)
    n_sites = max(2, (n_particles - 1) // 3)
    edge = (n_sites / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([model.oxygen_type(), model.hydrogen_type(), SOLUTE_LJ])
    sites = _jittered_lattice(n_sites, edge, jitter, rng)

    # Carve out lattice sites the solute would overlap (minimum-image).
    center = np.full(3, edge / 2.0)
    delta = sites - center
    delta -= edge * np.round(delta / edge)
    r_excl = 0.55 * 0.60 + 0.10  # just over (sigma_sol + sigma_ow) / 2
    keep = np.flatnonzero(np.linalg.norm(delta, axis=1) > r_excl)
    if len(keep) < 2:
        raise ValueError(
            f"solute exclusion leaves {len(keep)} waters; raise n_particles"
        )

    # The solute is molecule 0; the kept waters follow as 1, 2, ...
    beads = np.full(1 + len(keep), -1)
    beads[0] = 0
    positions = _place_molecules(
        topo, np.vstack([center, sites[keep]]), beads,
        [("SOL", 0.0)], model, rng,
    )

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_lj_mixture(
    n_particles: int,
    temperature: float = 120.0,
    density: float = LJ_FLUID_DENSITY,
    seed: int = 2019,
    jitter: float = 0.05,
    fraction_b: float = 0.5,
) -> ParticleSystem:
    """Build a binary LJ mixture (argon/krypton-like, uncharged).

    Species assignment is deterministic by lattice index (every
    ``1/fraction_b``-th site is species B), so the composition is exact
    and seed-independent; positions and velocities follow the same
    jittered-lattice + Maxwell-Boltzmann recipe as :func:`build_lj_fluid`.
    """
    if n_particles < 2:
        raise ValueError(f"need at least two particles: {n_particles}")
    if not 0.0 < fraction_b < 1.0:
        raise ValueError(f"fraction_b must be in (0, 1): {fraction_b}")
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([LJ_FLUID, LJ_FLUID_B])
    positions = _jittered_lattice(n_particles, edge, jitter, rng)
    stride = max(2, int(round(1.0 / fraction_b)))
    index = np.arange(n_particles)
    names = np.where(index % stride == stride - 1, "KR", "AR")
    topo.add_particles(names.tolist(), np.zeros(n_particles), mol_id=index)

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system


def build_lj_fluid(
    n_particles: int,
    temperature: float = 120.0,
    density: float = LJ_FLUID_DENSITY,
    seed: int = 2019,
    jitter: float = 0.05,
) -> ParticleSystem:
    """Build a one-site LJ fluid (argon-like) — the fast test workload."""
    if n_particles < 2:
        raise ValueError(f"need at least two particles: {n_particles}")
    edge = (n_particles / density) ** (1.0 / 3.0)
    rng = np.random.default_rng(seed)

    topo = Topology([LJ_FLUID])
    positions = _jittered_lattice(n_particles, edge, jitter, rng)
    topo.add_particles(
        ["AR"] * n_particles, np.zeros(n_particles),
        mol_id=np.arange(n_particles),
    )

    system = ParticleSystem(positions, Box.cubic(edge), topo)
    system.thermalize(temperature, rng)
    return system
