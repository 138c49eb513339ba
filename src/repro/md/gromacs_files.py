"""GROMACS file formats: ``.gro`` structures and ``.mdp`` run parameters.

The paper's artifact description builds its inputs from the
``water_GMX50_bare`` benchmark archive (folders ``0384``, ``0768``, ...
named by the particle count in thousands) and a ``.mdp`` whose key
settings it lists in Table 3.  This module provides:

* a fixed-column ``.gro`` writer/reader (positions + optional
  velocities) round-tripping our `ParticleSystem`s;
* an ``.mdp`` parser/emitter mapping the Table 3 keys onto
  `NonbondedParams` / `IntegratorConfig`;
* :func:`benchmark_case` — the ``water_GMX50_bare`` folder-name
  convention (``"0048"`` -> a 48,000-particle water box).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.box import Box
from repro.md.constants import SPC, SPC_HYDROGEN, SPC_OXYGEN
from repro.md.integrator import IntegratorConfig
from repro.md.nonbonded import NonbondedParams
from repro.md.system import ParticleSystem
from repro.md.topology import Topology
from repro.md.water import _water_constraints, build_water_system

_GRO_NAME = {0: "OW", 1: "HW"}  # type index -> atom name for water


def write_gro(
    system: ParticleSystem,
    sink,
    title: str = "repro water",
    include_velocities: bool = True,
) -> None:
    """Write the system in GROMACS ``.gro`` fixed-column format."""
    lines = [title, f"{system.n_particles:5d}"]
    topo = system.topology
    pos = system.box.wrap(system.positions)
    vel = system.velocities
    for idx in range(system.n_particles):
        res = int(topo.mol_ids[idx]) + 1
        name = topo.atom_types[topo.type_ids[idx]].name
        row = (
            f"{res % 100000:5d}{'SOL':<5s}{name:>5s}{(idx + 1) % 100000:5d}"
            f"{pos[idx, 0]:8.3f}{pos[idx, 1]:8.3f}{pos[idx, 2]:8.3f}"
        )
        if include_velocities:
            row += f"{vel[idx, 0]:8.4f}{vel[idx, 1]:8.4f}{vel[idx, 2]:8.4f}"
        lines.append(row)
    lx, ly, lz = system.box.lengths
    lines.append(f"{lx:10.5f}{ly:10.5f}{lz:10.5f}")
    sink.write("\n".join(lines) + "\n")


@dataclass
class GroData:
    """Raw contents of a ``.gro`` file."""

    title: str
    residue_ids: np.ndarray
    residue_names: list[str]
    atom_names: list[str]
    positions: np.ndarray
    velocities: np.ndarray | None
    box: Box


def read_gro(source) -> GroData:
    """Parse a ``.gro`` file (fixed columns, velocities optional)."""
    text = source.read()
    lines = text.splitlines()
    if len(lines) < 3:
        raise ValueError("truncated .gro file")
    title = lines[0]
    n = int(lines[1])
    if len(lines) < n + 3:
        raise ValueError(f".gro declares {n} atoms but has {len(lines) - 3} rows")
    res_ids, res_names, names = [], [], []
    pos = np.empty((n, 3))
    has_vel = len(lines[2]) >= 68
    vel = np.zeros((n, 3)) if has_vel else None
    for k in range(n):
        row = lines[2 + k]
        res_ids.append(int(row[0:5]))
        res_names.append(row[5:10].strip())
        names.append(row[10:15].strip())
        pos[k] = [float(row[20:28]), float(row[28:36]), float(row[36:44])]
        if has_vel:
            vel[k] = [float(row[44:52]), float(row[52:60]), float(row[60:68])]
    box_fields = [float(v) for v in lines[2 + n].split()]
    box = Box(tuple(box_fields[:3]))
    return GroData(
        title=title,
        residue_ids=np.array(res_ids),
        residue_names=res_names,
        atom_names=names,
        positions=pos,
        velocities=vel,
        box=box,
    )


def system_from_gro(data: GroData) -> ParticleSystem:
    """Rebuild a water `ParticleSystem` from parsed ``.gro`` data.

    Only SOL (3-site water) residues are supported — the paper's
    benchmark content.
    """
    n = len(data.positions)
    if n % 3:
        raise ValueError("water .gro must have 3 atoms per molecule")
    expect = ("OW", "HW", "HW")
    names = np.asarray(data.atom_names, dtype=str).reshape(-1, 3)
    bad = np.flatnonzero((names != expect).any(axis=1))
    if len(bad):
        m = int(bad[0])
        got = tuple(data.atom_names[3 * m : 3 * m + 3])
        raise ValueError(f"molecule {m}: expected {expect}, got {got}")
    topo = Topology([SPC_OXYGEN, SPC_HYDROGEN])
    topo.add_particles(
        list(expect) * (n // 3),
        np.tile([SPC.q_oxygen, SPC.q_hydrogen, SPC.q_hydrogen], n // 3),
        mol_id=np.arange(n) // 3,
    )
    topo.constraints = _water_constraints(np.arange(0, n, 3), SPC)
    return ParticleSystem(
        data.positions, data.box, topo, velocities=data.velocities
    )


# ---------------------------------------------------------------------------
# .mdp run parameters (paper Table 3)
# ---------------------------------------------------------------------------

#: The paper's Table 3 input deck.
PAPER_TABLE3_MDP = {
    "integrator": "md",
    "dt": "0.002",
    "nstlist": "10",
    "ns-type": "grid",
    "coulombtype": "PME",
    "rlist": "1.0",
    "rcoulomb": "1.0",
    "rvdw": "1.0",
    "cutoff-scheme": "verlet",
    "tcoupl": "v-rescale",
    "ref-t": "300",
    "constraints": "h-bonds",
    "constraint-algorithm": "settle",
}


def parse_mdp(source) -> dict[str, str]:
    """Parse ``key = value`` lines (``;`` comments, GROMACS style)."""
    params: dict[str, str] = {}
    for raw in source.read().splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed .mdp line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        params[key.lower().replace("_", "-")] = value
    return params


def write_mdp(params: dict[str, str], sink) -> None:
    width = max((len(k) for k in params), default=0)
    sink.write(
        "\n".join(f"{k:<{width}s} = {v}" for k, v in params.items()) + "\n"
    )


def mdp_to_configs(
    params: dict[str, str],
) -> tuple[NonbondedParams, IntegratorConfig, str]:
    """Map .mdp keys onto our configs; returns (nonbonded, integrator,
    constraint_algorithm).  Unknown keys are ignored (GROMACS tolerates
    extras); inconsistent cutoffs raise."""
    rlist = float(params.get("rlist", "1.0"))
    rcoulomb = float(params.get("rcoulomb", str(rlist)))
    rvdw = float(params.get("rvdw", str(rlist)))
    if abs(rcoulomb - rvdw) > 1e-9:
        raise ValueError(
            f"rcoulomb ({rcoulomb}) != rvdw ({rvdw}): unsupported"
        )
    coulombtype = params.get("coulombtype", "PME").lower()
    mode = {"pme": "ewald", "reaction-field": "rf", "cut-off": "cut"}.get(
        coulombtype
    )
    if mode is None:
        raise ValueError(f"unsupported coulombtype {coulombtype!r}")
    nonbonded = NonbondedParams(
        r_cut=rcoulomb,
        r_list=max(rlist, rcoulomb),
        nstlist=int(params.get("nstlist", "10")),
        coulomb_mode=mode,
    )
    tcoupl = params.get("tcoupl", "no").lower()
    thermostat = {
        "no": "none",
        "berendsen": "berendsen",
        "v-rescale": "vrescale",
    }.get(tcoupl)
    if thermostat is None:
        raise ValueError(f"unsupported tcoupl {tcoupl!r}")
    integrator = IntegratorConfig(
        dt=float(params.get("dt", "0.002")),
        thermostat=thermostat,
        target_temperature=float(params.get("ref-t", "300")),
        tau_t=float(params.get("tau-t", "0.1")),
    )
    algorithm = params.get("constraint-algorithm", "auto").lower()
    if algorithm == "lincs":
        pass
    elif algorithm in ("settle", "shake", "auto"):
        pass
    else:
        raise ValueError(f"unsupported constraint-algorithm {algorithm!r}")
    return nonbonded, integrator, algorithm


# ---------------------------------------------------------------------------
# water_GMX50_bare benchmark cases
# ---------------------------------------------------------------------------


def benchmark_case(folder_name: str, seed: int = 2019) -> ParticleSystem:
    """Build the water box a ``water_GMX50_bare`` folder denotes.

    Folder names give the particle count in thousands ("0048" = 48,000
    particles; "3072" = the paper's 3 M case).
    """
    if not folder_name.isdigit():
        raise ValueError(
            f"benchmark folder names are zero-padded numbers: {folder_name!r}"
        )
    n_particles = int(folder_name) * 1000
    if n_particles < 3:
        raise ValueError(f"empty benchmark case {folder_name!r}")
    return build_water_system(n_particles, seed=seed)
