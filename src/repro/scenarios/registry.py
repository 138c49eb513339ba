"""Scenario registry: families, builders, config derivation (DESIGN.md §15).

Each :class:`ScenarioFamily` is a data record pointing at a `repro.md`
builder plus the properties the spec rules consult (charged?, pure
water?, constrained?).  Registering a family is the *only* step needed
to open a new workload to the whole stack: specs referencing it parse,
concretize, fingerprint, batch, route on the fleet ring, and campaign —
all of that machinery keys on the concrete spec's canonical strings,
never on the family's code.

Derivation maps live here too:

* ``rung`` -> engine optimisation level and kernel strategy spec (the
  Fig. 8 ladder);
* ``elec`` -> `NonbondedParams.coulomb_mode` (PME runs the ewald
  real-space half short-range, like GROMACS);
* spec -> :class:`~repro.core.engine.EngineConfig` /
  :class:`~repro.md.mdloop.MdConfig` for full runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.md.constants import LJ_FLUID_DENSITY, WATER_MOLECULES_PER_NM3

from repro.scenarios.spec import (
    RUNGS,
    VARIANTS,
    ScenarioSpec,
    SpecError,
    SpecParseError,
    concretize_text,
    parse_spec,
)

#: elec variant -> NonbondedParams.coulomb_mode.  ``pme`` maps onto the
#: erfc-attenuated ewald real-space path (the mesh half is modelled by
#: the engine's comm/PME terms, as in the paper's Table 3 setup).
ELEC_TO_COULOMB = {"rf": "rf", "pme": "ewald", "cut": "cut", "none": "none"}

#: rung -> engine optimisation level (Fig. 10's Ori/Cal/List/Other).
RUNG_TO_LEVEL = {"ori": 0, "pkg": 1, "cache": 2, "vec": 3, "fused": 3}

#: rung -> kernel strategy spec (Fig. 8's ladder; fused = MARK, the
#: paper's full read-cache + deferred-update + SIMD + Bit-Map stack).
RUNG_TO_KERNEL_SPEC = {
    "ori": "ORI",
    "pkg": "PKG",
    "cache": "CACHE",
    "vec": "VEC",
    "fused": "MARK",
}


@dataclass(frozen=True)
class ScenarioFamily:
    """One registered scenario family (a Spack package, in spirit)."""

    name: str
    description: str
    versions: tuple[str, ...]
    default_version: str
    #: Properties the spec rules consult.
    charged: bool
    pure_water: bool
    has_constraints: bool
    #: Scalar defaults/limits.
    min_particles: int
    default_n: int
    default_temperature: float
    #: Particle density used for the concretize-time box-edge check,
    #: entities (molecules or atoms) per nm^3.
    entity_density: float
    #: Atoms per lattice entity (3 for water-lattice families).
    atoms_per_entity: int
    #: (concrete spec) -> ParticleSystem.
    builder: Callable[[ScenarioSpec], object]

    def box_edge(self, spec: ScenarioSpec) -> float:
        """Cubic box edge (nm) the builder will produce for ``spec``."""
        entities = max(1, spec["n"] // self.atoms_per_entity)
        return float((entities / self.entity_density) ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Builders (thin adapters: concrete spec -> repro.md builder call)
# ---------------------------------------------------------------------------


def _build_water(spec: ScenarioSpec):
    from repro.md.water import build_water_system

    return build_water_system(
        spec["n"],
        temperature=spec["temp"],
        seed=spec["seed"],
        model=spec.version,
    )


def _build_ionic(spec: ScenarioSpec):
    from repro.md.water import build_ionic_solution

    return build_ionic_solution(
        spec["n"],
        temperature=spec["temp"],
        ion_frac=spec["ion_frac"],
        seed=spec["seed"],
    )


def _build_ljmix_pure(spec: ScenarioSpec):
    from repro.md.water import build_lj_fluid

    return build_lj_fluid(
        spec["n"], temperature=spec["temp"], seed=spec["seed"]
    )


def _build_ljmix(spec: ScenarioSpec):
    if spec.version == "argon":
        return _build_ljmix_pure(spec)
    from repro.md.water import build_lj_mixture

    return build_lj_mixture(
        spec["n"], temperature=spec["temp"], seed=spec["seed"]
    )


def _build_solute(spec: ScenarioSpec):
    from repro.md.water import build_embedded_solute

    return build_embedded_solute(
        spec["n"], temperature=spec["temp"], seed=spec["seed"]
    )


FAMILIES: dict[str, ScenarioFamily] = {}


def register_family(family: ScenarioFamily) -> None:
    """Register (or replace) a scenario family, with drift guards."""
    if not family.versions:
        raise ValueError(f"family '{family.name}' declares no versions")
    if family.default_version not in family.versions:
        raise ValueError(
            f"family '{family.name}' default version "
            f"{family.default_version!r} not in {family.versions}"
        )
    FAMILIES[family.name] = family


def get_family(name: str) -> ScenarioFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise SpecParseError(
            f"unknown scenario family {name!r}; known: "
            f"{', '.join(sorted(FAMILIES))}"
        ) from None


register_family(ScenarioFamily(
    name="water",
    description="rigid 3-site water box (the paper's benchmark family)",
    versions=("spc", "spce", "tip3p"),
    default_version="spc",
    charged=True,
    pure_water=True,
    has_constraints=True,
    min_particles=3,
    default_n=900,
    default_temperature=300.0,
    entity_density=WATER_MOLECULES_PER_NM3,
    atoms_per_entity=3,
    builder=_build_water,
))

register_family(ScenarioFamily(
    name="ionic",
    description="SPC water with dissolved Na+/Cl- pairs",
    versions=("nacl",),
    default_version="nacl",
    charged=True,
    pure_water=False,
    has_constraints=True,
    min_particles=15,
    default_n=900,
    default_temperature=300.0,
    entity_density=WATER_MOLECULES_PER_NM3,
    atoms_per_entity=3,
    builder=_build_ionic,
))

register_family(ScenarioFamily(
    name="ljmix",
    description="uncharged LJ fluid: pure argon or a binary Ar/Kr mixture",
    versions=("argon", "arkr"),
    default_version="argon",
    charged=False,
    pure_water=False,
    has_constraints=False,
    min_particles=2,
    default_n=900,
    default_temperature=120.0,
    entity_density=LJ_FLUID_DENSITY,
    atoms_per_entity=1,
    builder=_build_ljmix,
))

register_family(ScenarioFamily(
    name="solute",
    description="one large uncharged LJ bead embedded in SPC water",
    versions=("lj",),
    default_version="lj",
    charged=True,
    pure_water=False,
    has_constraints=True,
    min_particles=21,
    default_n=900,
    default_temperature=300.0,
    entity_density=WATER_MOLECULES_PER_NM3,
    atoms_per_entity=3,
    builder=_build_solute,
))


# ---------------------------------------------------------------------------
# Spec -> executable pieces
# ---------------------------------------------------------------------------


def nonbonded_for(spec: ScenarioSpec):
    """`NonbondedParams` for a concrete spec (r_list = rcut + 0.1,
    matching the serve tier's historical request mapping)."""
    from repro.md.nonbonded import NonbondedParams

    _require_concrete(spec)
    return NonbondedParams(
        r_cut=spec["rcut"],
        r_list=spec["rcut"] + 0.1,
        coulomb_mode=ELEC_TO_COULOMB[spec["elec"]],
    )


def build_scenario(spec: ScenarioSpec):
    """Build ``(ParticleSystem, NonbondedParams)`` for a concrete spec.

    Deterministic in the spec alone: the same concrete spec always
    yields bit-identical positions/velocities/topology, which is what
    lets StepCache, residency, and fleet routing key on the spec's
    canonical strings.
    """
    _require_concrete(spec)
    family = get_family(spec.family)
    return family.builder(spec), nonbonded_for(spec)


def _integrator_for(spec: ScenarioSpec):
    from repro.md.integrator import IntegratorConfig

    if spec["ensemble"] == "nvt":
        return IntegratorConfig(
            thermostat="vrescale", target_temperature=spec["temp"]
        )
    return IntegratorConfig()


def engine_config_for(spec: ScenarioSpec, **overrides):
    """`EngineConfig` derived from a concrete spec.

    ``overrides`` pass through engine knobs that are job-shaped rather
    than scenario-shaped (report_interval, backend, resilience, ...).
    """
    from repro.core.engine import EngineConfig

    _require_concrete(spec)
    kwargs = dict(
        nonbonded=nonbonded_for(spec),
        integrator=_integrator_for(spec),
        optimization_level=RUNG_TO_LEVEL[spec["rung"]],
        constraint_algorithm=spec["constraints"],
    )
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


def md_config_for(spec: ScenarioSpec, **overrides):
    """`MdConfig` (reference loop) derived from a concrete spec."""
    from repro.md.mdloop import MdConfig

    _require_concrete(spec)
    kwargs = dict(
        nonbonded=nonbonded_for(spec),
        integrator=_integrator_for(spec),
        use_pme=spec["elec"] == "pme",
        constraint_algorithm=spec["constraints"],
    )
    kwargs.update(overrides)
    return MdConfig(**kwargs)


def kernel_spec_name_for(spec: ScenarioSpec) -> str:
    """Strategy-kernel name (`repro.core.kernels.ALL_SPECS` key) for a
    concrete spec's rung."""
    _require_concrete(spec)
    return RUNG_TO_KERNEL_SPEC[spec["rung"]]


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """BLAKE2b over the concrete canonical string (stable across
    processes; the campaign report's cell identity)."""
    _require_concrete(spec)
    return hashlib.blake2b(
        spec.to_string().encode(), digest_size=16
    ).hexdigest()


def _require_concrete(spec: ScenarioSpec) -> None:
    if not isinstance(spec, ScenarioSpec) or not spec.concrete:
        raise SpecError(
            "a concrete spec is required here; call spec.concretize()"
        )


# ---------------------------------------------------------------------------
# Declared-matrix enumeration + drift audit (the CI smoke's backbone)
# ---------------------------------------------------------------------------


def variant_matrix():
    """Yield ``(text, family_name)`` covering the declared matrix:
    every family x version, and for every closed-domain variant each
    declared value (one factor at a time, others defaulted).

    Cells that trip a *declared* rule are part of the matrix too — the
    audit counts them as registered rejections, not failures.
    """
    for family in FAMILIES.values():
        for version in family.versions:
            head = f"{family.name}@{version}"
            yield head, family.name
            for name, variant in VARIANTS.items():
                if variant.families and family.name not in variant.families:
                    continue
                if variant.values is None:
                    continue
                for value in variant.values:
                    yield f"{head} {name}={value}", family.name


def audit() -> dict:
    """Concretize the full declared variant matrix.

    Returns counts plus per-cell outcomes.  Any failure that is *not* a
    declared dependency/conflict (i.e. an unknown variant, a parse
    error, or an unexpected exception) is **drift** between the declared
    matrix and the registry, and lands in ``drift`` — the CI smoke job
    fails on any entry there.
    """
    from repro.scenarios.spec import (
        SpecConflictError,
        SpecDependencyError,
    )

    ok: list[str] = []
    rejected: list[dict] = []
    drift: list[dict] = []
    for text, _family in variant_matrix():
        try:
            concrete = parse_spec(text).concretize()
        except (SpecConflictError, SpecDependencyError) as exc:
            rejected.append({"spec": text, "reason": str(exc)})
        except Exception as exc:  # noqa: BLE001 - drift must be visible
            drift.append({
                "spec": text,
                "error": f"{type(exc).__name__}: {exc}",
            })
        else:
            ok.append(concrete.to_string())
            # Round-trip stability is part of the declared contract.
            back = parse_spec(concrete.to_string()).concretize()
            if back != concrete:
                drift.append({
                    "spec": text,
                    "error": "canonical round-trip mismatch: "
                             f"{concrete.to_string()!r} -> "
                             f"{back.to_string()!r}",
                })
    return {
        "families": sorted(FAMILIES),
        "cells": len(ok) + len(rejected) + len(drift),
        "concretized": len(ok),
        "rejected": len(rejected),
        "drift": drift,
        "rejections": rejected,
    }


__all__ = [
    "ELEC_TO_COULOMB",
    "FAMILIES",
    "RUNGS",
    "RUNG_TO_KERNEL_SPEC",
    "RUNG_TO_LEVEL",
    "ScenarioFamily",
    "audit",
    "build_scenario",
    "concretize_text",
    "engine_config_for",
    "get_family",
    "kernel_spec_name_for",
    "md_config_for",
    "nonbonded_for",
    "register_family",
    "scenario_fingerprint",
    "variant_matrix",
]
