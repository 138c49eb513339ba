"""Scenario spec language + concretizer (DESIGN.md §15).

A *spec* is a compact description of one simulation scenario, modelled on
Spack's package specs::

    water@spce n=1500 ensemble=nvt elec=rf rung=fused platform=sw26010

The head names a **scenario family** and optional **version** (the
family's parameter set: water model, salt, mixture composition); the
remaining ``key=value`` tokens set **variants**.  An abstract spec may
leave anything out; :meth:`ScenarioSpec.concretize` fills defaults
(family-aware: an uncharged mixture defaults to ``elec=none`` where water
defaults to ``elec=rf``), enforces declared **dependencies** (``elec=pme``
needs a charged system and a PME-capable rung) and **conflicts**
(``constraints=settle`` needs a pure 3-site water topology), and returns
a fully-pinned concrete spec whose canonical string round-trips:
``parse_spec(str(spec)).concretize() == spec``.

Everything here is data + pure functions: the variant table and the rule
list *are* the matrix of supported scenarios, which is what lets the CI
smoke job diff declared variants against the registry and lets two
textually different spec strings share one fingerprint (the serve tier
dedups on the concrete canonical form, never the raw text).

Family records (builders, charge/constraint properties, versions) live
in :mod:`repro.scenarios.registry`; this module imports them lazily so
the spec grammar has no import-time dependency on the MD layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable


class SpecError(ValueError):
    """Base class for every spec-language failure."""


class SpecParseError(SpecError):
    """Malformed spec text / unknown family or version."""


class UnknownVariantError(SpecError):
    """Unknown variant name, or a value outside a closed domain."""


class SpecDependencyError(SpecError):
    """A declared ``depends_on`` requirement is not satisfied."""


class SpecConflictError(SpecError):
    """A declared conflict fires for this combination."""


# ---------------------------------------------------------------------------
# Variant declarations
# ---------------------------------------------------------------------------

ENSEMBLES = ("nve", "nvt")
ELEC_MODES = ("rf", "pme", "cut", "none")
CONSTRAINT_CHOICES = ("auto", "settle", "lincs", "shake")
#: Strategy rungs: the paper's Fig. 8 optimisation ladder.  ``fused`` is
#: the full SW_GROMACS stack (read/write caches + SIMD + Bit-Map marks).
RUNGS = ("ori", "pkg", "cache", "vec", "fused")
#: Rungs whose neighbour-search/comm model supports PME decomposition
#: (engine optimisation level >= 2).
PME_CAPABLE_RUNGS = ("cache", "vec", "fused")
PLATFORMS = ("sw26010", "knl", "p100")


@dataclass(frozen=True)
class Variant:
    """One declared variant: name, type, domain, family-aware default.

    ``default`` is either a plain value or a callable taking the family
    record (``registry.ScenarioFamily``) — the Spack idiom of
    conditional defaults expressed as data.  ``families`` restricts a
    variant to specific families (None = every family).
    """

    name: str
    kind: type
    default: object
    values: tuple[str, ...] | None = None
    families: tuple[str, ...] | None = None
    doc: str = ""

    def convert(self, raw: object) -> object:
        """Coerce ``raw`` into this variant's type/domain."""
        if self.kind is str:
            val = str(raw).lower()
            if self.values is not None and val not in self.values:
                raise UnknownVariantError(
                    f"variant '{self.name}' has no value {val!r}; "
                    f"allowed: {', '.join(self.values)}"
                )
            return val
        try:
            if self.kind is int:
                val = int(str(raw), 10)
            else:
                val = float(raw)
        except (TypeError, ValueError):
            raise SpecParseError(
                f"variant '{self.name}' expects {self.kind.__name__}, "
                f"got {raw!r}"
            ) from None
        return val

    def default_for(self, family) -> object:
        if callable(self.default):
            return self.convert(self.default(family))
        return self.convert(self.default)


#: The full declared variant table, in canonical output order.
VARIANTS: dict[str, Variant] = {
    v.name: v
    for v in (
        Variant("n", int, lambda fam: fam.default_n,
                doc="target particle count"),
        Variant("ensemble", str, "nve", ENSEMBLES,
                doc="statistical ensemble (nvt couples a thermostat)"),
        Variant("elec", str, lambda fam: "rf" if fam.charged else "none",
                ELEC_MODES,
                doc="electrostatics: reaction field, PME (ewald "
                    "real-space + mesh), plain cutoff, or LJ-only"),
        Variant("constraints", str, "auto", CONSTRAINT_CHOICES,
                doc="constraint solver (auto = SETTLE for pure water, "
                    "SHAKE otherwise)"),
        Variant("rung", str, "fused", RUNGS,
                doc="strategy rung on the Fig. 8 optimisation ladder"),
        Variant("platform", str, "sw26010", PLATFORMS,
                doc="platform model; CPE rungs exist only on sw26010"),
        Variant("seed", int, 2019, doc="build/thermalisation RNG seed"),
        Variant("rcut", float, 0.9, doc="short-range cutoff (nm)"),
        Variant("temp", float, lambda fam: fam.default_temperature,
                doc="thermalisation / thermostat temperature (K)"),
        Variant("ion_frac", float, 0.05, families=("ionic",),
                doc="fraction of lattice sites holding an ion"),
    )
}

#: Variants that pin the built particle system or its nonbonded
#: parameters — the spec half of ``JobRequest.system_key``.  Everything
#: else (ensemble, rung, platform, constraints) changes *how* the system is
#: driven, not *what* is built, so batches may still share one system.
SYSTEM_VARIANTS = ("n", "seed", "rcut", "temp", "elec", "ion_frac")


# ---------------------------------------------------------------------------
# Rules: depends_on / conflicts, Spack-style, as data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One declared dependency or conflict.

    ``when`` decides whether the rule applies to a concrete spec;
    ``ok`` decides whether it is satisfied.  ``message`` is formatted
    with the spec and family and must *name* the violated requirement —
    that text is the actionable error the acceptance criteria demand.
    """

    kind: str  # "depends_on" | "conflicts"
    subject: str
    when: Callable
    ok: Callable
    message: str

    def check(self, spec: "ScenarioSpec", family) -> None:
        if not self.when(spec, family):
            return
        if self.ok(spec, family):
            return
        exc = (
            SpecDependencyError
            if self.kind == "depends_on"
            else SpecConflictError
        )
        raise exc(
            f"{self.kind}({self.subject!r}): "
            + self.message.format(spec=spec, family=family.name)
        )


RULES: tuple[Rule, ...] = (
    Rule(
        "depends_on",
        "elec=pme -> charged system",
        when=lambda s, f: s["elec"] == "pme",
        ok=lambda s, f: f.charged,
        message="elec=pme requires a charged system, but family "
                "'{family}' carries no charges (try elec=none)",
    ),
    Rule(
        "depends_on",
        "elec=pme -> PME-capable rung",
        when=lambda s, f: s["elec"] == "pme",
        ok=lambda s, f: s["rung"] in PME_CAPABLE_RUNGS,
        message="elec=pme requires a PME-capable rung "
                "(" + "|".join(PME_CAPABLE_RUNGS) + "), got rung={spec.rung}",
    ),
    Rule(
        "conflicts",
        "constraints=settle <-> non-water topology",
        when=lambda s, f: s["constraints"] == "settle",
        ok=lambda s, f: f.pure_water,
        message="constraints=settle requires a pure 3-site water "
                "topology; family '{family}' is not pure water "
                "(use constraints=shake or auto)",
    ),
    Rule(
        "depends_on",
        "constraints=settle|lincs|shake -> constrained topology",
        when=lambda s, f: s["constraints"] != "auto",
        ok=lambda s, f: f.has_constraints,
        message="constraints={spec.constraints} requires a constrained "
                "topology; family '{family}' declares none "
                "(leave constraints=auto)",
    ),
    Rule(
        "conflicts",
        "platform!=sw26010 <-> CPE rungs",
        when=lambda s, f: s["platform"] != "sw26010",
        ok=lambda s, f: s["rung"] == "ori",
        message="platform={spec.platform} conflicts with "
                "rung={spec.rung}: the CPE optimisation rungs exist "
                "only on sw26010 (use rung=ori for cross-platform runs)",
    ),
)


# ---------------------------------------------------------------------------
# The spec itself
# ---------------------------------------------------------------------------


def _format_value(val: object) -> str:
    if isinstance(val, float):
        return repr(val)
    return str(val)


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: family, version, variant assignments.

    Abstract until :meth:`concretize` fills every variant; only concrete
    specs may be built, fingerprinted, or routed.
    """

    family: str
    version: str | None = None
    variants: dict = field(default_factory=dict)
    concrete: bool = False

    # -- access --------------------------------------------------------
    def __getitem__(self, name: str) -> object:
        try:
            return self.variants[name]
        except KeyError:
            raise KeyError(
                f"variant {name!r} not set on this "
                f"{'concrete' if self.concrete else 'abstract'} spec"
            ) from None

    def get(self, name: str, default=None):
        return self.variants.get(name, default)

    def __getattr__(self, name: str):
        # Convenience: spec.rung, spec.elec ... for declared variants.
        if name in VARIANTS:
            try:
                return self.variants[name]
            except KeyError:
                pass
        raise AttributeError(name)

    # -- canonical text form -------------------------------------------
    def to_string(self) -> str:
        head = self.family if self.version is None else (
            f"{self.family}@{self.version}"
        )
        parts = [head]
        for name in VARIANTS:
            if name in self.variants:
                parts.append(f"{name}={_format_value(self.variants[name])}")
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __hash__(self) -> int:
        return hash(self.to_string())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return (
            self.concrete == other.concrete
            and self.to_string() == other.to_string()
        )

    def canonical(self) -> dict:
        """JSON-able canonical form (fixed key order)."""
        return {
            "family": self.family,
            "version": self.version,
            "variants": {
                name: self.variants[name]
                for name in VARIANTS
                if name in self.variants
            },
        }

    def system_canonical(self) -> str:
        """Canonical form of the *system-defining* subset (see
        :data:`SYSTEM_VARIANTS`): the scenario half of the serve tier's
        ``system_key`` and the fleet ring's routing key."""
        if not self.concrete:
            raise SpecError("system_canonical() needs a concrete spec")
        parts = [f"{self.family}@{self.version}"]
        for name in SYSTEM_VARIANTS:
            if name in self.variants:
                parts.append(f"{name}={_format_value(self.variants[name])}")
        return " ".join(parts)

    # -- concretization ------------------------------------------------
    def concretize(self) -> "ScenarioSpec":
        """Resolve to a concrete spec: version + every applicable
        variant pinned, dependencies and conflicts enforced.

        Raises a :class:`SpecError` subclass with a message naming the
        violated requirement; never returns a half-filled spec.
        """
        if self.concrete:
            return self
        from repro.scenarios.registry import get_family

        family = get_family(self.family)  # SpecParseError on unknown
        version = self.version or family.default_version
        if version not in family.versions:
            raise SpecParseError(
                f"family '{family.name}' has no version {version!r}; "
                f"known: {', '.join(family.versions)}"
            )

        resolved: dict = {}
        for name, variant in VARIANTS.items():
            applicable = (
                variant.families is None or family.name in variant.families
            )
            if name in self.variants:
                if not applicable:
                    raise UnknownVariantError(
                        f"variant '{name}' is not defined for family "
                        f"'{family.name}' (only for: "
                        f"{', '.join(variant.families)})"
                    )
                resolved[name] = variant.convert(self.variants[name])
            elif applicable:
                resolved[name] = variant.default_for(family)

        concrete = ScenarioSpec(
            family=family.name,
            version=version,
            variants=resolved,
            concrete=True,
        )
        _check_values(concrete, family)
        for rule in RULES:
            rule.check(concrete, family)
        return concrete


def _check_values(spec: ScenarioSpec, family) -> None:
    """Scalar sanity that does not fit the closed-domain table."""
    n = spec["n"]
    if n < family.min_particles:
        raise SpecConflictError(
            f"n={n} is below family '{family.name}'s minimum "
            f"({family.min_particles} particles)"
        )
    if spec["rcut"] <= 0:
        raise SpecConflictError(f"rcut must be > 0, got {spec['rcut']}")
    if spec["temp"] <= 0:
        raise SpecConflictError(f"temp must be > 0, got {spec['temp']}")
    frac = spec.get("ion_frac")
    if frac is not None and not 0.0 < frac <= 0.5:
        raise SpecConflictError(
            f"ion_frac must be in (0, 0.5], got {frac}"
        )
    # Geometry: the pair list needs a box of at least 2 x r_list per
    # edge.  Reject here, at concretization, with the fix spelled out —
    # not deep in the cell grid at runtime.
    edge = family.box_edge(spec)
    r_list = spec["rcut"] + 0.1
    if edge < 2.0 * r_list:
        raise SpecConflictError(
            f"n={n} at family '{family.name}' density gives a "
            f"{edge:.2f} nm box, smaller than 2 x r_list = "
            f"{2.0 * r_list:.2f} nm; raise n or lower rcut"
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def parse_spec(text: str) -> ScenarioSpec:
    """Parse spec text into an *abstract* :class:`ScenarioSpec`.

    Grammar: ``family[@version] [name=value ...]`` — whitespace-
    separated, order-insensitive after the head.  Unknown names and
    type/domain errors fail here; family-dependent validation
    (applicability, dependencies, conflicts) waits for
    :meth:`ScenarioSpec.concretize`.
    """
    if not isinstance(text, str) or not text.strip():
        raise SpecParseError("empty scenario spec")
    tokens = text.split()
    head = tokens[0]
    if "=" in head:
        raise SpecParseError(
            f"spec must start with a family head, got {head!r} "
            "(expected 'family[@version] name=value ...')"
        )
    family, _, version = head.partition("@")
    family = family.lower()
    if not family:
        raise SpecParseError(f"missing family name in head {head!r}")
    variants: dict = {}
    for token in tokens[1:]:
        name, sep, raw = token.partition("=")
        if not sep or not name or not raw:
            raise SpecParseError(
                f"bad variant token {token!r} (expected name=value)"
            )
        name = name.lower()
        if name not in VARIANTS:
            raise UnknownVariantError(
                f"unknown variant {name!r}; known: "
                f"{', '.join(VARIANTS)}"
            )
        if name in variants:
            raise SpecParseError(f"duplicate variant {name!r}")
        # Eager type/domain coercion: a typo like ``ensemble=npt`` or
        # ``n=many`` fails here, at parse; only *family context*
        # (applicability, dependencies) waits for concretize().
        variants[name] = VARIANTS[name].convert(raw)
    return ScenarioSpec(
        family=family, version=(version or None).lower() if version else None,
        variants=variants,
    )


def spec_from_dict(data: dict) -> ScenarioSpec:
    """Build an abstract spec from its dict form.

    Accepts either ``{"spec": "water@spce n=1500 ..."}`` or the exploded
    form ``{"family": "water", "version": "spce", "n": 1500, ...}``.
    """
    if not isinstance(data, dict):
        raise SpecParseError(f"spec dict expected, got {type(data).__name__}")
    if "spec" in data:
        extra = set(data) - {"spec"}
        if extra:
            raise SpecParseError(
                f"dict with 'spec' text cannot also set {sorted(extra)}"
            )
        return parse_spec(data["spec"])
    if "family" not in data:
        raise SpecParseError("spec dict needs a 'family' (or 'spec') key")
    variants = {}
    for key, val in data.items():
        if key in ("family", "version"):
            continue
        if key not in VARIANTS:
            raise UnknownVariantError(
                f"unknown variant {key!r}; known: {', '.join(VARIANTS)}"
            )
        variants[key] = val
    version = data.get("version")
    return ScenarioSpec(
        family=str(data["family"]).lower(),
        version=str(version).lower() if version is not None else None,
        variants=variants,
    )


@lru_cache(maxsize=4096)
def concretize_text(text: str) -> ScenarioSpec:
    """``parse + concretize`` with a cache keyed on the raw text.

    The serve tier calls this on every fingerprint/system-key access;
    concretization is pure, so caching is safe and makes spec-bearing
    requests as cheap to hash as legacy ones.
    """
    return parse_spec(text).concretize()
