"""Registry semantics: builders, config derivation, fingerprints, and
the full-matrix audit (the CI drift gate in unit-test form)."""

import numpy as np
import pytest

from repro.core.kernels import ALL_SPECS
from repro.scenarios.registry import (
    FAMILIES,
    RUNG_TO_KERNEL_SPEC,
    RUNG_TO_LEVEL,
    ScenarioFamily,
    audit,
    build_scenario,
    engine_config_for,
    get_family,
    kernel_spec_name_for,
    md_config_for,
    nonbonded_for,
    register_family,
    scenario_fingerprint,
    variant_matrix,
)
from repro.scenarios.spec import SpecParseError, concretize_text


class TestFamilies:
    def test_registered_names(self):
        assert set(FAMILIES) == {"water", "ionic", "ljmix", "solute"}

    def test_get_family_unknown(self):
        with pytest.raises(SpecParseError, match="unknown scenario family"):
            get_family("plasma")

    def test_register_guards_bad_default_version(self):
        with pytest.raises(ValueError, match="default version"):
            register_family(ScenarioFamily(
                name="broken", description="", versions=("a",),
                default_version="b", charged=False, pure_water=False,
                has_constraints=False, min_particles=2, default_n=100,
                default_temperature=100.0, entity_density=10.0,
                atoms_per_entity=1, builder=lambda spec: None,
            ))
        assert "broken" not in FAMILIES


class TestBuilders:
    def test_water_spec_matches_direct_builder(self):
        # Load-bearing bit-identity: the registry path must call the
        # same builder with the same arguments as the legacy serve path.
        from repro.md.nonbonded import NonbondedParams
        from repro.md.water import build_water_system

        system, nb = build_scenario(concretize_text("water"))
        direct = build_water_system(900, seed=2019)
        np.testing.assert_array_equal(system.positions, direct.positions)
        np.testing.assert_array_equal(system.charges, direct.charges)
        assert nb == NonbondedParams(r_cut=0.9, r_list=1.0,
                                     coulomb_mode="rf")

    def test_every_family_version_builds(self):
        for family in FAMILIES.values():
            for version in family.versions:
                spec = concretize_text(
                    f"{family.name}@{version} n=300 rcut=0.45"
                )
                system, nb = build_scenario(spec)
                assert len(system.positions) >= family.min_particles
                assert float(np.sum(system.charges)) == pytest.approx(
                    0.0, abs=1e-9
                )

    def test_build_deterministic(self):
        a, _ = build_scenario(concretize_text("ionic n=300 rcut=0.45"))
        b, _ = build_scenario(concretize_text("ionic n=300 rcut=0.45"))
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_abstract_spec_rejected(self):
        from repro.scenarios.spec import SpecError, parse_spec

        with pytest.raises(SpecError, match="concrete"):
            build_scenario(parse_spec("water"))


class TestConfigDerivation:
    def test_rung_maps(self):
        assert set(RUNG_TO_LEVEL) == set(RUNG_TO_KERNEL_SPEC)
        for rung, name in RUNG_TO_KERNEL_SPEC.items():
            assert name in ALL_SPECS
            assert 0 <= RUNG_TO_LEVEL[rung] <= 3

    def test_engine_config_fused(self):
        config = engine_config_for(concretize_text("water"))
        assert config.optimization_level == 3
        assert config.constraint_algorithm == "auto"
        assert config.nonbonded.coulomb_mode == "rf"

    def test_engine_config_nvt_couples_thermostat(self):
        config = engine_config_for(
            concretize_text("water ensemble=nvt temp=280")
        )
        assert config.integrator.thermostat == "vrescale"
        assert config.integrator.target_temperature == pytest.approx(280.0)
        nve = engine_config_for(concretize_text("water"))
        assert nve.integrator.thermostat == "none"

    def test_engine_config_overrides_pass_through(self):
        config = engine_config_for(
            concretize_text("water"), report_interval=7, backend="serial"
        )
        assert config.report_interval == 7
        assert config.backend == "serial"

    def test_md_config_pme(self):
        config = md_config_for(concretize_text("water elec=pme"))
        assert config.use_pme
        assert config.nonbonded.coulomb_mode == "ewald"
        assert not md_config_for(concretize_text("water")).use_pme

    def test_elec_to_coulomb(self):
        assert nonbonded_for(
            concretize_text("water elec=cut")
        ).coulomb_mode == "cut"
        assert nonbonded_for(
            concretize_text("ljmix")
        ).coulomb_mode == "none"

    def test_kernel_spec_name_per_rung(self):
        for rung, expected in RUNG_TO_KERNEL_SPEC.items():
            extra = "platform=knl" if rung == "ori" else ""
            spec = concretize_text(f"water rung={rung} {extra}".strip())
            assert kernel_spec_name_for(spec) == expected


class TestFingerprints:
    def test_stable_across_spellings(self):
        a = concretize_text("water@spce n=1500 ensemble=nvt elec=rf")
        b = concretize_text("water@spce elec=rf n=1500 ensemble=nvt")
        assert scenario_fingerprint(a) == scenario_fingerprint(b)

    def test_distinct_for_distinct_specs(self):
        a = concretize_text("water n=900")
        b = concretize_text("water n=1500")
        assert scenario_fingerprint(a) != scenario_fingerprint(b)

    def test_hex_digest_shape(self):
        fp = scenario_fingerprint(concretize_text("water"))
        assert len(fp) == 32
        int(fp, 16)


class TestAudit:
    def test_full_matrix_no_drift(self):
        report = audit()
        assert report["drift"] == []
        assert report["concretized"] > 0
        assert report["rejected"] > 0  # declared rules actually fire
        assert report["cells"] == (
            report["concretized"] + report["rejected"]
        )

    def test_matrix_covers_every_family_version(self):
        heads = {text.split()[0] for text, _ in variant_matrix()}
        for family in FAMILIES.values():
            for version in family.versions:
                assert f"{family.name}@{version}" in heads
