"""Topology tables, ParticleSystem state, and system builders."""

import numpy as np
import pytest

from repro.md.box import Box
from repro.md.constants import (
    LJ_FLUID,
    SPC_HYDROGEN,
    SPC_OXYGEN,
    SPC_RHH,
    SPC_ROH,
    AtomType,
    WaterGeometry,
)
from repro.md.system import ParticleSystem
from repro.md.topology import Bond, Constraint, Topology
from repro.md.water import build_lj_fluid, build_water_system
from repro.util.units import kinetic_temperature


class TestAtomType:
    def test_from_sigma_epsilon(self):
        at = AtomType.from_sigma_epsilon("X", 1.0, 0.3, 1.0)
        assert at.c6 == pytest.approx(4 * 0.3**6)
        assert at.c12 == pytest.approx(4 * 0.3**12)

    def test_spc_oxygen_values(self):
        # Known SPC values: C6 ~ 2.6e-3, C12 ~ 2.6e-6 (GROMACS units).
        assert SPC_OXYGEN.c6 == pytest.approx(2.617e-3, rel=1e-2)
        assert SPC_OXYGEN.c12 == pytest.approx(2.634e-6, rel=1e-2)
        assert SPC_HYDROGEN.c6 == 0.0


class TestWaterGeometry:
    def test_rigid_distances(self):
        offs = WaterGeometry().site_offsets()
        assert np.linalg.norm(offs[1] - offs[0]) == pytest.approx(SPC_ROH)
        assert np.linalg.norm(offs[2] - offs[0]) == pytest.approx(SPC_ROH)
        assert np.linalg.norm(offs[2] - offs[1]) == pytest.approx(SPC_RHH)


class TestTopology:
    def test_combination_rule_geometric(self):
        topo = Topology([SPC_OXYGEN, SPC_HYDROGEN])
        c6 = topo.c6_table
        assert c6[0, 0] == pytest.approx(SPC_OXYGEN.c6)
        assert c6[0, 1] == pytest.approx(np.sqrt(SPC_OXYGEN.c6 * SPC_HYDROGEN.c6))
        np.testing.assert_allclose(c6, c6.T)

    def test_add_particles_and_masses(self):
        topo = Topology([SPC_OXYGEN, SPC_HYDROGEN])
        ids = topo.add_particles(["OW", "HW", "HW"], [-0.82, 0.41, 0.41], 0)
        np.testing.assert_array_equal(ids, [0, 1, 2])
        np.testing.assert_allclose(
            topo.masses, [SPC_OXYGEN.mass, SPC_HYDROGEN.mass, SPC_HYDROGEN.mass]
        )

    def test_block_append_equals_per_molecule(self):
        names, charges = ["OW", "HW", "HW"], [-0.82, 0.41, 0.41]
        one_by_one = Topology([SPC_OXYGEN, SPC_HYDROGEN])
        for m in range(4):
            one_by_one.add_particles(names, charges, mol_id=m)
        block = Topology([SPC_OXYGEN, SPC_HYDROGEN])
        ids = block.add_particles(
            names * 4, np.tile(charges, 4), mol_id=np.repeat(np.arange(4), 3)
        )
        np.testing.assert_array_equal(ids, np.arange(12))
        for name in ("type_ids", "charges", "mol_ids"):
            got, want = getattr(block, name), getattr(one_by_one, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_block_mol_id_length_mismatch(self):
        topo = Topology([LJ_FLUID])
        with pytest.raises(ValueError, match="mol_id"):
            topo.add_particles(["AR"] * 3, [0.0] * 3, mol_id=np.arange(2))
        assert topo.n_particles == 0

    def test_unknown_type(self):
        topo = Topology([LJ_FLUID])
        with pytest.raises(KeyError, match="unknown atom type"):
            topo.add_particles(["XX"], [0.0], 0)

    def test_duplicate_type_names_rejected(self):
        with pytest.raises(ValueError):
            Topology([LJ_FLUID, LJ_FLUID])

    def test_validate_catches_bad_bond(self):
        topo = Topology([LJ_FLUID])
        topo.add_particles(["AR"], [0.0], 0)
        topo.bonds.append(Bond(0, 5, 0.1, 100.0))
        with pytest.raises(ValueError, match="bad bond"):
            topo.validate()

    def test_validate_catches_bad_constraint(self):
        topo = Topology([LJ_FLUID])
        topo.add_particles(["AR"], [0.0], 0)
        topo.add_particles(["AR"], [0.0], 1)
        topo.constraints.append(Constraint(0, 1, -0.5))
        with pytest.raises(ValueError, match="non-positive"):
            topo.validate()


class TestParticleSystem:
    def test_shape_validation(self):
        topo = Topology([LJ_FLUID])
        topo.add_particles(["AR"], [0.0], 0)
        with pytest.raises(ValueError):
            ParticleSystem(np.zeros((2, 3)), Box.cubic(2.0), topo)
        with pytest.raises(ValueError):
            ParticleSystem(np.zeros((1, 2)), Box.cubic(2.0), topo)

    def test_thermalize_hits_target(self, water_small, rng):
        sys2 = water_small.copy()
        sys2.thermalize(250.0, rng)
        assert sys2.temperature() == pytest.approx(250.0, rel=1e-6)
        # COM removed
        p = (sys2.masses[:, None] * sys2.velocities).sum(axis=0)
        np.testing.assert_allclose(p, 0.0, atol=1e-8)

    def test_ndof_accounts_constraints(self, water_small):
        n = water_small.n_particles
        n_con = len(water_small.topology.constraints)
        assert water_small.n_dof() == 3 * n - n_con - 3

    def test_kinetic_temperature_consistency(self, water_small):
        ekin = water_small.kinetic_energy()
        assert water_small.temperature() == pytest.approx(
            kinetic_temperature(ekin, water_small.n_dof())
        )

    def test_copy_independent(self, water_small):
        dup = water_small.copy()
        dup.positions += 0.1
        assert not np.allclose(dup.positions, water_small.positions)


class TestBuilders:
    def test_water_structure(self):
        sys_ = build_water_system(300, seed=1)
        assert sys_.n_particles == 300
        topo = sys_.topology
        assert len(topo.constraints) == 3 * 100
        # Rigid geometry holds in the built configuration.
        for c in topo.constraints[:9]:
            d = sys_.box.distance(sys_.positions[c.i], sys_.positions[c.j])
            assert d == pytest.approx(c.distance, abs=1e-9)
        # Charge neutrality.
        assert sys_.charges.sum() == pytest.approx(0.0, abs=1e-9)

    def test_water_density(self):
        sys_ = build_water_system(3000, seed=2)
        mol_per_nm3 = (sys_.n_particles / 3) / sys_.box.volume
        assert mol_per_nm3 == pytest.approx(33.33, rel=1e-6)

    def test_lj_fluid(self):
        sys_ = build_lj_fluid(100, seed=3)
        assert sys_.n_particles == 100
        assert np.all(sys_.charges == 0.0)
        # every particle its own molecule: no exclusions
        assert len(set(sys_.topology.mol_ids.tolist())) == 100

    def test_builders_reject_tiny(self):
        with pytest.raises(ValueError):
            build_water_system(2)
        with pytest.raises(ValueError):
            build_lj_fluid(1)

    def test_deterministic_by_seed(self):
        a = build_water_system(150, seed=9)
        b = build_water_system(150, seed=9)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.velocities, b.velocities)
