"""GROMACS file formats, benchmark-case factory, and pressure/virial."""

import io

import numpy as np
import pytest

from repro.md.forces import brute_force_short_range, compute_short_range
from repro.md.gromacs_files import (
    PAPER_TABLE3_MDP,
    benchmark_case,
    mdp_to_configs,
    parse_mdp,
    read_gro,
    system_from_gro,
    write_gro,
    write_mdp,
)
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.pressure import PRESSURE_UNIT_TO_BAR, compute_pressure, ideal_gas_pressure
from repro.md.water import build_lj_fluid


class TestGroRoundTrip:
    def test_positions_velocities_box(self, water_small):
        buf = io.StringIO()
        write_gro(water_small, buf, title="roundtrip test")
        buf.seek(0)
        data = read_gro(buf)
        assert data.title == "roundtrip test"
        np.testing.assert_allclose(
            data.positions,
            water_small.box.wrap(water_small.positions),
            atol=5.1e-4,  # .gro stores 3 decimals
        )
        np.testing.assert_allclose(
            data.velocities, water_small.velocities, atol=5.1e-5
        )
        assert data.box.lengths == pytest.approx(water_small.box.lengths)

    def test_system_reconstruction(self, water_small):
        buf = io.StringIO()
        write_gro(water_small, buf)
        buf.seek(0)
        rebuilt = system_from_gro(read_gro(buf))
        assert rebuilt.n_particles == water_small.n_particles
        for name in ("type_ids", "charges", "mol_ids"):
            got = getattr(rebuilt.topology, name)
            want = getattr(water_small.topology, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert rebuilt.topology.constraints == water_small.topology.constraints
        # Physics of the rebuilt system matches to file precision.
        nb = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")
        e_orig = brute_force_short_range(water_small, nb).energy
        e_rebuilt = brute_force_short_range(rebuilt, nb).energy
        assert e_rebuilt == pytest.approx(e_orig, rel=5e-2)

    def test_no_velocities_variant(self, water_small):
        buf = io.StringIO()
        write_gro(water_small, buf, include_velocities=False)
        buf.seek(0)
        data = read_gro(buf)
        assert data.velocities is None

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            read_gro(io.StringIO("title\n10\n"))

    def test_non_water_rejected(self, lj_small):
        buf = io.StringIO()
        write_gro(lj_small, buf)
        buf.seek(0)
        with pytest.raises(ValueError):
            system_from_gro(read_gro(buf))

    def test_non_water_residue_named(self, water_small):
        buf = io.StringIO()
        write_gro(water_small, buf)
        buf.seek(0)
        data = read_gro(buf)
        data.atom_names[3 * 5 + 1] = "NA"
        with pytest.raises(
            ValueError,
            match=r"molecule 5: expected \('OW', 'HW', 'HW'\), "
            r"got \('OW', 'NA', 'HW'\)",
        ):
            system_from_gro(data)


class TestMdp:
    def test_paper_table3_maps(self):
        nb, integ, algorithm = mdp_to_configs(PAPER_TABLE3_MDP)
        assert nb.r_cut == 1.0
        assert nb.nstlist == 10
        assert nb.coulomb_mode == "ewald"  # PME real-space half
        assert integ.dt == 0.002
        assert integ.thermostat == "vrescale"
        assert algorithm == "settle"

    def test_parse_comments_and_underscores(self):
        text = "rlist = 1.2 ; buffer\n; full comment\nns_type = grid\n"
        params = parse_mdp(io.StringIO(text))
        assert params["rlist"] == "1.2"
        assert params["ns-type"] == "grid"

    def test_roundtrip(self):
        buf = io.StringIO()
        write_mdp(PAPER_TABLE3_MDP, buf)
        buf.seek(0)
        assert parse_mdp(buf) == {
            k.replace("_", "-"): v for k, v in PAPER_TABLE3_MDP.items()
        }

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            parse_mdp(io.StringIO("this is not a key value pair\n"))

    def test_inconsistent_cutoffs_rejected(self):
        with pytest.raises(ValueError, match="rcoulomb"):
            mdp_to_configs({"rcoulomb": "1.0", "rvdw": "0.9"})

    def test_unsupported_values_rejected(self):
        with pytest.raises(ValueError):
            mdp_to_configs({"coulombtype": "ewald3dc"})
        with pytest.raises(ValueError):
            mdp_to_configs({"tcoupl": "nose-hoover"})
        with pytest.raises(ValueError):
            mdp_to_configs({"constraint-algorithm": "rattle-only"})


class TestBenchmarkCases:
    def test_folder_name_convention(self):
        system = benchmark_case("0003")
        assert system.n_particles == 3000

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            benchmark_case("water48k")
        with pytest.raises(ValueError):
            benchmark_case("0000")

    def test_deterministic(self):
        a = benchmark_case("0001")
        b = benchmark_case("0001")
        np.testing.assert_array_equal(a.positions, b.positions)


class TestPressure:
    def test_dilute_gas_is_ideal(self):
        gas = build_lj_fluid(200, temperature=300.0, density=0.05, seed=1)
        nb = NonbondedParams(r_cut=1.2, r_list=1.2, coulomb_mode="none")
        sr = brute_force_short_range(gas, nb)
        p = compute_pressure(gas, sr)
        assert p.pressure == pytest.approx(ideal_gas_pressure(gas), rel=1e-2)
        assert p.bar == pytest.approx(p.pressure * PRESSURE_UNIT_TO_BAR)

    def test_stretched_lattice_has_negative_virial(self):
        """A lattice with neighbour spacing beyond the LJ minimum sits in
        the attractive region everywhere: negative virial (inward
        pressure)."""
        # r_min for argon is 0.382 nm; spacing 0.48 nm -> density ~9/nm^3.
        fluid = build_lj_fluid(
            216, temperature=0.0, density=1.0 / 0.48**3, seed=2, jitter=0.0
        )
        fluid.velocities[:] = 0.0
        nb = NonbondedParams(
            r_cut=1.2, r_list=1.2, coulomb_mode="none", shift_lj=False
        )
        sr = brute_force_short_range(fluid, nb)
        p = compute_pressure(fluid, sr)
        assert p.virial_term < 0
        assert p.pressure < 0  # zero kinetic energy: pure inward pull

    def test_virial_consistent_between_engines(self, water_small, nb_water_small):
        plist = build_pair_list(water_small, nb_water_small.r_list)
        a = compute_short_range(water_small, plist, nb_water_small)
        b = brute_force_short_range(water_small, nb_water_small)
        assert a.virial == pytest.approx(b.virial, rel=1e-10)

    def test_virial_full_equals_half_list(self, water_small, nb_water_small):
        plist = build_pair_list(water_small, nb_water_small.r_list)
        half = compute_short_range(water_small, plist, nb_water_small)
        full = compute_short_range(
            water_small, plist.to_full(), nb_water_small
        )
        assert full.virial == pytest.approx(half.virial, rel=1e-10)

    def test_virial_matches_volume_derivative(self):
        """W = -3V dU/dV: scale the box uniformly and differentiate."""
        fluid = build_lj_fluid(100, temperature=100.0, seed=4)
        nb = NonbondedParams(
            r_cut=0.9, r_list=1.0, coulomb_mode="none", shift_lj=False
        )
        sr = brute_force_short_range(fluid, nb)
        eps = 1e-5
        from repro.md.box import Box
        from repro.md.system import ParticleSystem

        energies = []
        for scale in (1.0 + eps, 1.0 - eps):
            scaled = ParticleSystem(
                fluid.positions * scale,
                Box.cubic(fluid.box.lengths[0] * scale),
                fluid.topology,
            )
            energies.append(brute_force_short_range(scaled, nb).energy)
        v = fluid.box.volume
        dudv = (energies[0] - energies[1]) / (
            ((1 + eps) ** 3 - (1 - eps) ** 3) * v
        )
        assert sr.virial == pytest.approx(-3.0 * v * dudv, rel=1e-3)
