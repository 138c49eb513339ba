"""SHAKE/RATTLE constraints, leapfrog integration, thermostats, the MD
loop and minimiser."""

import time

import numpy as np
import pytest

from repro.md.constraints import ConstraintError, ShakeSolver
from repro.md.integrator import IntegratorConfig, LeapfrogIntegrator
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedParams
from repro.md.reporter import EnergyReporter
from repro.md.water import build_lj_fluid, build_water_system
from repro.util.scatter import scatter_add_rows


class TestScatterAddRows:
    def test_bit_equal_to_2d_add_at(self, rng):
        """Water-triangle scatter: each oxygen appears twice in ``i``
        (O-H1, O-H2), each H1 once in ``i`` and once in ``j``."""
        n_mol = 50
        o = 3 * np.arange(n_mol)
        i = np.stack([o, o, o + 1], axis=1).ravel()
        j = np.stack([o + 1, o + 2, o + 2], axis=1).ravel()
        start = rng.normal(size=(3 * n_mol, 3))
        for index in (i, j):
            values = rng.normal(size=(len(index), 3))
            expected = start.copy()
            np.add.at(expected, index, values)
            got = start.copy()
            scatter_add_rows(got, index, values)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestShake:
    def test_projects_onto_constraints(self, water_small, rng):
        sys2 = water_small.copy()
        solver = ShakeSolver(sys2.topology.constraints, sys2.masses)
        reference = sys2.positions.copy()
        sys2.positions += rng.normal(scale=0.005, size=sys2.positions.shape)
        solver.apply_positions(sys2.positions, reference, sys2.box)
        assert solver.max_violation(sys2.positions, sys2.box) < 1e-7

    def test_velocity_projection(self, water_small, rng):
        sys2 = water_small.copy()
        solver = ShakeSolver(sys2.topology.constraints, sys2.masses)
        sys2.velocities = rng.normal(scale=1.0, size=sys2.velocities.shape)
        solver.apply_velocities(sys2.velocities, sys2.positions, sys2.box)
        a = solver.arrays
        dr = sys2.box.displacement(sys2.positions[a.i], sys2.positions[a.j])
        dv = sys2.velocities[a.i] - sys2.velocities[a.j]
        assert np.abs(np.sum(dr * dv, axis=1)).max() < 1e-7

    def test_momentum_conserved_by_projection(self, water_small, rng):
        sys2 = water_small.copy()
        solver = ShakeSolver(sys2.topology.constraints, sys2.masses)
        ref = sys2.positions.copy()
        sys2.positions += rng.normal(scale=0.003, size=sys2.positions.shape)
        com_before = (sys2.masses[:, None] * sys2.positions).sum(axis=0)
        solver.apply_positions(sys2.positions, ref, sys2.box)
        com_after = (sys2.masses[:, None] * sys2.positions).sum(axis=0)
        np.testing.assert_allclose(com_before, com_after, atol=1e-8)

    def test_nonconvergence_raises(self, water_small):
        solver = ShakeSolver(
            water_small.topology.constraints,
            water_small.masses,
            max_iterations=1,
        )
        sys2 = water_small.copy()
        ref = sys2.positions.copy()
        sys2.positions += 0.03
        sys2.positions[0] += 0.4  # large violation, 1 iteration cannot fix
        with pytest.raises(ConstraintError):
            solver.apply_positions(sys2.positions, ref, sys2.box)

    def test_no_constraints_noop(self, lj_small):
        solver = ShakeSolver([], lj_small.masses)
        assert solver.apply_positions(
            lj_small.positions.copy(), lj_small.positions, lj_small.box
        ) == 0
        assert solver.max_violation(lj_small.positions, lj_small.box) == 0.0


class TestIntegrator:
    def test_free_particle_linear_motion(self, lj_small):
        sys2 = lj_small.copy()
        sys2.velocities[:] = np.array([0.1, 0.0, 0.0])
        cfg = IntegratorConfig(dt=0.002, remove_com_interval=0)
        integ = LeapfrogIntegrator(cfg)
        x0 = sys2.positions.copy()
        for _ in range(10):
            integ.step(sys2, np.zeros_like(sys2.positions))
        drift = sys2.box.minimum_image(sys2.positions - x0)
        np.testing.assert_allclose(drift[:, 0], 0.1 * 0.002 * 10, atol=1e-12)

    def test_thermostats_regulate(self, lj_small, rng):
        for thermostat in ("berendsen", "vrescale"):
            sys2 = lj_small.copy()
            sys2.thermalize(300.0, rng)
            cfg = IntegratorConfig(
                dt=0.002, thermostat=thermostat, target_temperature=100.0, tau_t=0.05
            )
            integ = LeapfrogIntegrator(cfg)
            for _ in range(200):
                integ.step(sys2, np.zeros_like(sys2.positions))
            assert sys2.temperature() == pytest.approx(100.0, rel=0.35)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(thermostat="nose")
        with pytest.raises(ValueError):
            IntegratorConfig(tau_t=-1.0)


class TestNveConservation:
    def test_lj_fluid_energy_conserved(self):
        system = build_lj_fluid(150, temperature=100.0, seed=5)
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.85, r_list=0.95, coulomb_mode="none"),
            integrator=IntegratorConfig(dt=0.002, thermostat="none"),
            report_interval=10,
        )
        minimize(system, cfg, n_steps=60)
        system.thermalize(100.0, np.random.default_rng(6))
        res = MdLoop(system, cfg).run(120)
        e = res.reporter.total_energy()
        ekin0 = res.reporter.frames[0].kinetic
        assert np.abs(e - e.mean()).max() < 0.05 * ekin0

    def test_water_energy_conserved_with_constraints(self):
        system = build_water_system(450, seed=5)
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.65, r_list=0.75, coulomb_mode="rf"),
            integrator=IntegratorConfig(dt=0.001, thermostat="none"),
            report_interval=10,
        )
        minimize(system, cfg, n_steps=60)
        system.thermalize(300.0, np.random.default_rng(7))
        loop = MdLoop(system, cfg)
        res = loop.run(100)
        e = res.reporter.total_energy()
        ekin0 = res.reporter.frames[0].kinetic
        assert np.abs(e - e.mean()).max() < 0.05 * ekin0
        assert loop.shake.max_violation(system.positions, system.box) < 1e-6


class TestMdLoop:
    def test_timing_taxonomy(self, water_small):
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf"),
            integrator=IntegratorConfig(dt=0.001),
            report_interval=5,
        )
        res = MdLoop(water_small.copy(), cfg).run(12)
        for kernel in ("Neighbor search", "Force", "Update", "Constraints"):
            assert kernel in res.timing.seconds
        assert res.timing.fractions()["Force"] > 0.3
        assert res.n_pairlist_rebuilds == 2  # nstlist=10, steps 0 and 10

    def test_unconstrained_books_no_constraints(self, lj_small, nb_lj):
        res = MdLoop(lj_small.copy(), MdConfig(nonbonded=nb_lj)).run(3)
        assert "Constraints" not in res.timing.seconds
        assert res.timing.seconds["Update"] > 0

    def test_constraints_book_measured_solver_time(self, water_small):
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf"),
            integrator=IntegratorConfig(dt=0.001),
        )
        loop = MdLoop(water_small.copy(), cfg)
        spent = []
        apply_positions = loop.shake.apply_positions

        def slow_apply_positions(*args, **kwargs):
            t0 = time.perf_counter()
            time.sleep(0.01)
            apply_positions(*args, **kwargs)
            spent.append(time.perf_counter() - t0)

        loop.shake.apply_positions = slow_apply_positions
        res = loop.run(4)
        constraints = res.timing.seconds["Constraints"]
        assert len(spent) == 4
        assert constraints >= sum(spent)
        # Not the old fixed split, which booked Constraints as 1.5x Update.
        assert res.timing.seconds["Update"] < constraints / 4

    def test_trajectory_output(self, water_small):
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf"),
            output_interval=4,
            report_interval=100,
        )
        res = MdLoop(water_small.copy(), cfg).run(9)
        assert len(res.trajectory_frames) == 3  # steps 0, 4, 8

    def test_pme_config_consistency_enforced(self):
        with pytest.raises(ValueError, match="use_pme requires"):
            MdConfig(use_pme=True, nonbonded=NonbondedParams(coulomb_mode="rf"))

    def test_reporter_interval(self):
        rep = EnergyReporter(interval=50)
        assert rep.maybe_record(0, -1.0, 1.0, 300.0)
        assert not rep.maybe_record(49, -1.0, 1.0, 300.0)
        assert rep.maybe_record(100, -1.0, 1.0, 300.0)
        assert len(rep.frames) == 2

    def test_reporter_drift_fit(self):
        rep = EnergyReporter(interval=1)
        for step in range(10):
            rep.maybe_record(step, 2.0 * step, 0.0, 300.0)
        assert rep.drift_per_step() == pytest.approx(2.0)


class TestMinimize:
    def test_reduces_energy_and_force(self):
        system = build_water_system(450, seed=13)
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.65, r_list=0.75, coulomb_mode="rf")
        )
        res = minimize(system, cfg, n_steps=50)
        assert res.final_energy < res.initial_energy
        # Constraints survive minimisation.
        from repro.md.constraints import ShakeSolver

        solver = ShakeSolver(system.topology.constraints, system.masses)
        assert solver.max_violation(system.positions, system.box) < 1e-5

    def test_rebuilds_only_when_buffer_spent(self, monkeypatch):
        """A list serves trials until one may have brought a pair from
        outside ``r_list`` inside ``r_cut``; a rejected trial restores
        the old positions without building a list, so every build is
        followed by an evaluation at the build's positions."""
        import importlib

        import repro.md.mdloop as mdloop
        from repro.md.verlet_buffer import check_buffer_sufficient

        # `repro.md` re-exports the function under the module's name.
        minimize_mod = importlib.import_module("repro.md.minimize")
        events = []
        real_build = mdloop.build_pair_list

        def build(system, *args, **kwargs):
            events.append(("build", system.positions.copy(), None))
            return real_build(system, *args, **kwargs)

        class RecordingLoop(MdLoop):
            def compute_forces(self, timing=None):
                forces, energy = super().compute_forces(timing)
                events.append(("eval", self.system.positions.copy(), energy))
                return forces, energy

        monkeypatch.setattr(mdloop, "build_pair_list", build)
        monkeypatch.setattr(minimize_mod, "MdLoop", RecordingLoop)
        nb = NonbondedParams(r_cut=0.6, r_list=0.7, coulomb_mode="rf")
        system = build_water_system(300, seed=3)
        minimize_mod.minimize(system, MdConfig(nonbonded=nb), n_steps=30)

        def fits(ref, pos):
            return check_buffer_sufficient(
                ref, pos, system.box, nb.r_cut, nb.r_list
            )

        energies = np.array([e for kind, _, e in events if kind == "eval"])
        accepted = np.minimum.accumulate(energies)
        assert int(np.sum(energies[1:] >= accepted[:-1])) >= 1  # rejections
        ref = None
        served = []
        for k, (kind, pos, _) in enumerate(events):
            if kind == "build":
                # The trial the list is built for fails the check against
                # the previous build, and is evaluated next.
                assert ref is None or not fits(ref, pos)
                nxt_kind, nxt_pos, _ = events[k + 1]
                assert nxt_kind == "eval" and np.array_equal(nxt_pos, pos)
                ref = pos
                served.append(0)
            else:
                assert fits(ref, pos)
                served[-1] += 1
        assert len(served) >= 2
        assert max(served) >= 2

    def test_invalid_steps(self, lj_small, nb_lj):
        with pytest.raises(ValueError):
            minimize(lj_small.copy(), MdConfig(nonbonded=nb_lj), n_steps=0)
