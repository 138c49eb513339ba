"""LINCS and SETTLE constraint solvers: correctness, cross-validation
against SHAKE, and the solver factory."""

import tracemalloc

import numpy as np
import pytest

from repro.md.box import Box
from repro.md.constants import LJ_FLUID, AtomType
from repro.md.constraints import (
    CONSTRAINT_ALGORITHMS,
    ConstraintError,
    ShakeSolver,
    build_constraint_solver,
)
from repro.md.integrator import IntegratorConfig
from repro.md.lincs import LincsConfig, LincsSolver
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.nonbonded import NonbondedParams
from repro.md.settle import SettleParameters, SettleSolver
from repro.md.system import ParticleSystem
from repro.md.topology import Constraint, Topology
from repro.md.water import build_water_system


@pytest.fixture(scope="module")
def water():
    return build_water_system(300, seed=3)


def uncoupled_chain(rng):
    """Ten two-atom molecules, one constraint each: no shared atoms, so
    the coupling matrix is zero and LINCS has no triplets."""
    topo = Topology([LJ_FLUID])
    for m in range(10):
        topo.add_particles(["AR", "AR"], [0.0, 0.0], mol_id=m)
        topo.constraints.append(Constraint(2 * m, 2 * m + 1, 0.2))
    pos = rng.uniform(0, 4.0, (20, 3))
    # Start from satisfied constraints.
    for c in topo.constraints:
        d = pos[c.j] - pos[c.i]
        pos[c.j] = pos[c.i] + 0.2 * d / np.linalg.norm(d)
    return ParticleSystem(pos, Box.cubic(4.0), topo)


def branched_stars(per_edge=3, spacing=0.6):
    """Tetrahedral stars: a heavy centre constrained to four light arms,
    so every constraint couples to three others through the centre.
    Every other constraint lists the centre second, which flips the
    sign of its couplings."""
    topo = Topology([AtomType("C", 12.0, 0.0, 0.0), AtomType("H", 1.0, 0.0, 0.0)])
    arms = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    pos = []
    for m, cell in enumerate(np.ndindex(per_edge, per_edge, per_edge)):
        centre = topo.add_particles(["C", "H", "H", "H", "H"], [0.0] * 5, mol_id=m)[0]
        origin = (np.array(cell) + 0.5) * spacing
        pos.append(origin)
        for k in range(4):
            pos.append(origin + 0.11 * arms[k])
            pair = (centre, centre + 1 + k) if k % 2 == 0 else (centre + 1 + k, centre)
            topo.constraints.append(Constraint(*pair, 0.11))
    return ParticleSystem(np.array(pos), Box.cubic(per_edge * spacing), topo)


class DenseLincs(LincsSolver):
    """The dense n x n coupling matrix and BLAS mat-vec that the sparse
    triplets replaced, kept as their oracle."""

    def _coupling(self, b):
        mat = np.zeros((self.n, self.n))
        dots = np.sum(b[self._rows] * b[self._cols], axis=1)
        np.add.at(
            mat,
            (self._rows, self._cols),
            -self._sdiag[self._rows] * self._sdiag[self._cols] * self._coef * dots,
        )
        return mat

    def _series_solve(self, mat, rhs):
        sol = rhs.copy()
        term = rhs
        for _ in range(self.config.lincs_order):
            term = mat @ term
            sol += term
        return sol


ORACLE_TOPOLOGIES = {
    "water-300": lambda: build_water_system(300, seed=3),  # 300 rows, 4 | n
    "water-999": lambda: build_water_system(999, seed=5),  # 999 rows, 4 !| n
    "chain": lambda: uncoupled_chain(np.random.default_rng(7)),  # no triplets
    "star": branched_stars,  # three couplings per row
}


@pytest.fixture(scope="module", params=sorted(ORACLE_TOPOLOGIES))
def topology(request):
    return request.param, ORACLE_TOPOLOGIES[request.param]()


class TestLincs:
    def test_projects_onto_constraints(self, water, rng):
        solver = LincsSolver(water.topology.constraints, water.masses)
        ref = water.positions.copy()
        pos = ref + rng.normal(scale=0.002, size=ref.shape)
        solver.apply_positions(pos, ref, water.box)
        assert solver.max_violation(pos, water.box) < 1e-4

    def test_convergence_with_order(self, water, rng):
        """Higher expansion order lowers the residual — and the slow
        convergence on water triangles reproduces the documented LINCS
        limitation with coupled angle constraints."""
        ref = water.positions.copy()
        kick = rng.normal(scale=0.005, size=ref.shape)
        residuals = []
        for order in (2, 4, 8):
            solver = LincsSolver(
                water.topology.constraints,
                water.masses,
                LincsConfig(lincs_order=order, lincs_iter=4),
            )
            pos = ref + kick
            try:
                solver.apply_positions(pos, ref, water.box)
            except ConstraintError:
                pass
            residuals.append(solver.max_violation(pos, water.box))
        assert residuals[0] > residuals[1] > residuals[2]

    def test_uncoupled_chain_converges_fast(self, rng):
        """Without shared atoms the coupling matrix is zero and one
        phase-1 projection is essentially exact."""
        system = uncoupled_chain(rng)
        topo = system.topology
        solver = LincsSolver(topo.constraints, system.masses, LincsConfig(2, 1))
        trial = system.positions + rng.normal(scale=0.004, size=(20, 3))
        solver.apply_positions(trial, system.positions, system.box)
        assert solver.max_violation(trial, system.box) < 1e-8

    def test_velocity_projection(self, water, rng):
        solver = LincsSolver(water.topology.constraints, water.masses)
        v = rng.normal(scale=1.0, size=water.positions.shape)
        solver.apply_velocities(v, water.positions, water.box)
        a = solver.arrays
        dr = water.box.displacement(water.positions[a.i], water.positions[a.j])
        dv = v[a.i] - v[a.j]
        assert np.abs(np.sum(dr * dv, axis=1)).max() < 5e-2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LincsConfig(lincs_order=0)
        with pytest.raises(ValueError):
            LincsConfig(lincs_iter=0)


class TestSparseCoupling:
    """The triplet coupling against the dense matrix it replaced."""

    def test_triplets_sorted_by_row_then_col(self, topology):
        _, system = topology
        solver = LincsSolver(system.topology.constraints, system.masses)
        keys = solver._rows * solver.n + solver._cols
        assert np.all(np.diff(keys) > 0)

    def test_matches_dense_oracle(self, topology):
        name, system = topology
        constraints, masses = system.topology.constraints, system.masses
        sparse = LincsSolver(constraints, masses)
        dense = DenseLincs(constraints, masses)
        rng = np.random.default_rng(11)
        ref = system.positions
        trial = ref + rng.normal(scale=0.002, size=ref.shape)
        ps, pd = trial.copy(), trial.copy()
        sparse.apply_positions(ps, ref, system.box)
        dense.apply_positions(pd, ref, system.box)
        assert ps.dtype == np.float64
        np.testing.assert_allclose(ps, pd, rtol=0, atol=1e-12)
        v = rng.normal(scale=1.0, size=ref.shape)
        vs, vd = v.copy(), v.copy()
        sparse.apply_velocities(vs, ref, system.box)
        dense.apply_velocities(vd, ref, system.box)
        assert vs.dtype == np.float64
        np.testing.assert_allclose(vs, vd, rtol=0, atol=1e-12)
        if name == "chain":
            assert len(sparse._rows) == 0

    def test_matvec_is_ascending_column_row_sum(self, topology):
        """One series term is, per row, the products summed from the
        lowest column up, exactly."""
        _, system = topology
        solver = LincsSolver(
            system.topology.constraints, system.masses, LincsConfig(lincs_order=1)
        )
        rng = np.random.default_rng(13)
        vals = rng.normal(size=len(solver._rows))
        x = rng.normal(size=solver.n)
        expected = x.copy()
        for r in range(solver.n):
            acc = 0.0
            members = np.nonzero(solver._rows == r)[0]
            for t in members[np.argsort(solver._cols[members])]:
                acc += vals[t] * x[solver._cols[t]]
            expected[r] += acc
        got = solver._series_solve(vals, x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("stage", ["positions", "velocities"])
    def test_memory_linear_in_constraints(self, stage):
        """At 1,428 constraints the dense matrix alone was 16 MB; one
        call now peaks well under 2 MB."""
        system = build_water_system(1428, seed=3)
        solver = LincsSolver(system.topology.constraints, system.masses)
        assert solver.n == 1428
        ref = system.positions
        rng = np.random.default_rng(17)
        if stage == "positions":
            target = ref + rng.normal(scale=0.002, size=ref.shape)
            call = lambda: solver.apply_positions(target, ref, system.box)
        else:
            target = rng.normal(scale=1.0, size=ref.shape)
            call = lambda: solver.apply_velocities(target, ref, system.box)
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024


class TestSettle:
    def test_exact_constraints(self, water, rng):
        solver = SettleSolver.from_water_topology(water)
        ref = water.positions.copy()
        pos = ref + rng.normal(scale=0.01, size=ref.shape)
        solver.apply_positions(pos, ref, water.box)
        assert solver.max_violation(pos, water.box) < 1e-12

    def test_matches_shake_small_displacement(self, water, rng):
        settle = SettleSolver.from_water_topology(water)
        shake = ShakeSolver(
            water.topology.constraints, water.masses, tolerance=1e-14
        )
        ref = water.positions.copy()
        trial = ref + rng.normal(scale=0.001, size=ref.shape)
        ps, pk = trial.copy(), trial.copy()
        settle.apply_positions(ps, ref, water.box)
        shake.apply_positions(pk, ref, water.box)
        # Same point on the constraint manifold, up to box wrapping.
        diff = water.box.minimum_image(ps - pk)
        assert np.abs(diff).max() < 1e-6

    def test_momentum_conserved(self, water, rng):
        solver = SettleSolver.from_water_topology(water)
        ref = water.positions.copy()
        pos = ref + rng.normal(scale=0.005, size=ref.shape)
        com_before = (water.masses[:, None] * pos).sum(axis=0)
        solver.apply_positions(pos, ref, water.box)
        com_after = (water.masses[:, None] * pos).sum(axis=0)
        # COM moves only by box-wrap multiples; use minimum image.
        shift = water.box.minimum_image(
            (com_after - com_before) / water.masses.sum()
        )
        assert np.abs(shift).max() < 1e-10

    def test_velocity_stage_exact(self, water, rng):
        solver = SettleSolver.from_water_topology(water)
        v = rng.normal(scale=1.0, size=water.positions.shape)
        p_before = (water.masses[:, None] * v).sum(axis=0)
        solver.apply_velocities(v, water.positions, water.box)
        shake = ShakeSolver(water.topology.constraints, water.masses)
        a = shake.arrays
        dr = water.box.displacement(water.positions[a.i], water.positions[a.j])
        dv = v[a.i] - v[a.j]
        assert np.abs(np.sum(dr * dv, axis=1)).max() < 1e-12
        p_after = (water.masses[:, None] * v).sum(axis=0)
        np.testing.assert_allclose(p_before, p_after, atol=1e-10)

    def test_parameters_from_geometry(self):
        p = SettleParameters.from_geometry(0.1, 0.16, 16.0, 1.0)
        # COM lies between O and the HH midpoint, mass-weighted.
        t = p.ra + p.rb
        assert t == pytest.approx(np.sqrt(0.1**2 - 0.08**2))
        assert p.ra * 16.0 == pytest.approx(2.0 * p.rb * 1.0 + p.ra * (16 - 16))
        assert 16.0 * p.ra == pytest.approx(2.0 * 1.0 * p.rb)
        with pytest.raises(ValueError):
            SettleParameters.from_geometry(0.1, 0.25, 16.0, 1.0)

    def test_rejects_non_water(self, lj_small):
        with pytest.raises(ValueError):
            SettleSolver.from_water_topology(lj_small)


class TestFactoryAndDynamics:
    def test_factory_dispatch(self, water, lj_small):
        from repro.md.lincs import LincsSolver as L
        from repro.md.settle import SettleSolver as S

        assert isinstance(build_constraint_solver(water, "auto"), S)
        assert isinstance(build_constraint_solver(water, "lincs"), L)
        assert isinstance(build_constraint_solver(water, "shake"), ShakeSolver)
        assert build_constraint_solver(lj_small, "auto") is None
        with pytest.raises(ValueError):
            build_constraint_solver(water, "magic")
        assert set(CONSTRAINT_ALGORITHMS) == {"auto", "shake", "lincs", "settle"}

    @pytest.mark.parametrize("algorithm", ["shake", "settle", "lincs"])
    def test_dynamics_agree_across_solvers(self, algorithm):
        """20 steps of identical dynamics regardless of constraint solver
        (they project onto the same manifold)."""
        system = build_water_system(300, seed=2019)
        cfg = MdConfig(
            nonbonded=NonbondedParams(r_cut=0.64, r_list=0.7, coulomb_mode="rf"),
            integrator=IntegratorConfig(dt=0.001, thermostat="none"),
            constraint_algorithm=algorithm,
            report_interval=20,
        )
        system.thermalize(300.0, np.random.default_rng(5))
        loop = MdLoop(system, cfg)
        res = loop.run(21)
        frame = res.reporter.frames[-1]
        if algorithm == "shake":
            type(self).reference_energy = frame.total
        else:
            assert frame.total == pytest.approx(
                type(self).reference_energy, rel=5e-3
            )
