"""The steepest-descent minimiser: its pair-list reuse, its constraint
solver and its agreement with the per-trial-rebuild minimiser it
replaced (kept here as the oracle)."""

import importlib

import numpy as np
import pytest

import repro.md.mdloop as mdloop
from repro.core.vectorized import compute_short_range_impl
from repro.hw.perf import KernelTiming
from repro.md.constraints import ConstraintError, ShakeSolver
from repro.md.lincs import LincsSolver
from repro.md.mdloop import MdConfig, MdLoop
from repro.md.minimize import minimize
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.settle import SettleSolver
from repro.md.water import (
    build_ionic_solution,
    build_lj_mixture,
    build_water_system,
)

# `repro.md` re-exports the function under the module's name.
minimize_mod = importlib.import_module("repro.md.minimize")

RF = NonbondedParams(r_cut=0.6, r_list=0.7, coulomb_mode="rf")
EWALD = NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="ewald")
LJ = NonbondedParams(r_cut=0.9, r_list=1.0, coulomb_mode="none")

#: (system builder, nonbonded params, n_steps): water under SETTLE and
#: reaction field, ionic water under SHAKE and float64 Ewald real
#: space, an unconstrained LJ mixture.
SYSTEMS = {
    "water": (lambda: build_water_system(300, seed=3), RF, 30),
    "ionic": (lambda: build_ionic_solution(900, seed=5), EWALD, 40),
    "ljmix": (lambda: build_lj_mixture(1500, seed=7), LJ, 40),
}


def _minimize_oracle(system, config, n_steps, initial_step=0.01,
                     force_tolerance=100.0):
    """The minimiser before it kept its lists: a fresh pair list for
    every projected trial, and SHAKE for any constrained topology.
    Returns the final energy."""
    loop = MdLoop(system, config)
    shake = (
        ShakeSolver(system.topology.constraints, system.masses)
        if system.topology.constraints
        else None
    )
    timing = KernelTiming()
    loop._rebuild_pairlist(timing)
    forces, energy = loop.compute_forces(timing)
    step = initial_step
    for _ in range(n_steps):
        fmax = float(np.abs(forces).max())
        if fmax < force_tolerance:
            break
        step = min(step, 0.05)
        trial = system.positions + forces * (step / fmax)
        if shake is not None:
            try:
                shake.apply_positions(trial, system.positions, system.box)
            except ConstraintError:
                step *= 0.2
                continue
        old_positions = system.positions
        system.positions = system.box.wrap(trial)
        loop._rebuild_pairlist(timing)
        new_forces, new_energy = loop.compute_forces(timing)
        if new_energy < energy:
            energy, forces = new_energy, new_forces
            step *= 1.2
        else:
            system.positions = old_positions
            step *= 0.2
            if step < 1e-8:
                break
    return energy


class TestOracle:
    """Final energies within 1e-6 relative of the per-trial-rebuild
    SHAKE minimiser: only the summation order (clusters formed at a
    build, not at each trial) and, for water, SETTLE's exact projection
    against SHAKE's 1e-8 tolerance separate them."""

    @pytest.mark.parametrize(
        "build, nb, n_steps",
        [
            SYSTEMS["water"],
            (
                lambda: build_water_system(450, seed=13),
                NonbondedParams(r_cut=0.65, r_list=0.75, coulomb_mode="rf"),
                50,
            ),
            SYSTEMS["ionic"],
            SYSTEMS["ljmix"],
        ],
        ids=["water300", "water450", "ionic900", "ljmix1500"],
    )
    def test_final_energy_matches_oracle(self, build, nb, n_steps):
        want = _minimize_oracle(build(), MdConfig(nonbonded=nb), n_steps)
        got = minimize(build(), MdConfig(nonbonded=nb), n_steps=n_steps)
        assert got.final_energy == pytest.approx(want, rel=1e-6)


class TestReusedListsAreExact:
    """At every evaluation the list the minimiser kept gives what a list
    built at those very positions gives: the same in-cutoff pairs, and
    energy and forces equal up to summation order."""

    RTOL = 1e-10

    @pytest.mark.parametrize("name", sorted(SYSTEMS))
    def test_every_evaluation_matches_fresh_list(self, name, monkeypatch):
        build, nb, n_steps = SYSTEMS[name]
        records = []
        loops = []

        class CheckingLoop(MdLoop):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                loops.append(self)

            def compute_forces(self, timing=None):
                out = super().compute_forces(timing)
                system, dtype = self.system, self.config.precision
                sr = self.stepcache.short_range(
                    system, self.pairlist, nb, dtype=dtype
                )
                fresh = compute_short_range_impl(
                    system, build_pair_list(system, nb.r_list), nb,
                    dtype=dtype,
                )
                reused = not np.array_equal(
                    self._pairlist_ref_positions, system.positions
                )
                records.append((sr, fresh, reused))
                return out

        monkeypatch.setattr(minimize_mod, "MdLoop", CheckingLoop)
        minimize(build(), MdConfig(nonbonded=nb), n_steps=n_steps)
        solver = loops[0].shake
        expected = {"water": SettleSolver, "ionic": ShakeSolver}.get(name)
        if expected is None:
            assert solver is None
        else:
            assert isinstance(solver, expected)
        assert sum(reused for _, _, reused in records) >= 3
        for sr, fresh, _ in records:
            assert sr.n_pairs_in_cutoff == fresh.n_pairs_in_cutoff
            assert abs(sr.energy - fresh.energy) <= self.RTOL * abs(fresh.energy)
            scale = np.abs(fresh.forces).max()
            assert np.abs(sr.forces - fresh.forces).max() <= self.RTOL * scale


class TestSolver:
    """Trials project with the solver the system's MD loop uses."""

    @staticmethod
    def _count(monkeypatch, cls):
        calls = []
        real = cls.apply_positions

        def apply_positions(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "apply_positions", apply_positions)
        return calls

    @pytest.mark.parametrize(
        "algorithm, used", [("auto", SettleSolver), ("lincs", LincsSolver)]
    )
    def test_water_projects_with_loop_solver(self, monkeypatch, algorithm, used):
        calls = {
            cls: self._count(monkeypatch, cls)
            for cls in (SettleSolver, LincsSolver, ShakeSolver)
        }
        cfg = MdConfig(nonbonded=RF, constraint_algorithm=algorithm)
        minimize(build_water_system(300, seed=3), cfg, n_steps=10)
        assert len(calls[used]) >= 5
        assert all(not c for cls, c in calls.items() if cls is not used)

    def test_unprojectable_trial_shrinks_step_and_builds_nothing(
        self, monkeypatch
    ):
        """A `ConstraintError` rejects the trial: the next trial moves
        0.2x as far and no list was built for the rejected one."""
        builds = []
        real_build = mdloop.build_pair_list

        def build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        moves = []
        real_apply = SettleSolver.apply_positions

        def apply_positions(self, positions, reference, box):
            moves.append((float(np.abs(positions - reference).max()),
                          len(builds)))
            if len(moves) == 1:
                raise ConstraintError("cannot project")
            return real_apply(self, positions, reference, box)

        monkeypatch.setattr(mdloop, "build_pair_list", build)
        monkeypatch.setattr(SettleSolver, "apply_positions", apply_positions)
        minimize(build_water_system(300, seed=3), MdConfig(nonbonded=RF),
                 n_steps=2)
        (first, builds_first), (second, builds_second) = moves
        assert first == pytest.approx(0.01, rel=1e-12)
        assert second == pytest.approx(0.2 * first, rel=1e-12)
        assert builds_first == builds_second == 1

    def test_other_solver_errors_propagate(self, monkeypatch):
        def apply_positions(self, positions, reference, box):
            raise ValueError("solver bug")

        monkeypatch.setattr(SettleSolver, "apply_positions", apply_positions)
        with pytest.raises(ValueError, match="solver bug"):
            minimize(build_water_system(300, seed=3), MdConfig(nonbonded=RF),
                     n_steps=5)
