"""PME: spline properties, Madelung constant, force gradients,
beta-independence of the total Ewald energy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from repro.md.box import Box
from repro.md.constants import AtomType
from repro.md.forces import brute_force_short_range
from repro.md.nonbonded import NonbondedParams
from repro.md.pme import PmeParams, PmeSolver, bspline_m, euler_spline_b2, spline_weights
from repro.md.system import ParticleSystem
from repro.md.topology import Topology
from repro.util.units import COULOMB_CONSTANT

ION = AtomType("ION", 20.0, 0.0, 0.0)


def make_charged_system(positions, charges, edge):
    topo = Topology([ION])
    for m, q in enumerate(charges):
        topo.add_particles(["ION"], [q], mol_id=m)
    return ParticleSystem(np.asarray(positions, dtype=float), Box.cubic(edge), topo)


def make_molecular_system(positions, charges, edge, mol_size):
    """Charges grouped into molecules of ``mol_size`` consecutive atoms."""
    topo = Topology([ION])
    for m, start in enumerate(range(0, len(charges), mol_size)):
        q = list(charges[start : start + mol_size])
        topo.add_particles(["ION"] * len(q), q, mol_id=m)
    return ParticleSystem(np.asarray(positions, dtype=float), Box.cubic(edge), topo)


def per_call_exclusion_correction(pme, system):
    """The exclusion correction with its excluded pairs rebuilt on every
    call, as `PmeSolver` did before it kept them per topology."""
    mol = system.topology.mol_ids
    order = np.argsort(mol, kind="stable")
    sorted_mol = mol[order]
    boundaries = np.nonzero(np.diff(sorted_mol))[0] + 1
    groups = np.split(order, boundaries)
    pi_list, pj_list = [], []
    for g in groups:
        if len(g) < 2:
            continue
        a, b = np.triu_indices(len(g), k=1)
        pi_list.append(g[a])
        pj_list.append(g[b])
    if not pi_list:
        return 0.0, np.zeros_like(system.positions)
    pi = np.concatenate(pi_list)
    pj = np.concatenate(pj_list)
    dr = system.box.displacement(system.positions[pi], system.positions[pj])
    r2 = np.sum(dr * dr, axis=1)
    r = np.sqrt(r2)
    qq = system.charges[pi] * system.charges[pj]
    beta = pme.params.beta
    erf_br = erf(beta * r)
    energy = float(-COULOMB_CONSTANT * np.sum(qq * erf_br / r))
    gauss = np.exp(-((beta * r) ** 2))
    f_scalar = -COULOMB_CONSTANT * qq * (
        erf_br / r2 - 2.0 * beta / np.sqrt(np.pi) * gauss / r
    ) / r
    forces = np.zeros_like(system.positions)
    fvec = f_scalar[:, None] * dr
    np.add.at(forces, pi, fvec)
    np.add.at(forces, pj, -fvec)
    return energy, forces


def assert_bit_equal(got, expected):
    e_got, f_got = got
    e_exp, f_exp = expected
    assert e_got == e_exp
    assert np.array_equal(f_got.view(np.int64), f_exp.view(np.int64))


def total_coulomb(system, beta, spacing=0.06, order=4, r_cut=1.1):
    pme = PmeSolver(system.box, PmeParams(order=order, grid_spacing=spacing, beta=beta))
    res = pme.compute(system)
    nb = NonbondedParams(
        r_cut=r_cut, r_list=r_cut, coulomb_mode="ewald", ewald_beta=beta, shift_lj=False
    )
    sr = brute_force_short_range(system, nb)
    return res.energy + sr.energy, res.forces + sr.forces


class TestBsplines:
    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_partition_of_unity(self, order):
        """Spreading weights sum to exactly 1 for any fractional offset."""
        frac = np.linspace(0, 0.999, 50)
        w, _ = spline_weights(order, frac)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_derivative_sums_to_zero(self, order):
        _, dw = spline_weights(order, np.linspace(0, 0.999, 20))
        np.testing.assert_allclose(dw.sum(axis=1), 0.0, atol=1e-10)

    def test_support_and_positivity(self):
        x = np.linspace(-1, 5, 400)
        m4 = bspline_m(4, x)
        assert np.all(m4 >= -1e-14)
        assert np.all(m4[(x < 0) | (x >= 4)] == 0.0)

    def test_bspline_integral_one(self):
        x = np.linspace(0, 4, 4001)
        m4 = bspline_m(4, x)
        assert np.trapezoid(m4, x) == pytest.approx(1.0, abs=1e-6)

    def test_euler_b2_positive(self):
        b2 = euler_spline_b2(4, 32)
        assert np.all(b2[np.isfinite(b2)] >= 0)
        assert b2[0] == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(frac=st.floats(0.0, 0.999), order=st.sampled_from([3, 4, 5]))
    def test_weight_derivative_numeric(self, frac, order):
        h = 1e-6
        w_p, _ = spline_weights(order, np.array([min(frac + h, 0.9999999)]))
        w_m, _ = spline_weights(order, np.array([max(frac - h, 0.0)]))
        _, dw = spline_weights(order, np.array([frac]))
        numeric = (w_p - w_m) / (w_p.shape[0] and (min(frac + h, 0.9999999) - max(frac - h, 0.0)))
        np.testing.assert_allclose(dw, numeric, atol=1e-4)


class TestPmeEnergies:
    def test_madelung_rock_salt(self):
        """Total Ewald energy of NaCl reproduces M = 1.747565."""
        a = 0.564
        ncell = 2
        pos, q = [], []
        for i in range(2 * ncell):
            for j in range(2 * ncell):
                for k in range(2 * ncell):
                    pos.append([i * a / 2, j * a / 2, k * a / 2])
                    q.append(1.0 if (i + j + k) % 2 == 0 else -1.0)
        system = make_charged_system(pos, q, a * ncell)
        e, _ = total_coulomb(system, beta=3.5, spacing=0.05, order=6)
        madelung = -e * (a / 2) * 2 / (COULOMB_CONSTANT * len(pos))
        assert madelung == pytest.approx(1.747565, rel=2e-3)

    def test_beta_independence(self):
        rng = np.random.default_rng(1)
        q = rng.uniform(-1, 1, 12)
        q -= q.mean()
        system = make_charged_system(rng.uniform(0, 2.4, (12, 3)), q, 2.4)
        energies = [
            total_coulomb(system, beta, spacing=0.05, order=6)[0]
            for beta in (2.8, 3.2, 3.8)
        ]
        assert max(energies) - min(energies) < 2e-3 * abs(np.mean(energies))

    def test_forces_match_numerical_gradient(self):
        rng = np.random.default_rng(2)
        q = rng.uniform(-1, 1, 8)
        q -= q.mean()
        system = make_charged_system(rng.uniform(0, 2.4, (8, 3)), q, 2.4)
        beta = 3.2
        _, f0 = total_coulomb(system, beta, spacing=0.06, order=6)
        h = 1e-5
        for p in (0, 3):
            for d in range(3):
                s1, s2 = system.copy(), system.copy()
                s1.positions[p, d] += h
                s2.positions[p, d] -= h
                e1, _ = total_coulomb(s1, beta, spacing=0.06, order=6)
                e2, _ = total_coulomb(s2, beta, spacing=0.06, order=6)
                assert f0[p, d] == pytest.approx(-(e1 - e2) / (2 * h), rel=1e-3, abs=1e-2)

    def test_reciprocal_net_force_converges_to_zero(self, water_small):
        """Smooth PME breaks exact momentum conservation by interpolation
        error; the net force must shrink rapidly with order/spacing."""
        nets = []
        for spacing, order in ((0.1, 4), (0.06, 6)):
            pme = PmeSolver(
                water_small.box, PmeParams(grid_spacing=spacing, order=order)
            )
            _, f_rec = pme.reciprocal(water_small)
            nets.append(float(np.linalg.norm(f_rec.sum(axis=0))))
        scale = 750.0  # typical |F| in this system (kJ/mol/nm)
        assert nets[1] < nets[0] / 20.0
        assert nets[1] / scale < 1e-3

    def test_self_energy_negative(self, water_small):
        pme = PmeSolver(water_small.box, PmeParams())
        assert pme.self_energy(water_small.charges) < 0

    def test_exclusion_correction_only_intramolecular(self):
        """A system of single-atom molecules has zero exclusion term."""
        rng = np.random.default_rng(3)
        q = rng.uniform(-1, 1, 6)
        q -= q.mean()
        system = make_charged_system(rng.uniform(0, 2.4, (6, 3)), q, 2.4)
        pme = PmeSolver(system.box, PmeParams())
        e, f = pme.exclusion_correction(system)
        assert e == 0.0
        np.testing.assert_array_equal(f, 0.0)

    def test_grid_dims_respect_spacing_and_order(self):
        params = PmeParams(order=6, grid_spacing=0.5)
        dims = params.grid_dims(Box.cubic(2.0))
        assert all(d >= 6 for d in dims)
        dims2 = PmeParams(order=4, grid_spacing=0.1).grid_dims(Box.cubic(2.0))
        assert all(d >= 20 for d in dims2)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PmeParams(order=1)
        with pytest.raises(ValueError):
            PmeParams(grid_spacing=0.0)
        with pytest.raises(ValueError):
            PmeParams(beta=-1.0)


class TestExclusionPairs:
    """Excluded pairs are built once per solver and topology."""

    def test_bit_identical_to_per_call_build(self, water_small):
        pme = PmeSolver(water_small.box, PmeParams())
        for _ in range(2):
            assert_bit_equal(
                pme.exclusion_correction(water_small),
                per_call_exclusion_correction(pme, water_small),
            )

    def test_second_call_reuses_cached_pairs(self, water_small, monkeypatch):
        import repro.md.pme as pme_mod

        builds = []
        real = pme_mod._intramolecular_pairs

        def counting(mol_ids):
            builds.append(len(mol_ids))
            return real(mol_ids)

        monkeypatch.setattr(pme_mod, "_intramolecular_pairs", counting)
        pme = PmeSolver(water_small.box, PmeParams())
        pme.exclusion_correction(water_small)
        cached = pme._excl_pairs
        moved = water_small.copy()
        moved.positions += 0.01
        pme.exclusion_correction(moved)
        assert builds == [water_small.n_particles]
        assert pme._excl_pairs is cached

    def test_one_solver_two_topologies(self):
        rng = np.random.default_rng(4)
        pos = rng.uniform(0, 2.4, (12, 3))
        q = rng.uniform(-1, 1, 12)
        triples = make_molecular_system(pos, q, 2.4, mol_size=3)
        pairs = make_molecular_system(pos, q, 2.4, mol_size=2)
        pme = PmeSolver(triples.box, PmeParams())
        energies = []
        for system in (triples, pairs, triples):
            got = pme.exclusion_correction(system)
            assert_bit_equal(got, per_call_exclusion_correction(pme, system))
            energies.append(got[0])
        assert energies[0] == energies[2] != energies[1]
        # An in-place edit of the cached topology's mol_ids is seen too.
        triples.topology.mol_ids[:] = np.arange(12) // 4
        assert_bit_equal(
            pme.exclusion_correction(triples),
            per_call_exclusion_correction(pme, triples),
        )
