"""Shared fixtures: small systems and pair lists, built once per session.

Sizes are chosen so the whole suite stays fast while every cutoff still
satisfies the minimum-image requirement (water at bulk density needs
~250 particles per nm of box edge cubed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.water import build_lj_fluid, build_water_system


@pytest.fixture(scope="session")
def lj_small():
    """200-particle LJ fluid (fast tests)."""
    return build_lj_fluid(200, seed=11)


@pytest.fixture(scope="session")
def water_small():
    """~750-particle water box; supports cutoffs up to ~0.9 nm."""
    return build_water_system(750, seed=11)


@pytest.fixture(scope="session")
def water_medium():
    """~3000-particle water box; supports the paper's 1.0 nm cutoff."""
    return build_water_system(3000, seed=7)


@pytest.fixture(scope="session")
def nb_lj():
    return NonbondedParams(r_cut=0.9, r_list=1.0, coulomb_mode="none")


@pytest.fixture(scope="session")
def nb_water_small():
    return NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")


@pytest.fixture(scope="session")
def nb_water_paper():
    """The paper's Table 3 settings (rlist 1.0, PME-style real space)."""
    return NonbondedParams(r_cut=1.0, r_list=1.0, coulomb_mode="rf")


@pytest.fixture(scope="session")
def plist_water_small(water_small, nb_water_small):
    return build_pair_list(water_small, nb_water_small.r_list)


@pytest.fixture(scope="session")
def plist_water_medium(water_medium, nb_water_paper):
    return build_pair_list(water_medium, nb_water_paper.r_list)


@pytest.fixture(scope="session")
def plist_lj(lj_small, nb_lj):
    return build_pair_list(lj_small, nb_lj.r_list)


@pytest.fixture()
def rng():
    return np.random.default_rng(20190722)


@pytest.fixture
def panel_states():
    """``"filled"`` or ``"pending"`` per lane-panel set a `StepCache`
    holds: kept-lane buffers built, or only a first evaluation's
    selection (DESIGN.md §13)."""
    from repro.core.vectorized import CompactPanels

    def states(cache) -> list[str]:
        return [
            "filled" if cp.bufs else "pending"
            for memo in cache._memos.values()
            for cp in memo.panels.values()
            if isinstance(cp, CompactPanels)
        ]

    return states
