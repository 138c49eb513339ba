"""Strategy registry and high-level comparison helpers.

Wraps `repro.core.kernels` behind names matching the paper's figures:

* Fig. 8 ladder: ``Ori -> Pkg -> Cache -> Vec -> Mark``;
* Fig. 9 comparison: ``USTC_GMX``, ``SW_LAMMPS`` (RCA), ``RMA_GMX``,
  ``MARK_GMX``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.kernels import ALL_SPECS, KernelResult, KernelSpec, run_kernel
from repro.core.stepcache import StepCache
from repro.hw.params import ChipParams, DEFAULT_PARAMS
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import ClusterPairList, build_pair_list
from repro.md.system import ParticleSystem
from repro.parallel.pool import ExecutionBackend, shared_backend


@dataclass(frozen=True)
class Strategy:
    """A named strategy: paper label + kernel spec."""

    label: str
    spec: KernelSpec
    description: str


#: The Fig. 8 optimisation ladder, in order.
STRATEGY_LADDER: tuple[Strategy, ...] = (
    Strategy("Ori", ALL_SPECS["ORI"], "original GROMACS, MPE only"),
    Strategy("Pkg", ALL_SPECS["PKG"], "+ particle-package aggregation"),
    Strategy("Cache", ALL_SPECS["CACHE"], "+ read & deferred-update caches"),
    Strategy("Vec", ALL_SPECS["VEC"], "+ SIMD vectorisation"),
    Strategy("Mark", ALL_SPECS["MARK"], "+ Bit-Map update marks"),
)

#: The Fig. 9 cross-strategy comparison.
BASELINE_STRATEGIES: tuple[Strategy, ...] = (
    Strategy("USTC_GMX", ALL_SPECS["USTC"], "MPE collects CPE updates [29]"),
    Strategy("SW_LAMMPS", ALL_SPECS["RCA"], "redundant-compute full list [8]"),
    Strategy("RMA_GMX", ALL_SPECS["RMA"], "per-CPE copies, full init+reduction"),
    Strategy("MARK_GMX", ALL_SPECS["MARK"], "this paper's update mark"),
)


def get_strategy(label: str) -> Strategy:
    """Look up a strategy by its paper label (case-insensitive)."""
    for s in STRATEGY_LADDER + BASELINE_STRATEGIES:
        if s.label.lower() == label.lower():
            return s
    known = [s.label for s in STRATEGY_LADDER + BASELINE_STRATEGIES]
    raise KeyError(f"unknown strategy {label!r}; known: {known}")


def run_strategy(
    system: ParticleSystem,
    label: str,
    nb_params: NonbondedParams | None = None,
    plist: ClusterPairList | None = None,
    params: ChipParams = DEFAULT_PARAMS,
) -> KernelResult:
    """Run one strategy's short-range kernel on ``system``."""
    nb_params = nb_params or NonbondedParams()
    if plist is None:
        plist = build_pair_list(system, nb_params.r_list)
    return run_kernel(system, plist, nb_params, get_strategy(label).spec, params)


@dataclass
class LadderResult:
    """Per-strategy results and speedups relative to the first rung."""

    results: dict[str, KernelResult]
    speedups: dict[str, float]
    n_particles: int


def run_ladder(
    system: ParticleSystem,
    strategies: tuple[Strategy, ...] = STRATEGY_LADDER,
    nb_params: NonbondedParams | None = None,
    params: ChipParams = DEFAULT_PARAMS,
    baseline_label: str = "Ori",
    backend: str | ExecutionBackend | None = None,
) -> LadderResult:
    """Run a set of strategies on one system; compute speedups vs. baseline.

    The pair list is built once and shared (all strategies see identical
    work), exactly as the paper's single-kernel comparison does.  All
    rungs run through one :class:`~repro.core.stepcache.StepCache`, so
    the whole ladder performs exactly one `compute_short_range` per list
    state (one more for the mirrored full list if RCA is included) —
    labels that alias the same spec (``Mark`` / ``MARK_GMX``) share all
    cached pieces too.

    ``backend`` fans the pair-list exact filter across worker processes
    (name, `ExecutionBackend`, or None for ``REPRO_BACKEND``-or-serial);
    results are bit-identical.
    """
    nb_params = nb_params or NonbondedParams()
    backend = shared_backend(backend)
    plist = build_pair_list(system, nb_params.r_list, backend=backend)
    cache = StepCache()
    results: dict[str, KernelResult] = {}
    for strat in strategies:
        results[strat.label] = run_kernel(
            system, plist, nb_params, strat.spec, params, cache=cache
        )
    if baseline_label not in results:
        base = run_kernel(
            system,
            plist,
            nb_params,
            get_strategy(baseline_label).spec,
            params,
            cache=cache,
        )
    else:
        base = results[baseline_label]
    speedups = {
        label: base.elapsed_seconds / r.elapsed_seconds
        for label, r in results.items()
    }
    return LadderResult(
        results=results, speedups=speedups, n_particles=system.n_particles
    )


def verify_forces_agree(
    results: dict[str, KernelResult],
    reference: np.ndarray,
    rtol: float = 2e-4,
) -> dict[str, float]:
    """Max relative force error per strategy against a reference force set.

    Raises if any strategy exceeds ``rtol`` (relative to the largest force
    magnitude) — functional fidelity is non-negotiable (DESIGN.md §4).
    """
    scale = float(np.abs(reference).max()) or 1.0
    errors = {}
    for label, res in results.items():
        err = float(np.abs(res.forces - reference).max()) / scale
        errors[label] = err
        if err > rtol:
            raise AssertionError(
                f"strategy {label} forces deviate {err:.2e} (> {rtol}) "
                "from the reference"
            )
    return errors
