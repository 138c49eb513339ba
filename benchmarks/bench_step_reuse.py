"""Perf trajectory of the step-compute reuse layer (DESIGN.md §8).

Measures, for the water benchmark at three sizes:

* MD steps/sec of `SWGromacsEngine` with reuse on (informational —
  machine-dependent, never gated);
* the wall-clock speedup of one `run_strategy_sweep` over the full
  Fig. 8+9 rung set versus running every rung naively (each through a
  fresh `NullStepCache`, i.e. one `compute_short_range` per rung) —
  machine-portable ratios, gated in CI.

Run as a script to (re)generate the committed baseline:

    PYTHONPATH=src python benchmarks/bench_step_reuse.py

Run under pytest (the CI perf-smoke job) to check the current tree
against ``BENCH_step.json``: the sweep speedup must stay >= the
acceptance floor (1.5x) and within 20 % of the committed baseline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from unittest import mock

from repro.core.kernels import ALL_SPECS, run_kernel, run_strategy_sweep
from repro.core.stepcache import NullStepCache
from repro.md.nonbonded import NonbondedParams
from repro.md.pairlist import build_pair_list
from repro.md.water import build_water_system

BASELINE_PATH = Path(__file__).parent / "BENCH_step.json"
SIZES = (750, 1500, 3000)  # ~particles per water box
SWEEP_SPECS = list(ALL_SPECS)
#: Acceptance floor for the reuse speedup (ISSUE 3) and the CI
#: regression tolerance against the committed baseline.
MIN_SWEEP_SPEEDUP = 1.5
REGRESSION_TOLERANCE = 0.20
N_MD_STEPS = 10
#: Steady-state window: steps [2, 10) contain no nstlist rebuild
#: (nstlist=10, rebuild fires at step 0) and exclude the cold pair-list
#: and panel builds of steps 0-1.
STEADY_WINDOW = (2, N_MD_STEPS)
#: Repeats per engine measurement; the best run is reported (wall-clock
#: minima are the standard noise-robust estimator for hot-loop timing).
ENGINE_REPS = 3
#: Live CI floor for the vectorized kernel over scalar, steady-state
#: (ISSUE 8).  Deliberately below the ~4-5x typically measured so an
#: oversubscribed CI host doesn't flake the gate.
MIN_VECTORIZED_SPEEDUP = 3.0
#: Engine steps/sec of the last scalar-only committed baseline (the
#: whole-run rate recorded before the vectorized per-step path landed).
#: Kept so regenerated snapshots still document the ISSUE 8 acceptance
#: ratio against the pre-change numbers, not just against the live
#: scalar rows (which the steady-state protocol also sped up).
PRE_VECTORIZED_BASELINE = {
    750: 15.951428334603778,
    1500: 8.820428447461476,
    3000: 3.595089153801718,
}
SEED = 2019


def _nb() -> NonbondedParams:
    return NonbondedParams(r_cut=0.8, r_list=0.9, coulomb_mode="rf")


def measure_sweep_speedup(n_particles: int) -> dict:
    """Wall-clock ratio: naive per-rung kernels vs one shared sweep."""
    system = build_water_system(n_particles, seed=SEED)
    nb = _nb()
    plist = build_pair_list(system, nb.r_list)

    t0 = time.perf_counter()
    naive = {
        name: run_kernel(
            system, plist, nb, ALL_SPECS[name], cache=NullStepCache()
        )
        for name in SWEEP_SPECS
    }
    naive_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    swept = run_strategy_sweep(system, plist, nb, SWEEP_SPECS)
    sweep_s = time.perf_counter() - t0

    # The point of the exercise: identical physics, fewer evaluations.
    for name in SWEEP_SPECS:
        assert swept[name].energy == naive[name].energy, name
    return {
        "n_particles": int(system.n_particles),
        "naive_seconds": naive_s,
        "sweep_seconds": sweep_s,
        "speedup": naive_s / sweep_s,
    }


class _StepStamps:
    """Progress observer recording a wall-clock stamp per completed step."""

    def __init__(self) -> None:
        self.t: dict[int, float] = {}

    def update(self, steps_done: int, steps_total: int) -> None:
        self.t[steps_done] = time.perf_counter()


def _engine_run_stamps(n_particles: int) -> tuple[float, dict[int, float]]:
    """One fresh-engine run of ``N_MD_STEPS``; per-step time stamps.

    The engine is freed (and the cycle collector run) before returning:
    a live engine pins hundreds of MB of panel buffers, which measurably
    distorts the next timed run on small-memory hosts.
    """
    import gc

    from repro.core.engine import EngineConfig, SWGromacsEngine

    system = build_water_system(n_particles, seed=SEED)
    engine = SWGromacsEngine(system, EngineConfig(nonbonded=_nb()))
    stamps = _StepStamps()
    t0 = time.perf_counter()
    engine.run(N_MD_STEPS, progress=stamps)
    del engine, system
    gc.collect()
    return t0, stamps.t


def measure_engine_steps_per_sec(
    n_particles: int, kernel_impl: str = "scalar", reps: int = ENGINE_REPS
) -> dict:
    """Steady-state engine throughput for one kernel implementation.

    Protocol: time stamps are taken *inside* a single ``run()`` via the
    progress observer and the headline rate is computed over
    ``STEADY_WINDOW`` — steps that contain no pair-list rebuild and no
    cold panel build.  Differencing two separate runs (the old protocol)
    let cold-build variance between the runs dwarf the 8-step window;
    in-run stamps remove that term entirely.  Cold and whole-run rates
    are reported alongside as separate fields, and the best of ``reps``
    runs is kept.
    """
    lo, hi = STEADY_WINDOW
    best: dict | None = None
    for _ in range(reps):
        # REPRO_KERNEL selects the impl; the previous value is restored.
        with mock.patch.dict(os.environ, REPRO_KERNEL=kernel_impl):
            t0, t = _engine_run_stamps(n_particles)
        row = {
            "n_particles": int(n_particles),
            "kernel_impl": kernel_impl,
            "steps_per_sec": (hi - lo) / (t[hi] - t[lo]),
            "total_steps_per_sec": N_MD_STEPS / (t[N_MD_STEPS] - t0),
            "first_step_seconds": t[1] - t0,
            "steady_window": [lo, hi],
        }
        if best is None or row["steps_per_sec"] > best["steps_per_sec"]:
            best = row
    return best


def measure_engine_impls(n_particles: int) -> dict:
    """Scalar and vectorized steady-state rows plus their ratio."""
    scalar = measure_engine_steps_per_sec(n_particles, "scalar")
    vectorized = measure_engine_steps_per_sec(n_particles, "vectorized")
    row = {
        "n_particles": int(n_particles),
        "scalar": scalar,
        "vectorized": vectorized,
        "vectorized_speedup": (
            vectorized["steps_per_sec"] / scalar["steps_per_sec"]
        ),
    }
    base = PRE_VECTORIZED_BASELINE.get(int(n_particles))
    if base:
        row["speedup_vs_pre_vectorized_baseline"] = (
            vectorized["steps_per_sec"] / base
        )
    return row


def collect() -> dict:
    from hoststamp import host_stamp

    return {
        # The sweep is serial by design: one core is the measured
        # configuration, so this baseline is never degraded.
        **host_stamp(required_cpus=1),
        "sweep_specs": SWEEP_SPECS,
        "n_md_steps": N_MD_STEPS,
        "steady_window": list(STEADY_WINDOW),
        "sweep": {str(n): measure_sweep_speedup(n) for n in SIZES},
        "engine": {str(n): measure_engine_impls(n) for n in SIZES},
    }


def main() -> None:
    data = collect()
    BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote {BASELINE_PATH}")
    for n, row in data["sweep"].items():
        print(
            f"  n={n}: sweep {row['speedup']:.2f}x over naive "
            f"({row['naive_seconds']:.3f}s -> {row['sweep_seconds']:.3f}s)"
        )
    for n, row in data["engine"].items():
        print(
            f"  n={n}: engine scalar {row['scalar']['steps_per_sec']:.1f} "
            f"steps/s, vectorized "
            f"{row['vectorized']['steps_per_sec']:.1f} steps/s "
            f"({row['vectorized_speedup']:.2f}x)"
        )


# ---------------------------------------------------------------------------
# pytest entry points (the CI perf-smoke job)
# ---------------------------------------------------------------------------


def test_sweep_speedup_meets_floor():
    """Reuse must buy >= 1.5x on the ablation sweep at every size."""
    for n in SIZES:
        row = measure_sweep_speedup(n)
        assert row["speedup"] >= MIN_SWEEP_SPEEDUP, row


def test_vectorized_engine_speedup():
    """Live CI gate (ISSUE 8): at every benchmark size the vectorized
    kernel must hold >= 3x the scalar kernel's steady-state engine
    throughput, measured back-to-back on this host (ratios are
    machine-portable; absolute steps/sec are not gated)."""
    import pytest

    from hoststamp import host_stamp

    stamp = host_stamp(required_cpus=1)
    if stamp["degraded"]:
        pytest.skip(
            f"degraded host (host_cpus={stamp['host_cpus']} < "
            f"required_cpus={stamp['required_cpus']})"
        )
    for n in SIZES:
        row = measure_engine_impls(n)
        assert row["vectorized_speedup"] >= MIN_VECTORIZED_SPEEDUP, (
            f"n={n}: vectorized/scalar steady-state ratio "
            f"{row['vectorized_speedup']:.2f}x < "
            f"{MIN_VECTORIZED_SPEEDUP}x floor "
            f"(scalar {row['scalar']['steps_per_sec']:.2f}, "
            f"vectorized {row['vectorized']['steps_per_sec']:.2f} steps/s)"
        )


def test_no_regression_against_committed_baseline():
    """Speedup *ratios* are machine-portable: the current tree must stay
    within 20 % of the committed ``BENCH_step.json`` baseline.  Absolute
    steps/sec are informational only and never gated."""
    from hoststamp import require_fresh_baseline

    baseline = require_fresh_baseline(
        BASELINE_PATH, "step-reuse baseline"
    )
    for n in SIZES:
        base = baseline["sweep"][str(n)]["speedup"]
        now = measure_sweep_speedup(n)["speedup"]
        floor = base * (1.0 - REGRESSION_TOLERANCE)
        assert now >= floor, (
            f"n={n}: sweep speedup regressed to {now:.2f}x "
            f"(baseline {base:.2f}x, floor {floor:.2f}x)"
        )


if __name__ == "__main__":
    main()
