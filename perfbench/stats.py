"""Pure helpers of the benchmark: percentiles, step populations, gates.

Kept free of `repro` imports so the tests of the benchmark's own logic
run without building a system.
"""

from __future__ import annotations

import math
import statistics

#: Served-payload fields the correctness gate compares with the direct
#: path (`repro.serve.jobs.execute_request`), bit for bit.
PAYLOAD_KEYS = ("energy", "forces_fp", "modelled_seconds")

#: A percentile must sit at least this share of a wave's jobs away from
#: every boundary between two populations (batches completing in order).
POPULATION_MARGIN = 0.05


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def median(values) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def split_steps(durations, nstlist: int) -> tuple[list, list]:
    """Split per-step wall times into (rebuild, regular) populations.

    Step ``k`` is a pair-list rebuild step when ``k % nstlist == 0``; the
    two populations differ by the rebuild chain, so each is summarised
    on its own and no percentile straddles them.
    """
    if nstlist < 1:
        raise ValueError(f"nstlist must be >= 1: {nstlist}")
    rebuild, regular = [], []
    for step, dt in enumerate(durations):
        (rebuild if step % nstlist == 0 else regular).append(dt)
    return rebuild, regular


def whole_intervals(steps: int, nstlist: int) -> int:
    """``steps`` rounded to whole pair-list intervals (at least three, so
    the median rebuild step is a warm one, not the mean of the cold
    first step and a single other)."""
    return nstlist * max(3, round(steps / nstlist))


def population_of(q: float, sizes, margin: float = POPULATION_MARGIN) -> int:
    """Index of the population the ``q``-th percentile falls in.

    ``sizes`` are the job counts of the populations of one wave in
    completion order (the batches of a paused-then-released wave run
    one after another).  Raises ValueError when the percentile lies
    within ``margin`` of a boundary between two populations, where it
    would flip between them from run to run.
    """
    total = sum(sizes)
    if total <= 0 or any(s <= 0 for s in sizes):
        raise ValueError(f"population sizes must be positive: {sizes}")
    frac = q / 100.0
    edge = 0.0
    for index, size in enumerate(sizes):
        lo, edge = edge, edge + size / total
        if frac <= edge or index == len(sizes) - 1:
            for boundary in (lo, edge):
                if 0.0 < boundary < 1.0 and abs(frac - boundary) < margin:
                    raise ValueError(
                        f"p{q:g} lies {abs(frac - boundary):.3f} from the "
                        f"population boundary at {boundary:.3f} of {sizes}"
                    )
            return index
    raise AssertionError("unreachable")


def payload_mismatches(served: dict, direct: dict) -> list[str]:
    """Gate fields on which a served payload differs from the direct one."""
    return [k for k in PAYLOAD_KEYS if served.get(k) != direct.get(k)]


def energy_drift_per_step(frames) -> float:
    """Total-energy change per step between the first and last reported
    frames, ``frames`` being ``(step, total_energy)`` pairs."""
    (s0, e0), (s1, e1) = frames[0], frames[-1]
    if s1 <= s0:
        raise ValueError("drift needs two frames at different steps")
    return (e1 - e0) / (s1 - s0)
