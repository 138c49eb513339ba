"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import stats  # noqa: E402
from spans import Patcher, Recorder, chrome_trace, resolve_owner, self_times  # noqa: E402


def test_split_steps_puts_every_nstlist_th_step_in_the_rebuild_population():
    durations = [float(k) for k in range(30)]
    rebuild, regular = stats.split_steps(durations, 10)
    assert rebuild == [0.0, 10.0, 20.0]
    assert len(regular) == 27 and 10.0 not in regular and 1.0 in regular


def test_whole_intervals_rounds_to_at_least_three_intervals():
    assert stats.whole_intervals(30, 10) == 30
    assert stats.whole_intervals(26, 10) == 30
    assert stats.whole_intervals(52, 10) == 50
    assert stats.whole_intervals(3, 10) == 30


def test_percentile_is_nearest_rank():
    xs = list(range(1, 101))
    assert stats.percentile(xs, 50) == 50
    assert stats.percentile(xs, 99) == 99
    assert stats.percentile([3.0], 90) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_reported_percentiles_fall_inside_one_population():
    warm = [9, 5, 5, 5]
    assert stats.population_of(50, warm) == 1
    assert stats.population_of(90, warm) == 3
    cold = [5, 5, 5]
    assert stats.population_of(50, cold) == 1
    assert stats.population_of(90, cold) == 2


def test_percentile_on_a_population_boundary_is_refused():
    # Two 5-job batches per wave put the median between them.
    with pytest.raises(ValueError):
        stats.population_of(50, [5, 5])
    with pytest.raises(ValueError):
        stats.population_of(50, [6, 5, 5, 8])


def _span(i, start, end, parent=None, name="x"):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "tid": 0, "attrs": {}}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 2.0, 5.0, parent=0),
        _span(2, 3.0, 4.0, parent=1),
        _span(3, 4.5, 8.0, parent=0),  # overlaps span 1 (another thread)
        _span(4, 9.5, 12.0, parent=0),  # runs past its parent
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (8.0 - 2.0) - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.5)


def test_layer_metrics_books_unattributed_time_to_the_root():
    spans = [
        _span(0, 0.0, 10.0, name="md.run"),
        _span(1, 0.0, 6.0, parent=0, name="md.forces.short_range"),
        _span(2, 6.0, 9.0, parent=0, name="md.integrator.update"),
        _span(3, 6.5, 7.5, parent=2, name="md.constraints.positions"),
    ]
    m = layers.layer_metrics(spans, (0.0, 10.0), ops=2, root="md.run")
    assert m["md.forces.short_range_ms"] == pytest.approx(3000.0)
    assert m["md.integrator.update_ms"] == pytest.approx(1000.0)
    assert m["md.constraints.positions_ms"] == pytest.approx(500.0)
    assert m["md.integrator.update.calls"] == 1
    assert m["unattributed_ms"] == pytest.approx(500.0)
    assert m["attributed_share"] == pytest.approx(0.9)


def test_spans_inside_the_minimiser_are_booked_to_it():
    spans = [
        _span(0, 0.0, 4.0, name="md.minimize"),
        _span(1, 0.0, 3.0, parent=0, name="md.forces.short_range"),
        _span(2, 5.0, 6.0, name="md.run"),
        _span(3, 5.0, 5.5, parent=2, name="md.forces.short_range"),
    ]
    spans[0]["attrs"]["iterations"] = 7
    m = layers.layer_metrics(spans, (5.0, 6.0), ops=1, root="md.run")
    assert m["md.minimize.force_ms"] == pytest.approx(3000.0)
    assert m["md.minimize.iterations"] == 7
    assert m["md.forces.short_range_ms"] == pytest.approx(500.0)


def test_patcher_records_nested_spans_and_restores_every_attribute():
    mod = types.ModuleType("fake_mod")

    class Solver:
        def apply(self, x):
            return helper(x) + 1

    def helper(x):
        return x * 10

    mod.helper = helper
    mod.Solver = Solver
    solver = Solver()
    originals = (mod.helper, Solver.__dict__["apply"])

    rec = Recorder()
    with Patcher(rec) as patcher:
        patcher.wrap((Solver, "apply"), "outer")
        patcher.wrap((solver, "apply"), "instance")
        patcher.wrap((sys.modules[__name__], "_inner"), "inner")
        assert solver.apply(1) == 11
        assert _inner() == "inner"
    names = {s["id"]: s["name"] for s in rec.spans}
    parents = {s["name"]: names.get(s["parent"]) for s in rec.spans}
    assert parents == {"outer": "instance", "instance": None, "inner": None}
    assert (mod.helper, Solver.__dict__["apply"]) == originals
    assert "apply" not in vars(solver)
    assert _inner.__name__ == "_inner" and not hasattr(_inner, "__wrapped__")


def _inner():
    return "inner"


def test_no_probe_survives_a_traced_run():
    probes = layers.MD_PROBES + layers.SERVE_PROBES
    before = {}
    for target, _, _ in probes:
        owner, attr = resolve_owner(target)
        before[target] = vars(owner)[attr]
    with Patcher(Recorder()) as patcher:
        layers.install(patcher, probes)
        for target, _, _ in probes:
            owner, attr = resolve_owner(target)
            assert vars(owner)[attr] is not before[target]
    for target, _, _ in probes:
        owner, attr = resolve_owner(target)
        assert vars(owner)[attr] is before[target], target


def test_async_spans_of_concurrent_tasks_do_not_adopt_each_other():
    rec = Recorder()

    async def work(tag):
        await asyncio.sleep(0.01)
        return tag

    holder = types.SimpleNamespace(work=work)

    async def main():
        with Patcher(rec) as patcher:
            patcher.wrap((holder, "work"), "task")
            return await asyncio.gather(holder.work(1), holder.work(2))

    assert asyncio.run(main()) == [1, 2]
    assert [s["parent"] for s in rec.spans] == [None, None]
    doc = chrome_trace([(1, "test", rec.spans)])
    assert [e["ph"] for e in doc["traceEvents"]] == ["M", "X", "X"]


def test_gate_rejects_a_doctored_payload():
    direct = {"energy": -1.5, "forces_fp": "ab", "modelled_seconds": 2e-3}
    assert stats.payload_mismatches(dict(direct), direct) == []
    doctored = dict(direct, energy=-1.5000001)
    assert stats.payload_mismatches(doctored, direct) == ["energy"]
    assert stats.payload_mismatches({}, direct) == list(stats.PAYLOAD_KEYS)


def test_serve_gate_compares_served_payloads_with_the_direct_path():
    import workloads
    from repro.serve.jobs import JobRequest, JobResult, execute_request

    job = JobRequest(scenario="water@spc n=300 rung=ori rcut=0.45 seed=3")
    payload = execute_request(job)

    def records(p):
        result = JobResult(job_id=1, fingerprint=job.fingerprint,
                           kind="kernel", ok=True, payload=p)
        return [(job, 1, result, 0.0)]

    checks, _ = workloads._serve_gate([[job]], records(payload), [1])
    assert all(checks.values())
    doctored = dict(payload, forces_fp="0" * len(payload["forces_fp"]))
    checks, detail = workloads._serve_gate([[job]], records(doctored), [1])
    assert checks["sample_equals_direct"] is False
    assert detail["sample_mismatches"][0][1] == ["forces_fp"]


def test_energy_drift_is_per_step_between_first_and_last_frame():
    assert stats.energy_drift_per_step([(0, 10.0), (3, 11.0), (9, 13.0)]) == (
        pytest.approx(1.0 / 3.0)
    )
    with pytest.raises(ValueError):
        stats.energy_drift_per_step([(0, 1.0)])
