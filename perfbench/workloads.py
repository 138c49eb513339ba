"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workloads.py --workload run-water --seed 1 \
        --seconds 8 --trace 0 --out result.json

Every run does a fixed amount of work derived from ``--seconds`` (whole
pair-list intervals of MD steps, or whole waves of jobs), never a time
budget: `SimulationService` keeps every result for its lifetime, so a
time-boxed run would charge a faster program with more memory.  With
``--trace 1`` the same work runs with span wrappers installed and the
result also carries per-layer metrics and the spans themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
from spans import Patcher, Recorder  # noqa: E402

#: Nominal work rates on a 2-vCPU Xeon at the code defaults; they turn
#: ``--seconds`` into a fixed step or wave count, independent of how
#: fast the run actually goes.
MD_STEPS_PER_S = 3.0
WARM_WAVES_PER_S = 20.0
COLD_WAVES_PER_S = 0.875

#: run-water: NVE total-energy drift bound, kJ/mol per step per particle.
WATER_DRIFT_BOUND = 0.01
#: ref-ionic-pme: largest relative LINCS bond-length error after the run.
LINCS_TOLERANCE = 1e-4
#: ref-ionic-pme: final temperature band, as factors of the v-rescale
#: target.  The run is short (tens of steps after a minimisation), so
#: the thermostat has not yet settled the heat the relaxation releases.
TEMP_BAND = (0.75, 1.75)

RUNGS = ("ori", "pkg", "cache", "vec", "fused")
#: serve-warm: four hot systems fill the default resident capacity.
WARM_SYSTEMS = ("water@spc", "water@spce", "water@tip3p", "ionic@nacl")
WARM_N = 900
#: serve-cold: every system is new.  Each wave position keeps one cost
#: class — water (SPC and SPC/E alternating by wave), then ionic, then
#: the LJ mixture — so batch k of every wave is alike and the pooled
#: percentiles do not jump between waves of different make-up.
COLD_FAMILIES = (("water@spc", "water@spce"), ("ionic@nacl",), ("ljmix@arkr",))
COLD_N = 3000
#: Server spawns per run; set-up time is their median.
SERVE_SETUPS = 3
#: Serve tail percentile; it lands inside the last batch of every wave.
#: p99 sat on the few waves a host hiccup slowed: over ten runs of the
#: same code its interquartile spread reached a third of its median.
TAIL_Q = 90
PING_INTERVAL_S = 0.005


def span(rec, name, **attrs):
    return rec.span(name, **attrs) if rec is not None else nullcontext({})


def _mod(name):
    # The workloads call the program through its modules at call time,
    # as its own callers do, so the traced run's wrappers are seen.
    # importlib because `repro.md` re-exports a function named
    # `minimize` that shadows the submodule of that name.
    return importlib.import_module(name)


# ---------------------------------------------------------------------------
# MD workloads
# ---------------------------------------------------------------------------


class StepClock:
    """Per-step wall times; ``update`` is the engine's progress hook."""

    def __init__(self) -> None:
        self.marks = [time.perf_counter()]

    def update(self, _done=None, _total=None) -> None:
        self.marks.append(time.perf_counter())

    def durations(self) -> list[float]:
        return list(np.diff(self.marks))


def _md_result(clock, nstlist, setup_s, frames, checks, exact):
    durations = clock.durations()
    rebuild, regular = stats.split_steps(durations, nstlist)
    steps = len(durations)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": steps / (clock.marks[-1] - clock.marks[0]),
        "p50_ms": stats.median(regular) * 1e3,
        "tail_ms": stats.median(rebuild) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    totals = [p + k for _, p, k in frames]
    checks["finite_energies"] = bool(np.all(np.isfinite(totals)))
    ok = all(checks.values())
    return {
        "metrics": metrics,
        "window": (clock.marks[0], clock.marks[-1]),
        "ops": steps,
        "attempted": steps,
        "failed": 0 if ok else steps,
        "checks": checks,
        "exact": exact,
    }


def run_water(seed: int, seconds: float, rec) -> dict:
    """The water branch of ``repro run`` at n=1500, level 3, NVE."""
    engine_mod = _mod("repro.core.engine")
    water = _mod("repro.md.water")
    minimize = _mod("repro.md.minimize")
    from repro.core.stepcache import position_fingerprint
    from repro.md.mdloop import MdConfig
    from repro.md.nonbonded import NonbondedParams

    nb = NonbondedParams(r_cut=0.9, r_list=1.0, coulomb_mode="rf")
    steps = stats.whole_intervals(round(seconds * MD_STEPS_PER_S), nb.nstlist)
    t0 = time.perf_counter()
    with span(rec, "md.setup"):
        system = water.build_water_system(1500, seed=seed)
        minimize.minimize(system, MdConfig(nonbonded=nb), n_steps=60)
        system.thermalize(300.0, np.random.default_rng(seed + 1))
        engine = engine_mod.SWGromacsEngine(
            system,
            engine_mod.EngineConfig(
                nonbonded=nb,
                optimization_level=3,
                report_interval=max(steps // 10, 1),
            ),
        )
    setup_s = time.perf_counter() - t0
    with span(rec, "md.run"):
        clock = StepClock()
        result = engine.run(steps, progress=clock)
    frames = [(f.step, f.potential, f.kinetic) for f in result.reporter.frames]
    drift = stats.energy_drift_per_step(
        [(s, p + k) for s, p, k in frames]
    ) / system.n_particles
    modelled_us = result.modelled_seconds / steps * 1e6
    out = _md_result(
        clock, nb.nstlist, setup_s, frames,
        {"nve_drift": abs(drift) < WATER_DRIFT_BOUND},
        {
            "positions_fp": position_fingerprint(system.positions).hex(),
            "modelled_us_per_step": modelled_us,
            "cluster_pairs": int(engine.pairlist.n_cluster_pairs),
            "sr_evals": int(engine.stepcache.stats.sr_evals),
            "sr_hits": int(engine.stepcache.stats.sr_hits),
        },
    )
    out["detail"] = {"drift_per_step_particle": drift}
    out["counts"] = {
        "core.stepcache.sr_evals": engine.stepcache.stats.sr_evals,
        "core.stepcache.sr_hits": engine.stepcache.stats.sr_hits,
        "hw.modelled_us_per_step": modelled_us,
    }
    out["stamp"] = {"kernel_impl": engine.kernel_impl,
                    "backend": engine.backend.name}
    return out


def run_ionic_pme(seed: int, seconds: float, rec) -> dict:
    """The reference `MdLoop` on charged water with PME, LINCS, NVT."""
    mdloop = _mod("repro.md.mdloop")
    minimize = _mod("repro.md.minimize")
    registry = _mod("repro.scenarios.registry")
    from repro.core.stepcache import position_fingerprint
    from repro.scenarios import concretize_text

    spec = concretize_text(
        f"ionic@nacl n=1500 elec=pme constraints=lincs ensemble=nvt seed={seed}"
    )
    t0 = time.perf_counter()
    with span(rec, "md.setup"):
        system, nb = registry.build_scenario(spec)
        minimize.minimize(system, mdloop.MdConfig(nonbonded=nb), n_steps=60)
        system.thermalize(spec.temp, np.random.default_rng(spec.seed + 1))
        steps = stats.whole_intervals(
            round(seconds * MD_STEPS_PER_S), nb.nstlist
        )
        config = registry.md_config_for(
            spec, report_interval=max(steps // 10, 1)
        )
        loop = mdloop.MdLoop(system, config)
    setup_s = time.perf_counter() - t0

    clock = StepClock()
    integrator = loop.integrator
    step = integrator.step

    def timed_step(*args, **kwargs):
        # MdLoop calls integrator.step exactly once per MD step.
        step(*args, **kwargs)
        clock.update()

    integrator.step = timed_step
    try:
        with span(rec, "md.run"):
            clock.marks = [time.perf_counter()]
            result = loop.run(steps)
    finally:
        del integrator.step
    target = config.integrator.target_temperature
    temperature = system.temperature()
    violation = loop.shake.max_violation(system.positions, system.box)
    frames = [(f.step, f.potential, f.kinetic) for f in result.reporter.frames]
    out = _md_result(
        clock, nb.nstlist, setup_s, frames,
        {
            "lincs_violation": violation < LINCS_TOLERANCE,
            "temperature_band": TEMP_BAND[0] * target
            <= temperature
            <= TEMP_BAND[1] * target,
        },
        {
            "positions_fp": position_fingerprint(system.positions).hex(),
            "cluster_pairs": int(loop.pairlist.n_cluster_pairs),
            "rebuilds": int(result.n_pairlist_rebuilds),
        },
    )
    out["detail"] = {"temperature": temperature, "lincs_violation": violation}
    out["counts"] = {}
    out["stamp"] = {"kernel_impl": loop.kernel_impl,
                    "backend": loop.backend.name}
    return out


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


def warm_waves(seed: int, n_waves: int):
    """24 jobs per wave: 4 hot systems x 5 rungs, with four exact
    duplicates of the first system's jobs submitted with it.

    Batches complete in submission order, so a wave's latency falls in
    populations of 9, 5, 5 and 5 jobs: p50 sits inside the second and
    p90 inside the last (`stats.population_of` checks this).
    """
    from repro.serve.jobs import JobRequest

    wave = []
    for i, family in enumerate(WARM_SYSTEMS):
        jobs = [
            JobRequest(scenario=f"{family} n={WARM_N} rung={rung} seed={seed}")
            for rung in RUNGS
        ]
        wave += jobs + (jobs[:4] if i == 0 else [])
    return [list(wave) for _ in range(n_waves)], [9, 5, 5, 5]


def cold_waves(seed: int, n_waves: int):
    """15 jobs per wave: 3 never-seen systems x 5 rungs (populations of
    5, 5, 5: p50 in the second batch, p90 in the third)."""
    from repro.serve.jobs import JobRequest

    waves = []
    for w in range(n_waves):
        wave = []
        for i, families in enumerate(COLD_FAMILIES):
            k = w * len(COLD_FAMILIES) + i
            family = families[w % len(families)]
            wave += [
                JobRequest(
                    scenario=f"{family} n={COLD_N} rung={rung} "
                    f"seed={seed * 1000 + k}"
                )
                for rung in RUNGS
            ]
        waves.append(wave)
    return waves, [len(RUNGS)] * len(COLD_FAMILIES)


class Server:
    """A ``repro serve`` process started through ``serve_launcher.py``."""

    def __init__(self, workdir: Path, tag: str, spans_path, journal_dir):
        rel = workdir.relative_to(ROOT)
        # Relative to the shared working directory: a Unix socket path
        # must stay under ~100 characters wherever the checkout lives.
        self.socket = str(rel / f"{tag}.sock")
        cmd = [sys.executable, str(HERE / "serve_launcher.py")]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        cmd += ["serve", "--socket", self.socket]
        if journal_dir is not None:
            cmd += ["--journal-dir", str(journal_dir)]
        self.cmd = cmd
        self.log = workdir / f"{tag}.log"
        self.proc = None
        self.client = None

    def start(self) -> float:
        """Spawn, then poll ``ping`` at a fixed interval (no backoff, so
        readiness is not quantised by retry doubling); returns the spawn
        timestamp.  ``client`` is set once the service answers."""
        from repro.serve.client import ServeClient, ServeConnectionError

        client = ServeClient(socket_path=self.socket)
        with open(self.log, "wb") as log:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                self.cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT
            )
        while True:
            try:
                client.ping()
                self.client = client
                return t0
            except ServeConnectionError:
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode}: "
                        f"{self.log.read_text()[-2000:]}"
                    ) from None
                if time.perf_counter() - t0 > 60.0:
                    raise
                time.sleep(PING_INTERVAL_S)

    def vm_hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Drain (graceful) and reap; kill if the drain does not land."""
        if self.proc is None:
            return
        try:
            if self.client is not None and self.proc.poll() is None:
                self.client.drain()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def _wave(client, jobs, rec):
    """Submit a wave while paused, release it, collect every result.

    Returns ``(release time, [(job id, JobResult or None, receive
    time)])`` — None for a job the service refused.
    """
    from repro.serve.client import ServeRequestError

    client.pause()
    ids = []
    for job in jobs:
        with span(rec, "serve.wire.submit") as record:
            try:
                jid = client.submit(job, wait=False)
            except ServeRequestError:
                jid = None
            if rec is not None:
                record["attrs"]["job_id"] = jid
        ids.append(jid)
    release = time.perf_counter()
    client.resume()
    out = []
    for jid in ids:
        if jid is None:
            out.append((None, None, time.perf_counter()))
            continue
        with span(rec, "serve.wire.wait", job_id=jid):
            result = client.wait(jid)
        out.append((jid, result, time.perf_counter()))
    return release, out


def _stat_counts(snapshot: dict) -> dict:
    s = snapshot["stats"]
    durable = snapshot.get("durable") or {}
    return {
        "serve.batches": s["batches"],
        "serve.executed_units": s["executed_units"],
        "serve.dedup_hits": s["dedup_hits"],
        "serve.resident.hits": s["resident_hits"],
        "serve.resident.misses": s["resident_misses"],
        "serve.resident.builds": s["resident_builds"],
        "serve.resident.evictions": s["resident_evictions"],
        "core.stepcache.sr_evals": s["sr_evals"],
        "core.stepcache.sr_hits": s["sr_hits"],
        "durable.journal_records": durable.get("journal_records", 0),
        "durable.store_entries": (durable.get("store") or {}).get("entries", 0),
    }


def run_serve(name: str, seed: int, seconds: float, rec, workdir: Path):
    cold = name == "serve-cold"
    if cold:
        n_waves = max(1, round(seconds * COLD_WAVES_PER_S))
        waves, sizes = cold_waves(seed, n_waves)
    else:
        n_waves = max(1, round(seconds * WARM_WAVES_PER_S))
        waves, sizes = warm_waves(seed, n_waves + 1)
        fill, waves = waves[0], waves[1:]
    for q in (50, TAIL_Q):
        stats.population_of(q, sizes)

    setups = []
    server = None
    try:
        for i in range(SERVE_SETUPS):
            if server is not None:
                server.stop()
            journal = workdir / f"journal{i}" if cold else None
            spans_path = workdir / f"spans{i}.json" if rec is not None else None
            server = Server(workdir, f"s{i}", spans_path, journal)
            t0 = server.start()
            client = server.client
            if not cold:
                for start in _starts(sizes):
                    client.warmup(fill[start])
                _wave(client, fill, None)
            setups.append(time.perf_counter() - t0)
        before = _stat_counts(client.stats())

        latencies, wave_s, records = [], [], []
        t_first = time.perf_counter()
        with span(rec, "serve.run"):
            for jobs in waves:
                release, results = _wave(client, jobs, rec)
                wave_s.append(results[-1][2] - release)
                for job, (jid, result, t_recv) in zip(jobs, results):
                    records.append((job, jid, result, release))
                    latencies.append(t_recv - release)
        t_last = time.perf_counter()

        after = _stat_counts(client.stats())
        counts = {k: after[k] - before[k] for k in after}
        counts["durable.store_entries"] = after["durable.store_entries"]
        hwm = server.vm_hwm_mb()
        checks, detail = _serve_gate(waves, records, sizes)
    finally:
        if server is not None:
            server.stop()

    failed_jobs = sum(1 for _, _, r, _ in records if r is None or not r.ok)
    n_jobs = len(records)
    ok_payloads = [
        (job.fingerprint, r.payload) for job, _, r, _ in records
        if r is not None and r.ok
    ]
    modelled = [p["modelled_seconds"] for _, p in ok_payloads]
    counts["serve.units_per_batch"] = (
        counts.pop("serve.executed_units") / max(counts["serve.batches"], 1)
    )
    counts["hw.modelled_us_per_step"] = (
        sum(modelled) / len(modelled) * 1e6 if modelled else 0.0
    )
    digest = hashlib.blake2b(digest_size=16)
    for fp, payload in sorted(ok_payloads, key=lambda x: x[0]):
        digest.update(json.dumps(
            [fp] + [payload.get(k) for k in stats.PAYLOAD_KEYS]
        ).encode())
    exact = {"payloads": digest.hexdigest()}
    exact.update({k: v for k, v in counts.items()
                  if k != "hw.modelled_us_per_step"})
    gate_failures = sum(1 for ok in checks.values() if not ok)
    out = {
        "metrics": {
            "setup_s": stats.median(setups),
            "ops_per_s": n_jobs / (t_last - t_first),
            "p50_ms": stats.percentile(latencies, 50) * 1e3,
            "tail_ms": stats.percentile(latencies, TAIL_Q) * 1e3,
            "peak_rss_mb": hwm,
        },
        "window": (t_first, t_last),
        "ops": n_jobs,
        "attempted": n_jobs,
        "failed": failed_jobs + gate_failures,
        "checks": checks,
        "exact": exact,
        "counts": counts,
        "detail": dict(detail, setups_s=setups, wave_s=wave_s,
                       p99_ms=stats.percentile(latencies, 99) * 1e3),
        "stamp": _serve_stamp(),
        "jobs": [
            (jid, release, r.queue_seconds, r.execute_seconds)
            for _, jid, r, release in records if r is not None
        ],
    }
    if rec is not None:
        out["server_spans"] = json.loads(spans_path.read_text())
    return out


def _starts(sizes) -> list[int]:
    """Index of each population's first job within a wave."""
    return [sum(sizes[:i]) for i in range(len(sizes))]


def _serve_stamp() -> dict:
    from repro.core.vectorized import resolve_kernel_impl
    from repro.parallel.pool import shared_backend

    return {"kernel_impl": resolve_kernel_impl(None),
            "backend": shared_backend(None).name}


def _serve_gate(waves, records, sizes):
    """Every job ok; every fingerprint served one payload; a fixed
    sample of the first wave (one job per system, rung rotating) equals
    `repro.serve.jobs.execute_request` run directly."""
    from repro.serve.jobs import execute_request

    checks = {"all_jobs_ok": all(r is not None and r.ok
                                 for _, _, r, _ in records)}
    served: dict[str, dict] = {}
    consistent = True
    for job, _, result, _ in records:
        if result is None or not result.ok:
            continue
        first = served.setdefault(job.fingerprint, result.payload)
        consistent &= not stats.payload_mismatches(result.payload, first)
    checks["repeat_payloads_equal"] = consistent
    mismatched = []
    for i, start in enumerate(_starts(sizes)):
        job = waves[0][start + i % len(RUNGS)]
        direct = execute_request(job)
        diff = stats.payload_mismatches(served.get(job.fingerprint, {}), direct)
        if diff:
            mismatched.append((job.scenario, diff))
    checks["sample_equals_direct"] = not mismatched
    return checks, {"sample_mismatches": mismatched}


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

def _serve_layers(out: dict, client_spans, server_spans) -> dict:
    # Server span ids live in their own range so parents never collide.
    offset = 1 << 40
    for s in server_spans:
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
    spans = client_spans + server_spans
    metrics = layers.layer_metrics(spans, out["window"], out["ops"], "serve.run")
    admitted = {
        s["attrs"].get("job_id"): s["end"]
        for s in server_spans if s["name"] == "serve.admit"
    }
    waits, execs = [], []
    for jid, release, queue_s, exec_s in out["jobs"]:
        if jid in admitted:
            waits.append(max(admitted[jid] + queue_s - release, 0.0))
        execs.append(exec_s)
    if waits:
        metrics["serve.queue_wait_ms"] = sum(waits) / len(waits) * 1e3
    if execs:
        metrics["serve.execute_ms"] = sum(execs) / len(execs) * 1e3
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    rec = Recorder() if trace else None
    patcher = Patcher(rec) if trace else None
    try:
        if trace and name in ("run-water", "ref-ionic-pme"):
            layers.install(patcher, layers.MD_PROBES)
        if name == "run-water":
            out = run_water(seed, seconds, rec)
        elif name == "ref-ionic-pme":
            out = run_ionic_pme(seed, seconds, rec)
        else:
            out = run_serve(name, seed, seconds, rec, workdir)
    finally:
        if patcher is not None:
            patcher.restore()
    if trace:
        if name.startswith("serve"):
            out["layers"] = _serve_layers(out, rec.spans, out["server_spans"])
        else:
            out["layers"] = layers.layer_metrics(
                rec.spans, out["window"], out["ops"], "md.run"
            )
        out["layers"].update(out["counts"])
        out["client_spans"] = rec.spans
    else:
        out.pop("server_spans", None)
    out.pop("jobs", None)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out_path = Path(args.out)
    workdir = out_path.parent
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    out_path.write_text(json.dumps(out, default=_json_default))
    return 0


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    raise TypeError(f"not JSON-serialisable: {type(value).__name__}")


if __name__ == "__main__":
    sys.exit(main())
