"""Where the traced run wraps the program, and the per-layer metrics.

Layers are named after the `repro` modules whose public functions the
wrappers sit on.  A wrapper is installed at the attribute its caller
looks up: `repro.core.engine` imported ``build_pair_list`` by name, so
the engine's calls go through ``repro.core.engine:build_pair_list``,
while the serve tier imports it lazily from `repro.md.pairlist`.
"""

from __future__ import annotations

from spans import ancestors, self_times

WORKLOADS = ("run-water", "ref-ionic-pme", "serve-warm", "serve-cold")

HW_STATS = ("read_miss_ratio", "write_miss_ratio", "imbalance")


def _pairs(attrs, plist) -> None:
    attrs["cluster_pairs"] = int(plist.n_cluster_pairs)


def _kernel(attrs, result) -> None:
    stats = result.stats
    for key in HW_STATS:
        attrs[key] = float(stats.get(key, 0.0))
    attrs["dma_bytes"] = float(
        stats.get("read_bytes", 0.0)
        + stats.get("write_bytes", 0.0)
        + stats.get("nblist_bytes", 0.0)
    )
    attrs["modelled_s"] = float(result.elapsed_seconds)


def _iterations(attrs, result) -> None:
    attrs["iterations"] = int(result.n_steps)


def _job_id(attrs, job) -> None:
    attrs["job_id"] = int(job.job_id)


_SOLVERS = (
    "repro.md.settle:SettleSolver",
    "repro.md.lincs:LincsSolver",
    "repro.md.constraints:ShakeSolver",
)

#: (target, span name, on_result) — the MD workloads (one process).
MD_PROBES = [
    ("repro.md.water:build_water_system", "md.build", None),
    ("repro.scenarios.registry:build_scenario", "md.build", None),
    ("repro.md.minimize:minimize", "md.minimize", _iterations),
    ("repro.md.mdloop:build_pair_list", "md.pairlist.build", _pairs),
    ("repro.core.engine:build_pair_list", "md.pairlist.build", _pairs),
    ("repro.core.vectorized:compute_short_range_impl",
     "md.forces.short_range", None),
    ("repro.md.pme:PmeSolver.spread", "md.pme.spread", None),
    ("repro.md.pme:PmeSolver.compute", "md.pme.compute", None),
    ("repro.md.integrator:LeapfrogIntegrator.step",
     "md.integrator.update", None),
    ("repro.core.stepcache:StepCache.short_range",
     "core.stepcache.short_range", None),
    ("repro.core.engine:run_kernel", "core.kernels.run_kernel", _kernel),
    ("repro.core.engine:search_trace", "core.ns_model", None),
    ("repro.core.engine:cache_study", "core.ns_model", None),
] + [
    (f"{solver}.apply_{what}", f"md.constraints.{what}", None)
    for solver in _SOLVERS
    for what in ("positions", "velocities")
]

#: The server process of the serve workloads (installed by
#: ``serve_launcher.py`` before it hands over to ``repro serve``).
SERVE_PROBES = [
    ("repro.serve.service:SimulationService.submit", "serve.admit", _job_id),
    ("repro.serve.service:execute_batch_with", "serve.resident.execute", None),
    ("repro.scenarios.spec:concretize_text", "scenarios.concretize", None),
    ("repro.scenarios.registry:build_scenario", "md.build", None),
    ("repro.md.pairlist:build_pair_list", "md.pairlist.build", _pairs),
    ("repro.core.kernels:run_kernel", "core.kernels.run_kernel", _kernel),
    ("repro.core.stepcache:StepCache.short_range",
     "core.stepcache.short_range", None),
    ("repro.core.vectorized:compute_short_range_impl",
     "md.forces.short_range", None),
    ("repro.durable.journal:JobJournal.accepted",
     "durable.journal_append", None),
    ("repro.durable.journal:JobJournal.completed",
     "durable.journal_append", None),
    ("repro.durable.journal:JobJournal.failed",
     "durable.journal_append", None),
    ("repro.durable.results:ResultStore.put", "durable.store_put", None),
]


def install(patcher, probes) -> None:
    for target, name, on_result in probes:
        patcher.wrap(target, name, on_result)


#: Span names whose self time is reported per operation of the timed
#: window (ms per MD step or per served job), with their call counts.
TIMED_LAYERS = (
    "md.pairlist.build",
    "md.forces.short_range",
    "md.pme.spread",
    "md.pme.compute",
    "md.constraints.positions",
    "md.constraints.velocities",
    "md.integrator.update",
    "core.stepcache.short_range",
    "core.kernels.run_kernel",
    "core.ns_model",
    "serve.wire.submit",
    "serve.wire.wait",
    "serve.admit",
    "serve.resident.execute",
    "scenarios.concretize",
    "durable.journal_append",
    "durable.store_put",
)

#: Spans inside the minimiser are booked to the minimiser's own layer.
MINIMIZE_CHILDREN = {
    "md.forces.short_range": "md.minimize.force",
    "md.pairlist.build": "md.minimize.pairlist",
    "md.constraints.positions": "md.minimize.constraint",
    "md.constraints.velocities": "md.minimize.constraint",
}

#: Counts each workload reports from the program's own counters (zero
#: where a workload does not run the layer).
COUNTS = (
    "core.stepcache.sr_evals",
    "core.stepcache.sr_hits",
    "serve.batches",
    "serve.units_per_batch",
    "serve.dedup_hits",
    "serve.resident.hits",
    "serve.resident.misses",
    "serve.resident.builds",
    "serve.resident.evictions",
    "durable.journal_records",
    "durable.store_entries",
)

#: Per-job split of served latency, from `JobResult` and the spans that
#: share a job id (zero on the MD workloads).
SERVE_SPLIT = ("serve.queue_wait_ms", "serve.execute_ms")

E2E = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio") or name.endswith("_share") or name in (
        "hw.imbalance", "serve.units_per_batch"
    ):
        return "ratio"
    if name.endswith("bytes_per_step"):
        return "B"
    if name.endswith("_us_per_step"):
        return "us"
    return "count"


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in reporting order."""
    names = ["md.build_ms", "md.build.calls"]
    names += [f"{m}_ms" for m in (
        "md.minimize.force", "md.minimize.pairlist", "md.minimize.constraint"
    )]
    names += ["md.minimize.iterations", "md.pairlist.cluster_pairs"]
    for layer in TIMED_LAYERS:
        names += [f"{layer}_ms", f"{layer}.calls"]
    names += list(COUNTS) + list(SERVE_SPLIT)
    names += [f"hw.{k}" for k in HW_STATS]
    names += ["hw.dma_bytes_per_step", "hw.modelled_us_per_step"]
    names += ["unattributed_ms", "attributed_share"]
    out = [(n, _unit(n)) for n in names]
    units = dict(E2E)
    out += [(f"trace.overhead.{n}", units[n]) for n, _ in E2E]
    return out


def layer_metrics(spans, window, ops: int, root: str) -> dict:
    """Per-layer self time, calls and span-borne counts.

    ``window`` is the timed ``(start, end)``; ``root`` names the span
    that covers it, whose own self time is the unattributed rest (server
    spans of a serve workload run while the client's wire spans wait, so
    only the root's descendants count towards covering it).
    Minimiser and system-build spans are totals over the whole run (they are
    set-up work on MD, per-wave work on serve-cold); timed layers are
    self ms per operation.
    """
    own = self_times(spans)
    up = ancestors(spans)
    out = {name: 0.0 for name, _ in per_layer_names()}
    lo, hi = window
    kernels, builds = [], []
    for s in spans:
        name, dt = s["name"], own[s["id"]]
        if "md.minimize" in up[s["id"]]:
            if name in MINIMIZE_CHILDREN:
                out[f"{MINIMIZE_CHILDREN[name]}_ms"] += dt * 1e3
            continue
        if name == "md.minimize":
            out["md.minimize.iterations"] += s["attrs"].get("iterations", 0)
            continue
        if name == "md.build":
            out["md.build_ms"] += dt * 1e3
            out["md.build.calls"] += 1
        if not (lo <= s["start"] and s["end"] <= hi):
            continue
        if name in TIMED_LAYERS:
            out[f"{name}_ms"] += dt * 1e3 / ops
            out[f"{name}.calls"] += 1
        if name == "md.pairlist.build":
            builds.append(s["attrs"]["cluster_pairs"])
        elif name == "core.kernels.run_kernel":
            kernels.append(s["attrs"])
    if builds:
        out["md.pairlist.cluster_pairs"] = sum(builds) / len(builds)
    if kernels:
        for key in HW_STATS:
            out[f"hw.{key}"] = sum(k[key] for k in kernels) / len(kernels)
        out["hw.dma_bytes_per_step"] = (
            sum(k["dma_bytes"] for k in kernels) / len(kernels)
        )
    roots = [s for s in spans if s["name"] == root]
    wall = sum(s["end"] - s["start"] for s in roots)
    rest = sum(own[s["id"]] for s in roots)
    out["unattributed_ms"] = rest * 1e3 / ops
    out["attributed_share"] = 1.0 - rest / wall
    return out
