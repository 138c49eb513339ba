"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's experiments:

* ``run``      — MD on the simulated SW26010 (quickstart as a command);
* ``trace``    — record a per-CPE event timeline of an MD run and export
  Chrome-trace JSON (load in chrome://tracing or ui.perfetto.dev);
* ``ladder``   — the Fig. 8/9 strategy comparison;
* ``overall``  — the Fig. 10 optimisation-level ladder;
* ``scaling``  — the Fig. 12 strong/weak curves;
* ``ranks``    — a multi-rank simulated-MPI run, one worker per rank;
* ``table2``   — the DMA bandwidth table;
* ``ttf``      — the Eq. 3/4 platform ratios;
* ``serve``    — run the long-lived simulation service (queue, batcher,
  fair-share scheduler over the pool backend; DESIGN.md §10);
* ``submit``   — submit a job (or control op) to a running service or
  fleet router (``--router`` addresses a router directly);
* ``fleet``    — run the consistent-hash fleet router, optionally
  spawning N local workers (DESIGN.md §11);
* ``fleet-worker`` — run one fleet worker: a simulation service that
  registers and heartbeats with a router.

Every command accepts ``--backend serial|pool`` and ``--workers N``
(before the subcommand) to pick the host execution backend; the
``REPRO_BACKEND`` / ``REPRO_WORKERS`` environment variables are the
fallback (DESIGN.md §9).  The short-range kernel has no flag: the
``REPRO_KERNEL`` environment variable alone selects the scalar
bit-identity reference, for every command and every process they
spawn (DESIGN.md §13).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro import __version__
from repro.parallel.pool import BACKEND_ENV, BACKEND_NAMES, WORKERS_ENV


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SW_GROMACS reproduction: GROMACS-like MD on a "
        "simulated SW26010 core group",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}",
        help="print the package version and exit",
    )
    parser.add_argument(
        "--backend", choices=sorted(BACKEND_NAMES), default=None,
        help="host execution backend (default: $REPRO_BACKEND or serial)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="pool worker count (default: $REPRO_WORKERS or host CPUs)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run MD on the simulated chip")
    run.add_argument("-n", "--particles", type=int, default=3000)
    run.add_argument("-s", "--steps", type=int, default=100)
    run.add_argument("--level", type=int, default=3, choices=range(4))
    run.add_argument("--rcut", type=float, default=0.9)
    run.add_argument("--seed", type=int, default=2019)
    run.add_argument(
        "--spec", metavar="SPEC", default=None,
        help="scenario spec, e.g. 'water@spce n=1500 ensemble=nvt "
        "elec=rf' — overrides -n/--level/--rcut/--seed (DESIGN.md §15)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="write a checkpoint every N completed steps (0 = never)",
    )
    run.add_argument(
        "--checkpoint-path", default="state.ckpt",
        help="checkpoint file (default: state.ckpt)",
    )
    run.add_argument(
        "--restart", metavar="FILE", default=None,
        help="resume from a checkpoint file (bit-identical continuation)",
    )
    run.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults, e.g. 'seed=7,dma=1e-3,cpe=0.01,msg=1e-4,dead=3+17'",
    )

    trace = sub.add_parser(
        "trace",
        help="record a per-CPE event timeline and export Chrome-trace JSON",
    )
    trace.add_argument("-n", "--particles", type=int, default=3000)
    trace.add_argument("-s", "--steps", type=int, default=5)
    trace.add_argument("--level", type=int, default=3, choices=range(4))
    trace.add_argument("--rcut", type=float, default=0.9)
    trace.add_argument("--seed", type=int, default=2019)
    trace.add_argument(
        "--out", default="trace.json", help="output path for the trace JSON"
    )
    trace.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject faults and trace the retries (same SPEC as run)",
    )

    ladder = sub.add_parser("ladder", help="Fig. 8/9 strategy speedups")
    ladder.add_argument("-n", "--particles", type=int, default=12000)
    ladder.add_argument("--baselines", action="store_true")

    overall = sub.add_parser("overall", help="Fig. 10 optimisation levels")
    overall.add_argument("-n", "--particles", type=int, default=12000)
    overall.add_argument("--cgs", type=int, default=1)

    scaling = sub.add_parser("scaling", help="Fig. 12 scalability curves")
    scaling.add_argument("--strong-total", type=int, default=48000)
    scaling.add_argument("--weak-per-cg", type=int, default=10000)

    ranks = sub.add_parser(
        "ranks",
        help="multi-rank simulated-MPI run (one host worker per rank)",
    )
    ranks.add_argument("-r", "--ranks", dest="n_ranks", type=int, default=4)
    ranks.add_argument("-n", "--particles", type=int, default=3000)
    ranks.add_argument("-s", "--steps", type=int, default=20)
    ranks.add_argument("--level", type=int, default=3, choices=range(4))
    ranks.add_argument("--rcut", type=float, default=0.9)
    ranks.add_argument("--seed", type=int, default=2019)
    ranks.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="per-rank fault injection (same SPEC as run; rank-seeded)",
    )

    sub.add_parser("table2", help="DMA bandwidth vs block size")
    sub.add_parser("ttf", help="Eq. 3/4 cross-platform TTF ratios")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived simulation service (drain to stop)",
    )
    _add_address_args(serve)
    _add_serve_args(serve)
    serve.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome-trace service timeline to FILE on drain",
    )
    _add_resident_args(serve)
    _add_durable_args(serve)

    fleet = sub.add_parser(
        "fleet",
        help="run the fleet router (consistent-hash front-end over workers)",
    )
    _add_address_args(fleet)
    fleet.add_argument(
        "--spawn-workers", type=int, default=0, metavar="N",
        help="also spawn N local fleet-worker subprocesses (needs --socket)",
    )
    fleet.add_argument(
        "--heartbeat-timeout", type=float, default=5.0, metavar="SECONDS",
        help="declare a worker dead after this heartbeat silence (default: 5)",
    )
    fleet.add_argument(
        "--check-interval", type=float, default=0.5, metavar="SECONDS",
        help="heartbeat-deadline check period (default: 0.5)",
    )
    fleet.add_argument(
        "--route-wait", type=float, default=10.0, metavar="SECONDS",
        help="max wait for a routable worker before no_workers (default: 10)",
    )
    fleet.add_argument(
        "--vnodes", type=int, default=64, metavar="N",
        help="virtual nodes per worker on the hash ring (default: 64)",
    )
    fleet.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome-trace fleet timeline to FILE on drain",
    )

    worker = sub.add_parser(
        "fleet-worker",
        help="run one fleet worker (a serve instance that phones home)",
    )
    _add_address_args(worker)
    worker.add_argument(
        "--router", required=True, metavar="ADDR",
        help="router address: a socket path or host:port",
    )
    worker.add_argument(
        "--name", required=True, help="unique worker name within the fleet"
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=1.0, metavar="SECONDS",
        help="heartbeat period (default: 1)",
    )
    _add_serve_args(worker)
    _add_resident_args(worker)
    _add_durable_args(worker)

    submit = sub.add_parser(
        "submit",
        help="submit a job (or control op) to a running service",
    )
    _add_address_args(submit)
    submit.add_argument(
        "--router", metavar="ADDR", default=None,
        help="address a fleet router (socket path or host:port) instead "
        "of --socket/--port; same wire protocol, extra ops (fleet)",
    )
    submit.add_argument(
        "--connect-retries", type=int, default=0, metavar="N",
        help="retry a refused/unbound initial connect N times (default: 0)",
    )
    submit.add_argument(
        "--connect-backoff", type=float, default=0.05, metavar="SECONDS",
        help="initial connect-retry backoff, doubling per attempt",
    )
    submit.add_argument("-n", "--particles", type=int, default=900)
    submit.add_argument(
        "--kind", choices=("kernel", "md"), default="kernel",
        help="job kind: one strategy kernel or a full MD run",
    )
    submit.add_argument(
        "--spec", default="MARK",
        help="kernel strategy name (kernel kind; default: MARK) OR a "
        "scenario spec like 'water@spce n=1500 ensemble=nvt elec=rf' — "
        "anything that is not a known strategy name is concretized as "
        "a scenario (DESIGN.md §15)",
    )
    submit.add_argument("-s", "--steps", type=int, default=5)
    submit.add_argument("--level", type=int, default=3, choices=range(4))
    submit.add_argument("--rcut", type=float, default=0.9)
    submit.add_argument("--seed", type=int, default=2019)
    submit.add_argument("--tenant", default="default")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall deadline from admission",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="enqueue and print the job id instead of waiting",
    )
    submit.add_argument(
        "--wait-id", type=int, default=None, metavar="JOB_ID",
        help="wait for a previously submitted job instead of submitting",
    )
    submit.add_argument(
        "--progress-id", type=int, default=None, metavar="JOB_ID",
        help="stream progress for a previously submitted job (long MD "
        "jobs report partial step counts) until its terminal result",
    )
    submit.add_argument(
        "--op",
        choices=("ping", "stats", "metrics", "pause", "resume", "drain",
                 "fleet", "warmup"),
        default=None,
        help="send a control op instead of submitting a job "
        "(metrics: per-tenant SLO metrics; fleet: router-only "
        "membership/ring dump; warmup: pre-build worker residency for "
        "the job described by the other flags — DESIGN.md §14)",
    )

    campaign = sub.add_parser(
        "campaign",
        help="expand a scenario matrix and fan it over a serve tier",
    )
    campaign.add_argument(
        "matrix",
        help="spec matrix, e.g. 'water@spc,water@spce n=750,1500 "
        "elec=rf,pme' (cross product; invalid corners are reported "
        "skips, not errors)",
    )
    _add_address_args(campaign)
    campaign.add_argument(
        "--router", metavar="ADDR", default=None,
        help="address a fleet router instead of --socket/--port",
    )
    campaign.add_argument(
        "--self-serve", action="store_true",
        help="run an in-process serve tier for the campaign (no "
        "address flags needed; drains itself afterwards)",
    )
    campaign.add_argument(
        "--kind", choices=("kernel", "md"), default="kernel",
        help="job kind for every cell (default: kernel)",
    )
    campaign.add_argument("-s", "--steps", type=int, default=5)
    campaign.add_argument("--tenant", default="campaign")
    campaign.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall deadline from admission",
    )
    campaign.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the JSON campaign report to FILE",
    )
    campaign.add_argument(
        "--dry-run", action="store_true",
        help="plan only: print the per-cell table (concrete spec / "
        "skip reason / duplicate) without submitting anything",
    )
    campaign.add_argument(
        "--connect-retries", type=int, default=0, metavar="N",
        help="retry a refused/unbound initial connect N times",
    )
    campaign.add_argument(
        "--connect-backoff", type=float, default=0.05, metavar="SECONDS",
        help="initial connect-retry backoff, doubling per attempt",
    )

    scenarios = sub.add_parser(
        "scenarios",
        help="list/audit the scenario registry (DESIGN.md §15)",
    )
    scenarios.add_argument(
        "--audit", action="store_true",
        help="concretize the full one-factor variant matrix; exit 1 on "
        "drift (a cell failing outside the declared rules)",
    )
    scenarios.add_argument(
        "--smoke", action="store_true",
        help="run a tiny MD through every family on the serial backend",
    )
    scenarios.add_argument(
        "--smoke-steps", type=int, default=2, metavar="N",
        help="MD steps per family in --smoke (default: 2)",
    )
    return parser


def _add_serve_args(parser) -> None:
    parser.add_argument(
        "--max-depth", type=int, default=64, metavar="N",
        help="admission window: total queued jobs (default: 64)",
    )
    parser.add_argument(
        "--max-per-tenant", type=int, default=None, metavar="N",
        help="per-tenant queued-job cap (default: none)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=16, metavar="N",
        help="max distinct requests coalesced per dispatch (default: 16)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="concurrent batches (default: backend worker count)",
    )
    parser.add_argument(
        "--no-dedup", action="store_true",
        help="disable request dedup/batching (ablation baseline)",
    )


def _add_resident_args(parser) -> None:
    parser.add_argument(
        "--no-resident", action="store_true",
        help="disable the resident-state layer (cold-dispatch ablation "
        "baseline; DESIGN.md §14)",
    )
    parser.add_argument(
        "--resident-capacity", type=int, default=4, metavar="N",
        help="warm systems kept per worker process, LRU beyond this "
        "(default: 4)",
    )


def _add_durable_args(parser) -> None:
    parser.add_argument(
        "--journal-dir", metavar="DIR", default=None,
        help="enable the durable layer: journal accepted jobs and keep "
        "a cross-restart result store under DIR (restart with the same "
        "DIR to replay unfinished jobs bit-identically; DESIGN.md §12)",
    )
    parser.add_argument(
        "--result-store-max", type=int, default=512, metavar="N",
        help="durable result-store bound, LRU-evicted (default: 512)",
    )
    parser.add_argument(
        "--journal-fsync", action="store_true",
        help="fsync every journal record (power-loss strictness; the "
        "default flush-per-record already survives kill -9)",
    )


def _serve_config(args):
    """The `ServeConfig` the serve and fleet-worker flags describe."""
    from repro.serve import ServeConfig

    return ServeConfig(
        max_depth=args.max_depth,
        max_per_tenant=args.max_per_tenant,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        dedup=not args.no_dedup,
        backend=args.backend,
        workers=args.workers,
        journal_dir=args.journal_dir,
        result_store_max=args.result_store_max,
        journal_fsync=args.journal_fsync,
        resident=not args.no_resident,
        resident_capacity=args.resident_capacity,
    )


def _add_address_args(parser) -> None:
    parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="Unix-domain socket path for the service",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="TCP host (with --port)"
    )
    parser.add_argument(
        "--port", type=int, default=None, help="TCP port (0 = ephemeral)"
    )


def _cmd_run(args) -> int:
    from repro.core.engine import EngineConfig, SWGromacsEngine
    from repro.md.mdloop import MdConfig
    from repro.md.minimize import minimize
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system
    from repro.resilience import ResiliencePolicy, load_checkpoint

    policy = ResiliencePolicy(
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint_path,
        faults=args.faults,
    )
    if args.spec is not None:
        from repro.scenarios import (
            SpecError,
            build_scenario,
            concretize_text,
            engine_config_for,
        )

        try:
            spec = concretize_text(args.spec)
        except SpecError as exc:
            print(f"run: invalid spec: {exc}", file=sys.stderr)
            return 2
        print(f"scenario: {spec.to_string()}")
        system, nb = build_scenario(spec)
        minimize(system, MdConfig(nonbonded=nb), n_steps=60)
        system.thermalize(spec.temp, np.random.default_rng(spec.seed + 1))
        overrides = dict(
            report_interval=max(args.steps // 10, 1),
            resilience=policy,
            backend=args.backend,
            workers=args.workers,
        )
        config = engine_config_for(spec, **overrides)
    else:
        nb = NonbondedParams(
            r_cut=args.rcut, r_list=args.rcut + 0.1, coulomb_mode="rf"
        )
        system = build_water_system(args.particles, seed=args.seed)
        minimize(system, MdConfig(nonbonded=nb), n_steps=60)
        system.thermalize(300.0, np.random.default_rng(args.seed + 1))
        config = EngineConfig(
            nonbonded=nb,
            optimization_level=args.level,
            report_interval=max(args.steps // 10, 1),
            resilience=policy,
            backend=args.backend,
            workers=args.workers,
        )
    engine = SWGromacsEngine(system, config)
    start = 0
    if args.restart:
        ckpt = load_checkpoint(args.restart)
        engine.restore(ckpt)
        start = ckpt.step
        print(f"restarted from {args.restart} at step {start}")
    result = engine.run(args.steps)
    print("step   E_total(kJ/mol)     T(K)")
    for frame in result.reporter.frames:
        print(f"{frame.step:5d} {frame.total:15.1f} {frame.temperature:8.1f}")
    # Modelled time covers only the steps this invocation ran; the
    # reporter and checkpoint counts span the whole trajectory.
    total = result.timing.total()
    print(f"\nmodelled chip time: {total * 1e3:.2f} ms "
          f"({total / max(args.steps - start, 1) * 1e6:.1f} us/step)")
    for kernel, frac in sorted(
        result.timing.fractions().items(), key=lambda kv: -kv[1]
    ):
        print(f"  {kernel:18s} {frac:6.1%}")
    if result.checkpoints_written:
        every = policy.checkpoint_every
        wrote = every and args.steps // every > start // every
        where = f"to {policy.checkpoint_path}" if wrote else "before the restart"
        print(f"\ncheckpoints: {result.checkpoints_written} written {where}")
    if result.fault_counts is not None:
        fc = result.fault_counts
        print(f"injected faults: {fc.dma_errors} DMA errors, "
              f"{fc.cpe_losses} CPE losses, {fc.messages_lost} messages lost")
        if result.degradation is not None and result.degradation.degraded:
            d = result.degradation
            print(f"degradation: {d.mode} over {d.n_survivors}/{d.n_cpes} "
                  f"CPEs (x{d.slowdown:.2f} CPE-parallel slowdown)")
    return 0


def _cmd_trace(args) -> int:
    from repro.core.engine import EngineConfig, SWGromacsEngine
    from repro.md.mdloop import MdConfig
    from repro.md.minimize import minimize
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system
    from repro.resilience import ResiliencePolicy
    from repro.trace import Tracer, summarize, write_chrome_trace

    nb = NonbondedParams(
        r_cut=args.rcut, r_list=args.rcut + 0.1, coulomb_mode="rf"
    )
    system = build_water_system(args.particles, seed=args.seed)
    minimize(system, MdConfig(nonbonded=nb), n_steps=30)
    system.thermalize(300.0, np.random.default_rng(args.seed + 1))
    config = EngineConfig(
        nonbonded=nb,
        optimization_level=args.level,
        resilience=ResiliencePolicy(faults=args.faults),
        backend=args.backend,
        workers=args.workers,
    )
    tracer = Tracer(config.chip)
    engine = SWGromacsEngine(system, config, tracer=tracer)
    engine.run(args.steps)
    doc = write_chrome_trace(tracer, args.out)
    print(
        f"wrote {len(doc['traceEvents'])} events "
        f"({len(tracer)} spans, {len(tracer.tracks())} tracks) to {args.out}"
    )
    print("load it in chrome://tracing or https://ui.perfetto.dev\n")
    print(summarize(tracer))
    return 0


def _cmd_ladder(args) -> int:
    from repro.analysis.figures import PAPER_FIG8, PAPER_FIG9, print_speedup_bars
    from repro.core.strategies import (
        BASELINE_STRATEGIES,
        STRATEGY_LADDER,
        run_ladder,
    )
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system

    strategies = STRATEGY_LADDER + (
        BASELINE_STRATEGIES if args.baselines else ()
    )
    nb = NonbondedParams(r_cut=1.0, r_list=1.0, coulomb_mode="rf")
    system = build_water_system(args.particles)
    lad = run_ladder(system, strategies, nb, backend=args.backend)
    print(
        print_speedup_bars(
            {s.label: lad.speedups[s.label] for s in STRATEGY_LADDER},
            PAPER_FIG8,
            f"Fig. 8 ladder — {args.particles} particles",
        )
    )
    if args.baselines:
        print()
        print(
            print_speedup_bars(
                {s.label: lad.speedups[s.label] for s in BASELINE_STRATEGIES},
                PAPER_FIG9,
                "Fig. 9 strategy comparison",
            )
        )
    return 0


def _cmd_overall(args) -> int:
    from repro.analysis.figures import PAPER_FIG10, print_speedup_bars
    from repro.core.engine import run_optimization_ladder
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system

    nb = NonbondedParams(r_cut=1.0, r_list=1.0, coulomb_mode="rf")
    ladder = run_optimization_ladder(
        lambda n: build_water_system(n),
        args.particles,
        n_cgs=args.cgs,
        nonbonded=nb,
        output_interval=100,
    )
    base = ladder["Ori"].total()
    speedups = {k: base / v.total() for k, v in ladder.items()}
    paper = PAPER_FIG10["case1" if args.cgs == 1 else "case2"]
    print(
        print_speedup_bars(
            speedups, paper, f"Fig. 10 — {args.cgs} CG(s)"
        )
    )
    return 0


def _cmd_scaling(args) -> int:
    from repro.analysis.figures import (
        PAPER_FIG12_STRONG,
        PAPER_FIG12_WEAK,
        print_efficiency_curves,
    )
    from repro.analysis.scaling import (
        ReferenceTimings,
        strong_scaling_curve,
        weak_scaling_curve,
    )
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system

    nb = NonbondedParams(r_cut=1.0, r_list=1.0, coulomb_mode="rf")
    ref = ReferenceTimings.measure(
        lambda n: build_water_system(n), 12000, nb
    )
    strong = strong_scaling_curve(ref, args.strong_total, nonbonded=nb)
    weak = weak_scaling_curve(ref, args.weak_per_cg, nonbonded=nb)
    print(
        print_efficiency_curves(
            strong.strong_efficiency(), PAPER_FIG12_STRONG, "strong scaling"
        )
    )
    print()
    print(
        print_efficiency_curves(
            weak.weak_efficiency(), PAPER_FIG12_WEAK, "weak scaling"
        )
    )
    return 0


def _cmd_ranks(args) -> int:
    from repro.core.engine import EngineConfig
    from repro.md.mdloop import MdConfig
    from repro.md.minimize import minimize
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system
    from repro.parallel.multirank import run_mpi_ranks
    from repro.resilience import ResiliencePolicy

    nb = NonbondedParams(
        r_cut=args.rcut, r_list=args.rcut + 0.1, coulomb_mode="rf"
    )
    system = build_water_system(args.particles, seed=args.seed)
    minimize(system, MdConfig(nonbonded=nb), n_steps=60)
    system.thermalize(300.0, np.random.default_rng(args.seed + 1))
    config = EngineConfig(
        nonbonded=nb,
        optimization_level=args.level,
        n_cgs=args.n_ranks,
        resilience=ResiliencePolicy(faults=args.faults),
        backend=args.backend,
        workers=args.workers,
    )
    result = run_mpi_ranks(
        system,
        args.steps,
        config=config,
        n_ranks=args.n_ranks,
        backend=args.backend,
    )
    print(f"{result.n_ranks} simulated ranks x {args.steps} steps "
          f"({args.particles} particles each)")
    print("rank   E_pot(kJ/mol)     T(K)   modelled(ms)  faults(d/c/m)")
    for r in result.ranks:
        faults = (
            "/".join(str(c) for c in r.fault_counts)
            if r.fault_counts is not None
            else "-"
        )
        print(f"{r.rank:4d} {r.potential:15.1f} {r.temperature:8.1f} "
              f"{r.modelled_seconds * 1e3:14.2f}  {faults}")
    pot, kin = result.reduced_energy
    print(f"\nallreduced energy: E_pot={pot:.1f} E_kin={kin:.1f} kJ/mol")
    print(f"modelled time: {result.modelled_seconds * 1e3:.2f} ms "
          f"(comm {result.comm_seconds * 1e6:.1f} us, "
          f"{result.comm_stats.n_retries} comm retries)")
    return 0


def _cmd_table2(args) -> int:
    from repro.analysis.figures import print_table2
    from repro.hw.dma import bandwidth_table

    print(print_table2(bandwidth_table()))
    return 0


def _cmd_ttf(args) -> int:
    from repro.core.platforms import fair_chip_count, ttf_ratio

    print(f"TTF_SW / TTF_KNL  (Eq. 3): {ttf_ratio('SW26010', 'KNL'):6.1f}  "
          "(paper ~150)")
    print(f"TTF_SW / TTF_P100 (Eq. 4): {ttf_ratio('SW26010', 'P100'):6.1f}  "
          "(paper ~24)")
    print(f"fair counts: {fair_chip_count('KNL')} SW26010 per KNL, "
          f"{fair_chip_count('P100')} per P100")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import SimulationService
    from repro.trace import Tracer, write_chrome_trace
    from repro.trace.events import NULL_TRACER

    if args.socket is None and args.port is None:
        print("serve: need --socket PATH or --port N", file=sys.stderr)
        return 2
    config = _serve_config(args)
    tracer = Tracer() if args.trace else NULL_TRACER

    async def _main() -> int:
        service = SimulationService(config, tracer=tracer)
        await service.start()
        if args.socket is not None:
            await service.serve_unix(args.socket)
            where = args.socket
        else:
            port = await service.serve_tcp(args.host, args.port)
            where = f"{args.host}:{port}"
        durable = ""
        if config.journal_dir is not None:
            durable = (
                f", journal={config.journal_dir} "
                f"({service.stats.journal_replays} replayed)"
            )
        print(
            f"repro serve: listening on {where} "
            f"(backend={service.backend.name}, depth<={config.max_depth}, "
            f"dedup={'on' if config.dedup else 'off'}{durable})",
            flush=True,
        )
        stats = await service.run_until_drained()
        if args.trace:
            doc = write_chrome_trace(tracer, args.trace)
            print(f"wrote {len(doc['traceEvents'])} events to {args.trace}")
        s = stats.as_dict()
        print(
            f"drained: {s['completed']} completed, {s['failed']} failed, "
            f"{s['rejected']} rejected, {s['executed_units']} executions "
            f"for {s['accepted']} accepted jobs "
            f"({s['dedup_hits']} dedup hits, {s['batches']} batches, "
            f"{s['journal_replays']} journal replays, "
            f"{s['store_hits']} store hits)"
        )
        return 0

    return asyncio.run(_main())


def _cmd_fleet(args) -> int:
    import asyncio

    from repro.fleet import FleetRouter, RouterConfig
    from repro.trace import Tracer, write_chrome_trace
    from repro.trace.events import NULL_TRACER

    if args.socket is None and args.port is None:
        print("fleet: need --socket PATH or --port N", file=sys.stderr)
        return 2
    if args.spawn_workers and args.socket is None:
        print(
            "fleet: --spawn-workers needs --socket (workers join over it)",
            file=sys.stderr,
        )
        return 2
    config = RouterConfig(
        heartbeat_timeout_s=args.heartbeat_timeout,
        check_interval_s=args.check_interval,
        route_wait_s=args.route_wait,
        vnodes=args.vnodes,
    )
    tracer = Tracer() if args.trace else NULL_TRACER

    workers = []
    if args.spawn_workers:
        import subprocess
        from pathlib import Path

        root = Path(args.socket).resolve().parent
        for i in range(args.spawn_workers):
            workers.append(
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "fleet-worker",
                        "--router", args.socket,
                        "--socket", str(root / f"fleet-w{i}.sock"),
                        "--name", f"w{i}",
                    ]
                )
            )

    async def _main() -> int:
        router = FleetRouter(config, tracer=tracer)
        await router.start()
        if args.socket is not None:
            await router.serve_unix(args.socket)
            where = args.socket
        else:
            port = await router.serve_tcp(args.host, args.port)
            where = f"{args.host}:{port}"
        print(
            f"repro fleet: router listening on {where} "
            f"(vnodes={config.vnodes}, heartbeat timeout "
            f"{config.heartbeat_timeout_s:.1f}s"
            + (f", {args.spawn_workers} spawned workers" if workers else "")
            + ")",
            flush=True,
        )
        stats = await router.run_until_drained()
        if args.trace:
            doc = write_chrome_trace(tracer, args.trace)
            print(f"wrote {len(doc['traceEvents'])} events to {args.trace}")
        print(
            f"drained: {stats['completed']} completed, "
            f"{stats['failed']} failed, {stats['rejected']} rejected, "
            f"{stats['reassignments']} reassignment(s) across "
            f"{stats['workers_registered']} worker registration(s)"
        )
        return 0

    try:
        return asyncio.run(_main())
    finally:
        for proc in workers:
            try:
                proc.wait(timeout=15.0)
            except Exception:
                proc.terminate()


def _cmd_fleet_worker(args) -> int:
    import asyncio

    from repro.fleet import FleetWorker, WorkerConfig
    from repro.fleet.wire import Address, parse_address

    if args.socket is None and args.port is None:
        print("fleet-worker: need --socket PATH or --port N", file=sys.stderr)
        return 2
    address = (
        Address(socket_path=args.socket)
        if args.socket is not None
        else Address(host=args.host, port=args.port)
    )
    config = WorkerConfig(
        name=args.name,
        router=parse_address(args.router),
        address=address,
        serve=_serve_config(args),
        heartbeat_interval_s=args.heartbeat_interval,
    )

    async def _main() -> int:
        worker = FleetWorker(config)
        await worker.start()
        print(
            f"repro fleet-worker {args.name!r}: serving on "
            f"{worker.advertised} "
            f"(backend={worker.service.backend.name}), registered with "
            f"router {args.router}",
            flush=True,
        )
        stats = await worker.run_until_drained()
        s = stats.as_dict()
        print(
            f"drained: {s['completed']} completed, {s['failed']} failed, "
            f"{s['rejected']} rejected ({s['dedup_hits']} dedup hits, "
            f"{s['batches']} batches)"
        )
        return 0

    return asyncio.run(_main())


def _job_request_from_args(args):
    """Build the submit/warmup `JobRequest`, treating ``--spec`` as
    dual-use: a known strategy name stays the legacy kernel field, any
    other text is a scenario spec (concretized at admission)."""
    from repro.core.kernels import ALL_SPECS
    from repro.serve import JobRequest

    common = dict(
        kind=args.kind,
        steps=args.steps,
        tenant=args.tenant,
        priority=getattr(args, "priority", 0),
        timeout_s=getattr(args, "timeout", None),
    )
    if args.spec in ALL_SPECS:
        return JobRequest(
            n_particles=args.particles,
            spec=args.spec,
            level=args.level,
            r_cut=args.rcut,
            seed=args.seed,
            **common,
        )
    return JobRequest(scenario=args.spec, **common)


def _cmd_submit(args) -> int:
    from repro.serve import (
        ServeClient,
        ServeConnectionError,
        ServeRequestError,
    )

    if args.router is not None:
        from repro.fleet.wire import parse_address

        where = parse_address(args.router)
        socket_path = where.socket_path
        host, port = where.host, where.port
    elif args.socket is not None or args.port is not None:
        socket_path = args.socket
        host = args.host if args.socket is None else None
        port = args.port if args.socket is None else None
    else:
        print(
            "submit: need --socket PATH, --port N, or --router ADDR",
            file=sys.stderr,
        )
        return 2
    client = ServeClient(
        socket_path=socket_path,
        host=host,
        port=port,
        connect_retries=args.connect_retries,
        connect_backoff=args.connect_backoff,
    )
    try:
        if args.op == "warmup":
            # Warmup describes a job (it routes on the system key) but
            # is a control op: nothing is queued or executed for a
            # client, the owning worker just pre-builds residency.
            info = client.warmup(_job_request_from_args(args))
            if not info.get("resident"):
                print(f"warmup skipped: {info.get('reason', 'unknown')}")
                return 0
            how = "built" if info.get("built") else "already warm"
            where = (
                f" on worker {info['worker']!r}" if "worker" in info else ""
            )
            print(
                f"warmup ok ({how}, lane {info.get('lane')}{where}, "
                f"occupancy {info.get('occupancy')}/{info.get('capacity')})"
            )
            return 0
        if args.op is not None:
            response = client.request({"op": args.op})
            if args.op == "stats":
                import json

                dump = dict(response["stats"])
                if "durable" in response:
                    dump["durable"] = response["durable"]
                if "resident" in response:
                    dump["resident"] = response["resident"]
                print(json.dumps(dump, indent=2, sort_keys=True))
            elif args.op == "metrics":
                import json

                print(
                    json.dumps(response["metrics"], indent=2, sort_keys=True)
                )
            elif args.op == "fleet":
                import json

                dump = {
                    key: response[key]
                    for key in ("router", "ring", "workers", "jobs")
                    if key in response
                }
                print(json.dumps(dump, indent=2, sort_keys=True))
            elif args.op == "drain":
                s = response["stats"]
                print(
                    f"drained: {s['completed']} completed, "
                    f"{s['failed']} failed, {s['rejected']} rejected"
                )
            else:
                print(f"{args.op}: ok")
            return 0
        if args.progress_id is not None:
            result = None
            for update in client.progress(args.progress_id):
                if update["done"]:
                    result = update["result"]
                    break
                p = update["progress"]
                steps = (
                    f", step {p['steps_done']}/{p['steps_total']}"
                    if p.get("steps_done") is not None
                    else ""
                )
                print(f"job {p['job_id']}: {p['state']}{steps}", flush=True)
            if result is None:
                print("submit: progress stream ended without a result",
                      file=sys.stderr)
                return 3
        elif args.wait_id is not None:
            result = client.wait(args.wait_id)
        else:
            request = _job_request_from_args(args)
            if args.no_wait:
                job_id = client.submit(request, wait=False)
                print(f"accepted: job {job_id}")
                return 0
            result = client.submit(request)
    except ServeConnectionError as exc:
        print(f"submit: {exc}", file=sys.stderr)
        return 3
    except ServeRequestError as exc:
        print(f"rejected [{exc.code}]: {exc.message}", file=sys.stderr)
        return 2
    if not result.ok:
        print(
            f"failed [{result.error.code}]: {result.error.message}",
            file=sys.stderr,
        )
        return 1
    if result.result_code is not None:
        how = result.result_code  # e.g. duplicate_completed (store hit)
    elif result.executed:
        how = "executed"
    else:
        how = "deduplicated"
    print(
        f"job {result.job_id} ok ({result.kind}, {how}, "
        f"queue {result.queue_seconds * 1e3:.1f} ms, "
        f"exec {result.execute_seconds * 1e3:.1f} ms)"
    )
    for key, val in sorted(result.payload.items()):
        if isinstance(val, dict):
            continue
        print(f"  {key:18s} {val}")
    return 0


def _print_campaign_report(report: dict) -> None:
    print(f"campaign: {report['n_cells']} cells, "
          f"{report['n_submitted']} submitted, "
          f"{report['elapsed_seconds'] * 1e3:.1f} ms")
    for label, count in sorted(report["counts"].items()):
        print(f"  {label:18s} {count}")
    for idx, cell in enumerate(report["cells"]):
        status = cell["status"]
        tail = ""
        if status == "ok" and cell["result"]:
            payload = cell["result"].get("payload") or {}
            if "energy" in payload:
                tail = f"  E={payload['energy']:.4f}"
            elif "potential" in payload:
                tail = f"  U={payload['potential']:.4f}"
        elif cell["reason"]:
            tail = f"  {cell['reason']}"
        print(f"  [{idx:3d}] {status:16s} {cell['spec']}{tail}")


def _cmd_campaign(args) -> int:
    import json

    from repro.scenarios import MatrixError, plan_campaign, run_campaign
    from repro.serve import ServeClient, ServeConnectionError

    if args.dry_run:
        try:
            plan = plan_campaign(args.matrix)
        except MatrixError as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        print(f"campaign plan: {len(plan.cells)} cells "
              f"({len(plan.runnable)} runnable)")
        for idx, cell in enumerate(plan.cells):
            concrete = cell.spec.to_string() if cell.spec else cell.text
            reason = f"  {cell.reason}" if cell.reason else ""
            print(f"  [{idx:3d}] {cell.status:16s} {concrete}{reason}")
        return 0

    if args.self_serve:
        report = _run_self_serve_campaign(args)
        if report is None:
            return 2
    else:
        if args.router is not None:
            from repro.fleet.wire import parse_address

            where = parse_address(args.router)
            socket_path, host, port = where.socket_path, where.host, where.port
        elif args.socket is not None or args.port is not None:
            socket_path = args.socket
            host = args.host if args.socket is None else None
            port = args.port if args.socket is None else None
        else:
            print("campaign: need --socket PATH, --port N, --router ADDR, "
                  "or --self-serve", file=sys.stderr)
            return 2
        client = ServeClient(
            socket_path=socket_path, host=host, port=port,
            connect_retries=args.connect_retries,
            connect_backoff=args.connect_backoff,
        )
        try:
            report = run_campaign(
                client, args.matrix, kind=args.kind, steps=args.steps,
                tenant=args.tenant, timeout_s=args.timeout,
            )
        except MatrixError as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 2
        except ServeConnectionError as exc:
            print(f"campaign: {exc}", file=sys.stderr)
            return 3

    _print_campaign_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote report to {args.out}")
    failed = report["counts"].get("failed", 0)
    failed += report["counts"].get("rejected", 0)
    return 1 if failed else 0


def _run_self_serve_campaign(args) -> dict | None:
    """Run the matrix against an in-process serve tier: start the
    service in a worker thread on a temp socket, campaign against it,
    drain.  One command = one self-contained scenario sweep (the CI
    scenario-smoke job runs exactly this)."""
    import asyncio
    import tempfile
    import threading
    import time
    from pathlib import Path

    from repro.scenarios import MatrixError, run_campaign
    from repro.serve import ServeClient, ServeConfig, SimulationService

    with tempfile.TemporaryDirectory(prefix="repro-campaign-") as tmp:
        sock = str(Path(tmp) / "campaign.sock")

        async def _serve() -> None:
            service = SimulationService(
                ServeConfig(backend=args.backend, workers=args.workers)
            )
            await service.start()
            await service.serve_unix(sock)
            await service.run_until_drained()

        thread = threading.Thread(target=lambda: asyncio.run(_serve()))
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not Path(sock).exists():
                if time.monotonic() > deadline:
                    print("campaign: self-serve never came up",
                          file=sys.stderr)
                    return None
                time.sleep(0.02)
            client = ServeClient(socket_path=sock, connect_retries=20)
            try:
                return run_campaign(
                    client, args.matrix, kind=args.kind, steps=args.steps,
                    tenant=args.tenant, timeout_s=args.timeout,
                )
            except MatrixError as exc:
                print(f"campaign: {exc}", file=sys.stderr)
                return None
            finally:
                ServeClient(socket_path=sock).request({"op": "drain"})
        finally:
            thread.join(timeout=30)


def _cmd_scenarios(args) -> int:
    import json

    from repro.scenarios import FAMILIES, VARIANTS, audit

    if args.audit:
        report = audit()
        print(json.dumps(
            {k: v for k, v in report.items() if k != "rejections"},
            indent=2, sort_keys=True,
        ))
        for reason in report["rejections"][:8]:
            print(f"  rejected: {reason}")
        if report["drift"]:
            for entry in report["drift"]:
                print(f"DRIFT: {entry}", file=sys.stderr)
            return 1
        print(f"audit ok: {report['concretized']} concretized, "
              f"{report['rejected']} rejected by declared rules, 0 drift")
        return 0

    if args.smoke:
        return _scenarios_smoke(args)

    print("scenario families:")
    for family in FAMILIES.values():
        versions = ", ".join(family.versions)
        print(f"  {family.name:8s} @{family.default_version:6s} "
              f"[{versions}] — {family.description}")
    print("\nvariants:")
    for variant in VARIANTS.values():
        domain = (
            "|".join(str(v) for v in variant.values)
            if variant.values else variant.kind.__name__
        )
        scope = (
            f" (families: {', '.join(variant.families)})"
            if variant.families else ""
        )
        print(f"  {variant.name:12s} {domain:28s} {variant.doc}{scope}")
    return 0


def _scenarios_smoke(args) -> int:
    """Tiny MD per family×version through the serial executor — the
    CI gate that every registered builder actually integrates."""
    from repro.scenarios import FAMILIES, concretize_text
    from repro.serve.jobs import JobRequest, execute_md_request

    failures = 0
    for family in FAMILIES.values():
        for version in family.versions:
            text = f"{family.name}@{version} n=300 rcut=0.45 rung=fused"
            spec = concretize_text(text)
            request = JobRequest(
                kind="md", scenario=text, steps=args.smoke_steps
            )
            request.validate()
            summary = execute_md_request(request)
            temp = summary.get("temperature")
            ok = temp is not None and 0.0 < temp < 2000.0
            status = "ok" if ok else "FAIL"
            failures += 0 if ok else 1
            print(f"  {status:4s} {spec.to_string()}  "
                  f"T={temp:.1f}K U={summary.get('potential', 0.0):.2f}")
    if failures:
        print(f"smoke: {failures} families failed", file=sys.stderr)
        return 1
    print("smoke ok: every family/version integrated")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "trace": _cmd_trace,
    "ladder": _cmd_ladder,
    "overall": _cmd_overall,
    "scaling": _cmd_scaling,
    "ranks": _cmd_ranks,
    "table2": _cmd_table2,
    "ttf": _cmd_ttf,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "campaign": _cmd_campaign,
    "scenarios": _cmd_scenarios,
    "fleet": _cmd_fleet,
    "fleet-worker": _cmd_fleet_worker,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # Flags beat the environment; exporting them here threads the choice
    # through every library call-site that resolves `shared_backend()`
    # from the environment (sweeps, engines, pair-list builds).
    if args.backend is not None:
        os.environ[BACKEND_ENV] = args.backend
    if args.workers is not None:
        os.environ[WORKERS_ENV] = str(args.workers)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
