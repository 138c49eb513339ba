"""perfbench: the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload run-water --seed 1 --seconds 10 --trace 0

Runs one workload in a fresh single-threaded process, checks its
outputs, and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` a second, traced
process repeats the same work and the metrics are per-layer self times,
calls and counts, plus the tracing overhead on each end-to-end metric.

Beside every result the run appends a record to perfbench/out/runs.jsonl
with the host stamp and a host-speed probe taken before and after each
process (a diagnostic only: it never scales a metric).  Exit status is 0
when every check passed, 1 when a check failed or the workload crashed,
and 2 when the repository sources are missing.
"""

from __future__ import annotations

import os

# Runs measure the code defaults on one core: clear the variables that
# pick another kernel or backend, and pin BLAS/OpenMP to one thread
# before numpy loads (children inherit this environment).  One malloc
# arena: otherwise glibc hands the service's executor threads arenas of
# their own as they contend, and peak RSS depends on which thread ran
# which batch (224-290 MB on serve-cold; 217.2-217.8 MB with one arena).
for _name in ("REPRO_KERNEL", "REPRO_BACKEND", "REPRO_WORKERS",
              "REPRO_FULL_SCALE"):
    os.environ.pop(_name, None)
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "MALLOC_ARENA_MAX"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import compileall  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

#: One workload process; a whole run must end within 180 s, and with
#: --trace 1 it holds two of them.
CHILD_TIMEOUT_S = 85.0


def host_stamp() -> dict:
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    except (OSError, IndexError):
        thp = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "thp": thp,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def host_probe() -> float:
    """Seconds for a fixed numpy kernel (median of three).

    A random gather over 24 MB: the MD and cold-serve work is gather-
    bound, and on a shared host its speed follows contention for the
    last-level cache and memory, which a compute-bound kernel misses.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random((1_000_000, 3))
    idx = rng.integers(0, len(x), 200_000)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        d = x[idx] - x[idx[::-1]]
        float(np.einsum("ij,ij->", d, d))
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def source_digest() -> str:
    """BLAKE2b over the program and benchmark sources: determinism is
    only compared between runs of identical code."""
    digest = hashlib.blake2b(digest_size=16)
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(workload, seed, seconds, trace: bool, run_dir: Path) -> dict:
    """One workload process; every process it starts shares its process
    group, which is killed if the run overstays its timeout."""
    # Each process gets its own directory: serve-cold's journal and
    # result store must start empty in the traced run too.
    workdir = run_dir / f"trace{int(trace)}"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True)
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
        "--out", str(out),
    ]
    # Temporary files (the service's progress directory) stay inside
    # the checkout.
    env = dict(os.environ, TMPDIR=str(tmp))
    before = host_probe()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        else:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray descendants
            except ProcessLookupError:
                pass
    after = host_probe()
    if code != 0:
        raise RuntimeError(f"{workload} process exited with {code}")
    result = json.loads(out.read_text())
    result["probe_s"] = {"before": before, "after": after}
    return result


def check_determinism(key: str, exact: dict) -> bool:
    """Same code, workload, seed and length must give the same exact
    values (final positions or served payloads, counts, modelled time)
    as every earlier run recorded here."""
    path = OUT / "exact.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return known[key] == exact
    known[key] = exact
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return True


def write_trace(workload: str, result: dict) -> Path:
    from spans import chrome_trace

    path = OUT / f"trace-{workload}.json"
    processes = [(1, "benchmark", result.pop("client_spans"))]
    if "server_spans" in result:
        processes.append((2, "repro serve", result.pop("server_spans")))
    path.write_text(json.dumps(chrome_trace(processes)))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="perfbench: run one workload")
    ap.add_argument("--workload", required=True, choices=layers.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repository sources at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be >= 1", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)
    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    stamp = host_stamp()
    try:
        runs = [run_child(args.workload, args.seed, args.seconds, False,
                          run_dir)]
        if args.trace:
            runs.append(run_child(args.workload, args.seed, args.seconds,
                                  True, run_dir))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced = runs[0]
    key = f"{source_digest()}|{args.workload}|{args.seed}|{args.seconds}"
    checks = {f"untraced.{k}": v for k, v in untraced["checks"].items()}
    checks["deterministic_across_runs"] = check_determinism(
        key, untraced["exact"]
    )
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.trace:
        traced = runs[1]
        checks.update({f"traced.{k}": v for k, v in traced["checks"].items()})
        checks["traced_equals_untraced"] = traced["exact"] == untraced["exact"]
        values = dict(traced["layers"])
        for name, _ in layers.E2E:
            values[f"trace.overhead.{name}"] = (
                traced["metrics"][name] - untraced["metrics"][name]
            )
        units = layers.per_layer_names()
        trace_path = write_trace(args.workload, traced)
    else:
        values = untraced["metrics"]
        units = layers.E2E
    for name in ("deterministic_across_runs", "traced_equals_untraced"):
        if not checks.get(name, True):
            failed += untraced["attempted"]
    correct = all(checks.values()) and failed == 0

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": dict(stamp, **untraced["stamp"]),
        "probe_s": [r["probe_s"] for r in runs],
        "checks": checks, "detail": [r.get("detail") for r in runs],
        "exact": untraced["exact"],
        "metrics": values,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")

    host = record["host"]
    print(f"host: {host['nproc']} cpu {host['cpu_model']!r}, THP "
          f"{host['thp']}, python {host['python']}, numpy {host['numpy']}, "
          f"kernel {host['kernel_impl']}, backend {host['backend']}")
    for probe in record["probe_s"]:
        print(f"host probe: {probe['before']:.4f} s before, "
              f"{probe['after']:.4f} s after")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        print(f"trace: {trace_path.relative_to(ROOT)}")
    metrics = {}
    for name, unit in units:
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print(f"{name}: {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
