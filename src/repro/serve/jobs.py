"""Job model for the simulation service (DESIGN.md §10).

A :class:`JobRequest` is a *parametric* description of work — never raw
arrays — so it travels as one JSON object over the wire and pickles
cheaply to pool workers.  Two request kinds map onto the repo's two
execution entry points:

* ``kernel`` — one strategy-kernel evaluation (`repro.core.kernels.
  run_kernel`) on a deterministically built water box;
* ``md``     — a full engine run (`repro.core.engine.SWGromacsEngine`)
  with minimisation + thermalisation, mirroring ``repro run``.

Every execution path here is a pure function of the request: the same
request always produces bit-identical results, which is what makes
request-level deduplication (``batcher.py``) *safe* rather than merely
plausible.  Two fingerprints capture that:

* :meth:`JobRequest.fingerprint` — BLAKE2b over the canonical execution
  parameters (tenant/priority/timeout excluded: they affect *when*, not
  *what*).  Identical fingerprints ⇒ identical results ⇒ one execution
  fans out to every waiter.
* :meth:`JobRequest.system_key` — the subset that pins the particle
  system and pair list.  Requests sharing a system key but differing in
  strategy spec are *compatible*: :func:`execute_batch` runs them on one
  worker with one shared :class:`~repro.core.stepcache.StepCache`, so
  the functional force evaluation is shared through the cache's position
  fingerprints exactly as a Fig. 8/9 sweep shares it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.core.stepcache import StepCache, position_fingerprint

#: Request kinds.
KIND_KERNEL = "kernel"
KIND_MD = "md"
JOB_KINDS = (KIND_KERNEL, KIND_MD)

#: Strategy-spec names accepted for ``kernel`` requests (validated
#: lazily against `repro.core.kernels.ALL_SPECS` on first use).
_SPEC_NAMES: tuple[str, ...] | None = None


def _spec_names() -> tuple[str, ...]:
    global _SPEC_NAMES
    if _SPEC_NAMES is None:
        from repro.core.kernels import ALL_SPECS

        _SPEC_NAMES = tuple(sorted(ALL_SPECS))
    return _SPEC_NAMES


class InvalidRequestError(ValueError):
    """A request that can never execute (bad kind/spec/sizes)."""


@dataclass(frozen=True)
class JobRequest:
    """One unit of client-visible work.

    Execution-relevant fields feed the fingerprint; scheduling fields
    (``tenant``, ``priority``, ``timeout_s``) do not — a high-priority
    request deduplicates against a low-priority identical one.
    """

    kind: str = KIND_KERNEL
    n_particles: int = 900
    spec: str = "MARK"  # kernel strategy (kernel kind only)
    steps: int = 5  # md step count (md kind only)
    level: int = 3  # md optimisation level (md kind only)
    r_cut: float = 0.9
    seed: int = 2019
    tenant: str = "default"
    priority: int = 0  # larger = served sooner within a tenant
    timeout_s: float | None = None  # wall deadline from admission
    #: Return the per-particle force block in the payload (kernel kind
    #: only).  Execution-relevant — it changes the payload shape — so it
    #: joins the fingerprint, but only when True: default requests keep
    #: their historical fingerprints (and durable result-store keys).
    return_forces: bool = False
    #: Scenario spec text (DESIGN.md §15), e.g. ``"water@spce n=1500
    #: ensemble=nvt elec=rf"``.  When set, the *concretized* spec
    #: replaces ``n_particles``/``spec``/``level``/``r_cut``/``seed`` as
    #: the system/strategy description: the fingerprint and system key
    #: derive from the concrete canonical form, so two textually
    #: different spellings that concretize identically deduplicate.
    scenario: str | None = None

    def validate(self) -> None:
        """Raise :class:`InvalidRequestError` on a request that can
        never execute (checked at admission, not deep in a worker)."""
        if self.kind not in JOB_KINDS:
            raise InvalidRequestError(
                f"unknown job kind {self.kind!r}; expected one of {JOB_KINDS}"
            )
        if self.scenario is not None:
            # Concretization IS the validation: dependency/conflict
            # violations surface here, at admission, with the violated
            # rule named — never as a runtime build failure.
            from repro.scenarios.spec import SpecError

            try:
                self.resolved_scenario()
            except SpecError as exc:
                raise InvalidRequestError(
                    f"invalid scenario spec: {exc}"
                ) from exc
        if (
            self.scenario is None
            and self.kind == KIND_KERNEL
            and self.spec not in _spec_names()
        ):
            raise InvalidRequestError(
                f"unknown kernel spec {self.spec!r}; known: {_spec_names()}"
            )
        if self.scenario is None and self.n_particles < 3:
            raise InvalidRequestError(
                f"n_particles must be >= 3: {self.n_particles}"
            )
        if self.kind == KIND_MD and self.steps < 1:
            raise InvalidRequestError(f"steps must be >= 1: {self.steps}")
        if self.kind == KIND_MD and not 0 <= self.level <= 3:
            raise InvalidRequestError(f"level must be 0..3: {self.level}")
        if self.r_cut <= 0:
            raise InvalidRequestError(f"r_cut must be > 0: {self.r_cut}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise InvalidRequestError(
                f"timeout_s must be > 0 when set: {self.timeout_s}"
            )
        if self.return_forces and self.kind != KIND_KERNEL:
            raise InvalidRequestError(
                "return_forces is only meaningful for kernel requests"
            )

    # -- identity ----------------------------------------------------------
    def resolved_scenario(self):
        """The concretized :class:`~repro.scenarios.spec.ScenarioSpec`
        for :attr:`scenario`, or None.  Cached on the spec text, so
        fingerprint/system-key access stays cheap."""
        if self.scenario is None:
            return None
        from repro.scenarios.spec import concretize_text

        return concretize_text(self.scenario)

    @property
    def kernel_spec_name(self) -> str:
        """Strategy-kernel name to execute: the scenario rung's rung->
        strategy mapping when a spec is set, else :attr:`spec`."""
        if self.scenario is not None:
            from repro.scenarios.registry import kernel_spec_name_for

            return kernel_spec_name_for(self.resolved_scenario())
        return self.spec

    def canonical(self) -> dict:
        """Execution-relevant fields only, in a fixed order.

        Spec-bearing requests canonicalize through the *concrete* spec
        string: ``"water elec=rf"`` and ``"water@spc"`` share one
        fingerprint because they concretize identically (the satellite
        dedup fix — the batcher and durable store key on this).
        """
        if self.scenario is not None:
            out = {
                "kind": self.kind,
                "scenario": self.resolved_scenario().to_string(),
            }
            if self.kind == KIND_MD:
                out["steps"] = int(self.steps)
            if self.return_forces:
                out["return_forces"] = True
            return out
        out = {
            "kind": self.kind,
            "n_particles": int(self.n_particles),
            "r_cut": float(self.r_cut),
            "seed": int(self.seed),
        }
        if self.kind == KIND_KERNEL:
            out["spec"] = self.spec
        else:
            out["steps"] = int(self.steps)
            out["level"] = int(self.level)
        if self.return_forces:
            out["return_forces"] = True
        return out

    @property
    def fingerprint(self) -> str:
        """Dedup key: BLAKE2b over the canonical parameter JSON."""
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    @property
    def system_key(self) -> tuple:
        """Batching-compatibility key: requests sharing it run against
        the same particle system, pair list, *and* nonbonded parameters,
        so one worker can serve them all off one shared `StepCache`.

        Spec-bearing requests key on the concrete spec's system-defining
        subset (family/version/n/seed/rcut/temp/elec/...), which is also
        what the fleet ring routes on — residency affinity and sharded
        dedup locality hold for scenarios exactly as for legacy keys.
        """
        if self.scenario is not None:
            return (
                self.kind,
                "scenario",
                self.resolved_scenario().system_canonical(),
            )
        return (
            self.kind,
            int(self.n_particles),
            float(self.r_cut),
            int(self.seed),
        )

    # -- wire format -------------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InvalidRequestError(
                f"unknown request field(s): {sorted(unknown)}"
            )
        return cls(**data)


@dataclass(frozen=True)
class JobError:
    """Structured failure/rejection reason (wire-stable)."""

    code: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_dict(cls, data: dict) -> "JobError":
        return cls(code=data["code"], message=data["message"])


@dataclass
class JobResult:
    """Terminal outcome of one accepted job.

    ``payload`` carries the kind-specific numbers (see the executors
    below); ``executed`` is False when the result was fanned out from a
    deduplicated sibling execution; ``attempts`` counts executions
    including retries (0 for pure fan-out recipients).  ``result_code``
    distinguishes non-execution completions — ``duplicate_completed``
    when the durable result store answered a fingerprint it had already
    seen (possibly in a previous service incarnation) — from fresh or
    fanned-out executions (None).
    """

    job_id: int
    fingerprint: str
    kind: str
    ok: bool
    payload: dict | None = None
    error: JobError | None = None
    executed: bool = True
    attempts: int = 1
    queue_seconds: float = 0.0
    execute_seconds: float = 0.0
    result_code: str | None = None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "ok": self.ok,
            "payload": json_safe_payload(self.payload),
            "error": self.error.to_dict() if self.error else None,
            "executed": self.executed,
            "attempts": self.attempts,
            "queue_seconds": self.queue_seconds,
            "execute_seconds": self.execute_seconds,
            "result_code": self.result_code,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        err = data.get("error")
        return cls(
            job_id=data["job_id"],
            fingerprint=data["fingerprint"],
            kind=data["kind"],
            ok=data["ok"],
            payload=data.get("payload"),
            error=JobError.from_dict(err) if err else None,
            executed=data.get("executed", True),
            attempts=data.get("attempts", 1),
            queue_seconds=data.get("queue_seconds", 0.0),
            execute_seconds=data.get("execute_seconds", 0.0),
            result_code=data.get("result_code"),
        )


# ---------------------------------------------------------------------------
# Execution (pure functions of the request; pool-worker safe)
# ---------------------------------------------------------------------------


def _build_request_system(request: JobRequest):
    """Deterministic system + nonbonded params for a request.

    Spec-bearing requests build through the scenario registry; legacy
    requests keep the historical water path bit-for-bit (a water spec
    with matching n/seed/rcut produces the identical system — the
    registry calls the same builder with the same arguments).
    """
    if request.scenario is not None:
        from repro.scenarios.registry import build_scenario

        return build_scenario(request.resolved_scenario())
    from repro.md.nonbonded import NonbondedParams
    from repro.md.water import build_water_system

    nb = NonbondedParams(
        r_cut=request.r_cut, r_list=request.r_cut + 0.1, coulomb_mode="rf"
    )
    system = build_water_system(request.n_particles, seed=request.seed)
    return system, nb


def _kernel_payload(result, forces: np.ndarray) -> dict:
    return {
        "energy": float(result.energy),
        "forces_fp": position_fingerprint(forces).hex(),
        "modelled_seconds": float(result.elapsed_seconds),
        "breakdown": {k: float(v) for k, v in result.breakdown.items()},
    }


def json_safe_payload(payload: dict | None) -> dict | None:
    """Payload with array values reduced to JSON types.

    In-process consumers see force blocks as ndarrays (zero extra
    copies); the wire (`JobResult.to_dict`) and the durable result store
    serialise to JSON, where arrays become nested lists.
    """
    if payload is None:
        return None
    return {
        key: val.tolist() if isinstance(val, np.ndarray) else val
        for key, val in payload.items()
    }


def execute_kernel_request(
    request: JobRequest, cache: StepCache | None = None
) -> dict:
    """Run one strategy kernel for ``request`` (the direct path the
    served result is pinned against in ``tests/serve/``)."""
    from repro.core.kernels import ALL_SPECS, run_kernel
    from repro.md.pairlist import build_pair_list

    system, nb = _build_request_system(request)
    plist = build_pair_list(system, nb.r_list)
    result = run_kernel(
        system, plist, nb, ALL_SPECS[request.kernel_spec_name], cache=cache
    )
    payload = _kernel_payload(result, result.forces)
    if request.return_forces:
        payload["forces"] = np.ascontiguousarray(result.forces)
    return payload


def execute_md_request(request: JobRequest, progress=None) -> dict:
    """Run the full engine for ``request`` (mirrors ``repro run``).

    ``progress`` is an optional :class:`~repro.durable.progress.
    ProgressWriter`-shaped object; the engine's step loop publishes
    partial step counts through it (functional no-op on results).
    """
    import numpy as _np

    from repro.core.engine import EngineConfig, SWGromacsEngine
    from repro.md.mdloop import MdConfig
    from repro.md.minimize import minimize

    system, nb = _build_request_system(request)
    minimize(system, MdConfig(nonbonded=nb), n_steps=60)
    if request.scenario is not None:
        from repro.scenarios.registry import engine_config_for

        spec = request.resolved_scenario()
        system.thermalize(spec.temp, _np.random.default_rng(spec.seed + 1))
        config = engine_config_for(
            spec,
            report_interval=max(request.steps // 5, 1),
            backend="serial",  # pool workers force nested-serial anyway
        )
    else:
        system.thermalize(300.0, _np.random.default_rng(request.seed + 1))
        config = EngineConfig(
            nonbonded=nb,
            optimization_level=request.level,
            report_interval=max(request.steps // 5, 1),
            backend="serial",  # pool workers force nested-serial anyway
        )
    engine = SWGromacsEngine(system, config)
    result = engine.run(request.steps, progress=progress)
    return result.summary()


def execute_request(request: JobRequest) -> dict:
    """Execute one request in the calling process (serial reference)."""
    request.validate()
    if request.kind == KIND_KERNEL:
        return execute_kernel_request(request)
    return execute_md_request(request)


@dataclass(frozen=True)
class BatchOutcome:
    """What one worker hands back for one execution batch."""

    payloads: list[dict]  # aligned with the batch's distinct requests
    cache_stats: dict = field(default_factory=dict)
    #: Resident-cache snapshot of the executing worker (occupancy,
    #: capacity); empty on the cold path (DESIGN.md §14).
    resident: dict = field(default_factory=dict)


@dataclass
class ResidentEntry:
    """One built system: everything a kernel batch needs.

    The resident path (`repro.serve.residency`) keeps entries in an LRU
    across batches; the cold path builds one per system key and drops it
    after the batch.
    """

    system: object
    nb: object
    plist: object
    cache: StepCache
    positions_fp: bytes


def build_entry(request: JobRequest) -> ResidentEntry:
    """Build ``request``'s system, pair list and a fresh `StepCache`."""
    from repro.md.pairlist import build_pair_list

    system, nb = _build_request_system(request)
    return ResidentEntry(
        system=system,
        nb=nb,
        plist=build_pair_list(system, nb.r_list),
        cache=StepCache(),
        positions_fp=position_fingerprint(system.positions),
    )


def execute_batch(
    requests: tuple[JobRequest, ...],
    progress_paths: dict[str, str] | None = None,
    entry_for=build_entry,
) -> BatchOutcome:
    """Execute a batch of *distinct* requests on one worker.

    Kernel requests sharing a :attr:`JobRequest.system_key` share one
    :class:`ResidentEntry` — one system build, one pair list, and one
    :class:`StepCache` — so the functional short-range evaluation runs
    once per (work list, positions): identical sharing, and therefore
    identical results, to `run_strategy_sweep` (bit-identity is
    test-enforced there and re-asserted against the direct path in
    ``tests/serve/``).  MD and non-matching requests execute
    independently.

    ``entry_for(request)`` supplies each group's entry: `build_entry` on
    the cold path (the entry is dropped after the batch), the resident
    LRU's ``get_or_build`` on the resident one
    (`repro.serve.residency.execute_batch_with`).  A group's lane panels
    are released once the group is done, and the counters report only
    this batch's StepCache evaluations and hits.

    ``progress_paths`` (fingerprint → file path) threads per-unit
    progress files into MD executions for the ``progress`` wire op.
    A requested force block rides in its payload as an ndarray, pickled
    back with the rest of the outcome when a pool worker ran the batch.
    """
    from repro.core.kernels import ALL_SPECS, run_kernel

    payloads: list[dict | None] = [None] * len(requests)
    cache_stats = {"sr_evals": 0, "sr_hits": 0}

    # Group kernel requests by system key, preserving batch order.
    groups: dict[tuple, list[int]] = {}
    for idx, req in enumerate(requests):
        if req.kind == KIND_KERNEL:
            groups.setdefault(req.system_key, []).append(idx)
        else:
            payloads[idx] = execute_md_request(
                req, progress=_progress_writer(req, progress_paths)
            )

    for indices in groups.values():
        entry = entry_for(requests[indices[0]])
        sr_evals0 = entry.cache.stats.sr_evals
        sr_hits0 = entry.cache.stats.sr_hits
        for idx in indices:
            req = requests[idx]
            result = run_kernel(
                entry.system,
                entry.plist,
                entry.nb,
                ALL_SPECS[req.kernel_spec_name],
                cache=entry.cache,
            )
            payloads[idx] = _kernel_payload(result, result.forces)
            if req.return_forces:
                payloads[idx]["forces"] = np.ascontiguousarray(result.forces)
        entry.cache.release_panels()
        cache_stats["sr_evals"] += entry.cache.stats.sr_evals - sr_evals0
        cache_stats["sr_hits"] += entry.cache.stats.sr_hits - sr_hits0

    return BatchOutcome(payloads=list(payloads), cache_stats=cache_stats)


def _progress_writer(request: JobRequest, progress_paths: dict | None):
    """A ProgressWriter for this unit's file, or None."""
    if not progress_paths:
        return None
    path = progress_paths.get(request.fingerprint)
    if path is None:
        return None
    from repro.durable.progress import ProgressWriter, progress_interval

    return ProgressWriter(path, interval=progress_interval(request.steps))


def execute_batch_task(task: tuple) -> BatchOutcome:
    """Pool-mappable wrapper: ``(requests, progress_paths)`` in one
    picklable item (``backend.map`` passes exactly one argument)."""
    requests, progress_paths = task
    return execute_batch(requests, progress_paths=progress_paths)
