"""Job model: fingerprints, validation, wire round trips, and the
executor paths the service's bit-identity guarantee is pinned against.

The load-bearing invariants:

* the fingerprint covers exactly the execution-relevant fields —
  scheduling metadata (tenant/priority/timeout) must NOT shift it, or
  dedup would stop coalescing identical work across tenants;
* `execute_batch` is bit-identical to per-request `execute_request`
  while sharing one StepCache across compatible units.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stepcache import StepCache
from repro.serve.jobs import (
    BatchOutcome,
    InvalidRequestError,
    JobError,
    JobRequest,
    JobResult,
    execute_batch,
    execute_request,
)

#: Small-but-valid water system: 300 particles supports r_list 0.55.
FAST = dict(n_particles=300, r_cut=0.45)


class TestFingerprint:
    def test_identical_requests_share_fingerprint(self):
        assert JobRequest(**FAST).fingerprint == JobRequest(**FAST).fingerprint

    def test_scheduling_fields_do_not_affect_fingerprint(self):
        base = JobRequest(**FAST)
        for variant in (
            JobRequest(**FAST, tenant="other"),
            JobRequest(**FAST, priority=7),
            JobRequest(**FAST, timeout_s=1.5),
        ):
            assert variant.fingerprint == base.fingerprint

    @pytest.mark.parametrize(
        "change",
        [
            {"spec": "VEC"},
            {"seed": 7},
            {"n_particles": 303},
            {"r_cut": 0.5},
            {"kind": "md"},
        ],
    )
    def test_execution_fields_change_fingerprint(self, change):
        assert (
            JobRequest(**{**FAST, **change}).fingerprint
            != JobRequest(**FAST).fingerprint
        )

    def test_md_only_fields_ignored_for_kernel(self):
        # steps/level only matter for md requests.
        assert (
            JobRequest(**FAST, steps=50).fingerprint
            == JobRequest(**FAST).fingerprint
        )
        assert (
            JobRequest(**FAST, kind="md", steps=50).fingerprint
            != JobRequest(**FAST, kind="md").fingerprint
        )

    def test_system_key_ignores_spec(self):
        a = JobRequest(**FAST, spec="MARK")
        b = JobRequest(**FAST, spec="VEC")
        assert a.system_key == b.system_key
        assert a.fingerprint != b.fingerprint


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"kind": "quantum"},
            {"spec": "NOPE"},
            {"n_particles": 2},
            {"kind": "md", "steps": 0},
            {"kind": "md", "level": 9},
            {"r_cut": 0.0},
            {"timeout_s": -1.0},
        ],
    )
    def test_invalid_requests_raise(self, bad):
        with pytest.raises(InvalidRequestError):
            JobRequest(**{**FAST, **bad}).validate()

    def test_valid_request_passes(self):
        JobRequest(**FAST).validate()
        JobRequest(**FAST, kind="md", steps=3).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(InvalidRequestError, match="unknown request field"):
            JobRequest.from_dict({"n_particles": 300, "gpu": True})


class TestWireRoundTrip:
    def test_request_round_trip(self):
        req = JobRequest(**FAST, tenant="t1", priority=2, timeout_s=3.0)
        assert JobRequest.from_dict(req.to_dict()) == req

    def test_result_round_trip(self):
        res = JobResult(
            job_id=3,
            fingerprint="ab" * 16,
            kind="kernel",
            ok=False,
            error=JobError("timeout", "too slow"),
            executed=False,
            attempts=2,
            queue_seconds=0.5,
            execute_seconds=1.5,
        )
        back = JobResult.from_dict(res.to_dict())
        assert back == res

    def test_result_dict_is_json_safe(self):
        import json

        res = JobResult(job_id=1, fingerprint="00", kind="md", ok=True,
                        payload={"energy": -1.0})
        assert json.loads(json.dumps(res.to_dict())) == res.to_dict()


class TestExecutors:
    def test_kernel_payload_shape(self):
        payload = execute_request(JobRequest(**FAST))
        assert set(payload) == {
            "energy", "forces_fp", "modelled_seconds", "breakdown"
        }
        assert isinstance(payload["energy"], float)

    def test_kernel_execution_is_deterministic(self):
        req = JobRequest(**FAST)
        assert execute_request(req) == execute_request(req)

    def test_md_execution_is_deterministic(self):
        req = JobRequest(**FAST, kind="md", steps=2)
        a = execute_request(req)
        assert a == execute_request(req)
        assert a["n_steps"] == 2
        assert "positions_fp" in a

    def test_batch_matches_direct_execution(self):
        reqs = tuple(
            JobRequest(**FAST, spec=s) for s in ("MARK", "CACHE", "VEC")
        )
        outcome = execute_batch(reqs)
        assert isinstance(outcome, BatchOutcome)
        for req, payload in zip(reqs, outcome.payloads):
            assert payload == execute_request(req)

    def test_batch_shares_one_stepcache(self):
        # Three specs off one system key: one short-range evaluation,
        # two cache hits (the §8 sweep-style reuse, across requests).
        reqs = tuple(
            JobRequest(**FAST, spec=s) for s in ("MARK", "CACHE", "VEC")
        )
        outcome = execute_batch(reqs)
        assert outcome.cache_stats["sr_evals"] == 1
        assert outcome.cache_stats["sr_hits"] == 2

    def test_batch_mixed_system_keys_stay_isolated(self):
        reqs = (
            JobRequest(**FAST, spec="MARK"),
            JobRequest(n_particles=300, r_cut=0.45, seed=7, spec="MARK"),
        )
        outcome = execute_batch(reqs)
        for req, payload in zip(reqs, outcome.payloads):
            assert payload == execute_request(req)
        assert outcome.payloads[0] != outcome.payloads[1]

    def test_batch_handles_md_alongside_kernels(self):
        reqs = (
            JobRequest(**FAST, spec="MARK"),
            JobRequest(**FAST, kind="md", steps=2),
        )
        outcome = execute_batch(reqs)
        assert outcome.payloads[0] == execute_request(reqs[0])
        assert outcome.payloads[1] == execute_request(reqs[1])


class TestShortRangePanels:
    """Serve evaluates each list once, so it never fills kept-lane
    buffers; and a list above one reference chunk serves the same bits
    under either kernel."""

    def test_one_shot_batches_stay_pending(self, monkeypatch, panel_states):
        from repro.serve.residency import ResidentCache, warmup_with

        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        seen = []
        release = StepCache.release_panels

        def check(cache):
            seen.append(panel_states(cache))
            release(cache)

        monkeypatch.setattr(StepCache, "release_panels", check)
        reqs = tuple(
            JobRequest(**FAST, spec=s) for s in ("MARK", "CACHE", "VEC")
        )
        execute_batch(reqs)
        warmup_with(ResidentCache(), reqs[0])
        assert len(seen) == 2
        assert all(states and set(states) == {"pending"} for states in seen)

    def test_list_above_chunk_bit_identical_under_both_kernels(
        self, monkeypatch
    ):
        from repro.core import vectorized

        sizes = []
        fast = vectorized.compute_short_range_vectorized

        def spy(system, plist, *args, **kwargs):
            sizes.append(plist.n_cluster_pairs)
            return fast(system, plist, *args, **kwargs)

        monkeypatch.setattr(vectorized, "compute_short_range_vectorized", spy)
        req = JobRequest(n_particles=3000, return_forces=True)
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        ref = execute_request(req)
        monkeypatch.delenv("REPRO_KERNEL")
        got = execute_request(req)
        assert sizes and min(sizes) > 65536  # two reference chunks
        ref_forces, got_forces = ref.pop("forces"), got.pop("forces")
        assert np.array_equal(
            got_forces.view(np.int64), ref_forces.view(np.int64)
        )
        assert got == ref
