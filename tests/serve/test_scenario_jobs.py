"""Scenario specs through the serve tier: canonicalization/dedup,
bit-identity with the legacy water path, admission rejection, batching,
residency, and fleet routing."""

import numpy as np
import pytest

from repro.serve.batcher import Batch
from repro.serve.jobs import (
    InvalidRequestError,
    JobRequest,
    execute_batch,
    execute_kernel_request,
    execute_md_request,
)


class TestCanonicalization:
    def test_spellings_share_fingerprint(self):
        # The satellite regression: textually different spec strings
        # that concretize identically MUST share a fingerprint.
        a = JobRequest(kind="kernel",
                       scenario="water@spce n=1500 ensemble=nvt elec=rf")
        b = JobRequest(kind="kernel",
                       scenario="water@spce elec=rf ensemble=nvt n=1500")
        c = JobRequest(kind="kernel",
                       scenario="water@spce n=1500 ensemble=nvt elec=rf "
                                "rung=fused seed=2019")
        assert a.fingerprint == b.fingerprint == c.fingerprint

    def test_distinct_specs_distinct_fingerprints(self):
        a = JobRequest(kind="kernel", scenario="water n=900")
        b = JobRequest(kind="kernel", scenario="water n=1500")
        assert a.fingerprint != b.fingerprint

    def test_scheduling_fields_stay_out(self):
        a = JobRequest(kind="kernel", scenario="water n=900",
                       tenant="a", priority=5)
        b = JobRequest(kind="kernel", scenario="water n=900",
                       tenant="b", timeout_s=9.0)
        assert a.fingerprint == b.fingerprint

    def test_legacy_fields_ignored_when_scenario_set(self):
        # n_particles/spec/level/r_cut/seed are dead fields for
        # spec-bearing requests: they must not leak into identity.
        a = JobRequest(kind="kernel", scenario="water n=900",
                       n_particles=17, spec="ORI", r_cut=0.3, seed=7)
        b = JobRequest(kind="kernel", scenario="water n=900")
        assert a.fingerprint == b.fingerprint
        assert a.system_key == b.system_key

    def test_batcher_dedups_spellings(self):
        # Same regression one layer up: the batcher's dedup path keys
        # on the fingerprint, so two spellings coalesce into one unit
        # (the second job rides the first's execution).
        from repro.serve.queue import Job

        batch = Batch()
        a = JobRequest(kind="kernel", scenario="water n=900 elec=rf")
        b = JobRequest(kind="kernel",
                       scenario="water@spc seed=2019 n=900")
        assert batch.add(Job(request=a, job_id=1, seq=1)) is True
        assert batch.add(Job(request=b, job_id=2, seq=2)) is False
        assert batch.n_units == 1
        assert batch.dedup_hits == 1

    def test_md_steps_in_fingerprint(self):
        a = JobRequest(kind="md", scenario="water n=900", steps=3)
        b = JobRequest(kind="md", scenario="water n=900", steps=5)
        assert a.fingerprint != b.fingerprint

    def test_system_key_ignores_strategy(self):
        a = JobRequest(kind="kernel", scenario="water rung=cache")
        b = JobRequest(kind="kernel", scenario="water rung=vec")
        assert a.system_key == b.system_key
        assert a.fingerprint != b.fingerprint

    def test_system_key_tracks_electrostatics(self):
        # One NonbondedParams per batch group: elec MUST split groups.
        a = JobRequest(kind="kernel", scenario="water elec=rf")
        b = JobRequest(kind="kernel", scenario="water elec=cut")
        assert a.system_key != b.system_key

    def test_wire_round_trip(self):
        req = JobRequest(kind="kernel", scenario="water n=900")
        again = JobRequest.from_dict(req.to_dict())
        assert again == req
        assert again.fingerprint == req.fingerprint


class TestAdmission:
    def test_invalid_spec_rejected_with_rule_name(self):
        req = JobRequest(kind="kernel", scenario="ljmix elec=pme")
        with pytest.raises(InvalidRequestError) as err:
            req.validate()
        assert "depends_on" in str(err.value)
        assert "charged" in str(err.value)

    def test_conflict_rejected_with_rule_name(self):
        req = JobRequest(kind="md", scenario="ionic constraints=settle")
        with pytest.raises(InvalidRequestError) as err:
            req.validate()
        assert "conflicts" in str(err.value)

    def test_parse_error_rejected(self):
        with pytest.raises(InvalidRequestError, match="unknown variant"):
            JobRequest(kind="kernel", scenario="water nparts=5").validate()

    def test_kernel_variant_rejected(self):
        # REPRO_KERNEL alone selects the kernel impl; no spec variant does.
        import asyncio

        from repro.serve.queue import REASON_INVALID
        from repro.serve.service import (
            AdmissionRejected,
            ServeConfig,
            SimulationService,
        )

        async def scenario():
            async with SimulationService(ServeConfig(max_depth=4)) as svc:
                with pytest.raises(AdmissionRejected) as exc:
                    await svc.submit(JobRequest(
                        scenario="water@spc n=300 rcut=0.45 kernel=scalar"
                    ))
                return exc.value.error

        error = asyncio.run(scenario())
        assert error.code == REASON_INVALID
        assert "unknown variant 'kernel'" in error.message

    def test_valid_spec_admitted(self):
        JobRequest(kind="kernel",
                   scenario="water@spce n=1500 ensemble=nvt elec=rf"
                   ).validate()

    def test_legacy_validation_unchanged(self):
        with pytest.raises(InvalidRequestError, match="kernel spec"):
            JobRequest(kind="kernel", spec="NOPE").validate()


class TestBitIdentity:
    def test_kernel_water_spec_matches_legacy(self):
        # Acceptance: existing water workloads expressed as specs stay
        # bit-identical to the legacy field form.
        legacy = JobRequest(kind="kernel", n_particles=900, spec="MARK",
                            r_cut=0.9, seed=2019)
        spec = JobRequest(kind="kernel", scenario="water n=900")
        assert spec.kernel_spec_name == "MARK"
        assert execute_kernel_request(legacy) == \
            execute_kernel_request(spec)

    def test_md_water_spec_matches_legacy(self):
        legacy = JobRequest(kind="md", n_particles=300, steps=3, level=3,
                            r_cut=0.45, seed=2019)
        spec = JobRequest(kind="md",
                          scenario="water n=300 rcut=0.45 rung=fused",
                          steps=3)
        a = execute_md_request(legacy)
        b = execute_md_request(spec)
        assert a["positions_fp"] == b["positions_fp"]
        assert a["potential"] == b["potential"]

    def test_rung_selects_strategy(self):
        for rung, name in (("ori", "ORI"), ("cache", "CACHE"),
                           ("vec", "VEC"), ("fused", "MARK")):
            req = JobRequest(kind="kernel",
                             scenario=f"water rung={rung}")
            assert req.kernel_spec_name == name


class TestBatchExecution:
    def test_batch_groups_share_system(self):
        a = JobRequest(kind="kernel", scenario="water rung=fused")
        b = JobRequest(kind="kernel", scenario="water rung=cache")
        out = execute_batch((a, b))
        # Same system group, one short-range eval shared via StepCache.
        assert out.cache_stats["sr_evals"] == 1
        assert out.cache_stats["sr_hits"] >= 1
        assert np.isfinite(out.payloads[0]["energy"])

    def test_mixed_legacy_and_scenario_batch(self):
        legacy = JobRequest(kind="kernel", n_particles=900, spec="MARK")
        spec = JobRequest(kind="kernel", scenario="water n=900")
        out = execute_batch((legacy, spec))
        assert out.payloads[0] == out.payloads[1]

    def test_non_water_scenario_executes(self):
        req = JobRequest(kind="kernel",
                         scenario="ionic n=300 rcut=0.45 elec=pme "
                                  "rung=cache")
        payload = execute_kernel_request(req)
        assert np.isfinite(payload["energy"])


class TestResidency:
    def test_warmup_and_resident_batch(self):
        from repro.serve.residency import (
            ResidentCache,
            execute_batch_with,
            warmup_with,
        )

        cache = ResidentCache(capacity=4)
        req = JobRequest(kind="kernel", scenario="water n=900")
        info = warmup_with(cache, req)
        assert info["resident"] and info["built"]
        out = execute_batch_with(cache, (req,))
        assert np.isfinite(out.payloads[0]["energy"])
        # Legacy direct path agrees with the resident path.
        assert out.payloads[0] == execute_kernel_request(
            JobRequest(kind="kernel", n_particles=900, spec="MARK")
        )


class TestFleetRouting:
    def test_stable_key_handles_scenario_keys(self):
        from repro.fleet.ring import stable_key

        a = JobRequest(kind="kernel", scenario="water n=900 elec=rf")
        b = JobRequest(kind="kernel", scenario="water@spc seed=2019")
        c = JobRequest(kind="kernel", scenario="water n=1500")
        assert stable_key(a.system_key) == stable_key(b.system_key)
        assert stable_key(a.system_key) != stable_key(c.system_key)

    def test_ring_routes_scenario_requests_consistently(self):
        from repro.fleet.ring import HashRing

        ring = HashRing(vnodes=32)
        ring.add("w0")
        ring.add("w1")
        req = JobRequest(kind="kernel", scenario="water n=900")
        owner = ring.route(stable_key_of(req))
        assert owner in ("w0", "w1")
        assert ring.route(stable_key_of(req)) == owner


def stable_key_of(req):
    from repro.fleet.ring import stable_key

    return stable_key(req.system_key)
