"""One MD driver: `MdLoop` and `SWGromacsEngine` share restart.

Both drivers are `MdDriver` subclasses, so the step loop, the checkpoint
write, `restore` (with its pre-v2 reconstruction) and the mid-interval
list regeneration exist once.  These tests pin that sharing and the
restart paths that were covered on one driver only, or on neither.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.engine import EngineConfig, SWGromacsEngine
from repro.md.box import Box
from repro.md.mdloop import KERNEL_BONDED, MdConfig, MdDriver, MdLoop
from repro.md.topology import Bond
from repro.md.water import build_lj_fluid
from repro.resilience import CheckpointError, ResiliencePolicy, load_checkpoint

N_STEPS = 14  # crosses one nstlist=10 rebuild boundary

DRIVERS = [
    pytest.param((MdLoop, MdConfig), id="mdloop"),
    pytest.param((SWGromacsEngine, EngineConfig), id="engine"),
]


@pytest.mark.parametrize(
    "name",
    ["run", "checkpoint", "restore", "_rebuild_from_checkpoint",
     "_history_dict", "_add"],
)
def test_restart_machinery_is_defined_once(name):
    assert name in vars(MdDriver)
    assert name not in vars(MdLoop)
    assert name not in vars(SWGromacsEngine)
    assert getattr(SWGromacsEngine, name) is getattr(MdLoop, name)


@pytest.mark.parametrize("driver", DRIVERS)
def test_restore_rejects_box_only_mismatch(driver, water_small, nb_water_small):
    """Same particle count, another box: refused by both drivers."""
    cls, config = driver
    ckpt = cls(water_small.copy(), config(nonbonded=nb_water_small)).checkpoint()
    other = water_small.copy()
    other.box = Box(tuple(1.05 * v for v in water_small.box.lengths))
    assert other.n_particles == ckpt.n_particles
    driver_other = cls(other, config(nonbonded=nb_water_small))
    with pytest.raises(CheckpointError, match="box"):
        driver_other.restore(ckpt)
    assert np.array_equal(other.positions, water_small.positions)


@pytest.mark.parametrize("driver", DRIVERS)
def test_pre_v2_checkpoint_resumes_mid_run(
    driver, tmp_path, water_small, nb_water_small
):
    """A checkpoint without history (format v1) still resumes
    bit-identically, with the counters reconstructed from the step."""
    cls, config = driver
    path = str(tmp_path / "state.ckpt")
    policy = ResiliencePolicy(checkpoint_every=4, checkpoint_path=path)

    def make():
        return cls(
            water_small.copy(),
            config(nonbonded=nb_water_small, report_interval=2,
                   resilience=policy),
        )

    baseline_driver = make()
    baseline = baseline_driver.run(N_STEPS)
    make().run(13)  # crash at 13; last checkpoint = step 12
    ckpt = load_checkpoint(path)
    assert ckpt.step == 12 and ckpt.pairlist_rebuild_step == 10
    old = dataclasses.replace(ckpt, history=None, trajectory=None)

    resumed = make()
    resumed.restore(old)
    result = resumed.run(N_STEPS)

    assert np.array_equal(result.system.positions, baseline.system.positions)
    assert np.array_equal(
        result.system.velocities, baseline.system.velocities
    )
    assert result.checkpoints_written == baseline.checkpoints_written == 3
    # ceil(12 / nstlist) rebuilds before the restart, none after it;
    # both drivers' checkpoints carry the count.
    rebuilds = resumed.checkpoint().history["n_pairlist_rebuilds"]
    assert rebuilds == baseline_driver.checkpoint().history[
        "n_pairlist_rebuilds"
    ] == 2
    if cls is MdLoop:
        assert result.n_pairlist_rebuilds == baseline.n_pairlist_rebuilds
    # The reporter history is unrecoverable: it restarts at the resume
    # step, with the uninterrupted run's values from there on.
    frames = [
        (f.step, f.potential, f.kinetic, f.temperature)
        for f in result.reporter.frames
    ]
    assert frames == [
        (f.step, f.potential, f.kinetic, f.temperature)
        for f in baseline.reporter.frames
        if f.step >= 12
    ]
    assert [f[0] for f in frames] == [12]


def test_engine_rejects_bonded_topology(nb_lj):
    system = build_lj_fluid(200, seed=11)
    d = system.box.minimum_image(system.positions[1] - system.positions[0])
    system.topology.bonds.append(Bond(0, 1, float(np.linalg.norm(d)), 100.0))
    with pytest.raises(ValueError, match="1 bonds"):
        SWGromacsEngine(system, EngineConfig(nonbonded=nb_lj))
    # The reference loop evaluates bonded terms and runs the same system.
    result = MdLoop(system, MdConfig(nonbonded=nb_lj)).run(2)
    assert result.timing.seconds[KERNEL_BONDED] > 0.0
    assert np.all(np.isfinite(result.system.positions))
