"""Smoke tests for every ``repro`` subcommand on tiny inputs.

These are cheap end-to-end checks that each command parses its flags,
runs its full code path, prints something sensible, and exits 0 — the
regressions unit tests miss (broken imports in lazy command bodies,
renamed flags, output-formatting crashes).

Sizes: water at bulk density needs a box edge ≥ 2×r_list, so commands
with a configurable cutoff run at n=300/r_cut=0.45, and the
fixed-cutoff paper figures (ladder/overall at 1.0 nm) at n=1500.
"""

from __future__ import annotations

import json
import re
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.cli import _build_parser, _serve_config, main
from repro.serve import ServeConfig

TINY = ["-n", "300", "--rcut", "0.45"]


class TestVersion:
    def test_version_flag_matches_package(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"

    def test_version_matches_pyproject(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - py<3.11
            pytest.skip("tomllib unavailable")
        pyproject = (
            Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        )
        meta = tomllib.loads(pyproject.read_text())
        assert meta["project"]["version"] == repro.__version__


class TestParser:
    def test_kernel_flag_is_usage_error(self, capsys):
        # REPRO_KERNEL is the only kernel switch; there is no flag.
        with pytest.raises(SystemExit) as exc:
            main(["--kernel", "scalar", "run"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_serve_and_fleet_worker_share_serve_flags(self):
        shared = [
            "--max-depth", "7", "--max-per-tenant", "3", "--max-batch", "5",
            "--max-inflight", "2", "--no-dedup", "--no-resident",
            "--resident-capacity", "9",
            "--journal-dir", "jdir", "--result-store-max", "11",
            "--journal-fsync",
        ]
        parser = _build_parser()
        head = ["--backend", "pool", "--workers", "3"]
        serve = _serve_config(
            parser.parse_args([*head, "serve", "--socket", "s", *shared])
        )
        worker = _serve_config(parser.parse_args(
            [*head, "fleet-worker", "--socket", "w", "--router", "r",
             "--name", "w1", *shared]
        ))
        assert serve == worker == ServeConfig(
            max_depth=7, max_per_tenant=3, max_batch=5, max_inflight=2,
            dedup=False, backend="pool", workers=3, journal_dir="jdir",
            result_store_max=11, journal_fsync=True, resident=False,
            resident_capacity=9,
        )
        default = ServeConfig()
        changed = {
            name for name, value in vars(serve).items()
            if value != getattr(default, name)
        }
        assert len(changed) == 12  # every flag moved its field


class TestRunCommands:
    def test_run(self, capsys):
        assert main(["run", *TINY, "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "E_total" in out
        assert "modelled chip time" in out

    def test_run_with_checkpoint(self, capsys, tmp_path):
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["run", *TINY, "-s", "2", "--checkpoint-every", "1",
             "--checkpoint-path", ckpt]
        ) == 0
        assert Path(ckpt).exists()
        capsys.readouterr()

    def test_restart_prints_totals_of_this_invocation(self, capsys, tmp_path):
        ckpt = str(tmp_path / "state.ckpt")
        assert main(
            ["run", *TINY, "-s", "12", "--checkpoint-every", "4",
             "--checkpoint-path", ckpt]
        ) == 0
        assert f"checkpoints: 3 written to {ckpt}" in capsys.readouterr().out
        assert main(["run", *TINY, "-s", "16", "--restart", ckpt]) == 0
        out = capsys.readouterr().out
        match = re.search(r"chip time: ([\d.]+) ms \(([\d.]+) us/step\)", out)
        total_ms, per_step_us = float(match[1]), float(match[2])
        # Steps 12..15 ran here; both figures are printed rounded.
        ran = 4
        assert abs(per_step_us - total_ms * 1e3 / ran) <= 0.005e3 / ran + 0.05
        # The three checkpoints came from the first invocation.
        assert "checkpoints: 3 written before the restart" in out

    def test_trace(self, capsys, tmp_path):
        out_path = str(tmp_path / "trace.json")
        assert main(["trace", *TINY, "-s", "2", "--out", out_path]) == 0
        doc = json.loads(Path(out_path).read_text())
        assert doc["traceEvents"]
        capsys.readouterr()

    def test_ranks(self, capsys):
        assert main(["ranks", "-r", "2", *TINY, "-s", "2"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out.lower()


class TestFigureCommands:
    def test_ladder(self, capsys):
        assert main(["ladder", "-n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Mark" in out and "ladder" in out

    def test_overall(self, capsys):
        assert main(["overall", "-n", "1500"]) == 0
        capsys.readouterr()

    def test_scaling(self, capsys):
        assert main(
            ["scaling", "--strong-total", "24000", "--weak-per-cg", "6000"]
        ) == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out
        assert "weak scaling" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out or "bandwidth" in out.lower()

    def test_ttf(self, capsys):
        assert main(["ttf"]) == 0
        capsys.readouterr()


class TestServeCommands:
    def test_serve_requires_address(self, capsys):
        assert main(["serve"]) == 2
        assert "need --socket" in capsys.readouterr().err

    def test_submit_requires_address(self, capsys):
        assert main(["submit"]) == 2
        assert "need --socket" in capsys.readouterr().err

    def test_submit_without_server_is_connection_error(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.sock")
        assert main(["submit", "--socket", missing, "--op", "ping"]) == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_submit_drain_round_trip(self, capsys, tmp_path):
        # Full CLI session: `repro serve` in a thread, `repro submit`
        # against it, then a client-driven drain shuts it down cleanly.
        sock = str(tmp_path / "serve.sock")
        rc = {}

        def server():
            rc["serve"] = main(
                ["serve", "--socket", sock, "--max-depth", "4"]
            )

        thread = threading.Thread(target=server)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not Path(sock).exists():
                assert time.monotonic() < deadline, "service never came up"
                time.sleep(0.02)
            assert main(["submit", "--socket", sock, "--op", "ping"]) == 0
            assert main(["submit", "--socket", sock, *TINY]) == 0
            assert main(["submit", "--socket", sock, "--op", "stats"]) == 0
            assert main(["submit", "--socket", sock, "--op", "drain"]) == 0
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert rc["serve"] == 0
        out = capsys.readouterr().out
        assert "listening on" in out
        assert "job 1 ok" in out
        assert "drained: 1 completed" in out


class TestFleetCommands:
    def test_fleet_requires_address(self, capsys):
        assert main(["fleet"]) == 2
        assert "need --socket" in capsys.readouterr().err

    def test_fleet_worker_requires_address(self, capsys):
        assert main(
            ["fleet-worker", "--router", "r.sock", "--name", "w0"]
        ) == 2
        assert "need --socket" in capsys.readouterr().err

    def test_fleet_round_trip_with_spawned_workers(self, capsys, tmp_path):
        # Full fleet session through the CLI alone: `repro fleet
        # --spawn-workers 2` in a thread (workers are real
        # `repro fleet-worker` subprocesses), `repro submit --router`
        # against it, then a client-driven drain.
        sock = str(tmp_path / "router.sock")
        rc = {}

        def router():
            rc["fleet"] = main(
                ["fleet", "--socket", sock, "--spawn-workers", "2"]
            )

        thread = threading.Thread(target=router)
        thread.start()
        try:
            retry = ["--connect-retries", "100", "--connect-backoff", "0.1"]
            assert main(
                ["submit", "--router", sock, *retry, "--op", "ping"]
            ) == 0
            assert main(["submit", "--router", sock, *TINY]) == 0
            assert main(["submit", "--router", sock, "--op", "fleet"]) == 0
            assert main(["submit", "--router", sock, "--op", "stats"]) == 0
            assert main(["submit", "--router", sock, "--op", "drain"]) == 0
        finally:
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert rc["fleet"] == 0
        out = capsys.readouterr().out
        assert "router listening on" in out
        assert "job 1 ok" in out
        assert '"ring"' in out  # the --op fleet membership dump
        assert "drained: 1 completed" in out


class TestScenarioCommands:
    def test_scenarios_list(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "water" in out and "ionic" in out
        assert "rung" in out and "elec" in out

    def test_scenarios_audit_clean(self, capsys):
        assert main(["scenarios", "--audit"]) == 0
        out = capsys.readouterr().out
        assert '"drift": []' in out
        assert "audit ok" in out

    def test_run_with_spec(self, capsys):
        assert main(
            ["run", "--spec", "water n=300 rcut=0.45 ensemble=nvt",
             "-s", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "scenario: water@spc n=300 ensemble=nvt" in out
        assert "modelled chip time" in out

    def test_run_with_invalid_spec(self, capsys):
        assert main(["run", "--spec", "ljmix elec=pme", "-s", "1"]) == 2
        assert "charged system" in capsys.readouterr().err

    def test_campaign_dry_run(self, capsys):
        assert main(
            ["campaign", "ljmix,water elec=rf,pme n=600 rcut=0.45",
             "--dry-run"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 cells (3 runnable)" in out
        assert "skipped_conflict" in out

    def test_campaign_bad_matrix(self, capsys):
        assert main(["campaign", "n=300", "--dry-run"]) == 2
        assert "campaign:" in capsys.readouterr().err

    def test_campaign_needs_address(self, capsys):
        assert main(["campaign", "water"]) == 2
        assert "need --socket" in capsys.readouterr().err

    def test_campaign_self_serve_writes_report(self, capsys, tmp_path):
        # Acceptance path: a >= 12-cell matrix end-to-end through the
        # serve tier (in-process), with a JSON report on disk.
        report_path = tmp_path / "report.json"
        matrix = ("water@spc,water@spce n=600,900 elec=rf,pme "
                  "rcut=0.45 seed=2019,7")
        assert main(
            ["campaign", matrix, "--self-serve",
             "--out", str(report_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "16 cells" in out
        report = json.loads(report_path.read_text())
        assert report["n_cells"] == 16
        assert report["counts"] == {"ok": 16}
        concrete = [c["concrete"] for c in report["cells"]]
        assert len(set(concrete)) == 16

    def test_submit_scenario_spec_round_trip(self, capsys, tmp_path):
        sock = str(tmp_path / "scen.sock")
        rc = {}

        def server():
            rc["serve"] = main(["serve", "--socket", sock])

        thread = threading.Thread(target=server)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while not Path(sock).exists():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert main(
                ["submit", "--socket", sock,
                 "--spec", "water n=600 rcut=0.45 ensemble=nvt"]
            ) == 0
            # Invalid spec: rejected at admission, names the rule.
            assert main(
                ["submit", "--socket", sock, "--spec", "ljmix elec=pme"]
            ) == 2
            assert main(["submit", "--socket", sock, "--op", "drain"]) == 0
        finally:
            thread.join(timeout=30)
        assert rc["serve"] == 0
        captured = capsys.readouterr()
        assert "job 1 ok" in captured.out
        assert "depends_on" in captured.err
