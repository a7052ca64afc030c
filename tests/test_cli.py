"""Unit tests for the command-line interface."""

import json
import os
import socket

import pytest

from repro.cli import (
    EXPERIMENT_DESCRIPTIONS,
    build_parser,
    main,
    resolve_experiment_ids,
    run_experiments,
)
from repro.experiments.experiment_defs import EXPERIMENT_REGISTRY


class TestResolution:
    def test_all_expands_in_order(self):
        ids = resolve_experiment_ids(["all"])
        assert ids[0] == "E1" and ids[-1] == "E12"
        assert len(ids) == len(EXPERIMENT_REGISTRY)

    def test_case_insensitive(self):
        assert resolve_experiment_ids(["e5", "E12"]) == ["E5", "E12"]

    def test_unknown_id_exits(self):
        with pytest.raises(SystemExit):
            resolve_experiment_ids(["E99"])

    def test_descriptions_cover_registry(self):
        assert set(EXPERIMENT_DESCRIPTIONS) == set(EXPERIMENT_REGISTRY)

    def test_scenario_names_resolve(self):
        ids = resolve_experiment_ids(["WL"])
        assert ids == ["WL"]

    def test_tag_expands_to_grid(self):
        ids = resolve_experiment_ids(["adversarial"])
        assert len(ids) == 48
        assert all(name.startswith("ADV[") for name in ids)


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "E2", "E5", "--seed", "7", "--json", "out.json", "--quiet"]
        )
        assert args.experiments == ["E2", "E5"]
        assert args.seed == 7
        assert args.json == "out.json"
        assert args.quiet is True

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunExperiments:
    def test_runs_and_collects(self):
        printed = []
        results = run_experiments(["E12"], printer=printed.append)
        assert len(results) == 1
        assert results[0].experiment_id == "E12"
        assert any("E12" in line for line in printed)

    def test_quiet_suppresses_tables(self):
        printed = []
        run_experiments(["E12"], printer=printed.append, quiet=True)
        assert all("quantity" not in line for line in printed)

    def test_seed_override_passes_through(self):
        results = run_experiments(["E12"], seed=123, quiet=True, printer=lambda _ : None)
        assert results[0].findings["all_facts_hold"]


class TestRuntimePath:
    def test_parser_accepts_workers_and_store(self):
        args = build_parser().parse_args(
            ["run", "E12", "--workers", "4", "--store", "/tmp/rstore"]
        )
        assert args.workers == 4
        assert args.store == "/tmp/rstore"

    def test_parser_defaults_stay_legacy(self):
        args = build_parser().parse_args(["run", "E12"])
        assert args.workers == 1
        assert args.store is None

    def test_parser_rejects_non_positive_workers(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E12", "--workers", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "E12", "--workers", "-2"])

    def test_parallel_stdout_identical_to_serial(self, tmp_path, capsys):
        assert main(["run", "E12", "E7", "--workers", "1", "--store", str(tmp_path / "a")]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", "E12", "E7", "--workers", "2", "--store", str(tmp_path / "b")]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert "[E12] computed" in serial_out

    def test_second_store_run_hits_cache(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["run", "E12", "--quiet", "--store", store]) == 0
        assert "[E12] computed" in capsys.readouterr().out
        assert main(["run", "E12", "--quiet", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "[E12] cached" in out
        assert "computed" not in out

    def test_seed_override_changes_cache_slot(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["run", "E12", "--quiet", "--store", store])
        capsys.readouterr()
        main(["run", "E12", "--quiet", "--seed", "3", "--store", store])
        assert "[E12] computed" in capsys.readouterr().out

    def test_runtime_json_matches_legacy_json(self, tmp_path):
        """Flagless, store-backed and sharded runs write the same JSON bytes."""
        legs = {
            "plain": [],
            "store": ["--store", str(tmp_path / "store")],
            "workers": ["--workers", "2"],
        }
        written = {}
        for leg, flags in legs.items():
            path = tmp_path / f"{leg}.json"
            assert main(["run", "E12", "E7", "--quiet", "--json", str(path), *flags]) == 0
            written[leg] = path.read_bytes()
        assert written["store"] == written["plain"]
        assert written["workers"] == written["plain"]

    def test_runtime_accepts_registered_scenario_names(self, tmp_path, capsys):
        from repro.runtime import SCENARIO_REGISTRY, register_scenario

        register_scenario("cli-tiny", runner="E12", params={"t": 2}, seed=1)
        try:
            assert main(["run", "cli-tiny", "--quiet", "--store", str(tmp_path)]) == 0
            assert "[cli-tiny] computed" in capsys.readouterr().out
        finally:
            SCENARIO_REGISTRY.pop("cli-tiny", None)

    def test_scenario_names_rejected_on_legacy_path(self):
        with pytest.raises(SystemExit):
            resolve_experiment_ids(["cli-unknown"])


class TestInterruptedRun:
    def test_fault_env_is_set_for_the_run_and_restored_when_it_raises(self, monkeypatch):
        import repro.cli as cli
        from repro.resilience import FAULTS_ENV_VAR

        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        seen = []

        def fail(*args, **kwargs):
            seen.append(os.environ.get(FAULTS_ENV_VAR))
            raise RuntimeError("run failed")

        monkeypatch.setattr(cli, "run_experiments", fail)
        with pytest.raises(RuntimeError, match="run failed"):
            main(["run", "E12", "--faults", "seed=1,engine.pass:raise:0.1"])
        assert seen == ["seed=1,engine.pass:raise:0.1"]
        assert FAULTS_ENV_VAR not in os.environ

    def test_interrupt_exits_130_writes_no_json_and_resumes(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.experiments.runners import RUNNER_REGISTRY

        def interrupt(**kwargs):
            raise KeyboardInterrupt

        store = str(tmp_path / "store")
        out = tmp_path / "out.json"
        monkeypatch.setitem(RUNNER_REGISTRY, "E7", interrupt)
        argv = ["run", "E12", "E7", "E9", "--quiet", "--store", store, "--json", str(out)]
        assert main(argv) == 130
        captured = capsys.readouterr()
        assert "interrupted: 1 of 3 tasks finished" in captured.err
        assert "[E12] computed" in captured.out
        assert not out.exists()
        monkeypatch.undo()
        # The finished task is in the store: a rerun resumes from it.
        assert main(["run", "E12", "--quiet", "--store", store]) == 0
        assert "[E12] cached" in capsys.readouterr().out


class TestScenariosCommand:
    def test_lists_paper_scenarios(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPERIMENT_REGISTRY:
            assert experiment_id in out

    def test_shows_one_scenario(self, capsys):
        assert main(["scenarios", "E12"]) == 0
        out = capsys.readouterr().out
        assert "runner:       E12" in out
        assert "fingerprint=" in out

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["scenarios", "nope"])

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "--tag", "no-such-tag"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestMainEntryPoint:
    def test_list_returns_zero(self, capsys):
        assert main(["list"]) == 0
        captured = capsys.readouterr()
        assert "E1" in captured.out

    def test_run_writes_json_and_markdown(self, tmp_path, capsys):
        json_path = tmp_path / "results.json"
        md_path = tmp_path / "report.md"
        code = main(
            [
                "run",
                "E12",
                "--quiet",
                "--json",
                str(json_path),
                "--markdown",
                str(md_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload[0]["experiment_id"] == "E12"
        assert "E12" in md_path.read_text()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 0 and args.workers == 2
        assert args.queue_limit == 64 and args.cache == 1024
        assert args.instance is None and args.deadline is None

    def test_serve_workers_zero_means_inline(self):
        args = build_parser().parse_args(["serve", "--workers", "0"])
        assert args.workers == 0

    def test_serve_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--workers", "-1"])

    def test_serve_instances_accumulate(self):
        args = build_parser().parse_args(
            ["serve", "--instance", "a=random:n=8,m=4", "--instance", "b=random:n=8,m=4"]
        )
        assert args.instance == ["a=random:n=8,m=4", "b=random:n=8,m=4"]

    def test_serve_rejects_bad_queue_limit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--queue-limit", "0"])

    def test_serve_bad_instance_spec_exits(self):
        with pytest.raises(SystemExit, match="instance"):
            main(["serve", "--instance", "broken"])

    def test_serve_non_positive_deadline_exits(self, monkeypatch):
        import repro.service.server as server

        async def refuse(config):
            raise AssertionError("a non-positive default deadline reached serve_main")

        monkeypatch.setattr(server, "serve_main", refuse)
        with pytest.raises(SystemExit, match="default_deadline_s must be"):
            main(["serve", "--deadline", "0"])

    def test_serve_on_a_taken_port_exits_with_one_line(self):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            port = holder.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--port", str(port), "--workers", "0"])
        assert str(excinfo.value.code) == f"cannot listen on 127.0.0.1:{port}: Address already in use"

    @pytest.mark.parametrize("grace", ["nan", "inf"])
    def test_serve_non_finite_drain_grace_exits(self, monkeypatch, grace):
        import repro.service.server as server

        async def refuse(config):
            raise AssertionError("a bad drain grace reached serve_main")

        monkeypatch.setattr(server, "serve_main", refuse)
        with pytest.raises(SystemExit, match="drain_grace_s must be finite"):
            main(["serve", "--drain-grace", grace])


class TestLoadgenParser:
    def test_port_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loadgen"])

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen", "--port", "1234"])
        assert args.port == 1234
        assert args.clients == 16 and args.requests == 25
        assert args.no_verify is False and args.duration is None


class TestChaosExitCode:
    """`repro chaos` is CI-usable: parity failure must be a non-zero exit."""

    def _fake_report(self, parity):
        from types import SimpleNamespace

        return SimpleNamespace(parity=parity, render=lambda: "chaos-report")

    def test_parity_failure_exits_one(self, monkeypatch, capsys):
        import repro.resilience as resilience

        monkeypatch.setattr(
            resilience, "run_chaos", lambda *a, **k: self._fake_report(False)
        )
        assert main(["chaos", "WL"]) == 1
        assert "chaos-report" in capsys.readouterr().out

    def test_parity_success_exits_zero(self, monkeypatch, capsys):
        import repro.resilience as resilience

        monkeypatch.setattr(
            resilience, "run_chaos", lambda *a, **k: self._fake_report(True)
        )
        assert main(["chaos", "WL"]) == 0


class TestLoadgenExitCode:
    """`repro loadgen` fails loudly iff a verified answer was wrong."""

    def _fake_report(self, wrong):
        from repro.service.loadgen import LoadReport

        report = LoadReport(clients=1)
        report.record("ok", 0.01)
        report.wrong = wrong
        report.wall_s = 0.1
        return report

    def test_wrong_answers_exit_one(self, monkeypatch, capsys):
        import repro.service.loadgen as loadgen

        monkeypatch.setattr(loadgen, "run_load", lambda config: self._fake_report(2))
        assert main(["loadgen", "--port", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["wrong"] == 2

    def test_clean_run_exits_zero_and_writes_json(self, monkeypatch, tmp_path, capsys):
        import repro.service.loadgen as loadgen

        monkeypatch.setattr(loadgen, "run_load", lambda config: self._fake_report(0))
        out = tmp_path / "report.json"
        assert main(["loadgen", "--port", "1", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["wrong"] == 0 and payload["ok"] == 1

    @pytest.mark.parametrize("duration", ["nan", "inf", "-1", "0"])
    def test_non_finite_or_non_positive_duration_exits(self, monkeypatch, duration):
        import repro.service.loadgen as loadgen

        def refuse(config):
            raise AssertionError("a bad duration reached run_load")

        monkeypatch.setattr(loadgen, "run_load", refuse)
        with pytest.raises(SystemExit, match="duration_s must be positive and finite"):
            main(["loadgen", "--port", "1", "--duration", duration])

    def test_nothing_listening_exits_one_with_one_line(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(SystemExit) as excinfo:
            main(["loadgen", "--port", str(port), "--requests", "3", "--clients", "2", "--no-verify"])
        assert str(excinfo.value.code) == (
            f"cannot reach service at 127.0.0.1:{port}: "
            "no request got an answer (2 transport errors)"
        )
        assert capsys.readouterr().out == ""


class TestInstancePlaneFlags:
    def gen(self, tmp_path, capsys):
        path = tmp_path / "inst.repro"
        assert main(
            ["gen-instance", str(path), "--n", "48", "--m", "64", "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "digest:" in out and str(path) in out
        return path

    def test_gen_instance_matches_in_memory(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys)
        from repro.workloads.random_instances import random_set_system

        expected = random_set_system(48, 64, seed=7).content_digest()
        from repro.setcover.source import read_container_header

        header, _ = read_container_header(path)
        assert header["digest"] == expected

    def test_gen_instance_rejects_conflicting_knobs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                ["gen-instance", str(tmp_path / "x.repro"), "--n", "8", "--m", "4",
                 "--set-size", "2", "--density", "0.5"]
            )

    def test_gen_instance_has_no_backend_flag(self, tmp_path, capsys):
        path = tmp_path / "x.repro"
        with pytest.raises(SystemExit) as excinfo:
            main(["gen-instance", str(path), "--n", "8", "--m", "4", "--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
        assert not path.exists()

    def test_gen_instance_refuses_a_universe_beyond_the_limit(self, tmp_path):
        path = tmp_path / "x.repro"
        with pytest.raises(SystemExit, match="exceeds the limit"):
            main(["gen-instance", str(path), "--n", "99999999999", "--m", "1"])
        assert not path.exists() and not path.with_name("x.repro.tmp").exists()

    def test_run_header_reports_instance_and_dispatch(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys)
        cell = "ADV[algorithm=saha_getoor,order=random,workload=random]"
        assert main(
            ["run", cell, "--quiet",
             "--instance-file", str(path), "--instance-backing", "heap"]
        ) == 0
        out = capsys.readouterr().out
        assert "backing=heap" in out and "tasks=1/1" in out

    def test_instance_flags_alone_route_through_runtime(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys)
        cell = "ADV[algorithm=saha_getoor,order=random,workload=random]"
        assert main(["run", cell, "--quiet", "--instance-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"[{cell}] computed" in out  # runtime-style status line

    def test_missing_instance_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="instance-file"):
            main(
                ["run", "E12", "--quiet",
                 "--instance-file", str(tmp_path / "nope.repro")]
            )

    def test_flipped_container_refused_before_any_cell(self, tmp_path, capsys):
        from repro.setcover.source import read_container_header

        path = self.gen(tmp_path, capsys)
        _, offset = read_container_header(path)
        data = bytearray(path.read_bytes())
        data[offset] ^= 1
        path.write_bytes(bytes(data))
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["run", "adversarial", "--quiet", "--instance-file", str(path),
                 "--store", str(store)]
            )
        # A string exit code: the interpreter prints it and exits with 1.
        message = excinfo.value.code
        assert message.startswith(f"cannot open --instance-file {str(path)!r}: ")
        assert "failed its integrity check" in message and "\n" not in message
        assert not store.exists() or not any(store.iterdir())

    def test_scenarios_detail_reports_instance_capable(self, capsys):
        assert main(["scenarios", "WL"]) == 0
        assert "instance-capable: yes" in capsys.readouterr().out
        assert main(["scenarios", "E12"]) == 0
        assert "instance-capable: no" in capsys.readouterr().out

    def test_trace_records_dispatch_and_backing(self, tmp_path, capsys):
        path = self.gen(tmp_path, capsys)
        cell = "ADV[algorithm=saha_getoor,order=random,workload=random]"
        trace_dir = tmp_path / "trace"
        assert main(
            ["run", cell, "--quiet", "--trace", str(trace_dir),
             "--instance-file", str(path)]
        ) == 0
        records = []
        for trace_file in trace_dir.glob("*.jsonl"):
            for line in trace_file.read_text().splitlines():
                records.append(json.loads(line))
        sessions = [r for r in records if r.get("attrs", {}).get("instance_backing")]
        assert any(
            r["attrs"]["instance_backing"] == "mmap" and r["attrs"].get("workers") == 1
            for r in sessions
        )
        passes = [r for r in records if r.get("name") == "stream.pass"]
        assert passes and all(r["attrs"]["backing"] == "mmap" for r in passes)
