"""Tests for the ``python -m repro`` command-line interface."""

import json
import os

import pytest

from repro.__main__ import main


def _mini_spec(tmp_path):
    """A two-sim spec (kangaroo, ooo vs dvr) with one table; its path."""
    spec_path = tmp_path / "mini.json"
    spec_path.write_text(json.dumps({
        "spec": {"name": "mini"},
        "matrix": {"name": "grid",
                   "workloads": [{"workload": "kangaroo"}],
                   "techniques": ["ooo", "dvr"],
                   "knobs": {"max_instructions": [800]}},
        "analysis": {"table": {
            "fn": "speedup_table", "needs": ["grid"],
            "args": {"columns": ["dvr"], "title": "mini table"}}},
    }))
    return str(spec_path)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "bfs" in out and "dvr" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "ROB size" in out

    def test_run_workload(self, capsys, tiny_graph):
        assert main(["run", "bfs", "--graph", tiny_graph,
                     "--technique", "dvr", "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "dvr_spawns" in out

    def test_run_hpcdb_workload(self, capsys):
        assert main(["run", "nas-is", "--technique", "ooo",
                     "--instructions", "2000"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_requires_workload(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["fig99"], id="fig99"),
        # The removed perf harness: its command, flags and scale.
        pytest.param(["bench"], id="bench"),
        pytest.param(["fig7", "--scale", "smoke"], id="scale-smoke"),
        pytest.param(["table1", "--threshold", "3"], id="threshold"),
    ])
    def test_unknown_command_rejected(self, argv):
        with pytest.raises(SystemExit):
            main(argv)

    def test_fig9_with_tiny_scale(self, capsys, tiny_graph):
        assert main(["fig9", "--graphs", tiny_graph,
                     "--instructions", "2000"]) == 0
        out = capsys.readouterr().out
        assert "MSHRs" in out

    def test_bare_graphs_flag_means_hpcdb_only(self, capsys, tmp_path):
        """``--graphs`` with no names drops every GAP kernel x graph."""
        from repro.harness.experiments import ExperimentScale
        from repro.jobs.ledger import RunLedger
        cache_dir = str(tmp_path / "cache")
        assert main(["fig9", "--graphs", "--instructions", "300",
                     "--cache-dir", cache_dir]) == 0
        labels = [line.split()[0] for line in
                  capsys.readouterr().out.splitlines()[3:-2]]
        hpcdb = list(ExperimentScale().hpcdb)
        assert labels == hpcdb + ["Mean"]
        sims = [row for row in RunLedger.read(
            os.path.join(cache_dir, "runs.jsonl")) if "key" in row]
        assert len(sims) == len(hpcdb) * 3       # ooo, vr, dvr

    @pytest.mark.parametrize("argv", [
        pytest.param(["fig9", "--graphs", "XX", "--instructions", "300"],
                     id="fig9-graphs"),
        pytest.param(["run", "bfs", "--graph", "XX"], id="run-graph"),
    ])
    def test_unknown_graph_rejected_when_parsed(self, argv, capsys,
                                                monkeypatch, tmp_path):
        """An unknown graph name is one argparse error, exit 2, before
        any simulation starts."""
        from repro.uarch.core import OoOCore
        cycle_loops = []
        monkeypatch.setattr(OoOCore, "run",
                            lambda core, *a, **k: cycle_loops.append(core))
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "invalid choice" in line]
        assert len(errors) == 1 and "'XX'" in errors[0]
        assert cycle_loops == []


class TestJobsFlags:
    def test_fig11_parallel_matches_serial(self, capsys, tiny_graph):
        argv = ["fig11", "--graphs", tiny_graph, "--instructions", "1000"]
        assert main(argv + ["--jobs", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2", "--no-cache"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_dir_flag_and_stats_and_clear(self, capsys, tmp_path,
                                                tiny_graph):
        import os
        from repro.specs import ArtifactStore
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["fig11", "--instructions", "500", "--graphs",
                     tiny_graph, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(cache_dir, "runs.jsonl"))
        artifacts = ArtifactStore(cache_dir)
        artifacts.put("a1" * 12, {"title": "t", "headers": [], "rows": [],
                                  "notes": ""})
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "cache dir" in out and "entries" in out
        # fig11's own table artifact plus the planted one.
        assert f"artifacts     {artifacts.salt} (current): 2 entries" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "removed" in out and "and 2 artifact(s)" in out
        assert not artifacts.contains("a1" * 12)
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "results       0 entries" in out
        assert "artifacts     0 entries" in out

    def test_cache_unknown_action(self, capsys):
        assert main(["cache", "defrag"]) == 2

    def test_cache_prune_requires_keep_current(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
        assert "--keep-current" in capsys.readouterr().err

    def test_cache_prune_keeps_current_generation(self, capsys, tmp_path,
                                                  tiny_graph):
        import os
        from repro.jobs import code_salt
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["fig11", "--instructions", "500", "--graphs",
                     tiny_graph, "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        # Plant a stale generation of each kind next to the current one.
        stale_dirs = [os.path.join(cache_dir, kind, "deadbeef0000")
                      for kind in ("results", "artifacts")]
        for stale_dir in stale_dirs:
            os.makedirs(stale_dir)
            with open(os.path.join(stale_dir, "x.json"), "w") as handle:
                handle.write("{}")
        assert main(["cache", "prune", "--keep-current",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale cached result(s) and 1 stale artifact(s)" \
            in out
        for stale_dir in stale_dirs:
            assert not os.path.exists(stale_dir)
        current_dir = os.path.join(cache_dir, "results", code_salt())
        assert os.listdir(current_dir)


class TestSweepCommand:
    def test_sweep_requires_experiment(self, capsys):
        assert main(["sweep"]) == 2
        assert "experiment name" in capsys.readouterr().err

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_local_backend_matches_figure_command(self, capsys,
                                                        tiny_graph):
        scale = ["--graphs", tiny_graph, "--instructions", "1000",
                 "--no-cache"]
        assert main(["fig11"] + scale) == 0
        direct = capsys.readouterr().out
        assert main(["sweep", "fig11"] + scale) == 0
        assert capsys.readouterr().out == direct

    def test_sweep_cluster_backend_matches_local(self, capsys, tmp_path,
                                                 tiny_graph):
        """CLI-level acceptance: --backend cluster with loopback workers
        renders the same figure as the local pool."""
        scale = ["--graphs", tiny_graph, "--instructions", "1000"]
        assert main(["sweep", "fig11", "--cache-dir",
                     str(tmp_path / "a")] + scale) == 0
        local = capsys.readouterr().out
        assert main(["sweep", "fig11", "--backend", "cluster",
                     "--workers", "2", "--cache-dir",
                     str(tmp_path / "b")] + scale) == 0
        assert capsys.readouterr().out == local

    def test_multi_figure_run_builds_graph_inputs_first(self, capsys,
                                                        monkeypatch):
        """Every figure forks its own worker pool, so `all`/`sweep all`
        build the GAP inputs once in the parent for the pools to inherit;
        one figure leaves them to its workers."""
        import repro.__main__ as cli
        from repro.harness.experiments import table1_config
        events = []
        monkeypatch.setattr(cli, "build_csr",
                            lambda graph: events.append(graph.name))
        monkeypatch.setattr(cli, "run_figure", lambda name, scale: (
            events.append(name) or table1_config()))
        assert main(["sweep", "all", "--graphs", "KR", "UR"]) == 0
        assert events == ["KR", "UR"] + list(cli.FIGURES)
        events.clear()
        assert main(["fig7", "--graphs", "KR"]) == 0
        assert events == ["fig7"]


class TestSpecsDirectory:
    def test_missing_specs_directory_is_one_line(self, capsys, monkeypatch,
                                                 tmp_path):
        """Figure commands read specs/ from the checkout; without it
        (a non-editable install) they say so in one line and exit 2."""
        import repro.harness.experiments as experiments
        monkeypatch.setattr(experiments, "SPECS_DIR", str(tmp_path / "nope"))
        assert main(["fig9", "--graphs", "--instructions", "300",
                     "--cache-dir", str(tmp_path / "cache")]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("fig9: no figure spec")
        assert captured.out == ""


class TestKeepGoing:
    def test_figure_whose_sims_gave_up_is_one_line(self, capsys,
                                                   monkeypatch, tmp_path):
        """--keep-going: a figure whose sims gave up is named on stderr
        with its skipped analysis; the other figures still run; exit 1."""
        import repro.__main__ as cli
        from repro.harness import runner
        real_run_spec = runner.run_spec

        def run_spec(spec):
            if spec.label == "kangaroo" and spec.technique == "vr":
                raise RuntimeError("injected failure")
            return real_run_spec(spec)

        monkeypatch.setattr(runner, "run_spec", run_spec)
        monkeypatch.setattr(cli, "FIGURES", ("fig9", "fig11"))
        assert main(["sweep", "all", "--keep-going", "--graphs",
                     "--instructions", "300", "--jobs", "1",
                     "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "Figure 9" not in captured.out
        assert "Figure 11" in captured.out     # kangaroo/dvr ran fine
        figure_lines = [line for line in captured.err.splitlines()
                        if line.startswith("[sweep]")]
        assert figure_lines == [
            "[sweep] fig9: skipped analysis 'table': matrix group 'grid' "
            "is incomplete (upstream failures)"]
        assert "kangaroo" in captured.err      # the failure report


class TestClusterCommand:
    def test_worker_requires_connect(self, capsys):
        assert main(["cluster", "worker"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_status_requires_connect(self, capsys):
        assert main(["cluster", "status"]) == 2
        assert "--connect" in capsys.readouterr().err

    def test_status_unreachable_coordinator(self, capsys):
        assert main(["cluster", "status", "--connect",
                     "127.0.0.1:1"]) == 1
        assert "cannot reach coordinator" in capsys.readouterr().err

    def test_unknown_action(self, capsys):
        assert main(["cluster", "defrag"]) == 2

    def test_status_against_live_coordinator(self, capsys):
        from repro.serve import ServeDaemon
        daemon = ServeDaemon(quiet=True)
        daemon.start()
        port = daemon.port
        try:
            assert main(["cluster", "status", "--connect",
                         f"127.0.0.1:{port}"]) == 0
            out = capsys.readouterr().out
            assert f"coordinator  127.0.0.1:{port}" in out
            assert "workers      0" in out
        finally:
            daemon.close()

    def test_bind_conflict_is_one_stderr_line(self, capsys, tmp_path):
        """A cluster sweep or a daemon whose port is taken exits 1 with
        one line, not a traceback."""
        import socket

        from repro import jobs
        holder = socket.socket()
        holder.bind(("127.0.0.1", 0))
        holder.listen(1)
        bind = f"127.0.0.1:{holder.getsockname()[1]}"
        try:
            for argv in (["sweep", "fig9", "--backend", "cluster",
                          "--workers", "0", "--graphs", "--instructions",
                          "1000", "--no-cache"],
                         ["serve", "--workers", "0"]):
                assert main(argv + ["--bind", bind, "--cache-dir",
                                    str(tmp_path)]) == 1
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == 1, lines
                assert lines[0].startswith(f"{argv[0]}: ")
                assert "cannot bind" in lines[0]
        finally:
            holder.close()
            jobs.set_context(None)


class TestReportCommand:
    def test_report_missing_ledger(self, capsys, tmp_path):
        assert main(["report", "--from-ledger",
                     str(tmp_path / "nope.jsonl")]) == 1
        assert "no ledger" in capsys.readouterr().err

    def test_report_from_sweep_ledger(self, capsys, tmp_path, tiny_graph):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["fig9", "--graphs", tiny_graph, "--instructions",
                     "1000", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        ledger_path = str(tmp_path / "cli-cache" / "runs.jsonl")
        assert main(["report", "--from-ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "Sweep progress from" in out
        assert "completed point(s)" in out
        assert "vs ooo" in out
        # Baselines present, so a harmonic-mean speedup line is rendered.
        assert "h-mean speedup over ooo" in out

    def test_report_counts_points_in_a_shared_store(self, capsys,
                                                    tmp_path):
        tiers = ["--store", str(tmp_path / "store"),
                 "--cache-dir", str(tmp_path / "cache")]
        assert main(["env", "run", "--spec", _mini_spec(tmp_path)]
                    + tiers) == 0
        capsys.readouterr()
        assert main(["report"] + tiers) == 0
        out = capsys.readouterr().out
        assert "2 completed point(s)" in out
        assert "2 in current cache generation" in out


class TestMaxBytesPrune:
    def test_prune_max_bytes_evicts_until_budget(self, capsys, tmp_path,
                                                 tiny_graph):
        import os
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["fig11", "--graphs", tiny_graph, "--instructions",
                     "500", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        from repro.jobs import code_salt
        results_dir = os.path.join(cache_dir, "results", code_salt())
        before = len(os.listdir(results_dir))
        assert before > 1
        assert main(["cache", "prune", "--max-bytes", "1",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert f"evicted {before} oldest result(s)" in out
        assert os.listdir(results_dir) == []

    def test_prune_max_bytes_noop_when_under_budget(self, capsys, tmp_path,
                                                    tiny_graph):
        cache_dir = str(tmp_path / "cli-cache")
        assert main(["fig11", "--graphs", tiny_graph, "--instructions",
                     "500", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "prune", "--max-bytes", str(10 ** 9),
                     "--cache-dir", cache_dir]) == 0
        assert "evicted 0" in capsys.readouterr().out


class TestJsonExport:
    def test_out_appends_json_lines(self, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["table1", "--out", str(out)]) == 0
        assert main(["table1", "--out", str(out)]) == 0
        import json
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        payload = json.loads(lines[0])
        assert payload["name"].startswith("Table 1")
        assert payload["rows"]


class TestEnvCommand:
    SPEC = os.path.join(os.path.dirname(__file__), "..", "specs",
                        "fig7.toml")

    def test_env_show(self, capsys):
        assert main(["env", "show", "--spec", self.SPEC]) == 0
        out = capsys.readouterr().out
        assert "spec        fig7" in out
        assert "matrix      grid" in out
        assert "analysis    table: fn=speedup_table" in out

    def test_env_concretize(self, capsys):
        assert main(["env", "concretize", "--spec", self.SPEC]) == 0
        out = capsys.readouterr().out
        assert "DAG fig7" in out and "dry run: nothing executed" in out

    def test_env_run_dry_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["env", "run", "--spec", self.SPEC, "--dry-run",
                     "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "dry run: nothing executed" in out
        assert "0/1 artifact(s) cached" in out
        # Nothing executed: no ledger was written.
        assert not os.path.exists(os.path.join(cache_dir, "runs.jsonl"))

    def test_env_run_executes_spec(self, capsys, tmp_path):
        out_path = tmp_path / "out.jsonl"
        assert main(["env", "run", "--spec", _mini_spec(tmp_path),
                     "--out", str(out_path)]) == 0
        assert "mini table" in capsys.readouterr().out
        payload = json.loads(out_path.read_text().strip())
        assert payload["name"] == "mini table"
        assert payload["rows"][-1][0] == "H-mean"

    def test_env_requires_spec(self, capsys):
        assert main(["env", "run"]) == 2
        assert "--spec" in capsys.readouterr().err

    def test_env_unknown_action(self, capsys):
        assert main(["env", "explode", "--spec", self.SPEC]) == 2
        assert "unknown env action" in capsys.readouterr().err

    def test_env_bad_spec_reports_error(self, capsys, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text('{"spec": {"name": "x"}}')
        assert main(["env", "run", "--spec", str(spec_path)]) == 2
        assert "matrix" in capsys.readouterr().err
