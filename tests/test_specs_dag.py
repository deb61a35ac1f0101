"""DAG execution tests: artifact caching, subgraph invalidation, dry
runs, ledger provenance.  (The figure specs' tables are pinned against
recorded golden tables in ``tests/test_experiments.py``.)

These run real (tiny) simulations: two hpc-db kernels at a 1.5k-2k
instruction budget, so a whole figure DAG is a handful of seconds.
"""

import json

import pytest

import repro.jobs as jobs
from repro.harness.experiments import ExperimentScale
from repro.jobs.ledger import RunLedger
from repro.specs import ArtifactStore, DagRunner, concretize, run_spec_file


@pytest.fixture(scope="module")
def tiny_scale():
    return ExperimentScale(gap_graphs=(), hpcdb=("kangaroo", "nas-is"),
                           max_instructions=1_500)


@pytest.fixture
def fresh_context(tmp_path):
    """A private cache/ledger/artifact root, installed process-wide."""
    context = jobs.ExecutionContext(cache_dir=str(tmp_path / "cache"),
                                    store="")
    jobs.set_context(context)
    yield context
    jobs.set_context(None)


def fig7_doc():
    """The fig7 spec as a dict (same content as specs/fig7.toml)."""
    return {
        "spec": {"name": "fig7"},
        "matrix": {"name": "grid", "workloads": "scale",
                   "techniques": ["ooo", "pre", "imp", "vr", "dvr",
                                  "oracle"]},
        "analysis": {"table": {
            "fn": "speedup_table", "needs": ["grid"],
            "args": {"baseline": "ooo",
                     "columns": ["pre", "imp", "vr", "dvr", "oracle"],
                     "title": "Figure 7: speedup over the baseline OoO core",
                     "headers": ["benchmark", "pre", "imp", "vr", "dvr",
                                 "oracle"],
                     "notes": "Paper: DVR 2.4x h-mean (up to 6.4x); "
                              "VR ~1.2x; PRE ~1x."}}},
    }


class TestArtifactCache:
    def test_second_run_serves_artifacts(self, tiny_scale, fresh_context):
        dag = concretize(fig7_doc(), scale=tiny_scale)
        first = DagRunner(dag, context=fresh_context).run()
        assert first.stats["analyses_computed"] == 1
        assert first.stats["artifact_hits"] == 0
        second = DagRunner(dag, context=fresh_context).run()
        assert second.stats["analyses_computed"] == 0
        assert second.stats["artifact_hits"] == 1
        assert second.tables["table"].rows == first.tables["table"].rows
        assert second.artifacts == first.artifacts

    def test_no_cache_neither_reads_nor_writes_artifacts(self, tiny_scale,
                                                         tmp_path):
        """``--no-cache`` forces fresh analyses as well as fresh sims."""
        cache_dir = tmp_path / "cache"
        context = jobs.ExecutionContext(cache_dir=str(cache_dir),
                                        no_cache=True, store="")
        dag = concretize({
            "spec": {"name": "mini"},
            "matrix": {"name": "grid",
                       "workloads": [{"workload": "kangaroo"}],
                       "techniques": ["ooo", "dvr"]},
            "analysis": {"table": {"fn": "speedup_table", "needs": ["grid"],
                                   "args": {"columns": ["dvr"]}}},
        }, scale=tiny_scale)
        for _ in range(2):
            result = DagRunner(dag, context=context).run()
            assert result.stats["analyses_computed"] == 1
            assert result.stats["artifact_hits"] == 0
        assert not (cache_dir / "artifacts").exists()

    def test_knob_edit_recomputes_only_affected(self, tiny_scale,
                                                fresh_context):
        def doc(mshrs):
            return {
                "spec": {"name": "local"},
                "matrix": [
                    {"name": "a", "workloads": "scale",
                     "techniques": ["ooo", "dvr"],
                     "knobs": {"memsys.l1d_mshrs": [mshrs]}},
                    {"name": "b", "workloads": "scale",
                     "techniques": ["ooo", "vr"]},
                ],
                "analysis": {
                    "ta": {"fn": "speedup_table", "needs": ["a"],
                           "args": {"columns": ["dvr"]}},
                    "tb": {"fn": "speedup_table", "needs": ["b"],
                           "args": {"columns": ["vr"]}},
                },
            }
        first = DagRunner(concretize(doc(8), scale=tiny_scale),
                          context=fresh_context).run()
        assert first.stats["analyses_computed"] == 2

        # Edit one knob: only group a's 4 sims and analysis ta re-run;
        # group b's sims are cache hits and tb is an artifact hit.
        edited = DagRunner(concretize(doc(4), scale=tiny_scale),
                           context=fresh_context).run()
        assert edited.stats["analyses_computed"] == 1
        assert edited.stats["artifact_hits"] == 1
        assert edited.tables["tb"].rows == first.tables["tb"].rows

        records = RunLedger.read(fresh_context.ledger_path)
        executed = [r for r in records if r.get("cache") in ("miss", "off")]
        hits = [r for r in records if r.get("cache") == "hit"]
        # 8 sims executed in the first run + the 4 re-keyed sims of
        # group a; group b's 4 sims are served from cache.
        assert len(executed) == 12
        assert len(hits) == 4

    def test_dry_run_executes_nothing(self, tiny_scale, fresh_context):
        dag = concretize(fig7_doc(), scale=tiny_scale)
        runner = DagRunner(dag, context=fresh_context)
        preview = runner.dry_run()
        assert preview["sim_total"] == 12 and preview["sim_cached"] == 0
        assert preview["analysis_total"] == 1
        assert preview["artifact_cached"] == 0
        assert not RunLedger.read(fresh_context.ledger_path)

        text = runner.render_dry_run(preview)
        assert "12 sim" in text and "dry run: nothing executed" in text
        assert "level 0" in text and "table" in text

        runner.run()
        warmed = DagRunner(dag, context=fresh_context).dry_run()
        assert warmed["sim_cached"] == 12
        assert warmed["artifact_cached"] == 1


class TestSharedStore:
    @pytest.fixture
    def store_dir(self, tiny_scale, tmp_path):
        """A shared store that one machine's fig7 run has filled."""
        store_dir = str(tmp_path / "store")
        filler = jobs.ExecutionContext(cache_dir=str(tmp_path / "first"),
                                       store=store_dir)
        DagRunner(concretize(fig7_doc(), scale=tiny_scale),
                  context=filler).run()
        return store_dir

    def test_store_hit_backfills_the_local_artifact(self, tiny_scale,
                                                    tmp_path, store_dir):
        dag = concretize(fig7_doc(), scale=tiny_scale)
        cache_dir = str(tmp_path / "second")
        second = jobs.ExecutionContext(cache_dir=cache_dir, store=store_dir)
        assert DagRunner(dag, context=second).run().stats[
            "artifact_hits"] == 1
        assert ArtifactStore(cache_dir).contains(dag.analyses[0].hash)

    def test_dry_run_against_a_store_writes_nothing(self, tiny_scale,
                                                    tmp_path, store_dir):
        dag = concretize(fig7_doc(), scale=tiny_scale)
        empty = tmp_path / "empty"
        empty.mkdir()
        context = jobs.ExecutionContext(cache_dir=str(empty),
                                        store=store_dir)
        preview = DagRunner(dag, context=context).dry_run()
        assert (preview["sim_cached"], preview["artifact_cached"]) == (12, 1)
        assert DagRunner(dag, context=context).dry_run() == preview
        assert list(empty.iterdir()) == []


class TestProvenance:
    def test_ledger_records_dag_meta_row(self, tiny_scale, fresh_context):
        dag = concretize(fig7_doc(), scale=tiny_scale)
        DagRunner(dag, context=fresh_context).run()
        meta = [record for record
                in RunLedger.read(fresh_context.ledger_path)
                if record.get("meta") == "dag"]
        assert len(meta) == 1
        row = meta[0]
        assert row["spec"] == "fig7"
        assert row["spec_sha256"] == dag.spec.digest
        assert row["dag_hash"] == dag.dag_hash
        assert row["concretizer_version"] == dag.stats()[
            "concretizer_version"]
        assert row["nodes"] == 13 and row["sim_nodes"] == 12
        assert sorted(row["sim_keys"]) == sorted(
            node.job.key for node in dag.sim_nodes.values())

    def test_report_attributes_jobs_to_dag(self, tiny_scale, fresh_context):
        from repro.harness.ledger_report import (render_ledger_report,
                                                 summarize_ledger)
        DagRunner(concretize(fig7_doc(), scale=tiny_scale),
                  context=fresh_context).run()
        summary = summarize_ledger(fresh_context.ledger_path)
        assert len(summary["dags"]) == 1
        assert summary["dags"][0]["spec"] == "fig7"
        assert summary["dags"][0]["completed"] == 12
        text = render_ledger_report(summary)
        assert "dag fig7" in text and "12/12 sim(s) completed" in text


class TestScenarioSpec:
    def test_mere_style_sweep_without_engine_code(self, fresh_context):
        doc = {
            "spec": {"name": "mini-mere"},
            "matrix": {
                "name": "grid",
                "workloads": [{"workload": "kangaroo"}],
                "techniques": ["ooo", "dvr"],
                "knobs": {"core.rob_size": [16, 32],
                          "memsys.l1d_mshrs": [4, 8]},
                "exclude": [{"core.rob_size": 16,
                             "memsys.l1d_mshrs": 8}],
            },
            "analysis": {
                "speedup": {"fn": "knob_sweep", "needs": ["grid"],
                            "args": {"knobs": ["core.rob_size",
                                               "memsys.l1d_mshrs"],
                                     "techniques": ["dvr"]}},
                "mlp": {"fn": "knob_sweep", "needs": ["grid"],
                        "args": {"knobs": ["core.rob_size",
                                           "memsys.l1d_mshrs"],
                                 "techniques": ["ooo", "dvr"],
                                 "mode": "mean", "metric": "mlp"}},
            },
        }
        scale = ExperimentScale(max_instructions=1_500)
        result = run_spec_file(doc, scale=scale, context=fresh_context)
        speedup = result.tables["speedup"]
        # 2x2 combos minus the excluded corner.
        assert len(speedup.rows) == 3
        assert [row[:2] for row in speedup.rows] == [[16, 4], [32, 4],
                                                     [32, 8]]
        assert all(row[2] > 0 for row in speedup.rows)
        mlp = result.tables["mlp"]
        assert len(mlp.rows) == 3
        assert all(value > 0 for row in mlp.rows for value in row[2:])
        assert "mini-mere" not in result.render()   # titles, not spec name
        assert speedup.name in result.render()


class TestOutputs:
    def test_artifacts_are_json_clean(self, tiny_scale, fresh_context):
        result = run_spec_file(fig7_doc(), scale=tiny_scale,
                               context=fresh_context)
        artifact = result.artifacts["table"]
        assert json.loads(json.dumps(artifact)) == artifact
        assert set(artifact) == {"title", "headers", "rows", "notes"}

    def test_render_joins_tables_in_topological_order(self, tiny_scale,
                                                      fresh_context):
        result = run_spec_file(fig7_doc(), scale=tiny_scale,
                               context=fresh_context)
        assert result.render().startswith(
            "Figure 7: speedup over the baseline OoO core")
