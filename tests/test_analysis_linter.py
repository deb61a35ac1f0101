"""Determinism linter: rules, suppressions, fixes, CLI, clean tree."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

from repro.__main__ import main
from repro.analysis import lint_file, run_lint
from repro.analysis.fixes import RNG_NAME, fix_source
from repro.analysis.linter import LintReport, iter_source_files
from repro.analysis.rules import ALL_RULE_NAMES


def lint_source(source, relpath="uarch/fixture.py", rules=None):
    """Lint a source snippet as if it were a package file."""
    return lint_file("/fixture.py", relpath=relpath, rules=rules,
                     source=textwrap.dedent(source))


def rules_of(findings):
    return [f.rule for f in findings]


class TestNondetRules:
    def test_builtin_hash_and_id(self):
        findings = lint_source("""
            def key(node):
                return hash(node) ^ id(node)
        """)
        assert rules_of(findings) == ["nondet-hash", "nondet-id"]

    def test_bare_random_calls(self):
        findings = lint_source("""
            import random
            x = random.randint(0, 9)
            y = random.random()
            rng = random.Random()
        """)
        assert rules_of(findings) == ["nondet-bare-random"] * 3

    def test_seeded_random_is_clean(self):
        findings = lint_source("""
            import random
            rng = random.Random(12345)
            x = rng.randint(0, 9)
        """)
        assert findings == []

    def test_numpy_global_rng(self):
        findings = lint_source("""
            import numpy as np
            a = np.random.rand(4)
            b = np.random.default_rng()
            c = np.random.default_rng(7)     # seeded: fine
        """)
        assert rules_of(findings) == ["nondet-bare-random"] * 2

    def test_wall_clock_in_simulation_code(self):
        findings = lint_source("""
            import time
            def tick():
                return time.perf_counter()
        """)
        assert rules_of(findings) == ["nondet-time"]

    def test_wall_clock_exempt_in_infrastructure(self):
        for relpath in ("jobs/ledger.py", "serve/daemon.py",
                        "analysis/linter.py", "__main__.py"):
            findings = lint_source("""
                import time
                t = time.time()
            """, relpath=relpath)
            assert findings == [], relpath

    def test_set_iteration_forms(self):
        findings = lint_source("""
            frontier = set()
            for node in frontier:
                print(node)
            order = [n for n in {1, 2, 3}]
            first = frontier.pop()
        """)
        assert rules_of(findings) == ["nondet-set-iter"] * 3

    def test_self_attribute_sets_are_tracked(self):
        findings = lint_source("""
            class Walker:
                def __init__(self):
                    self.seen = set()
                def walk(self):
                    return list(self.seen)   # not iteration syntax: clean
                def drain(self):
                    for n in self.seen:
                        yield n
        """)
        assert rules_of(findings) == ["nondet-set-iter"]
        assert findings[0].line == 8

    def test_set_membership_is_clean(self):
        findings = lint_source("""
            seen = set()
            def visit(n):
                if n in seen:
                    return True
                seen.add(n)
                return len(seen) > 3
        """)
        assert findings == []

    def test_dict_iteration_is_exempt(self):
        findings = lint_source("""
            table = {}
            for key, value in table.items():
                print(key, value)
            for value in table.values():
                print(value)
        """)
        assert findings == []


class TestEngineQuiescenceRule:
    def test_tick_without_quiescent_is_flagged(self):
        findings = lint_source("""
            class ThrottleEngine:
                def tick(self, now, ports):
                    self.work += 1
        """)
        assert rules_of(findings) == ["engine-quiescence"]

    def test_tick_with_quiescent_is_clean(self):
        findings = lint_source("""
            class ThrottleEngine:
                def tick(self, now, ports):
                    self.work += 1
                def quiescent(self, now):
                    return self.work == 0
        """)
        assert findings == []

    def test_next_event_without_quiescent_is_flagged(self):
        findings = lint_source("""
            class WakeEngine:
                def next_event(self, now):
                    return now + 10
        """)
        assert rules_of(findings) == ["engine-quiescence"]

    def test_base_subclass_detected_without_name_suffix(self):
        findings = lint_source("""
            class Throttle(RunaheadEngine):
                def blocks_commit(self, now):
                    return True
        """)
        assert rules_of(findings) == ["engine-quiescence"]

    def test_non_engine_class_is_ignored(self):
        findings = lint_source("""
            class Clock:
                def tick(self, now, ports):
                    pass
        """)
        assert findings == []


class TestSuppressions:
    def test_allow_comment_suppresses(self):
        findings = lint_source("""
            x = hash("k")  # repro: allow(nondet-hash)
        """)
        assert len(findings) == 1 and findings[0].suppressed
        report = LintReport(findings, files_checked=1)
        assert report.ok and report.errors == []

    def test_allow_star_and_lists(self):
        findings = lint_source("""
            a = hash("k")  # repro: allow(*)
            b = id("k")    # repro: allow(nondet-hash, nondet-id)
            c = hash("k")  # repro: allow(nondet-id)
        """)
        suppressed = [f.suppressed for f in findings]
        assert suppressed == [True, True, False]

    def test_allow_list_tolerates_spacing(self):
        findings = lint_source("""
            a = hash("k")  # repro: allow( nondet-hash ,nondet-id )
        """)
        assert [f.suppressed for f in findings] == [True]

    def test_star_suppresses_multiple_rules_on_one_line(self):
        findings = lint_source("""
            a = hash("k") ^ id("k")  # repro: allow(*)
        """)
        assert len(findings) == 2
        assert all(f.suppressed for f in findings)

    def test_allow_comment_on_wrong_line_does_not_suppress(self):
        findings = lint_source("""
            # repro: allow(nondet-hash)
            a = hash("k")
        """)
        assert [f.suppressed for f in findings] == [False]


class TestFixes:
    def test_wrap_sorted(self):
        source = textwrap.dedent("""
            s = {3, 1, 2}
            for x in s:
                print(x)
        """)
        findings = lint_source(source)
        fixed, applied = fix_source(source, findings)
        assert applied == 1
        assert "for x in sorted(s):" in fixed
        assert lint_source(fixed) == []

    def test_reroute_random_inserts_seeded_rng(self):
        source = textwrap.dedent("""
            import random
            def jitter():
                return random.uniform(0.0, 1.0)
        """)
        findings = lint_source(source)
        fixed, applied = fix_source(source, findings)
        assert applied == 1
        assert f"return {RNG_NAME}.uniform(0.0, 1.0)" in fixed
        assert f"{RNG_NAME} = random.Random(" in fixed
        assert lint_source(fixed) == []

    def test_rng_line_inserted_once_for_many_fixes(self):
        source = textwrap.dedent("""
            import random
            a = random.random()
            b = random.randint(0, 3)
        """)
        findings = lint_source(source)
        fixed, applied = fix_source(source, findings)
        assert applied == 2
        assert fixed.count(f"{RNG_NAME} = random.Random(") == 1

    def test_suppressed_findings_are_not_fixed(self):
        source = 'import random\nx = random.random()  # repro: allow(nondet-bare-random)\n'
        findings = lint_source(source)
        fixed, applied = fix_source(source, findings)
        assert applied == 0 and fixed == source

    def test_stale_payload_is_skipped_not_botched(self):
        source = "import random\nx = random.random()\n"
        findings = lint_source(source)
        drifted = "import random\ny = 1  # line changed since linting\n"
        fixed, applied = fix_source(drifted, findings)
        assert applied == 0 and fixed == drifted

    def test_fix_is_idempotent(self):
        source = textwrap.dedent("""
            import random
            s = {3, 1, 2}
            for x in s:
                print(x)
            a = random.random()
        """)
        once, applied_once = fix_source(source, lint_source(source))
        assert applied_once == 2
        twice, applied_twice = fix_source(once, lint_source(once))
        assert applied_twice == 0
        assert twice == once

    def test_cli_fix_second_run_is_a_noop(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad), "--fix"]) == 0
        fixed_text = bad.read_text()
        assert main(["lint", str(bad), "--fix"]) == 0
        assert bad.read_text() == fixed_text


class TestTreeAndDiscovery:
    def test_repro_package_lints_clean(self):
        report = run_lint()
        assert report.files_checked > 40
        assert report.errors == [], "\n" + "\n".join(
            f.render() for f in report.errors)

    def test_iter_source_files_sorted_and_relative(self):
        pairs = list(iter_source_files())
        paths = [path for path, _ in pairs]
        assert paths == sorted(paths)
        rels = dict(pairs)
        assert any(rel == "config.py" for rel in rels.values())
        assert any(rel.startswith("uarch/") for rel in rels.values())
        assert not any("__pycache__" in path for path in paths)

    def test_rule_filter(self):
        source = "x = hash('k')\ny = id('k')\n"
        only_id = lint_source(source, rules={"nondet-id"})
        assert rules_of(only_id) == ["nondet-id"]

    def test_co_emitted_rule_selection_coupling(self):
        # nondet-id is emitted by the nondet-hash pass: selecting only
        # nondet-hash must not leak nondet-id findings, and selecting
        # only nondet-id must still run the shared pass.
        source = "x = hash('k')\ny = id('k')\n"
        only_hash = lint_source(source, rules={"nondet-hash"})
        assert rules_of(only_hash) == ["nondet-hash"]
        unrelated = lint_source(source, rules={"nondet-time"})
        assert unrelated == []

    def test_outside_tree_relpath_keeps_target_prefix(self, tmp_path):
        # A linted directory outside the package keeps its basename as
        # the relpath prefix, so prefix-keyed exemptions (tests/,
        # benchmarks/) apply to it.
        tree = tmp_path / "tests"
        tree.mkdir()
        (tree / "test_timing.py").write_text(
            "import time\nt0 = time.monotonic()\n")
        pairs = list(iter_source_files([str(tree)]))
        assert [rel for _path, rel in pairs] == ["tests/test_timing.py"]
        report = run_lint([str(tree)])
        assert report.errors == []   # tests/ is wall-clock exempt

    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n")
        assert rules_of(findings) == ["syntax-error"]


class TestLintCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = hash('k')\n")
        assert main(["lint", str(bad)]) == 1
        assert "nondet-hash" in capsys.readouterr().out

    def test_lint_json_report(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        out = tmp_path / "lint.json"
        assert main(["lint", str(bad), "--json", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False and report["errors"] == 1
        assert report["counts_by_rule"] == {"nondet-bare-random": 1}
        finding = report["findings"][0]
        assert finding["rule"] == "nondet-bare-random"
        assert finding["fixable"] is True

    def test_lint_fix_rewrites_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\nx = random.random()\n")
        assert main(["lint", str(bad), "--fix"]) == 0
        assert RNG_NAME in bad.read_text()

    def test_lint_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rules", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_rule_names_are_known(self):
        assert set(ALL_RULE_NAMES) >= {
            "nondet-hash", "nondet-id", "nondet-bare-random", "nondet-time",
            "nondet-set-iter", "engine-quiescence", "schema-roundtrip",
            "engine-contract", "race-unguarded-write", "race-no-guard",
            "lock-order", "time-exempt-drift"}


class TestTimeExemptDrift:
    def test_real_tree_has_no_drift(self):
        from repro.analysis.rules import check_time_exemptions
        assert check_time_exemptions() == []

    def test_stale_directory_prefix_is_flagged(self, monkeypatch):
        from repro.analysis import rules
        monkeypatch.setattr(rules, "TIME_EXEMPT_PREFIXES",
                            rules.TIME_EXEMPT_PREFIXES + ("ghost/",))
        findings = rules.check_time_exemptions()
        assert rules_of(findings) == ["time-exempt-drift"]
        assert "ghost/" in findings[0].message

    def test_stale_module_entry_is_flagged(self, monkeypatch):
        from repro.analysis import rules
        monkeypatch.setattr(rules, "TIME_EXEMPT_PREFIXES",
                            rules.TIME_EXEMPT_PREFIXES + ("__ghost__",))
        findings = rules.check_time_exemptions()
        assert rules_of(findings) == ["time-exempt-drift"]
        assert "__ghost__" in findings[0].message

    def test_unlisted_infra_package_is_flagged(self, monkeypatch):
        from repro.analysis import rules
        pruned = tuple(p for p in rules.TIME_EXEMPT_PREFIXES
                       if p != "serve/")
        monkeypatch.setattr(rules, "TIME_EXEMPT_PREFIXES", pruned)
        findings = rules.check_time_exemptions()
        assert findings and all(f.rule == "time-exempt-drift"
                                for f in findings)
        assert any("'serve'" in f.message for f in findings)


class TestDeterminismRegression:
    def test_metrics_stable_across_hash_seeds(self):
        """Pin PR 1's PYTHONHASHSEED fix: identical metrics under two
        adversarial interpreter hash seeds."""
        script = (
            "import json;"
            "from repro.config import SimConfig;"
            "from repro.harness.runner import run_workload;"
            "from repro.workloads import make_workload;"
            "m = run_workload(make_workload('bfs', graph='KR'),"
            "                 SimConfig(max_instructions=3000),"
            "                 technique='dvr');"
            "print(json.dumps(m.to_dict(), sort_keys=True))"
        )
        outputs = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        for seed in ("0", "424242"):
            env["PYTHONHASHSEED"] = seed
            result = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.strip())
        assert outputs[0] == outputs[1]
