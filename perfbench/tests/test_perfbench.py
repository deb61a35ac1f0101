"""Tests of the benchmark's own machinery (not of the simulator).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import os
import sys
from dataclasses import replace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import check, probes, stats  # noqa: E402
from perfbench.run import transfer_s  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(probes, "perf", fake)
    return fake


def gc_pause(tracer, clock, seconds, generation=2):
    tracer._on_gc("start", {"generation": generation})
    clock.advance(seconds)
    tracer._on_gc("stop", {"generation": generation})


def test_self_time_subtracts_nested_spans_and_gc(clock):
    tracer = probes.Tracer(spans=True)
    tick = tracer.fine("memsys.tick", lambda: clock.advance(2.0))

    def loop():
        clock.advance(1.0)
        tick()
        gc_pause(tracer, clock, 0.5)
        clock.advance(0.25)

    run = tracer.coarse("uarch.run", loop)

    def job():
        clock.advance(3.0)
        run()

    run_spec = tracer.coarse("harness.run_spec", job)
    tracer.open_window()
    start = clock()
    clock.advance(1.0)
    run_spec()
    gc_pause(tracer, clock, 0.0625, generation=0)   # at the window's top
    clock.advance(0.125)
    window = clock() - start

    layers = tracer.layer_self_s(window)
    assert layers["memsys"] == 2.0
    assert layers["uarch"] == 1.25
    assert layers["harness"] == 3.0
    assert layers["gc"] == 0.5625
    assert layers["other"] == 1.125
    assert sum(layers.values()) == window
    assert tracer.gc == {"pause_s": 0.5625, "collections": 2, "gen2": 1}

    spans = {span[1]: span for span in tracer.spans}
    assert spans["gc.gen2"][4] == spans["uarch.run"][0]
    assert spans["uarch.run"][4] == spans["harness.run_spec"][0]
    assert spans["harness.run_spec"][4] == 0
    assert spans["gc.gen0"][4] == 0
    assert tracer.totals["uarch.run"] == [1, 3.75, 1.25]


def test_span_wrapper_closes_on_exception(clock):
    tracer = probes.Tracer()

    def fail():
        clock.advance(1.0)
        raise ValueError("boom")

    wrapped = tracer.coarse("jobs.cache_get", fail)
    tracer.open_window()
    with pytest.raises(ValueError):
        wrapped()
    assert tracer.stack == [1.0]
    assert tracer.current == 0
    assert tracer.layer_self_s(1.0)["jobs"] == 1.0


def test_flush_sim_moves_counters_into_totals(clock):
    tracer = probes.Tracer()
    step = tracer.fine("branch.predict", lambda: clock.advance(0.5))
    tracer.open_window()
    step()
    step()
    assert tracer.flush_sim("job-a") == {"branch.predict": [2, 1.0, 1.0]}
    step()
    tracer.flush_sim("job-b")
    assert tracer.per_sim["job-b"] == {"branch.predict": [1, 0.5, 0.5]}
    assert probes.sum_counters(tracer.totals, "branch.") == (3, 1.5)


@pytest.mark.parametrize("samples, value, percentile, beyond", [
    (11, 0, 100 / 11, 10),
    (20, 9, 50.0, 10),
    (100, 89, 90.0, 10),
    (1000, 989, 99.0, 10),
    (10, 9, 100.0, 0),
    (1, 0, 100.0, 0),
])
def test_tail_is_highest_percentile_with_ten_beyond(samples, value,
                                                    percentile, beyond):
    values = list(range(samples))[::-1]
    got = stats.tail(values)
    assert got == (value, pytest.approx(percentile), samples, beyond)
    assert sum(1 for v in values if v > got[0]) == beyond


def test_quartiles_and_spread():
    assert stats.quartiles([5.0]) == (5.0, 5.0, 5.0)
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)
    assert stats.spread(values) == pytest.approx(5.5 / 5.5)


def test_transfer_is_observed_time_minus_worker_time():
    jobs = [
        {"submitted": 0.0, "arrived": 1.5, "wall_s": 1.0, "worker": 7},
        {"submitted": 0.0, "arrived": 1.25, "wall_s": 1.0, "worker": 8},
        {"submitted": 0.0, "arrived": 3.75, "wall_s": 2.0, "worker": 7},
    ]
    # worker 7: 1.5 - 1.0, then (3.75 - 1.5) - 2.0; worker 8: 0.25
    assert transfer_s({"pool": jobs}) == pytest.approx(0.5 + 0.25 + 0.25)
    assert transfer_s({}) == 0.0


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def simulated():
    from repro.config import SimConfig
    from repro.harness.runner import run_spec
    from repro.jobs.spec import JobSpec

    config = SimConfig(max_instructions=300)
    config = replace(config, memsys=replace(
        config.memsys, guest_memory_bytes=8 * 2 ** 20)).with_technique("dvr")
    spec = JobSpec(workload="nas-is", config=config, seed=3)
    return spec, run_spec(spec)


def perturbations(value):
    """Copies of a metrics-dict value with exactly one leaf changed."""
    if isinstance(value, bool):
        yield not value
    elif isinstance(value, (int, float)):
        yield value + 1
    elif isinstance(value, str):
        yield value + "x"
    elif isinstance(value, (list, tuple)):
        yield list(value) + [0]
    elif value is None:
        yield 0
    elif isinstance(value, dict):
        if not value:
            yield {"extra": 1}
        for key in value:
            for changed in perturbations(value[key]):
                copy_ = copy.deepcopy(value)
                copy_[key] = changed
                yield copy_
                break
            break


def test_check_passes_clean_run_against_its_golden(simulated):
    spec, metrics = simulated
    ops = check.op_records([([spec], [metrics])], ["dag"])
    assert ops[0]["errors"] == []
    passes = [{"ops": ops, "tables": {"dag": check.table_digest("t")}}]
    golden = check.golden_entry(passes)
    assert check.check_passes(passes, golden) == (1, 0, [])
    assert check.check_passes(passes * 3, None) == (3, 0, [])


def test_check_rejects_each_single_perturbed_metrics_field(simulated):
    from repro.harness.metrics import _FIELDS, Metrics

    spec, metrics = simulated
    clean = check.op_records([([spec], [metrics])], ["dag"])
    golden = check.golden_entry([{"ops": clean, "tables": {}}])
    data = metrics.to_dict()
    for field in _FIELDS + ("config",):
        changed = next(perturbations(data[field]), None)
        assert changed is not None, field
        bad = copy.deepcopy(data)
        bad[field] = changed
        try:
            perturbed = Metrics.from_dict(bad)
        except (TypeError, ValueError, KeyError):
            continue                    # config that no longer parses
        ops = check.op_records([([spec], [perturbed])], ["dag"])
        attempted, failed, problems = check.check_passes(
            [{"ops": ops, "tables": {}}], golden)
        assert (attempted, failed) == (1, 1), field
        # without goldens, the same change is caught against another pass
        assert check.check_passes(
            [{"ops": clean, "tables": {}}, {"ops": ops, "tables": {}}],
            None)[1] == 1, field


def test_check_counts_missing_results_tables_and_crashed_passes(simulated):
    spec, metrics = simulated
    ops = check.op_records([([spec, spec], [metrics, None])], ["dag"])
    assert ops[1]["errors"] == ["no result"]
    good = {"ops": ops[:1], "tables": {"dag": "aaaa"}}
    bad_table = {"ops": ops[:1], "tables": {"dag": "bbbb"}}
    crashed = {"error": "pass timed out", "planned_ops": 4}
    attempted, failed, problems = check.check_passes(
        [good, {"ops": ops, "tables": {"dag": "aaaa"}}, bad_table, crashed],
        None)
    assert (attempted, failed) == (1 + 2 + 1 + 4, 1 + 1 + 4)
    assert len(problems) == 4


def test_invariants_catch_inconsistent_metrics(simulated):
    from repro.harness.metrics import Metrics

    spec, metrics = simulated
    limit = spec.config.max_instructions
    assert check.invariant_errors(metrics, limit) == []
    data = metrics.to_dict()
    data["ipc"] = data["ipc"] * 2
    assert check.invariant_errors(Metrics.from_dict(data), limit) == [
        "ipc != committed / cycles"]
    data = metrics.to_dict()
    data["committed"] = limit * 2
    assert "committed outside the instruction budget" in \
        check.invariant_errors(Metrics.from_dict(data), limit)


def test_check_fails_operations_and_tables_a_pass_lacks(simulated):
    spec, metrics = simulated
    ops = check.op_records([([spec], [metrics])], ["dag"])
    full = {"ops": ops, "tables": {"dag": "aaaa"}}
    golden = check.golden_entry([full])
    empty = {"ops": [], "tables": {}}
    assert check.check_passes([empty], golden)[:2] == (1, 1)
    attempted, failed, problems = check.check_passes([full, empty], None)
    assert (attempted, failed) == (2, 1)
    assert any("table dag missing" in p for p in problems)
