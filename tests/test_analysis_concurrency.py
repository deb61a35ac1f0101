"""Concurrency analysis: static race/lock-order rules + thread sanitizer.

The static half is exercised on seeded synthetic racy classes -- an
unguarded mutation, a write outside its inferred guard, an AB/BA lock
cycle -- plus the clean shapes the pass must NOT flag (flag attributes,
thread-safe containers, ``__init__`` pre-sharing writes, ``@guarded_by``
bodies).  The runtime half gets a live lock-order inversion on a real
second thread, ``@guarded_by`` enforcement, and the bit-identical
metrics guarantee: a serve-daemon sweep with ``--sanitize-threads``
instrumentation on must equal the same sweep with it off.
"""

from __future__ import annotations

import json
import textwrap
import threading

import pytest

from repro.analysis import lint_file
from repro.analysis import threadsan
from repro.analysis.threadsan import (ThreadSanitizerError, guarded_by,
                                      make_lock, make_rlock)
from repro.cluster import Worker
from repro.config import SimConfig, TECH_OOO
from repro.harness.runner import run_spec
from repro.jobs import JobSpec, ResultCache, RunLedger
from repro.serve import ServeClient, ServeDaemon


def lint_source(source, relpath="serve/fixture.py", rules=None):
    return lint_file("/fixture.py", relpath=relpath, rules=rules,
                     source=textwrap.dedent(source))


def rules_of(findings):
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# Static pass: the three rules fire on synthetic racy classes
# ---------------------------------------------------------------------------
class TestRaceNoGuard:
    def test_unguarded_mutation_across_threads(self):
        findings = lint_source("""
            import threading

            class Tally:
                def __init__(self):
                    self.items = []
                def start(self):
                    threading.Thread(target=self._worker,
                                     daemon=True).start()
                def _worker(self):
                    self.items.append(1)
                def totals(self):
                    return list(self.items)
        """)
        assert rules_of(findings) == ["race-no-guard"]
        assert "self.items" in findings[0].message

    def test_handler_assignment_counts_as_thread_entry(self):
        findings = lint_source("""
            class Handler:
                def __init__(self, owner):
                    self.owner = owner
                    self.owner.on_event = self._on_event
                    self.seen = []
                def _on_event(self, event):
                    self.seen.append(event)
                def drain(self):
                    return list(self.seen)
        """)
        assert rules_of(findings) == ["race-no-guard"]

    def test_augmented_assignment_is_a_mutation(self):
        findings = lint_source("""
            import threading

            class Meter:
                def __init__(self):
                    self.total = 0
                def start(self):
                    threading.Thread(target=self._count).start()
                def _count(self):
                    self.total += 1
                def read(self):
                    return self.total
        """)
        assert rules_of(findings) == ["race-no-guard"]

    def test_constant_flag_rebinds_are_exempt(self):
        findings = lint_source("""
            import threading

            class Stoppable:
                def __init__(self):
                    self._closing = False
                def start(self):
                    threading.Thread(target=self._loop).start()
                def _loop(self):
                    while not self._closing:
                        pass
                def close(self):
                    self._closing = True
        """)
        assert findings == []

    def test_thread_safe_containers_are_exempt(self):
        findings = lint_source("""
            import queue
            import threading

            class Pump:
                def __init__(self):
                    self.events = queue.Queue()
                    self.stop = threading.Event()
                def start(self):
                    threading.Thread(target=self._loop).start()
                def _loop(self):
                    self.events.put(1)
                def drain(self):
                    self.stop.set()
                    return self.events.get()
        """)
        assert findings == []

    def test_package_thread_safe_classes_are_exempt(self):
        # SessionRegistry is declared @thread_safe in repro.serve; the
        # cached package scan must exempt attributes holding one.
        findings = lint_source("""
            import threading

            class Daemon:
                def __init__(self):
                    self.registry = SessionRegistry()
                def start(self):
                    threading.Thread(target=self._loop).start()
                def _loop(self):
                    self.registry.remove("s1")
                def status(self):
                    return len(self.registry)
        """)
        assert findings == []

    def test_init_only_writes_are_pre_sharing(self):
        findings = lint_source("""
            import threading

            class Table:
                def __init__(self):
                    self.rows = []
                    self.rows.append("header")
                def start(self):
                    threading.Thread(target=self._loop).start()
                def _loop(self):
                    return list(self.rows)
                def read(self):
                    return list(self.rows)
        """)
        assert findings == []

    def test_single_threaded_class_is_ignored(self):
        findings = lint_source("""
            class Plain:
                def __init__(self):
                    self.items = []
                def add(self, x):
                    self.items.append(x)
                def read(self):
                    return list(self.items)
        """)
        assert findings == []


class TestRaceUnguardedWrite:
    def test_write_outside_inferred_guard(self):
        findings = lint_source("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def start(self):
                    threading.Thread(target=self._bump).start()
                def _bump(self):
                    with self._lock:
                        self.count += 1
                def reset(self):
                    self.count += 1
        """)
        assert rules_of(findings) == ["race-unguarded-write"]
        assert "self._lock" in findings[0].message
        assert "reset" in findings[0].message

    def test_fully_guarded_class_is_clean(self):
        findings = lint_source("""
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0
                def start(self):
                    threading.Thread(target=self._bump).start()
                def _bump(self):
                    with self._lock:
                        self.count += 1
                def read(self):
                    with self._lock:
                        return self.count
        """)
        assert findings == []

    def test_guarded_by_decorator_counts_as_guarded(self):
        findings = lint_source("""
            import threading

            class Jobs:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.jobs = []
                def start(self):
                    threading.Thread(target=self._worker).start()
                def _worker(self):
                    with self._lock:
                        self._push(1)
                @guarded_by("_lock")
                def _push(self, item):
                    self.jobs.append(item)
                def flush(self):
                    with self._lock:
                        return list(self.jobs)
        """)
        assert findings == []

    def test_alias_resolved_lock_guards(self):
        findings = lint_source("""
            import threading

            class Wrapper:
                def __init__(self, owner):
                    self.owner = owner
                    self.owner.handler = self._handle
                    self.log = []
                def _handle(self, event):
                    owner = self.owner
                    with owner._lock:
                        self.log.append(event)
                def dump(self):
                    with self.owner._lock:
                        return list(self.log)
        """)
        assert findings == []


class TestLockOrder:
    def test_ab_ba_cycle_is_flagged(self):
        findings = lint_source("""
            import threading

            class Orders:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def ab(self):
                    with self._a:
                        with self._b:
                            pass
                def ba(self):
                    with self._b:
                        with self._a:
                            pass
        """)
        assert rules_of(findings) == ["lock-order", "lock-order"]
        assert "cycle" in findings[0].message

    def test_consistent_nesting_is_clean(self):
        findings = lint_source("""
            import threading

            class Orders:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def one(self):
                    with self._a:
                        with self._b:
                            pass
                def two(self):
                    with self._a:
                        with self._b:
                            pass
        """)
        assert findings == []

    def test_suppression_comment_applies(self):
        findings = lint_source("""
            import threading

            class Orders:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def ab(self):
                    with self._a:
                        with self._b:  # repro: allow(lock-order)
                            pass
                def ba(self):
                    with self._b:
                        with self._a:  # repro: allow(lock-order)
                            pass
        """)
        assert all(f.suppressed for f in findings)

    def test_rule_selection_runs_the_shared_pass(self):
        source = """
            import threading

            class Orders:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()
                def ab(self):
                    with self._a:
                        with self._b:
                            pass
                def ba(self):
                    with self._b:
                        with self._a:
                            pass
        """
        only = lint_source(source, rules={"lock-order"})
        assert rules_of(only) == ["lock-order", "lock-order"]
        none = lint_source(source, rules={"race-no-guard"})
        assert none == []


# ---------------------------------------------------------------------------
# Runtime sanitizer
# ---------------------------------------------------------------------------
@pytest.fixture
def san():
    threadsan.enable()
    try:
        yield threadsan.sanitizer()
    finally:
        threadsan.disable(reset=True)


class TestThreadSanitizer:
    def test_lock_order_inversion_detected(self, san):
        a = make_lock("A")
        b = make_lock("B")
        with a:
            with b:
                pass
        with b:
            with pytest.raises(ThreadSanitizerError):
                a.acquire()
        assert san.violations and "inversion" in san.violations[0]

    def test_live_inversion_on_a_second_thread(self, san):
        a = make_lock("A")
        b = make_lock("B")
        with a:
            with b:
                pass                 # main thread records A -> B
        caught = []

        def invert():
            try:
                with b:
                    with a:          # B -> A closes the cycle
                        pass
            except ThreadSanitizerError as error:
                caught.append(str(error))

        thread = threading.Thread(target=invert)
        thread.start()
        thread.join(timeout=10)
        assert caught and "inversion" in caught[0]
        assert san.violations       # recorded, not lost with the thread

    def test_consistent_order_across_threads_is_clean(self, san):
        a = make_lock("A")
        b = make_lock("B")

        def nest():
            with a:
                with b:
                    pass

        threads = [threading.Thread(target=nest) for _ in range(2)]
        nest()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert san.violations == []
        assert san.acquisitions >= 6

    def test_rlock_reentrancy_is_not_an_edge(self, san):
        lock = make_rlock("R")
        with lock:
            with lock:
                pass
        assert san.violations == []
        assert "R" not in san.edges.get("R", {})

    def test_guarded_by_is_enforced(self, san):
        class Box:
            def __init__(self):
                self._lock = make_lock("Box._lock")
                self.items = []

            @guarded_by("_lock")
            def push(self, item):
                self.items.append(item)

        box = Box()
        with box._lock:
            box.push(1)              # held: fine
        with pytest.raises(ThreadSanitizerError):
            box.push(2)              # bare call: flagged
        assert san.guard_checks == 2
        assert any("push" in v for v in san.violations)

    def test_disabled_factories_return_plain_locks(self):
        was_enabled = threadsan.enabled()
        threadsan.disable(reset=True)
        try:
            lock = make_lock("plain")
            assert not isinstance(lock, threadsan.SanLock)

            class Box:
                def __init__(self):
                    self._lock = make_lock()
                    self.items = []

                @guarded_by("_lock")
                def push(self, item):
                    self.items.append(item)

            box = Box()
            box.push(1)              # no enforcement when disabled
            assert box.items == [1]
            assert box.push.__guarded_by__ == "_lock"
        finally:
            if was_enabled:
                threadsan.enable()


# ---------------------------------------------------------------------------
# Metrics stay bit-identical with instrumentation on
# ---------------------------------------------------------------------------
def _serve_sweep(tmp_path):
    """One daemon + one worker + one client sweep; canonical metrics."""
    specs = [JobSpec(workload=w, params={},
                     config=SimConfig(max_instructions=1200
                                      ).with_technique(TECH_OOO),
                     seed=seed)
             for seed, w in enumerate(["nas-is", "kangaroo"], start=1)]
    store = ResultCache(str(tmp_path / "store"))
    ledger = RunLedger(str(tmp_path / "runs.jsonl"))
    daemon = ServeDaemon(store=store, ledger=ledger, quiet=True,
                         retry_base=0.05, retry_cap=0.2, job_timeout=120)
    daemon.start()
    worker = Worker(f"127.0.0.1:{daemon.port}",
                    worker_id="sanw", run_job=run_spec)
    thread = threading.Thread(target=worker.serve, daemon=True)
    thread.start()
    daemon.wait_for_workers(1, timeout=60)
    results = {}
    client = ServeClient(f"127.0.0.1:{daemon.port}")
    try:
        failed = client.run(
            specs, lambda spec, metrics, **meta:
            results.__setitem__(spec.key, metrics))
    finally:
        client.close()
        daemon.close()
    assert failed == {}
    return [json.dumps(results[s.key].to_dict(), sort_keys=True)
            for s in specs]


class TestBitIdenticalUnderSanitizer:
    def test_serve_sweep_matches_with_and_without(self, tmp_path):
        plain = _serve_sweep(tmp_path / "plain")
        threadsan.enable()
        try:
            sanitized = _serve_sweep(tmp_path / "sanitized")
            tracker = threadsan.sanitizer()
            assert tracker.violations == []
            assert tracker.acquisitions > 0   # instrumentation was live
        finally:
            threadsan.disable(reset=True)
        assert sanitized == plain
