"""End-to-end chaos run: the whole fault matrix over a loopback cluster.

``repro chaos --seed S`` drives this module.  One run:

1. executes a pinned smoke sweep serially with no faults (the baseline);
2. re-executes it on a loopback serve daemon + in-process workers with
   every seam wrapped by a :class:`FaultInjector` (authenticated with a
   shared secret, so the auth path is exercised too), recording the
   :class:`FaultPlan` into the run ledger before the first job;
3. re-executes it once more through the resume path, over the damaged
   cache and torn ledger the chaos pass left behind;
4. verifies both surviving result sets are bit-identical to the
   baseline, and that a stale-salt or wrong-secret worker never joins.

The fault schedule is content-keyed on the plan seed, so the same
``--seed`` replays the same faults bit-identically.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
import warnings

from ..config import SimConfig, TECH_DVR, TECH_OOO
from ..jobs import (Executor, JobSpec, NullCache, NullLedger, ResultCache,
                    RunLedger)
from .inject import FaultInjector, WorkerCrash
from .plan import FaultPlan

#: (workload, technique, seed) triples of the pinned chaos smoke sweep.
_CHAOS_POINTS = (
    ("nas-is", TECH_OOO, 101),
    ("kangaroo", TECH_OOO, 102),
    ("randomaccess", TECH_OOO, 103),
    ("nas-is", TECH_DVR, 104),
    ("camel", TECH_OOO, 105),
    ("kangaroo", TECH_DVR, 106),
)


class _SilentProgress:
    def update(self, done, total, spec, cached):
        pass

    def finish(self, total, cached, wall_s):
        pass


def chaos_specs(count=None, max_instructions=1_200):
    """The pinned smoke sweep every chaos run executes."""
    points = _CHAOS_POINTS[:count] if count else _CHAOS_POINTS
    return [JobSpec(workload=workload, params={},
                    config=SimConfig(max_instructions=max_instructions
                                     ).with_technique(technique),
                    seed=seed)
            for workload, technique, seed in points]


def _canonical(metrics):
    return json.dumps(metrics.to_dict(), sort_keys=True)


def _match(baseline, results):
    """(identical, holes): bit-compare, ignoring gave-up (None) slots."""
    holes = sum(1 for metrics in results if metrics is None)
    identical = all(metrics is None or _canonical(metrics) == _canonical(
        expected) for expected, metrics in zip(baseline, results))
    return identical, holes


def run_chaos(seed, cache_dir=None, *, workers=3, count=None, plan=None,
              secret="chaos-secret", stream=None):
    """Run the fault matrix end-to-end; returns the report dict.

    The report's ``ok`` field is the overall verdict: every surviving
    result bit-identical to the fault-free baseline, unauthenticated /
    stale workers rejected, and the resume pass healed the damaged
    persistence layer.
    """
    from ..cluster import Worker, query_status
    from ..harness.runner import run_spec
    from ..serve import ServeClient, ServeDaemon, ServeExecutor

    stream = stream if stream is not None else sys.stderr
    plan = plan if plan is not None else FaultPlan.standard(seed)
    if plan.seed != int(seed):
        raise ValueError(f"plan seed {plan.seed} != --seed {seed}")
    scratch = None
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        cache_dir = scratch.name

    def log(text):
        print(f"[chaos] {text}", file=stream, flush=True)

    try:
        specs = chaos_specs(count)
        log(f"seed {plan.seed}: {len(specs)} spec(s), "
            f"{len(plan.rules)} armed fault rule(s)")

        # -- 1. fault-free serial baseline -----------------------------
        baseline = Executor(jobs=1, cache=NullCache(), ledger=NullLedger(),
                            progress=_SilentProgress()).run(specs)
        log("baseline: fault-free serial sweep done")

        # -- 2. chaos pass over an authenticated loopback cluster ------
        injector = FaultInjector(plan)
        ledger_path = os.path.join(cache_dir, "runs.jsonl")
        ledger = injector.wrap_ledger(RunLedger(ledger_path))
        cache = injector.wrap_cache(ResultCache(cache_dir))
        ledger.record_meta("chaos-plan", seed=plan.seed, plan=plan.to_dict())

        daemon = ServeDaemon(job_timeout=2.5, heartbeat_timeout=2.5,
                             retry_base=0.05, retry_cap=0.2, max_attempts=8,
                             worker_grace=30.0, secret=secret)
        daemon.start()
        address = daemon.address
        stop = threading.Event()

        def worker_kwargs(worker_id):
            return dict(worker_id=worker_id, run_job=run_spec,
                        secret=secret, injector=injector, quiet=True,
                        heartbeat_interval=0.5, socket_timeout=1.0,
                        coordinator_timeout=6.0, reconnect=0)

        def rejoin_loop(worker_id):
            # Crashed / partitioned / disconnected workers dial back in,
            # like a supervised fleet would, until the run is over.
            while not stop.is_set():
                worker = Worker(address, **worker_kwargs(worker_id))
                try:
                    code = worker.serve()
                except WorkerCrash:
                    continue
                if code == 2:        # rejected: config problem, stay out
                    return
                time.sleep(0.05)

        threads = [threading.Thread(target=rejoin_loop, args=(f"chaos-w{i}",),
                                    daemon=True) for i in range(workers)]
        for thread in threads:
            thread.start()
        daemon.wait_for_workers(workers, timeout=30)

        # Hostile dialers must bounce off the handshake, not join.
        stale = Worker(address, salt="stale-tree",
                       **{**worker_kwargs("stale-w"), "injector": None})
        stale_rejected = stale.serve() == 2 and not any(
            w.label == "stale-w" for w in daemon.live_workers())
        bad_secret = Worker(address, **{**worker_kwargs("intruder-w"),
                                        "secret": secret + "-wrong",
                                        "injector": None})
        intruder_rejected = bad_secret.serve() == 2 and not any(
            w.label == "intruder-w" for w in daemon.live_workers())
        log(f"handshake: stale-salt rejected={stale_rejected}, "
            f"wrong-secret rejected={intruder_rejected}")

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            client = ServeClient(address, secret=secret, tls=False)
            executor = ServeExecutor(client, cache=cache, ledger=ledger,
                                     on_failure="report",
                                     progress=_SilentProgress())
            chaos_results = executor.run(specs)
        status = query_status(address, secret=secret)
        stop.set()
        client.close()
        daemon.close()
        for thread in threads:
            thread.join(timeout=5)

        chaos_identical, chaos_holes = _match(baseline, chaos_results)
        fired = injector.summary()
        log(f"chaos pass: identical={chaos_identical}, "
            f"gave-up={chaos_holes}, faults fired: "
            + (", ".join(f"{site} x{n}" for site, n in sorted(fired.items()))
               or "none"))

        # -- 3. resume pass over the damaged cache + torn ledger -------
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resume_index = RunLedger.completed_index(ledger_path)
            resume_cache = ResultCache(cache_dir)
            resume_results = Executor(
                jobs=1, cache=resume_cache,
                ledger=RunLedger(ledger_path), on_failure="report",
                resume_index=resume_index,
                progress=_SilentProgress()).run(specs)
            records = RunLedger.read(ledger_path)
        resume_identical, resume_holes = _match(baseline, resume_results)
        replayed = sum(1 for r in records if r.get("cache") == "resume")
        log(f"resume pass: identical={resume_identical}, "
            f"{replayed} replayed from the ledger, "
            f"{len(caught)} degradation warning(s), "
            f"{resume_cache.corrupt} corrupt cache entr(ies) healed")

        failures = executor.failure_report
        ok = (chaos_identical and resume_identical and chaos_holes == 0
              and resume_holes == 0 and stale_rejected and intruder_rejected)
        report = {
            "seed": plan.seed,
            "ok": ok,
            "specs": len(specs),
            "plan": plan.to_dict(),
            "schedule": injector.schedule(),
            "faults_fired": fired,
            "chaos_identical": chaos_identical,
            "resume_identical": resume_identical,
            "gave_up": chaos_holes + resume_holes,
            "stale_salt_rejected": stale_rejected,
            "wrong_secret_rejected": intruder_rejected,
            "resume_replayed": replayed,
            "corrupt_cache_entries": resume_cache.corrupt,
            "workers_seen": len(status.get("workers", [])),
            "failure_report": failures.to_dict(),
        }
        ledger.record_meta("chaos-report",
                           **{key: report[key] for key in
                              ("seed", "ok", "schedule", "faults_fired",
                               "chaos_identical", "resume_identical",
                               "gave_up")})
        log("PASS" if ok else "FAIL")
        if failures:
            log(failures.render())
        return report
    finally:
        if scratch is not None:
            scratch.cleanup()
