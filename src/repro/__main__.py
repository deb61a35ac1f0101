"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig7 --instructions 20000 --graphs KR UR
    python -m repro fig7 --jobs 8          # process-pool parallel sweep
    python -m repro all --scale full --jobs 8
    python -m repro run bfs --graph KR --technique dvr
    python -m repro run bfs --graph KR --sanitize   # invariant assertions
    python -m repro lint                   # determinism/correctness linter
    python -m repro lint --json lint.json --fix
    python -m repro cache stats
    python -m repro cache clear
    python -m repro cache prune --keep-current
    python -m repro cache prune --max-bytes 500000000
    python -m repro sweep fig7 --backend cluster --workers 4
    python -m repro sweep fig7 --resume --keep-going
    python -m repro cluster worker --connect 10.0.0.5:7077 --secret S
    python -m repro cluster status --connect 10.0.0.5:7077
    python -m repro serve --bind 0.0.0.0:7077 --workers 4 \
        --tls-cert serve.crt --tls-key serve.key --store /mnt/repro-store
    python -m repro submit fig7 --connect 10.0.0.5:7077 --tls-ca serve.crt
    python -m repro jobs --connect 10.0.0.5:7077 --tls-ca serve.crt
    python -m repro chaos --seed 7         # fault-injection matrix
    python -m repro report --from-ledger ~/.cache/repro/runs.jsonl
    python -m repro env show --spec specs/fig7.toml
    python -m repro env concretize --spec specs/mere_rob.toml
    python -m repro env run --spec specs/fig7.toml --dry-run
    python -m repro env run --spec specs/fig7.toml --jobs 8 --out out.jsonl

Experiment commands execute through the ``repro.jobs`` engine: results
are cached on disk (``--cache-dir``, default ``~/.cache/repro``) keyed by
simulation content + code version, every job is appended to the
``runs.jsonl`` ledger there, and ``--jobs N`` fans simulations out over N
worker processes.  ``--no-cache`` forces fresh simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import jobs
from .config import ALL_TECHNIQUES, DVR_BREAKDOWN, SimConfig
from .harness.experiments import ALL_EXPERIMENTS, ExperimentScale
from .harness.runner import run_workload
from .workloads import ALL_WORKLOADS, GAP_WORKLOADS, make_workload


def _scale_from_args(args):
    if args.scale == "full":
        scale = ExperimentScale.full()
    else:
        scale = ExperimentScale()
    if args.graphs:
        scale.gap_graphs = tuple(args.graphs)
    if args.instructions:
        scale.max_instructions = args.instructions
    if args.no_fast_forward:
        scale.fast_forward = False
    if args.sanitize:
        scale.sanitize = True
    return scale


def cmd_list(_args):
    print("experiments:", ", ".join(sorted(ALL_EXPERIMENTS)))
    print("workloads:  ", ", ".join(sorted(ALL_WORKLOADS)))
    print("techniques: ", ", ".join(ALL_TECHNIQUES + DVR_BREAKDOWN[1:3]))
    return 0


def _maybe_save(result, args):
    if not args.out:
        return
    payload = {"name": result.name, "headers": result.headers,
               "rows": result.rows, "notes": result.notes}
    with open(args.out, "a") as handle:
        handle.write(json.dumps(payload) + "\n")
    print(f"[saved {result.name!r} -> {args.out}]")


def cmd_experiment(args):
    experiment = ALL_EXPERIMENTS[args.command]
    if args.command == "table1":
        result = experiment()
    else:
        result = experiment(_scale_from_args(args))
    print(result.render())
    _maybe_save(result, args)
    return 0


def cmd_all(args):
    scale = _scale_from_args(args)
    for name in ("table1", "table2", "fig2", "fig7", "fig8", "fig9",
                 "fig10", "fig11", "fig12"):
        experiment = ALL_EXPERIMENTS[name]
        result = experiment() if name == "table1" else experiment(scale)
        print(result.render())
        print()
        _maybe_save(result, args)
    return 0


def _print_tier_stats(label, stores):
    """One tier's generations of each kind (results, artifacts)."""
    print(f"{label:13s} {stores[0].root}")
    print(f"current salt  {stores[0].salt}")
    for store in stores:
        generations = store.stats()["generations"]
        if not generations:
            print(f"{store.kind:13s} 0 entries")
        for salt, info in generations.items():
            marker = " (current)" if salt == store.salt else ""
            print(f"{store.kind:13s} {salt}{marker}: {info['entries']} "
                  f"entries, {info['bytes']:,} bytes")


def cmd_cache(args):
    from .specs import ArtifactStore
    action = args.workload or "stats"
    context = jobs.get_context()
    kinds = (jobs.ResultCache, ArtifactStore)
    if action == "stats":
        tiers = [("cache dir", context.cache_dir)]
        if context.store_dir:
            tiers.append(("shared store", context.store_dir))
        for label, root in tiers:
            _print_tier_stats(label, [kind(root) for kind in kinds])
        ledger = jobs.RunLedger.read(context.ledger_path)
        print(f"ledger        {len(ledger)} run(s) recorded")
        return 0
    # clear/prune operate on the machine-local tier: the shared store is
    # fleet-wide state other machines are reading.  It has the same
    # layout, so naming it as --cache-dir prunes it deliberately.
    results, artifacts = (kind(context.cache_dir) for kind in kinds)
    if action == "clear":
        removed = results.clear()
        dropped = artifacts.clear()
        print(f"removed {removed} cached result(s) and {dropped} "
              f"artifact(s)")
        return 0
    if action == "prune":
        if not args.keep_current and args.max_bytes is None:
            print("cache prune needs a mode: --keep-current drops stale "
                  "salt generations, --max-bytes N evicts oldest current-"
                  "generation entries over the byte budget",
                  file=sys.stderr)
            return 2
        if args.keep_current:
            removed = results.prune()
            dropped = artifacts.prune()
            print(f"pruned {removed} stale cached result(s) and {dropped} "
                  f"stale artifact(s); kept generation {results.salt}")
        if args.max_bytes is not None:
            evicted = results.prune_to_bytes(args.max_bytes)
            print(f"evicted {evicted} oldest result(s) to fit generation "
                  f"{results.salt} in {args.max_bytes:,} bytes")
        return 0
    print(f"unknown cache action {action!r} (expected: stats, clear, prune)",
          file=sys.stderr)
    return 2


def cmd_lint(args):
    from .analysis import run_lint
    from .analysis.fixes import apply_fixes
    from .analysis.rules import ALL_RULE_NAMES
    rules = None
    if args.rules:
        rules = {name.strip() for name in args.rules.split(",")
                 if name.strip()}
        unknown = rules.difference(ALL_RULE_NAMES)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))} "
                  f"(known: {', '.join(ALL_RULE_NAMES)})", file=sys.stderr)
            return 2
    paths = [args.workload] if args.workload else None
    report = run_lint(paths=paths, rules=rules)
    if args.fix:
        fixed = apply_fixes(report)
        for path, count in sorted(fixed.items()):
            print(f"[fixed {count} finding(s) in {path}]")
        if fixed:
            report = run_lint(paths=paths, rules=rules)
    print(report.render())
    if args.json:
        with open(args.json, "w") as handle:
            handle.write(report.to_json())
        print(f"[saved -> {args.json}]")
    return 0 if report.ok else 1


def cmd_sweep(args):
    """Run experiment sweeps through a chosen executor backend."""
    name = args.workload
    if not name:
        print("sweep needs an experiment name, e.g. `repro sweep fig7 "
              "--backend cluster --workers 2` (or `all`)", file=sys.stderr)
        return 2
    names = ["table1", "table2", "fig2", "fig7", "fig8", "fig9",
             "fig10", "fig11", "fig12"] if name == "all" else [name]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} "
              f"(known: {', '.join(sorted(ALL_EXPERIMENTS))})",
              file=sys.stderr)
        return 2
    scale = _scale_from_args(args)
    broken = []
    for experiment_name in names:
        experiment = ALL_EXPERIMENTS[experiment_name]
        try:
            result = (experiment() if experiment_name == "table1"
                      else experiment(scale))
        except Exception as error:
            # --keep-going: an experiment whose jobs exhausted their
            # retry budget (or whose join choked on the resulting holes)
            # is reported, and the remaining experiments still run.
            if not args.keep_going:
                raise
            broken.append(experiment_name)
            print(f"[sweep] {experiment_name} failed: {error}",
                  file=sys.stderr)
            continue
        print(result.render())
        if len(names) > 1:
            print()
        _maybe_save(result, args)
    failures = jobs.get_context().failure_report
    if failures:
        print(failures.render(), file=sys.stderr)
    return 1 if (broken or failures) else 0


def cmd_chaos(args):
    """`repro chaos --seed S`: run the fault matrix over loopback."""
    from .faults import run_chaos
    report = run_chaos(args.seed, cache_dir=args.cache_dir,
                       workers=args.workers,
                       secret=args.secret or "chaos-secret")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(report) + "\n")
        print(f"[saved chaos report -> {args.out}]")
    print(json.dumps({key: report[key] for key in
                      ("seed", "ok", "specs", "faults_fired",
                       "chaos_identical", "resume_identical", "gave_up",
                       "stale_salt_rejected", "wrong_secret_rejected",
                       "resume_replayed")}, indent=2))
    return 0 if report["ok"] else 1


def _client_tls(args):
    """Client-side TLSConfig from --tls-ca/--tls-fingerprint (or env)."""
    from .cluster import TLSConfig
    return TLSConfig.from_args(args, server_side=False)


def _query_endpoint(args, label="coordinator", command="cluster status"):
    """STATUS-query a coordinator/daemon; returns info dict or None."""
    from .cluster import AuthenticationError, ProtocolError, query_status
    try:
        return query_status(args.connect, secret=args.secret or None,
                            tls=_client_tls(args))
    except AuthenticationError as error:
        print(f"{command}: {error}", file=sys.stderr)
    except (OSError, ProtocolError) as error:
        print(f"cannot reach {label} at {args.connect}: {error}",
              file=sys.stderr)
    return None


def _print_daemon_status(daemon):
    """The serve-daemon section of `cluster status` / `jobs` output."""
    print(f"daemon       up {daemon.get('uptime_s', 0.0):,.0f}s, protocol "
          f"v{daemon.get('protocol')}, "
          f"tls {'on' if daemon.get('tls') else 'off'}")
    print(f"fleet        {daemon.get('fleet', 0)} worker(s), "
          f"{daemon.get('active_jobs', 0)} active + "
          f"{daemon.get('queued_jobs', 0)} queued job(s); lifetime "
          f"{daemon.get('jobs_done', 0)} done, "
          f"{daemon.get('jobs_failed', 0)} failed, "
          f"{daemon.get('store_hits', 0)} store hit(s)")
    store = daemon.get("store")
    if store is not None:
        print(f"store        {store.get('hits', 0)} hit(s), "
              f"{store.get('misses', 0)} miss(es) this uptime")
    sessions = daemon.get("sessions", [])
    print(f"sessions     {len(sessions)} connected, "
          f"{daemon.get('sessions_served', 0)} served, "
          f"{daemon.get('sweeps_done', 0)} sweep(s) completed")
    for session in sessions:
        print(f"  {session.get('session')} ({session.get('client')}): "
              f"{session.get('active_sweeps', 0)} active sweep(s), "
              f"{session.get('sweeps_done', 0)} done, seen "
              f"{session.get('last_seen_s', 0.0):.1f}s ago")
        for sweep in session.get("sweeps", []):
            print(f"    {sweep.get('sweep')}: {sweep.get('done', 0)}/"
                  f"{sweep.get('total', 0)} done "
                  f"({sweep.get('cached', 0)} cached), "
                  f"{sweep.get('pending', 0)} pending, "
                  f"{sweep.get('failed', 0)} failed")


def cmd_cluster(args):
    """`repro cluster {worker,status}`: join or inspect a coordinator."""
    action = args.workload
    if action == "worker":
        if not args.connect:
            print("cluster worker needs --connect HOST:PORT",
                  file=sys.stderr)
            return 2
        from .cluster import Worker
        kwargs = {"max_jobs": args.max_jobs, "reconnect": args.reconnect}
        if args.secret:              # else fall back to $REPRO_CLUSTER_SECRET
            kwargs["secret"] = args.secret
        tls = _client_tls(args)
        if tls is not None:
            kwargs["tls"] = tls
        worker = Worker(args.connect, **kwargs)
        return worker.serve()
    if action == "status":
        if not args.connect:
            print("cluster status needs --connect HOST:PORT",
                  file=sys.stderr)
            return 2
        info = _query_endpoint(args)
        if info is None:
            return 1
        print(f"coordinator  {info.get('address', args.connect)}")
        _print_daemon_status(info.get("daemon", {}))
        workers = info.get("workers", [])
        print(f"workers      {len(workers)}")
        for worker in workers:
            print(f"  {worker.get('name')}: {worker.get('state')}, "
                  f"{worker.get('jobs_done', 0)} job(s) done, seen "
                  f"{worker.get('last_seen_s', 0.0):.1f}s ago")
        return 0
    print(f"unknown cluster action {action!r} (expected: worker, status)",
          file=sys.stderr)
    return 2


def cmd_serve(args):
    """`repro serve`: run the always-on sweep daemon until interrupted."""
    from .cluster import TLSConfig
    from .cluster.protocol import parse_address
    from .serve import ServeDaemon
    tls = TLSConfig.from_args(args, server_side=True)
    host, port = parse_address(args.bind)
    store_dir = args.store or jobs.default_store_dir()
    store = jobs.ResultCache(store_dir) if store_dir else None
    context = jobs.get_context()
    kwargs = {}
    if args.secret:                  # else fall back to $REPRO_CLUSTER_SECRET
        kwargs["secret"] = args.secret
    daemon = ServeDaemon(host=host, port=port, store=store,
                         ledger=context.ledger, tls=tls,
                         job_timeout=args.job_timeout, **kwargs)
    try:
        daemon.start(workers=args.workers)
        print(f"[serve] daemon on {daemon.address} "
              f"(tls={'on' if tls else 'off'}, "
              f"store={store_dir or 'disabled'}, "
              f"workers={args.workers}); clients: `repro submit "
              f"<experiment> --connect {daemon.address}`",
              file=sys.stderr, flush=True)
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("[serve] interrupted; shutting down", file=sys.stderr)
    finally:
        daemon.close()
    return 0


def cmd_submit(args):
    """`repro submit`: run a sweep through a `repro serve` daemon."""
    if not args.connect:
        print("submit needs --connect HOST:PORT (a running `repro serve` "
              "daemon)", file=sys.stderr)
        return 2
    return cmd_sweep(args)


def cmd_jobs(args):
    """`repro jobs`: a serve daemon's live queue, session by session."""
    if not args.connect:
        print("jobs needs --connect HOST:PORT (a running `repro serve` "
              "daemon)", file=sys.stderr)
        return 2
    info = _query_endpoint(args, label="daemon", command="jobs")
    if info is None:
        return 1
    print(f"daemon       {info.get('address', args.connect)}")
    _print_daemon_status(info.get("daemon", {}))
    return 0


def cmd_report(args):
    """Render sweep summary tables from a run ledger (mid-flight ok)."""
    from .harness.ledger_report import render_ledger_report, summarize_ledger
    context = jobs.get_context()
    path = args.from_ledger or context.ledger_path
    if not os.path.exists(path):
        print(f"no ledger at {path}", file=sys.stderr)
        return 1
    cache = jobs.ResultCache.tiered(context.cache_dir, context.store_dir)
    print(render_ledger_report(summarize_ledger(path, cache=cache)))
    return 0


def cmd_env(args):
    """`repro env {show,concretize,run}`: declarative spec DAGs."""
    from .specs import DagRunner, SpecError, concretize, load_spec
    action = args.workload or "show"
    if action not in ("show", "concretize", "run"):
        print(f"unknown env action {action!r} (expected: show, concretize, "
              f"run)", file=sys.stderr)
        return 2
    if not args.spec:
        print("env needs --spec PATH (a .toml/.json experiment spec, "
              "e.g. specs/fig7.toml)", file=sys.stderr)
        return 2
    try:
        spec = load_spec(args.spec)
        if action == "show":
            print(f"spec        {spec.name}")
            if spec.description:
                print(f"description {spec.description}")
            print(f"source      {spec.source or '(inline)'}")
            print(f"sha256      {spec.digest}")
            if spec.defaults:
                pairs = ", ".join(f"{path}={value}" for path, value
                                  in spec.defaults.items())
                print(f"defaults    {pairs}")
            for group in spec.groups:
                workloads = (group.workloads
                             if isinstance(group.workloads, str)
                             else f"{len(group.workloads)} explicit")
                print(f"matrix      {group.name}: workloads={workloads}, "
                      f"techniques={', '.join(group.techniques)}")
                for path, values in group.knobs.items():
                    print(f"              knob {path} = {values}")
                for clause in group.exclude:
                    print(f"              exclude {clause}")
            for analysis in spec.analyses:
                print(f"analysis    {analysis.name}: fn={analysis.fn}, "
                      f"needs={', '.join(analysis.needs)}")
            return 0
        dag = concretize(spec, scale=_scale_from_args(args))
        runner = DagRunner(dag)
        if action == "concretize" or args.dry_run:
            print(runner.render_dry_run())
            return 0
        result = runner.run()
        for node in dag.analyses:
            if node.name not in result.tables:
                continue
            print(result.tables[node.name].render())
            print()
            _maybe_save(result.tables[node.name], args)
        for skip in result.stats["skipped"]:
            print(f"[env] skipped analysis {skip['analysis']!r}: "
                  f"{skip['reason']}", file=sys.stderr)
        return 1 if result.stats["skipped"] else 0
    except SpecError as error:
        print(f"env: {error}", file=sys.stderr)
        return 2


def cmd_run(args):
    config = SimConfig(max_instructions=args.instructions or 20_000,
                       fast_forward=not args.no_fast_forward,
                       sanitize=args.sanitize)
    if args.workload in GAP_WORKLOADS:
        workload = make_workload(args.workload, graph=args.graph or "KR")
    else:
        workload = make_workload(args.workload)
    metrics = run_workload(workload, config, technique=args.technique)
    print(f"workload   {metrics.workload}")
    print(f"technique  {metrics.technique}")
    print(f"IPC        {metrics.ipc:.3f}")
    print(f"cycles     {metrics.cycles:,}")
    print(f"MLP        {metrics.mlp:.2f}")
    print(f"MPKI       {metrics.mpki:.1f}")
    print(f"ROB-full   {metrics.rob_full_fraction:.1%}")
    print(f"DRAM       main={metrics.dram_split()[0]:,} "
          f"runahead={metrics.dram_split()[1]:,}")
    stack = " ".join(f"{name}={value:.2f}"
                     for name, value in metrics.cpi_stack.items() if value)
    print(f"CPI stack  {stack}")
    for key, value in sorted(metrics.engine_stats.items()):
        if value:
            print(f"{key:28s} {value}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Decoupled Vector Runahead reproduction harness")
    parser.add_argument("command",
                        choices=sorted(ALL_EXPERIMENTS) + ["all", "cache",
                                                           "chaos", "cluster",
                                                           "env", "jobs",
                                                           "lint", "list",
                                                           "report", "run",
                                                           "serve", "submit",
                                                           "sweep"])
    parser.add_argument("workload", nargs="?",
                        help="workload name (for `run`), cache action "
                             "(for `cache`: stats, clear, prune), cluster "
                             "action (for `cluster`: worker, status), "
                             "experiment name (for `sweep`/`submit`), env "
                             "action (for `env`: show, concretize, run), or "
                             "a path to lint (for `lint`)")
    parser.add_argument("--technique", default="dvr",
                        choices=ALL_TECHNIQUES + DVR_BREAKDOWN[1:3])
    parser.add_argument("--graph", default=None)
    parser.add_argument("--graphs", nargs="*", default=None,
                        help="GAP graph inputs for experiments")
    parser.add_argument("--instructions", type=int, default=None)
    parser.add_argument("--scale", choices=("small", "full"),
                        default="small")
    parser.add_argument("--no-fast-forward", action="store_true",
                        help="disable event-driven cycle skipping (slower; "
                             "results are bit-identical either way)")
    parser.add_argument("--sanitize", action="store_true",
                        help="enable runtime invariant assertions "
                             "(repro.analysis; metrics are bit-identical "
                             "either way)")
    parser.add_argument("--sanitize-threads", action="store_true",
                        help="instrument cluster/serve locks: track the "
                             "held-lock set per thread, fail on lock-order "
                             "inversions and @guarded_by violations "
                             "(repro.analysis.threadsan; metrics are "
                             "bit-identical either way)")
    parser.add_argument("--fix", action="store_true",
                        help="lint: apply mechanical rewrites for fixable "
                             "findings, then re-lint")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="lint: write the machine-readable report here")
    parser.add_argument("--rules", default=None, metavar="NAMES",
                        help="lint: comma-separated rule names to run "
                             "(default: all)")
    parser.add_argument("--out", default=None,
                        help="append experiment results as JSON lines")
    parser.add_argument("--spec", default=None, metavar="PATH",
                        help="env: the declarative experiment spec to load "
                             "(.toml or .json, e.g. specs/fig7.toml)")
    parser.add_argument("--dry-run", action="store_true",
                        help="env run: print node counts, topological "
                             "levels and the cache-hit preview, execute "
                             "nothing")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for experiment sweeps "
                             "(default: $REPRO_JOBS or 1 = serial)")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; don't reuse cached results")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS", help="per-job timeout")
    parser.add_argument("--keep-current", action="store_true",
                        help="confirm `cache prune`: drop stale salt "
                             "generations, keep the current one")
    parser.add_argument("--max-bytes", type=int, default=None, metavar="N",
                        help="cache prune: evict oldest current-generation "
                             "entries until the generation fits in N bytes")
    parser.add_argument("--backend",
                        choices=("local", "cluster", "serve"),
                        default="local",
                        help="executor backend for sweeps: `local` process "
                             "pool (default), `cluster` TCP workers, or "
                             "`serve` (submit to a running daemon; "
                             "--connect)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="cluster backend / serve daemon: loopback "
                             "worker processes to spawn (0 = wait for "
                             "external workers)")
    parser.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                        help="cluster backend / serve daemon: bind address "
                             "(port 0 = ephemeral)")
    parser.add_argument("--connect", default=None, metavar="HOST:PORT",
                        help="cluster worker/status, submit, jobs: the "
                             "coordinator/daemon address")
    parser.add_argument("--secret", default=None, metavar="SECRET",
                        help="cluster/serve shared handshake secret "
                             "(default: $REPRO_CLUSTER_SECRET; "
                             "unauthenticated dialers are rejected)")
    parser.add_argument("--tls-cert", default=None, metavar="PEM",
                        help="serve daemon / cluster coordinator: TLS "
                             "certificate (with --tls-key, enables TLS)")
    parser.add_argument("--tls-key", default=None, metavar="PEM",
                        help="server-side TLS private key")
    parser.add_argument("--tls-ca", default=None, metavar="PEM",
                        help="client side: CA file to verify the server "
                             "certificate against (default: $REPRO_TLS_CA); "
                             "on the server, demands client certificates "
                             "(mutual TLS)")
    parser.add_argument("--tls-fingerprint", default=None, metavar="SHA256",
                        help="client side: pin the server certificate's "
                             "sha256 fingerprint instead of a CA file "
                             "(default: $REPRO_TLS_FINGERPRINT)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="shared content-addressed store directory, "
                             "laid out like --cache-dir (default: "
                             "$REPRO_STORE_DIR; sweeps and the serve daemon "
                             "share hits through it)")
    parser.add_argument("--resume", action="store_true",
                        help="sweep: replay specs the run ledger already "
                             "records as completed; dispatch only the "
                             "remainder")
    parser.add_argument("--keep-going", action="store_true",
                        help="sweep: report jobs that exhaust their retry "
                             "budget and continue instead of aborting")
    parser.add_argument("--seed", type=int, default=1234,
                        help="chaos: fault-plan seed (same seed = same "
                             "fault schedule, bit-identical)")
    parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="cluster worker: exit after N jobs")
    parser.add_argument("--reconnect", type=int, default=3, metavar="N",
                        help="cluster worker: reconnection attempts after "
                             "a lost coordinator connection")
    parser.add_argument("--from-ledger", default=None, metavar="PATH",
                        help="report: run ledger to summarize (default: "
                             "the active cache dir's runs.jsonl)")
    args = parser.parse_args(argv)

    if args.sanitize_threads:
        # Before any coordinator/daemon/worker constructs its locks.
        from .analysis import threadsan
        threadsan.enable()

    from .cluster import ClusterError, TLSConfig, TLSConfigError

    env = jobs.ExecutionContext.from_env()
    backend = "serve" if args.command == "submit" else args.backend
    cluster_options = {"bind": args.bind, "workers": args.workers}
    serve_options = {"connect": args.connect}
    if args.secret:
        cluster_options["secret"] = args.secret
        serve_options["secret"] = args.secret
    try:
        if backend == "serve":
            serve_options["tls"] = TLSConfig.from_args(args,
                                                       server_side=False)
        elif backend == "cluster":
            cluster_options["tls"] = TLSConfig.from_args(args,
                                                         server_side=True)
    except TLSConfigError as error:
        parser.error(str(error))
    jobs.configure(
        jobs=args.jobs if args.jobs is not None else env.jobs,
        cache_dir=args.cache_dir or env.cache_dir,
        no_cache=args.no_cache or env.no_cache,
        timeout=args.job_timeout,
        backend=backend,
        cluster=cluster_options,
        serve=serve_options,
        store=args.store,
        resume=args.resume,
        on_failure="report" if args.keep_going else "raise")

    try:
        if args.command == "list":
            return cmd_list(args)
        if args.command == "all":
            return cmd_all(args)
        if args.command == "cache":
            return cmd_cache(args)
        if args.command == "chaos":
            return cmd_chaos(args)
        if args.command == "cluster":
            return cmd_cluster(args)
        if args.command == "env":
            return cmd_env(args)
        if args.command == "jobs":
            return cmd_jobs(args)
        if args.command == "serve":
            try:
                return cmd_serve(args)
            except TLSConfigError as error:
                print(f"serve: {error}", file=sys.stderr)
                return 2
        if args.command == "submit":
            return cmd_submit(args)
        if args.command == "lint":
            return cmd_lint(args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "run":
            if not args.workload:
                parser.error("`run` needs a workload name")
            return cmd_run(args)
        return cmd_experiment(args)
    except ClusterError as error:
        # A bind or worker start-up failure is one line, not a traceback.
        print(f"{args.command}: {error}", file=sys.stderr)
        return 1
    finally:
        # Drain cluster workers / stop the daemon, if one was started.
        jobs.close_context()


if __name__ == "__main__":
    try:
        status = main()
    except BrokenPipeError:          # e.g. `python -m repro ... | head`
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = 141                 # 128 + SIGPIPE, shell convention
    sys.exit(status)
