"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    The Example 1 walkthrough (graph, conditions, witness divergence).
``run``
    Stream a generated workload through a chosen scheduler + policy
    (resolved via the :mod:`repro.registry` name registries) and print the
    metrics table and graph-size series.  ``--sweep-interval`` batches the
    deletion-policy invocations.  ``--wal-dir`` makes the run crash-safe:
    every step is write-ahead logged and checkpointed every
    ``--checkpoint-interval`` steps (see ``recover``).
``recover``
    Rebuild a crashed ``--wal-dir`` run: load the latest checkpoint chain,
    replay the WAL tail (tolerating a torn final record), and print the
    recovered engine's state.
``compare``
    All applicable policies on one workload, one table.
``serve``
    Start the multi-tenant asyncio serving front-end
    (:mod:`repro.server`): line/JSON protocol over TCP, bounded
    per-tenant write queues with admission control, audit/metrics reads.
    ``--tenant NAME SCHEDULER POLICY`` (repeatable) pre-creates tenants;
    ``--replica NAME WAL_DIR`` (repeatable) hosts WAL-follower read
    replicas, auto-promoted on primary recovery exhaustion unless
    ``--no-auto-promote``.
``request``
    One client call against a running server: ``ping``, ``create``
    (``--replica-of`` for a follower), ``open``, ``close``, ``tenants``,
    ``feed-workload``, ``audit``/``query`` (``--max-lag`` bounds replica
    staleness), ``sweep``, ``promote``, ``metrics``.
``dump``
    Run a workload and print the final reduced graph (ascii, dot, or
    json); ``--output FILE`` writes it atomically instead (a crash mid-
    write never tears an existing file).
``lint``
    Static invariant analysis (:mod:`repro.lint`): parse the source tree
    with ``ast`` and enforce the repo's standing contracts (StorageIO
    syscall boundary, snapshot completeness, epoch bumps, determinism,
    non-blocking coroutines, fault-site coverage).  ``--json`` emits the
    machine report ``validate_bench.py`` schema-checks; exit 1 on any
    non-baseline finding, so CI can gate on it.

Scheduler and policy names come from the registries, so plugins registered
via :func:`repro.registry.register_scheduler` / ``register_policy`` before
calling :func:`main` are selectable too.  Every command is seeded and
deterministic; ``--help`` on each shows its knobs.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Optional, Sequence

from repro import registry as _registry
from repro.analysis.report import ascii_table, format_series, rows_from_summaries
from repro.analysis.runner import run_with_policy
from repro.analysis.visualize import render_ascii, render_dot
from repro.durability import DEFAULT_CHECKPOINT_INTERVAL
from repro.engine import Engine, EngineConfig, ShardedEngine, build_engine
from repro.errors import EngineError, RegistryError, SchedulerError
from repro.io import graph_to_json
from repro.server import ReproServer
from repro.workloads.generator import (
    WorkloadConfig,
    basic_stream,
    multiwrite_stream,
    predeclared_stream,
)

__all__ = ["main"]

# Which generated stream feeds which transaction model.
_MODEL_STREAMS = {
    "basic": basic_stream,
    "certifier": basic_stream,
    "locking": basic_stream,
    "multiwrite": multiwrite_stream,
    "predeclared": predeclared_stream,
}


def _stream_for(scheduler_name: str):
    return _MODEL_STREAMS[_registry.scheduler_model(scheduler_name)]


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--transactions", type=int, default=40)
    parser.add_argument("--entities", type=int, default=10)
    parser.add_argument("--mpl", type=int, default=5,
                        help="multiprogramming level")
    parser.add_argument("--write-fraction", type=float, default=0.4)
    parser.add_argument("--zipf", type=float, default=0.0,
                        help="entity skew (0 = uniform)")
    parser.add_argument("--partitions", type=int, default=1,
                        help="split the entity space into N disjoint "
                             "namespaces (sharding workloads)")
    parser.add_argument("--cross-fraction", type=float, default=0.0,
                        help="probability a transaction also touches a "
                             "foreign partition (forces shard merges)")
    parser.add_argument("--seed", type=int, default=0)


def _add_engine_args(parser: argparse.ArgumentParser,
                     default_policy: str,
                     include_wal: bool = True) -> None:
    parser.add_argument("--scheduler",
                        choices=sorted(_registry.schedulers.all_names()),
                        default="conflict-graph",
                        help="scheduler registry name")
    parser.add_argument("--policy",
                        choices=sorted(_registry.policies.all_names()),
                        default=default_policy,
                        help="deletion-policy registry name")
    parser.add_argument("--sweep-interval", type=int, default=1,
                        help="invoke the deletion policy every N steps")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the engine into K footprint-routed "
                             "shards (1 = monolithic)")
    if include_wal:
        parser.add_argument("--wal-dir", default=None,
                            help="write-ahead log directory: makes the run "
                                 "crash-safe (recover with 'repro recover')")
        parser.add_argument("--checkpoint-interval", type=int,
                            default=DEFAULT_CHECKPOINT_INTERVAL,
                            help="take an incremental checkpoint every N "
                                 "WAL records (0 = never; only with "
                                 "--wal-dir)")


def _config(args: argparse.Namespace) -> WorkloadConfig:
    return WorkloadConfig(
        n_transactions=args.transactions,
        n_entities=args.entities,
        multiprogramming=args.mpl,
        write_fraction=args.write_fraction,
        zipf_s=args.zipf,
        # Clamp to the per-partition entity pool but never below 1, so a
        # partitions > entities mistake reaches WorkloadConfig's clearer
        # per-partition validation error instead of an accesses-range one.
        max_accesses=max(1, min(4, args.entities // max(args.partitions, 1))),
        partitions=args.partitions,
        cross_fraction=args.cross_fraction,
        seed=args.seed,
    )


def _demo(_args: argparse.Namespace) -> int:
    """Inline Example 1 walkthrough (no dependency on examples/)."""
    from repro.core.conditions import can_delete
    from repro.core.set_conditions import can_delete_set
    from repro.core.witnesses import basic_witness_continuation, check_divergence
    from repro.workloads.traces import example1_graph

    graph = example1_graph()
    print(render_ascii(graph, title="Example 1 (Fig. 1):"))
    print(f"\nC1(T2) = {can_delete(graph, 'T2')}")
    print(f"C1(T3) = {can_delete(graph, 'T3')}")
    print(f"C2({{T2, T3}}) = {can_delete_set(graph, {'T2', 'T3'})}")
    reduced = graph.reduced_by(["T3"])
    print(f"after deleting T3: C1(T2) = {can_delete(reduced, 'T2')}")
    continuation = basic_witness_continuation(reduced, "T2")
    print("witness:", " ".join(str(s) for s in continuation))
    print(check_divergence(reduced, ["T2"], continuation))
    return 0


def _build_engine(args: argparse.Namespace):
    """Engine (or sharded engine) from the parsed flags, or ``None`` after
    printing the error."""
    try:
        config = EngineConfig(
            scheduler=args.scheduler,
            policy=args.policy,
            sweep_interval=args.sweep_interval,
        )
        return build_engine(config, shards=getattr(args, "shards", 1))
    except (EngineError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _run_sharded(args: argparse.Namespace, engine: ShardedEngine) -> int:
    from repro.analysis.serializability import is_conflict_serializable

    stream = _stream_for(args.scheduler)(_config(args))
    batch = engine.feed_batch(stream, flush=True)
    if not args.no_audit and not is_conflict_serializable(
        engine.accepted_subschedule()
    ):
        raise SchedulerError(
            "accepted subschedule is not conflict serializable"
        )
    summary = batch.summary()
    print(ascii_table(list(summary), [list(summary.values())]))
    rows = engine.shard_report()
    print(ascii_table(
        ["shard", "steps_fed", "live", "peak_graph", "deletions",
         "sweeps_run", "sweeps_skipped", "closure_bytes", "id_capacity"],
        [[row[key] for key in row] for row in rows],
        title=f"{engine.shard_count} shards "
              f"(migrations: {engine.migrations}, "
              f"merges: {engine.router.merges})",
    ))
    stats = engine.stats
    print(
        f"deleted: {stats.deletions}, peak total graph: "
        f"{stats.peak_graph_size}, migrations: {engine.migrations}"
    )
    return 0


def _run_durable(args: argparse.Namespace) -> int:
    """Crash-safe run: every step WAL-logged, checkpoints on cadence."""
    from repro.durability import DurableEngine

    try:
        config = EngineConfig(
            scheduler=args.scheduler,
            policy=args.policy,
            sweep_interval=args.sweep_interval,
        )
        durable = DurableEngine(
            config,
            wal_dir=args.wal_dir,
            shards=args.shards,
            checkpoint_interval=args.checkpoint_interval,
        )
    except (EngineError, RegistryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stream = _stream_for(args.scheduler)(_config(args))
    with durable:
        batch = durable.feed_batch(stream, flush=args.shards > 1)
        durable.checkpoint()
        summary = batch.summary()
        print(ascii_table(list(summary), [list(summary.values())]))
        stats = durable.stats
        print(
            f"wal: {durable.seq} records, checkpointed through seq "
            f"{durable.last_checkpoint_seq} "
            f"(interval {durable.checkpoint_interval}), "
            f"deleted: {stats.deletions}, peak graph: {stats.peak_graph_size}"
        )
        print(f"recover with: repro recover --wal-dir {args.wal_dir}")
    return 0


def _recover(args: argparse.Namespace) -> int:
    from repro.durability import recover
    from repro.errors import DurabilityError
    from repro.io import atomic_write_text, engine_snapshot_to_json

    try:
        durable = recover(args.wal_dir)
    except DurabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    info = durable.recovery_info
    stats = durable.stats
    rows = [[
        info.checkpoint_seq, info.checkpoints_loaded, info.replayed_steps,
        info.replayed_controls, info.torn_records_dropped,
        stats.steps_fed, stats.deletions,
    ]]
    print(ascii_table(
        ["checkpoint_seq", "checkpoints", "replayed_steps",
         "replayed_controls", "torn_dropped", "steps_fed", "deletions"],
        rows,
        title=f"recovered {args.wal_dir}",
    ))
    if info.repaired_segments:
        print(f"repaired torn segments: {', '.join(info.repaired_segments)}")
    if args.snapshot_out:
        atomic_write_text(
            args.snapshot_out,
            engine_snapshot_to_json(durable.engine.snapshot()) + "\n",
        )
        print(f"wrote snapshot to {args.snapshot_out}")
    durable.close(checkpoint=args.checkpoint)
    return 0


def _run(args: argparse.Namespace) -> int:
    if args.wal_dir is not None:
        return _run_durable(args)
    engine = _build_engine(args)
    if engine is None:
        return 2
    if isinstance(engine, ShardedEngine):
        return _run_sharded(args, engine)
    stream = _stream_for(args.scheduler)(_config(args))
    metrics = run_with_policy(
        engine.scheduler, stream, audit_csr=not args.no_audit, engine=engine
    )
    columns = list(metrics.summary())
    print(ascii_table(columns, [list(metrics.summary().values())]))
    print(format_series("graph size", metrics.series("graph_size")))
    stats = engine.stats
    print(
        f"sweeps: {stats.policy_invocations} "
        f"(interval {engine.sweep_interval}), "
        f"deleted: {stats.deletions}, "
        f"peak graph: {stats.peak_graph_size}"
    )
    return 0


def _compare(args: argparse.Namespace) -> int:
    config = _config(args)
    stream = basic_stream(config)
    names = [
        name
        for name in _registry.compatible_policies("conflict-graph")
        if name != "optimal"  # exponential; excluded from the default table
    ]
    summaries = []
    for name in names:
        metrics = run_with_policy(
            "conflict-graph", stream, name, audit_csr=True,
            sweep_interval=args.sweep_interval,
        )
        summaries.append(metrics.summary())
    columns = ["policy", "accepted", "aborted_txns", "deleted_txns",
               "peak_graph", "mean_graph", "final_graph"]
    print(ascii_table(columns, rows_from_summaries(summaries, columns),
                      title="policy comparison (conflict-graph scheduler)"))
    return 0


def _dump(args: argparse.Namespace) -> int:
    engine = _build_engine(args)
    if engine is None:
        return 2
    stream = _stream_for(args.scheduler)(_config(args))
    if isinstance(engine, ShardedEngine):
        engine.feed_batch(stream, flush=False)
        engine.flush_pending()
        graphs = [
            (f"shard {index}", graph)
            for index, graph in enumerate(engine.graphs())
        ]
    else:
        engine.feed_batch(stream)
        graphs = [(args.scheduler, engine.graph)]
    if args.format == "json":
        # Always exactly one parseable document: the monolithic payload
        # unchanged, or one object holding every shard's payload.
        if len(graphs) == 1:
            text = graph_to_json(graphs[0][1])
        else:
            import json as _json

            from repro.io import graph_to_dict

            text = _json.dumps(
                {
                    "shards": [graph_to_dict(graph) for _, graph in graphs],
                },
                indent=2,
                sort_keys=True,
            )
    else:
        parts = []
        for title, graph in graphs:
            if args.format == "ascii":
                parts.append(
                    render_ascii(graph, title=f"final reduced graph ({title})")
                )
            else:
                parts.append(render_dot(graph))
        text = "\n".join(parts)
    if args.output:
        # Atomic: a crash mid-dump must never tear a previous dump at the
        # same path (tmp file in the same directory + os.replace + fsync).
        from repro.io import atomic_write_text

        atomic_write_text(args.output, text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _serve(args: argparse.Namespace) -> int:
    """Run the serving front-end until interrupted."""
    import asyncio

    fault_plan = None
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)

    server = ReproServer(
        args.host,
        args.port,
        max_queue_depth=args.queue_depth,
        yield_every=args.yield_every,
        fault_plan=fault_plan,
        recover_max_attempts=args.recover_max_attempts,
        recover_backoff=args.recover_backoff,
        recover_backoff_cap=args.recover_backoff_cap,
        replica_poll_interval=args.replica_poll_interval,
        auto_promote=not args.no_auto_promote,
    )
    for name, scheduler, policy in args.tenant or ():
        server.create_tenant(name, scheduler=scheduler, policy=policy)
    for name, wal_dir in args.replica or ():
        server.create_tenant(name, replica_of=wal_dir)

    async def _main() -> None:
        host, port = await server.start()
        # Parseable by scripts that bind --port 0 and need the real port.
        print(f"serving on {host}:{port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0


def _request(args: argparse.Namespace) -> int:
    """One client call against a running server (see ``--help``)."""
    import json as _json

    from repro.client import ServingClient
    from repro.errors import ReproError, ServingError
    from repro.workloads.banking import BankingConfig, banking_stream

    try:
        client = ServingClient(args.host, args.port)
    except OSError as exc:
        print(f"error: cannot connect to {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    try:
        verb = args.verb
        if verb == "ping":
            payload = client.ping()
        elif verb == "create":
            if args.replica_of:
                payload = client.create_tenant(
                    args.tenant, replica_of=args.replica_of
                )
            else:
                payload = client.create_tenant(
                    args.tenant,
                    scheduler=args.scheduler,
                    policy=args.policy,
                    **({"shards": args.shards} if args.shards != 1 else {}),
                    **({"wal_dir": args.wal_dir} if args.wal_dir else {}),
                )
        elif verb == "open":
            payload = client.open_tenant(args.tenant, args.wal_dir)
        elif verb == "close":
            payload = client.close_tenant(args.tenant)
        elif verb == "tenants":
            payload = {"tenants": client.tenants()}
        elif verb == "feed-workload":
            stream = banking_stream(BankingConfig(
                n_accounts=args.accounts,
                n_transfers=args.transfers,
                seed=args.seed,
            ))
            payload = client.feed_all(args.tenant, stream, chunk=args.chunk)
        elif verb == "audit":
            payload = client.audit(args.tenant, args.txn,
                                   max_lag=args.max_lag)
        elif verb == "query":
            payload = {args.what: client.query(args.tenant, args.what,
                                               max_lag=args.max_lag)}
        elif verb == "sweep":
            payload = {"deleted": client.sweep(args.tenant)}
        elif verb == "promote":
            payload = client.promote(args.tenant)
        else:  # metrics
            payload = client.metrics()
        text = _json.dumps(payload, indent=2, sort_keys=True)
        if getattr(args, "output", None):
            from repro.io import atomic_write_text

            atomic_write_text(args.output, text + "\n")
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    except (ReproError, ServingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        client.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deleting Completed Transactions — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="Example 1 walkthrough").set_defaults(fn=_demo)

    run_parser = sub.add_parser("run", help="one scheduler + policy run")
    _add_engine_args(run_parser, default_policy="eager-c1")
    run_parser.add_argument("--no-audit", action="store_true",
                            help="skip the offline CSR audit")
    _add_workload_args(run_parser)
    run_parser.set_defaults(fn=_run)

    compare_parser = sub.add_parser("compare", help="policies side by side")
    compare_parser.add_argument("--sweep-interval", type=int, default=1,
                                help="invoke the deletion policy every N steps")
    _add_workload_args(compare_parser)
    compare_parser.set_defaults(fn=_compare)

    dump_parser = sub.add_parser("dump", help="print the final reduced graph")
    # No --wal-dir here: dump replays a generated workload read-only and
    # would silently ignore it.
    _add_engine_args(dump_parser, default_policy="never", include_wal=False)
    dump_parser.add_argument("--format", choices=["ascii", "dot", "json"],
                             default="ascii")
    dump_parser.add_argument("--output", default=None,
                             help="write to FILE (atomically) instead of "
                                  "stdout")
    _add_workload_args(dump_parser)
    dump_parser.set_defaults(fn=_dump)

    lint_parser = sub.add_parser(
        "lint", help="static invariant analysis of the source tree"
    )
    from repro.lint.cli import add_lint_arguments, run as _lint_run

    add_lint_arguments(lint_parser)
    lint_parser.set_defaults(fn=_lint_run)

    recover_parser = sub.add_parser(
        "recover", help="recover a crashed --wal-dir run"
    )
    recover_parser.add_argument("--wal-dir", required=True,
                                help="the write-ahead log directory")
    recover_parser.add_argument("--snapshot-out", default=None,
                                help="atomically write the recovered "
                                     "engine's full snapshot JSON to FILE")
    recover_parser.add_argument("--checkpoint", action="store_true",
                                help="take a fresh checkpoint after "
                                     "recovery (truncates the replayed "
                                     "WAL tail)")
    recover_parser.set_defaults(fn=_recover)

    serve_parser = sub.add_parser(
        "serve", help="start the multi-tenant serving front-end"
    )
    # The flags' defaults are ReproServer's own, read off its signature.
    parameters = inspect.signature(ReproServer).parameters
    server_default = {name: p.default for name, p in parameters.items()}
    serve_parser.add_argument("--host", default=server_default["host"])
    serve_parser.add_argument("--port", type=int, default=7453,
                              help="TCP port (0 = pick a free one; the "
                                   "bound port is printed on startup)")
    serve_parser.add_argument("--queue-depth", type=int,
                              default=server_default["max_queue_depth"],
                              help="per-tenant write backlog bound in steps "
                                   "(admission control rejects past it)")
    serve_parser.add_argument("--yield-every", type=int,
                              default=server_default["yield_every"],
                              help="cooperatively yield the event loop "
                                   "every N fed steps")
    serve_parser.add_argument("--fault-plan", default=None,
                              help="JSON fault-plan file (repro.faults."
                                   "FaultPlan.dump) injected into storage "
                                   "I/O and workers — chaos drills only")
    serve_parser.add_argument("--recover-max-attempts", type=int,
                              default=server_default["recover_max_attempts"],
                              help="recovery attempts per demotion before a "
                                   "tenant is declared permanently degraded")
    serve_parser.add_argument("--recover-backoff", type=float,
                              default=server_default["recover_backoff"],
                              help="initial recovery backoff (seconds)")
    serve_parser.add_argument("--recover-backoff-cap", type=float,
                              default=server_default["recover_backoff_cap"],
                              help="max recovery backoff (seconds)")
    serve_parser.add_argument("--replica-poll-interval", type=float,
                              default=server_default["replica_poll_interval"],
                              help="seconds between follower WAL polls")
    serve_parser.add_argument("--no-auto-promote", action="store_true",
                              help="disable supervisor-driven promotion of "
                                   "the freshest replica when a primary "
                                   "exhausts its recovery budget")
    serve_parser.add_argument("--replica", nargs=2, action="append",
                              metavar=("NAME", "WAL_DIR"),
                              help="host a follower tenant tailing the "
                                   "primary WAL at WAL_DIR (repeatable)")
    serve_parser.add_argument("--tenant", nargs=3, action="append",
                              metavar=("NAME", "SCHEDULER", "POLICY"),
                              help="pre-create a tenant (repeatable)")
    serve_parser.set_defaults(fn=_serve)

    request_parser = sub.add_parser(
        "request", help="one client call against a running server"
    )
    request_parser.add_argument("--host", default="127.0.0.1")
    request_parser.add_argument("--port", type=int, default=7453)
    request_sub = request_parser.add_subparsers(dest="verb", required=True)

    def _verb(name: str, *, tenant: bool = False, help: str = ""):
        verb_parser = request_sub.add_parser(name, help=help)
        if tenant:
            verb_parser.add_argument("tenant", help="tenant name")
        verb_parser.set_defaults(fn=_request, verb=name)
        return verb_parser

    _verb("ping", help="server liveness + tenant count")
    create_verb = _verb("create", tenant=True, help="create a tenant")
    create_verb.add_argument("--scheduler", default="conflict-graph",
                             choices=sorted(_registry.schedulers.all_names()))
    create_verb.add_argument("--policy", default="eager-c1",
                             choices=sorted(_registry.policies.all_names()))
    create_verb.add_argument("--shards", type=int, default=1)
    create_verb.add_argument("--wal-dir", default=None,
                             help="make the tenant durable (recovers an "
                                  "existing directory)")
    create_verb.add_argument("--replica-of", default=None,
                             help="create a read-only follower tailing the "
                                  "primary WAL at this directory (mutually "
                                  "exclusive with the other options)")
    open_verb = _verb("open", tenant=True,
                      help="open a tenant from an existing WAL directory")
    open_verb.add_argument("--wal-dir", required=True)
    _verb("close", tenant=True, help="drain, checkpoint, release a tenant")
    _verb("tenants", help="list hosted tenants")
    feed_verb = _verb("feed-workload", tenant=True,
                      help="stream a banking workload over the wire "
                           "(honors admission-control backpressure)")
    feed_verb.add_argument("--accounts", type=int, default=64)
    feed_verb.add_argument("--transfers", type=int, default=200)
    feed_verb.add_argument("--seed", type=int, default=0)
    feed_verb.add_argument("--chunk", type=int, default=256,
                           help="steps per feed_batch message")
    audit_verb = _verb("audit", tenant=True,
                       help="per-transaction audit lookup")
    audit_verb.add_argument("txn", help="transaction id")
    audit_verb.add_argument("--max-lag", type=int, default=None,
                            help="replica reads only: reject with "
                                 "replica_lagging when the follower is more "
                                 "than this many WAL records behind")
    query_verb = _verb("query", tenant=True, help="read-path query")
    query_verb.add_argument("what", choices=["accepted", "live", "deleted",
                                             "aborted", "stats"])
    query_verb.add_argument("--max-lag", type=int, default=None,
                            help="replica reads only: lag bound in WAL "
                                 "records")
    _verb("sweep", tenant=True, help="run the deletion policy now")
    _verb("promote", tenant=True,
          help="promote a follower tenant to writable primary")
    metrics_verb = _verb("metrics", help="the /metrics JSON surface")
    metrics_verb.add_argument("--output", default=None,
                              help="write the JSON to FILE (atomically) "
                                   "instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
