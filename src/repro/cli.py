"""The ``repro`` command-line interface.

A thin operational front door to the library:

* ``repro demo`` -- run the paper's Example 1 / Example 2 end to end and
  print the verdicts with the discovered witness;
* ``repro check`` -- decide emptiness of one of the library's named example
  systems over a chosen theory and search strategy, printing statistics;
* ``repro batch`` -- generate seeded random workloads and run them through
  the batch verification service (parallel workers, persistent store);
* ``repro serve`` -- run the async HTTP front door: job specs in, verdicts
  out, with store-first serving and in-flight fingerprint dedup; grows a
  fleet via ``--role coordinator --runner URL`` (fingerprint-sharded
  forwarding) and ``--role runner`` nodes sharing one keyspace;
* ``repro store`` -- inspect, export, clear or *serve* a result store
  (``repro store serve`` runs the networked keyspace backend);

Every command that touches a store takes the same ``--store`` backend URL:
``sqlite:PATH`` (or a bare path), ``memory:``, or ``http://host:port`` for
a remote keyspace served by ``repro store serve``.
* ``repro trace`` -- export a stored solver trace as Chrome trace-event
  JSON for Perfetto / about://tracing;
* ``repro verify`` -- fetch a stored witness certificate and re-check it
  with the engine-independent validator (:mod:`repro.certify`);
* ``repro bench`` -- shortcut to the unified benchmark runner (equivalent to
  ``python benchmarks/run_all.py`` when running from a checkout);
* ``repro info`` -- version and available search strategies.

The CLI exists so deployments installed via ``pip install -e .`` have a
stable executable without the ``PYTHONPATH=src`` workaround.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro import (
    AllDatabasesTheory,
    EmptinessSolver,
    HomTheory,
    __version__,
    clique_template,
    odd_red_cycle_free_template,
    telemetry,
)
from repro.certify import (
    CertificateError,
    build_certificate,
    decode_certificate,
    render_certificate,
    validate_certificate,
)
from repro.errors import StoreError
from repro.fraisse.search import STRATEGY_NAMES
from repro.library import (
    odd_red_cycle_system,
    self_loop_required_system,
    triangle_system,
)
from repro.relational.csp import COLORED_GRAPH_SCHEMA, GRAPH_SCHEMA
from repro.service import BatchRunner, ResultStore, RetryPolicy
from repro.service.server import DEFAULT_MAX_CONNECTIONS, DEFAULT_MAX_PENDING
from repro.workloads import FAMILIES, generate_jobs


def _store_token() -> Optional[str]:
    """Shared-secret for a remote (``http://``) store backend, from the
    environment only -- tokens on the command line leak via ``ps``."""
    return os.environ.get("REPRO_STORE_TOKEN") or None


#: Named example workloads: name -> (system builder, theory builder).
EXAMPLES: Dict[str, Tuple[Callable, Callable]] = {
    "odd-red-cycle": (
        odd_red_cycle_system,
        lambda: AllDatabasesTheory(COLORED_GRAPH_SCHEMA),
    ),
    "odd-red-cycle-hom": (
        odd_red_cycle_system,
        lambda: HomTheory(odd_red_cycle_free_template()),
    ),
    "triangle": (triangle_system, lambda: AllDatabasesTheory(GRAPH_SCHEMA)),
    "triangle-k2": (triangle_system, lambda: HomTheory(clique_template(2))),
    "triangle-k3": (triangle_system, lambda: HomTheory(clique_template(3))),
    "self-loop": (self_loop_required_system, lambda: AllDatabasesTheory(GRAPH_SCHEMA)),
}


def _command_demo(args: argparse.Namespace) -> int:
    system = odd_red_cycle_system()
    theory = AllDatabasesTheory(COLORED_GRAPH_SCHEMA)
    all_result = EmptinessSolver(theory).check(system)
    print("Example 1 (all databases):", "nonempty" if all_result.nonempty else "empty")
    if all_result.run is not None:
        print("  witness database:")
        for line in all_result.run.database.describe().splitlines():
            print("   ", line)
        # The canonical certificate rendering -- byte-identical to what the
        # /v1/jobs/{fp}/witness endpoint serves after decoding.
        print("  witness certificate:")
        print("   ", render_certificate(build_certificate(system, theory, all_result)))
    hom_result = EmptinessSolver(HomTheory(odd_red_cycle_free_template())).check(system)
    print("Example 2 (HOM template):", "nonempty" if hom_result.nonempty else "empty")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    try:
        system_builder, theory_builder = EXAMPLES[args.example]
    except KeyError:
        print(
            f"unknown example {args.example!r}; available: {', '.join(sorted(EXAMPLES))}",
            file=sys.stderr,
        )
        return 2
    solver = EmptinessSolver(
        theory_builder(),
        max_configurations=args.max_configurations,
        strategy=args.strategy,
    )
    result = solver.check(system_builder())
    print(f"{args.example}: {'nonempty' if result.nonempty else 'empty'}")
    if not result.exhausted:
        print("  (search interrupted by the configuration cap; verdict not definitive)")
    if args.json:
        print(json.dumps(result.statistics.as_dict(), indent=2))
    else:
        for key, value in result.statistics.as_dict().items():
            print(f"  {key}: {value}")
    return 0


def _locate_benchmark_runner() -> Optional[Path]:
    """Find ``benchmarks/run_all.py`` relative to a checkout, if any.

    Walks up from this file: in a ``pip install -e .`` checkout the package
    lives at ``<repo>/src/repro``, so the runner sits two levels above.  A
    site-packages install has no such directory and returns None.
    """
    for parent in Path(__file__).resolve().parents:
        candidate = parent / "benchmarks" / "run_all.py"
        if candidate.is_file():
            return candidate
    return None


def _command_bench(args: argparse.Namespace) -> int:
    runner_path = _locate_benchmark_runner()
    if runner_path is None:
        print(
            "the benchmark runner ships with the repository checkout, not the "
            "installed package; clone the repository and run "
            "`python benchmarks/run_all.py` from its root",
            file=sys.stderr,
        )
        return 2
    import importlib.util

    spec = importlib.util.spec_from_file_location("benchmarks.run_all", runner_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    forwarded = []
    if args.smoke:
        forwarded.append("--smoke")
    if args.skip_suite:
        forwarded.append("--skip-suite")
    if args.skip_engine:
        forwarded.append("--skip-engine")
    if args.skip_stress:
        forwarded.append("--skip-stress")
    if args.profile:
        forwarded.extend(["--profile", args.profile])
        forwarded.extend(["--profile-top", str(args.profile_top)])
    return module.main(forwarded)


def _command_info(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps({"version": __version__, "strategies": list(STRATEGY_NAMES)}, indent=2))
        return 0
    print(f"repro {__version__}")
    print(f"  search strategies: {', '.join(STRATEGY_NAMES)}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    families = (
        [family.strip() for family in args.families.split(",") if family.strip()]
        if args.families
        else list(FAMILIES)
    )
    try:
        jobs = generate_jobs(
            args.count,
            seed=args.seed,
            families=families,
            max_configurations=args.max_configurations,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.trace:
        # Trace recording is observability-only: fingerprints (and thus
        # store keys / dedup) are unchanged by the flag.
        jobs = [dataclasses.replace(job, trace=True) for job in jobs]
    if args.certificates:
        # Like traces, certificates are artifacts, not job identity: the
        # fingerprint (and thus store keys / dedup) is unchanged.
        jobs = [dataclasses.replace(job, certificate=True) for job in jobs]
    store = ResultStore.from_url(args.store, token=_store_token()) if args.store else None
    try:
        try:
            runner = BatchRunner(
                store=store,
                workers=args.workers,
                timeout_seconds=args.timeout,
                retry_policy=RetryPolicy.with_retries(args.retries),
            )
        except ValueError as error:
            print(str(error), file=sys.stderr)
            return 2
        with runner:
            report = runner.run(jobs)
        if args.json:
            payload = report.as_dict()
            payload["seed"] = args.seed
            payload["families"] = families
            payload["store"] = args.store
            print(json.dumps(payload, indent=2))
        else:
            counts = report.verdict_counts()
            print(f"batch: {len(jobs)} jobs, {args.workers} worker(s), " f"seed {args.seed}")
            print(
                f"  verdicts: {counts['nonempty']} nonempty, "
                f"{counts['empty']} empty, {counts['error']} errors"
                + (
                    f", {counts['inconclusive']} inconclusive (cap hit)"
                    if counts["inconclusive"]
                    else ""
                )
            )
            print(f"  cache hits: {report.cache_hits}, executed: {report.executed}")
            print(f"  elapsed: {report.elapsed_seconds:.3f}s")
            faults_seen = {k: v for k, v in report.fault_tolerance.items() if v}
            if faults_seen:
                print(
                    "  fault tolerance: "
                    + ", ".join(f"{k} {v}" for k, v in sorted(faults_seen.items()))
                )
            if args.store:
                print(f"  store: {args.store} ({len(store)} results)")
                if args.trace:
                    print(
                        "  traces recorded; export one with "
                        f"`repro trace <fingerprint> --store {args.store}`"
                    )
                if args.certificates:
                    print(
                        "  certificates recorded; re-check one with "
                        f"`repro verify <fingerprint> --store {args.store}`"
                    )
            for result in report.errors:
                print(f"  ERROR {result.label}: {result.error}")
        return 1 if report.errors else 0
    finally:
        if store is not None:
            store.close()


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service.server import VerificationService, run_server
    from repro.service.store import ResultStore

    if args.workers < 1:
        print("workers must be >= 1", file=sys.stderr)
        return 2
    if args.max_connections < 1:
        print("max-connections must be >= 1", file=sys.stderr)
        return 2
    if args.role == "coordinator" and not args.runner:
        print("--role coordinator needs at least one --runner URL", file=sys.stderr)
        return 2
    if args.runner and args.role != "coordinator":
        print("--runner only applies to --role coordinator", file=sys.stderr)
        return 2
    # --auth-token wins; the environment variable keeps the secret out of
    # `ps` output and shell history for production deployments.
    auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
    max_pending = None if args.max_pending < 0 else args.max_pending
    try:
        retry_policy = RetryPolicy.with_retries(args.retries)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.drain_timeout <= 0:
        print("drain-timeout must be positive", file=sys.stderr)
        return 2
    try:
        if args.store:
            store = ResultStore.from_url(
                args.store,
                ttl_seconds=args.ttl,
                max_entries=args.max_entries,
                token=_store_token(),
            )
        else:
            # No backend given: verdicts are still cached and deduplicated for
            # the lifetime of the server, just not across restarts.
            store = ResultStore.in_memory(ttl_seconds=args.ttl, max_entries=args.max_entries)
    except (ValueError, StoreError) as error:  # bad --ttl/--max-entries/store spec
        print(str(error), file=sys.stderr)
        return 2
    service_kwargs = dict(
        store=store,
        workers=args.workers,
        timeout_seconds=args.timeout,
        auth_token=auth_token,
        max_pending=max_pending,
        max_connections=args.max_connections,
        retry_policy=retry_policy,
    )
    try:
        if args.role == "coordinator":
            from repro.service.coordinator import CoordinatorService

            # Runners in one fleet usually share the coordinator's token;
            # override via the environment when they differ.
            runner_token = os.environ.get("REPRO_RUNNER_TOKEN") or auth_token
            service = CoordinatorService(
                runners=args.runner, runner_token=runner_token, **service_kwargs
            )
        else:
            service = VerificationService(**service_kwargs)
            if args.role == "runner":
                # Same service, different announced role: a runner is a single
                # node that happens to share its keyspace with a fleet.
                service.role = "runner"
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        return run_server(
            service=service,
            host=args.host,
            port=args.port,
            port_file=args.port_file,
            drain_timeout=args.drain_timeout,
            log_level=args.log_level,
            log_json=args.log_json,
        )
    finally:
        store.close()


def _sqlite_path(spec: str) -> Optional[str]:
    """The filesystem path behind a SQLite store spec; None for other backends."""
    if spec.startswith(("http://", "https://")) or spec in ("memory", "memory:", "memory://"):
        return None
    if spec.startswith("sqlite:"):
        path = spec[len("sqlite:"):]
        return path[2:] if path.startswith("//") else path
    return spec


def _open_existing_store(spec: str) -> ResultStore:
    """Open a store for inspection without creating a missing SQLite file.

    Opening a missing path would create an empty database -- for every
    inspection action that is a typo, not an intent.  Remote and in-memory
    backends have no file to guard.
    """
    path = _sqlite_path(spec)
    if path is not None and path != ":memory:" and not Path(path).is_file():
        raise StoreError(f"no result store at {path}")
    return ResultStore.from_url(spec, token=_store_token())


def _command_trace(args: argparse.Namespace) -> int:
    """Export a stored solver trace as Chrome trace-event JSON.

    The output opens directly in Perfetto (https://ui.perfetto.dev) or
    Chrome's about://tracing; ``--raw`` dumps the recorder's native form
    (seconds-based spans) instead.
    """
    spec = args.store
    if not spec:
        print("trace needs a store: pass --store URL", file=sys.stderr)
        return 2
    with _open_existing_store(spec) as store:
        result = store.get(args.fingerprint)
        if result is None:
            print(f"no stored verdict for fingerprint {args.fingerprint[:16]!r}", file=sys.stderr)
            return 2
        if result.trace is None:
            print(
                f"no trace recorded for fingerprint {args.fingerprint[:16]!r}; "
                "re-run the job with tracing on (repro batch --trace, or "
                '"trace": true in the job spec)',
                file=sys.stderr,
            )
            return 2
        payload = result.trace if args.raw else telemetry.chrome_trace(result.trace)
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(rendered)
        events = len(payload.get("traceEvents", payload.get("spans", [])))
        print(f"wrote {args.output} ({events} events)")
    else:
        print(rendered, end="")
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    """Fetch a stored witness certificate and re-check it without the engine.

    Validation runs entirely in :mod:`repro.certify` -- the guards along
    the run, the witness database's theory membership, and the accepting
    evidence are re-derived from logic primitives, never by re-running the
    solver.  Exit status: 0 valid, 1 invalid, 2 not found / usage.
    """
    encoded: Optional[str] = None
    if args.url:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(
            args.url, auth_token=os.environ.get("REPRO_AUTH_TOKEN") or None
        )
        try:
            payload = client.witness(args.fingerprint)
        except (ServiceError, OSError) as error:
            print(str(error), file=sys.stderr)
            return 2
        finally:
            client.close()
        encoded = payload.get("certificate") if isinstance(payload, dict) else None
    else:
        spec = args.store
        if not spec:
            print("verify needs a source: pass --store URL or --url URL", file=sys.stderr)
            return 2
        with _open_existing_store(spec) as store:
            result = store.get(args.fingerprint)
            if result is None:
                print(
                    f"no stored verdict for fingerprint {args.fingerprint[:16]!r}",
                    file=sys.stderr,
                )
                return 2
            encoded = result.certificate
    if not encoded:
        print(
            f"no witness certificate for fingerprint {args.fingerprint[:16]!r}; "
            "re-run the job with certificates on (repro batch --certificates, "
            'or "certificate": true in the job spec -- only nonempty verdicts '
            "carry a witness)",
            file=sys.stderr,
        )
        return 2
    try:
        certificate = decode_certificate(encoded)
        report = validate_certificate(certificate)
    except CertificateError as error:
        print(f"INVALID certificate for {args.fingerprint[:16]}: {error}", file=sys.stderr)
        return 1
    if args.raw:
        print(render_certificate(certificate))
    elif args.json:
        print(json.dumps({"fingerprint": args.fingerprint, "valid": True, **report}, indent=2))
    else:
        print(f"certificate OK for fingerprint {args.fingerprint[:16]}")
        for key, value in report.items():
            print(f"  {key}: {value}")
    return 0


def _command_store(args: argparse.Namespace) -> int:
    spec = args.store
    if args.action == "serve":
        from repro.service.keyspace import KeyspaceService
        from repro.service.server import run_server

        auth_token = args.auth_token or os.environ.get("REPRO_AUTH_TOKEN") or None
        try:
            service = KeyspaceService(
                spec or "memory:",
                ttl_seconds=args.ttl,
                max_entries=args.max_entries,
                auth_token=auth_token,
            )
        except (ValueError, StoreError) as error:
            print(str(error), file=sys.stderr)
            return 2
        return run_server(service=service, host=args.host, port=args.port, port_file=args.port_file)
    if not spec:
        print(f"store {args.action} needs a store: pass --store URL", file=sys.stderr)
        return 2
    with _open_existing_store(spec) as store:
        if args.action == "stats":
            export = store.export()
            nonempty = sum(1 for e in export["results"] if e["nonempty"])
            definitive_empty = sum(
                1 for e in export["results"] if not e["nonempty"] and e["exhausted"]
            )
            inconclusive = export["count"] - nonempty - definitive_empty
            print(f"store {spec}: {export['count']} results")
            print(
                f"  nonempty: {nonempty}, empty: {definitive_empty}"
                + (f", inconclusive: {inconclusive}" if inconclusive else "")
            )
            total = sum(e["elapsed_seconds"] for e in export["results"])
            print(f"  total engine seconds cached: {total:.3f}")
        elif args.action == "export":
            if args.output:
                store.export_json(args.output)
                print(f"wrote {args.output}")
            else:
                print(json.dumps(store.export(), indent=2))
        elif args.action == "clear":
            removed = store.clear()
            print(f"removed {removed} results from {spec}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Verification of database-driven systems via amalgamation",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the paper's Example 1 / Example 2")
    demo.set_defaults(handler=_command_demo)

    check = subparsers.add_parser("check", help="decide emptiness of a named example")
    check.add_argument("example", choices=sorted(EXAMPLES), help="example workload")
    check.add_argument(
        "--strategy",
        choices=STRATEGY_NAMES,
        default="bfs",
        help="frontier discipline (default: bfs)",
    )
    check.add_argument(
        "--max-configurations",
        type=int,
        default=200_000,
        help="abstract configuration cap (default: 200000)",
    )
    check.add_argument("--json", action="store_true", help="statistics as JSON")
    check.set_defaults(handler=_command_check)

    batch = subparsers.add_parser(
        "batch", help="run a batch of generated workloads through the service"
    )
    batch.add_argument(
        "--count", type=int, default=50, help="number of jobs to generate (default: 50)"
    )
    batch.add_argument("--seed", type=int, default=0, help="workload generator seed (default: 0)")
    batch.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    batch.add_argument(
        "--families",
        default=None,
        help=f"comma-separated workload families (default: {','.join(FAMILIES)})",
    )
    batch.add_argument(
        "--store",
        default=None,
        help="result store backend URL -- sqlite:PATH, memory:, http://host:port, "
        "or a bare SQLite path (default: no persistence)",
    )
    batch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds, kept by the engine with "
        "any --workers count; a job past it ends with error code `timeout`",
    )
    batch.add_argument(
        "--max-configurations",
        type=int,
        default=None,
        help="override the per-family abstract configuration caps",
    )
    batch.add_argument(
        "--trace",
        action="store_true",
        help="record a solver trace per executed job (persisted with the "
        "verdict when --store is set; export via `repro trace`)",
    )
    batch.add_argument(
        "--certificates",
        action="store_true",
        help="build a replayable witness certificate per nonempty verdict "
        "(persisted with the verdict when --store is set; re-check via "
        "`repro verify`)",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per job after a transient failure -- worker "
        "crash, deadline kill, timeout (default: 0, never retry)",
    )
    batch.add_argument("--json", action="store_true", help="full report as JSON")
    batch.set_defaults(handler=_command_batch)

    serve = subparsers.add_parser("serve", help="run the async HTTP verification service")
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 lets the OS pick a free one (default: 8080)",
    )
    serve.add_argument(
        "--port-file",
        default=None,
        help="write the bound port to this file once listening",
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="engine worker processes (default: 1)"
    )
    serve.add_argument(
        "--role",
        choices=["single", "runner", "coordinator"],
        default="single",
        help="node role: `single` serves and executes alone; `runner` is a "
        "fleet execution node (point --store at the shared keyspace); "
        "`coordinator` executes nothing and shards jobs across --runner "
        "nodes by fingerprint (default: single)",
    )
    serve.add_argument(
        "--runner",
        action="append",
        default=None,
        metavar="URL",
        help="a runner node's base URL (repeatable; coordinator role only)",
    )
    serve.add_argument(
        "--store",
        default=None,
        help="result store backend URL -- sqlite:PATH, memory:, http://host:port "
        "of a `repro store serve` keyspace ($REPRO_STORE_TOKEN authenticates), "
        "or a bare SQLite path (default: in-memory cache)",
    )
    serve.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="verdict time-to-live in seconds (default: no expiry)",
    )
    serve.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="store entry cap; oldest verdicts are evicted beyond it",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-job wall-clock budget in seconds, kept by the engine with "
        "any --workers count; a job past it ends with error code `timeout`",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        help="require this shared-secret token on every request except "
        "/v1/healthz (default: $REPRO_AUTH_TOKEN, else no auth)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=DEFAULT_MAX_PENDING,
        help="work-bearing requests in flight before load-shedding with 429; "
        f"0 sheds everything, -1 disables shedding (default: {DEFAULT_MAX_PENDING})",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=DEFAULT_MAX_CONNECTIONS,
        help="open connection cap; over-cap connects are answered 503 "
        f"(default: {DEFAULT_MAX_CONNECTIONS})",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=0,
        help="extra attempts per job after a transient failure -- worker "
        "crash, deadline kill, timeout (default: 0, never retry)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds SIGTERM/SIGINT waits for in-flight work before "
        "exiting (default: 30)",
    )
    serve.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="enable structured logs at this level (default: logging off)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit logs as JSON lines (implies --log-level info unless set)",
    )
    serve.set_defaults(handler=_command_serve)

    store = subparsers.add_parser("store", help="inspect, manage or serve a result store")
    store.add_argument(
        "action", choices=["stats", "export", "clear", "serve"], help="what to do"
    )
    store.add_argument(
        "--store",
        default=None,
        help="backend URL -- sqlite:PATH, memory:, http://host:port, or a "
        "bare SQLite path (for `serve`, the backing storage; default: memory:)",
    )
    store.add_argument("--output", default=None, help="file for `export` (default: stdout)")
    store.add_argument(
        "--host", default="127.0.0.1", help="`serve`: bind address (default: 127.0.0.1)"
    )
    store.add_argument(
        "--port",
        type=int,
        default=8090,
        help="`serve`: bind port; 0 lets the OS pick a free one (default: 8090)",
    )
    store.add_argument(
        "--port-file",
        default=None,
        help="`serve`: write the bound port to this file once listening",
    )
    store.add_argument(
        "--ttl",
        type=float,
        default=None,
        help="`serve`: row time-to-live in seconds, enforced server-side "
        "(default: no expiry)",
    )
    store.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="`serve`: row cap; oldest rows are evicted beyond it",
    )
    store.add_argument(
        "--auth-token",
        default=None,
        help="`serve`: require this shared-secret token on every request "
        "except /v1/ and /v1/healthz (default: $REPRO_AUTH_TOKEN, else no auth)",
    )
    store.set_defaults(handler=_command_store)

    trace = subparsers.add_parser(
        "trace", help="export a stored solver trace as Chrome trace-event JSON"
    )
    trace.add_argument("fingerprint", help="job fingerprint (full SHA-256 hex)")
    trace.add_argument(
        "--store",
        default=None,
        help="result store backend URL (sqlite:PATH, http://host:port, or a bare path)",
    )
    trace.add_argument(
        "--output",
        default=None,
        help="file to write (default: stdout); open it in https://ui.perfetto.dev",
    )
    trace.add_argument(
        "--raw",
        action="store_true",
        help="dump the recorder's native seconds-based form instead",
    )
    trace.set_defaults(handler=_command_trace)

    verify = subparsers.add_parser(
        "verify", help="re-check a stored witness certificate without the engine"
    )
    verify.add_argument("fingerprint", help="job fingerprint (full SHA-256 hex)")
    verify.add_argument(
        "--store",
        default=None,
        help="result store backend URL (sqlite:PATH, http://host:port, or a bare path)",
    )
    verify.add_argument(
        "--url",
        default=None,
        help="fetch from a running `repro serve` endpoint's "
        "/v1/jobs/{fingerprint}/witness instead of a store "
        "($REPRO_AUTH_TOKEN authenticates)",
    )
    verify.add_argument("--json", action="store_true", help="validation report as JSON")
    verify.add_argument(
        "--raw",
        action="store_true",
        help="print the canonical certificate JSON instead of the report",
    )
    verify.set_defaults(handler=_command_verify)

    bench = subparsers.add_parser("bench", help="run the unified benchmark runner")
    bench.add_argument("--smoke", action="store_true", help="CI-sized benchmark run")
    bench.add_argument("--skip-suite", action="store_true", help="skip the pytest-benchmark phase")
    bench.add_argument(
        "--skip-engine", action="store_true", help="skip the engine comparison phase"
    )
    bench.add_argument(
        "--skip-stress", action="store_true", help="skip the adversarial stress phase"
    )
    bench.add_argument(
        "--profile",
        metavar="WORKLOAD",
        default=None,
        help="run one engine benchmark under cProfile and print the hottest "
        "functions (e.g. bench_e2, bench_e5, stress_hom_deep, stress_tree_wide)",
    )
    bench.add_argument(
        "--profile-top",
        type=int,
        default=20,
        help="entries to print with --profile (default: 20)",
    )
    bench.set_defaults(handler=_command_bench)

    info = subparsers.add_parser("info", help="version and search strategies")
    info.add_argument("--json", action="store_true", help="machine-readable output")
    info.set_defaults(handler=_command_info)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StoreError as error:
        # A missing SQLite file, a newer row schema, or a keyspace that is
        # unreachable or refuses the call: exit 2 with the reason, no traceback.
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
