"""The verdict benchmark: real node processes, one closed-loop load generator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a repro checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload twice on the same topology, once
plain and once with every layer wrapped, and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Outside a checkout there is nothing to import; main() then reports it and
# exits 2.
IN_CHECKOUT = (SRC / "repro" / "__init__.py").is_file()
if IN_CHECKOUT:
    sys.path.insert(0, str(SRC))
    import load
    import procs
    import spans
    from repro.service.client import ServiceClient
    from repro.service.specs import theory_to_spec

WORKLOADS = ("engine_cold", "fleet_warm")

#: Set-ups per untraced run; ``setup_s`` is their median.  A fleet set-up
#: also decides the warm pool, so it gets fewer.
SETUPS = {"engine_cold": 7, "fleet_warm": 3}

#: The whole invocation is cut (and cleaned up) after this many seconds.
RUN_DEADLINE_SECONDS = 170

#: The counter that must move by exactly the number of fresh jobs sent.
EXECUTED = "repro_jobs_executed_total"

#: Latency samples that must lie beyond the reported tail.
TAIL_BEYOND = 10

ROLES = ("single", "coordinator", "runner", "keyspace")
THEORY_KINDS = ("all_databases", "hom", "word_run", "tree_run", "data_valued")

#: Span metrics reported as p50 self time, by span name.
SELF_TIME_SPANS = {
    "client.submit_ms": "client.submit",
    "server.http_ms": "server.http",
    "server.parse_ms": "server.parse",
    "server.resolve_ms": "server.resolve",
    "jobs.fingerprint_ms": "jobs.fingerprint",
    "store.get_ms": "store.get",
    "store.put_ms": "store.put",
    "store.claim_ms": "store.claim",
    "keyspace.handle_ms": "keyspace.handle",
    "keyspace.transport_ms": "keyspace.call",
    "coordinator.forward_ms": "coordinator.forward",
    "runner.execute_ms": "runner.execute",
    "supervisor.pool_start_ms": "supervisor.pool_start",
    "supervisor.pool_close_ms": "supervisor.pool_close",
}


class Interrupted(Exception):
    """SIGTERM, SIGINT or the run deadline arrived."""


def p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Phase:
    """Everything one measured window produced."""

    setup_seconds: List[float]
    requests: list
    window: float
    verdicts: int
    attempted: int
    failed: Dict[str, str]
    cpu_seconds: Dict[str, float]
    rss_mb: Dict[str, float]
    peak_rss_mb: float
    counters: Dict[str, Dict[str, float]]  # role -> summed deltas
    front_counters: Dict[str, float]
    executed: List[Tuple[Dict[str, Any], str]]  # (result, theory kind)
    checks: load.CheckReport
    spans: list = field(default_factory=list)


def launch(topology, workload: str):
    """Start the workload's nodes; returns the front-door node."""
    if workload == "fleet_warm":
        keyspace = topology.launch("keyspace", "keyspace", ["store", "serve", "--store", "memory:"])
        topology.wait_ready([keyspace])
        runners = [
            topology.launch(
                "runner", f"runner-{i}",
                ["serve", "--role", "runner", "--workers", "1", "--store", keyspace.url],
            )
            for i in range(2)
        ]
        topology.wait_ready(runners)
        argv = ["serve", "--role", "coordinator", "--store", keyspace.url]
        for runner in runners:
            argv += ["--runner", runner.url]
        front = topology.launch("coordinator", "coordinator", argv)
    else:
        argv = ["serve", "--workers", "2", "--timeout", str(load.JOB_TIMEOUT_SECONDS),
                "--store", "memory:"]
        front = topology.launch("single", "single", argv)
    topology.wait_ready([front])
    return front


def decide_pool(front, pool) -> Dict[str, Tuple[Optional[bool], bool]]:
    with ServiceClient(front.url) as client:
        results = client.submit_batch(pool)["results"]
    verdicts = {}
    for job, result in zip(pool, results):
        if result["error"] is not None or result["fingerprint"] != job.fingerprint:
            raise RuntimeError(f"warm pool job {job.label} failed: {result['error']}")
        verdicts[job.fingerprint] = load.verdict_of(result)
    return verdicts


class Tally:
    """Verdicts of the sent requests: every job answered, repeats agree."""

    def __init__(self, pool, pool_verdicts) -> None:
        self.jobs = {job.fingerprint: job for job in pool}
        self.first: Dict[str, Tuple[Optional[bool], bool]] = dict(pool_verdicts)
        self.failed: Dict[str, str] = {}
        self.executed: List[Tuple[Dict[str, Any], str]] = []
        self.attempted = self.verdicts = self.fresh_sent = 0

    def add(self, request, measured: bool = True) -> None:
        """Tally one request; a warm-up request (not ``measured``) counts
        towards ``attempted`` and the checks only."""
        self.attempted += len(request.jobs)
        if measured:
            self.fresh_sent += len(request.fresh)
        for position, job in enumerate(request.jobs):
            self.jobs[job.fingerprint] = job
            tag = f"{job.fingerprint}@{request.index}"
            if request.error is not None or request.retries:
                self.failed[tag] = request.error or f"refused {request.retries} time(s)"
                continue
            result = request.results[position]
            if result["fingerprint"] != job.fingerprint or result["error"] is not None:
                self.failed[tag] = f"error: {result['error']}"
                continue
            self.verdicts += measured
            verdict = load.verdict_of(result)
            first = self.first.setdefault(job.fingerprint, verdict)
            if first != verdict:
                self.failed[tag] = f"verdict {verdict} differs from first {first}"
            if measured and job.fingerprint in request.fresh:
                self.executed.append((result, theory_to_spec(job.theory)["kind"]))


def scrape(topology, first_keyspace: bool) -> Dict[str, Dict[str, float]]:
    # Scraping a node that stores in the keyspace calls the keyspace, so the
    # keyspace is read last before the window and first after it.
    nodes = sorted(topology.nodes, key=lambda n: (n.role == "keyspace") != first_keyspace)
    return {node.name: node.counters() for node in nodes}


def measure(workload: str, seed: int, seconds: float, workdir: Path, trace: bool, setups: int,
            stop: threading.Event) -> Phase:
    clock_zero = time.monotonic()
    plan = load.plan(workload, seed)
    setup_seconds = []
    topology = None
    pool_verdicts: Dict[str, Tuple[Optional[bool], bool]] = {}
    try:
        for attempt in range(setups):
            if topology is not None:
                topology.stop()
                procs.reap_all()
            setup_dir = workdir / f"setup-{attempt}"
            setup_dir.mkdir(parents=True)
            topology = procs.Topology(setup_dir, clock_zero, trace)
            began = time.monotonic()
            front = launch(topology, workload)
            if plan.pool:
                pool_verdicts = decide_pool(front, plan.pool)
            setup_seconds.append(time.monotonic() - began)
        load.assign_witnesses(plan, {fp for fp, (nonempty, _) in pool_verdicts.items() if nonempty})
        load.drive(front.url, plan.warmup, seconds, stop)

        before = scrape(topology, first_keyspace=False)
        cpu_before = topology.cpu_by_role()
        sampler = procs.RssSampler(topology)
        sampler.start()
        log = spans.SpanLog(clock_zero) if trace else None
        try:
            start = load.drive(front.url, plan.requests, seconds, stop, log)
        finally:
            worker_peak = sampler.finish()
        sent = [request for requests in plan.requests for request in requests]
        end = max(request.end for request in sent)
        cpu_after = topology.cpu_by_role()
        hwm = topology.node_hwm_by_role()
        after = scrape(topology, first_keyspace=True)

        roles = {node.name: node.role for node in topology.nodes}
        tally = Tally(plan.pool, pool_verdicts)
        for request in (request for requests in plan.warmup for request in requests):
            tally.add(request, measured=False)
        for request in sent:
            tally.add(request)
        executing = "runner" if workload == "fleet_warm" else "single"
        ran = sum(after[name][EXECUTED] - before[name][EXECUTED]
                  for name, role in roles.items() if role == executing)
        if int(ran) != tally.fresh_sent:
            tally.failed["executed"] = f"{EXECUTED} moved by {int(ran)}, not {tally.fresh_sent}"
        checks = load.check_verdicts(front.url, tally.jobs, tally.first)
        for fingerprint, reason in checks.failed.items():
            tally.failed[f"check:{fingerprint}"] = reason
    finally:
        if topology is not None:
            topology.stop()
        procs.reap_all()

    span_list = []
    if trace:
        dumps = sorted(workdir.glob("setup-*/*.spans.json"))
        files = [json.loads(path.read_text()) for path in dumps]
        files.append({"role": "client", "pid": 0, "trace": log.recorder.as_dict()})
        span_list = spans.load(files)
        spans.link(span_list)
        spans.perfetto(span_list, files, workdir / "trace.perfetto.json")
    counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, role in roles.items():
        for metric, value in after[name].items():
            counters[role][metric] += value - before[name].get(metric, 0.0)
    front_name = "coordinator" if workload == "fleet_warm" else "single"
    return Phase(
        setup_seconds=setup_seconds,
        requests=sent,
        window=end - start,
        verdicts=tally.verdicts,
        attempted=tally.attempted,
        failed=tally.failed,
        cpu_seconds={role: cpu_after[role] - cpu_before.get(role, 0.0) for role in cpu_after},
        rss_mb={role: hwm.get(role, 0.0) + worker_peak.get(role, 0.0) for role in hwm},
        peak_rss_mb=sum(hwm.values()) + worker_peak.get("total", 0.0),
        counters=counters,
        front_counters=counters[front_name],
        executed=tally.executed,
        checks=checks,
        spans=[s for s in span_list if s.request is not None],
    )


def tail(latencies: List[float]) -> Tuple[float, float]:
    """The sample with TAIL_BEYOND samples beyond it, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(phase: Phase) -> Dict[str, Tuple[float, str]]:
    latencies = [request.latency for request in phase.requests]
    tail_value, _ = tail(latencies)
    return {
        "setup_s": (statistics.median(phase.setup_seconds), "s"),
        "verdicts_per_s": (phase.verdicts / phase.window, "1/s"),
        "request_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "request_tail_ms": (1000 * tail_value, "ms"),
        "cpu_ms_per_verdict": (
            1000 * sum(phase.cpu_seconds.values()) / max(phase.verdicts, 1), "ms"),
        "peak_rss_mb": (phase.peak_rss_mb, "MB"),
    }


def per_layer(plain: Phase, traced: Phase) -> Dict[str, Tuple[float, str]]:
    by_name: Dict[str, list] = defaultdict(list)
    for span in traced.spans:
        by_name[span.name].append(span)
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, name in SELF_TIME_SPANS.items():
        metrics[metric] = (1000 * p50([s.self_time() for s in by_name[name]]), "ms")
    metrics["keyspace.call_ms"] = (1000 * p50([s.duration for s in by_name["keyspace.call"]]), "ms")

    verdicts = max(traced.verdicts, 1)
    requests = max(len(traced.requests), 1)
    counters, front = traced.counters, traced.front_counters

    def total(metric: str, roles=("single", "coordinator", "runner")) -> float:
        return sum(counters[role].get(metric, 0.0) for role in roles)

    received = front.get("repro_jobs_received_total", 0.0)
    metrics.update({
        "client.retries": (sum(r.retries for r in traced.requests), "count"),
        "server.store_hit_share": (front.get("repro_store_hits_total", 0.0) / max(received, 1),
                                   "ratio"),
        "server.inflight_joins": (total("repro_inflight_joins_total"), "count"),
        "server.shed": (total("repro_requests_shed_total"), "count"),
        "store.gets_per_verdict": (total("repro_store_gets_total") / verdicts, "count"),
        "store.puts_per_verdict": (total("repro_store_puts_total") / verdicts, "count"),
        "keyspace.calls_per_verdict": (total("repro_keyspace_ops_total", ("keyspace",)) / verdicts,
                                       "count"),
        "coordinator.forwarded_per_verdict": (
            total("repro_jobs_forwarded_total", ("coordinator",)) / verdicts, "count"),
        "coordinator.failovers": (total("repro_runner_failovers_total", ("coordinator",)),
                                  "count"),
        "supervisor.pools_per_request": (len(by_name["supervisor.pool_start"]) / requests,
                                         "count"),
        "supervisor.respawns": (total("repro_worker_respawns_total"), "count"),
    })

    results = [result for result, _ in traced.executed]
    walls = [r["wall_seconds"] for r in results if r.get("wall_seconds") is not None]
    preps = [r["wall_seconds"] - r["elapsed_seconds"] for r in results
             if r.get("wall_seconds") is not None]
    stats = [r["statistics"] for r in results]

    def stat_sum(key: str) -> float:
        return float(sum(s.get(key, 0) for s in stats))

    executed = max(len(results), 1)
    candidates = stat_sum("candidates_generated")
    lookups = stat_sum("key_cache_hits") + stat_sum("key_cache_misses")
    metrics.update({
        "worker.wall_ms": (1000 * p50(walls), "ms"),
        "worker.prep_ms": (1000 * p50(preps), "ms"),
        "engine.check_ms": (1000 * p50([r["elapsed_seconds"] for r in results]), "ms"),
        "engine.configurations_explored": (stat_sum("configurations_explored") / executed,
                                           "count"),
        "engine.candidates_generated": (candidates / executed, "count"),
        "engine.duplicate_share": (stat_sum("duplicate_keys_pruned") / max(candidates, 1),
                                   "ratio"),
        "engine.key_cache_hit_share": (stat_sum("key_cache_hits") / max(lookups, 1), "ratio"),
        "plans.rejected_pre_materialization": (
            stat_sum("plan_rejected_pre_materialization") / executed, "count"),
    })
    for kind in THEORY_KINDS:
        seconds = sum(r["elapsed_seconds"] for r, k in traced.executed if k == kind)
        metrics[f"engine.check_s.{kind}"] = (seconds, "s")

    witness = [s.duration for s in by_name["certify.witness_fetch"]]
    metrics.update({
        "certify.validate_ms": (1000 * p50(traced.checks.validate_seconds), "ms"),
        "certify.bytes": (p50(traced.checks.certificate_bytes), "bytes"),
        "certify.witness_fetch_ms": (1000 * p50(witness), "ms"),
    })
    for role in ROLES:
        metrics[f"process.cpu_ms.{role}"] = (
            1000 * plain.cpu_seconds.get(role, 0.0) / max(plain.verdicts, 1), "ms")
        metrics[f"process.rss_mb.{role}"] = (plain.rss_mb.get(role, 0.0), "MB")
    plain_rate = plain.verdicts / plain.window
    metrics["trace.overhead_pct"] = (
        100 * (plain_rate - traced.verdicts / traced.window) / plain_rate, "%")
    return metrics


def layer_shares(phase: Phase) -> Dict[str, Dict[str, float]]:
    """Each span name's summed self time as a share of summed request latency,
    over requests with a fresh job and over requests of repeats only.

    Witness fetches are their own roots, so they count in neither class.
    """
    fresh = {request.index: bool(request.fresh) for request in phase.requests}
    classes = {}
    for name, wanted in (("fresh", True), ("warm", False)):
        total = sum(r.latency for r in phase.requests if bool(r.fresh) == wanted)
        if not total:
            continue
        shares: Dict[str, float] = defaultdict(float)
        for span in phase.spans:
            if fresh.get(span.request) is wanted:
                shares[span.name] += span.self_time() / total
        classes[name] = {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda i: -i[1])}
    return classes


def engine_share(phase: Phase) -> float:
    """Engine time (``elapsed_seconds``) as a share of worker time (``wall_seconds``)."""
    results = [result for result, _ in phase.executed if result.get("wall_seconds")]
    wall = sum(result["wall_seconds"] for result in results)
    return round(sum(result["elapsed_seconds"] for result in results) / wall, 4) if wall else 0.0


def report(phase: Phase) -> Dict[str, Any]:
    latencies = [request.latency for request in phase.requests]
    tail_value, percentile = tail(latencies)
    verdicts = max(phase.verdicts, 1)
    return {
        "requests": len(latencies),
        "verdicts": phase.verdicts,
        "window_s": round(phase.window, 3),
        "failed_share": len(phase.failed) / max(phase.attempted, 1),
        "failures": dict(list(phase.failed.items())[:20]),
        "request_tail": {"ms": round(1000 * tail_value, 3), "percentile": round(percentile, 2),
                         "samples": len(latencies)},
        "setup_s": [round(s, 4) for s in phase.setup_seconds],
        "checked_fingerprints": phase.checks.checked,
        "counters_per_verdict": {
            role: {name: round(value / verdicts, 4) for name, value in sorted(values.items())
                   if name.endswith("_total") and value}
            for role, values in phase.counters.items()
        },
    }


def metric_block(metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(args: argparse.Namespace, outdir: Path, stop: threading.Event) -> Dict[str, Any]:
    if not args.trace:
        phase = measure(args.workload, args.seed, args.seconds, outdir / "plain", False,
                        SETUPS[args.workload], stop)
        details = report(phase)
        metrics = end_to_end(phase)
        attempted, failed = phase.attempted, len(phase.failed)
    else:
        # The two halves share the run's time, so a traced run takes about
        # as long as a plain one.
        half = args.seconds / 2
        plain = measure(args.workload, args.seed, half, outdir / "plain", False, 1, stop)
        traced = measure(args.workload, args.seed, half, outdir / "traced", True, 1, stop)
        details = {"plain": report(plain), "traced": report(traced),
                   "layer_share": layer_shares(traced),
                   "engine_share_of_worker_time": engine_share(traced),
                   "perfetto": str(outdir / "traced" / "trace.perfetto.json")}
        metrics = per_layer(plain, traced)
        attempted = plain.attempted + traced.attempted
        failed = len(plain.failed) + len(traced.failed)
    (outdir / "report.json").write_text(json.dumps({"details": details,
                                                    "metrics": metric_block(metrics)}, indent=2))
    print(json.dumps({"report": details}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metric_block(metrics)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured window length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not IN_CHECKOUT:
        print(f"perfbench: {SRC / 'repro'} not found; run from the root of a repro checkout",
              file=sys.stderr)
        return 2
    procs.become_subreaper()
    stop = threading.Event()

    def interrupt(signum, frame):
        # Only the first signal interrupts; later ones must not cut the
        # teardown it starts short.  Clients send nothing more meanwhile.
        if not stop.is_set():
            stop.set()
            raise Interrupted(signal.Signals(signum).name)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGALRM):
        signal.signal(signum, interrupt)
    signal.alarm(RUN_DEADLINE_SECONDS)
    outdir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    try:
        result = run(args, outdir, stop)
    except Interrupted as reason:
        print(f"perfbench: interrupted ({reason}); every node stopped", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        procs.reap_all()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
