"""The workloads: their jobs, their closed-loop clients, and the verdict checks.

Jobs come from :mod:`repro.workloads` and are generated from the benchmark
seed before any node starts, so nodes receive only the generated jobs.
Fingerprints never repeat within a run unless a workload repeats them on
purpose (``fleet_warm``'s warm pool).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.certify import decode_certificate, validate_encoded
from repro.errors import CertificateError
from repro.fraisse.search import STRATEGY_NAMES
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import VerificationJob, execute_job
from repro.service.specs import theory_to_spec
from repro.workloads import FAMILIES, generate_jobs

#: Per-job wall-clock budget the cold nodes run with (``--timeout``).
JOB_TIMEOUT_SECONDS = 60

#: ``tree_wide`` caps and strategies.  At the family's own cap of 25 one bfs
#: job runs ~20 s; at caps 1-2 a bfs or priority job takes 0.15-0.45 s in a
#: pool worker.  dfs is left out: it reaches the witness only after ~1 s at
#: any cap.  The 8 resulting jobs go into every run.
TREE_WIDE_CAPS = (1, 2)
TREE_WIDE_STRATEGIES = ("bfs", "priority")

#: Configuration caps of the heavy-profile and hom_deep jobs.  Under their
#: own caps one job takes 5 ms or 2.5 s, and a run of ~40 batches spends
#: 10-15% more or less engine time depending on which jobs the seed drew.
#: At these caps a job takes up to ~0.2 s and the run-to-run difference
#: stays within a few percent.
HEAVY_MAX_CONFIGURATIONS = 40
HOM_DEEP_MAX_CONFIGURATIONS = 15

#: Configuration cap of every light job.  Uncapped, one light job in ~25
#: runs 0.1-0.9 s, which makes request latency depend on the seed; at 12 a
#: job takes at most ~80 ms (a few ms typically) and ~10% come back
#: inconclusive.
LIGHT_MAX_CONFIGURATIONS = 12

#: engine_cold: batches generated per run (a window uses up to ~100), and
#: heavy-profile jobs drawn for them.  The heavy profile has few distinct
#: jobs: 2000 draws give ~465 fingerprints, three for each batch.
ENGINE_BATCHES = 150
HEAVY_JOBS = 2000

#: Requests each client sends before the window opens, so that no measured
#: request pays a node's first-use costs.  Their verdicts are checked, not
#: measured.
WARMUP_REQUESTS = 4

#: fleet_warm: requests generated per client (a window uses ~200), jobs in
#: the warm pool, which request carries a fresh job (every fourth), and how
#: often a warm request also fetches a witness.
FLEET_REQUESTS = 600
WARM_POOL_JOBS = 8
FRESH_EVERY = 4
WITNESS_EVERY = 4


class Distinct:
    """Drops jobs whose fingerprint was already handed out in this run."""

    def __init__(self) -> None:
        self.seen: Set[str] = set()

    def take(
        self, jobs: Sequence[VerificationJob], certificate: bool = True
    ) -> List[VerificationJob]:
        kept = []
        for job in jobs:
            if job.fingerprint not in self.seen:
                self.seen.add(job.fingerprint)
                kept.append(dataclasses.replace(job, certificate=certificate))
        return kept


def _light(
    distinct: Distinct, seed: int, count: int, certificate: bool = True
) -> List[VerificationJob]:
    jobs = generate_jobs(count, seed=seed, families=FAMILIES,
                         max_configurations=LIGHT_MAX_CONFIGURATIONS)
    return distinct.take(jobs, certificate)


def _engine_batches(seed: int, distinct: Distinct) -> List[List[VerificationJob]]:
    """Batches of six: three heavy-profile jobs (in every other batch a
    tree_wide job in place of one), one hom_deep job and two light jobs.

    Each family draws its own seeded stream.  ``tree_wide`` has two distinct
    systems, so its fingerprints also vary the strategy and the cap; the
    resulting jobs fill the tree slots of the first batches in a seeded order.
    """
    rng = random.Random(seed)
    heavy = iter(distinct.take(generate_jobs(
        HEAVY_JOBS, seed=seed, profile="heavy", max_configurations=HEAVY_MAX_CONFIGURATIONS)))
    hom_deep = iter(distinct.take(generate_jobs(
        ENGINE_BATCHES, seed=seed + 1, families=["hom_deep"],
        max_configurations=HOM_DEEP_MAX_CONFIGURATIONS)))
    light = iter(_light(distinct, seed + 2, 3 * ENGINE_BATCHES))
    trees = []
    for sub in range(4):
        base = generate_jobs(1, seed=seed * 7 + sub, families=["tree_wide"])[0]
        for strategy, cap in itertools.product(TREE_WIDE_STRATEGIES, TREE_WIDE_CAPS):
            trees.append(dataclasses.replace(base, strategy=strategy, max_configurations=cap))
    rng.shuffle(trees)
    tree = iter(distinct.take(trees))
    batches = []
    try:
        for position in range(ENGINE_BATCHES):
            slot = (next(tree, None) if position % 2 == 0 else None) or next(heavy)
            batches.append([slot, next(heavy), next(heavy), next(hom_deep), next(light),
                            next(light)])
    except StopIteration:
        pass  # a family ran out of distinct jobs; the batches so far suffice
    return batches


@dataclass
class Request:
    """One ``POST /v1/jobs`` a client sent, and what came back."""

    jobs: List[VerificationJob]
    fresh: Set[str]
    index: int = 0
    start: float = 0.0
    end: float = 0.0
    results: List[Dict[str, Any]] = field(default_factory=list)
    error: Optional[str] = None
    retries: int = 0
    witness: Optional[str] = None  # fingerprint whose certificate this client fetched after

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class Plan:
    """What a workload sends: per-client request lists, each client's
    warm-up requests before them, and the warm pool."""

    requests: List[List[Request]]
    warmup: List[List[Request]]
    pool: List[VerificationJob] = field(default_factory=list)


def _with_warmup(per_client: List[List[Request]], pool: Sequence[VerificationJob] = ()) -> Plan:
    """Each client's first WARMUP_REQUESTS requests become its warm-up."""
    return Plan([requests[WARMUP_REQUESTS:] for requests in per_client],
                [requests[:WARMUP_REQUESTS] for requests in per_client], list(pool))


def _fleet_plan(seed: int, distinct: Distinct) -> Plan:
    """Two-job batches of repeats; every FRESH_EVERY-th request one fresh job."""
    pool = _light(distinct, seed * 131, WARM_POOL_JOBS * 4)[:WARM_POOL_JOBS]
    fresh = iter(_light(distinct, seed * 131 + 1, FLEET_REQUESTS, certificate=False))
    per_client = []
    for client in range(2):
        # Each client repeats its own half of the pool, so no two requests in
        # flight share a fingerprint.
        own = pool[client::2]
        rng = random.Random(seed * 131 + 2 + client)
        requests = []
        for position in range(FLEET_REQUESTS):
            if (position + 2 * client) % FRESH_EVERY == FRESH_EVERY - 1:
                job = next(fresh, None)
                if job is None:
                    break
                requests.append(Request([job, rng.choice(own)], {job.fingerprint}))
            else:
                requests.append(Request(rng.sample(own, 2), set()))
        per_client.append(requests)
    return _with_warmup(per_client, pool)


def plan(workload: str, seed: int) -> Plan:
    """The requests ``workload`` sends for ``seed``, per client."""
    distinct = Distinct()
    if workload == "fleet_warm":
        return _fleet_plan(seed, distinct)
    if workload != "engine_cold":
        raise ValueError(f"unknown workload {workload!r}")
    return _with_warmup([[Request(batch, {job.fingerprint for job in batch})
                          for batch in _engine_batches(seed, distinct)]])


def assign_witnesses(workload_plan: Plan, nonempty: Set[str]) -> None:
    """Every WITNESS_EVERY-th warm request also fetches a nonempty repeat's witness."""
    for requests in workload_plan.requests:
        warm = [request for request in requests if not request.fresh]
        for request in warm[WITNESS_EVERY - 1 :: WITNESS_EVERY]:
            request.witness = next(
                (job.fingerprint for job in request.jobs if job.fingerprint in nonempty), None
            )


class CountingClient(ServiceClient):
    """A :class:`ServiceClient` that counts the retries it makes after 429/503."""

    retries = 0

    def _compute_delay(self, *args, **kwargs):
        self.retries += 1
        return super()._compute_delay(*args, **kwargs)


def drive(base_url: str, requests: List[List[Request]], seconds: float,
          stop: threading.Event, log=None) -> float:
    """Run each client's requests closed-loop until ``seconds`` have passed.

    Returns the window start.  Each client sends its next request only when
    the previous response is in; no request starts after the deadline, and
    the window ends when the last one returns.
    """
    index = itertools.count()
    barrier = threading.Barrier(len(requests) + 1)
    started = []
    lock = threading.Lock()

    def client(own: List[Request]) -> None:
        with CountingClient(base_url) as service:
            barrier.wait()
            deadline = started[0] + seconds
            for position, request in enumerate(own):
                if time.monotonic() >= deadline or stop.is_set():
                    del own[position:]
                    return
                with lock:
                    request.index = next(index)
                before = service.retries
                request.start = time.monotonic()
                try:
                    report = service.submit_batch(request.jobs)
                    request.results = report["results"]
                except (ServiceError, OSError, KeyError, ValueError) as error:
                    request.error = f"{type(error).__name__}: {error}"
                request.end = time.monotonic()
                request.retries = service.retries - before
                if log is not None:
                    log.add("client.submit", request.start, request.end,
                            [job.fingerprint for job in request.jobs], request=request.index)
                if request.witness is not None:
                    began = time.monotonic()
                    try:
                        service.witness(request.witness)
                    except (ServiceError, OSError) as error:
                        request.error = f"witness: {type(error).__name__}: {error}"
                    finished = time.monotonic()
                    if log is not None:
                        with lock:
                            witness_index = next(index)
                        log.add("certify.witness_fetch", began, finished, [request.witness],
                                request=witness_index)

    threads = [threading.Thread(target=client, args=(own,), name=f"perfbench-client-{i}",
                                daemon=True)
               for i, own in enumerate(requests)]
    for thread in threads:
        thread.start()
    started.append(time.monotonic())
    barrier.wait()
    for thread in threads:
        thread.join()
    return started[0]


# -- verdict checks ----------------------------------------------------------------


def verdict_of(result: Dict[str, Any]) -> Tuple[Optional[bool], bool]:
    return result.get("nonempty"), bool(result.get("exhausted"))


def _spec(value: Any) -> Any:
    return json.loads(json.dumps(value))


@dataclass
class CheckReport:
    failed: Dict[str, str] = field(default_factory=dict)  # fingerprint -> reason
    validate_seconds: List[float] = field(default_factory=list)
    certificate_bytes: List[int] = field(default_factory=list)
    checked: int = 0


def _other_strategy(strategy: str) -> str:
    return STRATEGY_NAMES[(STRATEGY_NAMES.index(strategy) + 1) % len(STRATEGY_NAMES)]


def check_verdicts(base_url: str, jobs: Dict[str, VerificationJob],
                   first: Dict[str, Tuple[Optional[bool], bool]]) -> CheckReport:
    """Check the first verdict of every fingerprint without trusting the node.

    * nonempty: :func:`repro.certify.validate_encoded` accepts the job's
      certificate (fetched from the witness endpoint, or built in-process for
      a job sent without one), and the certificate is about this job;
    * empty: an in-process run under another strategy is empty and exhausted;
    * inconclusive: an in-process run under the same strategy reproduces it.
    """
    report = CheckReport()
    with ServiceClient(base_url) as service:
        for fingerprint, (nonempty, exhausted) in first.items():
            job = jobs[fingerprint]
            report.checked += 1
            try:
                if nonempty:
                    if job.certificate:
                        encoded = service.witness(fingerprint)["certificate"]
                    else:
                        rerun = execute_job(dataclasses.replace(job, certificate=True))
                        if not rerun.nonempty:
                            raise CertificateError("in-process rerun is not nonempty")
                        encoded = rerun.certificate
                    began = time.perf_counter()
                    validate_encoded(encoded)
                    report.validate_seconds.append(time.perf_counter() - began)
                    report.certificate_bytes.append(len(encoded))
                    certificate = decode_certificate(encoded)
                    if (certificate["system"] != _spec(job.system.to_spec())
                            or certificate["theory"] != _spec(theory_to_spec(job.theory))):
                        raise CertificateError("certificate is for another job")
                elif exhausted:
                    rerun = execute_job(dataclasses.replace(
                        job, strategy=_other_strategy(job.strategy), certificate=False))
                    if rerun.nonempty is not False or not rerun.exhausted:
                        raise CertificateError(
                            f"empty verdict not reproduced under {_other_strategy(job.strategy)}: "
                            f"nonempty={rerun.nonempty} exhausted={rerun.exhausted}")
                else:
                    rerun = execute_job(dataclasses.replace(job, certificate=False))
                    if rerun.nonempty is not False or rerun.exhausted:
                        raise CertificateError(
                            f"inconclusive verdict not reproduced: nonempty={rerun.nonempty} "
                            f"exhausted={rerun.exhausted}")
            except (CertificateError, ServiceError, OSError, KeyError) as error:
                report.failed[fingerprint] = f"{type(error).__name__}: {error}"
    return report
