"""Fingerprint-sharded coordinator: one front door over a fleet of runners.

A :class:`CoordinatorService` speaks the exact same ``/v1`` API as a single
node -- clients cannot tell the difference -- but executes nothing itself.
Fresh jobs (after the coordinator's own store and in-flight dedup layers)
are partitioned by *rendezvous hashing* over their fingerprints and
forwarded to runner nodes as ordinary ``POST /v1/jobs`` batches, so the
wire format is the one public protocol at every hop.

Rendezvous (highest-random-weight) hashing gives each fingerprint a total
preference order over runners: ``sha256(fingerprint "@" runner_url)``
scores every runner and the job goes to the highest score.  Two properties
matter here:

* **Stability** -- identical fingerprints land on identical runners from
  every coordinator, so a runner's warm store and in-flight dedup see all
  duplicates of a job no matter which front door received them.
* **Minimal disruption** -- when a runner drops out, only the jobs it
  owned move (each to its second choice); the rest of the keyspace does
  not reshuffle.

Failover reuses the retry/backoff machinery of :class:`ServiceClient`
(429/503 shedding) and adds a layer above it: a runner that fails a
forward is put in a cooldown window and its group re-sharded across the
survivors.  Only when every runner has been tried does a job come back
with the ``runner-unavailable`` error code.

Verdict determinism makes all of this safe: any runner computes the same
verdict for a fingerprint, so rerouting never changes results, only which
node pays the compute.

The coordinator never takes cluster claims itself -- it holds no engine,
so a coordinator-held claim would deadlock the runner actually executing
the job until the claim TTL expired.  Fleet-wide execute-once semantics
come from the runners' claims in the shared keyspace plus the stable
sharding above.

Write-back: a verdict is written once.  A runner's batch report names the
keyspace it stores its verdicts in (``"keyspace"``) and marks each result
it holds there (``"stored"``).  When that keyspace is the coordinator's
own store, the coordinator writes nothing for those results; it writes
back only what no runner wrote to its store -- every result when it sits
on a different store or its runner has none, and any result whose runner
write failed.  The coordinator's own lookup is one batch call per request,
like every node's, so a fresh one-job request costs the keyspace four
calls (coordinator lookup, runner lookup, claim, write) and a warm request
one.

Forwards, witness fetches and stats polls reuse kept-alive
:class:`ServiceClient` connections: each call checks a client for its
runner out of one pool and returns it afterwards.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import queue
import threading
import time
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

import asyncio

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import JobResult, VerificationJob
from repro.service.server import (
    SERVICE_COUNTERS,
    ApiError,
    Request,
    VerificationService,
)

_log = logging.getLogger("repro.service.coordinator")

#: How long a runner sits out after a failed forward before new shards are
#: routed to it again (seconds).  Short on purpose: a restarting runner
#: should rejoin quickly, and a still-dead one just fails over again.
DEFAULT_UNHEALTHY_COOLDOWN_SECONDS = 5.0

#: Per-forward client timeout.  Forwards carry whole shard groups and wait
#: for execution, so this bounds a runner batch, not a single HTTP hop.
DEFAULT_FORWARD_TIMEOUT_SECONDS = 600.0

#: Client timeout of a runner stats poll: a hung runner must not hold up
#: the coordinator's own ``/v1/stats`` and ``/v1/metrics``.
STATS_POLL_TIMEOUT_SECONDS = 5.0

#: A forwarded result with the flag whether its runner stored it in the
#: coordinator's own keyspace.
Forwarded = Tuple[int, JobResult, bool]

#: Counter families re-exported per runner (with a ``runner`` label) by the
#: coordinator's aggregated ``/v1/metrics`` exposition.
_FLEET_COUNTER_ATTRS = ("jobs_received", "executed", "store_hits", "inflight_joins")


class _ForwardError(RuntimeError):
    """A forward produced an unusable response (treated as runner failure)."""


class _RunnerClients:
    """Kept-alive :class:`ServiceClient` connections to the runners.

    A call checks out an idle client for its runner and call budget
    (timeout, retries), or builds one, and returns it when it is done, so a
    runner sees one connection per concurrent call rather than one per
    call.  No client serves two calls at once.  A client whose call failed
    other than with a complete error response is closed, not returned: its
    connection may be mid-response.  :meth:`close` closes the idle clients,
    and every busy one as it comes back.
    """

    def __init__(self, token: Optional[str]) -> None:
        self._token = token
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, float, int], List[ServiceClient]] = {}
        self._closed = False

    @contextlib.contextmanager
    def checkout(self, url: str, timeout: float, retries: int) -> Iterator[ServiceClient]:
        key = (url, timeout, retries)
        with self._lock:
            idle = self._idle.get(key)
            client = idle.pop() if idle else None
        if client is None:
            client = ServiceClient(url, auth_token=self._token, timeout=timeout, retries=retries)
        try:
            yield client
        except ServiceError:
            self._checkin(key, client)  # the error response was read whole
            raise
        except BaseException:
            client.close()
            raise
        self._checkin(key, client)

    def _checkin(self, key: Tuple[str, float, int], client: ServiceClient) -> None:
        with self._lock:
            if not self._closed:
                self._idle.setdefault(key, []).append(client)
                return
        client.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            clients = [client for idle in self._idle.values() for client in idle]
            self._idle.clear()
        for client in clients:
            client.close()


class CoordinatorService(VerificationService):
    """A :class:`VerificationService` that shards execution across runners.

    Every layer above execution is inherited unchanged -- admission
    control, store-first serving (one batch lookup per request), per-node
    in-flight dedup, batch dedup, tracing endpoints, drain sequence.  Only
    :meth:`_execute_fresh` is replaced: instead of the local engine pool,
    fresh jobs are forwarded to runner nodes by fingerprint shard, over
    kept-alive clients from one pool that closes with the coordinator.
    Write-back skips every result a runner reports stored in the
    coordinator's own keyspace (see the module docstring).
    """

    role = "coordinator"

    def __init__(
        self,
        runners: Sequence[str],
        runner_token: Optional[str] = None,
        **kwargs: Any,
    ) -> None:
        urls = []
        for url in runners:
            url = url.rstrip("/")
            if url and url not in urls:
                urls.append(url)
        if not urls:
            raise ValueError("a coordinator needs at least one runner URL")
        # Claims are the runners' job; a coordinator-held claim would make
        # the executing runner wait on the coordinator (see module docstring).
        kwargs["cluster_dedup"] = False
        super().__init__(**kwargs)
        self._runner_urls: List[str] = urls
        self._clients = _RunnerClients(runner_token)
        self._health_lock = threading.Lock()
        self._cooldown_until: Dict[str, float] = {}
        # Forwarding threads touch these counters concurrently; ServiceStats
        # increments are read-modify-write, so they need a lock off the loop.
        self._fleet_stats_lock = threading.Lock()
        self.registry.gauge(
            "repro_fleet_runners",
            "Runner nodes configured on this coordinator.",
            callback=lambda: float(len(self._runner_urls)),
        )
        self.registry.gauge(
            "repro_fleet_runner_in_cooldown",
            "1 while the runner is sitting out a failover cooldown.",
            labelnames=("runner",),
            callback=self._cooldown_snapshot,
        )

    # -- sharding ----------------------------------------------------------------

    def _shard_preference(self, fingerprint: str) -> List[str]:
        """Runners ordered by rendezvous score for ``fingerprint`` (best first)."""
        return sorted(
            self._runner_urls,
            key=lambda url: hashlib.sha256(f"{fingerprint}@{url}".encode("utf-8")).digest(),
            reverse=True,
        )

    def _choose_runner(self, fingerprint: str, excluded: FrozenSet[str]) -> Optional[str]:
        """The best not-yet-failed runner for ``fingerprint``.

        Runners in cooldown are skipped while an alternative exists, but a
        job is never refused just because its whole preference list is
        cooling down -- trying a suspect runner beats not running at all.
        """
        candidates = [url for url in self._shard_preference(fingerprint) if url not in excluded]
        if not candidates:
            return None
        for url in candidates:
            if not self._in_cooldown(url):
                return url
        return candidates[0]

    # -- runner health -----------------------------------------------------------

    def _in_cooldown(self, url: str) -> bool:
        with self._health_lock:
            until = self._cooldown_until.get(url)
            return until is not None and time.monotonic() < until

    def _mark_failed(self, url: str, error: Exception) -> None:
        with self._health_lock:
            self._cooldown_until[url] = time.monotonic() + DEFAULT_UNHEALTHY_COOLDOWN_SECONDS
        with self._fleet_stats_lock:
            self.stats.runner_failovers += 1
        _log.warning(
            "runner failed; failing over",
            extra={"runner": url, "error": f"{type(error).__name__}: {error}"},
        )

    def _mark_ok(self, url: str) -> None:
        with self._health_lock:
            self._cooldown_until.pop(url, None)

    def _cooldown_snapshot(self) -> Dict[Tuple[str, ...], float]:
        return {(url,): (1.0 if self._in_cooldown(url) else 0.0) for url in self._runner_urls}

    # -- execution override ------------------------------------------------------

    def _execute_fresh(self, jobs: List[VerificationJob]) -> Iterator[Forwarded]:
        """Forward fresh jobs to their shard runners, yielding as shards land.

        Shard groups run concurrently (one thread per runner group), each
        streaming its completed group back through a queue, so a slow shard
        never blocks another runner's results from settling.
        """
        pairs = list(enumerate(jobs))
        if not pairs:
            return
        with self._fleet_stats_lock:
            self.stats.forwarded += len(pairs)
        groups: Dict[str, List[Tuple[int, VerificationJob]]] = {}
        unrouteable: List[Tuple[int, VerificationJob]] = []
        for index, job in pairs:
            url = self._choose_runner(job.fingerprint, frozenset())
            if url is None:
                unrouteable.append((index, job))
            else:
                groups.setdefault(url, []).append((index, job))
        for index, job in unrouteable:
            yield index, self._unavailable_result(job, "no runner configured for shard"), False
        if len(groups) == 1:
            (url, group), = groups.items()
            yield from self._forward_with_failover(url, group, frozenset())
            return
        out: "queue.Queue[Optional[Forwarded]]" = queue.Queue()
        threads = []
        for url, group in groups.items():
            thread = threading.Thread(
                target=self._forward_worker,
                args=(url, group, out),
                name=f"repro-forward-{len(threads)}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        finished = 0
        while finished < len(threads):
            item = out.get()
            if item is None:
                finished += 1
                continue
            yield item
        for thread in threads:
            thread.join()

    def _forward_worker(
        self,
        url: str,
        group: List[Tuple[int, VerificationJob]],
        out: "queue.Queue[Optional[Forwarded]]",
    ) -> None:
        emitted = set()
        try:
            for index, result, stored in self._forward_with_failover(url, group, frozenset()):
                emitted.add(index)
                out.put((index, result, stored))
        except Exception as exc:  # noqa: BLE001 - a shard failure must not hang the batch
            _log.error("shard forward failed", extra={"runner": url, "error": str(exc)})
            for index, job in group:
                if index not in emitted:
                    out.put((index, self._unavailable_result(job, str(exc)), False))
        finally:
            out.put(None)

    def _forward_with_failover(
        self,
        url: str,
        group: List[Tuple[int, VerificationJob]],
        excluded: FrozenSet[str],
    ) -> Iterator[Forwarded]:
        """Forward ``group`` to ``url``; on failure re-shard over survivors.

        Each failover excludes the failed runner and regroups the pending
        jobs by their next preference, so recursion depth is bounded by the
        fleet size.  Jobs that run out of runners come back as
        ``runner-unavailable`` errors instead of raising.
        """
        try:
            yield from self._forward(url, group)
            self._mark_ok(url)
            return
        except (ServiceError, OSError, _ForwardError) as exc:
            self._mark_failed(url, exc)
            excluded = excluded | {url}
        regrouped: Dict[str, List[Tuple[int, VerificationJob]]] = {}
        for index, job in group:
            next_url = self._choose_runner(job.fingerprint, excluded)
            if next_url is None:
                yield index, self._unavailable_result(job, "every runner failed for shard"), False
            else:
                regrouped.setdefault(next_url, []).append((index, job))
        for next_url, subgroup in regrouped.items():
            yield from self._forward_with_failover(next_url, subgroup, excluded)

    def _forward(self, url: str, group: List[Tuple[int, VerificationJob]]) -> List[Forwarded]:
        """One ``POST /v1/jobs`` forward of a shard group to one runner.

        The client comes out of the runner's kept-alive pool and goes back
        after the call; group-level batching amortises the request over the
        whole shard.  The runner re-verifies every client-computed
        fingerprint, and each returned result is matched against its job
        here -- the same end-to-end canonicalization guard as direct
        submissions.  A result is flagged stored when the runner reports it
        stored in the keyspace that is this coordinator's own store.
        """
        jobs = [job for _, job in group]
        with self._runner_client(url) as client:
            report = client.submit_batch(jobs, wait=True, include_fingerprints=True)
        entries = report.get("results") if isinstance(report, dict) else None
        if not isinstance(entries, list) or len(entries) != len(jobs):
            raise _ForwardError(
                f"runner returned {0 if not entries else len(entries)} "
                f"results for {len(jobs)} jobs"
            )
        shares_store = self._keyspace is not None and report.get("keyspace") == self._keyspace
        forwarded: List[Forwarded] = []
        for (index, job), entry in zip(group, entries):
            result = JobResult.from_dict(entry)
            if result.fingerprint != job.fingerprint:
                raise _ForwardError(
                    f"runner answered fingerprint {result.fingerprint[:12]} "
                    f"for job {job.fingerprint[:12]}"
                )
            forwarded.append((index, result, shares_store and entry.get("stored") is True))
        return forwarded

    def _runner_client(self, url: str):
        """A kept-alive client for ``url`` with the forward budget: two
        load-shed retries before the runner counts as failed."""
        return self._clients.checkout(url, DEFAULT_FORWARD_TIMEOUT_SECONDS, retries=2)

    def _unavailable_result(self, job: VerificationJob, detail: str) -> JobResult:
        return JobResult(
            fingerprint=job.fingerprint,
            label=job.label,
            error=f"runner-unavailable: {detail}",
            error_code="runner-unavailable",
        )

    # -- fleet observability -----------------------------------------------------

    def _fleet_snapshot(self) -> Dict[str, Any]:
        """Poll every runner's ``/v1/stats`` (short timeout, no retries).

        Returns per-runner health + stats and a summed ``aggregate`` over
        the counter families every node exports, so one scrape of the
        coordinator answers "what has the whole fleet done".
        """
        runners: List[Dict[str, Any]] = []
        aggregate: Dict[str, int] = {attr: 0 for attr in SERVICE_COUNTERS}
        reachable = 0
        for url in self._runner_urls:
            entry: Dict[str, Any] = {
                "url": url,
                "in_cooldown": self._in_cooldown(url),
            }
            try:
                with self._clients.checkout(url, STATS_POLL_TIMEOUT_SECONDS, retries=0) as client:
                    stats = client.stats()
            except (ServiceError, OSError) as exc:
                entry["up"] = False
                entry["error"] = f"{type(exc).__name__}: {exc}"
            else:
                entry["up"] = True
                entry["stats"] = stats
                reachable += 1
                for attr in aggregate:
                    value = stats.get(attr)
                    if isinstance(value, (int, float)):
                        aggregate[attr] += int(value)
            runners.append(entry)
        return {
            "runners": runners,
            "reachable": reachable,
            "configured": len(self._runner_urls),
            "aggregate": aggregate,
        }

    def _render_fleet_metrics(self) -> str:
        """The coordinator exposition plus fleet families scraped live.

        Runner counters are re-exported as ``repro_fleet_*`` with a
        ``runner`` label rather than merged into the coordinator's own
        families -- merging raw expositions would collide every shared
        metric name.  A runner that does not answer shows up only as
        ``repro_fleet_runner_up 0``; its last values are not repeated
        (Prometheus staleness handling does the right thing).
        """
        fleet = self._fleet_snapshot()
        lines = [self._render_metrics().rstrip("\n")]
        lines.append("# HELP repro_fleet_runner_up 1 when the runner answered this scrape.")
        lines.append("# TYPE repro_fleet_runner_up gauge")
        by_url = {entry["url"]: entry for entry in fleet["runners"]}
        for url in self._runner_urls:
            up = 1 if by_url[url].get("up") else 0
            lines.append(f'repro_fleet_runner_up{{runner="{url}"}} {up}')
        for attr in _FLEET_COUNTER_ATTRS:
            metric_name, help_text = SERVICE_COUNTERS[attr]
            fleet_name = metric_name.replace("repro_", "repro_fleet_", 1)
            lines.append(f"# HELP {fleet_name} {help_text} (per runner)")
            lines.append(f"# TYPE {fleet_name} counter")
            for url in self._runner_urls:
                stats = by_url[url].get("stats")
                if stats is None:
                    continue
                value = stats.get(attr)
                if isinstance(value, (int, float)):
                    lines.append(f'{fleet_name}{{runner="{url}"}} {int(value)}')
        return "\n".join(lines) + "\n"

    # -- handler overrides -------------------------------------------------------

    def _discovery_document(self) -> Dict[str, Any]:
        document = super()._discovery_document()
        document["fleet"] = {
            "sharding": "rendezvous-sha256",
            "runners": [
                {"url": url, "in_cooldown": self._in_cooldown(url)}
                for url in self._runner_urls
            ],
        }
        return document

    def _fetch_witness(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """Ask the fingerprint's shard-preferred runners for the certificate.

        Tries runners in rendezvous order (the executing runner is first
        unless it failed over), skipping nodes in cooldown; a 404 or a dead
        runner just moves on to the next candidate.
        """
        for url in self._shard_preference(fingerprint):
            if self._in_cooldown(url):
                continue
            try:
                with self._runner_client(url) as client:
                    payload = client.witness(fingerprint)
            except (ServiceError, OSError):
                continue
            if isinstance(payload, dict) and payload.get("certificate"):
                return payload
        return None

    async def _handle_job_witness(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        """Serve a witness certificate, forwarding to the fleet when needed.

        The coordinator's own store is read first, once, and a certificate
        found there is served from that read (shared-store deployments land
        here); otherwise the certificate is fetched from the runner that
        executed the job -- its shard-preferred node -- and relayed
        unchanged, so coordinator- and runner-served payloads carry the
        identical encoded certificate.
        """
        fingerprint = self._witness_of(request)
        cached = self._store.get(fingerprint) if self._store is not None else None
        if cached is not None and cached.certificate is not None:
            await self._send_witness(writer, fingerprint, cached, keep)
            return
        loop = asyncio.get_running_loop()
        # Fleet polling blocks on HTTP calls; keep it off the loop.
        payload = await loop.run_in_executor(self._executor, self._fetch_witness, fingerprint)
        if payload is None:
            raise ApiError(
                404,
                "not-found",
                f"no witness certificate stored for fingerprint {fingerprint[:16]!r}",
                detail=(
                    're-submit the job with "certificate": true to record one '
                    "(only nonempty verdicts carry a witness)"
                ),
            )
        self.stats.certificates_served += 1
        await self._send_json(
            writer,
            200,
            {**payload, "served_from": "runner"},
            keep_alive=keep,
        )

    async def stop(self) -> None:
        """Stop the node, then close every kept-alive runner client."""
        await super().stop()
        self._clients.close()

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        loop = asyncio.get_running_loop()
        # Polling the fleet blocks on N HTTP calls; keep it off the loop.
        fleet = await loop.run_in_executor(self._executor, self._fleet_snapshot)
        payload = {**self._stats_payload(), "fleet": fleet}
        await self._send_json(writer, 200, payload, keep_alive=keep)

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter, keep: bool
    ) -> None:
        loop = asyncio.get_running_loop()
        body = (await loop.run_in_executor(self._executor, self._render_fleet_metrics)).encode(
            "utf-8"
        )
        await self._send_raw(
            writer,
            200,
            body,
            content_type="text/plain; version=0.0.4; charset=utf-8",
            keep_alive=keep,
        )
