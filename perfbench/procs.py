"""Node processes: launch, readiness, /proc accounting, and leaving nothing behind.

Every node runs in its own process through ``node.py``.  The benchmark
marks itself a child subreaper, so processes orphaned by a node -- the
``multiprocessing.resource_tracker`` a spawn-start pool leaves running --
are re-parented to it rather than to PID 1, and :func:`reap_all` can wait
for every one of them.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.telemetry import parse_exposition

HERE = Path(__file__).resolve().parent

#: prctl option that makes orphaned descendants re-parent to this process.
PR_SET_CHILD_SUBREAPER = 36

#: SIGTERM starts a node's drain; SIGKILL follows after this many seconds.
TERM_GRACE_SECONDS = 10.0

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def become_subreaper() -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


# -- /proc -------------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields of /proc/PID/stat after the command name (field 3 is index 0)."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return raw[raw.rindex(")") + 2 :].split()


def parents() -> Dict[int, int]:
    """pid -> parent pid for every live process."""
    table = {}
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                table[int(entry.name)] = int(fields[1])
    return table


def descendants(root: int, table: Dict[int, int]) -> List[int]:
    children: Dict[int, List[int]] = {}
    for pid, ppid in table.items():
        children.setdefault(ppid, []).append(pid)
    found, stack = [], list(children.get(root, ()))
    while stack:
        pid = stack.pop()
        found.append(pid)
        stack.extend(children.get(pid, ()))
    return found


def cpu_seconds(pid: int, reaped_children: bool) -> float:
    """User + system CPU of ``pid``; with ``reaped_children``, plus its waited-for children."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    if reaped_children:
        ticks += int(fields[13]) + int(fields[14])  # cutime, cstime
    return ticks / CLOCK_TICKS


def status_kb(pid: int, name: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(name + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


# -- nodes -------------------------------------------------------------------------


@dataclass
class Node:
    role: str  # single | coordinator | runner | keyspace
    name: str
    process: subprocess.Popen
    port_file: Path
    port: int = 0

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def get(self, path: str, timeout: float = 30.0) -> str:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            if response.status != 200:
                raise RuntimeError(f"{self.name}: GET {path} answered {response.status}")
            return body
        finally:
            connection.close()

    def counters(self) -> Dict[str, float]:
        """Every ``/v1/metrics`` sample summed over its label sets."""
        totals: Dict[str, float] = {}
        for (name, _labels), value in parse_exposition(self.get("/v1/metrics")).samples.items():
            totals[name] = totals.get(name, 0.0) + value
        return totals


@dataclass
class Topology:
    """The node processes of one workload run, in launch order."""

    workdir: Path
    clock_zero: float
    trace: bool
    nodes: List[Node] = field(default_factory=list)

    def launch(self, role: str, name: str, argv: List[str]) -> Node:
        port_file = self.workdir / f"{name}.port"
        command = [sys.executable, str(HERE / "node.py")]
        if self.trace:
            command += ["--spans", str(self.workdir / f"{name}.spans.json"), "--role", role,
                        "--clock-zero", repr(self.clock_zero)]
        command += ["--", *argv, "--host", "127.0.0.1", "--port", "0",
                    "--port-file", str(port_file)]
        log = open(self.workdir / f"{name}.log", "wb")
        try:
            process = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=log,
                                       stderr=subprocess.STDOUT)
        finally:
            log.close()
        node = Node(role, name, process, port_file)
        self.nodes.append(node)
        return node

    def wait_ready(self, nodes: Iterable[Node], timeout: float = 60.0) -> None:
        """Block until every node has bound its port and answers /v1/healthz."""
        deadline = time.monotonic() + timeout
        for node in nodes:
            while True:
                if node.process.poll() is not None:
                    raise RuntimeError(f"{node.name} exited with {node.process.returncode} "
                                       f"during start-up; see {node.name}.log")
                if time.monotonic() > deadline:
                    raise TimeoutError(f"{node.name} not ready within {timeout}s")
                text = node.port_file.read_text().strip() if node.port_file.exists() else ""
                if text:
                    node.port = int(text)
                    try:
                        json.loads(node.get("/v1/healthz", timeout=5.0))
                        break
                    except (OSError, RuntimeError, ValueError):
                        pass
                time.sleep(0.01)

    # -- accounting --------------------------------------------------------------

    def cpu_by_role(self) -> Dict[str, float]:
        """CPU seconds so far of each role's nodes, their reaped children and live workers."""
        table = parents()
        totals: Dict[str, float] = {}
        for node in self.nodes:
            seconds = cpu_seconds(node.process.pid, reaped_children=True)
            seconds += sum(cpu_seconds(pid, reaped_children=True)
                           for pid in descendants(node.process.pid, table))
            totals[node.role] = totals.get(node.role, 0.0) + seconds
        return totals

    def worker_rss_by_role(self) -> Dict[str, float]:
        """Summed resident MB of each role's live worker processes."""
        table = parents()
        totals: Dict[str, float] = {}
        for node in self.nodes:
            kb = sum(status_kb(pid, "VmRSS") for pid in descendants(node.process.pid, table))
            totals[node.role] = totals.get(node.role, 0.0) + kb / 1024
        return totals

    def node_hwm_by_role(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for node in self.nodes:
            totals[node.role] = totals.get(node.role, 0.0) + status_kb(
                node.process.pid, "VmHWM") / 1024
        return totals

    # -- teardown ----------------------------------------------------------------

    def stop(self) -> None:
        """Stop the nodes in reverse launch order, one role at a time.

        SIGTERM starts each node's drain; a node still running after
        TERM_GRACE_SECONDS gets SIGKILL.  The keyspace goes last, so the
        nodes that store in it can checkpoint while they drain.
        """
        remaining = list(reversed(self.nodes))
        while remaining:
            role = remaining[0].role
            group = [node for node in remaining if node.role == role]
            remaining = [node for node in remaining if node.role != role]
            for node in group:
                if node.process.poll() is None:
                    node.process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + TERM_GRACE_SECONDS
            for node in group:
                try:
                    node.process.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    node.process.kill()
                    node.process.wait()
        self.nodes = []


class RssSampler(threading.Thread):
    """Samples the summed RSS of live workers at a low rate.

    ``peak`` holds the largest sum seen per role, and under ``"total"`` the
    largest sum over all roles at one sample.
    """

    def __init__(self, topology: Topology, interval: float = 0.1) -> None:
        super().__init__(name="perfbench-rss", daemon=True)
        self._topology = topology
        self._interval = interval
        self._halt = threading.Event()
        self.peak: Dict[str, float] = {}

    def run(self) -> None:
        while not self._halt.is_set():
            sample = self._topology.worker_rss_by_role()
            sample["total"] = sum(sample.values())
            for role, mb in sample.items():
                self.peak[role] = max(self.peak.get(role, 0.0), mb)
            self._halt.wait(self._interval)

    def finish(self) -> Dict[str, float]:
        self._halt.set()
        self.join(timeout=10)
        return self.peak


def reap_all(timeout: float = 15.0) -> None:
    """Wait for every remaining child (orphans included); SIGKILL any that linger."""
    deadline = time.monotonic() + timeout
    me = os.getpid()
    killed = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            if killed:
                return
            for child in descendants(me, parents()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.02)
