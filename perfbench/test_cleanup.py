"""Leave nothing running: no process of a benchmark run outlives the benchmark.

Each test starts the shortest workload in a session of its own, lets the
benchmark exit -- after passing, after failing its checks (every pool worker
crashes, through ``REPRO_FAULTS``), or on SIGTERM once its nodes are up --
and asserts that no process of that session is left: nodes, pool workers
and the ``multiprocessing.resource_tracker`` their pools start included.

    python -m pytest perfbench/test_cleanup.py
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent


def session_members(sid: int) -> List[str]:
    members = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            raw = Path(f"/proc/{entry.name}/stat").read_text()
        except OSError:
            continue
        fields = raw[raw.rindex(")") + 2 :].split()
        if int(fields[3]) == sid:
            members.append(f"{entry.name} {fields[0]} {raw[: raw.rindex(')') + 1]}")
    return members


def start(**env: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "engine_cold", "--seed", "1",
         "--seconds", "2", "--trace", "0"],
        cwd=ROOT,
        env={**os.environ, **env},
        start_new_session=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )


def test_finished_run_leaves_no_process():
    process = start()
    out, err = process.communicate(timeout=180)
    assert process.returncode == 0, err.decode()
    assert b'"correct": true' in out.splitlines()[-1]
    assert session_members(process.pid) == []


def test_failed_run_leaves_no_process():
    process = start(REPRO_FAULTS="worker.crash")
    out, err = process.communicate(timeout=180)
    assert process.returncode == 1, err.decode()
    assert b'"correct": false' in out.splitlines()[-1]
    assert session_members(process.pid) == []


def test_interrupted_run_leaves_no_process():
    process = start()
    deadline = time.monotonic() + 60
    # Wait until a node has spawned its pool workers, then interrupt.
    while len(session_members(process.pid)) < 4:
        assert process.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    process.send_signal(signal.SIGTERM)
    out, _err = process.communicate(timeout=60)
    assert process.returncode != 0
    assert b'"correct"' not in out
    assert session_members(process.pid) == []
