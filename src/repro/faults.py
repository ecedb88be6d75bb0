"""Fault injection for the verification service (chaos harness).

The fault-tolerance machinery — worker supervision, the retry policy, the
graceful drain — is only trustworthy if failures can be produced on demand.
This module is that switch: a tiny registry of *fault points* (named places
in the real code path) and *rules* describing when each point should fire.
Production code calls the hook functions unconditionally; with no rules
armed they are a dictionary lookup and return immediately, so the hooks are
safe to leave in hot paths.

Rules come from two places:

* the ``REPRO_FAULTS`` environment variable — the only channel that crosses
  a ``spawn`` process boundary, since pool workers inherit the parent's
  environment but none of its Python state.  The registry re-reads the
  variable whenever its value changes, so tests can arm and disarm faults
  with a plain ``monkeypatch.setenv``;
* programmatic :meth:`FaultRegistry.install` calls, for in-process tests.

The wire syntax is ``point:key=value,key=value;point2:...`` — for example::

    REPRO_FAULTS="worker.crash:match=ab12,attempt=1;store.put:times=1"

kills the worker running the job whose fingerprint starts with ``ab12`` on
its first attempt only, and fails the next store write.  ``times`` budgets
are **per process**: every spawn worker parses the environment afresh, so a
deterministic chaos script should pin faults with ``match``/``attempt``
(stable across processes) rather than ``times`` when workers are involved.

Fault points wired into the service:

===================  ==========================================================
``worker.crash``     the pool worker ``os._exit``\\ s mid-job (hard kill)
``worker.hang``      the pool worker sleeps past every deadline
``store.put``        a result-store write raises :class:`FaultInjected`
``server.delay``     a node sleeps before it executes a fresh job group
===================  ==========================================================
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Environment variable holding the fault rule script.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit code used by an injected worker crash; distinctive in logs.
CRASH_EXIT_CODE = 86

#: The fault points production code exposes.  ``install`` validates against
#: this set so a typo in a chaos script fails loudly instead of silently
#: injecting nothing.
FAULT_POINTS = frozenset({"worker.crash", "worker.hang", "store.put", "server.delay"})


class FaultInjected(Exception):
    """Raised by a raising fault point (e.g. an injected store write error)."""


@dataclass
class FaultRule:
    """When one fault point fires.

    ``times`` caps how often the rule fires **in this process** (None =
    unlimited); ``match`` restricts firing to keys containing the substring
    (typically a fingerprint prefix); ``attempt`` restricts firing to one
    specific attempt number, which is the process-independent way to inject
    a fault exactly once when retries move a job between workers.
    """

    point: str
    times: Optional[int] = None
    match: str = ""
    attempt: Optional[int] = None
    #: Sleep length for ``worker.hang`` / ``server.delay`` rules.
    delay: float = 30.0
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {self.point!r}; known points: {sorted(FAULT_POINTS)}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 when set")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError("attempt must be >= 1 when set")
        if self.delay < 0:
            raise ValueError("delay must be >= 0")

    def applies(self, key: str, attempt: Optional[int]) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.match and self.match not in key:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True


def parse_rules(text: str) -> List[FaultRule]:
    """Parse the ``REPRO_FAULTS`` wire syntax into rules.

    Raises ``ValueError`` on unknown points, unknown options, or malformed
    numbers — chaos scripts fail fast rather than injecting the wrong thing.
    """
    rules: List[FaultRule] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        point, _, option_text = clause.partition(":")
        options: Dict[str, Any] = {}
        if option_text:
            for option in option_text.split(","):
                name, sep, value = option.partition("=")
                name = name.strip()
                if not sep:
                    raise ValueError(f"fault option {option!r} is not name=value")
                if name in ("times", "attempt"):
                    options[name] = int(value)
                elif name == "delay":
                    options[name] = float(value)
                elif name == "match":
                    options[name] = value.strip()
                else:
                    raise ValueError(f"unknown fault option {name!r} in {clause!r}")
        rules.append(FaultRule(point=point.strip(), **options))
    return rules


class FaultRegistry:
    """Holds armed fault rules and answers "should this point fire now?".

    Environment rules are cached against the raw variable value and
    re-parsed only when it changes, so the common no-faults case costs one
    ``os.environ`` lookup and a string compare per hook call.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._env_text: Optional[str] = None
        self._env_rules: List[FaultRule] = []
        self._installed: List[FaultRule] = []
        #: Monotonic per-point fire counts (observability + test assertions).
        self.fired: Dict[str, int] = {}

    # -- configuration -----------------------------------------------------------

    def install(self, point: str, **options: Any) -> FaultRule:
        """Arm a rule programmatically (this process only)."""
        rule = FaultRule(point=point, **options)
        with self._lock:
            self._installed.append(rule)
        return rule

    def clear(self) -> None:
        """Disarm every programmatic rule and forget fire counts.

        Environment rules re-arm on the next hook call while the variable is
        still set; tests should also clear ``REPRO_FAULTS`` when done.
        """
        with self._lock:
            self._installed.clear()
            self._env_text = None
            self._env_rules.clear()
            self.fired.clear()

    def _rules(self) -> List[FaultRule]:
        env_text = os.environ.get(FAULTS_ENV_VAR, "")
        if env_text != self._env_text:
            self._env_rules = parse_rules(env_text) if env_text else []
            self._env_text = env_text
        return self._installed + self._env_rules

    def active(self) -> bool:
        """Whether any rule is currently armed (cheap liveness probe)."""
        with self._lock:
            return bool(self._rules())

    # -- firing ------------------------------------------------------------------

    def check(
        self, point: str, key: str = "", attempt: Optional[int] = None
    ) -> Optional[FaultRule]:
        """The first armed rule for ``point`` matching ``key``/``attempt``.

        A returned rule has been *consumed*: its fire count (and the
        registry's per-point total) is already incremented.
        """
        with self._lock:
            for rule in self._rules():
                if rule.point == point and rule.applies(key, attempt):
                    rule.fired += 1
                    self.fired[point] = self.fired.get(point, 0) + 1
                    return rule
        return None

    def fired_total(self) -> int:
        with self._lock:
            return sum(self.fired.values())


#: Process-wide registry all hook functions consult.
registry = FaultRegistry()


def crash_point(point: str, key: str = "", attempt: Optional[int] = None) -> None:
    """Hard-kill the current process if ``point`` is armed.

    ``os._exit`` skips every finally/atexit handler — the closest stdlib
    stand-in for an OOM kill or a segfault.  Only call from code that always
    runs inside a disposable worker process.
    """
    if registry.check(point, key, attempt) is not None:
        os._exit(CRASH_EXIT_CODE)


def hang_point(point: str, key: str = "", attempt: Optional[int] = None) -> None:
    """Sleep for the rule's ``delay`` if ``point`` is armed (wedged worker)."""
    rule = registry.check(point, key, attempt)
    if rule is not None:
        time.sleep(rule.delay)


def raise_point(point: str, key: str = "", attempt: Optional[int] = None) -> None:
    """Raise :class:`FaultInjected` if ``point`` is armed."""
    rule = registry.check(point, key, attempt)
    if rule is not None:
        raise FaultInjected(f"injected fault at {point} (key={key[:12]!r})")


def delay_point(point: str, key: str = "", attempt: Optional[int] = None) -> float:
    """Sleep for the rule's ``delay`` if armed; returns the delay applied."""
    rule = registry.check(point, key, attempt)
    if rule is None:
        return 0.0
    time.sleep(rule.delay)
    return rule.delay
