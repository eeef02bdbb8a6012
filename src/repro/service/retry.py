"""Retry policy for transport-shaped planning-RPC failures.

PR 7's fleet client retried exactly once per ring successor — a single
failover hop with no backoff, which hammers a restarting shard at full
rate and gives a transient blip (one dropped connection, one slow
accept) no second chance.  This module is the explicit policy that
replaces it: bounded attempts, exponential backoff with *decorrelated
jitter* (AWS-style: each sleep is drawn uniformly from ``[base, prev *
multiplier]``, capped), and a hard wall-clock retry budget so retries
can never outlive the request's deadline.

Classification is the load-bearing part.  Only *transport* failures are
retryable — a connection refused, a timeout, a framing violation, a
server that closed mid-handshake.  Deterministic failures
(:class:`~repro.service.requests.RemotePlanError` and subclasses,
including :class:`~repro.service.requests.SignatureMismatchError` and
:class:`~repro.service.requests.DeadlineExceededError`) would fail
identically on every shard at full search cost, so they are never
retried.

Determinism: the jitter stream comes from a seeded ``random.Random``
per :class:`RetrySession`, so a replayed chaos scenario makes the same
backoff decisions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.service.requests import (
    ProtocolError,
    RemotePlanError,
    ServiceClosedError,
)

#: Transport-shaped failures worth a retry: the request may never have
#: reached a worker, and the same shard (or a ring successor) can serve
#: it moments later.  The fleet client also fails over to the ring
#: successor on exactly these.
TRANSPORT_ERRORS = (OSError, TimeoutError, ProtocolError,
                    ServiceClosedError)


def retryable(error: BaseException) -> bool:
    """Whether ``error`` justifies another attempt.

    Deterministic planning failures are checked *first*:
    ``DeadlineExceededError`` is a ``RemotePlanError`` and must stay
    non-retryable even though a blown deadline often surfaces alongside
    timeouts.
    """
    if isinstance(error, RemotePlanError):
        return False
    return isinstance(error, TRANSPORT_ERRORS)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with decorrelated-jitter backoff.

    Args:
        max_attempts: Total tries including the first (1 = no retries).
        base_s: Minimum sleep between attempts; also the first sleep's
            lower bound.
        cap_s: Ceiling on any single sleep.
        multiplier: Upper bound growth per attempt (``prev *
            multiplier``), before the cap.
        budget_s: Wall-clock retry budget — once the session has slept
            this long in total, no further attempts are allowed even if
            ``max_attempts`` remain.  ``None`` leaves only the attempt
            bound.
        seed: Jitter RNG seed (per-session stream; deterministic
            replays make identical backoff decisions).
    """

    max_attempts: int = 4
    base_s: float = 0.05
    cap_s: float = 2.0
    multiplier: float = 3.0
    budget_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_s < 0 or self.cap_s < self.base_s:
            raise ValueError("need 0 <= base_s <= cap_s")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def retryable(self, error: BaseException) -> bool:
        return retryable(error)

    def session(self) -> "RetrySession":
        """Fresh attempt/backoff state for one logical request."""
        return RetrySession(self)


class RetrySession:
    """Per-request retry state: attempt counter, jitter stream, spent
    sleep budget.  Not thread-safe — one session serves one request."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self.attempts = 0
        self.slept_s = 0.0
        self._rng = random.Random(policy.seed)
        self._prev_sleep = policy.base_s

    def start_attempt(self) -> int:
        """Count one attempt; returns its 1-based index."""
        self.attempts += 1
        return self.attempts

    def give_up(self, error: Optional[BaseException] = None) -> bool:
        """Whether the session is out of road: attempts exhausted,
        budget spent, or the error is not retryable."""
        if error is not None and not retryable(error):
            return True
        if self.attempts >= self.policy.max_attempts:
            return True
        if (self.policy.budget_s is not None
                and self.slept_s >= self.policy.budget_s):
            return True
        return False

    def next_delay_s(self) -> float:
        """Draw the next backoff sleep (decorrelated jitter) and charge
        it against the budget.  Call only when :meth:`give_up` said no."""
        policy = self.policy
        upper = max(policy.base_s, self._prev_sleep * policy.multiplier)
        delay = min(policy.cap_s,
                    self._rng.uniform(policy.base_s, upper))
        if policy.budget_s is not None:
            delay = min(delay, max(0.0, policy.budget_s - self.slept_s))
        self._prev_sleep = delay if delay > 0 else policy.base_s
        self.slept_s += delay
        return delay
