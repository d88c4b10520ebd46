"""Failure records and the retry policy for sweeps.

A sweep run can end three ways short of a result:

- the spec itself raises (``kind="error"``) -- deterministic, never
  retried;
- the run exceeds the policy's wall-clock timeout (``kind="timeout"``):
  the sweep's parent process kills the run's forked child at the
  deadline, whichever thread drives the sweep;
- the forked child dies mid-run -- an ``os._exit``, an OOM kill, a
  segfault in an extension (``kind="worker-died"``).  Only the run that
  child was executing is charged.

The last two, plus ``OSError`` / ``MemoryError`` (cache I/O hiccups,
transient allocation failures), are classified *transient* and retried
up to :attr:`RetryPolicy.retries` extra attempts, each re-entering the
sweep's running pool after an exponential backoff.  Whatever remains
becomes a :class:`RunFailure` -- a plain data record the sweep returns
(or wraps in :class:`~repro.errors.SweepFailure`) instead of aborting
sibling runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.env import env_float, env_int
from repro.errors import ConfigError

#: Exception types worth retrying: they depend on machine state, not on
#: the spec.  Everything else (ConfigError, ValueError, ...) is
#: deterministic -- retrying would fail identically.
TRANSIENT_EXCEPTIONS = (MemoryError, OSError)

#: RunFailure.kind values.
FAILURE_KINDS = ("error", "timeout", "worker-died")


def is_transient(exc: BaseException) -> bool:
    """True if ``exc`` could plausibly succeed on a retry."""
    return isinstance(exc, TRANSIENT_EXCEPTIONS)


#: The longest wait before a retry, however many attempts came before.
MAX_BACKOFF_SECONDS = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Per-run timeout and bounded exponential-backoff retry.

    ``timeout_seconds`` bounds one attempt's wall clock (``None``
    disables the deadline); ``retries`` is the number of *extra*
    attempts granted to transient failures, so every key executes at
    most ``1 + retries`` times.  Retry *n* of a key waits
    ``backoff_seconds * 2**(n-1)``, capped at
    :data:`MAX_BACKOFF_SECONDS`.
    """

    timeout_seconds: Optional[float] = None
    retries: int = 1
    backoff_seconds: float = 0.25

    def __post_init__(self) -> None:
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigError(
                f"timeout_seconds must be positive, got {self.timeout_seconds}"
            )
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_seconds < 0:
            raise ConfigError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )

    def allows_retry(self, attempts: int) -> bool:
        """True if a key that has run ``attempts`` times may run again."""
        return attempts < 1 + self.retries

    def backoff_delay(self, attempts: int) -> float:
        """Seconds a key that has run ``attempts`` times waits before
        its next attempt."""
        if attempts <= 0:
            return 0.0
        # 2.0 ** n raises OverflowError past n = 1023.
        delay = self.backoff_seconds * 2.0 ** min(attempts - 1, 1023)
        return min(MAX_BACKOFF_SECONDS, delay)

    @classmethod
    def from_env(cls) -> "RetryPolicy":
        """Build a policy from ``REPRO_RUN_TIMEOUT`` /
        ``REPRO_RUN_RETRIES``, validated, defaults where unset."""
        kwargs = {}
        timeout = env_float("REPRO_RUN_TIMEOUT")
        if timeout is not None:
            if timeout <= 0:
                raise ConfigError(
                    f"REPRO_RUN_TIMEOUT must be positive, got {timeout:g}"
                )
            kwargs["timeout_seconds"] = timeout
        retries = env_int("REPRO_RUN_RETRIES", minimum=0)
        if retries is not None:
            kwargs["retries"] = retries
        return cls(**kwargs)


@dataclass
class RunFailure:
    """Structured record of one sweep run that ultimately failed.

    Occupies the failed spec's slot in the results list (when
    ``on_failure="return"``) so callers can align failures with their
    input order; also carried by :class:`~repro.errors.SweepFailure`.
    """

    key: str
    spec: object  # the RunSpec (typed loosely: records must stay picklable)
    kind: str  # one of FAILURE_KINDS
    error_type: str
    message: str
    attempts: int = 1
    elapsed_seconds: float = 0.0

    def describe(self) -> str:
        spec_text = ""
        describe = getattr(self.spec, "describe", None)
        if callable(describe):
            spec_text = f" [{describe()}]"
        return (
            f"{self.kind}{spec_text}: {self.error_type}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )

    def __str__(self) -> str:
        return self.describe()
