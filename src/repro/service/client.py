"""Thin blocking HTTP client for the job service.

Stdlib-only (``urllib``), mirroring the server's endpoints 1:1 and
raising the same structured exceptions the service raises: an error
payload's ``error`` code names the :mod:`repro.errors` class that
declares it, which is rebuilt with the payload's message and declared
fields (the 429 family with its retry hint and identity fields,
:class:`~repro.errors.UnknownJobError`,
:class:`~repro.errors.SessionStateError`, ...), so callers and tests
handle local and remote failures identically.  ``submit`` can honor
the server's retry-after hint itself (``retries=``).  Used by ``repro
submit`` / ``repro status`` / ``repro fetch`` / ``repro top``.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import (
    JobSpecError,
    JobStateError,
    QueueFullError,
    ReproError,
    ServiceError,
    ServiceUnavailableError,
    ThrottledError,
    UnknownJobError,
)
from repro.obs.trace_context import current, inject_headers
from repro.obs.tracing import trace_span

#: Terminal job states (mirrors :mod:`repro.service.store` without
#: importing the simulator stack into light client contexts).
_TERMINAL = ("done", "failed", "cancelled")

#: The class a payload without a known ``error`` code rebuilds, by
#: status (a 429 from a server that sent no code is a full queue).
_BY_STATUS = {
    429: QueueFullError,
    404: UnknownJobError,
    409: JobStateError,
    503: ServiceUnavailableError,
    400: JobSpecError,
}


def _declared_codes(base: type = ReproError) -> Dict[str, type]:
    """``error`` code -> the class below ``base`` that declares it.

    ``ReproError``'s own ``bad_request`` is not a class of its own on
    the wire: it falls back by status.
    """
    codes: Dict[str, type] = {}
    for cls in base.__subclasses__():
        if "error_code" in vars(cls):
            codes[cls.error_code] = cls
        codes.update(_declared_codes(cls))
    return codes


class ServiceClient:
    """Talk to one ``repro serve`` instance at ``base_url``."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        # Injectable for tests that exercise retry backoff without
        # actually sleeping.
        self._sleep = time.sleep

    # -- transport ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Mapping[str, Any]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        data = None
        headers = {"Accept": "application/json"}
        inject_headers(headers)
        if body is not None:
            data = json.dumps(dict(body)).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=timeout if timeout is not None else self.timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raise self._to_error(exc) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach service at {self.base_url}: {exc.reason}"
            ) from None
        return payload

    @staticmethod
    def _to_error(exc: urllib.error.HTTPError) -> ReproError:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
        except Exception:
            payload = {}
        message = payload.get("message", f"HTTP {exc.code}")
        cls = _declared_codes().get(payload.get("error"))
        if cls is None:
            cls = _BY_STATUS.get(exc.code)
        if cls is None:
            return ServiceError(f"HTTP {exc.code}: {message}")
        # Rebuild from the payload, not the constructor (which derives
        # its message from the fields); a field the payload lacks reads
        # the class default, if it has one.
        err = cls.__new__(cls)
        Exception.__init__(err, message)
        for name in cls.wire_fields:
            setattr(err, name, payload.get(name, getattr(cls, name, None)))
        return err

    # -- endpoints ------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def submit(
        self,
        spec: Mapping[str, Any],
        client: str = "anonymous",
        priority: int = 0,
        retries: int = 0,
        max_retry_wait: float = 30.0,
    ) -> Dict[str, Any]:
        """Submit one job spec; returns the job record.

        With ``retries > 0``, a throttled submission (429: queue full,
        quota exceeded, or rate limited) sleeps out the server's
        ``retry_after_seconds`` hint (capped at ``max_retry_wait``) and
        retries, up to ``retries`` extra attempts; the final throttle is
        re-raised.

        With ``REPRO_TRACE`` set this is where a distributed trace is
        born: the ``client.submit`` span mints a trace root (unless an
        ambient context already exists) and its context rides both the
        request header and the spec's ``trace`` field, so every
        server-side span for this job stitches under it.
        """
        spec_body = dict(spec)
        with trace_span("client.submit", client=client):
            ctx = current()
            if ctx is not None and not spec_body.get("trace"):
                spec_body["trace"] = ctx.traceparent()
            body = {
                "spec": spec_body, "client": client, "priority": priority
            }
            attempts = max(0, int(retries))
            while True:
                try:
                    payload = self._request("POST", "/v1/jobs", body=body)
                except ThrottledError as exc:
                    if attempts <= 0:
                        raise
                    attempts -= 1
                    wait = min(
                        max(0.0, float(exc.retry_after_seconds)),
                        max_retry_wait,
                    )
                    self._sleep(wait)
                    continue
                return payload["job"]

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/jobs")["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")["job"]

    def result(self, job_id: str) -> Dict[str, Any]:
        """The completed run's JSON payload (job + result)."""
        return self._request("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")["job"]

    def events(
        self, job_id: str, since: int = 0, timeout: float = 30.0
    ) -> Tuple[List[Dict[str, Any]], int, str]:
        """One long-poll round: ``(events, next_since, job_state)``."""
        payload = self._request(
            "GET",
            f"/v1/jobs/{job_id}/events?since={int(since)}"
            f"&timeout={timeout:g}",
            timeout=timeout + 15.0,
        )
        return payload["events"], int(payload["next"]), payload["state"]

    # -- streaming session endpoints ------------------------------------

    def create_session(
        self,
        graph: str,
        seed: int = 42,
        client: str = "anonymous",
    ) -> Dict[str, Any]:
        """Pin a base graph at the service; returns the session record."""
        with trace_span("client.session", graph=graph):
            return self._request(
                "POST",
                "/v1/sessions",
                body={"graph": graph, "seed": int(seed), "client": client},
            )["session"]

    def sessions(self) -> List[Dict[str, Any]]:
        return self._request("GET", "/v1/sessions")["sessions"]

    def session(self, session_id: str) -> Dict[str, Any]:
        return self._request(
            "GET", f"/v1/sessions/{session_id}"
        )["session"]

    def close_session(self, session_id: str) -> Dict[str, Any]:
        return self._request(
            "DELETE", f"/v1/sessions/{session_id}"
        )["session"]

    def apply_delta(
        self,
        session_id: str,
        inserts: Optional[List[List[int]]] = None,
        deletes: Optional[List[List[int]]] = None,
    ) -> Dict[str, Any]:
        """Append one delta batch; returns the advanced session record."""
        with trace_span("client.delta", session=session_id):
            return self._request(
                "POST",
                f"/v1/sessions/{session_id}/deltas",
                body={
                    "inserts": [list(e) for e in (inserts or [])],
                    "deletes": [list(e) for e in (deletes or [])],
                },
            )["session"]

    def compact_session(self, session_id: str) -> Dict[str, Any]:
        with trace_span("client.compact", session=session_id):
            return self._request(
                "POST", f"/v1/sessions/{session_id}/compact"
            )["session"]

    def session_submit(
        self,
        session_id: str,
        workload: str = "pr",
        mode: str = "incremental",
        source: Optional[int] = None,
        client: str = "anonymous",
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Submit a query against the session's current version.

        Traced like :meth:`submit`: the ``client.submit`` span roots the
        distributed trace, and the server inherits it from the request
        header so the session run's spans stitch underneath.
        """
        with trace_span(
            "client.submit", client=client, session=session_id
        ):
            body: Dict[str, Any] = {
                "workload": workload,
                "mode": mode,
                "client": client,
                "priority": int(priority),
            }
            if source is not None:
                body["source"] = int(source)
            return self._request(
                "POST", f"/v1/sessions/{session_id}/jobs", body=body
            )["job"]

    # -- conveniences ---------------------------------------------------

    def wait(
        self,
        job_id: str,
        timeout: Optional[float] = None,
        poll_timeout: float = 15.0,
    ) -> Dict[str, Any]:
        """Long-poll events until the job settles; returns the job.

        Raises :class:`ServiceError` when ``timeout`` elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        since = 0
        while True:
            _, since, state = self.events(
                job_id, since=since, timeout=poll_timeout
            )
            if state in _TERMINAL:
                return self.job(job_id)
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {state} after {timeout:g}s"
                )
