"""Worker side of the fleet: the join/heartbeat agent and local pools.

A *worker* is just a :class:`~repro.service.http.ReproService` speaking
the existing HTTP job contract -- the coordinator submits jobs to it
exactly the way a CLI client would.  What makes it a fleet member is
the :class:`WorkerAgent`: an asyncio task that registers the worker's
advertised URL with the coordinator (``POST /v1/workers``) and then
heartbeats at a third of the lease interval.  If the coordinator
restarts (losing its in-memory registry), the agent notices the 404 on
its next heartbeat and transparently re-registers.

:class:`LocalWorkerPool` scales a single host: ``repro serve
--workers N`` spawns N ``repro worker`` subprocesses that share the
coordinator's content-addressed run-cache directory (so any worker's
completed result is visible to the coordinator and to every sibling)
and terminates them when the coordinator drains.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ServiceError, UnknownWorkerError
from repro.obs.trace_context import inject_env
from repro.obs.tracing import trace_event


class WorkerAgent:
    """Keep one worker registered and leased with its coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        advertise_url: str,
        capacity: int = 1,
        lease_seconds: Optional[float] = None,
        meta: Optional[Dict[str, Any]] = None,
        client_factory: Optional[Callable[[str], Any]] = None,
    ) -> None:
        if client_factory is None:
            from repro.service.client import ServiceClient

            client_factory = ServiceClient
        self.coordinator_url = coordinator_url
        self.advertise_url = advertise_url
        self.capacity = capacity
        self.lease_seconds = lease_seconds
        self.meta = dict(meta or {})
        self.meta.setdefault("pid", os.getpid())
        self.worker_id: Optional[str] = None
        self._client = client_factory(coordinator_url)
        self._stopping = False

    # -- blocking halves (run in executor threads) ----------------------

    def _register(self) -> Dict[str, Any]:
        worker = self._client.register_worker(
            self.advertise_url,
            worker_id=self.worker_id,
            capacity=self.capacity,
            lease_seconds=self.lease_seconds,
            meta=self.meta,
        )
        self.worker_id = worker["id"]
        return worker

    def _heartbeat(self) -> Dict[str, Any]:
        return self._client.worker_heartbeat(self.worker_id)

    def _deregister(self) -> None:
        if self.worker_id is not None:
            self._client.deregister_worker(self.worker_id)

    # -- the asyncio loop ----------------------------------------------

    def interval(self) -> float:
        """Heartbeat period: a third of the lease, floor 50 ms."""
        lease = self.lease_seconds if self.lease_seconds else 10.0
        return max(0.05, lease / 3.0)

    async def run(self) -> None:
        """Register, then heartbeat until :meth:`stop` (or cancel)."""
        loop = asyncio.get_running_loop()
        while not self._stopping:
            try:
                if self.worker_id is None:
                    worker = await loop.run_in_executor(None, self._register)
                    trace_event(
                        "fleet.agent_registered",
                        worker=worker["id"],
                        coordinator=self.coordinator_url,
                    )
                else:
                    await loop.run_in_executor(None, self._heartbeat)
            except UnknownWorkerError:
                # Coordinator restarted and forgot us: re-register.
                self.worker_id = None
                continue
            except ServiceError:
                pass  # coordinator briefly unreachable: keep the loop
            await asyncio.sleep(self.interval())

    async def stop(self) -> None:
        """Best-effort deregister (graceful leave) and end the loop."""
        self._stopping = True
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self._deregister)
        except ServiceError:
            pass


class LocalWorkerPool:
    """N ``repro worker`` subprocesses joined to one coordinator."""

    def __init__(
        self,
        coordinator_url: str,
        count: int,
        cache_dir: str,
        state_root: str,
        host: str = "127.0.0.1",
        job_workers: int = 1,
        lease_seconds: Optional[float] = None,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        self.coordinator_url = coordinator_url
        self.count = max(0, int(count))
        self.cache_dir = cache_dir
        self.state_root = state_root
        self.host = host
        self.job_workers = job_workers
        self.lease_seconds = lease_seconds
        self.env = env
        self._procs: List[subprocess.Popen] = []
        self._logs: List[Any] = []

    def start(self) -> List[int]:
        """Spawn the workers; returns their pids."""
        os.makedirs(self.state_root, exist_ok=True)
        env = dict(self.env if self.env is not None else os.environ)
        # Carry the ambient trace context (if any) into the worker
        # processes; REPRO_TRACE itself flows via plain env inheritance.
        inject_env(env)
        for index in range(self.count):
            state_dir = os.path.join(self.state_root, f"worker-{index}")
            log = open(
                os.path.join(self.state_root, f"worker-{index}.log"), "a"
            )
            argv = [
                sys.executable, "-m", "repro", "worker",
                "--coordinator", self.coordinator_url,
                "--host", self.host, "--port", "0",
                "--state-dir", state_dir,
                "--cache-dir", self.cache_dir,
                "--job-workers", str(self.job_workers),
            ]
            if self.lease_seconds is not None:
                argv += ["--lease", str(self.lease_seconds)]
            proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=env
            )
            self._procs.append(proc)
            self._logs.append(log)
        trace_event(
            "fleet.pool_start", count=self.count, pids=self.pids()
        )
        return self.pids()

    def pids(self) -> List[int]:
        return [proc.pid for proc in self._procs]

    def poll(self) -> List[Optional[int]]:
        return [proc.poll() for proc in self._procs]

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker (drain), SIGKILL stragglers."""
        for proc in self._procs:
            if proc.poll() is None:
                try:
                    proc.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout=10.0)
                except subprocess.TimeoutExpired:
                    pass
        for log in self._logs:
            try:
                log.close()
            except OSError:
                pass
        trace_event("fleet.pool_stop", count=self.count)
