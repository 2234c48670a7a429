"""Daemon lifecycle and the timing client for the served workloads.

The daemon is started the way users start it (``python -m repro serve
--port 0 ...``) as one subprocess, so client and daemon do not share a
GIL. Every exit path reaps it with ``os.wait4``, which is also where its
CPU time and peak RSS come from.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceClientError

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Seconds any single HTTP request may take before it counts as failed.
REQUEST_TIMEOUT = 30.0
#: Seconds the daemon has to print its ``serving MP5 on http://`` line.
SPAWN_TIMEOUT = 30.0
#: Seconds a daemon asked to shut down has before it is killed.
REAP_TIMEOUT = 30.0

READY_PREFIX = b"serving MP5 on http://"

#: ServiceClient methods the workloads call; each is timed per call.
TIMED_ROUTES = (
    "ingest",
    "ingest_ndjson",
    "drain",
    "metrics_prom",
    "status",
    "metrics",
    "segment_results",
)


class DaemonError(RuntimeError):
    """The daemon did not start, or died while the benchmark needed it."""


class TimedClient(ServiceClient):
    """A ServiceClient whose route methods record each round trip.

    ``calls[route]`` holds ``(start, end)`` of every successful call. A 429 is
    a retry (``replay_trace`` resends the chunk), not an operation; any
    other error is one attempted and one failed operation.
    """

    def __init__(self, host: str, port: int):
        super().__init__(host, port, timeout=REQUEST_TIMEOUT)
        self.calls: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in TIMED_ROUTES
        }
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        for name in TIMED_ROUTES:
            setattr(self, name, self._timed(name, getattr(self, name)))

    def seconds(self, route: str) -> List[float]:
        return [end - start for start, end in self.calls[route]]

    def _timed(self, route: str, call):
        samples = self.calls[route]

        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = call(*args, **kwargs)
            except ServiceClientError as exc:
                if exc.status == 429:
                    self.retries += 1
                else:
                    self.attempted += 1
                    self.failed += 1
                raise
            except OSError:
                self.attempted += 1
                self.failed += 1
                raise
            samples.append((start, time.perf_counter()))
            self.attempted += 1
            return result

        return timed_call


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, *serve_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *serve_args],
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            bufsize=0,
        )
        self.rusage = None
        try:
            self.port = self._read_port()
            self.client = TimedClient("127.0.0.1", self.port)
            self.client.wait_ready(timeout=SPAWN_TIMEOUT)
        except BaseException:
            self.reap(graceful=False)
            raise

    def _read_port(self) -> int:
        """Parse the port from the daemon's one-line ready banner."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + SPAWN_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise DaemonError("daemon printed no ready line in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise DaemonError("daemon exited before it was ready")
            line += chunk
        if not line.startswith(READY_PREFIX):
            raise DaemonError(f"unexpected daemon banner: {line!r}")
        address = line[len(READY_PREFIX):].split()[0]
        return int(address.rsplit(b":", 1)[1])

    def _poll(self) -> bool:
        """True once the daemon has exited; keeps its rusage. Never
        ``Popen.poll``: that would reap the child and lose the rusage."""
        if self.rusage is None:
            done, status, rusage = os.wait4(self.proc.pid, os.WNOHANG)
            if done:
                self.rusage = rusage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.rusage is not None

    def alive(self) -> bool:
        return not self._poll()

    def reap(self, graceful: bool = True):
        """Stop the daemon and wait for it; returns its ``rusage``.

        Idempotent. ``graceful`` asks for ``POST /shutdown`` first; a
        daemon that does not exit in time is killed, then waited for.
        """
        if graceful and self.alive():
            try:
                ServiceClient("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT).shutdown()
            except (ServiceClientError, OSError):
                pass
        deadline = time.monotonic() + (REAP_TIMEOUT if graceful else 0.0)
        while not self._poll():
            if time.monotonic() >= deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                _, status, self.rusage = os.wait4(self.proc.pid, 0)
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            time.sleep(0.01)
        if not self.proc.stdout.closed:
            self.proc.stdout.close()
        return self.rusage

    def cpu_seconds(self) -> Optional[float]:
        ru = self.rusage
        return None if ru is None else ru.ru_utime + ru.ru_stime

    def peak_rss_mb(self) -> Optional[float]:
        ru = self.rusage
        return None if ru is None else ru.ru_maxrss / 1024.0
