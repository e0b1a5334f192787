"""Remote-layer counters taken from outside the cboost package.

* ``CountingSession`` is handed to ``RemoteBackend(session=...)`` and
  counts every HTTP request the client sends, with its round-trip time and
  body sizes.
* ``ConnectionCounter`` counts new TCP connections from the DEBUG records
  of ``urllib3.connectionpool``.
* ``ModelTimer`` wraps the backend handed to ``BackendServer`` and times
  the server-side model calls.
"""

from __future__ import annotations

import logging
import threading
from time import perf_counter

import requests

from cboost.backend import Backend

URLLIB3_POOL_LOGGER = "urllib3.connectionpool"
NEW_CONNECTION_MESSAGES = ("Starting new HTTP", "Resetting dropped connection")


class CountingSession(requests.Session):
    def __init__(self) -> None:
        super().__init__()
        self.requests = 0
        self.rtt_s: list[float] = []
        self.bytes_sent = 0
        self.bytes_received = 0

    def request(self, method, url, data=None, **kwargs):
        t0 = perf_counter()
        try:
            resp = super().request(method, url, data=data, **kwargs)
        finally:
            self.requests += 1
            self.rtt_s.append(perf_counter() - t0)
        self.bytes_sent += len(data) if data else 0
        self.bytes_received += len(resp.content)
        return resp


class ConnectionCounter(logging.Handler):
    """Counts new TCP connections while installed: urllib3 logs "Starting new
    HTTP connection" for a fresh one and "Resetting dropped connection" when
    it reopens a pooled connection the server closed."""

    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.connections = 0
        self._logger = logging.getLogger(URLLIB3_POOL_LOGGER)

    def emit(self, record: logging.LogRecord) -> None:
        if isinstance(record.msg, str) and record.msg.startswith(NEW_CONNECTION_MESSAGES):
            self.connections += 1

    def install(self) -> "ConnectionCounter":
        self._saved_level = self._logger.level
        self._logger.setLevel(logging.DEBUG)
        self._logger.addHandler(self)
        return self

    def uninstall(self) -> None:
        self._logger.removeHandler(self)
        self._logger.setLevel(self._saved_level)


class ModelTimer(Backend):
    """Delegating backend that accumulates time spent in the wrapped one's
    ``next_logprobs``, the only model call the reference server makes."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.seconds = 0.0
        self._lock = threading.Lock()

    def info(self):
        return self.inner.info()

    def next_logprobs(self, context):
        t0 = perf_counter()
        try:
            return self.inner.next_logprobs(context)
        finally:
            dt = perf_counter() - t0
            with self._lock:
                self.seconds += dt
