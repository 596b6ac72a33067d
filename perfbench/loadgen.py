"""Closed-loop HTTP load against ``repro serve`` from one connection at a time.

Responses are kept as raw bytes and decoded only after the timed phase, so
decoding costs the generator nothing while it is measuring.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np


class Client:
    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, method: str, path: str, body: Optional[bytes] = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, body: bytes):
        try:
            return self.request("POST", "/query", body)
        except (OSError, http.client.HTTPException) as exc:
            return 0, str(exc).encode()


@dataclass
class Records:
    """One entry per request, in send order (times are ``perf_counter`` seconds)."""

    sent: np.ndarray
    done: np.ndarray
    status: np.ndarray
    responses: List[bytes] = field(default_factory=list)

    def latency(self) -> np.ndarray:
        """Seconds from each request's send to its reply."""
        return self.done - self.sent

    def throughput(self) -> float:
        """Requests completed per second, from the first send to the last reply."""
        return self.done.size / float(self.done.max() - self.sent.min())


def closed_loop(client: Client, body: bytes, seconds: float, min_requests: int = 1) -> Records:
    """Send ``body`` again as soon as each reply arrives, for ``seconds`` and ``min_requests``."""
    sent, done, status, responses = [], [], [], []
    start = time.perf_counter()
    while len(sent) < min_requests or time.perf_counter() - start < seconds:
        sent.append(time.perf_counter())
        code, payload = client.post(body)
        done.append(time.perf_counter())
        status.append(code)
        responses.append(payload)
    return Records(sent=np.asarray(sent), done=np.asarray(done), status=np.asarray(status),
                   responses=responses)
