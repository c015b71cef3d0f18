"""Minimal asyncio HTTP/1.1 client for the ``repro serve`` JSON API.

The server answers one request per connection and closes it, so a
request is: connect, write, read to EOF.  Latency is taken around that
whole exchange — what a caller of the service waits for.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 60.0


@dataclass
class Sample:
    """One mining request as the client saw it."""

    spec: dict
    seconds: float
    status: int
    payload: dict | None
    #: The job's server-side spans (``GET /jobs/{id}/trace``), traced runs only.
    trace: dict | None = field(default=None)

    @property
    def ok(self) -> bool:
        return (
            self.status == 200
            and self.payload is not None
            and self.payload.get("job", {}).get("state") == "done"
            and "result" in self.payload
        )


async def call(port: int, method: str, path: str, body: dict | None = None
               ) -> tuple[int, dict | None]:
    """One request; returns ``(status, decoded JSON body or None)``."""
    data = json.dumps(body).encode() if body is not None else b""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        await writer.wait_closed()
    head, _, content = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1]) if head else 0
    try:
        payload = json.loads(content) if content else None
    except json.JSONDecodeError:
        payload = None
    return status, payload


async def mine(port: int, network: str, spec: dict, trace: bool) -> Sample:
    """POST one synchronous mine request; with ``trace``, fetch its spans."""
    started = time.perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            call(port, "POST", f"/networks/{network}/mine", spec),
            REQUEST_TIMEOUT_S,
        )
    except (OSError, asyncio.TimeoutError, ValueError, IndexError):
        status, payload = 0, None
    sample = Sample(spec, time.perf_counter() - started, status, payload)
    if trace and sample.ok:
        job_id = payload["job"]["id"]
        try:
            status, spans = await asyncio.wait_for(
                call(port, "GET", f"/jobs/{job_id}/trace"), REQUEST_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError, ValueError, IndexError):
            status = 0
        sample.trace = spans if status == 200 else None
    return sample
