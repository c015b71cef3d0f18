"""HTTP/JSON facade over a :class:`~repro.serve.Scheduler`.

A deliberately small stdlib-only server (``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 request reader — no new dependencies): enough to
put the scheduler's priorities, deadlines and cancellation on a wire,
not a web framework.  One connection serves one request and closes.

Endpoints
---------
``GET  /healthz``
    ``{"status": "ok", "networks": [...]}``.
``GET  /stats``
    Scheduler counters + the hub's aggregate stats, read on the
    coordinator thread (one round trip; the coordinator never mines).
``GET  /metrics``
    The process-wide :data:`repro.obs.REGISTRY` in Prometheus text
    exposition format (0.0.4); ``?format=json`` for the structured
    equivalent.
``GET  /jobs/{id}/trace``
    The job's recorded spans (plan → per-shard → merge → finalize)
    as structured JSON; ``?format=chrome`` renders Chrome
    ``trace_event`` JSON loadable in ``about:tracing`` / Perfetto.  404 once the tracer's ring buffer evicted the job (or
    when the scheduler runs with ``observe=False``).
``GET  /jobs/{id}/events``
    Server-sent events progress stream: ``progress`` events (shards
    done/total, running k-th-best score, partial top-k) as the job
    advances, ``heartbeat`` events every :attr:`ServeHTTP.sse_heartbeat_s`
    seconds of silence, and a terminal ``done`` event.  Disconnecting mid-stream frees the
    subscription without affecting the job.
``POST /networks/{name}/mine``
    Body: the :class:`~repro.engine.MineRequest` fields (``k``,
    ``min_support``, ``min_nhp``, ``rank_by``, ``push_topk``,
    ``workers``, ``options``) plus serving controls ``priority``,
    ``deadline_s`` and ``mode`` (``"sync"`` waits and returns the
    result; ``"async"`` returns ``{"job": {...}}`` immediately).
``POST /networks/{name}/sweep``
    Body: ``{"requests": [{...}, ...], "priority": ..., "deadline_s":
    ..., "mode": ...}``; every spec becomes one job at the batch's
    priority.  Specs are validated before any job is admitted — a bad
    spec rejects the whole batch without leaving earlier specs mining.
``POST /networks/{name}/append_edges``
    Body: ``{"src": [...], "dst": [...], "edge_codes": {attr: [...]}}``;
    drains the network's in-flight jobs, applies the delta, returns the
    new fingerprint.
``GET  /jobs/{id}``
    Job status, with the result once done.
``DELETE /jobs/{id}``
    Cooperative cancellation; returns the job status.

Cancelled/expired jobs report ``{"job": {... "state": "cancelled"}}``
with HTTP 200 — cancellation is an outcome, not a server error.
"""

from __future__ import annotations

import asyncio
import json
import urllib.parse

from ..engine.request import MineRequest
from ..obs.metrics import REGISTRY
from .job import JobCancelled, ServeJob
from .scheduler import Scheduler

__all__ = ["ServeHTTP", "result_payload"]

_MAX_BODY = 64 * 1024 * 1024


def result_payload(result) -> dict:
    """A MiningResult as JSON-ready dicts (mirrors ``result_to_json``)."""
    entries = []
    for i, mined in enumerate(result, start=1):
        m = mined.metrics
        entries.append(
            {
                "rank": i,
                "gr": str(mined.gr),
                "lhs": mined.gr.lhs.as_dict(),
                "edge": mined.gr.edge.as_dict(),
                "rhs": mined.gr.rhs.as_dict(),
                "score": mined.score,
                "nhp": m.nhp,
                "confidence": m.confidence,
                "support_count": m.support_count,
                "support": m.support,
                "beta": list(m.beta),
            }
        )
    stats = result.stats
    return {
        "grs": entries,
        "stats": {
            "grs_examined": stats.grs_examined,
            "candidates": stats.candidates,
            "runtime_seconds": stats.runtime_seconds,
        },
        "params": {
            key: value
            for key, value in result.params.items()
            if isinstance(value, (str, int, float, bool, type(None)))
        },
    }


def request_from_body(body: dict) -> MineRequest:
    """Build a MineRequest from the JSON body's request fields."""
    fields = {
        key: body[key]
        for key in ("k", "min_support", "min_nhp", "rank_by", "push_topk", "workers")
        if key in body
    }
    options = body.get("options") or {}
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object of miner keywords")
    return MineRequest.create(**fields, **{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in options.items()
    })


class _BadRequest(Exception):
    pass


class ServeHTTP:
    """Serve a scheduler over HTTP on ``host:port`` (``port=0`` picks a
    free one; read it back from :attr:`port` after :meth:`start`)."""

    def __init__(self, scheduler: Scheduler, host: str = "127.0.0.1", port: int = 8765):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        #: Seconds of event silence after which an SSE stream emits a
        #: ``heartbeat`` — keeps idle streams alive through proxies and
        #: lets the server notice a dead peer (the failed write tears
        #: the subscription down).
        self.sse_heartbeat_s = 15.0
        self._server: asyncio.AbstractServer | None = None
        #: The writers of connections still sending their request.
        self._reading: dict[asyncio.Task, asyncio.StreamWriter] = {}

    # ------------------------------------------------------------------
    async def start(self) -> "ServeHTTP":
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        """Stop listening, and close every connection still sending its
        request: left open, each would wait for bytes that never come,
        and end in a traceback when the loop cancels it at exit."""
        if self._server is not None:
            self._server.close()
            writer: asyncio.StreamWriter
            for writer in self._reading.values():
                writer.close()
            await asyncio.gather(*list(self._reading), return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def __aenter__(self) -> "ServeHTTP":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._reading[task] = writer
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except _BadRequest as exc:
                await self._respond(writer, 400, {"error": str(exc)})
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            finally:
                del self._reading[task]
            segments = [s for s in path.split("/") if s]
            # Streaming / non-JSON endpoints bypass the (status, payload)
            # routing contract and own the writer themselves.
            if method == "GET" and segments == ["metrics"]:
                await self._metrics(writer, query)
                return
            if (
                method == "GET"
                and len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "events"
            ):
                await self._job_events(writer, segments[1])
                return
            try:
                status, payload = await self._route(method, path, query, body)
            except _BadRequest as exc:
                status, payload = 400, {"error": str(exc)}
            except KeyError as exc:
                status, payload = 404, {"error": str(exc.args[0] if exc.args else exc)}
            except (TypeError, ValueError) as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # mining failures -> 500, not a dead server
                status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
            await self._respond(writer, status, payload)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            # repro-lint: disable=swallowed-exception -- best-effort socket teardown: the response is already sent (or the peer is gone) and a close failure has no one left to report to
            except Exception:
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict, dict | None]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise _BadRequest("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {request_line!r}")
        method, target, _version = parts
        length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n"):
                break
            if not line.endswith("\n"):  # the peer closed before the blank line
                raise asyncio.IncompleteReadError(line.encode("latin-1"), None)
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
        if length < 0:
            raise _BadRequest("negative Content-Length")
        if length > _MAX_BODY:
            raise _BadRequest("request body too large")
        body = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid JSON body: {exc}") from None
            if not isinstance(body, dict):
                raise _BadRequest("JSON body must be an object")
        path, _, raw_query = target.partition("?")
        query = urllib.parse.parse_qs(raw_query)
        return method.upper(), path, query, body

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        data = json.dumps(payload, default=str).encode()
        await self._respond_bytes(writer, status, data, "application/json")

    async def _respond_bytes(
        self, writer: asyncio.StreamWriter, status: int, data: bytes,
        content_type: str
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 500: "Internal Server Error"}
        head = (
            f"HTTP/1.1 {status} {reason.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        try:
            writer.write(head + data)
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    async def _metrics(self, writer: asyncio.StreamWriter, query: dict) -> None:
        # render_* build the exposition entirely in memory — no file or
        # sqlite I/O ever happens on the event loop here.
        fmt = (query.get("format") or ["prometheus"])[0]
        if fmt == "json":
            await self._respond(writer, 200, REGISTRY.render_json())
            return
        text = REGISTRY.render_prometheus()
        await self._respond_bytes(
            writer, 200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        )

    # ------------------------------------------------------------------
    # SSE progress streaming
    # ------------------------------------------------------------------
    async def _send_event(
        self, writer: asyncio.StreamWriter, event: str, payload: dict
    ) -> None:
        data = json.dumps(payload, default=str)
        writer.write(f"event: {event}\ndata: {data}\n\n".encode())
        await writer.drain()

    async def _job_events(self, writer: asyncio.StreamWriter, job_id: str) -> None:
        try:
            job = self.scheduler.job(job_id)
        except KeyError as exc:
            await self._respond(writer, 404, {"error": str(exc.args[0])})
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        queue: asyncio.Queue = asyncio.Queue()
        job._subscribers.append(queue)
        try:
            writer.write(head)
            # Immediate snapshot: a subscriber learns the current state
            # now, not a heartbeat (or first shard) later.
            snapshot = self.scheduler.progress_payload(job)
            await self._send_event(writer, "progress", snapshot)
            if job.done:
                await self._send_event(writer, "done", snapshot)
                return
            while True:
                try:
                    event, payload = await asyncio.wait_for(
                        queue.get(), timeout=self.sse_heartbeat_s
                    )
                except asyncio.TimeoutError:
                    await self._send_event(
                        writer,
                        "heartbeat",
                        {"job_id": job.id, "state": job.state.value},
                    )
                    continue
                await self._send_event(writer, event, payload)
                if event == "done":
                    return
        except ConnectionError:
            pass
        finally:
            if queue in job._subscribers:
                job._subscribers.remove(queue)

    # ------------------------------------------------------------------
    async def _route(self, method: str, path: str, query: dict, body: dict | None):
        segments = [s for s in path.split("/") if s]
        if segments == ["healthz"] and method == "GET":
            return 200, {"status": "ok", "networks": self.scheduler.hub.names()}
        if segments == ["stats"] and method == "GET":
            return 200, {
                "scheduler": self.scheduler.stats(),
                "hub": await self.scheduler.hub_stats(),
            }
        if len(segments) == 2 and segments[0] == "jobs":
            return await self._route_job(method, segments[1])
        if len(segments) == 3 and segments[0] == "jobs" and segments[2] == "trace":
            return self._job_trace(method, segments[1], query)
        if len(segments) == 3 and segments[0] == "networks":
            name, action = segments[1], segments[2]
            if name not in self.scheduler.hub:
                raise KeyError(f"no network {name!r}")
            if method != "POST":
                return 405, {"error": f"{action} requires POST"}
            if body is None:
                body = {}
            if action == "mine":
                return await self._mine(name, body)
            if action == "sweep":
                return await self._sweep(name, body)
            if action == "append_edges":
                return await self._append_edges(name, body)
        return 404, {"error": f"no route for {method} {path}"}

    async def _route_job(self, method: str, job_id: str):
        job = self.scheduler.job(job_id)  # KeyError -> 404
        if method == "GET":
            return 200, await self._job_payload(job)
        if method == "DELETE":
            job.cancel()
            # Give an idle loop one tick so an un-started job settles
            # before we report; in-flight ones report their live state.
            await asyncio.sleep(0)
            return 200, await self._job_payload(job)
        return 405, {"error": "jobs support GET and DELETE"}

    def _job_trace(self, method: str, job_id: str, query: dict):
        if method != "GET":
            return 405, {"error": "trace supports GET"}
        self.scheduler.job(job_id)  # unknown id -> KeyError -> 404
        fmt = (query.get("format") or ["structured"])[0]
        tracer = self.scheduler.tracer
        payload = (
            tracer.chrome_trace(job_id) if fmt == "chrome" else tracer.trace(job_id)
        )
        if payload is None:
            raise KeyError(
                f"no trace for {job_id!r} (tracing disabled, or the job "
                f"was evicted from the trace ring)"
            )
        return 200, payload

    async def _job_payload(self, job: ServeJob) -> dict:
        payload = {"job": job.describe()}
        if job.future.done() and not job.future.cancelled():
            if job.future.exception() is None:
                payload["result"] = result_payload(job.future.result())
            elif not isinstance(job.future.exception(), JobCancelled):
                payload["error"] = str(job.future.exception())
        return payload

    def _serve_args(self, body: dict) -> dict:
        priority = body.get("priority", 0)
        deadline_s = body.get("deadline_s")
        # bool is an int subclass: ``true`` must not pass as priority 1.
        if isinstance(priority, bool) or not isinstance(priority, int):
            raise _BadRequest("'priority' must be an integer")
        if deadline_s is not None and (
            isinstance(deadline_s, bool) or not isinstance(deadline_s, (int, float))
        ):
            raise _BadRequest("'deadline_s' must be a number")
        return {"priority": priority, "deadline_s": deadline_s}

    async def _mine(self, name: str, body: dict):
        request = request_from_body(body)
        job = self.scheduler.submit(name, request, **self._serve_args(body))
        if body.get("mode") == "async":
            return 200, {"job": job.describe()}
        try:
            result = await job
        except JobCancelled:
            return 200, await self._job_payload(job)
        return 200, {"job": job.describe(), "result": result_payload(result)}

    async def _sweep(self, name: str, body: dict):
        specs = body.get("requests")
        if not isinstance(specs, list) or not specs:
            raise _BadRequest("'requests' must be a non-empty list")
        serve_args = self._serve_args(body)
        # Every spec is validated before any job is admitted: a bad spec
        # at position i must not leave the i-1 earlier ones mining (and
        # holding fleet slots) behind the client's 400.  submit_sweep
        # additionally cancels the batch if a later *submission* fails.
        requests = [request_from_body(spec) for spec in specs]
        jobs = self.scheduler.submit_sweep(name, requests, **serve_args)
        if body.get("mode") == "async":
            return 200, {"jobs": [job.describe() for job in jobs]}
        await asyncio.gather(*(job.future for job in jobs), return_exceptions=True)
        return 200, {"jobs": [await self._job_payload(job) for job in jobs]}

    async def _append_edges(self, name: str, body: dict):
        src = body.get("src")
        dst = body.get("dst")
        if not isinstance(src, list) or not isinstance(dst, list):
            raise _BadRequest("'src' and 'dst' must be lists")
        edge_codes = body.get("edge_codes")
        fingerprint = await self.scheduler.append_edges(name, src, dst, edge_codes)
        return 200, {"network": name, "fingerprint": fingerprint}
