"""The asyncio HTTP server wrapping :class:`~repro.gateway.app.GatewayApp`.

Stdlib only: a hand-rolled HTTP/1.1 loop over ``asyncio.start_server``.
The gateway's API is small and JSON-shaped, so the server supports
exactly what it needs — ``GET``/``POST``, ``Content-Length`` bodies,
``Connection: close`` responses, and ``Transfer-Encoding: chunked`` for
the event stream (one JSON line per chunk, so ``curl -N`` and the stdlib
client both see events the moment they happen).

Blocking application calls (SQLite board writes, store lookups) run in
the default executor via :func:`asyncio.to_thread`, keeping the event
loop responsive while the workers' child processes compute cells.

Shutdown is the gateway's graceful drain: ``SIGTERM``/``SIGINT`` (or
:meth:`GatewayServer.request_shutdown`) stops accepting connections,
drains the app — leased cells finish, the board file persists, late
submissions get 503 — and :meth:`GatewayServer.run` returns.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Optional

from repro.gateway.app import GatewayApp, UnknownExperiment
from repro.gateway.routes import EventStream, Request, Response, dispatch
from repro.telemetry.log import get_logger

__all__ = ["GatewayServer", "serve"]

_log = get_logger("gateway")

#: Parser guard rails: maximum header block and body sizes (bytes).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

#: How often the event stream polls the app for news (seconds).
STREAM_POLL_SECONDS = 0.02


class GatewayServer:
    """Serve one :class:`GatewayApp` over HTTP until drained.

    Args:
        app: The application to serve (the server owns its drain).
        host: Bind address.
        port: Bind port; ``0`` picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self, app: GatewayApp, host: str = "127.0.0.1", port: int = 8642
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._handlers: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._shutdown = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        _log.info("gateway listening on http://%s:%d", self.host, self.port)

    def install_signal_handlers(self) -> None:
        """Drain on SIGTERM/SIGINT where the platform allows it."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
            except (NotImplementedError, RuntimeError, ValueError):
                # Non-main thread or platform without loop signals (the
                # in-process test servers): rely on request_shutdown().
                return

    def request_shutdown(self) -> None:
        """Begin the graceful drain (threadsafe; idempotent)."""
        if self._shutdown is None or self._shutdown.is_set():
            return
        _log.info("gateway shutdown requested; draining")
        self._shutdown.set()

    async def run(self) -> None:
        """Serve until a shutdown is requested, then drain and return."""
        if self._server is None:
            await self.start()
        self.install_signal_handlers()
        assert self._shutdown is not None
        await self._shutdown.wait()
        # Drain with the listener still up: late submissions get an
        # honest 503 (not a connection refusal) while leased cells
        # finish and open event streams run to their terminal marker.
        await asyncio.to_thread(self.app.drain)
        pending = [task for task in self._handlers if not task.done()]
        if pending:
            # Open streams end within one poll once the drain marks
            # their experiments interrupted; give them that moment.
            await asyncio.wait(pending, timeout=5.0)
        self._server.close()
        await self._server.wait_closed()
        _log.info("gateway stopped")

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            result = await asyncio.to_thread(dispatch, self.app, request)
            if isinstance(result, EventStream):
                await self._write_event_stream(writer, result.experiment_id)
            else:
                await self._write_response(writer, result)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        except Exception as exc:  # noqa: BLE001 - keep the acceptor alive
            _log.error("connection handler failed: %s", exc)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        try:
            header_block = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return None
        except asyncio.IncompleteReadError:
            return None
        if len(header_block) > MAX_HEADER_BYTES:
            return None
        lines = header_block.decode("latin-1").split("\r\n")
        request_line = lines[0].split()
        if len(request_line) != 3:
            return None
        method, path, _version = request_line
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > MAX_BODY_BYTES:
            return None
        body = await reader.readexactly(length) if length else b""
        return Request(
            method=method.upper(), path=path, headers=headers, body=body
        )

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        body = response.encode_body()
        head = [
            f"HTTP/1.1 {response.status} {response.reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    async def _write_event_stream(
        self, writer: asyncio.StreamWriter, experiment_id: str
    ) -> None:
        """Stream the experiment's events as chunked JSON lines.

        Each event is one chunk holding one ``json\\n`` line — the
        sweep-event payloads of :mod:`repro.telemetry.bus` plus the
        gateway's ``experiment_*`` markers.  The stream ends (zero
        chunk) when the experiment reaches a terminal state.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        cursor = 0
        while True:
            try:
                events, done = await asyncio.to_thread(
                    self.app.events_since, experiment_id, cursor
                )
            except UnknownExperiment:
                break
            cursor += len(events)
            for event in events:
                line = (json.dumps(event, sort_keys=True) + "\n").encode()
                writer.write(f"{len(line):X}\r\n".encode() + line + b"\r\n")
            if events:
                await writer.drain()
            if done:
                break
            await asyncio.sleep(STREAM_POLL_SECONDS)
        writer.write(b"0\r\n\r\n")
        await writer.drain()


def serve(
    app: GatewayApp, host: str = "127.0.0.1", port: int = 8642
) -> None:
    """Run a gateway server on the current thread until drained."""
    server = GatewayServer(app, host=host, port=port)
    asyncio.run(server.run())
