"""HTTP/1.1 load generator for the serving workloads (asyncio, one thread).

Requests are pre-built byte strings sent over keep-alive connections.
Two phases:

* :func:`open_loop` sends request ``i`` when it is due, ``i / rate``
  seconds after the phase starts, whether or not earlier replies have
  arrived; latency runs from the due time, so a stall also counts
  against the requests queued behind it.  How late the generator itself
  sent each request is recorded too.
* :func:`closed_loop` keeps a fixed number of connections busy, each
  sending its next request as soon as its previous reply arrives.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: A reply slower than this counts as a failed request.
REQUEST_TIMEOUT_S = 30.0


def get(path: str) -> bytes:
    """A keep-alive GET request for ``path``."""
    return (f"GET {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: keep-alive\r\n\r\n").encode("ascii")


class Connection:
    """One keep-alive client connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, raw: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        self._writer.write(raw)
        head = await self._reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await self._reader.readexactly(length)
        return status, body

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


@dataclass
class Reply:
    """Outcome of one request (status 0 means a transport error)."""

    status: int = 0
    body: bytes = b""
    latency_s: float = 0.0
    error: str = ""


@dataclass
class PhaseResult:
    replies: List[Reply]
    elapsed_s: float
    late_s: List[float] = field(default_factory=list)


async def _send(conn: Connection, raw: bytes) -> Reply:
    try:
        status, body = await asyncio.wait_for(conn.request(raw),
                                              REQUEST_TIMEOUT_S)
        return Reply(status=status, body=body)
    except (asyncio.TimeoutError, ConnectionError, OSError,
            asyncio.IncompleteReadError, ValueError) as exc:
        await conn.close()
        return Reply(error=f"{type(exc).__name__}: {exc}")


async def open_loop(host: str, port: int, requests: Sequence[bytes],
                    rate: float, connections: int = 4) -> PhaseResult:
    """Send ``requests`` at a constant ``rate`` per second."""
    loop = asyncio.get_running_loop()
    idle = [Connection(host, port) for _ in range(connections)]
    replies: List[Reply] = [Reply() for _ in requests]
    late: List[float] = []

    async def one(index: int, raw: bytes, due: float) -> None:
        conn = idle.pop() if idle else Connection(host, port)
        reply = await _send(conn, raw)
        reply.latency_s = loop.time() - due
        replies[index] = reply
        idle.append(conn)

    tasks = []
    start = loop.time() + 0.05
    for index, raw in enumerate(requests):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        late.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.create_task(one(index, raw, due)))
    await asyncio.gather(*tasks)
    elapsed = loop.time() - start
    for conn in idle:
        await conn.close()
    return PhaseResult(replies=replies, elapsed_s=elapsed, late_s=late)


async def closed_loop(host: str, port: int, requests: Sequence[bytes],
                      connections: int = 2) -> PhaseResult:
    """Send ``requests`` in order over ``connections`` busy connections."""
    loop = asyncio.get_running_loop()
    replies: List[Reply] = [Reply() for _ in requests]
    cursor = iter(range(len(requests)))

    async def worker() -> None:
        conn = Connection(host, port)
        for index in cursor:
            sent = loop.time()
            reply = await _send(conn, requests[index])
            reply.latency_s = loop.time() - sent
            replies[index] = reply
        await conn.close()

    start = loop.time()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return PhaseResult(replies=replies, elapsed_s=loop.time() - start)
