"""End-to-end server tests over real sockets (ephemeral ports).

Covers the serving layer's operational contract:

* request/response happy paths for every endpoint, GET and POST;
* result-cache hits for geographically-identical queries;
* micro-batch coalescing visible in /metrics;
* **backpressure**: with queue capacity K, K+N simultaneous requests
  yield exactly N 429s (with Retry-After), zero server errors, and
  ``/healthz`` keeps answering throughout;
* client disconnects mid-request never take the server down.
"""

from __future__ import annotations

import asyncio
import json


from satiot.serving import ServingConfig, ServingServer


# ----------------------------------------------------------------------
# Minimal asyncio HTTP client
# ----------------------------------------------------------------------
async def raw_request(port: int, payload: bytes) -> bytes:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        return await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass


async def request(port: int, path: str, body: dict = None,
                  method: str = None):
    method = method or ("POST" if body is not None else "GET")
    encoded = json.dumps(body).encode() if body is not None else b""
    raw = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
           f"Content-Length: {len(encoded)}\r\n"
           f"Connection: close\r\n\r\n").encode() + encoded
    data = await raw_request(port, raw)
    head, _, payload = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, json.loads(payload) if payload else None


def run(coro):
    return asyncio.run(coro)


async def with_server(config: ServingConfig, scenario):
    server = ServingServer(config)
    await server.start()
    try:
        return await scenario(server)
    finally:
        await server.close()


def fast_config(**overrides) -> ServingConfig:
    defaults = dict(port=0, coarse_step_s=120.0, window_s=0.01,
                    cache_decimals=6)
    defaults.update(overrides)
    return ServingConfig(**defaults)


HK = {"lat": 22.3, "lon": 114.2}


# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self):
        async def scenario(server):
            return await request(server.bound_port, "/healthz")

        status, _, payload = run(with_server(fast_config(), scenario))
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["constellations"] == ["tianqi"]

    def test_passes_get_and_post_agree(self):
        async def scenario(server):
            port = server.bound_port
            get = await request(
                port, "/v1/passes?lat=22.3&lon=114.2&horizon_s=7200")
            post = await request(port, "/v1/passes",
                                 body={**HK, "horizon_s": 7200})
            return get, post

        (s1, _, p1), (s2, _, p2) = run(
            with_server(fast_config(), scenario))
        assert s1 == s2 == 200
        assert p1 == p2
        assert p1["count"] == len(p1["passes"])

    def test_link_budget_and_presence(self):
        async def scenario(server):
            port = server.bound_port
            lb = await request(port, "/v1/link_budget",
                               body={**HK, "t_offset_s": 1200})
            pr = await request(port, "/v1/presence",
                               body={**HK, "horizon_s": 7200})
            return lb, pr

        (s1, _, lb), (s2, _, pr) = run(
            with_server(fast_config(), scenario))
        assert s1 == s2 == 200
        assert "satellites" in lb and "sensitivity_dbm" in lb
        assert 0.0 <= pr["coverage_fraction"] <= 1.0

    def test_validation_and_routing_errors(self):
        async def scenario(server):
            port = server.bound_port
            bad = await request(port, "/v1/passes", body={"lat": 95,
                                                          "lon": 0})
            missing = await request(port, "/nope")
            method = await request(port, "/v1/passes", body=HK,
                                   method="DELETE")
            return bad, missing, method

        (s1, _, p1), (s2, _, _), (s3, _, _) = run(
            with_server(fast_config(), scenario))
        assert s1 == 400 and "lat" in p1["error"]
        assert s2 == 404
        assert s3 == 405

    def test_metrics_json_and_text(self):
        async def scenario(server):
            port = server.bound_port
            await request(port, "/v1/passes",
                          body={**HK, "horizon_s": 3600})
            js = await request(port, "/metrics")
            raw = await raw_request(
                port, b"GET /metrics?format=text HTTP/1.1\r\n"
                      b"Host: t\r\nConnection: close\r\n\r\n")
            return js, raw

        (status, _, payload), raw = run(
            with_server(fast_config(), scenario))
        assert status == 200
        assert payload["passes"]["requests"] == 1
        assert "_cache" in payload
        assert b"endpoint" in raw and b"p99 ms" in raw

    def test_result_cache_serves_repeat_queries(self):
        async def scenario(server):
            port = server.bound_port
            first = await request(port, "/v1/passes",
                                  body={**HK, "horizon_s": 3600})
            second = await request(port, "/v1/passes",
                                   body={**HK, "horizon_s": 3600})
            stats = server.metrics.endpoint("passes")
            return first, second, stats.cache_hits, server.cache.hits

        first, second, hits, cache_hits = run(
            with_server(fast_config(), scenario))
        assert first[2] == second[2]
        assert hits == 1 and cache_hits == 1

    def test_keep_alive_connection_reuse(self):
        async def scenario(server):
            port = server.bound_port
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            try:
                for _ in range(2):
                    writer.write(b"GET /healthz HTTP/1.1\r\n"
                                 b"Host: t\r\n\r\n")
                    await writer.drain()
                    header = await reader.readuntil(b"\r\n\r\n")
                    length = int([ln.split(b":")[1]
                                  for ln in header.split(b"\r\n")
                                  if ln.lower().startswith(
                                      b"content-length")][0])
                    body = await reader.readexactly(length)
                    assert b"ok" in body
            finally:
                writer.close()
                await writer.wait_closed()
            return True

        assert run(with_server(fast_config(), scenario))


# ----------------------------------------------------------------------
class TestBatching:
    def test_concurrent_requests_coalesce(self):
        async def scenario(server):
            port = server.bound_port
            bodies = [{"lat": 10.0 + i, "lon": 20.0 + i,
                       "horizon_s": 3600} for i in range(8)]
            responses = await asyncio.gather(*(
                request(port, "/v1/passes", body=b) for b in bodies))
            stats = server.metrics.endpoint("passes")
            return responses, stats.batches, stats.batched_requests

        config = fast_config(window_s=0.05)
        responses, batches, batched = run(with_server(config, scenario))
        assert all(status == 200 for status, _, _ in responses)
        assert batched == 8
        assert batches < 8  # at least some coalescing happened

    def test_unbatched_mode_still_serves(self):
        async def scenario(server):
            port = server.bound_port
            responses = await asyncio.gather(*(
                request(port, "/v1/passes",
                        body={"lat": 1.0 * i, "lon": 2.0 * i,
                              "horizon_s": 3600}) for i in range(4)))
            stats = server.metrics.endpoint("passes")
            return responses, stats.batch_histogram

        config = fast_config(max_batch=1)
        responses, histogram = run(with_server(config, scenario))
        assert all(status == 200 for status, _, _ in responses)
        assert set(histogram) == {1}  # every batch had size 1


# ----------------------------------------------------------------------
class TestBackpressure:
    K = 4
    N = 3

    def test_exactly_n_rejections_and_healthz_alive(self):
        """Queue capacity K, K+N simultaneous requests → exactly N 429s,
        zero server errors, /healthz answers during the overload."""
        config = fast_config(
            max_pending=self.K,
            window_s=0.5,          # hold the batch open: queue must fill
            max_batch=64,          # size trigger must not drain early
            retry_after_s=0.123)

        async def scenario(server):
            port = server.bound_port
            bodies = [{"lat": 5.0 + i * 0.5, "lon": 100.0 + i,
                       "horizon_s": 3600} for i in range(self.K + self.N)]
            tasks = [asyncio.create_task(
                request(port, "/v1/passes", body=b)) for b in bodies]
            await asyncio.sleep(0.1)  # mid-window: queue is full
            health = await request(port, "/healthz")
            responses = await asyncio.gather(*tasks)
            health_after = await request(port, "/healthz")
            stats = server.metrics.endpoint("passes")
            return responses, health, health_after, stats

        responses, health, health_after, stats = run(
            with_server(config, scenario))
        statuses = sorted(status for status, _, _ in responses)
        assert statuses.count(200) == self.K
        assert statuses.count(429) == self.N
        assert health[0] == 200 and health_after[0] == 200
        assert stats.server_errors == 0
        assert stats.rejected == self.N
        for status, headers, payload in responses:
            if status == 429:
                assert headers["retry-after"] == "0.123"
                assert payload["retry_after_s"] == 0.123

    def test_recovers_after_burst(self):
        config = fast_config(max_pending=2, window_s=0.2, max_batch=64)

        async def scenario(server):
            port = server.bound_port
            burst = await asyncio.gather(*(
                request(port, "/v1/passes",
                        body={"lat": 1.0 + i, "lon": 3.0 + i,
                              "horizon_s": 3600}) for i in range(5)))
            # After the burst drains, fresh requests succeed again.
            later = await request(port, "/v1/passes",
                                  body={"lat": 42.0, "lon": 42.0,
                                        "horizon_s": 3600})
            return burst, later

        burst, later = run(with_server(config, scenario))
        assert sorted(s for s, _, _ in burst).count(429) == 3
        assert later[0] == 200


# ----------------------------------------------------------------------
class TestDisconnects:
    def test_half_request_disconnect_keeps_server_alive(self):
        async def scenario(server):
            port = server.bound_port
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(b"POST /v1/passes HTTP/1.1\r\nContent-Le")
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            return await request(port, "/healthz")

        status, _, payload = run(with_server(fast_config(), scenario))
        assert status == 200 and payload["status"] == "ok"

    def test_disconnect_before_response_keeps_server_alive(self):
        """Client fires a query and vanishes while it's in the batcher."""
        async def scenario(server):
            port = server.bound_port
            body = json.dumps({**HK, "horizon_s": 3600}).encode()
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           port)
            writer.write(
                b"POST /v1/passes HTTP/1.1\r\nHost: t\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
                + body)
            await writer.drain()
            writer.close()          # gone before the batch flushes
            await writer.wait_closed()
            await asyncio.sleep(0.2)
            health = await request(port, "/healthz")
            still = await request(port, "/v1/passes",
                                  body={"lat": -5.0, "lon": 9.0,
                                        "horizon_s": 3600})
            stats = server.metrics.endpoint("passes")
            return health, still, stats.server_errors

        health, still, server_errors = run(
            with_server(fast_config(window_s=0.1), scenario))
        assert health[0] == 200
        assert still[0] == 200
        assert server_errors == 0

    def test_many_disconnects_under_load(self):
        async def scenario(server):
            port = server.bound_port

            async def rude_client(i: int):
                body = json.dumps({"lat": float(i), "lon": float(i),
                                   "horizon_s": 3600}).encode()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port)
                writer.write(
                    b"POST /v1/passes HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body)
                await writer.drain()
                writer.close()
                await writer.wait_closed()

            await asyncio.gather(*(rude_client(i) for i in range(10)))
            await asyncio.sleep(0.3)
            health = await request(port, "/healthz")
            stats = server.metrics.endpoint("passes")
            return health, stats.server_errors

        health, server_errors = run(
            with_server(fast_config(window_s=0.05), scenario))
        assert health[0] == 200
        assert server_errors == 0


# ----------------------------------------------------------------------
class TestSlowClients:
    class StuckWriter:
        """A writer whose drain never completes (zero-window client)."""

        def __init__(self) -> None:
            self.aborted = False
            self.written = b""

        @property
        def transport(self):
            return self

        def abort(self) -> None:
            self.aborted = True

        def write(self, data: bytes) -> None:
            self.written += data

        async def drain(self) -> None:
            await asyncio.sleep(3600.0)

    def test_write_timeout_aborts_stuck_client(self):
        server = ServingServer(fast_config(write_timeout_s=0.02))
        writer = self.StuckWriter()

        async def scenario():
            ok = await server._write(writer, b"payload")
            await server.close()
            return ok

        assert run(scenario()) is False
        assert writer.aborted
        assert server.metrics.write_timeouts == 1

    def test_fast_drain_is_untouched(self):
        server = ServingServer(fast_config(write_timeout_s=0.02))

        class QuickWriter(self.StuckWriter):
            async def drain(self) -> None:
                return None

        writer = QuickWriter()

        async def scenario():
            ok = await server._write(writer, b"payload")
            await server.close()
            return ok

        assert run(scenario()) is True
        assert not writer.aborted
        assert writer.written == b"payload"
        assert server.metrics.write_timeouts == 0
