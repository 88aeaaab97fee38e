"""Shared daemon fixtures: an in-process ``ServiceServer`` per test."""

from __future__ import annotations

import threading

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ServiceServer
from repro.util.errors import ServiceError


@pytest.fixture()
def make_daemon(tmp_path):
    """Factory: boot an in-process daemon and hand back (server, client).

    Every daemon gets an isolated tune cache under the test's tmp dir
    and is drained and closed at teardown regardless of test outcome.
    """
    started: list[tuple[ServiceServer, threading.Thread, ServiceClient]] = []

    def boot(**kwargs) -> tuple[ServiceServer, ServiceClient]:
        kwargs.setdefault("tune_dir", str(tmp_path / f"tune{len(started)}"))
        server = ServiceServer(port=0, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(server.url, timeout=60.0)
        started.append((server, thread, client))
        client.wait_ready(timeout=10.0)
        return server, client

    yield boot

    for server, thread, client in started:
        client.close()
        try:
            with ServiceClient(server.url, timeout=5.0) as closer:
                closer.shutdown()
        except ServiceError:
            server.request_shutdown()
        thread.join(10)
        server.close()


@pytest.fixture()
def daemon(make_daemon):
    return make_daemon()
