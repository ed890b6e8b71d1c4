"""The stdlib HTTP session of `fetch` against a local server on 127.0.0.1."""

from __future__ import annotations

import json
import socket
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from soldefect.config import FetchConfig
from soldefect.fetch import FetchError, UrllibSession, fetch_contract

ADDRESS = "0x" + "ab" * 20

PAYLOADS = {
    "getsourcecode": {"status": "1",
                      "result": [{"SourceCode": "contract Fetched { }\n"}]},
    "eth_getCode": {"result": "0x6001600201"},
}


class Handler(BaseHTTPRequestHandler):
    """Routes on the path: /api answers like an explorer, the others fail."""

    queries: list[dict] = []

    def do_GET(self):
        url = urllib.parse.urlsplit(self.path)
        query = dict(urllib.parse.parse_qsl(url.query))
        self.queries.append(query)
        if url.path == "/api":
            self._reply(200, json.dumps(PAYLOADS[query["action"]]).encode())
        elif url.path == "/limited":
            self._reply(429, b"{}", {"Retry-After": "30"})
        elif url.path == "/broken":
            self._reply(500, b"internal error")
        else:
            self._reply(200, b"<html>not json</html>")

    def _reply(self, status, body, headers=None):
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def server(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    Handler.queries = []
    httpd = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True,
                              kwargs={"poll_interval": 0.05})
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()
    thread.join()


def _config(base, tmp_path) -> FetchConfig:
    return FetchConfig(api_base_url=base, cache_dir=str(tmp_path / "cache"))


def test_json_reply_fetches_source_and_code(server, tmp_path):
    result = fetch_contract(ADDRESS, _config(server + "/api", tmp_path))
    assert open(result.source_path).read() == "contract Fetched { }\n"
    assert open(result.bytecode_path).read().strip() == "0x6001600201"
    assert [q["action"] for q in Handler.queries] == ["getsourcecode",
                                                      "eth_getCode"]
    assert all(q["address"] == ADDRESS for q in Handler.queries)


def test_get_returns_status_headers_and_json(server):
    response = UrllibSession().get(server + "/api",
                                   params={"action": "eth_getCode"}, timeout=5)
    assert response.status_code == 200
    assert response.headers.get("Content-Length") == str(len(response.body))
    assert response.json() == PAYLOADS["eth_getCode"]


def test_rate_limit_carries_retry_after(server, tmp_path):
    with pytest.raises(FetchError, match="retry after 30") as err:
        fetch_contract(ADDRESS, _config(server + "/limited", tmp_path))
    assert err.value.retry_after == "30"


def test_server_error_names_the_status(server, tmp_path):
    with pytest.raises(FetchError, match="HTTP 500"):
        fetch_contract(ADDRESS, _config(server + "/broken", tmp_path))


def test_invalid_json_raises_fetch_error(server, tmp_path):
    with pytest.raises(FetchError, match="invalid JSON"):
        fetch_contract(ADDRESS, _config(server + "/html", tmp_path))


def test_refused_connection_raises_fetch_error(tmp_path, monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as probe:  # a port that nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(FetchError, match="fetch failed"):
        fetch_contract(ADDRESS, _config(f"http://127.0.0.1:{port}/api", tmp_path))


def test_base_url_query_string_is_kept(server, tmp_path):
    fetch_contract(ADDRESS, _config(server + "/api?chainid=1", tmp_path))
    assert [q.get("chainid") for q in Handler.queries] == ["1", "1"]
    assert Handler.queries[0]["module"] == "contract"


def test_base_url_without_scheme_raises_fetch_error(tmp_path):
    with pytest.raises(FetchError, match="fetch failed"):
        fetch_contract(ADDRESS, _config("scan.example/api", tmp_path))
