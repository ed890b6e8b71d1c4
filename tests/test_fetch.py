"""Fetcher tests against recorded HTTP fixtures (no live network)."""

from __future__ import annotations

import os

import pytest

from soldefect.config import FetchConfig
from soldefect.fetch import (AddressFormatError, FetchError, fetch_contract,
                             normalize_address)

ADDRESS = "0x" + "ab" * 20

VERIFIED_SOURCE = "pragma solidity 0.4.25;\ncontract Fetched { }\n"

FIXTURES = {
    ("contract", "getsourcecode"): {
        "status": "1",
        "result": [{"SourceCode": VERIFIED_SOURCE, "ContractName": "Fetched"}],
    },
    ("proxy", "eth_getCode"): {"result": "0x6001600201"},
}


class FakeResponse:
    def __init__(self, payload, status_code=200, headers=None):
        self._payload = payload
        self.status_code = status_code
        self.headers = headers or {}

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    """Replays recorded fixtures and counts requests."""

    def __init__(self, fixtures=None, status_code=200, headers=None):
        self.fixtures = dict(FIXTURES if fixtures is None else fixtures)
        self.calls = []
        self.status_code = status_code
        self.headers = headers or {}

    def get(self, url, params=None, timeout=None):
        self.calls.append((url, dict(params or {})))
        if self.status_code != 200:
            return FakeResponse({}, self.status_code, self.headers)
        key = (params["module"], params["action"])
        return FakeResponse(self.fixtures[key])


def _config(tmp_path) -> FetchConfig:
    return FetchConfig(api_base_url="https://scan.example/api",
                       cache_dir=str(tmp_path / "cache"))


def test_verified_contract_fetches_source_and_code(tmp_path):
    session = FakeSession()
    result = fetch_contract(ADDRESS, _config(tmp_path), session)
    assert result.source_path and result.bytecode_path
    assert open(result.source_path).read() == VERIFIED_SOURCE
    assert open(result.bytecode_path).read().strip() == "0x6001600201"
    assert not result.from_cache
    assert len(session.calls) == 2


def test_cached_address_makes_no_network_calls(tmp_path):
    config = _config(tmp_path)
    first = fetch_contract(ADDRESS, config, FakeSession())
    session = FakeSession()
    second = fetch_contract(ADDRESS, config, session)
    assert session.calls == []
    assert second.from_cache
    assert second.source_path == first.source_path
    assert second.bytecode_path == first.bytecode_path


def test_unverified_contract_bytecode_only_with_notice(tmp_path):
    fixtures = dict(FIXTURES)
    fixtures[("contract", "getsourcecode")] = {"status": "1",
                                               "result": [{"SourceCode": ""}]}
    result = fetch_contract(ADDRESS, _config(tmp_path), FakeSession(fixtures))
    assert result.source_path is None
    assert result.bytecode_path and result.bytecode_path.endswith(".hex")
    assert any("not verified" in notice for notice in result.notices)


def test_malformed_address_is_usage_error(tmp_path):
    with pytest.raises(AddressFormatError):
        fetch_contract("0x" + "f" * 39, _config(tmp_path))


def test_normalize_address_lowercases():
    assert normalize_address("0x" + "AB" * 20) == ADDRESS


def test_http_failure_raises_fetch_error(tmp_path):
    session = FakeSession(status_code=500)
    with pytest.raises(FetchError, match="HTTP 500"):
        fetch_contract(ADDRESS, _config(tmp_path), session)


def test_rate_limit_carries_retry_after(tmp_path):
    session = FakeSession(status_code=429, headers={"Retry-After": "30"})
    with pytest.raises(FetchError, match="retry after 30") as err:
        fetch_contract(ADDRESS, _config(tmp_path), session)
    assert err.value.retry_after == "30"


def test_missing_base_url_raises(tmp_path):
    with pytest.raises(FetchError, match="api_base_url"):
        fetch_contract(ADDRESS, FetchConfig(cache_dir=str(tmp_path)))


def test_api_key_sent_only_when_configured(tmp_path, monkeypatch):
    monkeypatch.setenv("SOLDEFECT_API_KEY", "sekrit")
    session = FakeSession()
    fetch_contract(ADDRESS, _config(tmp_path), session)
    assert all(params.get("apikey") == "sekrit" for _url, params in session.calls)
    # and the key never lands in the cache
    cache_root = str(tmp_path / "cache")
    for root, _dirs, files in os.walk(cache_root):
        for name in files:
            assert "sekrit" not in open(os.path.join(root, name)).read()


# -- API error payloads: nothing is cached, and the CLI exits 3 ---------------

RATE_LIMITED = {"status": "0", "message": "NOTOK",
                "result": "Max rate limit reached, please use API Key"}


@pytest.mark.parametrize("action, payload, reason", [
    (("contract", "getsourcecode"), RATE_LIMITED, "Max rate limit reached"),
    (("proxy", "eth_getCode"), RATE_LIMITED, "Max rate limit reached"),
    (("proxy", "eth_getCode"),
     {"jsonrpc": "2.0", "id": 1, "error": {"code": -32602, "message": "bad address"}},
     "bad address"),
    (("contract", "getsourcecode"), [{"SourceCode": VERIFIED_SOURCE}], "not an object"),
    (("contract", "getsourcecode"), {"status": "1", "result": [5]}, "no source code"),
    (("contract", "getsourcecode"), {"status": "1", "result": "contract X { }"},
     "no source code"),
    (("contract", "getsourcecode"), {"status": "1", "result": []}, "no source code"),
    (("contract", "getsourcecode"), {"status": "1", "result": [{"SourceCode": 7}]},
     "no source code"),
    (("proxy", "eth_getCode"), {"result": "6001600201"}, "hex bytecode"),
    (("proxy", "eth_getCode"), {"result": "0xzz"}, "hex bytecode"),
    (("proxy", "eth_getCode"), {"result": ["0x60"]}, "hex bytecode"),
    (("proxy", "eth_getCode"), {}, "hex bytecode"),
])
def test_bad_payload_raises_and_caches_nothing(tmp_path, action, payload, reason):
    fixtures = dict(FIXTURES)
    fixtures[action] = payload
    with pytest.raises(FetchError, match=reason):
        fetch_contract(ADDRESS, _config(tmp_path), FakeSession(fixtures))
    assert not (tmp_path / "cache").exists()
    # the address is fetched again, not served from a cache of the error
    result = fetch_contract(ADDRESS, _config(tmp_path), FakeSession())
    assert not result.from_cache
    assert open(result.source_path).read() == VERIFIED_SOURCE


def test_no_code_at_address_writes_no_bytecode(tmp_path):
    fixtures = dict(FIXTURES)
    fixtures[("proxy", "eth_getCode")] = {"jsonrpc": "2.0", "id": 1, "result": "0x"}
    result = fetch_contract(ADDRESS, _config(tmp_path), FakeSession(fixtures))
    assert result.bytecode_path is None
    assert open(result.source_path).read() == VERIFIED_SOURCE


def test_cli_fetch_of_an_error_payload_exits_3(tmp_path, monkeypatch, capsys):
    from soldefect import cli, fetch
    fixtures = {key: RATE_LIMITED for key in FIXTURES}
    monkeypatch.setattr(fetch, "UrllibSession", lambda: FakeSession(fixtures))
    code = cli.main(["fetch", ADDRESS, "--api-base", "https://scan.example/api",
                     "--cache-dir", str(tmp_path / "cache")])
    assert code == 3
    assert "Max rate limit reached" in capsys.readouterr().err
    assert not (tmp_path / "cache").exists()


def test_cli_fetch_that_cannot_write_its_cache_exits_3(tmp_path, monkeypatch):
    from soldefect import cli, fetch
    monkeypatch.setattr(fetch, "UrllibSession", FakeSession)
    (tmp_path / "cache").write_text("a file where the cache directory goes")
    code = cli.main(["fetch", ADDRESS, "--api-base", "https://scan.example/api",
                     "--cache-dir", str(tmp_path / "cache")])
    assert code == 3
