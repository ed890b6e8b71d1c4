"""Fetch contract source/bytecode from an explorer-style JSON API.

The API shape mirrors the common block-explorer endpoints:

    GET {base}?module=contract&action=getsourcecode&address=0x...&apikey=K
    GET {base}?module=proxy&action=eth_getCode&address=0x...&tag=latest&apikey=K

Results are cached under one directory per address; a cached address is
never re-fetched. The API key comes from the environment only
(SOLDEFECT_API_KEY); nothing secret is written to disk.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import urllib.error
import urllib.parse
import urllib.request

from .config import FetchConfig
from .records import field, record

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")

DEFAULT_CACHE_DIR = os.path.join(".soldefect", "cache")


class AddressFormatError(ValueError):
    """Malformed address argument (usage error, exit code 2)."""


class FetchError(RuntimeError):
    """Network/API failure (exit code 3)."""

    def __init__(self, message: str, retry_after: str | None = None):
        super().__init__(message)
        self.retry_after = retry_after


@record
class FetchResult:
    address: str
    source_path: str | None = None
    bytecode_path: str | None = None
    from_cache: bool = False
    notices: list[str] = field(default_factory=list)

    @property
    def paths(self) -> list[str]:
        return [p for p in (self.source_path, self.bytecode_path) if p]


@record
class HttpResponse:
    status_code: int
    headers: object  # a mapping with .get(name, default)
    body: bytes = b""

    def json(self):
        return json.loads(self.body)


class UrllibSession:
    """GET with query parameters over ``urllib.request``.

    Only the part of a ``requests`` session that ``fetch_contract`` uses.
    An HTTP error status comes back as a response; a transport failure
    raises ``FetchError``.
    """

    def get(self, url: str, params: dict | None = None,
            timeout: float | None = None) -> HttpResponse:
        if params:
            sep = "&" if urllib.parse.urlsplit(url).query else "?"
            url += sep + urllib.parse.urlencode(params)
        try:
            with urllib.request.urlopen(url, timeout=timeout) as resp:
                return HttpResponse(resp.status, resp.headers, resp.read())
        except urllib.error.HTTPError as exc:
            exc.close()
            return HttpResponse(exc.code, exc.headers)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise FetchError(f"fetch failed: {exc}") from exc


def normalize_address(address: str) -> str:
    if not _ADDRESS_RE.match(address):
        raise AddressFormatError(
            f"address must be 0x followed by 40 hex digits, got {address!r}")
    return address.lower()


def fetch_contract(address: str, config: FetchConfig,
                   session=None) -> FetchResult:
    """Download (or reuse cached) source and runtime bytecode for an address."""
    address = normalize_address(address)
    if not config.api_base_url:
        raise FetchError("no fetch.api_base_url configured")
    cache_dir = os.path.join(config.cache_dir or DEFAULT_CACHE_DIR, address)
    meta_path = os.path.join(cache_dir, "meta.json")
    if os.path.exists(meta_path):
        with open(meta_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        result = FetchResult(address, meta.get("source_path"),
                             meta.get("bytecode_path"), from_cache=True,
                             notices=meta.get("notices", []))
        return result

    session = session or UrllibSession()
    result = FetchResult(address)

    # both replies are checked before anything is written to the cache
    source_text = _extract_source(_api_get(session, config, {
        "module": "contract", "action": "getsourcecode", "address": address,
    }))
    code_hex = _api_get(session, config, {
        "module": "proxy", "action": "eth_getCode", "address": address,
        "tag": "latest",
    }).get("result")
    if not isinstance(code_hex, str) or not re.fullmatch(r"0x[0-9a-fA-F]*", code_hex):
        raise FetchError("API returned no 0x-prefixed hex bytecode")

    os.makedirs(cache_dir, exist_ok=True)
    if source_text:
        result.source_path = os.path.join(cache_dir, "source.sol")
        with open(result.source_path, "w", encoding="utf-8") as fh:
            fh.write(source_text)
    else:
        result.notices.append(
            f"{address}: contract source is not verified; bytecode only")
    if code_hex != "0x":
        result.bytecode_path = os.path.join(cache_dir, "runtime.hex")
        with open(result.bytecode_path, "w", encoding="ascii") as fh:
            fh.write(code_hex + "\n")

    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({"source_path": result.source_path,
                   "bytecode_path": result.bytecode_path,
                   "notices": result.notices}, fh, indent=2)
    return result


def _api_get(session, config: FetchConfig, params: dict) -> dict:
    if config.api_key:
        params = dict(params, apikey=config.api_key)
    response = session.get(config.api_base_url, params=params, timeout=30)
    if response.status_code == 429:
        retry = response.headers.get("Retry-After", "a while")
        raise FetchError(f"rate limited by the API; retry after {retry}",
                         retry_after=retry)
    if response.status_code != 200:
        raise FetchError(f"API returned HTTP {response.status_code}")
    try:
        payload = response.json()
    except ValueError as exc:
        raise FetchError(f"API returned invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FetchError("API returned JSON that is not an object")
    error = payload.get("error")  # JSON-RPC's error form; explorers use status 0
    if error is not None or payload.get("status") == "0":
        reason = error.get("message") if isinstance(error, dict) else error
        raise FetchError(f"API returned an error: {reason or payload.get('result')}")
    return payload


def _extract_source(payload: dict) -> str | None:
    """The verified source, or None for an unverified contract."""
    result = payload.get("result")
    entry = result[0] if isinstance(result, list) and result else None
    source = entry.get("SourceCode", "") if isinstance(entry, dict) else None
    if not isinstance(source, str):
        raise FetchError("API returned no source code entry")
    return source or None
