"""Run configuration: detector toggles, strictness flags, CLI run options,
and the flat INI-style config file loader.

Config file keys (flags override them; the API key never lives in a file,
only in the SOLDEFECT_API_KEY environment variable):

    format = text | json | sarif             (score: text | json)
    mode = auto | source | bytecode
    min_impact = IP1..IP5                    (analyze only)
    jobs = <int, 0 or more>
    enable = detector-id, detector-id, ...   (slugs or D-codes)
    disable = detector-id, ...
    strict.tx_origin_all_uses = true|false
    strict.balance_neq = true|false
    deprecated.extra = name, name, ...
    fetch.api_base_url = https://...
    fetch.cache_dir = path
"""

from __future__ import annotations

import os

from .records import field, record

FORMATS = ("text", "json", "sarif")
MODES = ("auto", "source", "bytecode")


class ConfigError(ValueError):
    pass


@record
class DetectorConfig:
    enable: set[str] | None = None  # None = all registered
    disable: set[str] = field(default_factory=set)
    strict_tx_origin_all_uses: bool = False
    strict_balance_neq: bool = False
    deprecated_extra: tuple[str, ...] = ()

    def is_enabled(self, detector_id: str) -> bool:
        if detector_id in self.disable:
            return False
        if self.enable is not None:
            return detector_id in self.enable
        return True


@record
class FetchConfig:
    api_base_url: str = ""
    cache_dir: str = ""

    @property
    def api_key(self) -> str:
        return os.environ.get("SOLDEFECT_API_KEY", "")


@record
class RunConfig:
    mode: str = "auto"  # auto | source | bytecode
    format: str = "text"
    min_impact: str = "IP5"
    output: str | None = None
    jobs: int = 0  # 0 = number of CPUs
    detectors: DetectorConfig = field(default_factory=DetectorConfig)
    fetch: FetchConfig = field(default_factory=FetchConfig)


_BOOL_VALUES = {"true": True, "1": True, "yes": True, "on": True,
                "false": False, "0": False, "no": False, "off": False}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL_VALUES[value.strip().lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {value!r}") from None


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_jobs(value: str | int) -> int:
    """A worker count from a flag or the config: 0 (one per CPU) or more."""
    try:
        jobs = int(value)
    except ValueError:
        raise ConfigError(f"jobs: expected an integer, got {value!r}") from None
    if jobs < 0:
        raise ConfigError(f"jobs: expected 0 or more, got {jobs}")
    return jobs


def parse_detector_ids(value: str) -> set[str]:
    """Comma-separated detector slugs or D-codes, resolved to slugs."""
    from .detectors import resolve_detector_id
    ids = set()
    for name in _parse_list(value):
        resolved = resolve_detector_id(name)
        if resolved is None:
            raise ConfigError(f"unknown detector id {name!r}")
        ids.add(resolved)
    return ids


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; `#` and `;` start comments."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue  # tolerate section headers
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        values[key.strip()] = value.split("#", 1)[0].strip()
    return values


def apply_config_values(config: RunConfig, values: dict[str, str]) -> None:
    from .report import IMPACT_LEVELS
    for key, value in values.items():
        if key == "format":
            if value not in FORMATS:
                raise ConfigError(f"format: unknown value {value!r}")
            config.format = value
        elif key == "mode":
            if value not in MODES:
                raise ConfigError(f"mode: unknown value {value!r}")
            config.mode = value
        elif key == "min_impact":
            if value not in IMPACT_LEVELS:
                raise ConfigError(f"min_impact: unknown level {value!r}")
            config.min_impact = value
        elif key == "jobs":
            config.jobs = parse_jobs(value)
        elif key == "enable":
            config.detectors.enable = parse_detector_ids(value)
        elif key == "disable":
            config.detectors.disable = parse_detector_ids(value)
        elif key == "strict.tx_origin_all_uses":
            config.detectors.strict_tx_origin_all_uses = _parse_bool(value, key)
        elif key == "strict.balance_neq":
            config.detectors.strict_balance_neq = _parse_bool(value, key)
        elif key == "deprecated.extra":
            config.detectors.deprecated_extra = tuple(_parse_list(value))
        elif key == "fetch.api_base_url":
            config.fetch.api_base_url = value
        elif key == "fetch.cache_dir":
            config.fetch.cache_dir = value
        else:
            raise ConfigError(f"unknown configuration key {key!r}")


def load_config_file(config: RunConfig, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        apply_config_values(config, parse_config_text(fh.read()))
