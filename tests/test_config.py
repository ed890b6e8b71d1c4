from __future__ import annotations

import pytest

from soldefect.config import (ConfigError, RunConfig, apply_config_values,
                              parse_config_text)


def test_parse_flat_keys():
    values = parse_config_text("""
# a comment
format = json
jobs = 4
strict.balance_neq = true
strict.tx_origin_all_uses = yes
deprecated.extra = block.blockhash, msg.gas
enable = reentrancy, nested-call
""")
    config = RunConfig()
    apply_config_values(config, values)
    assert config.format == "json"
    assert config.jobs == 4
    assert config.detectors.strict_balance_neq is True
    assert config.detectors.strict_tx_origin_all_uses is True
    assert config.detectors.deprecated_extra == ("block.blockhash", "msg.gas")
    assert config.detectors.enable == {"reentrancy", "nested-call"}


def test_section_headers_tolerated():
    values = parse_config_text("[soldefect]\nmode = bytecode\n")
    config = RunConfig()
    apply_config_values(config, values)
    assert config.mode == "bytecode"


def test_inline_comment_stripped():
    values = parse_config_text("jobs = 2  # two workers\n")
    config = RunConfig()
    apply_config_values(config, values)
    assert config.jobs == 2


@pytest.mark.parametrize("line,match", [
    ("format = yaml", "format"),
    ("mode = hybrid", "mode: unknown value"),
    ("min_impact = IP7", "min_impact"),
    ("jobs = many", "jobs"),
    ("jobs = -1", "jobs: expected 0 or more"),
    ("strict.balance_neq = maybe", "boolean"),
    ("no_such_key = 1", "unknown configuration key"),
    ("enable = bogus", "unknown detector id"),
])
def test_bad_values_rejected(line, match):
    config = RunConfig()
    with pytest.raises(ConfigError, match=match):
        apply_config_values(config, parse_config_text(line))


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_detector_config_enable_disable_logic():
    config = RunConfig()
    assert config.detectors.is_enabled("reentrancy")
    config.detectors.disable = {"reentrancy"}
    assert not config.detectors.is_enabled("reentrancy")
    config.detectors.disable = set()
    config.detectors.enable = {"nested-call"}
    assert not config.detectors.is_enabled("reentrancy")
    assert config.detectors.is_enabled("nested-call")


def test_api_key_comes_from_environment(monkeypatch):
    config = RunConfig()
    monkeypatch.delenv("SOLDEFECT_API_KEY", raising=False)
    assert config.fetch.api_key == ""
    monkeypatch.setenv("SOLDEFECT_API_KEY", "sekrit")
    assert config.fetch.api_key == "sekrit"
