"""The catalog (``soldefect.catalog``) is data, and it matches the code: the
entries run D01..D20, each has exactly one source reader, its frontends are
those whose reader is registered, and what the CLI and SARIF print of it is
pinned byte for byte."""

from __future__ import annotations

import ast
import glob
import hashlib
import json
import os

from soldefect.catalog import BY_CODE, BY_ID, REGISTRY, resolve_detector_id
from soldefect.cli import main
from soldefect.detectors import bytecode  # noqa: F401  registers its readers
from soldefect.detectors.base import _BYTECODE_DETECTORS, _SOURCE_DETECTORS
from soldefect.report import Report, render_sarif

DETECTORS = os.path.join(os.path.dirname(__file__), os.pardir, "src",
                         "soldefect", "detectors")

# sha256 of `soldefect detectors`, of its --format json output, and of the
# SARIF rules array as json.dumps(rules, indent=2) writes it: the catalog
# moved out of the detector modules without changing a byte of either
CATALOG_TEXT = "3617b076176ee0b0b9cc4fd3629071920ca852dfa223825611a6ea66cdbf5d4e"
CATALOG_JSON = "f795c0c9955994af97102e77299f25c64560706b51bd870295be21871576b55b"
SARIF_RULES = "e0f7adc790172e4d6b8d2bbf63e166a56043215624f1218d873f2fa750a28d79"


def _registered() -> dict[str, list[str]]:
    """The slug of each ``@register`` and ``@register_bytecode`` decorator in
    the detector modules, by decorator, in source order."""
    found: dict[str, list[str]] = {"register": [], "register_bytecode": []}
    for path in sorted(glob.glob(os.path.join(DETECTORS, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                for d in node.decorator_list:
                    if isinstance(d, ast.Call) and getattr(d.func, "id", None) in found:
                        found[d.func.id].append(ast.literal_eval(d.args[0]))
    return found


def test_the_entries_run_d01_to_d20_in_order():
    assert [d.code for d in REGISTRY] == [f"D{n:02}" for n in range(1, 21)]
    assert len(BY_ID) == len(BY_CODE) == 20
    for d in REGISTRY:
        assert resolve_detector_id(d.id) == resolve_detector_id(d.code) == d.id
    assert resolve_detector_id("D21") is None


def test_each_entry_has_exactly_one_source_reader():
    registered = _registered()
    assert sorted(registered["register"]) == sorted(BY_ID)
    assert len(set(registered["register_bytecode"])) == len(
        registered["register_bytecode"])
    assert set(registered["register_bytecode"]) <= set(BY_ID)
    assert set(_SOURCE_DETECTORS) == set(BY_ID)


def test_frontends_are_those_with_a_registered_reader():
    for d in REGISTRY:
        readers = {"source": _SOURCE_DETECTORS, "bytecode": _BYTECODE_DETECTORS}
        assert d.frontends == {name for name, registry in readers.items()
                               if d.id in registry}, d.code


def test_the_printed_catalog_is_unchanged(capsys):
    digests = []
    for args in (["detectors"], ["detectors", "--format", "json"]):
        assert main(args) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert digests == [CATALOG_TEXT, CATALOG_JSON]
    rules = json.loads(render_sarif(Report()))["runs"][0]["tool"]["driver"]["rules"]
    assert [rule["id"] for rule in rules] == [d.id for d in REGISTRY]
    assert hashlib.sha256(json.dumps(rules, indent=2).encode()).hexdigest() \
        == SARIF_RULES
