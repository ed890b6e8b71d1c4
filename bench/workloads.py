"""The benchmark's workloads: seeded corpora, CLI settings and ledgers.

Why these three:

* ``source-large``: 80-function contracts (about 390 lines each) at
  ``--jobs 1 --format json``. The lexer, parser, semantic and detector
  layers do nearly all the work; start-up and rendering take about a
  tenth of a CLI run, so a frontend or detector gain shows cleanly.
* ``source-small-jobs2``: 1-function contracts (about 16 lines each) at
  ``--jobs 2 --format sarif``. Per-file fixed costs dominate: cold start,
  pool IPC and pickling, the outcome merge and SARIF rendering. A change
  that helps large files but adds per-file cost shows as a loss here.
* ``bytecode-dispatch``: dispatcher ladders of 20, 50, 100 and 200
  selectors, in equal shares, at ``--jobs 1 --format json``. The EVM
  frontend and the four bytecode detectors do the work; CFG, loop and
  selector costs scale differently with the ladder length.

Every workload also carries a few inputs of the other frontend (about 2% or
less of its analysis time), so that every layer's span is measured on every
workload; the per-layer split shows how small that share is.

Corpus sizes keep one CLI run to one or two seconds on a 2-CPU machine,
so that one benchmark run holds about twenty CLI runs to take the median of.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import gen_bytecode
import gen_source

SELECTOR_LADDERS = (20, 50, 100, 200)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: int
    format: str
    source_files: int
    functions: int
    bytecode_files: int
    selectors: tuple[int, ...]


WORKLOADS = {w.name: w for w in (
    Workload("source-large", jobs=1, format="json", source_files=20,
             functions=80, bytecode_files=2, selectors=(20,)),
    Workload("source-small-jobs2", jobs=2, format="sarif", source_files=1000,
             functions=1, bytecode_files=2, selectors=(20,)),
    Workload("bytecode-dispatch", jobs=1, format="json", source_files=2,
             functions=12, bytecode_files=40, selectors=SELECTOR_LADDERS),
)}


@dataclass
class InputFile:
    path: str
    kind: str  # "source" | "bytecode"
    lines: int
    size: int  # source bytes, or decoded bytecode bytes
    expected: set[tuple[str, int]]  # (detector id, line or pc)


def write_corpus(workload: Workload, seed: int, directory: str) -> list[InputFile]:
    """Write the workload's inputs for ``seed``; return them with their ledger."""
    os.makedirs(directory, exist_ok=True)
    files: list[InputFile] = []
    for index in range(workload.source_files):
        text, expected = gen_source.contract_file(seed * 100_000 + index,
                                                  workload.functions)
        path = os.path.join(directory, f"synth_{index:04d}.sol")
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        files.append(InputFile(path, "source", text.count("\n"), len(data),
                               expected))
    for index in range(workload.bytecode_files):
        selectors = workload.selectors[index % len(workload.selectors)]
        code, expected = gen_bytecode.dispatcher_contract(
            seed * 100_000 + 50_000 + index, selectors)
        path = os.path.join(directory, f"dispatch_{index:04d}.hex")
        with open(path, "w") as fh:
            fh.write("0x" + code.hex() + "\n")
        files.append(InputFile(path, "bytecode", 1, len(code), expected))
    return sorted(files, key=lambda f: f.path)
