"""Labeled corpora: manifest loading and precision/recall scoring.

Manifest format, one entry per line:

    relative/path.sol:LINE:detector-id
    relative/path.sol:*:detector-id     # any line in that file
    # comment

Line-exact matching is the default; `*` (or wildcard scoring) matches any
number of findings of that detector in that file, which suits datasets
labeled per contract rather than per line.
"""

from __future__ import annotations

import os

from .detectors import REGISTRY, resolve_detector_id
from .records import field, record
from .report import Report


class ManifestError(ValueError):
    pass


@record(frozen=True)
class ManifestEntry:
    path: str
    line: int | None  # None = wildcard
    detector_id: str


@record
class CorpusManifest:
    root: str
    entries: list[ManifestEntry] = field(default_factory=list)


def load_manifest(path: str, root: str | None = None) -> CorpusManifest:
    root = root if root is not None else (os.path.dirname(path) or ".")
    manifest = CorpusManifest(root)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.rsplit(":", 2)
            if len(parts) != 3:
                raise ManifestError(
                    f"{path}:{lineno}: expected path:line:detector-id")
            rel_path, line_field, raw_id = (p.strip() for p in parts)
            detector_id = resolve_detector_id(raw_id)
            if detector_id is None:
                raise ManifestError(
                    f"{path}:{lineno}: unknown detector id {raw_id!r}")
            if line_field == "*":
                line_no: int | None = None
            else:
                try:
                    line_no = int(line_field)
                except ValueError:
                    raise ManifestError(
                        f"{path}:{lineno}: line must be an integer or '*', "
                        f"got {line_field!r}") from None
            if not os.path.exists(os.path.join(root, rel_path)):
                raise ManifestError(
                    f"{path}:{lineno}: no such corpus file {rel_path!r}")
            manifest.entries.append(ManifestEntry(rel_path.replace(os.sep, "/"),
                                                  line_no, detector_id))
    return manifest


# ---------------------------------------------------------------------------
# Scoring


@record
class DetectorScore:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0


@record
class ScoreCard:
    per_detector: dict[str, DetectorScore] = field(default_factory=dict)
    files_total: int = 0
    files_with: dict[str, int] = field(default_factory=dict)  # detector -> count

    def _of(self, detector_id: str) -> DetectorScore:
        return self.per_detector.setdefault(detector_id, DetectorScore())

    @property
    def micro(self) -> DetectorScore:
        total = DetectorScore()
        for score in self.per_detector.values():
            total.tp += score.tp
            total.fp += score.fp
            total.fn += score.fn
        return total

    @property
    def perfect(self) -> bool:
        micro = self.micro
        return micro.precision == 1.0 and micro.recall == 1.0

    def distribution(self) -> dict[str, str]:
        """Per-detector contract counts in `count (percent)` form."""
        out: dict[str, str] = {}
        total = self.files_total or 1
        for desc in REGISTRY:
            count = self.files_with.get(desc.id, 0)
            out[desc.id] = f"{count} ({100.0 * count / total:.2f}%)"
        return out


def relativize(path: str, root: str) -> str:
    abs_path = os.path.abspath(path)
    abs_root = os.path.abspath(root)
    if abs_path == abs_root or abs_path.startswith(abs_root + os.sep):
        return os.path.relpath(abs_path, abs_root).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def score(report: Report, manifest: CorpusManifest,
          force_wildcard: bool = False) -> ScoreCard:
    """Match findings against expected entries.

    A finding matches an entry iff path and detector are equal and the
    line is equal or the entry is a wildcard. Unmatched findings are
    false positives, unmatched entries false negatives.
    """
    card = ScoreCard(files_total=len(report.inputs))

    exact: dict[tuple[str, int, str], bool] = {}
    wildcard: dict[tuple[str, str], bool] = {}
    for entry in manifest.entries:
        if entry.line is None or force_wildcard:
            wildcard[(entry.path, entry.detector_id)] = False
        else:
            exact[(entry.path, entry.line, entry.detector_id)] = False

    seen_files: dict[str, set[str]] = {}
    for finding in report.findings:
        rel = relativize(finding.file, manifest.root)
        seen_files.setdefault(finding.detector, set()).add(rel)
        position = finding.line if finding.line is not None else finding.pc
        exact_key = (rel, position, finding.detector)
        wild_key = (rel, finding.detector)
        if exact_key in exact and not exact[exact_key]:
            exact[exact_key] = True
            card._of(finding.detector).tp += 1
        elif wild_key in wildcard:
            wildcard[wild_key] = True
            card._of(finding.detector).tp += 1
        else:
            card._of(finding.detector).fp += 1

    for (path, line, detector_id), matched in exact.items():
        if not matched:
            card._of(detector_id).fn += 1
    for (path, detector_id), matched in wildcard.items():
        if not matched:
            card._of(detector_id).fn += 1

    for detector_id, files in seen_files.items():
        card.files_with[detector_id] = len(files)
    return card


def render_scorecard_text(card: ScoreCard) -> str:
    lines = [f"{'detector':34} {'TP':>4} {'FP':>4} {'FN':>4} "
             f"{'precision':>9} {'recall':>7}  distribution"]
    distribution = card.distribution()
    for desc in REGISTRY:
        s = card.per_detector.get(desc.id, DetectorScore())
        lines.append(f"{desc.id:34} {s.tp:>4} {s.fp:>4} {s.fn:>4} "
                     f"{s.precision:>9.2f} {s.recall:>7.2f}  "
                     f"{distribution[desc.id]}")
    micro = card.micro
    lines.append(f"{'overall (micro)':34} {micro.tp:>4} {micro.fp:>4} "
                 f"{micro.fn:>4} {micro.precision:>9.2f} {micro.recall:>7.2f}")
    return "\n".join(lines) + "\n"


def _score_obj(score: DetectorScore) -> dict:
    return {"tp": score.tp, "fp": score.fp, "fn": score.fn,
            "precision": score.precision, "recall": score.recall}


def scorecard_to_obj(card: ScoreCard) -> dict:
    distribution = card.distribution()
    return {
        "per_detector": {
            desc.id: {**_score_obj(card.per_detector.get(desc.id, DetectorScore())),
                      "distribution": distribution[desc.id]}
            for desc in REGISTRY
        },
        "overall": _score_obj(card.micro),
        "files_total": card.files_total,
    }
