"""Span-level precision / recall / F0.5 scoring of corrections.

Hypothesis and reference sentences are each aligned to the shared source
with the same aligner and tie-break used for label extraction.  Its ops
are the edits alone, and edits with no kept token between them (one op
starts where the last one ended) merge into one edit span.  Counts are
aggregated over the corpus before computing the ratios
(micro-aggregation).
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import TokenSeq
from .labels import align_ops

# An edit is (start, end, replacement): replace source[start:end] with the
# space-joined replacement tokens (an insertion has start == end).
Edit = tuple[int, int, str]


def extract_edits(source: TokenSeq, corrected: TokenSeq) -> set[Edit]:
    edits: set[Edit] = set()
    start = end = -1  # the open span is source[start:end]; none yet
    words: list[str] = []
    for kind, i, j in align_ops(source, corrected):
        # a sub or del at i starts at i, an insertion after anchor i at
        # i + 1; each ends at i + 1
        at = i + 1 if kind == "ins" else i
        if at != end:  # a kept token lies between: close the open span
            if end >= 0:
                edits.add((start, end, " ".join(words)))
            start, words = at, []
        if kind != "del":
            words.append(corrected[j])
        end = i + 1
    if end >= 0:
        edits.add((start, end, " ".join(words)))
    return edits


@dataclass
class ScoreReport:
    tp: int
    fp: int
    fn: int
    precision: float  # percent
    recall: float
    f_half: float

    def text(self) -> str:
        return (f"P {self.precision:.1f} / R {self.recall:.1f} / "
                f"F0.5 {self.f_half:.1f}")

    def csv_row(self) -> str:
        return (f"{self.tp},{self.fp},{self.fn},{self.precision:.4f},"
                f"{self.recall:.4f},{self.f_half:.4f}")


def f_beta(p: float, r: float) -> float:
    """F0.5, the weighted F-measure of GEC, on the percent scale."""
    if p == 0 and r == 0:
        return 0.0
    b2 = 0.25  # beta = 0.5, squared
    return (1 + b2) * p * r / (b2 * p + r)


def report_from_counts(tp: int, fp: int, fn: int) -> ScoreReport:
    precision = 100.0 * tp / (tp + fp) if tp + fp else 100.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 100.0
    return ScoreReport(tp, fp, fn, precision, recall,
                       f_beta(precision, recall))


def score_corpus(sources, hypotheses, references) -> ScoreReport:
    """Micro-aggregated edit overlap of hypotheses against single gold
    references."""
    if not (len(sources) == len(hypotheses) == len(references)):
        raise ValueError("sources, hypotheses, references must be equal "
                         "length")
    tp = fp = fn = 0
    for src, hyp, ref in zip(sources, hypotheses, references):
        hyp_edits = extract_edits(src, hyp)
        gold_edits = extract_edits(src, ref)
        tp += len(hyp_edits & gold_edits)
        fp += len(hyp_edits - gold_edits)
        fn += len(gold_edits - hyp_edits)
    return report_from_counts(tp, fp, fn)
