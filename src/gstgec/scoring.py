"""Span-level precision / recall / F0.5 scoring of corrections.

Hypothesis and reference sentences are each aligned to the shared source
with the same aligner and tie-break used for label extraction; adjacent
non-match operations merge into one edit span.  Counts are aggregated
over the corpus before computing the ratios (micro-aggregation).
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
    run: list[tuple] = []
    # a closing match ends the last run of non-match ops
    for op in [*align_ops(source, corrected), ("match", None, None)]:
        if op[0] != "match":
            run.append(op)
        elif run:
            starts = [i for kind, i, _ in run if kind != "ins"]
            if starts:
                start, end = min(starts), max(starts) + 1
            else:  # pure insertion run after anchor i
                start = end = run[0][1] + 1
            edits.add((start, end, " ".join(corrected[j] for kind, _, j in run
                                            if kind != "del")))
            run = []
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
