"""Iterative correction with a keep bias and a sentence-level gate.

Each round the model predicts one label per position; a fixed confidence
is added to the keep label before the argmax, and another round runs
only while the summed per-token error probability stays above the
sentence threshold.  Iteration is bounded and also stops at the first
round that changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import TokenSeq
from .errors import ConfigError
from .labels import Kind, LabelSequence, apply_labels, format_label
from .model import GecModel
from .sampling import keep_biased_ids


def check_gate(gamma: float, beta: float) -> None:
    """Reject a negative or non-finite sentence gate or keep bias."""
    # NaN fails the comparison: a NaN gate never stops a round
    for name, value in (("gamma", gamma), ("beta", beta)):
        if not 0 <= value < np.inf:
            raise ConfigError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class InferenceConfig:
    gamma: float = 0.5
    beta: float = 0.0
    max_iters: int = 5

    def __post_init__(self):
        check_gate(self.gamma, self.beta)
        if self.max_iters < 1:
            raise ConfigError("max_iters must be at least 1")


@dataclass
class CorrectionRound:
    tokens: TokenSeq
    labels: LabelSequence
    score: float
    applied: bool


@dataclass
class CorrectionTrace:
    rounds: list[CorrectionRound] = field(default_factory=list)
    final: TokenSeq = ()

    def report(self) -> str:
        """Line-oriented text report for CLI --trace output."""
        lines = []
        for i, rnd in enumerate(self.rounds, start=1):
            labels = " ".join(format_label(lab) for lab in rnd.labels)
            lines.append(f"round {i} score={rnd.score:.4f} "
                         f"applied={'yes' if rnd.applied else 'no'} "
                         f"labels={labels} sentence={' '.join(rnd.tokens)}")
        lines.append(f"final {' '.join(self.final)}")
        return "\n".join(lines)


def sentence_error_score(ged: np.ndarray) -> float:
    """Sum of error-class probability over non-sentinel positions."""
    return float(ged[1:, 1].sum())


def correct(model: GecModel, sentence: TokenSeq,
            config: InferenceConfig) -> CorrectionTrace:
    """Iteratively correct one tokenized sentence."""
    trace = CorrectionTrace()
    cur = sentence
    for _ in range(config.max_iters):
        ged, gel = model.forward_tokens(cur)
        score = sentence_error_score(ged)
        labels = model.label_vocab.decode(
            keep_biased_ids(gel, config.beta).tolist())
        any_edit = any(lab.kind is not Kind.KEP for lab in labels)
        if score <= config.gamma or not any_edit:
            trace.rounds.append(CorrectionRound(cur, labels, score, False))
            break
        new = apply_labels(cur, labels)
        trace.rounds.append(CorrectionRound(cur, labels, score, True))
        if new == cur:  # every predicted edit was an inapplicable no-op
            break
        cur = new
    trace.final = cur
    return trace
