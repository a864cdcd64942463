"""Staged training with per-stage self-synthesis of errorful data.

A run consists of N stages of M epochs each.  Stage 1 trains on the
genuine pairs alone.  Every later stage first lets the model the
previous stage left behind build a fresh synthetic set, then trains on
the genuine pairs plus that set: for every genuine source whose summed
error probability clears the sentence gate, one corrective label per
position is sampled from the keep-biased labeling distribution and
applied, manufacturing a new errorful variant of that sentence.  No set
is built after the last stage, since nothing would train on it.
Raising the keep confidence lowers the error rate of the synthesized
data; raising the gate shrinks how much of the corpus is synthesized
from.

Synthesis samples a whole sentence at once: the label rows are masked
with the label vocabulary's precomputed kind masks, and one
``sampling.sample_ids`` call draws a label id per row under the
configured mode and keep bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import SentencePair, TokenSeq, TokenVocab
from .errors import ConfigError, GstError, NonFiniteGradientError
from .inference import InferenceConfig, check_gate, correct, \
    sentence_error_score
from .labels import LabelSequence, LabelVocab, apply_labels, \
    extract_labels, measure_error_rate
from .model import AdamState, GecModel, adam_step, loss_and_grads, \
    loss_only
from .sampling import SamplingConfig, sample_ids
from .scoring import ScoreReport, score_corpus

PAIRINGS = ("realign", "literal")  # synthetic labels: re-extracted, or gold


@dataclass(frozen=True)
class TrainingConfig:
    stages: int = 1
    epochs_per_stage: int = 1
    gamma: float = 0.5
    beta: float = 0.0
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    synthesis_pairing: str = PAIRINGS[0]
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.stages < 1 or self.epochs_per_stage < 1:
            raise ConfigError("stages and epochs_per_stage must be >= 1")
        if self.synthesis_pairing not in PAIRINGS:
            raise ConfigError("synthesis_pairing must be "
                              + " or ".join(PAIRINGS))
        check_gate(self.gamma, self.beta)
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        # a zero rate is a valid no-update run; NaN fails the comparison
        if not 0 <= self.lr < np.inf:
            raise ConfigError("lr must be finite and non-negative")


@dataclass
class TrainExample:
    src_ids: np.ndarray
    label_ids: np.ndarray


@dataclass(slots=True)
class SyntheticExample:
    source: TokenSeq
    labels: LabelSequence
    origin_index: int


@dataclass
class StageMetrics:
    """One stage's epoch losses, held-out score and the synthetic set it
    trained on (empty in stage 1)."""
    stage: int
    epoch_losses: list[float]
    eval: ScoreReport | None
    synthetic_count: int
    synthetic_error_rate: float


def prepare_example(source: TokenSeq, labels: LabelSequence,
                    token_vocab: TokenVocab,
                    label_vocab: LabelVocab) -> TrainExample:
    return TrainExample(
        src_ids=token_vocab.encode(source),
        label_ids=np.array(label_vocab.encode(labels), dtype=np.int64),
    )


def build_dataset(pairs, token_vocab, label_vocab) -> list[TrainExample]:
    return [prepare_example(p.source, extract_labels(p), token_vocab,
                            label_vocab) for p in pairs]


def build_vocabs(pairs) -> tuple[TokenVocab, LabelVocab]:
    sentences = [p.source for p in pairs] + [p.target for p in pairs]
    token_vocab = TokenVocab.build(sentences)
    label_vocab = LabelVocab.build(extract_labels(p) for p in pairs)
    return token_vocab, label_vocab


def train_epoch(model: GecModel, examples: list[TrainExample],
                cfg: TrainingConfig, opt_state: AdamState,
                rng: np.random.Generator) -> float:
    """One seeded-shuffle pass, one padded encoder pass and one Adam
    step per mini-batch; returns the mean per-sentence loss.  rng draws
    the shuffle and, at a nonzero model dropout, the dropout masks."""
    if not examples:
        raise ValueError("dataset is empty")
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = [examples[i] for i in order[start:start + cfg.batch_size]]
        loss, grads = loss_and_grads(
            model.params, [ex.src_ids for ex in batch],
            [ex.label_ids for ex in batch], cfg=model.cfg, drop_rng=rng)
        adam_step(model.params, grads, opt_state, cfg.lr)
        total_loss += loss * len(batch)
    return total_loss / len(order)


def synthesize_example(model: GecModel, pair: SentencePair,
                       gold_labels: LabelSequence, origin_index: int,
                       cfg: TrainingConfig,
                       rng: np.random.Generator) -> SyntheticExample | None:
    """Sample one errorful variant of a genuine source, or None when the
    detector sees too little error mass in it.

    gold_labels must equal extract_labels(pair): a sample that leaves
    the source unchanged reuses them instead of aligning again, and
    literal pairing keeps them for every sample.
    """
    dists = model.forward_tokens(pair.source)
    if sentence_error_score(dists) <= cfg.gamma:
        return None
    vocab = model.label_vocab
    literal = cfg.synthesis_pairing == "literal"
    rows = dists.gel.astype(np.float64)
    if literal:
        rows *= vocab.length_preserving_mask
    rows[0] *= vocab.sentinel_mask
    rows /= rows.sum(axis=-1, keepdims=True)
    ids = sample_ids(rows, cfg.sampling, cfg.beta, rng)
    if literal:
        # the random baseline ignores the masks, so its draws are
        # checked against them here
        ids[~vocab.length_preserving_mask[ids]] = 0
    sampled = vocab.decode(ids.tolist())
    synthetic_source = apply_labels(pair.source, sampled)
    if synthetic_source == pair.source:
        return SyntheticExample(pair.source, gold_labels, origin_index)
    if literal:
        labels = gold_labels
    else:
        labels = extract_labels(SentencePair(synthetic_source, pair.target))
    return SyntheticExample(synthetic_source, labels, origin_index)


def synthesize_dataset(model: GecModel, pairs, gold_labels_per_pair,
                       stage: int, cfg: TrainingConfig,
                       base_seed: int) -> list[SyntheticExample]:
    """Rebuild the synthetic set from scratch over every genuine pair.

    RNG streams are derived per example from (seed, stage, index), so
    the result is independent of iteration order.
    """
    out = []
    for k, (pair, gold) in enumerate(zip(pairs, gold_labels_per_pair)):
        rng = np.random.default_rng((base_seed, stage, k))
        syn = synthesize_example(model, pair, gold, k, cfg, rng)
        if syn is not None:
            out.append(syn)
    return out


def mean_error_rate(synthetic: list[SyntheticExample]) -> float:
    """Mean label error rate of a synthetic set; 0.0 when it is empty."""
    if not synthetic:
        return 0.0
    return float(np.mean([measure_error_rate(s.labels) for s in synthetic]))


def evaluate_model(model: GecModel, pairs,
                   infer_cfg: InferenceConfig) -> ScoreReport:
    sources = [p.source for p in pairs]
    references = [p.target for p in pairs]
    hypotheses = [correct(model, s, infer_cfg).final for s in sources]
    return score_corpus(sources, hypotheses, references)


def _diverged(stage: int, epoch: int, what) -> GstError:
    return GstError(f"training diverged in stage {stage}, epoch {epoch}: "
                    f"{what}")


def run_gst(model: GecModel, genuine_pairs, cfg: TrainingConfig,
            heldout_pairs=None,
            infer_cfg: InferenceConfig | None = None,
            ) -> tuple[GecModel, list[StageMetrics]]:
    """The full staged loop: synthesize, train, evaluate, repeat.

    Stage 1 starts from the supplied model and trains on the genuine
    pairs alone; each later stage warm-starts from the previous stage's
    parameters, which first synthesize the set that stage trains on.
    The set synthesized after stage s is keyed by (seed, s, index), and
    nothing is synthesized after the last stage, so a single stage is
    exactly baseline training.  A stage's metrics count the synthetic
    set it trained on.

    Training that diverges raises GstError naming the stage and epoch:
    a non-finite loss in an epoch makes a non-finite gradient, which
    adam_step rejects, and after each stage the first genuine
    mini-batch must still have a finite loss under the final weights.
    """
    if infer_cfg is None:
        infer_cfg = InferenceConfig(gamma=cfg.gamma, beta=cfg.beta)
    gold_labels = [extract_labels(p) for p in genuine_pairs]
    genuine = [prepare_example(p.source, lab, model.token_vocab,
                               model.label_vocab)
               for p, lab in zip(genuine_pairs, gold_labels)]
    probe = genuine[:cfg.batch_size]
    epoch_rng = np.random.default_rng((cfg.seed, 0xE))
    opt_state = AdamState()
    metrics: list[StageMetrics] = []
    for stage in range(1, cfg.stages + 1):
        synthetic: list[SyntheticExample] = []
        if stage > 1:
            synthetic = synthesize_dataset(model, genuine_pairs, gold_labels,
                                           stage - 1, cfg, cfg.seed)
        dataset = genuine + [
            prepare_example(s.source, s.labels, model.token_vocab,
                            model.label_vocab)
            for s in synthetic]
        losses = []
        for epoch in range(1, cfg.epochs_per_stage + 1):
            # adam_step's finite check is the detector, so overflow on
            # the way to a non-finite gradient need not also warn
            try:
                with np.errstate(all="ignore"):
                    losses.append(train_epoch(model, dataset, cfg,
                                              opt_state, epoch_rng))
            except NonFiniteGradientError as exc:
                raise _diverged(stage, epoch, exc) from exc
        # an epoch's loss predates its last step; only a forward pass
        # under the new weights shows whether that step blew them up
        with np.errstate(all="ignore"):
            after = loss_only(model.params, [ex.src_ids for ex in probe],
                              [ex.label_ids for ex in probe], model.cfg)
        if not np.isfinite(after):
            raise _diverged(stage, cfg.epochs_per_stage,
                            f"loss {after} on a genuine mini-batch under "
                            "the updated weights")
        evaluation = None
        if heldout_pairs:
            evaluation = evaluate_model(model, heldout_pairs, infer_cfg)
        metrics.append(StageMetrics(stage, losses, evaluation,
                                    len(synthetic),
                                    mean_error_rate(synthetic)))
    return model, metrics


def metrics_csv(metrics: list[StageMetrics]) -> str:
    """CSV rows (stage, epoch, train_loss, P, R, F0.5); the held-out
    columns are filled on each stage's last epoch row."""
    lines = ["stage,epoch,train_loss,precision,recall,f_half"]
    for m in metrics:
        for epoch, loss in enumerate(m.epoch_losses, start=1):
            last = epoch == len(m.epoch_losses)
            if last and m.eval is not None:
                tail = (f"{m.eval.precision:.4f},{m.eval.recall:.4f},"
                        f"{m.eval.f_half:.4f}")
            else:
                tail = ",,"
            lines.append(f"{m.stage},{epoch},{loss:.6f},{tail}")
    return "\n".join(lines) + "\n"
