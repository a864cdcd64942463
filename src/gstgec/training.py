"""Staged training with per-stage self-synthesis of errorful data.

A run consists of N stages of M epochs each.  Stage 1 trains on the
genuine pairs alone.  Every later stage first lets the model the
previous stage left behind build a fresh synthetic set, then trains on
the genuine pairs plus that set: for every genuine source whose summed
error probability clears the sentence gate, one corrective label per
position is sampled from the keep-biased labeling distribution and
applied, manufacturing a new errorful variant of that sentence, which
is labelled by aligning it to the genuine target again.  No set
is built after the last stage, since nothing would train on it.
Raising the keep confidence lowers the error rate of the synthesized
data; raising the gate shrinks how much of the corpus is synthesized
from.

Synthesis samples a whole sentence at once: the sentinel's label row is
masked with the label vocabulary's precomputed sentinel mask (a row
that keeps no mass becomes a certain keep), and one
``sampling.sample_ids`` call draws a label id per row under the
configured mode and keep bias.

A run's state (RunState) is what one stage hands to the next: the
model, its Adam state, the epoch generator and the number of stages
trained.  run_gst starts one and trains all its stages; runs that share
their first stages can train those once and fork the state.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

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

@dataclass(frozen=True)
class TrainingConfig:
    stages: int = 1
    epochs_per_stage: int = 1
    gamma: float = 0.5
    beta: float = 0.0
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    # One legal value; the field stays only because the benchmark's gst
    # workload still passes it by name.
    synthesis_pairing: str = "realign"
    lr: float = 1e-3
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.stages < 1 or self.epochs_per_stage < 1:
            raise ConfigError("stages and epochs_per_stage must be >= 1")
        if self.synthesis_pairing != "realign":
            raise ConfigError("synthesis_pairing must be realign")
        check_gate(self.gamma, self.beta)
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        # a zero rate is a valid no-update run; NaN fails the comparison
        if not 0 <= self.lr < np.inf:
            raise ConfigError("lr must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


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
    only the shuffle."""
    if not examples:
        raise ValueError("dataset is empty")
    order = rng.permutation(len(examples))
    total_loss = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = [examples[i] for i in order[start:start + cfg.batch_size]]
        # cfg by keyword: perfbench's tracer looks for it at position 4
        loss, grads = loss_and_grads(
            model.params, [ex.src_ids for ex in batch],
            [ex.label_ids for ex in batch], cfg=model.cfg)
        adam_step(model.params, grads, opt_state, cfg.lr)
        total_loss += loss * len(batch)
    return total_loss / len(order)


def synthesize_example(model: GecModel, pair: SentencePair,
                       gold_labels: LabelSequence, origin_index: int,
                       cfg: TrainingConfig,
                       rng: np.random.Generator) -> SyntheticExample | None:
    """Sample one errorful variant of a genuine source, or None when the
    detector sees too little error mass in it.

    The sampled labels are applied to the source, and a changed source
    is labelled by aligning it to the pair's target again.  gold_labels
    must equal extract_labels(pair): a sample that leaves the source
    unchanged reuses them instead of aligning again.
    """
    ged, rows = model.forward_tokens(pair.source)
    if sentence_error_score(ged) <= cfg.gamma:
        return None
    vocab = model.label_vocab
    # the rows are forward's own; sample_ids normalizes them
    rows[0] *= vocab.sentinel_mask
    if not rows[0].any():
        # no admitted label kept any mass: the sentinel keeps, as in decode
        rows[0, 0] = 1
    ids = sample_ids(rows, cfg.sampling, cfg.beta, rng)
    sampled = vocab.decode(ids.tolist())
    synthetic_source = apply_labels(pair.source, sampled)
    if synthetic_source == pair.source:
        return SyntheticExample(pair.source, gold_labels, origin_index)
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


@dataclass
class RunState:
    """Everything one stage hands to the next: the model, its Adam
    state, the epoch generator and the number of stages trained.

    The genuine pairs, their gold labels and their prepared examples do
    not change during a run, and forks share them.
    """
    model: GecModel
    opt_state: AdamState
    epoch_rng: np.random.Generator
    stage: int
    pairs: list[SentencePair]
    gold_labels: list[LabelSequence]
    genuine: list[TrainExample]

    def fork(self) -> RunState:
        """An independent continuation of this run.  It copies what
        training changes: the weights, both Adam moments and the step
        count, the generator and the stage number."""
        model = self.model
        params, opt, rng = copy.deepcopy(
            (model.params, self.opt_state, self.epoch_rng))
        return replace(self,
                       model=GecModel(model.cfg, params, model.token_vocab,
                                      model.label_vocab),
                       opt_state=opt, epoch_rng=rng)


def start_run(model: GecModel, genuine_pairs,
              cfg: TrainingConfig) -> RunState:
    """A run of model over genuine_pairs with no stage trained yet; its
    epochs draw from the (cfg.seed, 0xE) stream."""
    gold_labels = [extract_labels(p) for p in genuine_pairs]
    genuine = [prepare_example(p.source, lab, model.token_vocab,
                               model.label_vocab)
               for p, lab in zip(genuine_pairs, gold_labels)]
    return RunState(model, AdamState(),
                    np.random.default_rng((cfg.seed, 0xE)), 0,
                    genuine_pairs, gold_labels, genuine)


def _diverged(stage: int, epoch: int, what) -> GstError:
    return GstError(f"training diverged in stage {stage}, epoch {epoch}: "
                    f"{what}")


def train_stage(state: RunState, cfg: TrainingConfig,
                synthetic: list[SyntheticExample], heldout_pairs=None,
                infer_cfg: InferenceConfig | None = None) -> StageMetrics:
    """Train the next stage of a run: cfg.epochs_per_stage epochs on the
    genuine examples plus synthetic, then score heldout_pairs if any.
    synthetic is empty for stage 1 and for a baseline that goes on
    without synthesis.

    Training that diverges raises GstError naming the stage and epoch:
    a non-finite loss in an epoch makes a non-finite gradient, which
    adam_step rejects, and after each epoch the first genuine
    mini-batch must still have a finite loss under the updated weights.
    """
    model, stage = state.model, state.stage + 1
    dataset = state.genuine + [
        prepare_example(s.source, s.labels, model.token_vocab,
                        model.label_vocab)
        for s in synthetic]
    probe = state.genuine[:cfg.batch_size]
    losses = []
    for epoch in range(1, cfg.epochs_per_stage + 1):
        # adam_step's finite check is the detector, so overflow on the
        # way to a non-finite gradient need not also warn
        try:
            with np.errstate(all="ignore"):
                losses.append(train_epoch(model, dataset, cfg,
                                          state.opt_state, state.epoch_rng))
        except NonFiniteGradientError as exc:
            raise _diverged(stage, epoch, exc) from exc
        # an epoch's loss predates its last step; only a forward pass
        # under the new weights shows whether that step blew them up
        with np.errstate(all="ignore"):
            after = loss_only(model.params, [ex.src_ids for ex in probe],
                              [ex.label_ids for ex in probe], model.cfg)
        if not np.isfinite(after):
            raise _diverged(stage, epoch,
                            f"loss {after} on a genuine mini-batch "
                            "under the updated weights")
    state.stage = stage
    evaluation = None
    if heldout_pairs:
        if infer_cfg is None:
            infer_cfg = InferenceConfig(gamma=cfg.gamma, beta=cfg.beta)
        evaluation = evaluate_model(model, heldout_pairs, infer_cfg)
    return StageMetrics(stage, losses, evaluation, len(synthetic),
                        mean_error_rate(synthetic))


def run_stages(state: RunState, cfg: TrainingConfig, heldout_pairs=None,
               infer_cfg: InferenceConfig | None = None,
               ) -> list[StageMetrics]:
    """Train a run's remaining stages, up to cfg.stages.  Each stage
    after the run's first trains on a set that the model the previous
    stage left behind synthesizes first; the set built after stage s is
    keyed by (cfg.seed, s, index)."""
    metrics = []
    while state.stage < cfg.stages:
        synthetic: list[SyntheticExample] = []
        if state.stage:
            synthetic = synthesize_dataset(state.model, state.pairs,
                                           state.gold_labels, state.stage,
                                           cfg, cfg.seed)
        metrics.append(train_stage(state, cfg, synthetic, heldout_pairs,
                                   infer_cfg))
    return metrics


def run_gst(model: GecModel, genuine_pairs, cfg: TrainingConfig,
            heldout_pairs=None,
            infer_cfg: InferenceConfig | None = None,
            ) -> tuple[GecModel, list[StageMetrics]]:
    """The full staged loop: synthesize, train, evaluate, repeat.

    Starts a run from the supplied model and trains its cfg.stages
    stages (run_stages).  Stage 1 trains on the genuine pairs alone,
    and nothing is synthesized after the last stage, so a single stage
    is exactly baseline training.  A stage's metrics count the
    synthetic set it trained on.  The model is trained in place and
    returned; the run state is dropped.
    """
    state = start_run(model, genuine_pairs, cfg)
    return model, run_stages(state, cfg, heldout_pairs, infer_cfg)


def metrics_csv(metrics: list[StageMetrics]) -> str:
    """CSV rows (stage, epoch, train_loss, P, R, F0.5, synthetic_count,
    synthetic_error_rate); the held-out columns are filled on each
    stage's last epoch row, and the synthetic set's size and label error
    rate on every row of the stage that trained on it."""
    lines = ["stage,epoch,train_loss,precision,recall,f_half,"
             "synthetic_count,synthetic_error_rate"]
    for m in metrics:
        for epoch, loss in enumerate(m.epoch_losses, start=1):
            last = epoch == len(m.epoch_losses)
            if last and m.eval is not None:
                tail = (f"{m.eval.precision:.4f},{m.eval.recall:.4f},"
                        f"{m.eval.f_half:.4f}")
            else:
                tail = ",,"
            lines.append(f"{m.stage},{epoch},{loss:.6f},{tail},"
                         f"{m.synthetic_count},{m.synthetic_error_rate:.4f}")
    return "\n".join(lines) + "\n"
