"""The four benchmark workloads: train, gst, correct and align.

Every input comes from ``gstgec.corruption`` seeded by the run's seed.
A workload has a set-up, repeated with the median reported, and two or
three timed phases.  A phase is a fixed list of units (one optimizer
step, one ``correct()`` call, one ``run_gst`` call...) run pass after
pass until its share of the run's seconds is used; a unit's time is the
mean of its fastest four fifths of passes.  Every time is scaled by the
machine-speed factor measured during the same phase (speed.py).

Each workload reports the same generic end-to-end slots (``main_per_s``,
``main_p50_ms``, ``follow_per_s``) plus the
workload-specific names they stand for (``train_examples_per_s`` and so
on); README.md maps one onto the other.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gstgec.checkpoint import load_checkpoint, save_checkpoint
from gstgec.corpus import SENTINEL, SentencePair, read_parallel_tsv, \
    write_parallel_tsv
from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.inference import InferenceConfig, correct
from gstgec.labels import correct_iteratively, edit_distance, extract_labels
from gstgec.model import AdamState, GecModel
from gstgec.sampling import SamplingConfig, SamplingMode
from gstgec.scoring import score_corpus
from gstgec.training import TrainingConfig, build_dataset, build_vocabs, \
    run_gst, synthesize_dataset, train_epoch
from speed import SpeedProbe, factor, low_mean

HERE = Path(__file__).resolve().parent
CORRECT_CHECKPOINT = HERE / "correct_model.gst"

# Held-out F0.5 floors for the full-size inputs (scale 1), set below the
# lowest value seen at the commit that introduced the benchmark (see
# README.md).  Scaled-down self-test inputs are too few to hold a floor.
GST_F05_FLOOR = 25.0
CORRECT_F05_FLOOR = 63.0

# Shapes.  train runs the CLI default model; gst the desk shape of
# demo 03 and acceptance gates 6/7.
TRAIN_MODEL = dict(dim=128, layers=2, heads=4, max_len=128)
GST_MODEL = dict(dim=32, layers=2, heads=2, max_len=32)
GST_STAGES = 2
CORRECT_CONFIG = InferenceConfig(gamma=0.5, beta=0.0, max_iters=5)
CORRECT_PARTS = (1, 6)   # generated sentences joined per input
CORRECT_WINDOW = 40      # max_len of the committed correct checkpoint
ALIGN_PARTS = (2, 8)
# The error apply_labels raises once a sentence is longer than the
# model's window (the known over-length defect); counted as failed.
OVER_LENGTH_ERROR = "label sequence length must match token count"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def joined_pairs(rng: np.random.Generator, count: int, parts: tuple[int, int],
                 rate: float) -> list[SentencePair]:
    """Pairs whose clean side joins k generated sentences after one
    sentinel.  Every k in the range occurs equally often (in shuffled
    order), so the length mix is the same for every seed."""
    lo, hi = parts
    ks = np.resize(np.arange(lo, hi + 1), count)
    rng.shuffle(ks)
    clean = []
    for k in ks:
        sentences = generate_clean_corpus(int(k), rng)
        clean.append((SENTINEL,) + tuple(t for s in sentences for t in s[1:]))
    return corrupt_corpus(clean, rate, rng)


def single_pairs(rng: np.random.Generator, count: int,
                 rate: float) -> list[SentencePair]:
    return corrupt_corpus(generate_clean_corpus(count, rng), rate, rng)


def correct_inputs(seed: int, count: int) -> list[SentencePair]:
    """count pairs of 1-6 joined sentences, exactly count // 100 of them
    (at least one) longer than CORRECT_WINDOW, so that the over-length
    share is the same for every seed.  Each input keeps its number of
    joined sentences: a draw beyond the window once the share is full is
    drawn again, and a share left short is filled by drawing inputs of the
    most sentences again until they exceed the window."""
    rng = np.random.default_rng((seed, 4))
    lo, hi = CORRECT_PARTS
    ks = np.resize(np.arange(lo, hi + 1), count)
    rng.shuffle(ks)
    share = max(1, count // 100)

    def draw(k: int, over: bool) -> SentencePair:
        while True:
            (pair,) = joined_pairs(rng, 1, (k, k), rate=0.25)
            if (len(pair.source) > CORRECT_WINDOW) == over:
                return pair

    pairs = []
    over = 0
    for k in ks:
        pair = draw(int(k), False) if over == share else \
            joined_pairs(rng, 1, (int(k), int(k)), rate=0.25)[0]
        over += len(pair.source) > CORRECT_WINDOW
        pairs.append(pair)
    for i in reversed(range(count)):
        if over == share:
            break
        if ks[i] == hi and len(pairs[i].source) <= CORRECT_WINDOW:
            pairs[i] = draw(hi, True)
            over += 1
    return pairs


def _tokens(pairs) -> int:
    return sum(len(p.source) for p in pairs)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """Settings of one workload run."""

    seed: int
    seconds: float
    scale: float            # input size multiplier; 1.0 in benchmark runs
    workdir: Path           # scratch files, removed after the run
    setup_budget_s: float   # 0 runs the set-up once
    probe: SpeedProbe
    speed_weights: dict[str, float]  # reference kind -> time share

    def slowdown(self, mark: int) -> tuple[float, dict[str, float]]:
        """Machine slowdown factor since mark, and its parts."""
        parts = self.probe.slowdowns(mark)
        return factor(parts, self.speed_weights), parts


@dataclass
class Timing:
    """Raw time of each unit of a phase (low_mean over its passes), and
    the machine-speed factor measured meanwhile."""

    unit_s: list[float]
    items: list[int]
    tokens: list[int]
    passes: int
    factor: float
    slowdowns: dict[str, float]

    def raw_rate(self) -> float:
        return sum(self.items) / sum(self.unit_s)

    def rate(self) -> float:
        return self.raw_rate() * self.factor

    def token_rate(self) -> float:
        return sum(self.tokens) / sum(self.unit_s) * self.factor

    def ms(self, q: float) -> float:
        """q-th percentile of the scaled per-unit times, in ms."""
        return float(np.percentile(np.asarray(self.unit_s) * 1000, q)
                     / self.factor)

    @property
    def attempted(self) -> int:
        """Items of one pass.  Every pass repeats the same inputs, so the
        count (and the failures among them) does not depend on how many
        passes the run's time allowed."""
        return sum(self.items)


def time_units(run: Run, run_unit, sizes, budget_s: float,
               min_passes: int = 3) -> Timing:
    """Call run_unit(u) for every unit u in order, pass after pass, until
    budget_s has elapsed and min_passes passes ran.  sizes[u] is the
    unit's (items, tokens)."""
    mark = run.probe.mark()
    times: list[list[float]] = [[] for _ in sizes]
    passes = 0
    start = time.perf_counter()
    while passes < min_passes or time.perf_counter() - start < budget_s:
        for u, unit_times in enumerate(times):
            unit_times.append(run.probe.timed(run_unit, u)[1])
        passes += 1
    return Timing([low_mean(t) for t in times], [s[0] for s in sizes],
                  [s[1] for s in sizes], passes, *run.slowdown(mark))


def median_setup(run: Run, setup):
    """Run setup() until run.setup_budget_s has elapsed, at least 5 times
    (once when the budget is 0).  Returns (scaled median seconds, raw
    median seconds, last result)."""
    min_reps = 5 if run.setup_budget_s > 0 else 1
    mark = run.probe.mark()
    times = []
    result = None
    while len(times) < min_reps or sum(times) < run.setup_budget_s:
        result, seconds = run.probe.timed(setup)
        times.append(seconds)
    raw = statistics.median(times)
    return raw / run.slowdown(mark)[0], raw, result


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    metrics: dict[str, float]            # generic end-to-end slots
    raw: dict                            # unscaled figures behind them
    named: dict[str, tuple[float, str]]  # specific name -> (value, unit)
    attempted: int
    failed: int
    problems: list[str]                  # failed output checks
    details: dict = field(default_factory=dict)


def _slots(setup: tuple, main: Timing, main_p50_ms: float,
           follow: Timing) -> tuple[dict, dict]:
    """The generic end-to-end slots, and the raw figures behind them."""
    slots = {"setup_s": setup[0], "main_per_s": main.rate(),
             "main_p50_ms": main_p50_ms, "follow_per_s": follow.rate()}
    raw = {"setup_s": setup[1], "main_per_s": main.raw_rate(),
           "follow_per_s": follow.raw_rate(),
           "main_speed_factor": main.factor,
           "follow_speed_factor": follow.factor,
           "main_slowdowns": main.slowdowns,
           "follow_slowdowns": follow.slowdowns}
    return slots, raw


# ---------------------------------------------------------------------------
# train: the model layer's write path
# ---------------------------------------------------------------------------


def train_workload(run: Run) -> Outcome:
    seed, seconds, scale = run.seed, run.seconds, run.scale
    rng = np.random.default_rng((seed, 1))
    pairs = single_pairs(rng, max(32, int(256 * scale)), rate=0.25)
    cfg = TrainingConfig(lr=1e-3, batch_size=16, seed=seed)

    def setup():
        token_vocab, label_vocab = build_vocabs(pairs)
        examples = build_dataset(pairs, token_vocab, label_vocab)
        model = GecModel.create(token_vocab, label_vocab, seed=seed,
                                **TRAIN_MODEL)
        return model, examples

    *setup, (model, examples) = median_setup(run, setup)
    opt_state = AdamState()
    epoch_rng = np.random.default_rng((seed, 2))
    # one unit = one train_epoch call over one batch: one optimizer step
    batches = [examples[i:i + cfg.batch_size]
               for i in range(0, len(examples), cfg.batch_size)]
    losses: list[list[float]] = []

    def step(u):
        if u == 0:
            losses.append([])
        losses[-1].append(train_epoch(model, batches[u], cfg, opt_state,
                                      epoch_rng))

    main = time_units(run, step, [(len(b), sum(len(ex.src_ids) for ex in b))
                             for b in batches], 0.8 * seconds)

    # `gstgec train` ends by writing the model; verify it reads back.
    path = run.workdir / "train.gst"
    reloaded = [None]

    def round_trip(_):
        save_checkpoint(model, path)
        reloaded[0] = load_checkpoint(path)[0]

    follow = time_units(run, round_trip, [(1, 0)], 0.2 * seconds)

    problems = []
    first, last = np.mean(losses[0]), np.mean(losses[-1])
    if not np.all(np.isfinite(np.concatenate(losses))):
        problems.append("train: non-finite batch loss")
    if not last < first:
        problems.append(f"train: last epoch loss {last:.4f} not below "
                        f"first {first:.4f}")
    for name, value in model.params.items():
        if not np.array_equal(reloaded[0].params[name],
                              value.astype(np.float32)):
            problems.append(f"train: checkpoint round trip changed {name}")
            break
    return Outcome(
        *_slots(setup, main, main.ms(50), follow),
        named={"train_examples_per_s": (main.rate(), "examples/s"),
               "train_tokens_per_s": (main.token_rate(), "tokens/s"),
               "train_step_p50_ms": (main.ms(50), "ms"),
               "checkpoint_round_trips_per_s": (follow.rate(), "1/s")},
        attempted=main.attempted, failed=0, problems=problems,
        details={"epochs": main.passes, "examples": len(examples),
                 "first_epoch_loss": first, "last_epoch_loss": last})


# ---------------------------------------------------------------------------
# gst: the staged self-synthesis loop, then `gstgec synthesize`
# ---------------------------------------------------------------------------


def gst_config(seed: int) -> TrainingConfig:
    return TrainingConfig(
        stages=GST_STAGES, epochs_per_stage=1, gamma=0.5, beta=0.3,
        sampling=SamplingConfig(mode=SamplingMode.GUMBEL_SOFTMAX, seed=seed),
        synthesis_pairing="realign", lr=2e-3, batch_size=16, seed=seed)


def gst_workload(run: Run) -> Outcome:
    seed, seconds, scale = run.seed, run.seconds, run.scale
    rng = np.random.default_rng((seed, 3))
    pairs = single_pairs(rng, max(40, int(800 * scale)), rate=0.3)
    heldout, train = pairs[:len(pairs) // 10], pairs[len(pairs) // 10:]
    cfg = gst_config(seed)
    infer_cfg = InferenceConfig(gamma=0.3, beta=0.0)

    def setup():
        token_vocab, label_vocab = build_vocabs(train)
        return GecModel.create(token_vocab, label_vocab, seed=seed,
                               **GST_MODEL)

    *setup, model = median_setup(run, setup)
    runs = []

    def stages(_):
        # every call starts from the same initial weights
        fresh = GecModel(model.cfg, {k: v.copy()
                                     for k, v in model.params.items()},
                         model.token_vocab, model.label_vocab)
        runs.append(run_gst(fresh, train, cfg, heldout_pairs=heldout,
                            infer_cfg=infer_cfg))

    main = time_units(run, stages, [(len(train) * cfg.stages,
                                _tokens(train) * cfg.stages)],
                      0.65 * seconds, min_passes=2)

    # `gstgec gst` writes the checkpoint that `gstgec synthesize` reads.
    path = run.workdir / "gst.gst"
    save_checkpoint(runs[-1][0], path)
    synth_model, _ = load_checkpoint(path)
    gold = [extract_labels(p) for p in train]
    outputs = []

    def synthesize(_):
        outputs.append(synthesize_dataset(synth_model, train, gold, stage=0,
                                          cfg=cfg, base_seed=seed))

    follow = time_units(run, synthesize, [(len(train), _tokens(train))],
                        0.35 * seconds)

    problems = []
    f05 = [m[-1].eval.f_half for _, m in runs]
    losses = [x for _, m in runs for s in m for x in s.epoch_losses]
    if not all(np.isfinite(losses)):
        problems.append("gst: non-finite stage loss")
    if len(set(f05)) != 1:
        problems.append(f"gst: repeated run_gst calls disagree: {f05}")
    if scale == 1 and f05[0] < GST_F05_FLOOR:
        problems.append(f"gst: held-out F0.5 {f05[0]:.2f} below floor "
                        f"{GST_F05_FLOOR}")
    synthetic = outputs[-1]
    if not synthetic:
        problems.append("gst: synthesize_dataset produced nothing")
    for s in synthetic:
        if len(s.labels) != len(s.source):
            problems.append(f"gst: synthetic example {s.origin_index} has "
                            f"{len(s.labels)} labels for {len(s.source)} "
                            "tokens")
            break
    if any(o != outputs[0] for o in outputs):
        problems.append("gst: repeated synthesize_dataset calls disagree")
    stage_ms = main.ms(50) / cfg.stages
    return Outcome(
        *_slots(setup, main, stage_ms, follow),
        named={"gst_stage_s": (stage_ms / 1000, "s"),
               "synth_sentences_per_s": (follow.rate(), "sentences/s"),
               "heldout_f05": (f05[0], "F0.5")},
        attempted=main.attempted + follow.attempted, failed=0,
        problems=problems,
        details={"gst_calls": main.passes, "train_pairs": len(train),
                 "heldout_pairs": len(heldout),
                 "synthesized": len(synthetic),
                 "stage_synthetic_counts": [s.synthetic_count
                                            for s in runs[-1][1]]})


# ---------------------------------------------------------------------------
# correct: the model layer's read path
# ---------------------------------------------------------------------------


def correct_workload(run: Run) -> Outcome:
    seed, seconds, scale = run.seed, run.seconds, run.scale
    pairs = correct_inputs(seed, max(12, int(1200 * scale)))

    *setup, (model, _) = median_setup(
        run, lambda: load_checkpoint(CORRECT_CHECKPOINT))
    results: list = [None] * len(pairs)
    failures: dict[int, str] = {}

    def correct_one(u):
        try:
            results[u] = correct(model, pairs[u].source, CORRECT_CONFIG)
        except ValueError as exc:
            failures[u] = str(exc)

    main = time_units(run, correct_one, [(1, len(p.source)) for p in pairs],
                      0.85 * seconds)
    kept = [i for i, r in enumerate(results) if r is not None]
    sources = [pairs[i].source for i in kept]
    hypotheses = [results[i].final for i in kept]
    references = [pairs[i].target for i in kept]
    reports = []

    def score(_):
        reports.append(score_corpus(sources, hypotheses, references))

    follow = time_units(run, score, [(len(kept), _tokens(pairs[i] for i in kept))],
                        0.15 * seconds)

    problems = []
    if model.cfg.max_len != CORRECT_WINDOW:
        problems.append(f"correct: checkpoint window {model.cfg.max_len}, "
                        f"inputs built for {CORRECT_WINDOW}")
    for i, message in failures.items():
        if message != OVER_LENGTH_ERROR:
            problems.append(f"correct: sentence {i} failed: {message}")
    for i in kept:
        trace = results[i]
        out = trace.final
        if not out or out[0] != SENTINEL:
            problems.append(f"correct: output {i} lost the sentinel")
        elif any(not t or any(c.isspace() for c in t) for t in out):
            problems.append(f"correct: output {i} has an empty or "
                            "whitespace token")
        elif len(trace.rounds) > CORRECT_CONFIG.max_iters:
            problems.append(f"correct: sentence {i} ran "
                            f"{len(trace.rounds)} rounds")
    f05 = reports[-1].f_half
    if scale == 1 and f05 < CORRECT_F05_FLOOR:
        problems.append(f"correct: F0.5 {f05:.2f} below floor "
                        f"{CORRECT_F05_FLOOR}")
    rounds = sum(len(results[i].rounds) for i in kept)
    max_len = model.cfg.max_len
    return Outcome(
        *_slots(setup, main, main.ms(50), follow),
        named={"correct_sentences_per_s": (main.rate(), "sentences/s"),
               "correct_p50_ms": (main.ms(50), "ms"),
               "correct_p99_ms": (main.ms(99), "ms"),
               "correct_latency_samples": (len(pairs), "count"),
               "score_sentences_per_s": (follow.rate(), "sentences/s"),
               "correct_f05": (f05, "F0.5")},
        attempted=main.attempted, failed=len(failures),
        problems=problems,
        details={"sentences": len(pairs), "passes": main.passes,
                 "latency_samples": len(pairs),
                 "samples_beyond_p99": len(pairs) - math.ceil(
                     0.99 * len(pairs)),
                 "longer_than_max_len": sum(
                     1 for p in pairs if len(p.source) > max_len),
                 "failed_per_pass": len(failures),
                 # a failed call raises in its first applied round, after
                 # one forward; so forward calls = rounds + failures
                 "rounds_per_pass": rounds,
                 "ended_at_max_iters": sum(
                     1 for i in kept
                     if len(results[i].rounds) == CORRECT_CONFIG.max_iters
                     and results[i].rounds[-1].applied)})


# ---------------------------------------------------------------------------
# align: the alignment DP, no model
# ---------------------------------------------------------------------------


def align_workload(run: Run) -> Outcome:
    seed, seconds, scale = run.seed, run.seconds, run.scale
    rng = np.random.default_rng((seed, 5))
    generated = joined_pairs(rng, max(14, int(1000 * scale)), ALIGN_PARTS,
                             rate=0.3)
    path = run.workdir / "align.tsv"
    write_parallel_tsv(generated, path)
    # `gstgec align` starts by reading its TSV input.
    *setup, pairs = median_setup(run,
                                  lambda: read_parallel_tsv(path))
    sizes = [(1, len(p.source)) for p in pairs]
    labels: list = [None] * len(pairs)
    finals: list = [None] * len(pairs)

    def align(u):
        labels[u] = extract_labels(pairs[u])

    main = time_units(run, align, sizes, 0.45 * seconds)

    def round_trip(u):
        finals[u] = correct_iteratively(pairs[u].source, pairs[u].target)

    follow = time_units(run, round_trip, sizes, 0.4 * seconds)
    sources = [p.source for p in pairs]
    targets = [p.target for p in pairs]
    reports = []

    def score(_):
        reports.append(score_corpus(sources, targets, targets))

    scored = time_units(run, score, [(len(pairs), _tokens(pairs))],
                        0.15 * seconds)

    problems = []
    missed = 0
    for pair, lab, (final, rounds) in zip(pairs, labels, finals):
        bound = max(5, edit_distance(pair.source, pair.target))
        if len(lab) != len(pair.source):
            problems.append("align: label count differs from token count")
        if final != pair.target or rounds > bound:
            missed += 1
    if missed:
        problems.append(f"align: {missed} pairs missed their target within "
                        "max(5, edit distance) rounds")
    if reports[-1].f_half != 100.0:
        problems.append(f"align: targets scored against themselves give "
                        f"F0.5 {reports[-1].f_half}")
    if pairs != generated:
        problems.append("align: TSV round trip changed the pairs")
    return Outcome(
        *_slots(setup, main, main.ms(50), follow),
        named={"align_pairs_per_s": (main.rate(), "pairs/s"),
               "roundtrip_pairs_per_s": (follow.rate(), "pairs/s"),
               "score_sentences_per_s": (scored.rate(), "sentences/s")},
        attempted=main.attempted + follow.attempted,
        failed=missed, problems=problems,
        details={"pairs": len(pairs), "passes": main.passes,
                 "mean_tokens": _tokens(pairs) / len(pairs),
                 "roundtrip_rounds": sum(r for _, r in finals)})


# workload -> (function, weights of the speed references, speed.py).
# At dim 32 and in the alignment DP, time goes to the interpreter, so the
# Python reference tracks the machine's speed for gst, correct and align;
# train adds dim-128 products and the memory-bound Adam update.
WORKLOADS = {
    "train": (train_workload,
              {"python": 0.2, "large": 0.4, "memory": 0.4}),
    "gst": (gst_workload, {"python": 1.0}),
    "correct": (correct_workload, {"python": 1.0}),
    "align": (align_workload, {"python": 1.0}),
}
