"""The desk experiment: the paper's claim at desk scale.

Staged Gumbel-Softmax self-synthesis against an epoch-matched baseline
and a random-sampling arm, on 4,500 generated pairs corrupted at rate
0.3 (500 more held out) with a dim-32 encoder, 5 stages of 5 epochs.
All arms train the same stage 1, so run() trains it once and forks it
per arm; the baseline goes on with no synthetic set.  Acceptance gates
6 and 7 and demo 03 run this definition.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

import numpy as np

from .corruption import corrupt_corpus, generate_clean_corpus
from .inference import InferenceConfig
from .model import GecModel
from .sampling import SamplingConfig, SamplingMode
from .training import RunState, StageMetrics, TrainingConfig, \
    build_vocabs, run_stages, start_run, train_stage

SEED = 20240817
CONFIG = TrainingConfig(stages=5, epochs_per_stage=5, gamma=0.5, beta=0.3,
                        lr=2e-3, batch_size=16, seed=SEED)
INFERENCE = InferenceConfig(gamma=0.3, beta=0.0)


def _baseline(state: RunState, heldout) -> list[StageMetrics]:
    return [train_stage(state, CONFIG, [], heldout, INFERENCE)
            for _ in range(CONFIG.stages - state.stage)]


def _synthesis(state: RunState, heldout,
               mode: SamplingMode) -> list[StageMetrics]:
    cfg = replace(CONFIG, sampling=SamplingConfig(mode=mode))
    return run_stages(state, cfg, heldout, INFERENCE)


# each arm trains a forked run's remaining stages, scoring the held-out
# pairs after every stage; module-level functions and partials, so a
# worker process can be sent one by pickle
ARMS = {
    "baseline": _baseline,
    "gumbel": partial(_synthesis, mode=SamplingMode.GUMBEL_SOFTMAX),
    "random": partial(_synthesis, mode=SamplingMode.RANDOM),
}


def run() -> dict[str, list[StageMetrics]]:
    """Every arm's metrics for stages 1..CONFIG.stages, by arm name."""
    rng = np.random.default_rng(SEED)
    pairs = corrupt_corpus(generate_clean_corpus(5000, rng), rate=0.3,
                           rng=rng)
    heldout, train = pairs[:500], pairs[500:]
    model = GecModel.create(*build_vocabs(train), seed=SEED, dim=32,
                            layers=2, heads=2, max_len=32)
    state = start_run(model, train, CONFIG)
    first = train_stage(state, CONFIG, [], heldout, INFERENCE)
    forks = {name: state.fork() for name in ARMS}
    return {name: [first] + arm(forks[name], heldout)
            for name, arm in ARMS.items()}
