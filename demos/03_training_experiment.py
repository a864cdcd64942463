"""A small end-to-end experiment: train a tagger on synthetic corruptions,
once as a plain baseline and once with staged self-synthesis, and compare
held-out F0.5.  Takes a couple of minutes on a laptop CPU; shrink N_PAIRS
for a quicker look.

Both runs start from the same model and seed, so their first 5 epochs
are the same: that stage is trained once and the run state is forked.
The baseline then trains on the genuine pairs alone; the staged run
synthesizes a fresh set before each later stage.

Run:  python3 demos/03_training_experiment.py
"""

import numpy as np

from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.inference import InferenceConfig
from gstgec.model import GecModel
from gstgec.sampling import SamplingConfig, SamplingMode
from gstgec.training import TrainingConfig, build_vocabs, run_stages, \
    start_run, train_stage

SEED = 7
N_PAIRS = 2000

rng = np.random.default_rng(SEED)
clean = generate_clean_corpus(N_PAIRS, rng)
pairs = corrupt_corpus(clean, rate=0.3, rng=rng)
heldout, train = pairs[:N_PAIRS // 10], pairs[N_PAIRS // 10:]
token_vocab, label_vocab = build_vocabs(train)
print(f"{len(train)} training pairs, {len(heldout)} held out, "
      f"{len(token_vocab)} tokens, {len(label_vocab)} labels")

infer_cfg = InferenceConfig(gamma=0.3, beta=0.0)
cfg = TrainingConfig(
    stages=3, epochs_per_stage=5, gamma=0.5, beta=0.3,
    sampling=SamplingConfig(mode=SamplingMode.GUMBEL_SOFTMAX, seed=SEED),
    lr=2e-3, batch_size=16, seed=SEED)
model = GecModel.create(token_vocab, label_vocab, seed=SEED, dim=32,
                        layers=2, heads=2, max_len=32)

# the two runs see the same number of gradient epochs in total
state = start_run(model, train, cfg)
first = train_stage(state, cfg, [], heldout, infer_cfg)
baseline_run = state.fork()
baseline = [first] + [train_stage(baseline_run, cfg, [], heldout, infer_cfg)
                      for _ in range(cfg.stages - baseline_run.stage)]
staged = [first] + run_stages(state, cfg, heldout, infer_cfg)

print(f"\nbaseline (1 stage x {cfg.stages * cfg.epochs_per_stage}) beside "
      f"self-synthesis ({cfg.stages} stages x {cfg.epochs_per_stage}):")
for b, s in zip(baseline, staged):
    # the synthetic pairs this stage trained on, sampled by the model
    # the previous stage left (none in stage 1)
    print(f"  epoch {s.stage * cfg.epochs_per_stage:2d}: "
          f"baseline F0.5 {b.eval.f_half:5.2f}  "
          f"staged loss {s.epoch_losses[-1]:.4f}  heldout {s.eval.text()}  "
          f"trained on {s.synthetic_count} synthetic")

print(f"\nheld-out F0.5: baseline {baseline[-1].eval.f_half:.2f}  "
      f"with self-synthesis {staged[-1].eval.f_half:.2f}")
