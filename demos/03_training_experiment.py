"""A small end-to-end experiment: train a tagger on synthetic corruptions,
once as a plain baseline and once with staged self-synthesis, and compare
held-out F0.5.  Takes a couple of minutes on a laptop CPU; shrink N_PAIRS
for a quicker look.

Run:  python3 demos/03_training_experiment.py
"""

import numpy as np

from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.inference import InferenceConfig
from gstgec.model import GecModel
from gstgec.sampling import SamplingConfig, SamplingMode
from gstgec.training import TrainingConfig, build_vocabs, run_gst

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


def experiment(stages, epochs, label):
    model = GecModel.create(token_vocab, label_vocab, seed=SEED, dim=32,
                            layers=2, heads=2, max_len=32)
    cfg = TrainingConfig(
        stages=stages, epochs_per_stage=epochs, gamma=0.5, beta=0.3,
        sampling=SamplingConfig(mode=SamplingMode.GUMBEL_SOFTMAX, seed=SEED),
        lr=2e-3, batch_size=16, seed=SEED)
    _, metrics = run_gst(model, train, cfg, heldout_pairs=heldout,
                         infer_cfg=infer_cfg)
    print(f"\n{label}:")
    for m in metrics:
        # the synthetic pairs this stage trained on, sampled by the model
        # the previous stage left (none in stage 1)
        print(f"  stage {m.stage}: loss {m.epoch_losses[-1]:.4f}  "
              f"heldout {m.eval.text()}  "
              f"trained on {m.synthetic_count} synthetic")
    return metrics[-1].eval.f_half


# the two runs see the same number of gradient epochs in total
baseline = experiment(stages=1, epochs=15, label="baseline (1 stage x 15)")
staged = experiment(stages=3, epochs=5, label="self-synthesis (3 stages x 5)")

print(f"\nheld-out F0.5: baseline {baseline:.2f}  "
      f"with self-synthesis {staged:.2f}")
