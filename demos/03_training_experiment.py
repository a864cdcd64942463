"""The desk experiment behind acceptance gates 6 and 7 (gstgec.desk):
train a tagger on synthetic corruptions three ways and compare held-out
F0.5 after every stage.  Takes about a minute on one CPU core.

All three arms start from the same model and seed, so their first
stage is the same: it is trained once and the run state is forked.  The
baseline then trains on the genuine pairs alone, for as many epochs as
the others; the Gumbel-Softmax and random arms first synthesize a fresh
set before each later stage, sampled by the model the previous stage
left behind.

Run:  python3 demos/03_training_experiment.py
"""

from gstgec import desk

runs = desk.run()
epochs = desk.CONFIG.epochs_per_stage
print(f"held-out F0.5 after each {epochs}-epoch stage, seed {desk.SEED} "
      "(synthetic pairs trained on):")
print("  epoch" + "".join(f"{name:>17}" for name in runs))
for row in zip(*runs.values()):
    print(f"  {row[0].stage * epochs:5d}" + "".join(
        f"{m.eval.f_half:10.2f} ({m.synthetic_count:4d})" for m in row))

print("\nfinal held-out F0.5: " + ", ".join(
    f"{name} {metrics[-1].eval.f_half:.2f}" for name, metrics in runs.items()))
