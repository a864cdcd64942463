"""Show the sampling toolbox: the Gumbel-max trick draws exact categorical
samples, the temperature-controlled softmax relaxation shares its argmax,
and the uniform-random baseline behaves as advertised.  Every draw is
one matrix: `sample_gumbel` gives a noise row per draw, and
`sample_ids`, the pipeline's one sampler, gives one label id per row.

Run:  python3 demos/02_sampling.py
"""

import numpy as np

from gstgec.sampling import SamplingConfig, SamplingMode, relax_with_noise, \
    sample_gumbel, sample_ids

probs = np.array([0.5, 0.3, 0.2])
rng = np.random.default_rng(0)
n = 50_000

# the Gumbel-max draw: argmax of the noise-perturbed log-probabilities
hard_draws = np.argmax(np.log(probs) + sample_gumbel((n, 3), rng), axis=-1)
draws = np.bincount(hard_draws, minlength=3) / n
print(f"target frequencies   {probs}")
print(f"Gumbel-Max at {n} draws {np.round(draws, 3)}")

# one shared noise vector: the relaxed row's argmax equals the hard draw
# at every temperature
noise = sample_gumbel(3, rng)
hard = int(np.argmax(np.log(probs) + noise))
print(f"\nhard draw with fixed noise: class {hard}")
for tau in (0.1, 1.0, 10.0):
    row = relax_with_noise(probs, noise, tau)
    print(f"  tau={tau:5.1f}  relaxed row {np.round(row, 3)}  "
          f"argmax {int(np.argmax(row))}")

print("\nmode comparison over [0.9, 0.05, 0.05], 20k draws each:")
rows = np.tile([0.9, 0.05, 0.05], (20_000, 1))
for mode in SamplingMode:
    cfg = SamplingConfig(mode=mode, tau=1.0)
    ids = sample_ids(rows, cfg, 0.0, np.random.default_rng(1))
    freq = np.bincount(ids, minlength=3) / 20_000
    print(f"  {mode.name:15s} {np.round(freq, 3)}")

g = sample_gumbel(10**6, rng)
print(f"\nGumbel noise mean over 1e6 samples: {g.mean():.4f} "
      "(Euler-Mascheroni constant is 0.5772)")
