"""End-to-end acceptance suite.

Eight gates, one printed pass/fail line each:

1. F0.5 arithmetic reproduces the published single-model score rows.
2. Iterative extract/apply round-trips 10,000 corrupted pairs.
3. Analytic gradients match central finite differences on 20 draws.
4. Sampler fidelity (frequencies, chi-square, shared-noise argmax,
   temperature limits, Gumbel noise mean).
5. Inference invariants: beta/gamma monotonicity and termination over
   1,000 sentences on a trained toy model.
6. Desk-scale staged self-synthesis training beats (or ties) an
   epoch-matched baseline on held-out F0.5.
7. Random-mode synthesis does not beat Gumbel-Softmax synthesis.
8. The training command is bitwise deterministic end to end.
"""

import numpy as np
import pytest
from scipy import stats

from gstgec import desk
from gstgec.checkpoint import load_checkpoint
from gstgec.cli import main
from gstgec.corpus import write_parallel_tsv
from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.inference import InferenceConfig, correct, predict_labels
from gstgec.labels import Kind, correct_iteratively, edit_distance
from gstgec.model import ModelConfig, init_params, loss_and_grads, loss_only
from gstgec.sampling import relax_with_noise, sample_gumbel
from gstgec.scoring import f_beta

from oracles import PUBLISHED_ROWS, ROW_TOL, finite_difference_check

# Committed seed for the desk-scale experiment (criteria 6-8).
EXPERIMENT_SEED = desk.SEED


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_f_half_arithmetic(capsys):
    errors = [abs(f_beta(p, r) - f) for p, r, f in PUBLISHED_ROWS]
    worst = max(errors)
    ok = worst <= ROW_TOL
    report(capsys, 1, ok,
           f"12/12 published rows reproduced, worst deviation {worst:.3f} "
           f"(input-rounding bound {ROW_TOL})")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_alignment_round_trip(capsys):
    rng = np.random.default_rng(101)
    rates = (0.05, 0.1, 0.2, 0.35, 0.5)
    per_rate = 10_000 // len(rates)
    total = 0
    failures = 0
    for rate in rates:
        clean = generate_clean_corpus(per_rate, rng)
        for pair in corrupt_corpus(clean, rate=rate, rng=rng):
            final, rounds = correct_iteratively(pair.source, pair.target)
            bound = max(5, edit_distance(pair.source, pair.target))
            if final != pair.target or rounds > bound:
                failures += 1
            total += 1
    ok = failures == 0
    report(capsys, 2, ok,
           f"{total - failures}/{total} pairs reached the target within "
           f"max(5, edit distance) rounds")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_gradient_check(capsys):
    cfg = ModelConfig(vocab_size=12, num_labels=5, dim=8, layers=1, heads=2,
                      max_len=8, dtype="float64")
    worst = 0.0
    kinks = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed)
        n = int(rng.integers(2, 7))
        ids = rng.integers(0, cfg.vocab_size, size=n)
        labels = rng.integers(0, cfg.num_labels, size=n)
        _, grads = loss_and_grads(params, [ids], [labels], cfg)
        draw_worst, draw_kinks = finite_difference_check(
            params, grads, lambda: loss_only(params, [ids], [labels], cfg))
        worst = max(worst, draw_worst)
        kinks += draw_kinks
    ok = worst < 1e-3
    report(capsys, 3, ok,
           f"20 draws, worst relative gradient error {worst:.2e} (< 1e-3, "
           f"{kinks} ReLU-kink coordinates re-checked at step 1e-5)")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_sampler_fidelity(capsys):
    problems = []

    probs = np.array([0.5, 0.3, 0.2])
    n = 100_000
    noise = sample_gumbel((n, 3), np.random.default_rng(201))
    draws = np.argmax(np.log(probs) + noise, axis=-1)  # the Gumbel-max draw
    freq = np.bincount(draws, minlength=3) / n
    if not np.allclose(freq, probs, atol=0.01):
        problems.append(f"frequencies {freq} off by > 0.01")
    _, p_value = stats.chisquare(np.bincount(draws, minlength=3), probs * n)
    if p_value <= 0.001:
        problems.append(f"chi-square p={p_value:.2e}")

    row = np.array([0.5, 0.25, 0.15, 0.1])
    noise = sample_gumbel((10_000, 4), np.random.default_rng(202))
    hard = np.argmax(np.log(row) + noise, axis=-1)
    for tau in (0.1, 1.0, 10.0):
        relaxed = relax_with_noise(row, noise, tau)
        if not np.array_equal(relaxed.argmax(axis=-1), hard):
            problems.append(f"shared-noise mismatch at tau={tau}")

    noise = sample_gumbel(3, np.random.default_rng(203))
    relaxed = relax_with_noise([0.7, 0.2, 0.1], noise, 1e4)
    if not np.allclose(relaxed, 1 / 3, atol=1e-3):
        problems.append(f"tau=1e4 row not uniform: {relaxed}")

    rng = np.random.default_rng(204)
    mean = float(sample_gumbel(10**6, rng).mean())
    if abs(mean - 0.5772156649) > 0.01:
        problems.append(f"Gumbel mean {mean:.4f}")

    ok = not problems
    report(capsys, 4, ok,
           "frequencies, chi-square, shared-noise argmax, temperature "
           "limits, and noise mean all within tolerance"
           if ok else "; ".join(problems))


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_inference_invariants(capsys, toy_model):
    rng = np.random.default_rng(301)
    clean = generate_clean_corpus(1000, rng)
    pairs = corrupt_corpus(clean, rate=0.25, rng=rng)
    betas = (0.0, 0.1, 0.5, 1.5)
    gammas = (0.0, 0.5, 1.0, 2.0)
    problems = []
    for pair in pairs:
        dists = toy_model.forward_tokens(pair.source)
        previous = None
        for beta in betas:
            labels = predict_labels(toy_model, dists, beta)
            flagged = {i for i, lab in enumerate(labels)
                       if lab.kind is not Kind.KEP}
            if previous is not None and not flagged <= previous:
                problems.append(f"beta-monotonicity broken on {pair.source}")
            previous = flagged

        counts = []
        for gamma in gammas:
            trace = correct(toy_model, pair.source,
                            InferenceConfig(gamma=gamma, beta=0.0,
                                            max_iters=5))
            if len(trace.rounds) > 5:
                problems.append(f"termination broken on {pair.source}")
            counts.append(sum(r.applied for r in trace.rounds))
        if counts != sorted(counts, reverse=True):
            problems.append(f"gamma-monotonicity broken on {pair.source}")
        if problems:
            break
    ok = not problems
    report(capsys, 5, ok,
           "beta/gamma monotonicity and termination hold on 1000 sentences"
           if ok else problems[0])


# ------------------------------------------------------------ criteria 6 & 7

@pytest.fixture(scope="session")
def desk_experiment():
    """F0.5 after every stage of each arm of the desk experiment."""
    return {name: [m.eval.f_half for m in metrics]
            for name, metrics in desk.run().items()}


def test_criterion_6_gst_beats_baseline(capsys, desk_experiment):
    baseline_curve = desk_experiment["baseline"]
    baseline = baseline_curve[-1]
    curve = desk_experiment["gumbel"]
    ok = curve[-1] >= baseline
    report(capsys, 6, ok,
           f"staged self-synthesis F0.5 {curve[-1]:.2f} >= baseline "
           f"{baseline:.2f}; per-stage curve "
           f"{[round(c, 2) for c in curve]}, baseline at the stage "
           f"boundaries {[round(b, 2) for b in baseline_curve]} "
           f"(seed {EXPERIMENT_SEED})")


def test_criterion_7_random_mode_not_better(capsys, desk_experiment):
    random_f = desk_experiment["random"][-1]
    gumbel_f = desk_experiment["gumbel"][-1]
    ok = random_f <= gumbel_f
    report(capsys, 7, ok,
           f"random-mode F0.5 {random_f:.2f} <= Gumbel-Softmax "
           f"{gumbel_f:.2f} (soft gate, seed {EXPERIMENT_SEED})")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_training_determinism(capsys, tmp_path):
    rng = np.random.default_rng(EXPERIMENT_SEED)
    clean = generate_clean_corpus(300, rng)
    pairs = corrupt_corpus(clean, rate=0.3, rng=rng)
    data = tmp_path / "pairs.tsv"
    write_parallel_tsv(pairs, data)

    # identical manifests: both runs target the same paths
    blobs = []
    out = tmp_path / "run.gst"
    for _ in range(2):
        code = main(["gst", "--data", str(data), "--out", str(out),
                     "--stages", "3", "--epochs", "2",
                     "--heldout-frac", "0.1", "--gamma", "0.5",
                     "--beta", "0.3", "--seed", str(EXPERIMENT_SEED),
                     "--dim", "16", "--layers", "1", "--heads", "2",
                     "--max-len", "32"])
        assert code == 0
        blobs.append((out.read_bytes(),
                      (tmp_path / "run.gst.metrics.csv").read_bytes()))
        # sanity: the checkpoint is loadable, not just byte-stable
        load_checkpoint(out)
    ok = blobs[0] == blobs[1]
    report(capsys, 8, ok,
           "repeated training runs produced bitwise-identical checkpoints "
           "and metrics CSVs")
