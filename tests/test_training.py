import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from gstgec.corpus import SENTINEL, SentencePair, tokenize
from gstgec.corruption import ALL_RULES, corrupt_corpus, corrupt_sentence, \
    generate_clean_corpus
from gstgec.labels import Kind, correct_iteratively, extract_labels, \
    measure_error_rate
from gstgec import training
from gstgec.model import AdamState, GecModel, loss_only
from gstgec.sampling import SamplingConfig, SamplingMode
from gstgec.training import TrainingConfig, build_dataset, build_vocabs, \
    metrics_csv, run_gst, synthesize_dataset, synthesize_example, train_epoch


def small_run_setup(n=60, seed=21, rate=0.3):
    rng = np.random.default_rng(seed)
    clean = generate_clean_corpus(n, rng)
    pairs = corrupt_corpus(clean, rate=rate, rng=rng)
    token_vocab, label_vocab = build_vocabs(pairs)
    model = GecModel.create(token_vocab, label_vocab, seed=seed, dim=16,
                            layers=1, heads=2, max_len=32)
    return pairs, model


def test_train_epoch_zero_lr_no_change():
    pairs, model = small_run_setup(n=5)
    examples = build_dataset(pairs, model.token_vocab, model.label_vocab)
    before = {k: v.copy() for k, v in model.params.items()}
    cfg = TrainingConfig(lr=0.0)
    train_epoch(model, examples[:1], cfg, AdamState(),
                np.random.default_rng(0))
    for k in model.params:
        assert np.array_equal(model.params[k], before[k])


def test_train_epoch_loss_decreases():
    pairs, model = small_run_setup(n=10)
    examples = build_dataset(pairs, model.token_vocab, model.label_vocab)
    cfg = TrainingConfig(lr=2e-3, batch_size=4)
    opt = AdamState()
    rng = np.random.default_rng(1)
    losses = [train_epoch(model, examples, cfg, opt, rng)
              for _ in range(10)]
    assert losses[-1] < losses[0]


def test_train_epoch_determinism():
    def run():
        pairs, model = small_run_setup(n=12)
        examples = build_dataset(pairs, model.token_vocab, model.label_vocab)
        cfg = TrainingConfig(lr=1e-3, batch_size=4)
        train_epoch(model, examples, cfg, AdamState(),
                    np.random.default_rng(2))
        return model.params

    a, b = run(), run()
    for k in a:
        assert a[k].tobytes() == b[k].tobytes()


def test_train_epoch_empty_dataset():
    _, model = small_run_setup(n=2)
    with pytest.raises(ValueError):
        train_epoch(model, [], TrainingConfig(), AdamState(),
                    np.random.default_rng(0))


def test_synthesize_beta_dominance(toy_model, toy_pairs):
    cfg = TrainingConfig(gamma=0.0, beta=1.5)
    for k, pair in enumerate(toy_pairs[:30]):
        gold = extract_labels(pair)
        syn = synthesize_example(toy_model, pair, gold, k, cfg,
                                 np.random.default_rng(k))
        if syn is None:
            continue  # error score exactly zero never happens in practice
        assert syn.source == pair.source
        assert syn.labels == gold


def test_synthesize_keeps_a_sentinel_whose_row_has_no_admitted_mass(
        monkeypatch):
    # an overflowing model can put all of the sentinel row's mass on
    # labels the sentinel does not admit; masking them leaves no mass
    pairs, model = small_run_setup(n=20)
    pair = next(p for p in pairs if p.source != p.target)
    n, vocab = len(pair.source), model.label_vocab
    gel = np.eye(len(vocab))[np.zeros(n, dtype=int)]
    gel[0] = np.eye(len(vocab))[vocab.labels.index("$DEL")]
    ged = np.tile([0.0, 1.0], (n, 1))
    monkeypatch.setattr(model, "forward_tokens", lambda tokens: (ged, gel))
    gold = extract_labels(pair)
    cfg = TrainingConfig(gamma=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        syn = synthesize_example(model, pair, gold, 0, cfg,
                                 np.random.default_rng(0))
    assert syn.source == pair.source and syn.labels == gold


def test_synthesize_huge_gamma_returns_none(toy_model, toy_pairs):
    pair = toy_pairs[0]
    cfg = TrainingConfig(gamma=1e9, beta=0.0)
    assert synthesize_example(toy_model, pair, extract_labels(pair), 0,
                              cfg, np.random.default_rng(0)) is None


def test_synthesize_realign_reaches_gold_target(toy_model, toy_pairs):
    cfg = TrainingConfig(gamma=0.0, beta=0.2)
    checked = 0
    for k, pair in enumerate(toy_pairs):
        gold = extract_labels(pair)
        syn = synthesize_example(toy_model, pair, gold, k, cfg,
                                 np.random.default_rng((5, k)))
        if syn is None:
            continue
        final, _ = correct_iteratively(syn.source, pair.target)
        assert final == pair.target
        checked += 1
    assert checked >= len(toy_pairs) // 2


@pytest.mark.filterwarnings("ignore:input of")
@pytest.mark.parametrize("mode", list(SamplingMode))
def test_synthesize_example_past_the_window(toy_model, long_toy_pair, mode):
    pair = long_toy_pair
    beyond = len(pair.source) - toy_model.cfg.max_len
    gold = extract_labels(pair)
    cfg = TrainingConfig(gamma=0.0, beta=0.0,
                         sampling=SamplingConfig(mode=mode))
    changed = 0
    for k in range(10):
        syn = synthesize_example(toy_model, pair, gold, k, cfg,
                                 np.random.default_rng(k))
        assert len(syn.labels) == len(syn.source)
        assert syn.source[0] == SENTINEL
        if mode is not SamplingMode.RANDOM:
            # positions past the window are certain keeps
            assert syn.source[-beyond:] == pair.source[-beyond:]
        changed += syn.source != pair.source
    assert changed > 0


@pytest.mark.filterwarnings("ignore:input of")
def test_run_gst_trains_synthesizes_and_evaluates_past_the_window(
        long_toy_pair):
    pairs, _ = small_run_setup(n=20)
    long_pairs = [long_toy_pair, SentencePair(long_toy_pair.target,
                                              long_toy_pair.target)]
    model = GecModel.create(*build_vocabs(pairs + long_pairs), seed=21,
                            dim=16, layers=1, heads=2, max_len=32)
    cfg = TrainingConfig(stages=2, epochs_per_stage=1, gamma=0.0, lr=1e-3,
                         seed=21)
    _, metrics = run_gst(model, pairs + long_pairs, cfg,
                         heldout_pairs=long_pairs)
    assert all(np.isfinite(m.epoch_losses).all() for m in metrics)
    assert all(m.eval is not None for m in metrics)
    assert metrics[1].synthetic_count == len(pairs) + 2


def test_synthetic_error_rate_monotone_in_beta(toy_model, toy_pairs):
    rates = []
    for beta in (0.0, 0.2, 0.5, 1.5):
        cfg = TrainingConfig(gamma=0.0, beta=beta)
        syn = synthesize_dataset(toy_model, toy_pairs,
                                 [extract_labels(p) for p in toy_pairs],
                                 stage=1, cfg=cfg, base_seed=77)
        sampled_edits = 0
        total = 0
        for s, pair in zip(syn, toy_pairs):
            # count positions where the synthetic source departs from the
            # genuine source: the sampled non-keep decisions
            sampled_edits += sum(a != b for a, b in
                                 zip(s.source, pair.source))
            sampled_edits += abs(len(s.source) - len(pair.source))
            total += len(pair.source)
        rates.append(sampled_edits / total)
    assert rates == sorted(rates, reverse=True)
    assert rates[-1] == 0.0  # beta >= 1: nothing sampled


def test_synthesis_fraction_shrinks_with_gamma(toy_model, toy_pairs):
    gold = [extract_labels(p) for p in toy_pairs]
    counts = []
    for gamma in (0.0, 0.5, 1.5, 1e9):
        cfg = TrainingConfig(gamma=gamma, beta=0.5)
        syn = synthesize_dataset(toy_model, toy_pairs, gold, stage=1,
                                 cfg=cfg, base_seed=31)
        counts.append(len(syn))
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 0


@pytest.mark.parametrize("mode", list(SamplingMode))
def test_synthesize_dataset_draws_each_example_from_its_own_stream(
        toy_model, toy_pairs, mode):
    # example k draws from (seed, stage, k) alone, so the set does not
    # depend on which pairs come before k or in what order they run
    seed, stage, m = 23, 3, 120
    cfg = TrainingConfig(gamma=0.5, beta=0.2,
                         sampling=SamplingConfig(mode=mode))
    gold = [extract_labels(p) for p in toy_pairs]
    full = synthesize_dataset(toy_model, toy_pairs, gold, stage, cfg, seed)
    prefix = synthesize_dataset(toy_model, toy_pairs[:m], gold[:m], stage,
                                cfg, seed)
    assert prefix == [syn for syn in full if syn.origin_index < m]
    each = [synthesize_example(toy_model, pair, gold[k], k, cfg,
                               np.random.default_rng((seed, stage, k)))
            for k, pair in enumerate(toy_pairs)]
    assert full == [syn for syn in each if syn is not None]
    # the gate drops some pairs, and sampling changes some sources
    assert 0 < len(full) < len(toy_pairs)
    assert any(syn.source != toy_pairs[syn.origin_index].source
               for syn in full)


def test_run_gst_single_stage_consumes_no_synthetic():
    pairs, model = small_run_setup(n=20)

    baseline_pairs, baseline = small_run_setup(n=20)
    cfg1 = TrainingConfig(stages=1, epochs_per_stage=2, lr=1e-3, seed=21)
    run_gst(model, pairs, cfg1)

    opt = AdamState()
    rng = np.random.default_rng((21, 0xE))
    examples = build_dataset(baseline_pairs, baseline.token_vocab,
                             baseline.label_vocab)
    for _ in range(2):
        train_epoch(baseline, examples, cfg1, opt, rng)
    for k in model.params:
        assert model.params[k].tobytes() == baseline.params[k].tobytes()


def test_run_gst_beta_dominance_duplicates_genuine():
    pairs, model = small_run_setup(n=15)
    cfg = TrainingConfig(stages=2, epochs_per_stage=1, gamma=0.0, beta=1.5,
                         lr=1e-3, seed=21)
    _, metrics = run_gst(model, pairs, cfg)
    assert len(metrics) == 2
    # stage 2 trained on every genuine sentence resynthesized as an exact
    # duplicate
    assert metrics[1].synthetic_count == len(pairs)


@pytest.mark.parametrize("stages", [1, 3])
def test_run_gst_synthesizes_before_each_later_stage(monkeypatch, stages):
    pairs, model = small_run_setup(n=12)
    calls = []
    inner = training.synthesize_dataset

    def counting(model, pairs, gold, stage, cfg, base_seed):
        calls.append((stage, inner(model, pairs, gold, stage, cfg,
                                   base_seed)))
        return calls[-1][1]

    monkeypatch.setattr(training, "synthesize_dataset", counting)
    cfg = TrainingConfig(stages=stages, gamma=0.0, lr=1e-3, seed=3)
    _, metrics = run_gst(model, pairs, cfg)
    # the model left by stage s synthesizes, keyed by s, what stage s + 1
    # trains on; nothing is built after the last stage
    assert [stage for stage, _ in calls] == list(range(1, stages))
    assert [m.synthetic_count for m in metrics] == [0] + [
        len(syn) for _, syn in calls]
    assert metrics[0].synthetic_error_rate == 0.0


def test_run_gst_metrics_and_csv():
    pairs, model = small_run_setup(n=20)
    heldout = pairs[:4]
    cfg = TrainingConfig(stages=3, epochs_per_stage=2, gamma=0.2, beta=0.3,
                         lr=1e-3, seed=4)
    _, metrics = run_gst(model, pairs[4:], cfg, heldout_pairs=heldout)
    assert [m.stage for m in metrics] == [1, 2, 3]
    assert all(len(m.epoch_losses) == 2 for m in metrics)
    assert all(m.eval is not None for m in metrics)
    csv = metrics_csv(metrics)
    lines = csv.strip().split("\n")
    assert lines[0] == ("stage,epoch,train_loss,precision,recall,f_half,"
                        "synthetic_count,synthetic_error_rate")
    assert len(lines) == 1 + 3 * 2
    # every row of a stage carries the synthetic set it trained on
    rows = [line.split(",") for line in lines[1:]]
    assert [row[6:] for row in rows[:2]] == [["0", "0.0000"]] * 2
    for m, stage_rows in zip(metrics, (rows[0:2], rows[2:4], rows[4:6])):
        for row in stage_rows:
            assert row[6:] == [str(m.synthetic_count),
                               f"{m.synthetic_error_rate:.4f}"]
    assert metrics[1].synthetic_count > 0


def test_run_gst_determinism():
    def run():
        pairs, model = small_run_setup(n=15)
        cfg = TrainingConfig(stages=2, epochs_per_stage=1, gamma=0.1,
                             beta=0.2, lr=1e-3, seed=8)
        model, _ = run_gst(model, pairs, cfg)
        return model.params

    a, b = run(), run()
    for k in a:
        assert a[k].tobytes() == b[k].tobytes()


def run_snapshot(state):
    """Everything training changes in a run state, as comparable bytes."""
    opt = state.opt_state
    return ([a.tobytes() for a in state.model.params.values()],
            None if opt.m is None else opt.m.tobytes(),
            None if opt.v is None else opt.v.tobytes(), opt.t,
            state.epoch_rng.bit_generator.state, state.stage)


@pytest.mark.parametrize("trained", [0, 1])
def test_training_a_fork_leaves_its_parent_unchanged(trained):
    pairs, model = small_run_setup(n=20)
    cfg = TrainingConfig(stages=trained + 2, gamma=0.1, beta=0.2, lr=1e-3,
                         seed=8)
    state = training.start_run(model, pairs, cfg)
    for _ in range(trained):
        training.train_stage(state, cfg, [])
    before = run_snapshot(state)
    fork = state.fork()
    assert run_snapshot(fork) == before
    training.run_stages(fork, cfg)
    assert run_snapshot(state) == before
    assert run_snapshot(fork)[0] != before[0]
    assert fork.stage == cfg.stages
    # what no stage changes is shared, not copied
    assert fork.genuine is state.genuine
    assert fork.gold_labels is state.gold_labels
    assert fork.model.label_vocab is state.model.label_vocab


def test_forked_continuation_equals_the_unforked_run():
    cfg = TrainingConfig(stages=3, epochs_per_stage=2, gamma=0.1, beta=0.2,
                         lr=1e-3, seed=8)
    pairs, model = small_run_setup(n=24)
    heldout, train = pairs[:4], pairs[4:]
    state = training.start_run(model, train, cfg)
    first = training.train_stage(state, cfg, [], heldout)
    fork = state.fork()
    metrics = [first] + training.run_stages(fork, cfg, heldout)

    ref_pairs, ref_model = small_run_setup(n=24)
    _, ref = run_gst(ref_model, ref_pairs[4:], cfg, heldout_pairs=heldout)
    assert metrics == ref
    for k, a in ref_model.params.items():
        assert fork.model.params[k].tobytes() == a.tobytes()


def test_run_gst_equals_a_started_run_trained_in_pieces():
    cfg = TrainingConfig(stages=3, epochs_per_stage=1, gamma=0.1, beta=0.2,
                         lr=1e-3, seed=8)
    pairs, model = small_run_setup(n=15)
    state = training.start_run(model, pairs, cfg)
    metrics = (training.run_stages(state, replace(cfg, stages=1))
               + training.run_stages(state, cfg))

    ref_pairs, ref_model = small_run_setup(n=15)
    returned, ref = run_gst(ref_model, ref_pairs, cfg)
    assert returned is ref_model
    assert metrics == ref
    assert state.stage == cfg.stages
    for k, a in ref_model.params.items():
        assert model.params[k].tobytes() == a.tobytes()


def test_stages_without_synthesis_equal_one_long_stage():
    pairs, model = small_run_setup(n=20)
    long = TrainingConfig(stages=1, epochs_per_stage=4, lr=1e-3, seed=21)
    _, ref = run_gst(model, pairs, long)

    short_pairs, short_model = small_run_setup(n=20)
    short = TrainingConfig(stages=2, epochs_per_stage=2, lr=1e-3, seed=21)
    state = training.start_run(short_model, short_pairs, short)
    metrics = [training.train_stage(state, short, []) for _ in range(2)]
    assert [m.stage for m in metrics] == [1, 2]
    assert [x for m in metrics for x in m.epoch_losses] == \
        ref[0].epoch_losses
    for k, a in model.params.items():
        assert short_model.params[k].tobytes() == a.tobytes()


def test_training_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(stages=0)
    with pytest.raises(ValueError):
        TrainingConfig(synthesis_pairing="bogus")
    with pytest.raises(ValueError):
        TrainingConfig(synthesis_pairing="literal")
    with pytest.raises(ValueError):
        TrainingConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        TrainingConfig(seed=-1)


@pytest.mark.parametrize("field", ["gamma", "beta"])
def test_training_config_rejects_nan_gate(field):
    with pytest.raises(ValueError):
        TrainingConfig(**{field: float("nan")})


@pytest.mark.parametrize("n,batch_size", [(10, 4), (12, 4), (5, 16), (7, 1)])
def test_train_epoch_one_loss_call_per_batch(monkeypatch, n, batch_size):
    pairs, model = small_run_setup(n=n)
    examples = build_dataset(pairs, model.token_vocab, model.label_vocab)
    calls = []
    inner = training.loss_and_grads

    def counting(params, ids, *args, **kwargs):
        calls.append(len(ids))
        return inner(params, ids, *args, **kwargs)

    monkeypatch.setattr(training, "loss_and_grads", counting)
    train_epoch(model, examples, TrainingConfig(batch_size=batch_size),
                AdamState(), np.random.default_rng(0))
    assert len(calls) == -(-len(examples) // batch_size)
    assert sum(calls) == len(examples)


def test_train_epoch_returns_mean_sentence_loss():
    pairs, model = small_run_setup(n=9)
    examples = build_dataset(pairs, model.token_vocab, model.label_vocab)
    before = [loss_only(model.params, [ex.src_ids], [ex.label_ids],
                        model.cfg)
              for ex in examples]
    # lr 0 leaves the weights alone, so every batch sees the same model
    loss = train_epoch(model, examples, TrainingConfig(lr=0.0, batch_size=4),
                       AdamState(), np.random.default_rng(0))
    assert loss == pytest.approx(np.mean(before), rel=1e-5)


def test_corrupt_rate_zero_identity():
    rng = np.random.default_rng(0)
    clean = generate_clean_corpus(20, rng)
    pairs = corrupt_corpus(clean, rate=0.0, rng=rng)
    for pair in pairs:
        assert pair.source == pair.target
        labs = extract_labels(pair)
        assert all(lab.kind is Kind.KEP for lab in labs)


def test_corrupt_case_rule_rate_one():
    rng = np.random.default_rng(1)
    pair = corrupt_sentence(tokenize("he ran home"), rate=1.0, rng=rng,
                            rules=("case",))
    assert pair.source == tokenize("He Ran Home")


def test_corrupt_empty_corpus_rejected():
    with pytest.raises(ValueError):
        corrupt_corpus([], rate=0.1, rng=np.random.default_rng(0))


def test_corrupt_unknown_rule_matches_nothing():
    rng = np.random.default_rng(1)
    clean = tokenize("he ran home")
    assert corrupt_sentence(clean, 1.0, rng, rules=("bogus",)).source == clean
    pair = corrupt_sentence(clean, 1.0, rng, rules=("bogus", "case"))
    assert pair.source == tokenize("He Ran Home")


def test_corrupt_corpus_streams_are_pinned():
    # every benchmark input and acceptance gate is built from these
    # streams: the corrupted pairs and the generator state after them
    digest = hashlib.sha256()
    for seed in range(5):
        for rate in (0.1, 0.3, 1.0):
            for rules in (ALL_RULES, ("verb_form",),
                          ("article_del", "noun_num", "bogus")):
                rng = np.random.default_rng(seed)
                pairs = corrupt_corpus(generate_clean_corpus(200, rng), rate,
                                       rng, rules)
                digest.update(repr([(p.source, p.target)
                                    for p in pairs]).encode())
                digest.update(repr(rng.random()).encode())
    assert digest.hexdigest() == ("d076156665976bf5ea9d03c9daf03718"
                                  "875e7e4e42e4733ef0c57c01ce09d54f")


def test_corrupt_measured_error_rate_tracks_config():
    rng = np.random.default_rng(2)
    clean = generate_clean_corpus(10_000, rng)
    for rate in (0.1, 0.3):
        pairs = corrupt_corpus(clean, rate=rate, rng=rng)
        measured = float(np.mean([
            measure_error_rate(extract_labels(p)) for p in pairs]))
        assert measured == pytest.approx(rate, abs=0.05)


def reference_synthesize_example(model, pair, gold_labels, origin_index,
                                 cfg, rng):
    """Position-by-position sampler that the vectorized one replaced: one
    noise row (or one baseline draw) per position, masks rebuilt from
    the label strings."""
    from gstgec.inference import sentence_error_score
    from gstgec.labels import KEEP, apply_labels, parse_label
    from gstgec.model import forward
    from gstgec.sampling import relax_with_noise, sample_gumbel, \
        sample_label
    from gstgec.training import SyntheticExample

    vocab = model.label_vocab
    kinds = [None if s == "$UNK" else parse_label(s).kind
             for s in vocab.labels]
    ged, gel = forward(model.params, model.token_vocab.encode(pair.source),
                       model.cfg)
    if sentence_error_score(ged) <= cfg.gamma:
        return None
    sampled = []
    for pos, row in enumerate(gel):
        probs = np.asarray(row, dtype=np.float64).copy()
        if pos == 0:
            allowed = np.zeros_like(probs)
            allowed[0] = probs[0]
            for idx, kind in enumerate(kinds):
                if kind is Kind.APP:
                    allowed[idx] = probs[idx]
            probs = allowed
        probs /= probs.sum()
        if cfg.sampling.mode is SamplingMode.GUMBEL_SOFTMAX:
            noise = sample_gumbel(len(probs), rng)
            relaxed = relax_with_noise(probs, noise, cfg.sampling.tau)
            relaxed[0] += cfg.beta
            idx = int(np.argmax(relaxed))
        else:
            idx = sample_label(probs, cfg.sampling, rng)
        text = vocab.labels[idx]
        label = None if text == "$UNK" else parse_label(text)
        if label is None:
            label = KEEP
        if pos == 0 and label.kind not in (Kind.KEP, Kind.APP):
            label = KEEP
        sampled.append(label)
    synthetic_source = apply_labels(pair.source, sampled)
    labels = extract_labels(SentencePair(synthetic_source, pair.target))
    return SyntheticExample(synthetic_source, labels, origin_index)


@pytest.mark.parametrize("mode", list(SamplingMode))
def test_synthesize_example_matches_per_position_reference(
        toy_model, toy_pairs, mode):
    cfg = TrainingConfig(gamma=0.0, beta=0.2,
                         sampling=SamplingConfig(mode=mode, tau=0.7))
    changed = 0
    for k, pair in enumerate(toy_pairs[:60]):
        gold = extract_labels(pair)
        got = synthesize_example(toy_model, pair, gold, k, cfg,
                                 np.random.default_rng((5, k)))
        want = reference_synthesize_example(toy_model, pair, gold, k, cfg,
                                            np.random.default_rng((5, k)))
        assert got == want, k
        changed += got.source != pair.source
    assert changed > 0  # the comparison covers sampled edits, not only keeps
