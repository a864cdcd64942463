import numpy as np
import pytest

from gstgec.corpus import SENTINEL, TokenVocab, tokenize
from gstgec.inference import InferenceConfig, biased_argmax, correct, \
    predict_labels, sentence_error_score
from gstgec.labels import Kind, LabelVocab
from gstgec.model import GecModel, TokenDistributions


def make_dists(err_probs, gel=None):
    ged = np.stack([[1 - p, p] for p in err_probs])
    if gel is None:
        gel = np.full((len(err_probs), 3), 1 / 3)
    return TokenDistributions(ged=ged, gel=np.asarray(gel))


def test_sentence_error_score_zero():
    assert sentence_error_score(make_dists([0.0, 0.0, 0.0])) == 0.0


def test_sentence_error_score_sum():
    # sentinel position excluded; four real positions at 0.5 sum to 2
    assert sentence_error_score(make_dists([0.9, 0.5, 0.5, 0.5, 0.5])) \
        == pytest.approx(2.0)


def test_sentence_error_score_additive():
    a = make_dists([0.0, 0.3, 0.4])
    b = make_dists([0.0, 0.2])
    combined = make_dists([0.0, 0.3, 0.4, 0.2])
    assert sentence_error_score(combined) == pytest.approx(
        sentence_error_score(a) + sentence_error_score(b))


VOCAB = LabelVocab(["$KEP", "$UNK", "$DEL", "$REP_x"])


def test_biased_argmax_flips_to_keep():
    row = [0.4, 0.0, 0.15, 0.45]
    label = biased_argmax(row, 0.1, VOCAB)
    assert label.kind is Kind.KEP  # 0.5 > 0.45


def test_biased_argmax_beta_zero_plain():
    row = [0.4, 0.0, 0.15, 0.45]
    assert biased_argmax(row, 0.0, VOCAB).kind is Kind.REP


def test_biased_argmax_beta_ge_one_always_keep():
    rng = np.random.default_rng(0)
    for _ in range(100):
        row = rng.dirichlet(np.ones(4))
        assert biased_argmax(row, 1.0, VOCAB).kind is Kind.KEP


def test_biased_argmax_unknown_label_is_keep():
    row = [0.1, 0.8, 0.05, 0.05]
    assert biased_argmax(row, 0.0, VOCAB).kind is Kind.KEP


def wired_delete_model():
    """Hand-wired model: token "xx" gets a confident DEL and high error
    probability; every other token looks clean and keeps."""
    token_vocab = TokenVocab(["$UNK", SENTINEL, "a", "xx", "b"])
    label_vocab = LabelVocab(["$KEP", "$UNK", "$DEL"])
    model = GecModel.create(token_vocab, label_vocab, seed=0, dim=8,
                            layers=1, heads=2, max_len=16)
    for name, arr in model.params.items():
        arr[:] = 0
    for l in range(model.cfg.layers):
        model.params[f"blk{l}.ln1_g"][:] = 1
        model.params[f"blk{l}.ln2_g"][:] = 1
    xx_id = token_vocab.encode((SENTINEL, "xx"))[1]
    model.params["tok_emb"][xx_id, 0] = 10.0
    del_id = 2
    model.params["gel_W"][0, del_id] = 10.0
    model.params["ged_W"][0, 1] = 10.0
    model.params["ged_b"][:] = [10.0, -10.0]  # clean tokens: err prob ~ 0
    return model


def test_correct_wired_delete_one_round():
    model = wired_delete_model()
    trace = correct(model, tokenize("a xx b"),
                    InferenceConfig(gamma=0.5, beta=0.0))
    assert trace.final == tokenize("a b")
    applied = [r for r in trace.rounds if r.applied]
    assert len(applied) == 1


def test_correct_keep_everywhere_fixed_point(toy_model):
    # a huge keep bias makes every prediction KEP: zero applied rounds
    cfg = InferenceConfig(gamma=0.0, beta=2.0)
    sent = tokenize("the dog chases the ball")
    trace = correct(toy_model, sent, cfg)
    assert trace.final == sent
    assert not any(r.applied for r in trace.rounds)


def test_correct_huge_gamma_never_applies(toy_model):
    cfg = InferenceConfig(gamma=1e9, beta=0.0)
    sent = tokenize("the dog chase the balls")
    trace = correct(toy_model, sent, cfg)
    assert trace.final == sent
    assert not any(r.applied for r in trace.rounds)


def test_correct_terminates_within_max_iters(toy_model, toy_pairs):
    cfg = InferenceConfig(gamma=0.1, beta=0.0, max_iters=3)
    for pair in toy_pairs[:50]:
        trace = correct(toy_model, pair.source, cfg)
        assert len(trace.rounds) <= cfg.max_iters
        assert sum(r.applied for r in trace.rounds) <= cfg.max_iters


def test_beta_monotonicity(toy_model, toy_pairs):
    # positions flagged non-KEP shrink as beta grows
    betas = [0.0, 0.1, 0.5, 1.5]
    for pair in toy_pairs[:100]:
        dists = toy_model.forward_tokens(pair.source)
        previous = None
        for beta in betas:
            labels = predict_labels(toy_model, dists, beta)
            flagged = {i for i, lab in enumerate(labels)
                       if lab.kind is not Kind.KEP}
            if previous is not None:
                assert flagged <= previous
            previous = flagged


def test_gamma_monotonicity(toy_model, toy_pairs):
    gammas = [0.0, 0.5, 1.0, 2.0, 1e9]
    for pair in toy_pairs[:50]:
        counts = []
        for gamma in gammas:
            trace = correct(toy_model, pair.source,
                            InferenceConfig(gamma=gamma, beta=0.0))
            counts.append(sum(r.applied for r in trace.rounds))
        assert counts == sorted(counts, reverse=True)


def test_trace_report_format():
    model = wired_delete_model()
    trace = correct(model, tokenize("a xx b"),
                    InferenceConfig(gamma=0.5, beta=0.0))
    report = trace.report()
    assert "round 1" in report
    assert "final" in report
    assert "$DEL" in report


def test_inference_config_validation():
    with pytest.raises(ValueError):
        InferenceConfig(gamma=-1)
    with pytest.raises(ValueError):
        InferenceConfig(beta=-0.1)
    with pytest.raises(ValueError):
        InferenceConfig(max_iters=0)


@pytest.mark.parametrize("field", ["gamma", "beta"])
def test_inference_config_rejects_nan(field):
    with pytest.raises(ValueError):
        InferenceConfig(**{field: float("nan")})


@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
def test_predict_labels_equals_per_row_biased_argmax(toy_model, toy_pairs,
                                                     beta):
    from gstgec.labels import KEEP, SENTINEL_KINDS

    rng = np.random.default_rng(17)
    num_labels = len(toy_model.label_vocab)
    model_dists = [toy_model.forward_tokens(p.source) for p in toy_pairs[:40]]
    # flat random rows put every label, the sentinel's included, on top
    random_dists = [TokenDistributions(
        ged=np.full((8, 2), 0.5),
        gel=rng.dirichlet(np.full(num_labels, 0.05), size=8))
        for _ in range(40)]
    edits = sentinel_fixes = 0
    for dists in model_dists + random_dists:
        want = [biased_argmax(row, beta, toy_model.label_vocab)
                for row in dists.gel]
        if want[0].kind not in SENTINEL_KINDS:
            want[0] = KEEP
            sentinel_fixes += 1
        got = predict_labels(toy_model, dists, beta)
        assert got == want
        edits += sum(lab.kind is not Kind.KEP for lab in got)
    if beta < 1.0:
        assert edits > 0 and sentinel_fixes > 0
