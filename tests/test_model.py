import copy
import pickle

import numpy as np
import pytest

from gstgec.errors import NonFiniteGradientError
from gstgec.model import ADAM, ADAM_CHUNK, AdamState, ModelConfig, \
    _encode_fwd, _pad_batch, adam_step, flat_params, forward, init_params, \
    loss_and_grads, loss_only, param_shapes

from oracles import finite_difference_check


def small_cfg(**kw):
    base = dict(vocab_size=20, num_labels=7, dim=16, layers=2, heads=2,
                max_len=16, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def random_input(cfg, rng):
    """A batch of one random sentence: ([ids], [labels])."""
    n = int(rng.integers(2, 7))
    ids = rng.integers(0, cfg.vocab_size, size=n)
    labels = rng.integers(0, cfg.num_labels, size=n)
    return [ids], [labels]


def test_encode_zeroed_projections_is_embedding_sum():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for l in range(cfg.layers):
        for name in ("Wo", "bo", "W2", "b2"):
            params[f"blk{l}.{name}"][:] = 0
    ids = np.array([1, 2, 3])
    x = _encode_fwd(params, ids[None], cfg)[0]
    assert np.allclose(x, params["tok_emb"][ids] + params["pos_emb"][:3])


def test_encode_sentinel_only_input():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    x = _encode_fwd(params, np.array([[0]]), cfg)[0]
    assert x.shape == (1, cfg.dim)


def test_encode_position_sensitivity():
    cfg = small_cfg()
    params = init_params(cfg, 1)
    a = _encode_fwd(params, np.array([[0, 3, 4, 5]]), cfg)[0]
    b = _encode_fwd(params, np.array([[0, 4, 3, 5]]), cfg)[0]
    assert not np.allclose(a[1], b[1])
    assert not np.allclose(a[2], b[2])


def test_encode_deterministic():
    cfg = small_cfg()
    ids = np.array([0, 5, 9])
    x1 = _encode_fwd(init_params(cfg, 2), ids[None], cfg)[0]
    x2 = _encode_fwd(init_params(cfg, 2), ids[None], cfg)[0]
    assert x1.tobytes() == x2.tobytes()


def test_forward_keeps_positions_past_the_window():
    cfg = small_cfg(max_len=4)
    params = init_params(cfg, 0)
    ids = np.arange(1, 10)
    with pytest.warns(UserWarning):
        ged, gel = forward(params, ids, cfg)
    head_ged, head_gel = forward(params, ids[:4], cfg)
    assert ged.shape == (9, 2) and gel.shape == (9, cfg.num_labels)
    assert ged[:4].tobytes() == head_ged.tobytes()
    assert gel[:4].tobytes() == head_gel.tobytes()
    assert (ged[4:] == [1, 0]).all()
    assert (gel[4:] == np.eye(cfg.num_labels)[0]).all()


def test_loss_and_grads_truncates_labels_with_ids():
    cfg = small_cfg(max_len=4)
    params = init_params(cfg, 1)
    rng = np.random.default_rng(1)
    ids, labels = random_batch(cfg, rng, (9, 3, 6))
    with pytest.warns(UserWarning):
        loss, grads = loss_and_grads(params, ids, labels, cfg)
    want, want_grads = loss_and_grads(
        params, *([s[:4] for s in seqs] for seqs in (ids, labels)), cfg)
    assert loss == want
    for name in params:
        assert grads[name].tobytes() == want_grads[name].tobytes(), name


def test_forward_zero_heads_uniform():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for name in ("ged_W", "ged_b", "gel_W", "gel_b"):
        params[name][:] = 0
    ged, gel = forward(params, np.array([1, 2, 3]), cfg)
    assert np.allclose(ged, 0.5)
    assert np.allclose(gel, 1.0 / cfg.num_labels)


def test_forward_rows_sum_to_one():
    cfg = small_cfg()
    params = init_params(cfg, 4)
    ged, gel = forward(params, np.array([1, 2, 3, 4]), cfg)
    assert np.allclose(ged.sum(1), 1.0, atol=1e-6)
    assert np.allclose(gel.sum(1), 1.0, atol=1e-6)


def test_forward_logit_bonus_dominates():
    cfg = small_cfg()
    params = init_params(cfg, 4)
    params["gel_b"][:] = 0
    params["gel_b"][3] = 10.0
    params["gel_W"][:] = 0
    _, gel = forward(params, np.array([1, 2]), cfg)
    assert (gel.argmax(1) == 3).all()


def test_loss_uniform_heads_value():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for name in ("ged_W", "ged_b", "gel_W", "gel_b"):
        params[name][:] = 0
    ids = np.array([1, 2, 3])
    val = loss_only(params, [ids], [np.array([0, 1, 2])], cfg)
    assert val == pytest.approx(np.log(2) + np.log(cfg.num_labels), rel=1e-6)


def test_detection_target_is_every_non_keep_label():
    # id 0 is keep and id 1 the unknown label: only keep is a
    # non-error target for the detection head
    cfg = small_cfg()
    params = init_params(cfg, 2)
    ids = np.array([0, 4, 9, 2, 7, 11])
    labels = np.array([0, 1, 3, 0, 1, 6])
    loss, _ = loss_and_grads(params, [ids], [labels], cfg)
    ged, gel = forward(params, ids, cfg)
    rows = np.arange(len(ids))
    want = -np.mean(np.log(ged[rows, (labels != 0).astype(int)])
                    + np.log(gel[rows, labels]))
    assert loss == pytest.approx(want, rel=0, abs=1e-12)


def test_loss_rejects_bad_label_ids():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        loss_and_grads(params, [np.array([1, 2])], [np.array([0, 99])], cfg)


def test_loss_rejects_length_mismatch():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        loss_and_grads(params, [np.array([1, 2])], [np.array([0])], cfg)


def test_training_smoke_loss_decreases():
    cfg = small_cfg(dtype="float32")
    rng = np.random.default_rng(0)
    params = init_params(cfg, 0)
    batch = [random_input(cfg, rng) for _ in range(10)]
    state = AdamState()

    def total():
        return sum(loss_only(params, *ex, cfg) for ex in batch)

    first = total()
    for _ in range(50):
        for ids, labels in batch:
            _, grads = loss_and_grads(params, ids, labels, cfg)
            adam_step(params, grads, state, lr=1e-3)
    assert total() < first


def test_adam_zero_gradient_no_change():
    cfg = small_cfg()
    params = init_params(cfg, 1)
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    adam_step(params, grads, AdamState(), lr=0.1)
    for k in params:
        assert np.array_equal(params[k], before[k])


def test_adam_first_step_hand_value():
    # w=1, g=1, lr=0.1, fresh state: update is lr * mhat/(sqrt(vhat)+eps)
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([1.0])}
    adam_step(params, grads, AdamState(), lr=0.1)
    assert params["w"][0] == pytest.approx(0.9, abs=1e-6)


def test_adam_rejects_non_finite():
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([np.nan])}
    with pytest.raises(NonFiniteGradientError):
        adam_step(params, grads, AdamState(), lr=0.1)


def reference_adam_step(params, grads, state, lr):
    """The per-tensor Adam update that adam_step's chunked pass over one
    vector must equal bitwise.  state is {"m": {}, "v": {}, "t": 0}."""
    beta1, beta2, eps = ADAM
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
    state["t"] += 1
    t = state["t"]
    for name, g in grads.items():
        if name not in state["m"]:
            state["m"][name] = np.zeros_like(params[name])
            state["v"][name] = np.zeros_like(params[name])
        m = state["m"][name]
        v = state["v"][name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        params[name] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(
            params[name].dtype)


def chunked_cfg(dtype):
    # about 125K weights: the update runs over several chunks
    return ModelConfig(vocab_size=400, num_labels=30, dim=64, layers=2,
                       heads=2, max_len=16, dtype=dtype)


def random_grads(params, rng):
    # mixed scales, and one all-zero tensor
    grads = {k: (rng.standard_normal(v.shape)
                 * 10.0 ** rng.integers(-6, 2)).astype(v.dtype)
             for k, v in params.items()}
    grads["blk0.bq"][:] = 0
    return grads


def assert_same_bytes(a, b):
    assert list(a) == list(b)
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def moments(state, params):
    return (np.concatenate([state["m"][k] for k in params], axis=None),
            np.concatenate([state["v"][k] for k in params], axis=None))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_adam_step_equals_per_tensor_reference_bitwise(dtype):
    cfg = chunked_cfg(dtype)
    params = init_params(cfg, 3)
    assert flat_params(params).size > 3 * ADAM_CHUNK
    ref = {k: v.copy() for k, v in params.items()}
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    rng = np.random.default_rng(0)
    for lr in (1e-3, 2e-3, 1e-2, 1e-3):
        grads = random_grads(params, rng)
        adam_step(params, grads, state, lr)
        reference_adam_step(ref, grads, ref_state, lr)
        assert_same_bytes(params, ref)
        m, v = moments(ref_state, ref)
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()
        assert state.t == ref_state["t"]


@pytest.mark.parametrize("name", ["tok_emb", "gel_W"])
def test_adam_step_names_a_non_finite_tensor_and_changes_nothing(name):
    cfg = chunked_cfg("float32")
    params = init_params(cfg, 3)
    state = AdamState()
    rng = np.random.default_rng(1)
    adam_step(params, random_grads(params, rng), state, 1e-3)
    before = {k: v.copy() for k, v in params.items()}
    m, v = state.m.copy(), state.v.copy()
    grads = random_grads(params, rng)
    grads[name][-1, -1] = np.nan
    with pytest.raises(NonFiniteGradientError, match=f"in {name}$"):
        adam_step(params, grads, state, 1e-3)
    assert_same_bytes(params, before)
    assert state.m.tobytes() == m.tobytes()
    assert state.v.tobytes() == v.tobytes()
    assert state.t == 1


def test_adam_step_on_gradients_whose_squares_overflow_equals_reference():
    # the non-finite screen is a dot product, which overflows on these
    # finite gradients, so the exact check must let the step run
    cfg = chunked_cfg("float32")
    params = init_params(cfg, 3)
    ref = {k: v.copy() for k, v in params.items()}
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    grads = random_grads(params, np.random.default_rng(5))
    grads["gel_b"][:] = 1e20
    with np.errstate(over="ignore"):
        assert not np.isfinite(grads["gel_b"] @ grads["gel_b"])
        adam_step(params, grads, state, 1e-3)
        reference_adam_step(ref, grads, ref_state, 1e-3)
    assert_same_bytes(params, ref)
    m, v = moments(ref_state, ref)
    assert state.m.tobytes() == m.tobytes()
    assert state.v.tobytes() == v.tobytes()


def test_init_params_are_views_of_one_vector():
    params = init_params(small_cfg(), 0)
    arrays = list(params.values())
    flat = flat_params(params)
    assert all(a is b for a, b in zip(arrays, params.values()))
    assert all(a.base is flat for a in arrays)
    assert flat.tobytes() == b"".join(a.tobytes() for a in arrays)


def test_adam_step_packs_a_replaced_entry_and_updates_it():
    cfg = chunked_cfg("float32")
    params = init_params(cfg, 3)
    ref = {k: v.copy() for k, v in params.items()}
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    rng = np.random.default_rng(2)
    for step in range(3):
        if step == 1:
            params["gel_W"] = params["gel_W"] + 1
            ref["gel_W"] = ref["gel_W"] + 1
        grads = random_grads(params, rng)
        adam_step(params, grads, state, 1e-3)
        reference_adam_step(ref, grads, ref_state, 1e-3)
        assert_same_bytes(params, ref)
    assert params["gel_W"].base is params["tok_emb"].base


@pytest.mark.parametrize("copy_pair", [
    copy.deepcopy, lambda pair: pickle.loads(pickle.dumps(pair))],
    ids=["deepcopy", "pickle"])
def test_adam_step_continues_a_copied_model_and_state(copy_pair):
    cfg = chunked_cfg("float32")
    params = init_params(cfg, 3)
    state = AdamState()
    rng = np.random.default_rng(4)
    adam_step(params, random_grads(params, rng), state, 1e-3)
    params_copy, state_copy = copy_pair((params, state))
    for _ in range(2):
        grads = random_grads(params, rng)
        adam_step(params, grads, state, 1e-3)
        adam_step(params_copy, grads, state_copy, 1e-3)
    assert_same_bytes(params_copy, params)
    assert state_copy.m.tobytes() == state.m.tobytes()
    assert state_copy.v.tobytes() == state.v.tobytes()
    assert state_copy.t == state.t == 3
    assert params_copy["tok_emb"].base is not params["tok_emb"].base


def test_adam_step_rejects_grads_for_other_names():
    params = {"w": np.array([1.0]), "u": np.array([2.0])}
    with pytest.raises(ValueError):
        adam_step(params, {"w": np.array([1.0])}, AdamState(), lr=0.1)


def test_training_determinism():
    cfg = small_cfg(dtype="float32")

    def run():
        rng = np.random.default_rng(5)
        params = init_params(cfg, 5)
        state = AdamState()
        for _ in range(2):
            ids, labels = random_input(cfg, rng)
            _, grads = loss_and_grads(params, ids, labels, cfg)
            adam_step(params, grads, state, lr=1e-3)
        return params

    a, b = run(), run()
    for k in a:
        assert a[k].tobytes() == b[k].tobytes()


def test_param_shapes_cover_params():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    shapes = dict(param_shapes(cfg))
    assert list(params) == list(shapes)
    for name, shape in shapes.items():
        assert params[name].shape == shape


# ---------------------------------------------------------------------------
# Batched training path
# ---------------------------------------------------------------------------


def batch_cfg(**kw):
    base = dict(vocab_size=12, num_labels=5, dim=8, layers=1, heads=2,
                max_len=8, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def random_batch(cfg, rng, lengths):
    ids = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
    labels = [rng.integers(0, cfg.num_labels, size=n) for n in lengths]
    return ids, labels


def test_padded_batch_gradients_match_finite_differences():
    # the oracle is the mean of unpadded per-sentence losses, so a mask
    # that leaked padding into any sentence would fail here too
    cfg = batch_cfg(layers=2)
    rng = np.random.default_rng(3)
    params = init_params(cfg, 3)
    ids, labels = random_batch(cfg, rng, (2, 6, 4))
    _, grads = loss_and_grads(params, ids, labels, cfg)

    def mean_loss():
        return np.mean([loss_only(params, [s], [lab], cfg)
                        for s, lab in zip(ids, labels)])

    assert finite_difference_check(params, grads, mean_loss)[0] < 1e-3


def test_batch_gradients_are_the_mean_of_sentence_gradients():
    cfg = small_cfg()
    rng = np.random.default_rng(5)
    params = init_params(cfg, 5)
    ids, labels = random_batch(cfg, rng, (7, 1, 4, 7, 3))
    loss, grads = loss_and_grads(params, ids, labels, cfg)
    singles = [loss_and_grads(params, [s], [lab], cfg)
               for s, lab in zip(ids, labels)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]),
                                 rel=0, abs=1e-10)
    assert list(grads) == list(params)
    for name, g in grads.items():
        mean = np.mean([s[1][name] for s in singles], axis=0)
        np.testing.assert_allclose(g, mean, rtol=0, atol=1e-10,
                                   err_msg=name)


def test_padded_positions_get_no_gradient():
    cfg = small_cfg()
    params = init_params(cfg, 6)
    # padding uses id 0, which no sentence holds; only the long sentence
    # reaches positions 2..5
    ids = [np.array([1, 2]), np.array([3, 4, 5, 6, 7, 8])]
    labels = [np.array([0, 1]), np.array([2, 3, 4, 5, 6, 0])]
    _, batch = loss_and_grads(params, ids, labels, cfg)
    _, long_only = loss_and_grads(params, [ids[1]], [labels[1]], cfg)
    assert not batch["tok_emb"][0].any()
    assert not batch["pos_emb"][6:].any()
    np.testing.assert_allclose(batch["pos_emb"][2:6],
                               0.5 * long_only["pos_emb"][2:6],
                               rtol=0, atol=1e-12)


def encoded_rows(params, batch, cfg):
    """Each sentence's valid rows of one padded encoder pass."""
    zeros = [np.zeros(len(s), dtype=np.int64) for s in batch]
    ids, _, _, _, key_bias = _pad_batch(batch, zeros, cfg,
                                        np.dtype(cfg.dtype))
    x, _ = _encode_fwd(params, ids, cfg, key_bias)
    x = x.reshape(*ids.shape, cfg.dim)
    return [x[b, :len(s)] for b, s in enumerate(batch)]


def test_longer_sentence_leaves_other_rows_unchanged():
    cfg = small_cfg(max_len=32)
    params = init_params(cfg, 7)
    rng = np.random.default_rng(7)
    batch = [rng.integers(0, cfg.vocab_size, size=n) for n in (3, 5, 4)]
    longer = rng.integers(0, cfg.vocab_size, size=20)
    before = encoded_rows(params, batch, cfg)
    after = encoded_rows(params, batch + [longer], cfg)
    for sentence, a, b in zip(batch, before, after):
        # padding only reorders float sums; unmasked keys would move
        # these rows by orders of magnitude more
        np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)
        alone, _ = _encode_fwd(params, sentence[None], cfg)
        np.testing.assert_allclose(a, alone, rtol=0, atol=1e-12)


def reference_encode(params, ids, cfg):
    """The per-sentence encoder that the batched one replaced, kept
    verbatim as the bitwise reference."""
    def softmax(x):
        z = x - x.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    def layer_norm(x, g, b):
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + 1e-5)
        return g * (xc * inv) + b

    def attention(a, prefix):
        n, d = a.shape
        dh = d // cfg.heads
        q = a @ params[prefix + "Wq"] + params[prefix + "bq"]
        k = a @ params[prefix + "Wk"] + params[prefix + "bk"]
        v = a @ params[prefix + "Wv"] + params[prefix + "bv"]
        qh = q.reshape(n, cfg.heads, dh).transpose(1, 0, 2)
        kh = k.reshape(n, cfg.heads, dh).transpose(1, 0, 2)
        vh = v.reshape(n, cfg.heads, dh).transpose(1, 0, 2)
        scale = np.asarray(1.0 / np.sqrt(dh), dtype=a.dtype)
        A = softmax((qh @ kh.transpose(0, 2, 1)) * scale)
        ctxf = (A @ vh).transpose(1, 0, 2).reshape(n, d)
        return ctxf @ params[prefix + "Wo"] + params[prefix + "bo"]

    n = len(ids)
    x = params["tok_emb"][ids] + params["pos_emb"][:n]
    for l in range(cfg.layers):
        p = f"blk{l}."
        a = layer_norm(x, params[p + "ln1_g"], params[p + "ln1_b"])
        x1 = x + attention(a, p)
        f = layer_norm(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        r = np.maximum(f @ params[p + "W1"] + params[p + "b1"], 0)
        x = x1 + (r @ params[p + "W2"] + params[p + "b2"])
    ged = softmax(x @ params["ged_W"] + params["ged_b"])
    gel = softmax(x @ params["gel_W"] + params["gel_b"])
    return x, ged, gel


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_single_sentence_is_bitwise_the_reference_encoder(dtype):
    cfg = small_cfg(dim=32, heads=4, max_len=40, dtype=dtype)
    params = init_params(cfg, 8)
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 16, 40):
        ids = rng.integers(0, cfg.vocab_size, size=n)
        x, ged, gel = reference_encode(params, ids, cfg)
        got_ged, got_gel = forward(params, ids, cfg)
        assert _encode_fwd(params, ids[None], cfg)[0].tobytes() == \
            x.tobytes()
        assert got_ged.tobytes() == ged.tobytes()
        assert got_gel.tobytes() == gel.tobytes()


def test_batch_rejects_mismatched_and_empty_input():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    ids = [np.array([1, 2]), np.array([3])]
    with pytest.raises(ValueError):
        loss_and_grads(params, ids, [np.array([0, 1])], cfg)
    with pytest.raises(ValueError):
        loss_and_grads(params, ids, [np.array([0, 1]), np.array([0, 1])],
                       cfg)
    with pytest.raises(ValueError):
        loss_and_grads(params, [np.array([1]), np.array([], dtype=int)],
                       [np.array([0]), np.array([], dtype=int)], cfg)
    with pytest.raises(ValueError):
        loss_and_grads(params, [], [], cfg)
    # a bare id array is not a batch of one
    with pytest.raises(ValueError, match="sequence of ids"):
        loss_and_grads(params, np.array([1, 2]), np.array([0, 1]), cfg)


def test_negative_layers_rejected():
    with pytest.raises(ValueError):
        small_cfg(layers=-1)
    assert small_cfg(layers=0).layers == 0
