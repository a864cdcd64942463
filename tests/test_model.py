import numpy as np
import pytest

from gstgec.errors import NonFiniteGradientError
from gstgec.model import AdamState, ModelConfig, adam_step, encode, forward, \
    init_params, loss_and_grads, loss_only, param_shapes


def small_cfg(**kw):
    base = dict(vocab_size=20, num_labels=7, dim=16, layers=2, heads=2,
                max_len=16, dtype="float64")
    base.update(kw)
    return ModelConfig(**base)


def random_input(cfg, rng):
    n = int(rng.integers(2, 7))
    ids = rng.integers(0, cfg.vocab_size, size=n)
    labels = rng.integers(0, cfg.num_labels, size=n)
    bits = rng.integers(0, 2, size=n)
    return ids, labels, bits


def test_encode_zeroed_projections_is_embedding_sum():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for l in range(cfg.layers):
        for name in ("Wo", "bo", "W2", "b2"):
            params[f"blk{l}.{name}"][:] = 0
    ids = np.array([1, 2, 3])
    x = encode(params, ids, cfg)
    assert np.allclose(x, params["tok_emb"][ids] + params["pos_emb"][:3])


def test_encode_sentinel_only_input():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    x = encode(params, np.array([0]), cfg)
    assert x.shape == (1, cfg.dim)


def test_encode_position_sensitivity():
    cfg = small_cfg()
    params = init_params(cfg, 1)
    a = encode(params, np.array([0, 3, 4, 5]), cfg)
    b = encode(params, np.array([0, 4, 3, 5]), cfg)
    assert not np.allclose(a[1], b[1])
    assert not np.allclose(a[2], b[2])


def test_encode_deterministic():
    cfg = small_cfg()
    ids = np.array([0, 5, 9])
    x1 = encode(init_params(cfg, 2), ids, cfg)
    x2 = encode(init_params(cfg, 2), ids, cfg)
    assert x1.tobytes() == x2.tobytes()


def test_encode_truncates_long_input_with_warning():
    cfg = small_cfg(max_len=4)
    params = init_params(cfg, 0)
    with pytest.warns(UserWarning):
        x = encode(params, np.zeros(10, dtype=int), cfg)
    assert x.shape == (4, cfg.dim)


def test_forward_zero_heads_uniform():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for name in ("ged_W", "ged_b", "gel_W", "gel_b"):
        params[name][:] = 0
    d = forward(params, np.array([1, 2, 3]), cfg)
    assert np.allclose(d.ged, 0.5)
    assert np.allclose(d.gel, 1.0 / cfg.num_labels)


def test_forward_rows_sum_to_one():
    cfg = small_cfg()
    params = init_params(cfg, 4)
    d = forward(params, np.array([1, 2, 3, 4]), cfg)
    assert np.allclose(d.ged.sum(1), 1.0, atol=1e-6)
    assert np.allclose(d.gel.sum(1), 1.0, atol=1e-6)


def test_forward_logit_bonus_dominates():
    cfg = small_cfg()
    params = init_params(cfg, 4)
    params["gel_b"][:] = 0
    params["gel_b"][3] = 10.0
    params["gel_W"][:] = 0
    d = forward(params, np.array([1, 2]), cfg)
    assert (d.gel.argmax(1) == 3).all()


def test_loss_uniform_heads_value():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    for name in ("ged_W", "ged_b", "gel_W", "gel_b"):
        params[name][:] = 0
    ids = np.array([1, 2, 3])
    val = loss_only(params, ids, np.array([0, 1, 2]), np.array([0, 1, 0]),
                    cfg)
    assert val == pytest.approx(np.log(2) + np.log(cfg.num_labels), rel=1e-6)


def test_loss_rejects_bad_label_ids():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        loss_and_grads(params, np.array([1, 2]), np.array([0, 99]),
                       np.array([0, 1]), cfg)


def test_loss_rejects_length_mismatch():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError):
        loss_and_grads(params, np.array([1, 2]), np.array([0]),
                       np.array([0, 1]), cfg)


def max_rel_grad_error(cfg, seed, h=1e-4):
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed)
    ids, labels, bits = random_input(cfg, rng)
    _, grads = loss_and_grads(params, ids, labels, bits, cfg)
    worst = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_only(params, ids, labels, bits, cfg)
            flat[i] = orig - h
            lm = loss_only(params, ids, labels, bits, cfg)
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            worst = max(worst,
                        abs(g[i] - num) / max(abs(g[i]) + abs(num), 1e-6))
    return worst


def test_gradients_match_finite_differences():
    cfg = ModelConfig(vocab_size=12, num_labels=5, dim=8, layers=1, heads=2,
                      max_len=8, dtype="float64")
    for seed in range(3):
        assert max_rel_grad_error(cfg, seed) < 1e-3


def test_dropout_gradients_match_finite_differences():
    # every call draws from a freshly seeded generator, so the forward,
    # +h and -h evaluations all apply the same dropout masks
    cfg = ModelConfig(vocab_size=12, num_labels=5, dim=8, layers=1, heads=2,
                      max_len=8, dropout=0.3, dtype="float64")
    rng = np.random.default_rng(0)
    params = init_params(cfg, 0)
    ids, labels, bits = random_input(cfg, rng)

    def loss_and_grads_masked():
        return loss_and_grads(params, ids, labels, bits, cfg, train=True,
                              drop_rng=np.random.default_rng(7))

    loss, grads = loss_and_grads_masked()
    assert loss != loss_only(params, ids, labels, bits, cfg)
    h = 1e-4
    worst = 0.0
    for name, arr in params.items():
        flat = arr.ravel()
        g = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_and_grads_masked()[0]
            flat[i] = orig - h
            lm = loss_and_grads_masked()[0]
            flat[i] = orig
            num = (lp - lm) / (2 * h)
            worst = max(worst,
                        abs(g[i] - num) / max(abs(g[i]) + abs(num), 1e-6))
    assert worst < 1e-3


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
        for ids, labels, bits in batch:
            _, grads = loss_and_grads(params, ids, labels, bits, cfg)
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


def test_training_determinism():
    cfg = small_cfg(dtype="float32")

    def run():
        rng = np.random.default_rng(5)
        params = init_params(cfg, 5)
        state = AdamState()
        for _ in range(2):
            ids, labels, bits = random_input(cfg, rng)
            _, grads = loss_and_grads(params, ids, labels, bits, cfg)
            adam_step(params, grads, state, lr=1e-3)
        return params

    a, b = run(), run()
    for k in a:
        assert a[k].tobytes() == b[k].tobytes()


def test_param_shapes_cover_params():
    cfg = small_cfg()
    params = init_params(cfg, 0)
    shapes = param_shapes(cfg)
    assert list(params) == list(shapes)
    for name, shape in shapes.items():
        assert params[name].shape == shape
