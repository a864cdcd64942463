"""Small trainable transformer encoder with detection and labeling heads.

Everything is plain numpy with hand-written backward passes, so the
analytic gradients can be checked against central finite differences on
a float64 path.  Blocks are pre-norm with identity residuals: zeroing
the attention output and second feed-forward projections makes the
encoder output exactly the token plus positional embeddings.

Training runs each mini-batch as one padded (B, n, d) pass: an additive
key-padding mask keeps padded keys out of every attention row, and
padded positions carry zero loss weight.  A token's detection target is
derived from its label (not keep), and dropout runs only when a
generator is passed.  Inference runs the same encoder as a batch of one
with no mask.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteGradientError

LN_EPS = 1e-5
ADAM = (0.9, 0.999, 1e-8)  # beta1, beta2, eps


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_labels: int
    dim: int = 128
    layers: int = 2
    heads: int = 4
    max_len: int = 128
    dropout: float = 0.0
    dtype: str = "float32"

    @property
    def ff_dim(self) -> int:
        return 4 * self.dim

    def __post_init__(self):
        for name in ("dim", "heads", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.layers < 0:
            raise ConfigError("layers must be non-negative")
        if self.dim % self.heads != 0:
            raise ConfigError("dim must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")


@dataclass
class TokenDistributions:
    """Row-stochastic per-position outputs of the two heads."""

    ged: np.ndarray  # (n, 2); column 1 is the error class
    gel: np.ndarray  # (n, num_labels)


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Declared parameter order; checkpoints serialize in this order."""
    d, ff = cfg.dim, cfg.ff_dim
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (cfg.vocab_size, d),
        "pos_emb": (cfg.max_len, d),
    }
    for l in range(cfg.layers):
        p = f"blk{l}."
        shapes[p + "ln1_g"] = (d,)
        shapes[p + "ln1_b"] = (d,)
        for name in ("q", "k", "v", "o"):
            shapes[p + f"W{name}"] = (d, d)
            shapes[p + f"b{name}"] = (d,)
        shapes[p + "ln2_g"] = (d,)
        shapes[p + "ln2_b"] = (d,)
        shapes[p + "W1"] = (d, ff)
        shapes[p + "b1"] = (ff,)
        shapes[p + "W2"] = (ff, d)
        shapes[p + "b2"] = (d,)
    shapes["ged_W"] = (d, 2)
    shapes["ged_b"] = (2,)
    shapes["gel_W"] = (d, cfg.num_labels)
    shapes["gel_b"] = (cfg.num_labels,)
    return shapes


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) weights; layer-norm gain 1, biases 0."""
    rng = np.random.default_rng(seed)
    dtype = np.dtype(cfg.dtype)
    params = {}
    for name, shape in param_shapes(cfg).items():
        base = name.split(".")[-1]
        if base.endswith("_g") and base.startswith("ln"):
            arr = np.ones(shape)
        elif base.startswith("b") or base.endswith("_b"):
            arr = np.zeros(shape)
        else:
            arr = rng.uniform(-0.1, 0.1, size=shape)
        params[name] = arr.astype(dtype)
    return params


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _layer_norm_fwd(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(0)
    db = dy.sum(0)
    dxhat = dy * g
    dx = inv * (dxhat - dxhat.mean(-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(-1, keepdims=True))
    return dx, dg, db


def _attention_fwd(a, params, prefix, heads, batch, key_bias):
    rows, d = a.shape
    n, dh = rows // batch, d // heads
    q = a @ params[prefix + "Wq"] + params[prefix + "bq"]
    k = a @ params[prefix + "Wk"] + params[prefix + "bk"]
    v = a @ params[prefix + "Wv"] + params[prefix + "bv"]
    qh = q.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=a.dtype)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if key_bias is not None:
        scores += key_bias[:, None, None, :]
    A = _softmax(scores)  # (batch, heads, n, n); 0 on padded keys
    ctx = A @ vh
    ctxf = ctx.transpose(0, 2, 1, 3).reshape(rows, d)
    out = ctxf @ params[prefix + "Wo"] + params[prefix + "bo"]
    cache = (a, qh, kh, vh, A, ctxf, scale)
    return out, cache


def _attention_bwd(dout, cache, params, prefix, grads):
    a, qh, kh, vh, A, ctxf, scale = cache
    rows, d = a.shape
    batch, heads, n, dh = qh.shape
    grads[prefix + "Wo"] = ctxf.T @ dout
    grads[prefix + "bo"] = dout.sum(0)
    dctxf = dout @ params[prefix + "Wo"].T
    dctx = dctxf.reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
    dA = dctx @ vh.swapaxes(-1, -2)
    dvh = A.swapaxes(-1, -2) @ dctx
    dS = A * (dA - (dA * A).sum(-1, keepdims=True))
    dqh = (dS @ kh) * scale
    dkh = (dS.swapaxes(-1, -2) @ qh) * scale
    da = np.zeros_like(a)
    for name, dmh in (("q", dqh), ("k", dkh), ("v", dvh)):
        dmat = dmh.transpose(0, 2, 1, 3).reshape(rows, d)
        grads[prefix + f"W{name}"] = a.T @ dmat
        grads[prefix + f"b{name}"] = dmat.sum(0)
        da += dmat @ params[prefix + f"W{name}"].T
    return da


def _dropout_mask(shape, rate, drop_rng, dtype):
    """An inverted-dropout mask, or None when nothing is dropped."""
    if rate == 0.0:
        return None
    return ((drop_rng.random(shape) >= rate) / (1.0 - rate)).astype(dtype)


def _encode_fwd(params, ids, cfg, key_bias=None, drop_rng=None):
    """The encoder over a padded (B, n) id batch.

    Returns the output's B*n rows, the (B, n, d) batch flattened so the
    projections run as one matrix product, and one cache per layer.
    key_bias is the additive (B, n) key-padding mask (-inf on padded
    keys), or None when no sentence is padded.  Dropout at cfg.dropout
    draws its masks from drop_rng; without one nothing is dropped.
    """
    batch, n = ids.shape
    x = (params["tok_emb"][ids] + params["pos_emb"][:n]).reshape(batch * n,
                                                                 cfg.dim)
    rate = 0.0 if drop_rng is None else cfg.dropout
    caches = []
    for l in range(cfg.layers):
        p = f"blk{l}."
        a, ln1 = _layer_norm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, att_cache = _attention_fwd(a, params, p, cfg.heads, batch,
                                         key_bias)
        mask_a = _dropout_mask(attn.shape, rate, drop_rng, x.dtype)
        if mask_a is not None:
            attn = attn * mask_a
        x1 = x + attn
        f, ln2 = _layer_norm_fwd(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        h = f @ params[p + "W1"] + params[p + "b1"]
        o = np.maximum(h, 0) @ params[p + "W2"] + params[p + "b2"]
        mask_f = _dropout_mask(o.shape, rate, drop_rng, x.dtype)
        if mask_f is not None:
            o = o * mask_f
        x = x1 + o
        caches.append((ln1, att_cache, mask_a, ln2, f, h, mask_f))
    return x, caches


def _encode_bwd(params, dx, caches, cfg, grads):
    """Backward through the blocks, last first, filling grads; returns
    the gradient of the embedding sum.  Each layer's cache is dropped
    once backward has passed it."""
    for l in range(cfg.layers - 1, -1, -1):
        p = f"blk{l}."
        ln1, att_cache, mask_a, ln2, f, h, mask_f = caches.pop()
        do = dx if mask_f is None else dx * mask_f
        grads[p + "W2"] = np.maximum(h, 0).T @ do
        grads[p + "b2"] = do.sum(0)
        dh = (do @ params[p + "W2"].T) * (h > 0)
        grads[p + "W1"] = f.T @ dh
        grads[p + "b1"] = dh.sum(0)
        df = dh @ params[p + "W1"].T
        dx1, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_bwd(df, ln2)
        dx1 += dx
        dattn = dx1 if mask_a is None else dx1 * mask_a
        da = _attention_bwd(dattn, att_cache, params, p, grads)
        dxa, grads[p + "ln1_g"], grads[p + "ln1_b"] = _layer_norm_bwd(da, ln1)
        dx = dx1 + dxa
    return dx


def _truncate(ids, cfg):
    if len(ids) > cfg.max_len:
        warnings.warn(f"input of {len(ids)} tokens truncated to "
                      f"{cfg.max_len}", stacklevel=3)
        return ids[:cfg.max_len]
    return ids


def _heads(params, x):
    ged = _softmax(x @ params["ged_W"] + params["ged_b"])
    gel = _softmax(x @ params["gel_W"] + params["gel_b"])
    return ged, gel


def encode(params, ids, cfg: ModelConfig) -> np.ndarray:
    """Per-position contextual feature rows (n x dim): the encoder over
    a batch of one, with no padding."""
    ids = _truncate(np.asarray(ids), cfg)
    x, _ = _encode_fwd(params, ids[None], cfg)
    return x


def forward(params, ids, cfg: ModelConfig) -> TokenDistributions:
    """Detection and labeling probability rows, one per token; positions
    past the window (max_len) are certain keeps: ged [1, 0], gel id 0."""
    x = encode(params, ids, cfg)
    ged, gel = _heads(params, x)
    if len(ids) > len(x):
        pad = ((0, len(ids) - len(x)), (0, 0))
        ged, gel = np.pad(ged, pad), np.pad(gel, pad)
        ged[len(x):, 0] = gel[len(x):, 0] = 1
    return TokenDistributions(ged=ged, gel=gel)


def _as_batch(seqs) -> list[np.ndarray]:
    """A mini-batch as per-sentence arrays; a bare 1-D sequence is a
    batch of one."""
    if len(seqs) and np.ndim(seqs[0]) == 0:
        return [np.asarray(seqs)]
    return [np.asarray(s) for s in seqs]


def _pad_batch(ids, label_ids, cfg, dtype):
    """Validate a mini-batch and pad it to its longest sentence.

    Returns the (B, n) ids, the flat labels and detection targets (label
    not keep), the flat per-position loss weights (1/(B*n_b) on sentence
    b's tokens, 0 on padding) and the key-padding mask for _encode_fwd.
    A sentence longer than the window is truncated with its labels.
    """
    ids, label_ids = _as_batch(ids), _as_batch(label_ids)
    if not ids:
        raise ValueError("empty batch")
    if len(label_ids) != len(ids):
        raise ValueError("label batch must match the id batch")
    if any(len(lab) != len(s) for s, lab in zip(ids, label_ids)):
        raise ValueError("label lengths must match token count")
    ids = [_truncate(s, cfg) for s in ids]
    label_ids = [s[:cfg.max_len] for s in label_ids]
    lens = np.array([len(s) for s in ids])
    if lens.min() < 1:
        raise ValueError("every sentence needs at least one token")
    labels = np.concatenate(label_ids)
    if labels.max() >= cfg.num_labels or labels.min() < 0:
        raise ValueError("label id outside vocabulary")
    batch, n = len(ids), int(lens.max())
    valid = np.arange(n) < lens[:, None]

    def pad(flat):
        out = np.zeros((batch, n), dtype=np.int64)
        out[valid] = flat
        return out

    weights = np.where(valid, 1.0 / (batch * lens[:, None]), 0.0)
    key_bias = None
    if lens.min() < n:
        key_bias = np.where(valid, 0.0, -np.inf).astype(dtype)
    labels = pad(labels).ravel()
    # an integer index: a boolean one would select ged rows as a mask
    return (pad(np.concatenate(ids)), labels, (labels != 0).astype(np.int64),
            weights.ravel().astype(dtype), key_bias)


def _token_losses(ged_p, gel_p, label_ids, detect):
    idx = np.arange(len(label_ids))
    eps = np.finfo(ged_p.dtype).tiny
    return -(np.log(ged_p[idx, detect] + eps)
             + np.log(gel_p[idx, label_ids] + eps))


def loss_only(params, ids, label_ids, cfg) -> float:
    """Forward-only loss_and_grads loss; the finite-difference oracle."""
    dtype = params["tok_emb"].dtype
    ids, label_ids, detect, weights, key_bias = _pad_batch(
        ids, label_ids, cfg, dtype)
    x, _ = _encode_fwd(params, ids, cfg, key_bias)
    ged_p, gel_p = _heads(params, x)
    return float(weights @ _token_losses(ged_p, gel_p, label_ids, detect))


def loss_and_grads(params, ids, label_ids, cfg: ModelConfig, drop_rng=None):
    """Detection + labeling cross-entropy of a mini-batch and its exact
    gradient for every parameter.

    ids and label_ids are sequences of per-sentence arrays (a bare 1-D
    array is a batch of one); a token's detection target is 1 when its
    label is not keep (id 0).  The loss is the mean over sentences of
    each sentence's mean-token loss.  The batch runs as one padded
    encoder pass, with dropout when drop_rng is given; padded positions
    carry zero loss weight, so their gradient rows are exactly zero.
    """
    dtype = params["tok_emb"].dtype
    ids, label_ids, detect, weights, key_bias = _pad_batch(
        ids, label_ids, cfg, dtype)
    x, caches = _encode_fwd(params, ids, cfg, key_bias, drop_rng)
    ged_p, gel_p = _heads(params, x)
    total = float(weights @ _token_losses(ged_p, gel_p, label_ids, detect))

    # the head softmaxes become the gradients of their logits in place
    idx = np.arange(len(weights))
    ged_p[idx, detect] -= 1.0
    ged_p *= weights[:, None]
    gel_p[idx, label_ids] -= 1.0
    gel_p *= weights[:, None]
    grads = {"ged_W": x.T @ ged_p, "ged_b": ged_p.sum(0),
             "gel_W": x.T @ gel_p, "gel_b": gel_p.sum(0)}
    dx = ged_p @ params["ged_W"].T + gel_p @ params["gel_W"].T
    del x, ged_p, gel_p
    dx = _encode_bwd(params, dx, caches, cfg, grads)

    batch, n = ids.shape
    valid = weights > 0
    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    np.add.at(grads["tok_emb"], ids.ravel()[valid], dx[valid])
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:n] = dx.reshape(batch, n, -1).sum(0)
    return total, {name: grads[name] for name in params}


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One in-place Adam update; rejects non-finite gradients."""
    beta1, beta2, eps = ADAM
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name}")
    state.t += 1
    t = state.t
    for name, g in grads.items():
        if name not in state.m:
            state.m[name] = np.zeros_like(params[name])
            state.v[name] = np.zeros_like(params[name])
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * (g * g)
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        params[name] -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(
            params[name].dtype)


# ---------------------------------------------------------------------------
# Convenience wrapper
# ---------------------------------------------------------------------------


class GecModel:
    """Parameters plus the vocabularies needed to use them."""

    def __init__(self, cfg: ModelConfig, params, token_vocab, label_vocab):
        if cfg.vocab_size != len(token_vocab):
            raise ValueError("config vocab_size disagrees with token vocab")
        if cfg.num_labels != len(label_vocab):
            raise ValueError("config num_labels disagrees with label vocab")
        self.cfg = cfg
        self.params = params
        self.token_vocab = token_vocab
        self.label_vocab = label_vocab

    @classmethod
    def create(cls, token_vocab, label_vocab, seed: int = 0,
               **cfg_kwargs) -> "GecModel":
        cfg = ModelConfig(vocab_size=len(token_vocab),
                          num_labels=len(label_vocab), **cfg_kwargs)
        return cls(cfg, init_params(cfg, seed), token_vocab, label_vocab)

    def forward_tokens(self, tokens) -> TokenDistributions:
        return forward(self.params, self.token_vocab.encode(tokens), self.cfg)
