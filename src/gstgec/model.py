"""Small trainable transformer encoder with detection and labeling heads.

Everything is plain numpy with hand-written backward passes, so the
analytic gradients can be checked against central finite differences on
a float64 path.  Blocks are pre-norm with identity residuals: zeroing
the attention output and second feed-forward projections makes the
encoder output exactly the token plus positional embeddings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteGradientError

LN_EPS = 1e-5


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
                raise ValueError(f"{name} must be at least 1")
        if self.dim % self.heads != 0:
            raise ValueError("dim must be divisible by heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


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


def _attention_fwd(a, params, prefix, heads):
    n, d = a.shape
    dh = d // heads
    q = a @ params[prefix + "Wq"] + params[prefix + "bq"]
    k = a @ params[prefix + "Wk"] + params[prefix + "bk"]
    v = a @ params[prefix + "Wv"] + params[prefix + "bv"]
    qh = q.reshape(n, heads, dh).transpose(1, 0, 2)
    kh = k.reshape(n, heads, dh).transpose(1, 0, 2)
    vh = v.reshape(n, heads, dh).transpose(1, 0, 2)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=a.dtype)
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    A = _softmax(scores)
    ctx = A @ vh  # (heads, n, dh)
    ctxf = ctx.transpose(1, 0, 2).reshape(n, d)
    out = ctxf @ params[prefix + "Wo"] + params[prefix + "bo"]
    cache = (a, qh, kh, vh, A, ctxf, scale)
    return out, cache


def _attention_bwd(dout, cache, params, prefix, grads):
    a, qh, kh, vh, A, ctxf, scale = cache
    n, d = a.shape
    heads, _, dh = qh.shape
    grads[prefix + "Wo"] += ctxf.T @ dout
    grads[prefix + "bo"] += dout.sum(0)
    dctxf = dout @ params[prefix + "Wo"].T
    dctx = dctxf.reshape(n, heads, dh).transpose(1, 0, 2)
    dA = dctx @ vh.transpose(0, 2, 1)
    dvh = A.transpose(0, 2, 1) @ dctx
    dS = A * (dA - (dA * A).sum(-1, keepdims=True))
    dqh = (dS @ kh) * scale
    dkh = (dS.transpose(0, 2, 1) @ qh) * scale
    dq = dqh.transpose(1, 0, 2).reshape(n, d)
    dk = dkh.transpose(1, 0, 2).reshape(n, d)
    dv = dvh.transpose(1, 0, 2).reshape(n, d)
    da = np.zeros_like(a)
    for name, dmat in (("q", dq), ("k", dk), ("v", dv)):
        grads[prefix + f"W{name}"] += a.T @ dmat
        grads[prefix + f"b{name}"] += dmat.sum(0)
        da += dmat @ params[prefix + f"W{name}"].T
    return da


def _encode_fwd(params, ids, cfg, train=False, drop_rng=None):
    n = len(ids)
    x = params["tok_emb"][ids] + params["pos_emb"][:n]
    rate = cfg.dropout if train else 0.0
    caches = []
    for l in range(cfg.layers):
        p = f"blk{l}."
        a, ln1 = _layer_norm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, att_cache = _attention_fwd(a, params, p, cfg.heads)
        mask_a = None
        if rate > 0.0:
            mask_a = (drop_rng.random(attn.shape) >= rate) / (1.0 - rate)
            mask_a = mask_a.astype(x.dtype)
            attn = attn * mask_a
        x1 = x + attn
        f, ln2 = _layer_norm_fwd(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        h = f @ params[p + "W1"] + params[p + "b1"]
        r = np.maximum(h, 0)
        o = r @ params[p + "W2"] + params[p + "b2"]
        mask_f = None
        if rate > 0.0:
            mask_f = (drop_rng.random(o.shape) >= rate) / (1.0 - rate)
            mask_f = mask_f.astype(x.dtype)
            o = o * mask_f
        x = x1 + o
        caches.append((ln1, att_cache, mask_a, ln2, f, h, r, mask_f))
    return x, caches


def _truncate(ids, cfg):
    if len(ids) > cfg.max_len:
        warnings.warn(f"input of {len(ids)} tokens truncated to "
                      f"{cfg.max_len}", stacklevel=3)
        return ids[:cfg.max_len]
    return ids


def encode(params, ids, cfg: ModelConfig) -> np.ndarray:
    """Per-position contextual feature rows (n x dim)."""
    ids = _truncate(np.asarray(ids), cfg)
    x, _ = _encode_fwd(params, ids, cfg)
    return x


def forward(params, ids, cfg: ModelConfig) -> TokenDistributions:
    """Detection and labeling probability rows for one sentence."""
    x = encode(params, ids, cfg)
    ged = _softmax(x @ params["ged_W"] + params["ged_b"])
    gel = _softmax(x @ params["gel_W"] + params["gel_b"])
    return TokenDistributions(ged=ged, gel=gel)


def loss_only(params, ids, label_ids, det_bits, cfg, ged_weight=1.0) -> float:
    """Forward-only loss value; used by the finite-difference oracle."""
    ids = _truncate(np.asarray(ids), cfg)
    x, _ = _encode_fwd(params, ids, cfg)
    return float(_head_losses(params, x, label_ids, det_bits, ged_weight)[0])


def _head_losses(params, x, label_ids, det_bits, ged_weight):
    n = x.shape[0]
    ged_p = _softmax(x @ params["ged_W"] + params["ged_b"])
    gel_p = _softmax(x @ params["gel_W"] + params["gel_b"])
    idx = np.arange(n)
    eps = np.finfo(x.dtype).tiny
    ce_ged = -np.log(ged_p[idx, det_bits] + eps).mean()
    ce_gel = -np.log(gel_p[idx, label_ids] + eps).mean()
    return ged_weight * ce_ged + ce_gel, ged_p, gel_p


def loss_and_grads(params, ids, label_ids, det_bits, cfg: ModelConfig,
                   ged_weight: float = 1.0, train: bool = False,
                   drop_rng=None):
    """Mean-per-token detection + labeling cross-entropy and its exact
    gradient for every parameter."""
    ids = _truncate(np.asarray(ids), cfg)
    label_ids = np.asarray(label_ids)
    det_bits = np.asarray(det_bits)
    if len(label_ids) != len(ids) or len(det_bits) != len(ids):
        raise ValueError("label/target lengths must match token count")
    if label_ids.max(initial=0) >= cfg.num_labels or label_ids.min(initial=0) < 0:
        raise ValueError("label id outside vocabulary")
    n = len(ids)
    x, caches = _encode_fwd(params, ids, cfg, train=train, drop_rng=drop_rng)
    total, ged_p, gel_p = _head_losses(params, x, label_ids, det_bits,
                                       ged_weight)

    grads = {k: np.zeros_like(v) for k, v in params.items()}
    idx = np.arange(n)
    dged = ged_p.copy()
    dged[idx, det_bits] -= 1.0
    dged *= ged_weight / n
    dgel = gel_p.copy()
    dgel[idx, label_ids] -= 1.0
    dgel /= n
    grads["ged_W"] += x.T @ dged
    grads["ged_b"] += dged.sum(0)
    grads["gel_W"] += x.T @ dgel
    grads["gel_b"] += dgel.sum(0)
    dx = dged @ params["ged_W"].T + dgel @ params["gel_W"].T

    for l in range(cfg.layers - 1, -1, -1):
        p = f"blk{l}."
        ln1, att_cache, mask_a, ln2, f, h, r, mask_f = caches[l]
        do = dx if mask_f is None else dx * mask_f
        grads[p + "W2"] += r.T @ do
        grads[p + "b2"] += do.sum(0)
        dr = do @ params[p + "W2"].T
        dh = dr * (h > 0)
        grads[p + "W1"] += f.T @ dh
        grads[p + "b1"] += dh.sum(0)
        df = dh @ params[p + "W1"].T
        dx1, dg2, db2 = _layer_norm_bwd(df, ln2)
        grads[p + "ln2_g"] += dg2
        grads[p + "ln2_b"] += db2
        dx1 = dx1 + dx
        dattn = dx1 if mask_a is None else dx1 * mask_a
        da = _attention_bwd(dattn, att_cache, params, p, grads)
        dxa, dg1, db1 = _layer_norm_bwd(da, ln1)
        grads[p + "ln1_g"] += dg1
        grads[p + "ln1_b"] += db1
        dx = dx1 + dxa

    np.add.at(grads["tok_emb"], ids, dx)
    grads["pos_emb"][:n] += dx
    return float(total), grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One in-place Adam update; rejects non-finite gradients."""
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
