"""Small trainable transformer encoder with detection and labeling heads.

Everything is plain numpy with hand-written backward passes, so the
analytic gradients can be checked against central finite differences on
a float64 path.  Blocks are pre-norm with identity residuals: zeroing
the attention output and second feed-forward projections makes the
encoder output exactly the token plus positional embeddings.

Training runs each mini-batch as one padded (B, n, d) pass: an additive
key-padding mask keeps padded keys out of every attention row, and
padded positions carry zero loss weight.  A token's detection target is
derived from its label (not keep).  The encoder draws no random numbers,
so its output is a function of the weights and ids alone.  Inference
runs the same encoder as a batch of one with no mask.

A model's parameters are one vector, allocated once in param_shapes
order; each params[name] is a view of it, and a checkpoint's weight
region is its bytes.  Adam gathers the gradients into a vector of the
same layout, keeps its two moments as two more, and updates weights and
moments in cache-sized chunks.  A dict whose entries are not such
views (fresh arrays, copies, or an entry a caller replaced) is packed
into a new vector on its first update or save.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteGradientError

LN_EPS = 1e-5
ADAM = (0.9, 0.999, 1e-8)  # beta1, beta2, eps
ADAM_CHUNK = 1 << 15  # elements per update pass: its temporaries stay cached


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_labels: int
    dim: int = 128
    layers: int = 2
    heads: int = 4
    max_len: int = 128
    dtype: str = "float32"

    @property
    def ff_dim(self) -> int:
        return 4 * self.dim

    def __post_init__(self):
        for name in ("vocab_size", "num_labels", "dim", "layers", "heads",
                     "max_len"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, "
                                  f"not {value!r}")
        for name in ("dim", "heads", "max_len"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.layers < 0:
            raise ConfigError("layers must be non-negative")
        if self.dim % self.heads != 0:
            raise ConfigError("dim must be divisible by heads")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")


def param_shapes(cfg: ModelConfig):
    """(name, shape) of each parameter in declared order, the order
    checkpoints serialize in; made one at a time, so a caller that stops
    early pays only for what it read."""
    d, ff = cfg.dim, cfg.ff_dim
    yield "tok_emb", (cfg.vocab_size, d)
    yield "pos_emb", (cfg.max_len, d)
    for l in range(cfg.layers):
        p = f"blk{l}."
        yield p + "ln1_g", (d,)
        yield p + "ln1_b", (d,)
        for name in ("q", "k", "v", "o"):
            yield p + f"W{name}", (d, d)
            yield p + f"b{name}", (d,)
        yield p + "ln2_g", (d,)
        yield p + "ln2_b", (d,)
        yield p + "W1", (d, ff)
        yield p + "b1", (ff,)
        yield p + "W2", (ff, d)
        yield p + "b2", (d,)
    yield "ged_W", (d, 2)
    yield "ged_b", (2,)
    yield "gel_W", (d, cfg.num_labels)
    yield "gel_b", (cfg.num_labels,)


def param_views(flat: np.ndarray, shapes: dict) -> dict[str, np.ndarray]:
    """name -> a view of flat, the arrays back to back in shapes' order."""
    params, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        params[name] = flat[start:start + size].reshape(shape)
        start += size
    return params


def init_params(cfg: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Uniform(-0.1, 0.1) weights; layer-norm gain 1, biases 0; all views
    of one vector."""
    rng = np.random.default_rng(seed)
    # sized from a lazy walk, so a model too large to allocate fails
    # before the shapes of all its layers are held at once
    flat = np.empty(sum(math.prod(shape) for _, shape in param_shapes(cfg)),
                    cfg.dtype)
    shapes = dict(param_shapes(cfg))
    params = param_views(flat, shapes)
    for name, arr in params.items():
        base = name.split(".")[-1]
        if base.endswith("_g") and base.startswith("ln"):
            arr[...] = 1
        elif base.startswith("b") or base.endswith("_b"):
            arr[...] = 0
        else:
            arr[...] = rng.uniform(-0.1, 0.1, size=arr.shape)
    return params


def _is_laid_out(flat, arrays) -> bool:
    """Whether arrays are views of flat that tile it back to back."""
    if not (isinstance(flat, np.ndarray) and flat.ndim == 1
            and flat.flags.c_contiguous):
        return False
    start = address = flat.__array_interface__["data"][0]
    for a in arrays:
        if (a.base is not flat or a.dtype != flat.dtype
                or not a.flags.c_contiguous
                or a.__array_interface__["data"][0] != address):
            return False
        address += a.nbytes
    return address == start + flat.nbytes


def flat_params(params: dict) -> np.ndarray:
    """The vector whose views, in order, are params' entries.

    A dict not laid out so (fresh arrays, copies, or an entry a caller
    replaced) is packed first: its arrays are copied into a new vector
    and its entries rebound to views of it.
    """
    arrays = list(params.values())
    flat = arrays[0].base
    if _is_laid_out(flat, arrays):
        return flat
    flat = np.empty(sum(a.size for a in arrays), np.result_type(*arrays))
    views = param_views(flat, {k: a.shape for k, a in params.items()})
    for name, view in views.items():
        view[...] = params[name]
    params.update(views)
    return flat


def _softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax, computed in x's buffer: callers pass a temporary."""
    x -= np.maximum.reduce(x, -1, keepdims=True)
    np.exp(x, out=x)
    x /= np.add.reduce(x, -1, keepdims=True)
    return x


# np.add.reduce(...) / d is what .mean computes, without its Python overhead
def _layer_norm_fwd(x, g, b):
    d = x.shape[-1]
    mu = np.add.reduce(x, -1, keepdims=True) / d
    xc = x - mu
    var = np.add.reduce(xc * xc, -1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _layer_norm_bwd(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(0)
    db = dy.sum(0)
    dxhat = dy * g
    d = dy.shape[-1]
    dx = inv * (dxhat - np.add.reduce(dxhat, -1, keepdims=True) / d
                - xhat * (np.add.reduce(dxhat * xhat, -1, keepdims=True)
                          / d))
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
    scale = a.dtype.type(1.0 / np.sqrt(dh))
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


def _encode_fwd(params, ids, cfg, key_bias=None):
    """The encoder over a padded (B, n) id batch.

    Returns the output's B*n rows, the (B, n, d) batch flattened so the
    projections run as one matrix product, and one cache per layer.
    key_bias is the additive (B, n) key-padding mask (-inf on padded
    keys), or None when no sentence is padded.
    """
    batch, n = ids.shape
    x = (params["tok_emb"][ids] + params["pos_emb"][:n]).reshape(batch * n,
                                                                 cfg.dim)
    caches = []
    for l in range(cfg.layers):
        p = f"blk{l}."
        a, ln1 = _layer_norm_fwd(x, params[p + "ln1_g"], params[p + "ln1_b"])
        attn, att_cache = _attention_fwd(a, params, p, cfg.heads, batch,
                                         key_bias)
        x1 = x + attn
        f, ln2 = _layer_norm_fwd(x1, params[p + "ln2_g"], params[p + "ln2_b"])
        h = f @ params[p + "W1"] + params[p + "b1"]
        x = x1 + (np.maximum(h, 0) @ params[p + "W2"] + params[p + "b2"])
        caches.append((ln1, att_cache, ln2, f, h))
    return x, caches


def _encode_bwd(params, dx, caches, cfg, grads):
    """Backward through the blocks, last first, filling grads; returns
    the gradient of the embedding sum.  Each layer's cache is dropped
    once backward has passed it."""
    for l in range(cfg.layers - 1, -1, -1):
        p = f"blk{l}."
        ln1, att_cache, ln2, f, h = caches.pop()
        grads[p + "W2"] = np.maximum(h, 0).T @ dx
        grads[p + "b2"] = dx.sum(0)
        dh = (dx @ params[p + "W2"].T) * (h > 0)
        grads[p + "W1"] = f.T @ dh
        grads[p + "b1"] = dh.sum(0)
        df = dh @ params[p + "W1"].T
        dx1, grads[p + "ln2_g"], grads[p + "ln2_b"] = _layer_norm_bwd(df, ln2)
        dx1 += dx
        da = _attention_bwd(dx1, att_cache, params, p, grads)
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


def forward(params, ids, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """The detection rows ged (n, 2), column 1 the error class, and the
    labeling rows gel (n, num_labels): one row-stochastic row per token.
    Positions past the window (max_len) are certain keeps: ged [1, 0],
    gel id 0."""
    x, _ = _encode_fwd(params, _truncate(np.asarray(ids), cfg)[None], cfg)
    ged, gel = _heads(params, x)
    if len(ids) > len(x):
        pad = ((0, len(ids) - len(x)), (0, 0))
        ged, gel = np.pad(ged, pad), np.pad(gel, pad)
        ged[len(x):, 0] = gel[len(x):, 0] = 1
    return ged, gel


def _pad_batch(ids, label_ids, cfg, dtype):
    """Validate a mini-batch and pad it to its longest sentence.

    Returns the (B, n) ids, the flat labels and detection targets (label
    not keep), the flat per-position loss weights (1/(B*n_b) on sentence
    b's tokens, 0 on padding) and the key-padding mask for _encode_fwd.
    A sentence longer than the window is truncated with its labels.
    """
    ids = [np.asarray(s) for s in ids]
    label_ids = [np.asarray(s) for s in label_ids]
    if not ids:
        raise ValueError("empty batch")
    if any(s.ndim != 1 for s in ids + label_ids):
        raise ValueError("each sentence must be a sequence of ids")
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


def loss_and_grads(params, ids, label_ids, cfg: ModelConfig):
    """Detection + labeling cross-entropy of a mini-batch and its exact
    gradient for every parameter.

    ids and label_ids are sequences of per-sentence arrays; a token's
    detection target is 1 when its label is not keep (id 0).  The loss
    is the mean over sentences of each sentence's mean-token loss.  The
    batch runs as one padded encoder pass; padded positions carry zero
    loss weight, so their gradient rows are exactly zero.
    """
    dtype = params["tok_emb"].dtype
    ids, label_ids, detect, weights, key_bias = _pad_batch(
        ids, label_ids, cfg, dtype)
    x, caches = _encode_fwd(params, ids, cfg, key_bias)
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
    """Adam's moments, two vectors laid out like the parameter vector,
    and the step count.  flat and views are the parameter vector and
    arrays of the last step: while a dict's entries are still those
    arrays, and still views of that vector, it needs no new layout
    check.  The arrays of a copied or unpickled (params, state) pair own
    their data, so such a pair is packed again."""
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    flat: np.ndarray | None = field(default=None, repr=False, compare=False)
    views: tuple = field(default=(), repr=False, compare=False)


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One in-place Adam update; rejects non-finite gradients.

    grads must match params' names and shapes.  The gradients are gathered
    into one vector laid out like the parameters, and a non-finite one
    raises NonFiniteGradientError naming its tensor before anything
    changes.  The update then runs over ADAM_CHUNK elements of the
    parameter, gradient and moment vectors at a time, with the
    per-tensor operations in their order, so each weight is bitwise
    what a per-tensor update gives.  params is packed (see flat_params)
    unless its entries are the arrays the last step updated.
    """
    if grads.keys() != params.keys() or any(
            grads[k].shape != a.shape for k, a in params.items()):
        raise ValueError("grads must match the parameters' names and shapes")
    views = tuple(params.values())
    if not (len(views) == len(state.views)
            and all(map(operator.is_, views, state.views))
            and views[0].base is state.flat):
        state.flat = flat_params(params)
        state.views = tuple(params.values())
    flat = state.flat
    g = np.concatenate([grads[name] for name in params], axis=None)
    n = flat.size
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    elif state.m.shape != flat.shape:
        raise ValueError("optimizer state does not match the parameters")
    # one dot product screens g; finite values whose squares overflow
    # also fail it, so the exact check runs only then, and such values pass
    with np.errstate(over="ignore", invalid="ignore"):
        screen = g @ g
    if not np.isfinite(screen) and not (finite := np.isfinite(g)).all():
        index = int(finite.argmin())
        for name, a in params.items():
            if index < a.size:
                raise NonFiniteGradientError(f"non-finite gradient in {name}")
            index -= a.size

    beta1, beta2, eps = ADAM
    state.t += 1
    c1, c2 = 1 - beta1 ** state.t, 1 - beta2 ** state.t
    size = min(ADAM_CHUNK, n)
    # the moment terms take the gradient's dtype, the step the weights'
    gtmp = np.empty(size, g.dtype)
    tmp, tmp2 = np.empty(size, flat.dtype), np.empty(size, flat.dtype)
    for s in range(0, n, ADAM_CHUNK):
        e = s + ADAM_CHUNK
        gc, m, v, p = g[s:e], state.m[s:e], state.v[s:e], flat[s:e]
        gt, vhat, step = gtmp[:len(gc)], tmp[:len(gc)], tmp2[:len(gc)]
        m *= beta1
        m += np.multiply(gc, 1 - beta1, out=gt)
        v *= beta2
        np.multiply(gc, gc, out=gt)
        gt *= 1 - beta2
        v += gt
        np.divide(v, c2, out=vhat)
        np.sqrt(vhat, out=vhat)
        vhat += eps
        np.divide(m, c1, out=step)  # mhat
        step *= lr
        step /= vhat
        p -= step


# ---------------------------------------------------------------------------
# Convenience wrapper
# ---------------------------------------------------------------------------


class GecModel:
    """Parameters plus the vocabularies needed to use them.  The
    config's vocab_size and num_labels are the vocabularies' sizes:
    create derives them, and load_checkpoint rejects a file whose
    sizes disagree."""

    def __init__(self, cfg: ModelConfig, params, token_vocab, label_vocab):
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

    def forward_tokens(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        return forward(self.params, self.token_vocab.encode(tokens), self.cfg)
