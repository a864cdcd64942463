"""Binary model checkpoint format (".gst").

Layout: magic bytes ``GST1``, a little-endian u32 byte length, a UTF-8
JSON config document (model hyperparameters, token vocabulary, label
vocabulary, and any extra run settings), then the weight arrays as flat
little-endian floats of the model's dtype (float32 or float64) in
declared parameter order.  That weight region is the bytes of the
model's one parameter vector: saving writes the vector's buffer as it
is, and loading reads the region straight into a new vector, after
checking every size the header and config declare against the file's.

The model object also holds "dropout": 0.0, after max_len.  Nothing
reads it: an older file's rate in [0, 1) loads and is ignored.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import asdict

import numpy as np

from .corpus import TokenVocab
from .errors import CheckpointError
from .labels import LabelVocab
from .model import GecModel, ModelConfig, flat_params, param_shapes, \
    param_views

MAGIC = b"GST1"


def save_checkpoint(model: GecModel, path, extra: dict | None = None) -> None:
    """Writes model, packing its parameters first if they are not views
    of one vector (see model.flat_params)."""
    shapes = list(param_shapes(model.cfg))
    if [(k, a.shape) for k, a in model.params.items()] != shapes:
        raise ValueError("parameters are not the config's, in its order")
    flat = flat_params(model.params)
    stored = np.dtype(model.cfg.dtype).newbyteorder("<")
    fields = asdict(model.cfg)
    dtype = fields.pop("dtype")
    cfg_doc = {
        "model": {**fields, "dropout": 0.0, "dtype": dtype},
        "tokens": model.token_vocab.tokens,
        "labels": model.label_vocab.labels,
        "extra": extra or {},
    }
    blob = json.dumps(cfg_doc, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(flat.astype(stored, copy=False))


def _read_config(doc: bytes) -> tuple[ModelConfig, TokenVocab, LabelVocab,
                                      dict]:
    """The model config, vocabularies and extra settings of a config
    document, each checked."""
    try:
        cfg_doc = json.loads(doc.decode("utf-8"))
        model_kwargs = cfg_doc["model"]
        tokens = cfg_doc["tokens"]
        labels = cfg_doc["labels"]
        extra = cfg_doc["extra"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"invalid config document: {exc}") from exc
    # the labels are parsed on first use, so their type is checked here
    for name, entries in (("tokens", tokens), ("labels", labels)):
        if not (isinstance(entries, list)
                and set(map(type, entries)) <= {str}):
            raise CheckpointError(f"{name} must be a list of strings")
    if not isinstance(model_kwargs, dict):
        raise CheckpointError("model must be an object")
    dropout = model_kwargs.pop("dropout", 0.0)
    if not (isinstance(dropout, (int, float)) and 0.0 <= dropout < 1.0):
        raise CheckpointError(f"dropout {dropout!r} is not in [0, 1)")
    try:
        cfg = ModelConfig(**model_kwargs)
        token_vocab = TokenVocab(tokens)
        label_vocab = LabelVocab(labels)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(str(exc)) from exc
    if cfg.vocab_size != len(token_vocab) or cfg.num_labels != len(label_vocab):
        raise CheckpointError("config shapes disagree with vocabularies")
    return cfg, token_vocab, label_vocab, extra


def load_checkpoint(path) -> tuple[GecModel, dict]:
    """Returns the model and the saved extra-config dict.  Nothing is
    read or allocated at a size the file declares until the file is
    known to hold that many bytes; weights that are not finite, or
    whose sum of squares overflows the dtype, are rejected."""
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise CheckpointError(f"{path} is not a regular file")
        size = status.st_size
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise CheckpointError(
                f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        if len(head) < 8:
            raise CheckpointError("file ends inside the header")
        start = 8 + int.from_bytes(head[4:], "little")
        if size < start:
            raise CheckpointError("file ends inside the config document")
        cfg, token_vocab, label_vocab, extra = _read_config(
            fh.read(start - 8))

        stored = np.dtype(cfg.dtype).newbyteorder("<")
        # the walk stops at the first array past the file's end, so a
        # config that declares many layers costs only what the file holds
        shapes, end = {}, start
        for name, shape in param_shapes(cfg):
            end += stored.itemsize * math.prod(shape)
            if end > size:
                raise CheckpointError(
                    f"file ends inside weight array {name!r}")
            shapes[name] = shape
        if end != size:
            raise CheckpointError(
                f"{size - end} trailing bytes after declared arrays")
        flat = np.empty((end - start) // stored.itemsize, stored)
        if fh.readinto(flat) != flat.nbytes:
            raise CheckpointError("file ends inside the weights")
    # a view on a little-endian host; a big-endian one swaps into a copy
    flat = flat.astype(cfg.dtype, copy=False)
    params = param_views(flat, shapes)
    # weights whose squares overflow the dtype overflow in the forward
    # pass, so one dot product screens out those and NaN and infinity
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(flat @ flat):
            name = next((name for name, a in params.items()
                         if not np.isfinite(a.ravel() @ a.ravel())), None)
            what = "weights" if name is None else f"weight array {name!r}"
            raise CheckpointError(
                f"{what}: sum of squares not finite in {cfg.dtype} "
                "(a NaN, an infinity or too large a weight)")
    return GecModel(cfg, params, token_vocab, label_vocab), extra
