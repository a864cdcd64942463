"""Binary model checkpoint format (".gst").

Layout: magic bytes ``GST1``, a little-endian u32 byte length, a UTF-8
JSON config document (model hyperparameters, token vocabulary, label
vocabulary, and any extra run settings), then the weight arrays as flat
little-endian floats of the model's dtype (float32 or float64) in
declared parameter order.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np

from .corpus import TokenVocab
from .errors import BadMagicError, CheckpointFormatError, \
    TruncatedCheckpointError
from .labels import LabelVocab
from .model import GecModel, ModelConfig, param_shapes

MAGIC = b"GST1"


def save_checkpoint(model: GecModel, path, extra: dict | None = None) -> None:
    cfg_doc = {
        "model": {k: v for k, v in asdict(model.cfg).items()},
        "tokens": model.token_vocab.tokens,
        "labels": model.label_vocab.labels,
        "extra": extra or {},
    }
    blob = json.dumps(cfg_doc, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.uint32(len(blob)).astype("<u4").tobytes())
        fh.write(blob)
        stored = np.dtype(model.cfg.dtype).newbyteorder("<")
        for name in param_shapes(model.cfg):
            fh.write(np.ascontiguousarray(
                model.params[name], dtype=stored).tobytes())


def load_checkpoint(path) -> tuple[GecModel, dict]:
    """Returns the model and the saved extra-config dict."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != MAGIC:
        raise BadMagicError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 8:
        raise TruncatedCheckpointError("file ends inside the header")
    blob_len = int(np.frombuffer(data[4:8], dtype="<u4")[0])
    if len(data) < 8 + blob_len:
        raise TruncatedCheckpointError("file ends inside the config document")
    try:
        cfg_doc = json.loads(data[8:8 + blob_len].decode("utf-8"))
        model_kwargs = cfg_doc["model"]
        tokens = cfg_doc["tokens"]
        labels = cfg_doc["labels"]
        extra = cfg_doc["extra"]
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise CheckpointFormatError(f"invalid config document: {exc}") from exc
    try:
        cfg = ModelConfig(**model_kwargs)
        token_vocab = TokenVocab(tokens)
        label_vocab = LabelVocab(labels)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(str(exc)) from exc
    if cfg.vocab_size != len(token_vocab) or cfg.num_labels != len(label_vocab):
        raise CheckpointFormatError("config shapes disagree with vocabularies")

    stored = np.dtype(cfg.dtype).newbyteorder("<")
    offset = 8 + blob_len
    params = {}
    for name, shape in param_shapes(cfg).items():
        nbytes = stored.itemsize * int(np.prod(shape))
        if offset + nbytes > len(data):
            raise TruncatedCheckpointError(
                f"file ends inside weight array {name!r}")
        params[name] = np.frombuffer(
            data[offset:offset + nbytes], dtype=stored).reshape(shape).astype(
                cfg.dtype)
        offset += nbytes
    if offset != len(data):
        raise CheckpointFormatError(
            f"{len(data) - offset} trailing bytes after declared arrays")
    return GecModel(cfg, params, token_vocab, label_vocab), extra
