"""Binary model checkpoint format (".gst").

Layout: magic bytes ``GST1``, a little-endian u32 byte length, a UTF-8
JSON config document (model hyperparameters, token vocabulary, label
vocabulary, and any extra run settings), then the weight arrays as flat
little-endian floats of the model's dtype (float32 or float64) in
declared parameter order.  That weight region is the bytes of the
model's one parameter vector: saving writes the vector's buffer as it
is, and loading reads the region straight into a new vector, after
checking every size the header and config declare against the file's.

The model object is the model config's fields.  An older file's
"dropout" entry is read past: a rate in [0, 1) loads and is ignored.

The "sum_of_squares" object records the weights' sums of squares,
each taken in the model's dtype: each array's own under "arrays", and
their "total".  A load compares the one dot product it takes anyway
with the total, so a weight corrupted by more than the tolerance is
refused at no extra pass; the per-array sums are taken only then, to
name the array.  A file written before the record loads unchecked.

A file that cannot be loaded raises a plain GstError whose message
gives the reason, also when the model object fails ModelConfig's
checks: a bad file is a data fault, not the user's mistake.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import asdict

import numpy as np

from .corpus import TokenVocab
from .errors import GstError
from .labels import LabelVocab
from .model import GecModel, ModelConfig, flat_params, param_shapes, \
    param_views

MAGIC = b"GST1"
RECORD_TOLERANCE = 1e-3  # relative, between a load's sum and the record's


def _sum_of_squares(a: np.ndarray) -> float:
    return float(np.vdot(a, a))


def save_checkpoint(model: GecModel, path, extra: dict | None = None) -> None:
    """Writes model, packing its parameters first if they are not views
    of one vector (see model.flat_params)."""
    shapes = list(param_shapes(model.cfg))
    if [(k, a.shape) for k, a in model.params.items()] != shapes:
        raise ValueError("parameters are not the config's, in its order")
    flat = flat_params(model.params)
    stored = np.dtype(model.cfg.dtype).newbyteorder("<")
    # weights that the loader refuses record a sum that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        arrays = {name: _sum_of_squares(a) for name, a in model.params.items()}
    record = {"total": sum(arrays.values()), "arrays": arrays}
    cfg_doc = {
        "model": asdict(model.cfg),
        "tokens": model.token_vocab.tokens,
        "labels": model.label_vocab.labels,
        "extra": extra or {},
        "sum_of_squares": record,
    }
    blob = json.dumps(cfg_doc, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        fh.write(flat.astype(stored, copy=False))


def _read_config(doc: bytes) -> tuple[ModelConfig, TokenVocab, LabelVocab,
                                      dict, dict | None]:
    """The model config, vocabularies, extra settings and sum-of-squares
    record (None in a file written before it) of a config document,
    each checked."""
    try:
        cfg_doc = json.loads(doc.decode("utf-8"))
        model_kwargs = cfg_doc["model"]
        tokens = cfg_doc["tokens"]
        labels = cfg_doc["labels"]
        extra = cfg_doc["extra"]
        record = cfg_doc.get("sum_of_squares")
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise GstError(f"invalid config document: {exc}") from exc
    # the writer's floats always read back as floats
    if record is not None and not (
            isinstance(record, dict) and isinstance(record.get("total"), float)
            and isinstance(record.get("arrays"), dict)
            and all(isinstance(v, float) for v in record["arrays"].values())):
        raise GstError("sum_of_squares must hold a float total and an "
                       "object of floats under arrays")
    # the labels are parsed on first use, so their type is checked here
    for name, entries in (("tokens", tokens), ("labels", labels)):
        if not (isinstance(entries, list)
                and set(map(type, entries)) <= {str}):
            raise GstError(f"{name} must be a list of strings")
    if not isinstance(model_kwargs, dict):
        raise GstError("model must be an object")
    dropout = model_kwargs.pop("dropout", 0.0)
    if not (isinstance(dropout, (int, float)) and 0.0 <= dropout < 1.0):
        raise GstError(f"dropout {dropout!r} is not in [0, 1)")
    try:
        cfg = ModelConfig(**model_kwargs)
        token_vocab = TokenVocab(tokens)
        label_vocab = LabelVocab(labels)
    except (TypeError, ValueError) as exc:
        raise GstError(str(exc)) from exc
    if cfg.vocab_size != len(token_vocab) or cfg.num_labels != len(label_vocab):
        raise GstError("config shapes disagree with vocabularies")
    return cfg, token_vocab, label_vocab, extra, record


def _agrees(value, recorded) -> bool:
    return math.isclose(value, recorded, rel_tol=RECORD_TOLERANCE)


def _weights_error(params, total, record, dtype) -> GstError:
    """The fault of weights whose sum of squares, total, is not finite
    or differs from the record: the first array whose own sum is not
    finite or differs from its record is named."""
    recorded = {} if record is None else record["arrays"]
    for name, a in params.items():
        value = _sum_of_squares(a)
        if not (math.isfinite(value)
                and _agrees(value, recorded.get(name, value))):
            what, want = f"weight array {name!r}", recorded.get(name)
            break
    else:
        what, value = "weights", total
        want = None if record is None else record["total"]
    if not math.isfinite(value):
        return GstError(f"{what}: sum of squares not finite in {dtype} "
                        "(a NaN, an infinity or too large a weight)")
    return GstError(f"{what}: sum of squares {value:.6g} differs from the "
                    f"recorded {want:.6g} (a corrupted weight)")


def load_checkpoint(path) -> tuple[GecModel, dict]:
    """Returns the model and the saved extra-config dict.  Nothing is
    read or allocated at a size the file declares until the file is
    known to hold that many bytes; weights that are not finite, whose
    sum of squares overflows the dtype, or whose sum of squares differs
    from the file's record, are rejected."""
    with open(path, "rb") as fh:
        status = os.fstat(fh.fileno())
        if not stat.S_ISREG(status.st_mode):
            raise GstError(f"{path} is not a regular file")
        size = status.st_size
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise GstError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
        if len(head) < 8:
            raise GstError("file ends inside the header")
        start = 8 + int.from_bytes(head[4:], "little")
        if size < start:
            raise GstError("file ends inside the config document")
        cfg, token_vocab, label_vocab, extra, record = _read_config(
            fh.read(start - 8))

        stored = np.dtype(cfg.dtype).newbyteorder("<")
        # the walk stops at the first array past the file's end, so a
        # config that declares many layers costs only what the file holds
        shapes, end = {}, start
        for name, shape in param_shapes(cfg):
            end += stored.itemsize * math.prod(shape)
            if end > size:
                raise GstError(f"file ends inside weight array {name!r}")
            shapes[name] = shape
        if end != size:
            raise GstError(
                f"{size - end} trailing bytes after declared arrays")
        flat = np.empty((end - start) // stored.itemsize, stored)
        if fh.readinto(flat) != flat.nbytes:
            raise GstError("file ends inside the weights")
    # a view on a little-endian host; a big-endian one swaps into a copy
    flat = flat.astype(cfg.dtype, copy=False)
    params = param_views(flat, shapes)
    # weights whose squares overflow the dtype overflow in the forward
    # pass, so one dot product screens out those and NaN and infinity,
    # and, against the record, a weight corrupted within that bound
    with np.errstate(over="ignore", invalid="ignore"):
        total = _sum_of_squares(flat)
        if not math.isfinite(total) or (
                record is not None and not _agrees(total, record["total"])):
            raise _weights_error(params, total, record, cfg.dtype)
    return GecModel(cfg, params, token_vocab, label_vocab), extra
