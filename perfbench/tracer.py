"""Spans around calls into the gstgec layers, recorded from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install``
replaces each traced public function at every place it is bound: the
defining module and every ``gstgec`` module that imported it by name
(``from .model import forward`` in ``training`` is a separate binding
from ``gstgec.model.forward``).  Each call appends one span (name,
parent span, start, end) to flat arrays kept in memory; ``summary`` turns
them into per-layer metrics once, after the traced pass.

A layer's self time is its spans' duration minus the time covered by
their direct child spans.  A traced function that no longer exists is
recorded as absent, and its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute path, span name).  Every public function of
# ``morph`` is added at install time under the one span name "morph".
SPANS = (
    ("model", "forward", "model.forward"),
    ("model", "loss_and_grads", "model.loss_and_grads"),
    ("model", "adam_step", "model.adam_step"),
    ("training", "train_epoch", "training.train_epoch"),
    ("training", "synthesize_dataset", "training.synthesize_dataset"),
    ("training", "evaluate_model", "training.evaluate_model"),
    ("training", "build_vocabs", "training.build_vocabs"),
    ("sampling", "sample_gumbel", "sampling.sample_gumbel"),
    ("sampling", "relax_with_noise", "sampling.relax_with_noise"),
    ("sampling", "sample_label", "sampling.sample_label"),
    ("labels", "parse_label", "labels.parse_label"),
    ("labels", "align_ops", "labels.align_ops"),
    ("labels", "extract_labels", "labels.extract_labels"),
    ("labels", "apply_labels", "labels.apply_labels"),
    ("inference", "correct", "inference.correct"),
    ("scoring", "score_corpus", "scoring.score_corpus"),
    ("scoring", "extract_edits", "scoring.extract_edits"),
    ("corpus", "TokenVocab.encode", "corpus.TokenVocab.encode"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
)

# Names whose .calls and .self_s are reported.
CALL_SPANS = (
    "model.loss_and_grads", "model.forward", "model.adam_step",
    "sampling.sample_gumbel", "sampling.relax_with_noise",
    "labels.parse_label", "labels.align_ops", "labels.extract_labels",
    "labels.apply_labels", "morph", "inference.correct",
    "scoring.extract_edits", "corpus.TokenVocab.encode",
)
# Names whose .self_s alone is reported.
SELF_SPANS = (
    "training.train_epoch", "training.synthesize_dataset",
    "training.evaluate_model", "training.build_vocabs",
    "scoring.score_corpus",
)

ROUND_ENDINGS = ("gate", "converged", "noop", "max_iters")

# Per-layer metrics besides the .calls/.self_s pairs above, with units.
DERIVED = {
    "model.loss_and_grads.gflop_per_s": "GFLOP/s",
    "model.forward.tokens": "count",
    "model.adam_step.mb_moved": "MB",
    "training.synth_accept_ratio": "ratio",
    "training.synth_changed_ratio": "ratio",
    "sampling.sample_label.calls": "count",
    "inference.rounds_per_sentence": "rounds",
    **{f"inference.rounds_ended.{e}": "count" for e in ROUND_ENDINGS},
    "inference.applied_round_ratio": "ratio",
    "checkpoint.load_checkpoint.s": "s",
    "checkpoint.save_checkpoint.s": "s",
    "checkpoint.bytes": "bytes",
    "trace.absent_spans": "count",
    "trace.hook_errors": "count",
    "trace.spans": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name this module reports, with its unit."""
    units = {}
    for name in CALL_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_SPANS:
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


def loss_and_grads_flops(n: int, cfg) -> int:
    """FLOPs of one loss_and_grads call, counted from tensor shapes.

    Forward matmuls per block: Q, K, V and output projections (8nd^2),
    scores and context (4n^2 d), two FFN projections (4nd*ff); heads
    2nd(2 + labels).  Backward is taken as twice the forward matmuls
    (one product for the input gradient, one for the weight gradient).
    Elementwise work (softmax, layer norm, ReLU) is not counted.
    """
    d = cfg.dim
    block = 8 * n * d * d + 4 * n * n * d + 4 * n * d * cfg.ff_dim
    fwd = cfg.layers * block + 2 * n * d * (2 + cfg.num_labels)
    return 3 * fwd


class Tracer:
    """In-memory span recorder; install() before the traced pass,
    uninstall() after, summary() once at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.hook_errors = 0
        self.counters: dict[str, float] = {}

    # -- installation ------------------------------------------------------

    def install(self, callers=()) -> None:
        """Wrap every traced function in the gstgec modules and in the
        given caller modules (the benchmark's own)."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "gstgec"
                                         or name.startswith("gstgec."))]
        modules.extend(callers)
        targets = list(SPANS)
        morph = sys.modules.get("gstgec.morph")
        if morph is None:
            self.absent.append("morph")
        else:
            for attr, value in vars(morph).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == morph.__name__):
                    targets.append(("morph", attr, "morph"))
        for mod_name, path, span in targets:
            owner = sys.modules.get(f"gstgec.{mod_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(span, original, _HOOKS.get(span))
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, span: str, fn, hook):
        sid = self._span_id(span)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                try:
                    hook(self.counters, args, kwargs, result)
                except Exception:  # a changed signature must not stop the run
                    self.hook_errors += 1
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def span_table(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds per span name."""
        count = len(self.span_start)
        name = np.frombuffer(self.span_name, dtype=np.int32)[:count]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[:count]
        dur = (np.frombuffer(self.span_end, dtype=np.float64)[:count]
               - np.frombuffer(self.span_start, dtype=np.float64)[:count])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=count)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=self_time, minlength=k)
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def summary(self) -> dict[str, float]:
        """Every per-layer metric of metric_units(), by name."""
        table = self.span_table()
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def get(span):
            return table.get(span, zero)

        c = self.counters
        out: dict[str, float] = {}
        for span in CALL_SPANS:
            out[f"{span}.calls"] = get(span)["calls"]
            out[f"{span}.self_s"] = get(span)["self_s"]
        for span in SELF_SPANS:
            out[f"{span}.self_s"] = get(span)["self_s"]
        lag_s = get("model.loss_and_grads")["self_s"]
        out["model.loss_and_grads.gflop_per_s"] = (
            c.get("lag_flops", 0) / lag_s / 1e9 if lag_s else 0.0)
        out["model.forward.tokens"] = int(c.get("forward_tokens", 0))
        out["model.adam_step.mb_moved"] = c.get("adam_bytes", 0) / 1e6
        attempted = c.get("synth_attempted", 0)
        made = c.get("synth_made", 0)
        out["training.synth_accept_ratio"] = made / attempted if attempted \
            else 0.0
        out["training.synth_changed_ratio"] = (
            c.get("synth_changed", 0) / made if made else 0.0)
        out["sampling.sample_label.calls"] = get("sampling.sample_label")[
            "calls"]
        sentences = c.get("correct_returned", 0)
        rounds = c.get("rounds", 0)
        out["inference.rounds_per_sentence"] = rounds / sentences \
            if sentences else 0.0
        for ending in ROUND_ENDINGS:
            out[f"inference.rounds_ended.{ending}"] = int(
                c.get(f"ended_{ending}", 0))
        out["inference.applied_round_ratio"] = (
            c.get("changed_rounds", 0) / rounds if rounds else 0.0)
        out["checkpoint.load_checkpoint.s"] = get(
            "checkpoint.load_checkpoint")["total_s"]
        out["checkpoint.save_checkpoint.s"] = get(
            "checkpoint.save_checkpoint")["total_s"]
        out["checkpoint.bytes"] = int(c.get("checkpoint_bytes", 0))
        out["trace.absent_spans"] = len(self.absent)
        out["trace.hook_errors"] = self.hook_errors
        out["trace.spans"] = len(self.span_start)
        return out

    def dump(self, path) -> None:
        """Write every span to a compressed .npz (names, parent, start,
        end), for analysis beyond the summary."""
        count = len(self.span_start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32)[:count],
            parent=np.frombuffer(self.span_parent, dtype=np.int32)[:count],
            start=np.frombuffer(self.span_start, dtype=np.float64)[:count],
            end=np.frombuffer(self.span_end, dtype=np.float64)[:count])


# -- counters read from arguments and results --------------------------------
# Each hook takes (counters, args, kwargs, result) and follows the public
# signature of the function it is attached to.


def _add(counters, key, value):
    counters[key] = counters.get(key, 0) + value


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _forward_hook(c, args, kwargs, result):
    cfg = _arg(args, kwargs, 2, "cfg")
    _add(c, "forward_tokens", min(len(_arg(args, kwargs, 1, "ids")),
                                  cfg.max_len))


def _loss_and_grads_hook(c, args, kwargs, result):
    cfg = _arg(args, kwargs, 4, "cfg")
    n = min(len(_arg(args, kwargs, 1, "ids")), cfg.max_len)
    _add(c, "lag_flops", loss_and_grads_flops(n, cfg))


def _adam_hook(c, args, kwargs, result):
    # minimum traffic: read param, grad, m, v; write param, m, v
    params = _arg(args, kwargs, 0, "params")
    grads = _arg(args, kwargs, 1, "grads")
    _add(c, "adam_bytes", 7 * sum(params[k].nbytes for k in grads))


def _synthesize_hook(c, args, kwargs, result):
    pairs = _arg(args, kwargs, 1, "pairs")
    _add(c, "synth_attempted", len(pairs))
    _add(c, "synth_made", len(result))
    _add(c, "synth_changed", sum(
        1 for s in result if s.source != pairs[s.origin_index].source))


def _correct_hook(c, args, kwargs, result):
    config = _arg(args, kwargs, 2, "config")
    rounds = result.rounds
    _add(c, "correct_returned", 1)
    _add(c, "rounds", len(rounds))
    for i, rnd in enumerate(rounds):
        after = rounds[i + 1].tokens if i + 1 < len(rounds) else result.final
        if rnd.applied and after != rnd.tokens:
            _add(c, "changed_rounds", 1)
    _add(c, f"ended_{round_ending(result, config)}", 1)


def round_ending(trace, config) -> str:
    """Why a correction stopped, read from its CorrectionTrace: the
    error-score gate, a prediction with no edit, an applied round that
    changed nothing, or the round limit."""
    last = trace.rounds[-1]
    if not last.applied:
        return "gate" if last.score <= config.gamma else "converged"
    if trace.final == last.tokens:
        return "noop"
    return "max_iters"


def _load_hook(c, args, kwargs, result):
    _add(c, "checkpoint_bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _save_hook(c, args, kwargs, result):
    _add(c, "checkpoint_bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


_HOOKS = {
    "model.forward": _forward_hook,
    "model.loss_and_grads": _loss_and_grads_hook,
    "model.adam_step": _adam_hook,
    "training.synthesize_dataset": _synthesize_hook,
    "inference.correct": _correct_hook,
    "checkpoint.load_checkpoint": _load_hook,
    "checkpoint.save_checkpoint": _save_hook,
}
