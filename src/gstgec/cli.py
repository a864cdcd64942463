"""Command-line entry points.

One binary with subcommands: align, train, gst, correct, evaluate,
synthesize.  A command that writes an output file writes a manifest
next to it, recording every parsed option of the subcommand; re-running
from the same manifest reproduces the outputs bit-exactly.  Settings
are checked by the config dataclasses, which each subcommand builds
before it reads any input; the directory of every output is checked
then too.

Exit codes: 0 success, 1 runtime or data fault (a bad file or checkpoint),
2 usage or config error (a bad flag or an out-of-range setting).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import detokenize, read_parallel_tsv, read_sentences, \
    write_labeled_tsv
from .errors import ConfigError, GstError, ParseError
from .inference import InferenceConfig, correct
from .labels import extract_labels
from .model import GecModel, ModelConfig
from .sampling import SamplingConfig, SamplingMode
from .scoring import score_corpus
from .training import TrainingConfig, build_vocabs, mean_error_rate, \
    metrics_csv, run_gst, synthesize_dataset


def _settings(args) -> dict[str, str]:
    """Every parsed option of the subcommand, as manifests and
    checkpoints record it."""
    return {key: str(value) for key, value in vars(args).items()
            if key not in ("command", "func")}


def _write_manifest(output, args) -> None:
    """Write <output>.manifest: the command, the version and the
    settings."""
    settings = _settings(args)
    lines = [f"command = {args.command}", f"version = {__version__}"]
    for key in sorted(settings):
        lines.append(f"{key} = {settings[key]}")
    Path(str(output) + ".manifest").write_text("\n".join(lines) + "\n",
                                               encoding="utf-8")


def _add_sampling_args(p, synthesis: bool):
    """The gate, keep bias and seed, plus with synthesis the options that
    only synthesis reads: --tau and --sampling."""
    p.add_argument("--gamma", type=float, default=TrainingConfig.gamma)
    p.add_argument("--beta", type=float, default=TrainingConfig.beta)
    if synthesis:
        p.add_argument("--tau", type=float, default=SamplingConfig.tau)
        p.add_argument("--sampling", choices=[m.value for m in SamplingMode],
                       default=SamplingConfig.mode.value)
    p.add_argument("--seed", type=int, default=TrainingConfig.seed)


def _add_model_args(p):
    p.add_argument("--dim", type=int, default=ModelConfig.dim)
    p.add_argument("--layers", type=int, default=ModelConfig.layers)
    p.add_argument("--heads", type=int, default=ModelConfig.heads)
    p.add_argument("--max-len", type=int, default=ModelConfig.max_len)
    p.add_argument("--dropout", type=float, default=ModelConfig.dropout)
    p.add_argument("--lr", type=float, default=TrainingConfig.lr)
    p.add_argument("--batch-size", type=int, default=TrainingConfig.batch_size)


def cmd_align(args) -> int:
    _check_output_dir(args.output)
    pairs = read_parallel_tsv(args.input)
    write_labeled_tsv(((p.source, extract_labels(p)) for p in pairs),
                      args.output)
    _write_manifest(args.output, args)
    return 0


def _training_config(args) -> TrainingConfig:
    """The config of train, gst and synthesize.  train parses no
    synthesis options and synthesize no training options; what a
    subcommand does not parse keeps its TrainingConfig default."""
    options = dict(gamma=args.gamma, beta=args.beta, seed=args.seed)
    if args.command != "train":
        options.update(
            sampling=SamplingConfig(mode=SamplingMode(args.sampling),
                                    tau=args.tau))
    if args.command != "synthesize":
        options.update(stages=args.stages, epochs_per_stage=args.epochs,
                       lr=args.lr, batch_size=args.batch_size)
    return TrainingConfig(**options)


def _check_output_dir(path) -> None:
    """Fail before any input is read when an output cannot be written
    for want of its directory."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise GstError(f"cannot write {path}: no directory {parent}")


def _read_pairs(path) -> list:
    """The sentence pairs of a --data or --heldout file, which must hold
    at least one."""
    pairs = read_parallel_tsv(path)
    if not pairs:
        raise ParseError("no sentence pairs", path=path)
    return pairs


def cmd_train(args) -> int:
    """train and gst; train is gst with a single stage."""
    cfg = _training_config(args)
    if not 0 <= args.heldout_frac < 1:
        raise ConfigError("heldout_frac must be in [0, 1)")
    _check_output_dir(args.out)
    pairs = _read_pairs(args.data)
    heldout = None
    if args.heldout:
        heldout = _read_pairs(args.heldout)
    elif args.heldout_frac > 0:
        rng = np.random.default_rng((args.seed, 0x5))
        order = rng.permutation(len(pairs))
        cut = max(1, int(len(pairs) * args.heldout_frac))
        heldout = [pairs[i] for i in order[:cut]]
        pairs = [pairs[i] for i in order[cut:]]
    if not pairs:
        raise ParseError("no training pairs left after the held-out split",
                         path=args.data)

    token_vocab, label_vocab = build_vocabs(pairs)
    model = GecModel.create(
        token_vocab, label_vocab, seed=args.seed, dim=args.dim,
        layers=args.layers, heads=args.heads, max_len=args.max_len,
        dropout=args.dropout)
    model, metrics = run_gst(model, pairs, cfg, heldout_pairs=heldout)

    save_checkpoint(model, args.out, extra=_settings(args))
    csv_path = Path(str(args.out) + ".metrics.csv")
    csv_path.write_text(metrics_csv(metrics), encoding="utf-8")
    _write_manifest(args.out, args)
    for m in metrics:
        line = f"stage {m.stage} loss={m.epoch_losses[-1]:.4f}"
        if m.eval is not None:
            line += f" heldout: {m.eval.text()}"
        line += f" synthesized={m.synthetic_count}"
        print(line)
    return 0


def cmd_correct(args) -> int:
    icfg = InferenceConfig(gamma=args.gamma, beta=args.beta,
                           max_iters=args.max_iters)
    if args.output:
        _check_output_dir(args.output)
    model, _ = load_checkpoint(args.model)
    sentences = read_sentences(args.input)
    out_lines = []
    for sent in sentences:
        trace = correct(model, sent, icfg)
        out_lines.append(detokenize(trace.final))
        if args.trace:
            out_lines.append(trace.report())
    text = "\n".join(out_lines) + ("\n" if out_lines else "")
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        _write_manifest(args.output, args)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    sources = read_sentences(args.sources)
    hypotheses = read_sentences(args.hypotheses)
    references = read_sentences(args.references)
    report = score_corpus(sources, hypotheses, references)
    print(report.text())
    print("tp,fp,fn,precision,recall,f_half")
    print(report.csv_row())
    return 0


def cmd_synthesize(args) -> int:
    cfg = _training_config(args)
    _check_output_dir(args.out)
    model, _ = load_checkpoint(args.model)
    pairs = _read_pairs(args.data)
    gold = [extract_labels(p) for p in pairs]
    synthetic = synthesize_dataset(model, pairs, gold, stage=0, cfg=cfg,
                                   base_seed=args.seed)
    write_labeled_tsv(((s.source, s.labels) for s in synthetic), args.out)
    _write_manifest(args.out, args)
    print(f"synthesized {len(synthetic)} of {len(pairs)} sentences, "
          f"mean label error rate {mean_error_rate(synthetic):.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstgec",
        description="Sequence-labeling grammatical error correction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="extract edit labels from a parallel "
                       "TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_align)

    for name, helptext in (("train", "baseline training: one stage on the "
                            "genuine pairs, no synthesis"),
                           ("gst", "staged training with self-synthesis")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--data", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--epochs", type=int, default=5)
        if name == "gst":
            p.add_argument("--stages", type=int, default=5)
        else:
            p.set_defaults(stages=1)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--heldout", default="")
        group.add_argument("--heldout-frac", type=float, default=0.0)
        _add_sampling_args(p, synthesis=name == "gst")
        _add_model_args(p)
        p.set_defaults(func=cmd_train)

    p = sub.add_parser("correct", help="iteratively correct sentences")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--gamma", type=float, default=InferenceConfig.gamma)
    p.add_argument("--beta", type=float, default=InferenceConfig.beta)
    p.add_argument("--max-iters", type=int, default=InferenceConfig.max_iters)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_correct)

    p = sub.add_parser("evaluate", help="span-level P/R/F0.5 scoring")
    p.add_argument("--sources", required=True)
    p.add_argument("--hypotheses", required=True)
    p.add_argument("--references", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synthesize", help="dump a synthesized dataset from "
                       "a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    _add_sampling_args(p, synthesis=True)
    p.set_defaults(func=cmd_synthesize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GstError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
