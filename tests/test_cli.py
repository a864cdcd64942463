import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstgec import cli, training
from gstgec.checkpoint import load_checkpoint, save_checkpoint
from gstgec.cli import build_parser, main
from gstgec.corpus import SENTINEL, TokenVocab, detokenize, \
    read_parallel_tsv, write_parallel_tsv
from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.labels import LabelVocab, correct_iteratively, parse_label
from gstgec.model import GecModel

from corpus_files import read_labeled_tsv, write_sentences

PAIR_LINES = [
    "He go to school\tHe goes to school",
    "the Dog barks\tThe dog barks",
    "same here\tsame here",
]


def write_pairs_file(path, lines=PAIR_LINES):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def toy_training_files(tmp_path, n=40, seed=3):
    rng = np.random.default_rng(seed)
    clean = generate_clean_corpus(n, rng)
    pairs = corrupt_corpus(clean, rate=0.3, rng=rng)
    data = tmp_path / "pairs.tsv"
    write_parallel_tsv(pairs, data)
    return data, pairs


TINY_MODEL_ARGS = ["--dim", "16", "--layers", "1", "--heads", "2",
                   "--max-len", "32", "--epochs", "2"]


def test_align_round_trip(tmp_path):
    inp = tmp_path / "in.tsv"
    out = tmp_path / "out.tsv"
    write_pairs_file(inp)
    assert main(["align", "--input", str(inp), "--output", str(out)]) == 0
    rows = read_labeled_tsv(out)
    pairs = read_parallel_tsv(inp)
    assert len(rows) == len(pairs)
    for (tokens, tags), pair in zip(rows, pairs):
        assert tokens == pair.source
        final, _ = correct_iteratively(pair.source, pair.target)
        assert final == pair.target
        assert len(tags) == len(tokens)  # sentinel position included in both
    # the identity pair aligns to all-keeps
    assert set(rows[2][1]) == {"$KEP"}
    assert all(parse_label(tag) is not None or tag == "$KEP"
               for _, tags in rows for tag in tags)
    assert (tmp_path / "out.tsv.manifest").exists()


def test_align_malformed_line_fails_with_line_number(tmp_path, capsys):
    inp = tmp_path / "in.tsv"
    inp.write_text("good\tline\nno tab here\n", encoding="utf-8")
    code = main(["align", "--input", str(inp),
                 "--output", str(tmp_path / "out.tsv")])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {inp}:2: expected exactly one tab, found 0\n"


def test_align_missing_input_is_runtime_error(tmp_path):
    code = main(["align", "--input", str(tmp_path / "nope.tsv"),
                 "--output", str(tmp_path / "out.tsv")])
    assert code == 1


def test_train_equals_gst_single_stage(tmp_path):
    data, _ = toy_training_files(tmp_path)
    a = tmp_path / "a.gst"
    b = tmp_path / "b.gst"
    assert main(["train", "--data", str(data), "--out", str(a),
                 "--seed", "5", *TINY_MODEL_ARGS]) == 0
    assert main(["gst", "--data", str(data), "--out", str(b),
                 "--stages", "1", "--seed", "5", *TINY_MODEL_ARGS]) == 0
    model_a, _ = load_checkpoint(a)
    model_b, _ = load_checkpoint(b)
    for k in model_a.params:
        assert model_a.params[k].tobytes() == model_b.params[k].tobytes()


def test_train_on_a_literal_unknown_token(tmp_path, capsys):
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data, PAIR_LINES + ["the $UNK sat\tthe $UNK sat",
                                         "a $UNK go\ta $UNK goes"])
    out = tmp_path / "m.gst"
    assert main(["train", "--data", str(data), "--out", str(out),
                 *TINY_MODEL_ARGS]) == 0
    assert capsys.readouterr().err == ""
    model, _ = load_checkpoint(out)
    assert model.token_vocab.tokens.count("$UNK") == 1


def test_gst_random_sampling_runs_and_logs_mode(tmp_path):
    data, _ = toy_training_files(tmp_path, n=20)
    out = tmp_path / "m.gst"
    assert main(["gst", "--data", str(data), "--out", str(out),
                 "--stages", "2", "--sampling", "random", "--gamma", "0.0",
                 "--seed", "1", *TINY_MODEL_ARGS]) == 0
    manifest = read_manifest(tmp_path / "m.gst.manifest")
    assert manifest["sampling"] == "random"
    assert manifest["seed"] == "1"
    assert SYNTHESIS_OPTIONS <= manifest.keys()
    assert (tmp_path / "m.gst.metrics.csv").read_text().startswith(
        "stage,epoch,train_loss")


SYNTHESIS_OPTIONS = {"tau", "sampling"}


def test_train_never_synthesizes(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("train synthesized")

    monkeypatch.setattr(training, "synthesize_dataset", refuse)
    data, _ = toy_training_files(tmp_path, n=10)
    assert main(["train", "--data", str(data), "--out",
                 str(tmp_path / "m.gst"), *TINY_MODEL_ARGS]) == 0


@pytest.mark.parametrize("epochs", ["1", "2"])
def test_diverged_training_exits_1_naming_stage_and_epoch(tmp_path, capsys,
                                                          epochs):
    # one step at this rate leaves finite weights (about 1e30) after a
    # finite loss; their forward pass is not finite, so the run stops
    # after epoch 1, the epoch whose step blew the weights up
    data = tmp_path / "one.tsv"
    write_pairs_file(data, PAIR_LINES[:1])
    out = tmp_path / "m.gst"
    with np.errstate(all="ignore"):
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--lr", "1e30", "--epochs", epochs])
    assert code == 1
    err = capsys.readouterr().err
    assert "training diverged in stage 1, epoch 1:" in err
    assert not out.exists()


def test_training_that_diverges_mid_epoch_exits_1_and_saves_nothing(
        tmp_path, capsys):
    # 40 pairs make 3 mini-batches: the first step blows the weights up,
    # so the second mini-batch's gradient is not finite and adam_step
    # stops the epoch before the after-epoch probe runs
    data, _ = toy_training_files(tmp_path)
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--lr", "1e30", "--dim", "8", "--heads", "2",
                 "--layers", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: training diverged in stage 1, epoch 1: non-finite gradient "
        "in tok_emb\n")
    assert list(tmp_path.iterdir()) == [data]


def test_diverged_training_warns_nothing(tmp_path, capsys, recwarn):
    data = tmp_path / "one.tsv"
    write_pairs_file(data, PAIR_LINES[:1])
    code = main(["train", "--data", str(data), "--out",
                 str(tmp_path / "m.gst"), "--lr", "1e30", "--epochs", "2"])
    assert code == 1
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert [line for line in err.splitlines()
            if line.startswith("error:")] == [err.strip()]


def test_train_missing_data_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "m.gst")])
    assert exc.value.code == 2


def test_train_negative_gamma_exits_2(tmp_path):
    data, _ = toy_training_files(tmp_path, n=5)
    code = main(["train", "--data", str(data),
                 "--out", str(tmp_path / "m.gst"), "--gamma", "-1",
                 *TINY_MODEL_ARGS])
    assert code == 2


def trained_checkpoint(tmp_path):
    data, pairs = toy_training_files(tmp_path)
    out = tmp_path / "model.gst"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--seed", "5", *TINY_MODEL_ARGS]) == 0
    return out, pairs


def test_correct_huge_gamma_copies_input(tmp_path):
    ckpt, pairs = trained_checkpoint(tmp_path)
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    sents = [p.source for p in pairs[:5]]
    write_sentences(sents, inp)
    assert main(["correct", "--model", str(ckpt), "--input", str(inp),
                 "--output", str(out), "--gamma", "1e9"]) == 0
    assert out.read_text().splitlines() == [detokenize(s) for s in sents]


def test_correct_keeps_empty_lines_in_place(tmp_path):
    # one output line per input line, so the output lines up with it
    ckpt, pairs = trained_checkpoint(tmp_path)
    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    first, last = (detokenize(p.source) for p in pairs[:2])
    inp.write_text(f"{first}\n\n{last}\n", encoding="utf-8")
    assert main(["correct", "--model", str(ckpt), "--input", str(inp),
                 "--output", str(out), "--gamma", "1e9"]) == 0
    assert out.read_text().splitlines() == [first, "", last]


def test_correct_stdout_and_trace(tmp_path, capsys):
    ckpt, pairs = trained_checkpoint(tmp_path)
    inp = tmp_path / "in.txt"
    write_sentences([pairs[0].source], inp)
    assert main(["correct", "--model", str(ckpt), "--input", str(inp),
                 "--gamma", "0.0", "--max-iters", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "round 1" in out
    assert "final" in out


def test_correct_bad_checkpoint_exits_1(tmp_path):
    bad = tmp_path / "bad.gst"
    bad.write_bytes(b"not a checkpoint")
    inp = tmp_path / "in.txt"
    write_sentences([("a",)], inp)
    assert main(["correct", "--model", str(bad), "--input", str(inp)]) == 1


def test_evaluate_perfect_hypotheses(tmp_path, capsys):
    srcs = tmp_path / "src.txt"
    refs = tmp_path / "ref.txt"
    write_sentences([("a", "x", "b"), ("c", "d")], srcs)
    write_sentences([("a", "b"), ("c", "e")], refs)
    assert main(["evaluate", "--sources", str(srcs),
                 "--hypotheses", str(refs), "--references", str(refs)]) == 0
    out = capsys.readouterr().out
    assert "P 100.0 / R 100.0 / F0.5 100.0" in out


def test_evaluate_scores_an_empty_line_as_an_empty_sentence(tmp_path,
                                                            capsys):
    files = {"sources": ["a x b", "c d"], "hypotheses": ["a b", "c d"],
             "references": ["a b", "c e"]}
    outputs = []
    for gap in ([], [""]):
        argv = ["evaluate"]
        for flag, lines in files.items():
            path = tmp_path / f"{flag}{len(gap)}.txt"
            path.write_text("\n".join(lines[:1] + gap + lines[1:]) + "\n",
                            encoding="utf-8")
            argv += [f"--{flag}", str(path)]
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert "P 100.0 / R 50.0" in outputs[0]
    assert outputs[1] == outputs[0]


def test_evaluate_length_mismatch_exits_1(tmp_path):
    srcs = tmp_path / "src.txt"
    refs = tmp_path / "ref.txt"
    write_sentences([("a",), ("b",)], srcs)
    write_sentences([("a",)], refs)
    assert main(["evaluate", "--sources", str(srcs),
                 "--hypotheses", str(refs), "--references", str(refs)]) == 1


def test_synthesize_beta_dominance_copies_sources(tmp_path):
    ckpt, pairs = trained_checkpoint(tmp_path)
    data = tmp_path / "pairs.tsv"
    out = tmp_path / "syn.tsv"
    assert main(["synthesize", "--model", str(ckpt), "--data", str(data),
                 "--out", str(out), "--beta", "1.5", "--gamma", "0.0"]) == 0
    rows = read_labeled_tsv(out)
    assert len(rows) == len(pairs)
    for (tokens, _), pair in zip(rows, pairs):
        assert tokens == pair.source


def test_synthesize_same_seed_identical_dumps(tmp_path):
    ckpt, _ = trained_checkpoint(tmp_path)
    data = tmp_path / "pairs.tsv"
    outs = []
    for name in ("s1.tsv", "s2.tsv"):
        out = tmp_path / name
        assert main(["synthesize", "--model", str(ckpt), "--data",
                     str(data), "--out", str(out), "--beta", "0.2",
                     "--gamma", "0.0", "--seed", "9"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_synthesize_from_a_checkpoint_that_records_literal_pairing(tmp_path):
    # older gst checkpoints record a pairing and may record a sampling
    # mode that no longer exists; no setting is read back, so neither
    # may stop a load
    ckpt, pairs = trained_checkpoint(tmp_path)
    model, extra = load_checkpoint(ckpt)
    old = tmp_path / "old.gst"
    save_checkpoint(model, old, extra={**extra, "pairing": "literal",
                                       "sampling": "multinomial"})
    assert load_checkpoint(old)[1]["pairing"] == "literal"
    assert load_checkpoint(old)[1]["sampling"] == "multinomial"
    out = tmp_path / "syn.tsv"
    assert main(["synthesize", "--model", str(old), "--data",
                 str(tmp_path / "pairs.tsv"), "--out", str(out),
                 "--gamma", "0.0"]) == 0
    assert len(read_labeled_tsv(out)) == len(pairs)


@pytest.mark.parametrize("flags", [
    ["--heads", "0"],
    ["--dim", "0", "--heads", "1"],
    ["--max-len", "0"],
    ["--batch-size", "0"],
    ["--lr", "-0.001"],
])
def test_train_out_of_range_model_value_exits_2(tmp_path, capsys, flags):
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data)
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 *TINY_MODEL_ARGS, *flags])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--gamma", "-1"],
    ["train", "--epochs", "0"],
    ["train", "--batch-size", "0"],
    ["gst", "--stages", "0"],
    ["correct", "--max-iters", "0"],
    ["synthesize", "--tau", "0"],
    ["synthesize", "--tau", "nan"],
    ["synthesize", "--tau", "inf"],
    ["synthesize", "--sampling", "random", "--beta", "inf"],
    ["correct", "--gamma", "inf"],
    ["train", "--lr", "inf"],
    ["train", "--heldout", "h.tsv", "--heldout-frac", "0.5"],
    # train synthesizes nothing, so it takes no synthesis option
    ["train", "--sampling", "random"],
    ["train", "--pairing", "literal"],
    ["train", "--tau", "0.5"],
    # synthesis has a single pairing, so no subcommand takes --pairing
    ["gst", "--pairing", "literal"],
    ["synthesize", "--pairing", "realign"],
    # Gumbel-max is the categorical draw, so no multinomial mode is left
    ["gst", "--sampling", "multinomial"],
    ["synthesize", "--sampling", "multinomial"],
    # a seed must be a non-negative integer
    ["train", "--seed", "-1"],
    ["gst", "--seed", "-1"],
    ["synthesize", "--seed", "-2"],
    # the model's settings need no vocabulary, so they are checked first
    ["train", "--dim", "8", "--heads", "3"],
    ["train", "--max-len", "0"],
    ["gst", "--layers", "-1"],
    # no dropout is left, so no subcommand takes --dropout
    ["gst", "--dropout", "1.5"],
    ["train", "--dropout", "0.1"],
])
def test_bad_value_exits_2_before_reading_inputs(tmp_path, argv):
    missing = str(tmp_path / "missing")
    if argv[0] in ("train", "gst"):
        files = ["--data", missing, "--out", str(tmp_path / "m.gst")]
    elif argv[0] == "correct":
        files = ["--model", missing, "--input", missing]
    else:
        files = ["--model", missing, "--data", missing,
                 "--out", str(tmp_path / "s.tsv")]
    try:
        code = main([*argv, *files])
    except SystemExit as exc:  # argparse exits itself on a flag conflict
        code = exc.code
    assert code == 2


# 10**16 positions × dim 8 ask for 3.2e17 bytes: past any x86-64 address
# space, so the allocation fails at once, but below numpy's 2**63-byte
# limit, past which it would raise ValueError instead of MemoryError
TOO_LARGE_ARGS = ["--dim", "8", "--heads", "2", "--max-len", str(10 ** 16)]


def test_model_too_large_to_allocate_exits_1(tmp_path, capsys):
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data)
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 *TOO_LARGE_ARGS])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


# Reports a command's exit code and peak resident size.  Linux counts a
# child's peak from its parent's resident size at the fork, so the
# command is forked from this small process, not from the test's.
PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def test_model_too_large_to_allocate_fails_in_bounded_memory(tmp_path):
    # the parameter vector is sized before any layer's shapes are kept;
    # tracemalloc cannot bound this, as it counts the failed request
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(cli.__file__).parents[1]),
               os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_LAUNCHER, sys.executable, "-m",
         "gstgec.cli", "train", "--data", str(data), "--out",
         str(tmp_path / "m.gst"), *TOO_LARGE_ARGS, "--layers", "100000"],
        capture_output=True, text=True, env=env, check=True)
    code, peak_kb = map(int, result.stdout.split())
    assert code == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert peak_kb < 120 * 1024  # ru_maxrss is in kilobytes on Linux


def test_model_with_huge_layer_count_fails_at_once(tmp_path):
    # the vector's size is computed, not walked one layer at a time
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(Path(cli.__file__).parents[1]),
               os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "gstgec.cli", "train", "--data", str(data),
         "--out", str(tmp_path / "m.gst"), "--layers", str(10 ** 12)],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 1
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "m.gst").exists()


def test_train_negative_layers_exits_2(tmp_path, capsys):
    data, _ = toy_training_files(tmp_path, n=5)
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 *TINY_MODEL_ARGS, "--layers", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gamma", "--beta"])
def test_train_nan_gate_exits_2(tmp_path, capsys, flag):
    data, _ = toy_training_files(tmp_path, n=5)
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 *TINY_MODEL_ARGS, flag, "nan"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "gst"])
@pytest.mark.parametrize("frac", ["-0.5", "1.0", "1.5", "nan"])
def test_heldout_frac_out_of_range_exits_2_before_reading_inputs(
        tmp_path, capsys, command, frac):
    code = main([command, "--data", str(tmp_path / "missing"),
                 "--out", str(tmp_path / "m.gst"), "--heldout-frac", frac])
    assert code == 2
    assert "heldout_frac" in capsys.readouterr().err


def test_threads_option_is_gone(tmp_path):
    inp = tmp_path / "in.tsv"
    write_pairs_file(inp)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "4", "align", "--input", str(inp),
              "--output", str(tmp_path / "out.tsv")])
    assert exc.value.code == 2


def read_manifest(path):
    return dict(line.split(" = ", 1)
                for line in path.read_text().splitlines())


def parsed_options(argv):
    args = build_parser().parse_args(argv)
    return {key: str(value) for key, value in vars(args).items()
            if key not in ("command", "func")}


def test_manifests_record_every_parsed_option(tmp_path):
    data, _ = toy_training_files(tmp_path, n=10)
    ckpt = tmp_path / "m.gst"
    sents = tmp_path / "in.txt"
    write_sentences([("a", "b")], sents)
    runs = [
        (["train", "--data", str(data), "--out", str(ckpt), "--seed", "5",
          "--lr", "0.002", *TINY_MODEL_ARGS], ckpt),
        (["correct", "--model", str(ckpt), "--input", str(sents),
          "--output", str(tmp_path / "out.txt"), "--max-iters", "3"],
         tmp_path / "out.txt"),
        (["synthesize", "--model", str(ckpt), "--data", str(data),
          "--out", str(tmp_path / "syn.tsv"), "--sampling", "random"],
         tmp_path / "syn.tsv"),
    ]
    for argv, output in runs:
        assert main(argv) == 0
        manifest = read_manifest(Path(str(output) + ".manifest"))
        assert manifest.pop("command") == argv[0]
        assert manifest.pop("version")
        assert manifest == parsed_options(argv)
        assert "threads" not in manifest
    manifest = read_manifest(Path(str(ckpt) + ".manifest"))
    assert manifest["lr"] == "0.002"
    assert manifest["stages"] == "1"
    assert not SYNTHESIS_OPTIONS & manifest.keys()
    _, extra = load_checkpoint(ckpt)
    assert extra == parsed_options(runs[0][0])
    manifest = read_manifest(tmp_path / "syn.tsv.manifest")
    assert SYNTHESIS_OPTIONS <= manifest.keys()


def test_unparseable_checkpoint_label_exits_1(tmp_path, capsys):
    # a data fault in the checkpoint, not a usage error
    model = GecModel.create(TokenVocab(["$UNK", SENTINEL, "a"]),
                            LabelVocab(["$KEP", "$UNK", "$BOGUS"]), seed=0,
                            dim=8, layers=1, heads=2, max_len=8)
    ckpt = tmp_path / "bogus.gst"
    save_checkpoint(model, ckpt)
    inp = tmp_path / "in.txt"
    write_sentences([(SENTINEL, "a")], inp)
    assert main(["correct", "--model", str(ckpt), "--input", str(inp)]) == 1
    assert "$BOGUS" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "gst", "synthesize"])
def test_empty_data_file_exits_1_naming_it(tmp_path, capsys, command):
    data = tmp_path / "empty.tsv"
    data.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    if command == "synthesize":
        ckpt, _ = trained_checkpoint(tmp_path)
        argv = ["synthesize", "--model", str(ckpt)]
        capsys.readouterr()
    else:
        argv = [command, *TINY_MODEL_ARGS]
    assert main([*argv, "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data}: no sentence pairs\n"
    assert not out.exists()


def test_empty_heldout_file_exits_1_naming_it(tmp_path, capsys):
    data, _ = toy_training_files(tmp_path, n=10)
    heldout = tmp_path / "heldout.tsv"
    heldout.write_text("", encoding="utf-8")
    out = tmp_path / "m.gst"
    code = main(["train", "--data", str(data), "--out", str(out),
                 "--heldout", str(heldout), *TINY_MODEL_ARGS])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {heldout}: no sentence pairs\n"
    assert not out.exists()


def test_one_pair_left_to_the_heldout_split_exits_1(tmp_path, capsys):
    data = tmp_path / "one.tsv"
    write_pairs_file(data, PAIR_LINES[:1])
    code = main(["train", "--data", str(data), "--out",
                 str(tmp_path / "m.gst"), "--heldout-frac", "0.5",
                 *TINY_MODEL_ARGS])
    assert code == 1
    assert capsys.readouterr().err == \
        f"error: {data}: no training pairs left after the held-out split\n"


# every subcommand that writes a file, its inputs missing
OUTPUT_ARGVS = [
    ["align", "--input", "{missing}", "--output", "{out}"],
    ["train", "--data", "{missing}", "--out", "{out}"],
    ["gst", "--data", "{missing}", "--out", "{out}"],
    ["correct", "--model", "{missing}", "--input", "{missing}",
     "--output", "{out}"],
    ["synthesize", "--model", "{missing}", "--data", "{missing}",
     "--out", "{out}"],
]


@pytest.mark.parametrize("argv", OUTPUT_ARGVS)
def test_missing_output_directory_exits_1_before_reading_inputs(
        tmp_path, capsys, argv):
    out = tmp_path / "no" / "such" / "dir" / "result"
    names = {"missing": str(tmp_path / "missing"), "out": str(out)}
    assert main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", OUTPUT_ARGVS)
def test_output_that_is_a_directory_exits_1_before_reading_inputs(
        tmp_path, capsys, argv):
    names = {"missing": str(tmp_path / "missing"), "out": str(tmp_path)}
    assert main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {tmp_path}: it is a directory\n"


def test_gst_missing_output_directory_exits_1_before_training(
        tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gst trained with nowhere to save")

    monkeypatch.setattr(cli, "run_gst", refuse)
    data, _ = toy_training_files(tmp_path, n=10)
    out = tmp_path / "missing" / "m.gst"
    assert main(["gst", "--data", str(data), "--out", str(out),
                 *TINY_MODEL_ARGS]) == 1
    assert str(out) in capsys.readouterr().err


def test_train_with_a_directory_for_its_metrics_exits_1_before_training(
        tmp_path, capsys, monkeypatch):
    # every output is checked before any input is read, so a second run
    # that could not write its metrics leaves the first run's files
    data = tmp_path / "pairs.tsv"
    write_pairs_file(data)
    out = tmp_path / "m.gst"
    argv = ["train", "--data", str(data), "--out", str(out),
            *TINY_MODEL_ARGS]
    assert main([*argv, "--seed", "0"]) == 0
    first = {path.name: path.read_bytes()
             for path in (out, tmp_path / "m.gst.manifest")}
    metrics = tmp_path / "m.gst.metrics.csv"
    metrics.unlink()
    metrics.mkdir()
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("train ran with nowhere to write its metrics")

    monkeypatch.setattr(cli, "run_gst", refuse)
    assert main([*argv, "--seed", "5"]) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write {metrics}: it is a directory\n"
    assert {name: (tmp_path / name).read_bytes() for name in first} == first


@pytest.mark.parametrize("command", ["align", "correct", "synthesize"])
def test_manifest_that_is_a_directory_exits_1_and_writes_nothing(
        tmp_path, capsys, command):
    ckpt, _ = trained_checkpoint(tmp_path)
    data = tmp_path / "pairs.tsv"
    sentences = tmp_path / "in.txt"
    write_sentences([("a", "b")], sentences)
    out = tmp_path / "result"
    argv = {"align": ["align", "--input", str(data), "--output", str(out)],
            "correct": ["correct", "--model", str(ckpt),
                        "--input", str(sentences), "--output", str(out)],
            "synthesize": ["synthesize", "--model", str(ckpt),
                           "--data", str(data), "--out", str(out)]}[command]
    manifest = tmp_path / "result.manifest"
    manifest.mkdir()
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == \
        f"error: cannot write {manifest}: it is a directory\n"
    assert not out.exists()


# unicode, label-like and reserved tokens, and hyphens
ODD_TOKENS = ["a", "dog", "ß", "İ", "e\u0301", "a\u200db", "猫", "🙂",
              "$KEEP", "$APPEND_x", "$MERGE_HYPHEN", "$DEL", "$START", "$UNK",
              "a-b", "-", "a--b", "-a"]
# a side may be empty
ODD_SIDE = st.lists(st.sampled_from(ODD_TOKENS), max_size=6).map(" ".join)


@pytest.mark.filterwarnings("ignore:input of")
@settings(max_examples=100, deadline=None)
@given(pairs=st.lists(st.tuples(ODD_SIDE, ODD_SIDE), min_size=1, max_size=6),
       blank=st.none() | st.integers(0, 6))
def test_well_formed_files_through_every_subcommand(tmp_path_factory, pairs,
                                                    blank):
    # each exit code is 0, 1 or 2, a nonzero one with one error line, and
    # no exception escapes; a corrected sentence can outgrow --max-len, so
    # the encoder may warn that it truncates
    root = tmp_path_factory.mktemp("odd")
    lines = [f"{src}\t{tgt}" for src, tgt in pairs]
    if blank is not None:
        lines.insert(min(blank, len(lines)), "")
    sources, references = (
        [line.split("\t")[side] if line else "" for line in lines]
        for side in (0, 1))
    for name, rows in (("pairs.tsv", lines), ("src.txt", sources),
                       ("ref.txt", references)):
        (root / name).write_text("".join(row + "\n" for row in rows),
                                 encoding="utf-8")
    path = {name: str(root / name) for name in (
        "pairs.tsv", "src.txt", "ref.txt", "aligned.tsv", "model.gst",
        "hyp.txt", "syn.tsv")}
    for argv in (
            ["align", "--input", path["pairs.tsv"],
             "--output", path["aligned.tsv"]],
            ["gst", "--data", path["pairs.tsv"], "--out", path["model.gst"],
             "--dim", "8", "--heads", "2", "--layers", "1", "--max-len", "64",
             "--stages", "2", "--epochs", "1", "--batch-size", "4",
             "--gamma", "0"],
            ["correct", "--model", path["model.gst"],
             "--input", path["src.txt"], "--output", path["hyp.txt"]],
            ["evaluate", "--sources", path["src.txt"],
             "--hypotheses", path["hyp.txt"],
             "--references", path["ref.txt"]],
            ["synthesize", "--model", path["model.gst"],
             "--data", path["pairs.tsv"], "--out", path["syn.tsv"]]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        errors = [line for line in err.getvalue().splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == (code != 0), (argv, err.getvalue())
