import contextlib
import io
import json
import os
import re
import time
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstgec.checkpoint import load_checkpoint, save_checkpoint
from gstgec.cli import main
from gstgec.corpus import SENTINEL, SentencePair, TokenVocab, detokenize, \
    read_parallel_tsv, read_sentences, tokenize, write_parallel_tsv
from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.errors import ConfigError, GstError
from gstgec.labels import LabelVocab
from gstgec.model import GecModel, ModelConfig, flat_params, param_shapes, \
    param_views

from corpus_files import write_sentences

COMMITTED_CHECKPOINT = (Path(__file__).resolve().parent.parent / "perfbench"
                        / "correct_model.gst")


@contextlib.contextmanager
def _plain_gst_error(match):
    """Expects a GstError whose message matches match, and not one of its
    subclasses: ConfigError is a GstError too, and exits 2, not 1."""
    with pytest.raises(GstError, match=match) as exc:
        yield
    assert type(exc.value) is GstError


def test_tokenize_basic():
    assert tokenize("He go home") == (SENTINEL, "He", "go", "home")


def test_tokenize_empty():
    assert tokenize("") == (SENTINEL,)


def test_tokenize_collapses_whitespace_runs():
    assert tokenize("a  b") == (SENTINEL, "a", "b")
    assert tokenize(" a\t b \n") == (SENTINEL, "a", "b")


@given(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Z", "C")),
                        min_size=1), max_size=8))
def test_tokenize_detokenize_round_trip(words):
    text = " ".join(words)
    assert detokenize(tokenize(text)) == " ".join(text.split())


def test_parallel_tsv_round_trip(tmp_path):
    path = tmp_path / "pairs.tsv"
    pairs = [SentencePair(tokenize("He go home"), tokenize("He goes home")),
             SentencePair(tokenize(""), tokenize("Hello"))]
    write_parallel_tsv(pairs, path)
    assert read_parallel_tsv(path) == pairs


def test_parallel_tsv_line_format(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("He go home\tHe goes home\n", encoding="utf-8")
    [pair] = read_parallel_tsv(path)
    assert pair.source == (SENTINEL, "He", "go", "home")
    assert pair.target == (SENTINEL, "He", "goes", "home")


def test_parallel_tsv_rejects_extra_tab(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("good\tline\nbad\tline\textra\n", encoding="utf-8")
    with _plain_gst_error(f"^{re.escape(str(path))}:2: expected exactly one "
                          "tab, found 2$"):
        read_parallel_tsv(path)


def test_parallel_tsv_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert read_parallel_tsv(path) == []


def test_sentences_round_trip_with_an_empty_sentence(tmp_path):
    # one sentence per line, an empty line included, so the sentences
    # of a file line up with its lines
    path = tmp_path / "sents.txt"
    sents = [tokenize("a b"), tokenize(""), tokenize("c")]
    write_sentences(sents, path)
    assert path.read_text(encoding="utf-8") == "a b\n\nc\n"
    assert read_sentences(path) == sents


def _tiny_model(seed=0):
    token_vocab = TokenVocab(["$UNK", SENTINEL, "a", "b", "c"])
    label_vocab = LabelVocab(["$KEP", "$UNK", "$DEL", "$REP_a"])
    return GecModel.create(token_vocab, label_vocab, seed=seed, dim=8,
                           layers=1, heads=2, max_len=8)


def test_checkpoint_round_trip(tmp_path):
    model = _tiny_model(3)
    path = tmp_path / "model.gst"
    save_checkpoint(model, path, extra={"note": "x"})
    loaded, extra = load_checkpoint(path)
    assert extra == {"note": "x"}
    assert loaded.cfg == model.cfg
    assert loaded.token_vocab.tokens == model.token_vocab.tokens
    assert loaded.label_vocab.labels == model.label_vocab.labels
    for name, arr in model.params.items():
        assert arr.tobytes() == loaded.params[name].tobytes(), name


def test_checkpoint_round_trip_many_random_models(tmp_path):
    # bitwise exactness over a large sample of random initializations
    path = tmp_path / "m.gst"
    for seed in range(1000):
        token_vocab = TokenVocab(["$UNK", SENTINEL, "w"])
        label_vocab = LabelVocab(["$KEP", "$UNK"])
        model = GecModel.create(token_vocab, label_vocab, seed=seed, dim=4,
                                layers=1, heads=1, max_len=4)
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        for name, arr in model.params.items():
            assert arr.tobytes() == loaded.params[name].tobytes()


def test_checkpoint_float64_round_trip_is_bitwise(tmp_path):
    token_vocab = TokenVocab(["$UNK", SENTINEL, "a", "b", "c"])
    label_vocab = LabelVocab(["$KEP", "$UNK", "$DEL", "$REP_a"])
    model = GecModel.create(token_vocab, label_vocab, seed=5, dim=8,
                            layers=1, heads=2, max_len=8, dtype="float64")
    path = tmp_path / "model.gst"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg.dtype == "float64"
    for name, arr in model.params.items():
        assert loaded.params[name].dtype == np.float64
        assert arr.tobytes() == loaded.params[name].tobytes(), name


def test_model_config_rejects_other_dtypes():
    for dtype in ("int8", "float16"):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=3, num_labels=2, dtype=dtype)


def test_loaded_params_are_views_of_one_vector():
    model, _ = load_checkpoint(COMMITTED_CHECKPOINT)
    arrays = list(model.params.values())
    flat = flat_params(model.params)
    assert all(a is b for a, b in zip(arrays, model.params.values()))
    assert all(a.base is flat for a in arrays)
    assert flat.flags.writeable


def test_checkpoint_saves_a_replaced_entry(tmp_path):
    model = _tiny_model(3)
    model.params["gel_b"] = np.array([1, 2, 3, 4], dtype=np.float32)
    path = tmp_path / "model.gst"
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    assert loaded.params["gel_b"].tolist() == [1, 2, 3, 4]
    assert model.params["gel_b"].base is model.params["tok_emb"].base


@pytest.mark.parametrize("edit", ["reorder", "drop", "reshape"])
def test_checkpoint_refuses_parameters_not_in_the_config_order(tmp_path,
                                                               edit):
    model = _tiny_model()
    names = list(model.params)
    if edit == "reorder":
        model.params = {name: model.params[name] for name in reversed(names)}
    elif edit == "drop":
        del model.params[names[-1]]
    else:
        model.params["gel_b"] = model.params["gel_b"].reshape(2, 2)
    path = tmp_path / "model.gst"
    with pytest.raises(ValueError,
                       match="^parameters are not the config's, in its order$"):
        save_checkpoint(model, path)
    assert not path.exists()


def test_committed_checkpoint_resaves_byte_for_byte(tmp_path):
    # the committed file holds the "dropout" entry that the writer no
    # longer writes, and no sum-of-squares record; a resave is its bytes
    # without that entry and with the record, last in the document
    data = COMMITTED_CHECKPOINT.read_bytes()
    start = 8 + int.from_bytes(data[4:8], "little")
    assert data[8:start].count(b'"dropout": 0.0, ') == 1
    doc = data[8:start].replace(b'"dropout": 0.0, ', b"")
    assert len(doc) == 6635 and b"sum_of_squares" not in doc
    model, extra = load_checkpoint(COMMITTED_CHECKPOINT)
    arrays = {name: float(np.vdot(a, a)) for name, a in model.params.items()}
    record = {"total": sum(arrays.values()), "arrays": arrays}
    assert record["total"] == pytest.approx(664.47, abs=0.005)
    doc = doc[:-1] + b', "sum_of_squares": ' + json.dumps(record).encode() \
        + b"}"
    path = tmp_path / "resaved.gst"
    save_checkpoint(model, path, extra=extra)
    assert path.read_bytes() == \
        data[:4] + len(doc).to_bytes(4, "little") + doc + data[start:]


def test_checkpoint_model_object_is_the_config(tmp_path):
    model = _tiny_model(3)
    first, second = tmp_path / "first.gst", tmp_path / "second.gst"
    save_checkpoint(model, first, extra={"note": "x"})
    data = first.read_bytes()
    doc = json.loads(data[8:8 + int.from_bytes(data[4:8], "little")])
    assert doc["model"] == asdict(model.cfg)
    loaded, extra = load_checkpoint(first)
    save_checkpoint(loaded, second, extra=extra)
    assert second.read_bytes() == data


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.gst"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with _plain_gst_error("^bad magic b'XXXX', "):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = _tiny_model()
    path = tmp_path / "model.gst"
    save_checkpoint(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 10])
    with _plain_gst_error("'gel_b'"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes(tmp_path):
    model = _tiny_model()
    path = tmp_path / "model.gst"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with _plain_gst_error("^4 trailing bytes after declared arrays$"):
        load_checkpoint(path)


def _edit_config_document(path, edit) -> None:
    """Rewrite the checkpoint's config document as edit(document)."""
    data = path.read_bytes()
    end = 8 + int(np.frombuffer(data[4:8], dtype="<u4")[0])
    doc = json.dumps(edit(json.loads(data[8:end]))).encode("utf-8")
    path.write_bytes(data[:4] + np.uint32(len(doc)).astype("<u4").tobytes()
                     + doc + data[end:])


def test_checkpoint_ends_inside_the_header(tmp_path):
    path = tmp_path / "short.gst"
    path.write_bytes(b"GST1\0\0")
    with _plain_gst_error("inside the header"):
        load_checkpoint(path)


def test_checkpoint_config_length_past_the_end(tmp_path):
    path = tmp_path / "model.gst"
    save_checkpoint(_tiny_model(), path)
    data = path.read_bytes()
    path.write_bytes(data[:4] + b"\xff\xff\xff\xff" + data[8:])
    with _plain_gst_error("inside the config document"):
        load_checkpoint(path)


def _huge_dim(doc):
    doc["model"].update(dim=2 ** 31, heads=1)
    return doc


def test_checkpoint_declaring_more_weights_than_the_file_holds(tmp_path,
                                                               capsys):
    # the declared sizes are checked against the file before anything of
    # that size is allocated
    path = tmp_path / "model.gst"
    save_checkpoint(_tiny_model(), path)
    _edit_config_document(path, _huge_dim)
    with _plain_gst_error("'tok_emb'"):
        load_checkpoint(path)
    inp = tmp_path / "in.txt"
    write_sentences([(SENTINEL, "a", "b")], inp)
    assert main(["correct", "--model", str(path), "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'tok_emb'" in err


def test_checkpoint_that_is_not_a_regular_file():
    with _plain_gst_error("not a regular file"):
        load_checkpoint(os.devnull)


@pytest.mark.parametrize("edit", [
    lambda doc: {k: v for k, v in doc.items() if k != "extra"},
    lambda doc: [1, 2],
], ids=["no-extra", "not-an-object"])
def test_checkpoint_malformed_config_document(tmp_path, edit):
    path = tmp_path / "model.gst"
    save_checkpoint(_tiny_model(), path)
    _edit_config_document(path, edit)
    with _plain_gst_error("^invalid config document: "):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("dim", 32.0), ("max_len", 40.0), ("layers", 2.0),
    ("vocab_size", 413.0), ("heads", True),
])
def test_checkpoint_non_integer_model_field_exits_1(tmp_path, capsys, field,
                                                    value):
    path = tmp_path / "model.gst"
    path.write_bytes(COMMITTED_CHECKPOINT.read_bytes())

    def edit(doc):
        doc["model"][field] = value
        return doc

    _edit_config_document(path, edit)
    # ModelConfig's ConfigError is wrapped: a bad file is not a bad setting
    with _plain_gst_error(field):
        load_checkpoint(path)
    inp = tmp_path / "in.txt"
    write_sentences([(SENTINEL, "a", "b")], inp)
    assert main(["correct", "--model", str(path), "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def _set_label(doc, value):
    doc["labels"][2] = value
    return doc


def _set_token(doc, value):
    doc["tokens"][-1] = value
    return doc


@pytest.mark.parametrize("field,edit", [
    ("labels", lambda doc: _set_label(doc, 5)),
    ("labels", lambda doc: _set_label(doc, None)),
    ("labels", lambda doc: {**doc, "labels": 5}),
    ("tokens", lambda doc: {**doc, "tokens": {"$UNK": 0}}),
    ("tokens", lambda doc: _set_token(doc, 5)),
], ids=["label-int", "label-null", "labels-int", "tokens-object",
        "token-int"])
def test_checkpoint_malformed_vocabulary_exits_1(tmp_path, capsys, field,
                                                 edit):
    path = tmp_path / "model.gst"
    path.write_bytes(COMMITTED_CHECKPOINT.read_bytes())
    _edit_config_document(path, edit)
    inp = tmp_path / "in.txt"
    write_sentences([(SENTINEL, "a", "b")], inp)
    assert main(["correct", "--model", str(path), "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def _set_model_field(field, value):
    def edit(doc):
        doc["model"][field] = value
        return doc
    return edit


def test_checkpoint_dropout_rate_is_read_past(tmp_path, capsys):
    # no model trains with dropout and inference never applied it, so a
    # rate that a model could have been saved with changes nothing
    path = tmp_path / "legacy.gst"
    path.write_bytes(COMMITTED_CHECKPOINT.read_bytes())
    _edit_config_document(path, _set_model_field("dropout", 0.3))
    model, extra = load_checkpoint(path)
    ref, ref_extra = load_checkpoint(COMMITTED_CHECKPOINT)
    assert (model.cfg, extra) == (ref.cfg, ref_extra)
    assert flat_params(model.params).tobytes() == \
        flat_params(ref.params).tobytes()

    rng = np.random.default_rng(5)
    pairs = corrupt_corpus(generate_clean_corpus(30, rng), 0.3, rng)
    inp = tmp_path / "in.txt"
    write_sentences([p.source for p in pairs], inp)
    outputs = []
    for ckpt in (COMMITTED_CHECKPOINT, path):
        assert main(["correct", "--model", str(ckpt), "--input",
                     str(inp)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0] != "".join(detokenize(p.source) + "\n" for p in pairs)


@pytest.mark.parametrize("field,edit", [
    ("dropout", _set_model_field("dropout", 1.5)),
    ("dropout", _set_model_field("dropout", "x")),
    ("model", lambda doc: {**doc, "model": [1, 2]}),
    ("sum_of_squares", lambda doc: {**doc, "sum_of_squares": {
        "total": 664, "arrays": {}}}),
], ids=["dropout-1.5", "dropout-str", "model-list", "record-int-total"])
def test_checkpoint_malformed_model_object_exits_1(tmp_path, capsys, field,
                                                   edit):
    path = tmp_path / "model.gst"
    path.write_bytes(COMMITTED_CHECKPOINT.read_bytes())
    _edit_config_document(path, edit)
    inp = tmp_path / "in.txt"
    write_sentences([(SENTINEL, "a", "b")], inp)
    assert main(["correct", "--model", str(path), "--input", str(inp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err


def test_checkpoint_declaring_many_layers_fails_in_bounded_memory(tmp_path):
    # the declared arrays are walked only as far as the file holds them
    path = tmp_path / "model.gst"
    save_checkpoint(_tiny_model(), path)
    _edit_config_document(path, _set_model_field("layers", 100_000))
    tracemalloc.start()
    try:
        with _plain_gst_error("'blk1.Wq'"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _edit_weights(path, edit) -> None:
    """Rewrite the float32 weights of the checkpoint at path in place."""
    data = bytearray(path.read_bytes())
    start = 8 + int.from_bytes(data[4:8], "little")
    edit(np.frombuffer(data, dtype="<f4", offset=start))
    path.write_bytes(data)


@pytest.mark.parametrize("edit,array", [
    (lambda w: w.fill(np.nan), "tok_emb"),
    (lambda w: w.__setitem__(-1, np.inf), "gel_b"),
    # finite, but their squares overflow float32, as in the forward pass
    (lambda w: w.__setitem__(0, 1e30), "tok_emb"),
    (lambda w: w.__setitem__(-1, 3e38), "gel_b"),
], ids=["all-nan", "last-inf", "first-1e30", "last-3e38"])
@pytest.mark.parametrize("command", ["correct", "synthesize"])
def test_checkpoint_non_finite_weights_exit_1(tmp_path, capsys, command,
                                              edit, array):
    path = tmp_path / "model.gst"
    path.write_bytes(COMMITTED_CHECKPOINT.read_bytes())
    _edit_weights(path, edit)
    with _plain_gst_error(f"'{array}'"):
        load_checkpoint(path)
    data = tmp_path / "pairs.tsv"
    write_parallel_tsv([SentencePair((SENTINEL, "a", "b"),
                                     (SENTINEL, "a", "c"))], data)
    if command == "correct":
        argv = ["--input", str(data)]
    else:
        argv = ["--data", str(data), "--out", str(tmp_path / "syn.tsv")]
    assert main([command, "--model", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{array}'" in err


@pytest.mark.parametrize("name,index,value", [
    ("blk1.Wv", (1, 1), 1e15), ("gel_b", 5, 1e18),
], ids=["Wv-1e15", "gel_b-1e18"])
@pytest.mark.parametrize("command", ["correct", "synthesize"])
def test_checkpoint_weight_corrupted_under_the_overflow_bound_exits_1(
        tmp_path, capsys, command, name, index, value):
    # the squares stay finite in float32, so only the file's record of
    # the sum of squares tells this weight from a trained one
    model, extra = load_checkpoint(COMMITTED_CHECKPOINT)
    path = tmp_path / "model.gst"
    save_checkpoint(model, path, extra=extra)
    shapes = dict(param_shapes(model.cfg))
    _edit_weights(path, lambda w: param_views(w, shapes)[name].__setitem__(
        index, value))
    data = tmp_path / "pairs.tsv"
    write_parallel_tsv([SentencePair(tokenize("the dog run fast ."),
                                     tokenize("the dog runs fast ."))], data)
    if command == "correct":
        argv = ["--input", str(data)]
    else:
        argv = ["--data", str(data), "--out", str(tmp_path / "syn.tsv")]
    assert main([command, "--model", str(path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: weight array '{name}': sum of squares ")
    assert err.count("\n") == 1 and "differs from the recorded" in err


def test_checkpoint_signaling_nan_weight_is_named_without_a_warning(
        tmp_path):
    # a signaling NaN, as one flipped bit can make, raises the invalid
    # flag in the screen's dot product
    path = tmp_path / "model.gst"
    save_checkpoint(_tiny_model(), path)
    _edit_weights(path, lambda w: w.view("<u4").__setitem__(-1, 0x7F800001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _plain_gst_error("'gel_b'"):
            load_checkpoint(path)


def test_checkpoint_weights_whose_squares_overflow_are_rejected(tmp_path):
    model = _tiny_model()
    model.params["gel_b"][:] = 3e38
    path = tmp_path / "model.gst"
    save_checkpoint(model, path)
    with _plain_gst_error("'gel_b'"):
        load_checkpoint(path)
    # each array's squares sum to a finite value, but not all of them
    model = _tiny_model()
    model.params["tok_emb"][0, 0] = model.params["gel_b"][0] = 1.5e19
    save_checkpoint(model, path)
    with _plain_gst_error("^weights: "):
        load_checkpoint(path)


MODEL_FIELDS = ("vocab_size", "num_labels", "dim", "layers", "heads",
                "max_len", "dropout", "dtype")
DELETED = object()
FIELD_VALUES = st.one_of(st.just(DELETED), st.none(), st.booleans(),
                         st.integers(-2, 2 ** 70), st.floats(),
                         st.text(max_size=4), st.lists(st.integers(),
                                                       max_size=2))


def _mutate(base: bytes, data) -> bytes:
    """base with one byte flipped in the header, config document or
    weights, cut short, or with one model field edited or deleted."""
    start = 8 + int.from_bytes(base[4:8], "little")
    kind = data.draw(st.sampled_from(
        ["header", "document", "weights", "truncate", "field"]))
    if kind == "truncate":
        return base[:data.draw(st.integers(0, len(base) - 1))]
    if kind == "field":
        doc = json.loads(base[8:start])
        field = data.draw(st.sampled_from(MODEL_FIELDS))
        value = data.draw(FIELD_VALUES)
        if value is DELETED:
            doc["model"].pop(field, None)
        else:
            doc["model"][field] = value
        blob = json.dumps(doc).encode("utf-8")
        return base[:4] + len(blob).to_bytes(4, "little") + blob + base[start:]
    low, high = {"header": (0, 8), "document": (8, start),
                 "weights": (start, len(base))}[kind]
    out = bytearray(base)
    out[data.draw(st.integers(low, high - 1))] ^= data.draw(
        st.integers(1, 255))
    return bytes(out)


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")
    save_checkpoint(_tiny_model(), root / "base.gst")
    write_parallel_tsv([SentencePair((SENTINEL, "a", "b"),
                                     (SENTINEL, "a", "c"))],
                       root / "pairs.tsv")
    return root


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_exits_0_or_1_with_one_error_line(mutation_dir,
                                                             data):
    path = mutation_dir / "mutated.gst"
    path.write_bytes(_mutate((mutation_dir / "base.gst").read_bytes(), data))
    try:
        model, _ = load_checkpoint(path)
    except GstError as exc:
        # a refused file is a data fault, never a ConfigError
        assert type(exc) is GstError
    else:
        # the sum-of-squares record refuses a weight corrupted far past
        # the base's largest (about 1 in magnitude)
        assert np.abs(flat_params(model.params)).max() <= 10
    pairs = str(mutation_dir / "pairs.tsv")
    for command, *argv in (
            ["correct", "--input", pairs],
            ["synthesize", "--data", pairs,
             "--out", str(mutation_dir / "syn.tsv")]):
        err = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--model", str(path), *argv])
        assert time.perf_counter() - began < 2.0
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""


@pytest.mark.parametrize("field", ["vocab_size", "num_labels", "dim",
                                   "layers", "heads", "max_len"])
@pytest.mark.parametrize("value", [2.0, True, "2", None])
def test_model_config_rejects_non_integer_fields(field, value):
    kwargs = dict(vocab_size=3, num_labels=2, dim=4, layers=1, heads=2,
                  max_len=8)
    kwargs[field] = value
    with pytest.raises(ConfigError, match=field):
        ModelConfig(**kwargs)


def test_token_vocab_build_and_unknowns():
    vocab = TokenVocab.build([(SENTINEL, "a", "a", "b")])
    assert vocab.tokens[0] == "$UNK"
    ids = vocab.encode((SENTINEL, "a", "zzz"))
    assert ids[2] == 0  # unknown maps to id 0
    assert len(set(vocab.tokens)) == len(vocab.tokens)
    # a literal unknown token in the corpus is the reserved entry
    vocab = TokenVocab.build([(SENTINEL, "$UNK", "a"), (SENTINEL, "$UNK")])
    assert vocab.tokens == ["$UNK", SENTINEL, "a"]
    assert vocab.encode((SENTINEL, "$UNK", "a")).tolist() == [1, 0, 2]


def test_label_vocab_and_checkpoint_load_parse_no_label(tmp_path,
                                                        monkeypatch):
    import gstgec.labels as labels_module

    calls = []
    real = labels_module.parse_label

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(labels_module, "parse_label", counting)
    strings = ["$KEP", "$UNK", "$DEL", "$REP_a", "$APP_b", "$MRG"]
    vocab = LabelVocab(strings)
    path = tmp_path / "model.gst"
    model = _tiny_model(4)
    save_checkpoint(model, path)
    loaded, _ = load_checkpoint(path)
    assert calls == []
    # first use parses each label once; later uses reuse the parse
    assert vocab.parsed[3] == real("$REP_a")
    vocab.sentinel_mask, vocab.parsed
    assert sorted(calls) == sorted(s for s in strings if s != "$UNK")
    assert vocab.sentinel_mask.tolist() == [True, False, False, False,
                                            True, False]
    loaded.label_vocab.parsed
    assert len(calls) == len(strings) - 1 + len(loaded.label_vocab) - 1


def test_label_vocab_decode_keeps_unknown_and_guards_sentinel():
    vocab = LabelVocab(["$KEP", "$UNK", "$DEL", "$REP_a", "$APP_b"])
    keep, _, dele, rep, app = vocab.parsed
    assert vocab.decode([]) == []
    # position 0 admits only SENTINEL_KINDS; later positions are untouched
    assert vocab.decode([3, 1, 2, 3, 4]) == [keep, keep, dele, rep, app]
    assert vocab.decode([2]) == [keep]
    assert vocab.decode([4, 4]) == [app, app]
    assert vocab.decode([1]) == [keep]
