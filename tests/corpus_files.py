"""Test helpers for the CLI's file formats that the program itself
never needs: a reader of the labeled-dataset files that `align` and
`synthesize` write, and a writer of the sentence files that `correct`
and `evaluate` read."""

from pathlib import Path

from gstgec.corpus import detokenize, tokenize


def read_labeled_tsv(path) -> list[tuple[tuple[str, ...], list[str]]]:
    """(tokens, label strings) per line of "source<TAB>space-joined
    labels", with one label per token, the sentinel's included."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        source, joined = line.split("\t")
        tokens, labels = tokenize(source), joined.split()
        assert len(labels) == len(tokens), line
        rows.append((tokens, labels))
    return rows


def write_sentences(sentences, path) -> None:
    """One detokenized sentence per line."""
    Path(path).write_text(
        "".join(detokenize(s) + "\n" for s in sentences), encoding="utf-8")
