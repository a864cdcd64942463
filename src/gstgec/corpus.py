"""Tokenization, vocabularies, and corpus file formats.

Sentences are tuples of whitespace-free tokens with a synthetic
sentence-initial sentinel at position 0.  The sentinel exists so an
insertion before the first real word has an anchor token to attach to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError

SENTINEL = "$START"
UNK_TOKEN = "$UNK"

TokenSeq = tuple[str, ...]


def tokenize(text: str) -> TokenSeq:
    """Split on runs of whitespace and prepend the sentinel."""
    return (SENTINEL, *text.split())


def detokenize(tokens: TokenSeq) -> str:
    """Inverse of tokenize up to whitespace normalization."""
    body = tokens[1:] if tokens and tokens[0] == SENTINEL else tokens
    return " ".join(body)


@dataclass(frozen=True)
class SentencePair:
    """An errorful source sentence and its corrected target."""

    source: TokenSeq
    target: TokenSeq


def _lines(path):
    """Yield (line number, line) for each non-empty line of a text
    file, without its newline."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line:
                yield lineno, line


def _tsv_rows(path):
    """Yield (line number, left, right) for each non-empty line of a
    two-column TSV file."""
    for lineno, line in _lines(path):
        if line.count("\t") != 1:
            raise ParseError(
                f"expected exactly one tab, found {line.count(chr(9))}",
                path=path, line=lineno)
        left, right = line.split("\t")
        yield lineno, left, right


def read_parallel_tsv(path) -> list[SentencePair]:
    """Read "source<TAB>target" pairs, one per non-empty line."""
    return [SentencePair(tokenize(src), tokenize(tgt))
            for _, src, tgt in _tsv_rows(path)]


def write_parallel_tsv(pairs: list[SentencePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(f"{detokenize(pair.source)}\t{detokenize(pair.target)}\n")


def read_labeled_tsv(path) -> list[tuple[TokenSeq, list[str]]]:
    """Read the labeled-dataset cache: "source<TAB>space-joined labels"."""
    rows = []
    for lineno, src, labels in _tsv_rows(path):
        tokens = tokenize(src)
        label_strs = labels.split()
        if len(label_strs) != len(tokens):
            raise ParseError(
                f"{len(label_strs)} labels for {len(tokens)} tokens",
                path=path, line=lineno)
        rows.append((tokens, label_strs))
    return rows


def write_labeled_tsv(rows, path) -> None:
    """Write (tokens, labels) rows in the cache format, labels by str()."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, labels in rows:
            fh.write(f"{detokenize(tokens)}\t{' '.join(map(str, labels))}\n")


def read_sentences(path) -> list[TokenSeq]:
    """One tokenized sentence per non-empty line."""
    return [tokenize(line) for _, line in _lines(path)]


def write_sentences(sentences, path) -> None:
    Path(path).write_text(
        "".join(detokenize(s) + "\n" for s in sentences), encoding="utf-8")


class TokenVocab:
    """Token <-> dense id map for the encoder; id 0 is the unknown token."""

    def __init__(self, tokens: list[str]):
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError("token vocab must start with the unknown token")
        self.tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self._ids) != len(self.tokens):
            raise ValueError("duplicate tokens in vocab")

    def __len__(self):
        return len(self.tokens)

    @classmethod
    def build(cls, sentences) -> "TokenVocab":
        """Every token seen, most frequent first (ties by text).  A
        literal unknown token is not added again: it encodes to id 0."""
        counts = Counter()
        for sent in sentences:
            counts.update(sent)
        counts.pop(UNK_TOKEN, None)
        kept = sorted(counts, key=lambda t: (-counts[t], t))
        return cls([UNK_TOKEN] + kept)

    def encode(self, tokens: TokenSeq) -> np.ndarray:
        unk = 0
        return np.array([self._ids.get(t, unk) for t in tokens], dtype=np.int64)
