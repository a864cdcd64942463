"""Tokenization, vocabularies, and corpus file formats.

Sentences are tuples of whitespace-free tokens with a synthetic
sentence-initial sentinel at position 0.  The sentinel exists so an
insertion before the first real word has an anchor token to attach to.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import GstError

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


def read_parallel_tsv(path) -> list[SentencePair]:
    """Read "source<TAB>target" pairs, one per non-empty line."""
    pairs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.count("\t") != 1:
                raise GstError(f"{path}:{lineno}: expected exactly one tab, "
                               f"found {line.count(chr(9))}")
            source, target = line.split("\t")
            pairs.append(SentencePair(tokenize(source), tokenize(target)))
    return pairs


def write_parallel_tsv(pairs: list[SentencePair], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(f"{detokenize(pair.source)}\t{detokenize(pair.target)}\n")


def write_labeled_tsv(rows, path) -> None:
    """Write (tokens, labels) rows in the cache format, labels by str()."""
    with open(path, "w", encoding="utf-8") as fh:
        for tokens, labels in rows:
            fh.write(f"{detokenize(tokens)}\t{' '.join(map(str, labels))}\n")


def read_sentences(path) -> list[TokenSeq]:
    """One tokenized sentence per line, so that outputs line up with the
    input; an empty line is the empty sentence (the sentinel alone)."""
    with open(path, encoding="utf-8") as fh:
        return [tokenize(line) for line in fh]


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
