"""The corrective edit-label grammar.

Labels are extracted from sentence pairs by a minimal token-level
alignment and applied back in a single left-to-right pass.  The basic
operations KEEP / DELETE / APPEND / REPLACE are universal; substitutions
are compressed into reusable rule-backed labels (case change, merge,
split, noun-number toggle, verb-form change) whenever the rule
reproduces the aligned target token exactly.

A run of several insertions at one anchor keeps only its first insertion
as an APPEND per pass; the rest are recovered by re-extracting against
the fixed target and applying again, mirroring the iterative inference
loop.

Extraction does only the work its labels need.  The common prefix of a
pair is matched before the bit-parallel alignment pass, which then runs
on the remaining suffixes alone.  Every closed-set label (keep, delete,
merge, split, noun number, and each case rule and verb-form tag) is one
shared immutable constant; only APPEND and REPLACE labels, whose
parameter is a token, are built per call.  Compare labels by value:
parse_label builds new objects.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import morph
from .corpus import SentencePair, TokenSeq


class Kind(str, Enum):
    KEP = "KEP"
    DEL = "DEL"
    APP = "APP"
    REP = "REP"
    CAS = "CAS"
    MRG = "MRG"
    SPL = "SPL"
    NNUM = "NNUM"
    VFORM = "VFORM"


_PARAM_KINDS = {Kind.APP, Kind.REP, Kind.CAS, Kind.VFORM}

# The only labels the sentinel (position 0) admits.
SENTINEL_KINDS = {Kind.KEP, Kind.APP}


@dataclass(frozen=True, slots=True)
class TransformLabel:
    kind: Kind
    param: str | None = None

    def __post_init__(self):
        if self.kind in _PARAM_KINDS:
            # str.split() breaks at exactly the code points isspace() holds
            if not self.param or self.param.split() != [self.param]:
                raise ValueError(f"{self.kind.value} needs a non-empty, "
                                 "whitespace-free parameter")
        elif self.param is not None:
            raise ValueError(f"{self.kind.value} takes no parameter")
        if self.kind is Kind.CAS and self.param not in morph.CASE_RULES:
            raise ValueError(f"unknown case rule {self.param!r}")
        if self.kind is Kind.VFORM and self.param not in morph.VERB_TAGS:
            raise ValueError(f"unknown verb-form tag {self.param!r}")

    def __str__(self):
        return format_label(self)


# The closed-set labels, shared by every extraction.
KEEP = TransformLabel(Kind.KEP)
DELETE = TransformLabel(Kind.DEL)
MERGE = TransformLabel(Kind.MRG)
SPLIT = TransformLabel(Kind.SPL)
NUMBER = TransformLabel(Kind.NNUM)
CASE_LABELS = {rule: TransformLabel(Kind.CAS, rule)
               for rule in morph.CASE_RULES}
VERB_FORM_LABELS = {tag: TransformLabel(Kind.VFORM, tag)
                    for tag in morph.VERB_TAGS}

LabelSequence = list[TransformLabel]

UNK_LABEL_STRING = "$UNK"


def format_label(label: TransformLabel) -> str:
    if label.param is None:
        return f"${label.kind.value}"
    return f"${label.kind.value}_{label.param}"


def parse_label(text: str) -> TransformLabel:
    """Inverse of format_label; raises ValueError on unknown labels."""
    if not text.startswith("$"):
        raise ValueError(f"label must start with '$': {text!r}")
    body = text[1:]
    for kind in Kind:
        if kind in _PARAM_KINDS:
            prefix = kind.value + "_"
            if body.startswith(prefix):
                return TransformLabel(kind, body[len(prefix):])
        elif body == kind.value:
            return TransformLabel(kind)
    raise ValueError(f"unknown label {text!r}")


class LabelVocab:
    """Label-string <-> dense id map; id 0 is always $KEP.

    The parsed labels and the sentinel mask are computed once, on
    first use, and shared by every caller.  They are not computed in the
    constructor: loading a checkpoint builds a vocabulary, and parsing
    every label there would cost about twice the rest of the load.
    """

    def __init__(self, labels: list[str]):
        if not labels or labels[0] != "$KEP":
            raise ValueError("label vocab must start with $KEP")
        if UNK_LABEL_STRING not in labels:
            raise ValueError("label vocab must contain the unknown label")
        self.labels = list(labels)
        self._ids = {s: i for i, s in enumerate(self.labels)}
        if len(self._ids) != len(self.labels):
            raise ValueError("duplicate labels in vocab")

    def __len__(self):
        return len(self.labels)

    @classmethod
    def build(cls, label_sequences) -> "LabelVocab":
        seen = set()
        for seq in label_sequences:
            for label in seq:
                seen.add(format_label(label))
        seen.discard("$KEP")
        seen.discard(UNK_LABEL_STRING)
        return cls(["$KEP", UNK_LABEL_STRING] + sorted(seen))

    def encode(self, labels: LabelSequence):
        ids, unknown = self._ids, self._ids[UNK_LABEL_STRING]
        return [ids.get(format_label(lab), unknown) for lab in labels]

    def decode(self, ids) -> LabelSequence:
        """Labels for one predicted id per position: the unknown label
        keeps, and so does a sentinel label outside SENTINEL_KINDS."""
        parsed = self.parsed
        labels = [KEEP if parsed[i] is None else parsed[i] for i in ids]
        if labels and labels[0].kind not in SENTINEL_KINDS:
            labels[0] = KEEP
        return labels

    @functools.cached_property
    def parsed(self) -> list[TransformLabel | None]:
        """Per-id parsed labels; None for the unknown label."""
        return [None if text == UNK_LABEL_STRING else parse_label(text)
                for text in self.labels]

    @functools.cached_property
    def sentinel_mask(self) -> np.ndarray:
        """Ids the sentinel admits (SENTINEL_KINDS)."""
        return np.array([lab is not None and lab.kind in SENTINEL_KINDS
                         for lab in self.parsed], dtype=bool)


# ---------------------------------------------------------------------------
# Alignment
# ---------------------------------------------------------------------------

# op tuples: ("match", i, j) | ("sub", i, j) | ("del", i, None)
#          | ("ins", anchor_i, j)


def _delta_columns(src: TokenSeq,
                   tgt: TokenSeq) -> tuple[list[int], list[int]]:
    """Vertical cost deltas, per column, of the reversed sequences.

    C[k][c] is the cost of aligning the last k tokens of src with the
    last c tokens of tgt, so ed(src[i:], tgt[j:]) = C[n-i][m-j].  For
    each column c = 0..m, bit k-1 of VP[c] (of VN[c]) is set when
    C[k][c] - C[k-1][c] is +1 (-1), so
    C[k][c] = c + popcount(VP[c] & low_k) - popcount(VN[c] & low_k)
    with low_k the k lowest bits.  Each column is one bit-parallel step
    over all n rows (Myers 1999, in Hyyrö's 2001 global-distance form).
    """
    mask = (1 << len(src)) - 1
    peq: dict[str, int] = {}  # bit k: the k+1-th token from the end
    for k, tok in enumerate(reversed(src)):
        peq[tok] = peq.get(tok, 0) | 1 << k
    vp, vn = mask, 0  # column 0: C[k][0] = k
    vps, vns = [vp], [vn]
    for tok in reversed(tgt):  # column c reads tgt[m-c]
        eq = peq.get(tok, 0)
        d0 = (((eq & vp) + vp) ^ vp) | eq | vn
        hp = vn | ~(d0 | vp)
        hn = vp & d0
        # the carry-in of 1 is C[0][c] - C[0][c-1]: a global alignment.
        # ~ sets every high bit, so each vector is masked back to n bits.
        x = ((hp << 1) | 1) & mask
        vn = x & d0
        vp = ((hn << 1) | ~(x | d0)) & mask
        vps.append(vp)
        vns.append(vn)
    return vps, vns


def align_ops(src: TokenSeq, tgt: TokenSeq) -> list[tuple]:
    """Minimal-cost token alignment as a left-to-right op list.

    Unit cost for insert/delete/substitute, zero for match.  Ties at
    equal dynamic-programming cost are broken left to right preferring
    match > substitution > deletion > insertion.

    The traceback walks the suffix costs D[i][j] = ed(src[i:], tgt[j:]).
    These are the prefix costs of the reversed sequences, which Myers'
    bit-vector algorithm (Myers 1999, J. ACM 46(3)) gives as one pair of
    n-bit delta vectors per target column (_delta_columns):
    D[i][j] = (m-j) + popcount(VP[m-j] & low) - popcount(VN[m-j] & low)
    with low the n-i lowest bits.  No (n+1)×(m+1) table is built.

    The common prefix is matched before that pass, which then runs on
    the suffixes after it alone.  This changes no op: D reads only
    suffixes, and the traceback takes every pair of equal tokens as a
    match before it reads a cost.  (Trimming a common suffix too would
    change tie-breaks.)
    """
    n, m = len(src), len(tgt)
    p = 0
    while p < n and p < m and src[p] == tgt[p]:
        p += 1
    ops = [("match", k, k) for k in range(p)]
    # columns and bits count from the end, so they index the suffixes
    # after the prefix as they index the whole sequences
    vps, vns = _delta_columns(src[p:], tgt[p:])
    i = j = p
    cost = m - p + vps[-1].bit_count() - vns[-1].bit_count()  # D[i][j]
    while i < n and j < m:
        if src[i] == tgt[j]:
            # equal tokens always give D[i][j] == D[i+1][j+1], because
            # neighbouring costs differ by at most one: no cost to read
            ops.append(("match", i, j))
            i += 1
            j += 1
            continue
        c = m - j - 1
        low = (1 << (n - i - 1)) - 1
        # D[i+1][j+1]
        diag = c + (vps[c] & low).bit_count() - (vns[c] & low).bit_count()
        if cost == 1 + diag:
            ops.append(("sub", i, j))
            i += 1
            j += 1
            cost = diag
        elif vps[c + 1] >> (n - i - 1) & 1:
            # D[i][j] - D[i+1][j] is bit n-i-1 of column m-j's deltas
            ops.append(("del", i, None))
            i += 1
            cost -= 1
        else:
            ops.append(("ins", i - 1, j))
            j += 1
            cost -= 1
    # one side is used up: D[i][m] = n-i and D[n][j] = m-j
    ops.extend(("del", k, None) for k in range(i, n))
    ops.extend(("ins", n - 1, k) for k in range(j, m))
    return ops


def edit_distance(src: TokenSeq, tgt: TokenSeq) -> int:
    """Levenshtein distance: the number of non-match ops of align_ops."""
    vps, vns = _delta_columns(src, tgt)
    return len(tgt) + vps[-1].bit_count() - vns[-1].bit_count()


def _classify_sub(src, tgt, ops, idx):
    """Turn a substitution op into a g-transformation when a rule fires.

    Returns (label, label_for_next_source_pos_or_None, ops consumed).
    """
    _, i, j = ops[idx]
    s, t = src[i], tgt[j]
    rule = morph.detect_case(s, t)
    if rule is not None:
        return CASE_LABELS[rule], None, 1
    # merge: sub(i) followed by deletion of i+1 whose join equals the target
    if (idx + 1 < len(ops) and ops[idx + 1][0] == "del"
            and ops[idx + 1][1] == i + 1 and s + src[i + 1] == t):
        return MERGE, DELETE, 2
    # split: sub to the first dash part, then insertions of the rest
    parts = morph.split_hyphen(s)
    if parts is not None and parts[0] == t:
        k = len(parts) - 1
        tail = ops[idx + 1: idx + 1 + k]
        if (len(tail) == k
                and all(op[0] == "ins" and op[1] == i for op in tail)
                and [tgt[op[2]] for op in tail] == parts[1:]):
            return SPLIT, None, 1 + k
    if morph.toggle_number(s) == t:
        return NUMBER, None, 1
    tag = morph.detect_verb_form(s, t)
    if tag is not None:
        return VERB_FORM_LABELS[tag], None, 1
    return TransformLabel(Kind.REP, t), None, 1


def extract_labels(pair: SentencePair) -> LabelSequence:
    """One corrective label per source position (sentinel included)."""
    src, tgt = pair.source, pair.target
    ops = align_ops(src, tgt)
    labels: list[TransformLabel | None] = [None] * len(src)
    idx = 0
    while idx < len(ops):
        op, i, j = ops[idx]
        if op == "match":
            labels[i] = KEEP
            idx += 1
        elif op == "del":
            labels[i] = DELETE
            idx += 1
        elif op == "sub":
            label, next_label, consumed = _classify_sub(src, tgt, ops, idx)
            labels[i] = label
            if next_label is not None:
                labels[i + 1] = next_label
            idx += consumed
        else:  # ins
            # attach to a KEP anchor; later insertions in a run (and
            # insertions at already-edited anchors) wait for the next pass
            if i >= 0 and labels[i] is KEEP:
                labels[i] = TransformLabel(Kind.APP, tgt[j])
            idx += 1
    assert all(lab is not None for lab in labels)
    return labels  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def apply_labels_with_warnings(
        src: TokenSeq, labels: LabelSequence) -> tuple[TokenSeq, list[str]]:
    """Apply labels in one left-to-right pass.

    A label that is not carried out keeps its token and adds one warning
    naming its position and the label: a sentinel label outside
    SENTINEL_KINDS, a rule with no rewrite for its token (a merge at the
    last position included), or the label of a token that a merge
    swallows, unless that label is $KEP or $DEL."""
    if len(src) != len(labels):
        raise ValueError("label sequence length must match token count")
    out: list[str] = []
    warnings: list[str] = []
    i = 0
    n = len(src)
    while i < n:
        tok = src[i]
        label = labels[i]
        if i == 0 and label.kind not in SENTINEL_KINDS:
            warnings.append(f"pos 0: {label} not allowed on sentinel")
            label = KEEP
        kind = label.kind
        if kind is Kind.KEP:
            out.append(tok)
        elif kind is Kind.DEL:
            pass
        elif kind is Kind.APP:
            out.append(tok)
            out.append(label.param)
        elif kind is Kind.REP:
            out.append(label.param)
        elif kind is Kind.MRG and i + 1 < n:
            out.append(tok + src[i + 1])
            i += 1
            swallowed = labels[i]  # extraction writes $DEL here
            if swallowed.kind not in (Kind.KEP, Kind.DEL):
                warnings.append(
                    f"pos {i}: {swallowed} does not apply to {src[i]!r}")
        else:  # a rule's rewrite, None when it does not apply
            if kind is Kind.CAS:
                rewrite = morph.apply_case(tok, label.param)
            elif kind is Kind.NNUM:
                rewrite = morph.toggle_number(tok)
            elif kind is Kind.VFORM:
                rewrite = morph.apply_verb_form(tok, label.param)
            elif kind is Kind.SPL:
                rewrite = morph.split_hyphen(tok)
            else:  # MRG at the last position
                rewrite = None
            if rewrite is None:
                warnings.append(f"pos {i}: {label} does not apply to {tok!r}")
                out.append(tok)
            elif kind is Kind.SPL:
                out.extend(rewrite)
            else:
                out.append(rewrite)
        i += 1
    return tuple(out), warnings


def apply_labels(src: TokenSeq, labels: LabelSequence) -> TokenSeq:
    return apply_labels_with_warnings(src, labels)[0]


def correct_iteratively(src: TokenSeq,
                        tgt: TokenSeq) -> tuple[TokenSeq, int]:
    """Repeat extract/apply against a fixed target until it is reached.

    Returns (final sentence, rounds used).  At most max(5, edit
    distance) rounds are needed, because every pass realizes all edits
    except deferred insertions, of which there are at most one fewer
    each round; one more round runs before giving up.  The edit distance
    is computed only for a pair still short of its target after 5
    rounds.
    """
    max_rounds = 5
    cur, rounds = src, 0
    while cur != tgt:
        if rounds == 5:
            max_rounds = max(5, edit_distance(src, tgt))
        if rounds > max_rounds:
            break
        cur = apply_labels(cur, extract_labels(SentencePair(cur, tgt)))
        rounds += 1
    return cur, rounds


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------


def measure_error_rate(labels: LabelSequence) -> float:
    """Fraction of non-KEEP labels.

    The sentinel is excluded from the denominator when its label is
    KEEP, so a clean sentence scores exactly 0 and an APPEND on the
    sentinel counts like any other edit.
    """
    non_kep = sum(1 for lab in labels if lab.kind is not Kind.KEP)
    denom = len(labels) if labels and labels[0].kind is not Kind.KEP \
        else len(labels) - 1
    if denom <= 0:
        return 0.0
    return non_kep / denom
