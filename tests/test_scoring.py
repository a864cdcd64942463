import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gstgec.corpus import tokenize
from gstgec.scoring import extract_edits, f_beta, report_from_counts, \
    score_corpus

from oracles import PUBLISHED_ROWS, ROW_TOL


@pytest.mark.parametrize("p,r,f", PUBLISHED_ROWS)
def test_f_beta_published_rows(p, r, f):
    assert f_beta(p, r) == pytest.approx(f, abs=ROW_TOL)


def test_f_beta_most_rows_tight():
    # the rows whose inputs round kindly land well inside half a print unit
    tight = sum(abs(f_beta(p, r) - f) <= 0.05 for p, r, f in PUBLISHED_ROWS)
    assert tight >= 8


def test_f_beta_symmetry_point():
    for x in (0.1, 25.0, 50.0, 99.9):
        assert f_beta(x, x) == pytest.approx(x)


def test_f_beta_zero():
    assert f_beta(0.0, 0.0) == 0.0


@given(st.floats(0.1, 100), st.floats(0.1, 100))
def test_f_beta_between_min_and_max(p, r):
    assert min(p, r) - 1e-9 <= f_beta(p, r) <= max(p, r) + 1e-9


def test_extract_edits_identical():
    s = tokenize("a b c")
    assert extract_edits(s, s) == set()


def test_extract_edits_deletion():
    assert extract_edits(tokenize("a xx b"), tokenize("a b")) == \
        {(2, 3, "")}


def test_extract_edits_substitution():
    assert extract_edits(tokenize("He go"), tokenize("He goes")) == \
        {(2, 3, "goes")}


def test_extract_edits_insertion():
    assert extract_edits(tokenize("He home"), tokenize("He went home")) == \
        {(2, 2, "went")}


def test_extract_edits_merges_adjacent_ops():
    edits = extract_edits(tokenize("a x y b"), tokenize("a z b"))
    assert edits == {(2, 4, "z")}


def test_score_perfect():
    srcs = [tokenize("a x b"), tokenize("c d")]
    refs = [tokenize("a b"), tokenize("c e")]
    report = score_corpus(srcs, refs, refs)
    assert (report.precision, report.recall, report.f_half) == \
        (100.0, 100.0, 100.0)


def test_score_no_proposals():
    srcs = [tokenize("a x b")]
    refs = [tokenize("a b")]
    report = score_corpus(srcs, srcs, refs)
    assert report.precision == 100.0
    assert report.recall == 0.0
    assert report.f_half == 0.0


def test_score_partial_overlap():
    # gold {e1, e2}, hypothesis {e1, e3}
    src = tokenize("a x b y c z")
    ref = tokenize("a X b Y c z")   # e1: x->X, e2: y->Y
    hyp = tokenize("a X b y c Z")   # e1: x->X, e3: z->Z
    report = score_corpus([src], [hyp], [ref])
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.precision == 50.0
    assert report.recall == 50.0
    assert report.f_half == pytest.approx(50.0)


def test_score_counts_add_up():
    rng = np.random.default_rng(0)
    words = ["a", "b", "c", "d"]

    def rand_sent():
        n = int(rng.integers(1, 6))
        return tokenize(" ".join(words[i]
                                 for i in rng.integers(0, 4, n)))

    srcs = [rand_sent() for _ in range(50)]
    hyps = [rand_sent() for _ in range(50)]
    refs = [rand_sent() for _ in range(50)]
    report = score_corpus(srcs, hyps, refs)
    gold_total = sum(len(extract_edits(s, r)) for s, r in zip(srcs, refs))
    hyp_total = sum(len(extract_edits(s, h)) for s, h in zip(srcs, hyps))
    assert report.tp + report.fn == gold_total
    assert report.tp + report.fp == hyp_total


def test_score_permutation_invariant():
    srcs = [tokenize("a x"), tokenize("b y"), tokenize("c")]
    hyps = [tokenize("a"), tokenize("b z"), tokenize("c")]
    refs = [tokenize("a"), tokenize("b y y"), tokenize("c d")]
    fwd = score_corpus(srcs, hyps, refs)
    rev = score_corpus(srcs[::-1], hyps[::-1], refs[::-1])
    assert (fwd.tp, fwd.fp, fwd.fn) == (rev.tp, rev.fp, rev.fn)


def test_score_length_mismatch():
    with pytest.raises(ValueError):
        score_corpus([tokenize("a")], [], [tokenize("a")])


def test_report_text_and_csv():
    report = report_from_counts(1, 1, 1)
    assert report.text() == "P 50.0 / R 50.0 / F0.5 50.0"
    assert report.csv_row().startswith("1,1,1,")
