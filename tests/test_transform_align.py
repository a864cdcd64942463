from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstgec.corpus import SENTINEL, SentencePair, tokenize
from gstgec.labels import KEEP, Kind, TransformLabel, align_ops, \
    apply_labels, apply_labels_with_warnings, correct_iteratively, \
    edit_distance, extract_labels, format_label, measure_error_rate, \
    parse_label
from gstgec.corruption import corrupt_corpus, generate_clean_corpus


def brute_force_distance(src, tgt):
    """Independent oracle: plain recursive Levenshtein with memo."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(src):
            return len(tgt) - j
        if j == len(tgt):
            return len(src) - i
        best = go(i + 1, j + 1) + (0 if src[i] == tgt[j] else 1)
        best = min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)
        return best

    return go(0, 0)


def labels_of(text_src, text_tgt):
    pair = SentencePair(tokenize(text_src), tokenize(text_tgt))
    return extract_labels(pair)


def label_strs(text_src, text_tgt):
    return [format_label(lab) for lab in labels_of(text_src, text_tgt)]


def test_extract_verb_form():
    assert label_strs("He go home", "He goes home") == \
        ["$KEP", "$KEP", "$VFORM_3SG", "$KEP"]


def test_extract_identity_all_keep():
    assert label_strs("a b c", "a b c") == ["$KEP"] * 4


def test_extract_duplicate_deletion_tie_break():
    # the stated tie-break matches the first duplicate and deletes the second
    assert label_strs("the the cat", "the cat") == \
        ["$KEP", "$KEP", "$DEL", "$KEP"]


def test_extract_merge():
    assert label_strs("over all", "overall")[:2] == ["$KEP", "$MRG"]


def test_extract_split():
    assert label_strs("well-known fact", "well known fact") == \
        ["$KEP", "$SPL", "$KEP"]


def test_extract_case():
    assert label_strs("he ran", "He ran") == \
        ["$KEP", "$CAS_UP_FIRST", "$KEP"]


def test_extract_noun_number():
    assert label_strs("two cat", "two cats") == \
        ["$KEP", "$KEP", "$NNUM"]


def test_extract_append_on_sentinel():
    labs = labels_of("go home", "You go home")
    assert format_label(labs[0]) == "$APP_You"


def test_extract_matches_brute_force_cost():
    rng = np.random.default_rng(0)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        src = (SENTINEL, *(vocab[i] for i in
                           rng.integers(0, 4, rng.integers(0, 6))))
        tgt = (SENTINEL, *(vocab[i] for i in
                           rng.integers(0, 4, rng.integers(0, 6))))
        ops = align_ops(src, tgt)
        cost = sum(1 for op in ops if op[0] != "match")
        assert cost == brute_force_distance(src, tgt)


def test_apply_all_keep_identity():
    src = tokenize("a b c")
    assert apply_labels(src, [KEEP] * 4) == src


def test_apply_delete():
    src = tokenize("the the cat")
    labs = [KEEP, KEEP, TransformLabel(Kind.DEL), KEEP]
    assert apply_labels(src, labs) == tokenize("the cat")


def test_apply_merge():
    src = tokenize("over all")
    labs = [KEEP, TransformLabel(Kind.MRG), KEEP]
    assert apply_labels(src, labs) == tokenize("overall")


def test_apply_merge_final_position_warns():
    src = tokenize("over")
    out, warnings = apply_labels_with_warnings(
        src, [KEEP, TransformLabel(Kind.MRG)])
    assert out == src
    assert warnings


def test_apply_split_without_dash_warns():
    src = tokenize("plain")
    out, warnings = apply_labels_with_warnings(
        src, [KEEP, TransformLabel(Kind.SPL)])
    assert out == src
    assert warnings


def test_apply_inapplicable_rules_warn():
    src = tokenize("zzqq")
    out, w1 = apply_labels_with_warnings(
        src, [KEEP, TransformLabel(Kind.VFORM, "PAST")])
    assert out == src and w1
    out, w2 = apply_labels_with_warnings(
        src, [KEEP, TransformLabel(Kind.NNUM)])
    # regular pluralization applies to alphabetic tokens, so use digits
    src2 = tokenize("123")
    out2, w3 = apply_labels_with_warnings(
        src2, [KEEP, TransformLabel(Kind.NNUM)])
    assert out2 == src2 and w3


def test_measure_error_rate():
    assert measure_error_rate([KEEP, KEEP, KEEP]) == 0.0
    labs = [KEEP, TransformLabel(Kind.DEL), TransformLabel(Kind.DEL), KEEP]
    assert measure_error_rate(labs) == pytest.approx(2 / 3)
    labs = [TransformLabel(Kind.APP, "w"), KEEP, KEEP]
    assert measure_error_rate(labs) == pytest.approx(1 / 3)
    assert measure_error_rate([KEEP]) == 0.0


def test_label_string_grammar_round_trip():
    strings = ["$KEP", "$DEL", "$APP_the", "$REP_goes", "$CAS_UP_FIRST",
               "$CAS_ALL_LOW", "$MRG", "$SPL", "$NNUM", "$VFORM_3SG",
               "$VFORM_PASTPART"]
    for s in strings:
        assert format_label(parse_label(s)) == s
    with pytest.raises(ValueError):
        parse_label("$BOGUS")
    with pytest.raises(ValueError):
        parse_label("KEP")


def test_self_pair_round_trip_property():
    rng = np.random.default_rng(3)
    for sent in generate_clean_corpus(50, rng):
        pair = SentencePair(sent, sent)
        labs = extract_labels(pair)
        assert all(lab.kind is Kind.KEP for lab in labs)
        assert apply_labels(sent, labs) == sent


def test_single_pass_round_trip_without_insertion_runs():
    # exact one-pass reconstruction when no >=2-insertion runs exist
    rng = np.random.default_rng(5)
    clean = generate_clean_corpus(200, rng)
    pairs = corrupt_corpus(clean, rate=0.2, rng=rng,
                           rules=("case", "verb_form", "noun_num",
                                  "duplicate"))
    for pair in pairs:
        labs = extract_labels(pair)
        assert apply_labels(pair.source, labs) == pair.target


def test_iterative_round_trip_random_pairs():
    rng = np.random.default_rng(9)
    clean = generate_clean_corpus(400, rng)
    pairs = corrupt_corpus(clean, rate=0.35, rng=rng)
    for pair in pairs:
        bound = max(5, edit_distance(pair.source, pair.target))
        final, rounds = correct_iteratively(pair.source, pair.target)
        assert final == pair.target
        assert rounds <= bound


def test_g_transform_closure():
    # every emitted g-transformation reproduces its aligned target token
    rng = np.random.default_rng(13)
    clean = generate_clean_corpus(300, rng)
    pairs = corrupt_corpus(clean, rate=0.3, rng=rng)
    g_kinds = {Kind.CAS, Kind.MRG, Kind.SPL, Kind.NNUM, Kind.VFORM}
    seen = set()
    for pair in pairs:
        labs = extract_labels(pair)
        seen.update(lab.kind for lab in labs)
        # applying must land on the target eventually; single-token
        # correctness of each g-transform is implied by the round trip
        final, _ = correct_iteratively(pair.source, pair.target)
        assert final == pair.target
    assert seen & g_kinds  # the corpus actually exercised g-transforms


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=5),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=5))
@settings(max_examples=200, deadline=None)
def test_iterative_round_trip_hypothesis(src_words, tgt_words):
    src = (SENTINEL, *src_words)
    tgt = (SENTINEL, *tgt_words)
    final, rounds = correct_iteratively(src, tgt)
    assert final == tgt
    assert rounds <= max(5, edit_distance(src, tgt))


def test_transform_label_slotted_value_semantics():
    a, b = TransformLabel(Kind.REP, "x"), parse_label("$REP_x")
    assert a == b and hash(a) == hash(b) and a is not b
    assert len({a, b, KEEP}) == 2
    with pytest.raises(AttributeError):
        a.param = "y"
    assert not hasattr(a, "__dict__")
