import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstgec import morph
from gstgec.corpus import SENTINEL, SentencePair, tokenize
from gstgec.labels import CASE_LABELS, DELETE, KEEP, MERGE, NUMBER, \
    SENTINEL_KINDS, SPLIT, VERB_FORM_LABELS, Kind, TransformLabel, \
    align_ops, apply_labels, apply_labels_with_warnings, \
    correct_iteratively, edit_distance, extract_labels, format_label, \
    measure_error_rate, parse_label
from gstgec.corruption import corrupt_corpus, generate_clean_corpus

from oracles import reference_align_ops


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


def reference_detect_case(src, tgt):
    """Oracle: morph.detect_case before its early reject, kept verbatim.

    First case rule (in declared order) turning src into tgt, if any."""
    if src == tgt:
        return None
    for rule in morph.CASE_RULES:
        if morph.apply_case(src, rule) == tgt:
            return rule
    return None


def reference_detect_verb_form(src, tgt):
    """Oracle: morph.detect_verb_form before the verb-form labels were
    found through apply_verb_form, kept verbatim.

    Tag such that apply_verb_form(src, tag) == tgt, or None."""
    if src == tgt:
        return None
    lemma = morph._FORM_LEMMA.get(src)
    if lemma is None:
        return None
    forms = morph.VERB_FORMS[lemma]
    for tag, form in zip(morph.VERB_TAGS, forms):
        if form == tgt:
            return tag
    return None


def reference_classify_sub(src, tgt, ops, idx):
    """Oracle: labels._classify_sub before its shared label constants,
    kept verbatim but for the oracle detect_case and detect_verb_form.

    Turn a substitution op into a g-transformation when a rule fires.

    Returns (label, label_for_next_source_pos_or_None, ops consumed).
    """
    _, i, j = ops[idx]
    s, t = src[i], tgt[j]
    rule = reference_detect_case(s, t)
    if rule is not None:
        return TransformLabel(Kind.CAS, rule), None, 1
    # merge: sub(i) followed by deletion of i+1 whose join equals the target
    if (idx + 1 < len(ops) and ops[idx + 1][0] == "del"
            and ops[idx + 1][1] == i + 1 and s + src[i + 1] == t):
        return TransformLabel(Kind.MRG), TransformLabel(Kind.DEL), 2
    # split: sub to the first dash part, then insertions of the rest
    if "-" in s:
        parts = s.split("-")
        if len(parts) >= 2 and all(parts) and parts[0] == t:
            k = len(parts) - 1
            tail = ops[idx + 1: idx + 1 + k]
            if (len(tail) == k
                    and all(op[0] == "ins" and op[1] == i for op in tail)
                    and [tgt[op[2]] for op in tail] == parts[1:]):
                return TransformLabel(Kind.SPL), None, 1 + k
    if morph.toggle_number(s) == t:
        return TransformLabel(Kind.NNUM), None, 1
    tag = reference_detect_verb_form(s, t)
    if tag is not None:
        return TransformLabel(Kind.VFORM, tag), None, 1
    return TransformLabel(Kind.REP, t), None, 1


def reference_extract_labels(pair):
    """Oracle: labels.extract_labels before its shared label constants
    and prefix matching, kept verbatim but for the oracle alignment and
    classifier.

    One corrective label per source position (sentinel included)."""
    src, tgt = pair.source, pair.target
    ops = reference_align_ops(src, tgt)
    labels = [None] * len(src)
    idx = 0
    while idx < len(ops):
        op, i, j = ops[idx]
        if op == "match":
            labels[i] = KEEP
            idx += 1
        elif op == "del":
            labels[i] = TransformLabel(Kind.DEL)
            idx += 1
        elif op == "sub":
            label, next_label, consumed = reference_classify_sub(
                src, tgt, ops, idx)
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
    return labels


def reference_correct_iteratively(src, tgt):
    """Oracle: labels.correct_iteratively before it deferred its bound,
    kept verbatim.

    Returns (final sentence, rounds used).  At most max(5, edit
    distance) rounds run, which suffices because every pass realizes
    all edits except deferred insertions, of which there are at most one
    fewer each round.
    """
    max_rounds = max(5, edit_distance(src, tgt))
    cur = src
    for rounds in range(max_rounds + 1):
        if cur == tgt:
            return cur, rounds
        cur = apply_labels(cur, extract_labels(SentencePair(cur, tgt)))
    return cur, max_rounds + 1


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
        assert len(align_ops(src, tgt)) == brute_force_distance(src, tgt)


def _assert_alignment_matches_reference(src, tgt):
    # align_ops lists the reference's ops but its matches
    ops = align_ops(src, tgt)
    assert ops == [op for op in reference_align_ops(src, tgt)
                   if op[0] != "match"]
    assert edit_distance(src, tgt) == len(ops)


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12),
       st.lists(st.sampled_from(["a", "b", "c"]), max_size=12),
       st.booleans())
@settings(max_examples=500, deadline=None)
def test_align_ops_equals_reference_hypothesis(src, tgt, sentinel):
    # three symbols force many equal-cost ties
    if sentinel:
        src, tgt = [SENTINEL, *src], [SENTINEL, *tgt]
    _assert_alignment_matches_reference(tuple(src), tuple(tgt))


def test_align_ops_equals_reference_across_word_boundaries():
    # 60-200 tokens a side: the bit vectors span several machine words
    rng = np.random.default_rng(17)
    vocab = ["a", "b", "c", "d"]
    for _ in range(12):
        n, m = rng.integers(60, 201, size=2)
        src = (SENTINEL, *(vocab[i] for i in rng.integers(0, 4, n - 1)))
        tgt = (SENTINEL, *(vocab[i] for i in rng.integers(0, 4, m - 1)))
        _assert_alignment_matches_reference(src, tgt)
    pairs = corrupt_corpus(generate_clean_corpus(40, rng), rate=0.3, rng=rng)
    long_src = tuple(t for p in pairs for t in p.source)
    long_tgt = tuple(t for p in pairs for t in p.target)
    assert len(long_src) > 200
    _assert_alignment_matches_reference(long_src, long_tgt)


@pytest.mark.parametrize("kind", ["none", "one", "all_src", "all_tgt",
                                  "all_both"])
def test_align_ops_equals_reference_after_common_prefix(kind):
    # the common prefix is matched before the bit-parallel pass
    rng = np.random.default_rng(23)
    for _ in range(150):
        src = tuple("abc"[k] for k in rng.integers(0, 3, rng.integers(0, 9)))
        tgt = tuple("abc"[k] for k in rng.integers(0, 3, rng.integers(0, 9)))
        if kind == "none":
            src, tgt = ("x", *src), ("y", *tgt)
        elif kind == "one":
            src, tgt = ("x", "y", *src), ("x", "z", *tgt)
        elif kind == "all_src":
            tgt = src + tgt
        elif kind == "all_tgt":
            src = tgt + src
        else:
            tgt = src
        _assert_alignment_matches_reference(src, tgt)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 150])
def test_align_ops_identical_and_disjoint_pairs(n):
    same = tuple(f"w{k}" for k in range(n))
    other = tuple(f"x{k}" for k in range(n))
    assert align_ops(same, same) == []
    assert edit_distance(same, same) == 0
    assert align_ops(same, other) == [("sub", k, k) for k in range(n)]
    assert edit_distance(same, other) == n
    for src, tgt in [(same, other), (same, other[:n // 2]),
                     (same[:n // 3], other), (same, ()), ((), other)]:
        _assert_alignment_matches_reference(src, tgt)


def test_edit_distance_matches_brute_force():
    rng = np.random.default_rng(1)
    vocab = ["a", "b", "c"]
    for _ in range(300):
        src = tuple(vocab[i] for i in rng.integers(0, 3, rng.integers(0, 13)))
        tgt = tuple(vocab[i] for i in rng.integers(0, 3, rng.integers(0, 13)))
        distance = edit_distance(src, tgt)
        assert distance == brute_force_distance(src, tgt)
        assert distance == len(align_ops(src, tgt))


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


@pytest.mark.parametrize("word,label", [
    ("over", MERGE),  # at the last position
    ("plain", TransformLabel(Kind.SPL)),
    ("a--b", TransformLabel(Kind.SPL)),  # a split leaving an empty part
    ("-a", TransformLabel(Kind.SPL)),
    ("a-", TransformLabel(Kind.SPL)),
    ("123", TransformLabel(Kind.NNUM)),  # alphabetic tokens pluralize
    ("zzqq", TransformLabel(Kind.VFORM, "PAST")),
    ("", CASE_LABELS["UP_FIRST"]),
], ids=str)
def test_apply_inapplicable_rule_keeps_the_token_and_warns(word, label):
    src = (SENTINEL, word)
    out, warnings = apply_labels_with_warnings(src, [KEEP, label])
    assert out == src
    assert warnings == [f"pos 1: {label} does not apply to {word!r}"]


def test_apply_label_swallowed_by_a_merge_warns():
    src = tokenize("over all day")
    append = TransformLabel(Kind.APP, "x")
    out, warnings = apply_labels_with_warnings(
        src, [KEEP, MERGE, append, KEEP])
    assert out == tokenize("overall day")
    assert warnings == ["pos 2: $APP_x does not apply to 'all'"]
    # extraction writes $DEL after every $MRG, and a $KEP changes nothing
    for swallowed in (DELETE, KEEP):
        assert apply_labels_with_warnings(
            src, [KEEP, MERGE, swallowed, KEEP]) == (out, [])


@pytest.mark.parametrize("src,tgt", [("well-known", "well known"),
                                     ("a-b-c", "a b c"),
                                     ("over all", "overall")])
def test_split_and_merge_round_trip(src, tgt):
    final, rounds = correct_iteratively(tokenize(src), tokenize(tgt))
    assert final == tokenize(tgt) and rounds == 1


def test_apply_sentinel_delete_warns_and_keeps():
    src = tokenize("a")
    out, warnings = apply_labels_with_warnings(
        src, [TransformLabel(Kind.DEL), KEEP])
    assert out == src
    assert warnings == ["pos 0: $DEL not allowed on sentinel"]


def reference_apply_labels_with_warnings(src, labels):
    """Oracle: labels.apply_labels_with_warnings before it copied kept
    runs as slices, kept verbatim.

    Apply labels in one left-to-right pass.

    A label that is not carried out keeps its token and adds one warning
    naming its position and the label: a sentinel label outside
    SENTINEL_KINDS, a rule with no rewrite for its token (a merge at the
    last position included), or the label of a token that a merge
    swallows, unless that label is $KEP or $DEL."""
    if len(src) != len(labels):
        raise ValueError("label sequence length must match token count")
    out = []
    warnings = []
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


# one label of each kind
ONE_OF_EACH_KIND = [KEEP, DELETE, TransformLabel(Kind.APP, "x"),
                    TransformLabel(Kind.REP, "y"), CASE_LABELS["UP_FIRST"],
                    MERGE, SPLIT, NUMBER, VERB_FORM_LABELS["PAST"]]
assert {label.kind for label in ONE_OF_EACH_KIND} == set(Kind)
# every closed-set label, parameter labels, and a $KEP that is not the
# shared constant
EVERY_LABEL = [KEEP, parse_label("$KEP"), DELETE, MERGE, SPLIT, NUMBER,
               *CASE_LABELS.values(), *VERB_FORM_LABELS.values(),
               *(TransformLabel(kind, word) for kind in (Kind.APP, Kind.REP)
                 for word in ("x", "over"))]
# tokens on which each rule fires and tokens on which some do not
APPLY_TOKENS = [SENTINEL, "over", "all", "well-known", "self-made-man",
                "cat", "cats", "go", "went", "he", "The", "123", "a-", "",
                "\u212a"]


def _assert_apply_matches_reference(src, labels):
    result = apply_labels_with_warnings(src, labels)
    assert result == reference_apply_labels_with_warnings(src, labels)
    return result


@given(st.lists(st.tuples(st.sampled_from(APPLY_TOKENS),
                          st.just(KEEP) | st.sampled_from(EVERY_LABEL)),
                max_size=12))
@settings(max_examples=500, deadline=None)
def test_apply_equals_reference_hypothesis(rows):
    # about half the labels keep, so kept runs of every length occur
    src = tuple(tok for tok, _ in rows)
    _assert_apply_matches_reference(src, [label for _, label in rows])


@pytest.mark.parametrize("label", ONE_OF_EACH_KIND, ids=str)
def test_apply_merge_followed_by_each_kind_equals_reference(label):
    src = tokenize("over all day")
    out, warnings = _assert_apply_matches_reference(
        src, [KEEP, MERGE, label, KEEP])
    assert out == tokenize("overall day")
    assert len(warnings) == (label.kind not in (Kind.KEP, Kind.DEL))
    # the swallowed label at the last position, then past a kept run
    _assert_apply_matches_reference(src[:3], [KEEP, MERGE, label])
    _assert_apply_matches_reference(src, [KEEP, KEEP, MERGE, label])


@pytest.mark.parametrize("label", ONE_OF_EACH_KIND, ids=str)
def test_apply_label_at_either_end_equals_reference(label):
    # position 0 admits only SENTINEL_KINDS; a merge at the last
    # position has nothing to join
    src = tokenize("over all")
    out, warnings = _assert_apply_matches_reference(src, [label, KEEP, KEEP])
    if label.kind not in SENTINEL_KINDS:
        assert (out, warnings) == \
            (src, [f"pos 0: {label} not allowed on sentinel"])
    out, warnings = _assert_apply_matches_reference(src, [KEEP, KEEP, label])
    if label.kind is Kind.MRG:
        assert (out, warnings) == \
            (src, ["pos 2: $MRG does not apply to 'all'"])


def test_apply_empty_source():
    assert apply_labels_with_warnings((), []) == ((), [])
    assert reference_apply_labels_with_warnings((), []) == ((), [])
    for apply in (apply_labels_with_warnings,
                  reference_apply_labels_with_warnings):
        with pytest.raises(ValueError, match="^label sequence length must "
                           "match token count$"):
            apply((), [KEEP])


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
    for bad in ["$BOGUS", "KEP", "$KEP_x", "$APP", "$", "$NNUM_x",
                "$CAS_BOGUS", "$VFORM_"]:
        with pytest.raises(ValueError):
            parse_label(bad)


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


# A vocabulary on which every substitution rule fires: ASCII and
# non-ASCII case pairs, hyphenated tokens and their parts, noun number,
# verb forms and merges.
RULE_TOKENS = [
    "he", "He", "HE", "the", "The", "Straße", "STRASSE", "straße",
    "İstanbul", "istanbul", "Istanbul", "\u212a", "k", "K",
    "well-known", "well", "known", "self-made-man", "self", "made", "man",
    "cat", "cats", "child", "children", "men",
    "go", "goes", "went", "going", "gone",
    "over", "all", "overall", "every", "one", "everyone",
]


@pytest.mark.parametrize("src,tgt,expected", [
    ("Straße", "STRASSE", ["$KEP", "$CAS_ALL_UP"]),
    ("\u212a", "k", ["$KEP", "$CAS_LOW_FIRST"]),
    ("k", "\u212a", ["$KEP", "$REP_\u212a"]),
    ("k", "K", ["$KEP", "$CAS_UP_FIRST"]),
    ("İstanbul", "istanbul", ["$KEP", "$REP_istanbul"]),
    ("istanbul", "İstanbul", ["$KEP", "$REP_İstanbul"]),
    ("he", "HE", ["$KEP", "$CAS_ALL_UP"]),
    ("The", "the", ["$KEP", "$CAS_LOW_FIRST"]),
    ("child", "children", ["$KEP", "$NNUM"]),
    ("go", "went", ["$KEP", "$VFORM_PAST"]),
    ("cat", "dog", ["$KEP", "$REP_dog"]),
    ("over all", "overall", ["$KEP", "$MRG", "$DEL"]),
    ("self-made-man", "self made man", ["$KEP", "$SPL"]),
    ("cat", "the cat", ["$APP_the", "$KEP"]),
])
def test_extract_labels_fires_each_rule(src, tgt, expected):
    pair = SentencePair(tokenize(src), tokenize(tgt))
    got = [format_label(lab) for lab in extract_labels(pair)]
    assert got == expected
    assert got == [format_label(lab)
                   for lab in reference_extract_labels(pair)]


@given(st.lists(st.sampled_from([SENTINEL, *RULE_TOKENS]), max_size=5),
       st.lists(st.sampled_from(RULE_TOKENS), max_size=8),
       st.lists(st.sampled_from(RULE_TOKENS), max_size=8))
@settings(max_examples=500, deadline=None)
def test_extract_labels_equals_reference_hypothesis(prefix, src, tgt):
    pair = SentencePair((*prefix, *src), (*prefix, *tgt))
    labels = extract_labels(pair)
    expected = reference_extract_labels(pair)
    assert [format_label(lab) for lab in labels] == \
        [format_label(lab) for lab in expected]
    assert labels == expected


def test_extract_labels_equals_reference_on_corrupted_pairs():
    rng = np.random.default_rng(29)
    pairs = corrupt_corpus(generate_clean_corpus(300, rng), rate=0.35,
                           rng=rng)
    kinds = set()
    for pair in pairs:
        labels = extract_labels(pair)
        assert labels == reference_extract_labels(pair)
        kinds.update(lab.kind for lab in labels)
    assert kinds == set(Kind) - {Kind.MRG, Kind.SPL}


def test_detect_case_equals_reference_on_rule_tokens():
    for src, tgt in product(RULE_TOKENS, repeat=2):
        assert morph.detect_case(src, tgt) == reference_detect_case(src, tgt)


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def test_str_split_breaks_exactly_at_isspace():
    # the label check relies on this: 29 code points, no more, no less
    assert len(WHITESPACE) == 29
    assert [c for c in map(chr, range(0x110000))
            if (f"a{c}b".split() != [f"a{c}b"]) != c.isspace()] == []


@pytest.mark.parametrize("c", WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_label_parameter_rejects_whitespace(c):
    for kind in (Kind.REP, Kind.APP):
        with pytest.raises(ValueError, match="whitespace-free"):
            TransformLabel(kind, "a" + c + "b")
        with pytest.raises(ValueError, match="whitespace-free"):
            TransformLabel(kind, c)
    with pytest.raises(ValueError, match="whitespace-free"):
        parse_label("$REP_a" + c + "b")


def test_label_parameter_rejects_empty_and_accepts_zero_width_space():
    for kind in (Kind.REP, Kind.APP):
        with pytest.raises(ValueError, match="non-empty"):
            TransformLabel(kind, "")
        with pytest.raises(ValueError, match="non-empty"):
            TransformLabel(kind)
        assert TransformLabel(kind, "a\u200bb").param == "a\u200bb"
    with pytest.raises(ValueError, match="non-empty"):
        parse_label("$APP_")
    assert parse_label("$REP_a\u200bb") == TransformLabel(Kind.REP, "a\u200bb")


def _assert_round_trip_matches_reference(src, tgt):
    result = correct_iteratively(src, tgt)
    assert result == reference_correct_iteratively(src, tgt)
    return result[1]


def test_correct_iteratively_equals_reference_on_corrupted_pairs():
    rng = np.random.default_rng(31)
    pairs = corrupt_corpus(generate_clean_corpus(300, rng), rate=0.35,
                           rng=rng)
    for pair in pairs:
        _assert_round_trip_matches_reference(pair.source, pair.target)


@pytest.mark.parametrize("sentinel", [True, False])
def test_correct_iteratively_equals_reference_on_three_symbols(sentinel):
    rng = np.random.default_rng(37)
    past_five = 0
    for _ in range(1500):
        src = tuple("abc"[k] for k in rng.integers(0, 3, rng.integers(0, 9)))
        tgt = tuple("abc"[k] for k in rng.integers(0, 3, rng.integers(0, 9)))
        if sentinel:
            src, tgt = (SENTINEL, *src), (SENTINEL, *tgt)
        past_five += _assert_round_trip_matches_reference(src, tgt) > 5
    # long insertion runs land one per round: the bound is computed
    assert past_five > 0


def test_correct_iteratively_identical_pair_takes_no_round():
    sent = tokenize("the cat sat")
    assert correct_iteratively(sent, sent) == (sent, 0)
    assert _assert_round_trip_matches_reference(sent, sent) == 0


def _header_and_digests(text):
    lines = text.splitlines()
    return ([line for line in lines if line.startswith("#")],
            dict(line.split() for line in lines
                 if line and not line.startswith("#")))


def test_alignment_digests_equal_the_recorded_ones():
    # the alignment lines are pure Python, so they hold on any build;
    # the float lines hold on the build that the header names
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    run = subprocess.run([sys.executable, str(scripts / "digests.py")],
                         capture_output=True, text=True, check=True)
    header, printed = _header_and_digests(run.stdout)
    recorded_header, recorded = _header_and_digests(
        (scripts / "digests.txt").read_text(encoding="utf-8"))
    names = list(printed)[:3]
    assert names == ["extract_labels", "apply_labels", "correct_iteratively"]
    if header == recorded_header:
        names = sorted(printed.keys() | recorded.keys())
    moved = [name for name in names if printed.get(name) != recorded.get(name)]
    assert not moved, f"moved: {' '.join(moved)}"
