"""Rule-based corpus corruption and a toy clean-sentence generator.

The real-world training corpora this toolkit would be pointed at are
large parallel collections; for desk-scale experiments we manufacture
(errorful, clean) pairs by corrupting generated clean sentences with
seeded rules whose per-token rate is configurable.
"""

from __future__ import annotations

import numpy as np

from . import morph
from .corpus import SENTINEL, SentencePair, TokenSeq

ALL_RULES = ("case", "article_del", "duplicate", "verb_form", "noun_num")

_ARTICLES = {"a", "an", "the", "A", "An", "The"}


def _rewrites(token: str, rule: str) -> list[tuple[str, ...]]:
    """Each way rule rewrites token, as a tuple of output tokens; empty
    when the rule does not apply, or is not one of ALL_RULES."""
    if rule == "case":
        if token and token[0].isalpha():
            flip = "LOW_FIRST" if token[0].isupper() else "UP_FIRST"
            return [(morph.apply_case(token, flip),)]
    elif rule == "article_del":
        if token in _ARTICLES:
            return [()]
    elif rule == "duplicate":
        return [(token, token)]
    elif rule == "verb_form":
        return [(alt,) for alt in morph.verb_form_alternatives(token)]
    elif rule == "noun_num":
        toggled = morph.toggle_number(token)
        if toggled is not None and toggled != token:
            return [(toggled,)]
    return []


def corrupt_sentence(clean: TokenSeq, rate: float,
                     rng: np.random.Generator,
                     rules=ALL_RULES) -> SentencePair:
    """Independently corrupt each non-sentinel token with the given
    probability, choosing uniformly among the applicable rules, then
    among the chosen rule's rewrites."""
    out = [SENTINEL]
    for token in clean[1:]:
        if rate > 0 and rng.random() < rate:
            options = [r for r in (_rewrites(token, rule) for rule in rules)
                       if r]
            if options:
                rewrites = options[int(rng.integers(len(options)))]
                # integers(1) draws nothing, so a single rewrite costs no draw
                out.extend(rewrites[int(rng.integers(len(rewrites)))])
                continue
        out.append(token)
    return SentencePair(tuple(out), clean)


def corrupt_corpus(clean_sentences, rate: float, rng: np.random.Generator,
                   rules=ALL_RULES) -> list[SentencePair]:
    """(corrupted, clean) pairs over a whole corpus."""
    if not clean_sentences:
        raise ValueError("clean corpus is empty")
    return [corrupt_sentence(s, rate, rng, rules) for s in clean_sentences]


# ---------------------------------------------------------------------------
# Toy clean corpus
# ---------------------------------------------------------------------------

_SING_NOUNS = ("dog", "cat", "child", "teacher", "woman", "man", "bird",
               "student", "wolf", "mouse", "hero", "friend", "farmer",
               "doctor", "painter", "runner", "singer", "driver")
_OBJ_NOUNS = ("ball", "book", "song", "letter", "house", "story", "picture",
              "garden", "apple", "river", "mountain", "window", "door",
              "game", "box", "car")
_ADJECTIVES = ("happy", "small", "old", "young", "quick", "quiet", "bright",
               "tired", "kind", "busy")
_ADVERBS = ("quickly", "slowly", "carefully", "often", "never", "always",
            "quietly", "early")
_TRANSITIVE = ("chase", "watch", "carry", "paint", "push", "pull", "wash",
               "fix", "love", "miss", "clean", "visit", "study", "throw",
               "catch", "break", "choose", "teach", "buy", "sell", "find",
               "take", "make", "see", "hold", "bring")


def generate_clean_sentence(rng: np.random.Generator) -> TokenSeq:
    plural_subj = rng.random() < 0.5
    past = rng.random() < 0.4
    subj = _SING_NOUNS[int(rng.integers(len(_SING_NOUNS)))]
    if plural_subj:
        subj = morph.toggle_number(subj)
    obj = _OBJ_NOUNS[int(rng.integers(len(_OBJ_NOUNS)))]
    if rng.random() < 0.5:
        obj = morph.toggle_number(obj)
    verb = _TRANSITIVE[int(rng.integers(len(_TRANSITIVE)))]
    if past:
        verb = morph.apply_verb_form(verb, "PAST")
    elif not plural_subj:
        verb = morph.apply_verb_form(verb, "3SG")
    words = ["the" if rng.random() < 0.7 else "a"]
    if words[0] == "a" and plural_subj:
        words[0] = "the"
    if rng.random() < 0.4:
        words.append(_ADJECTIVES[int(rng.integers(len(_ADJECTIVES)))])
    words.append(subj)
    words.append(verb)
    words.append("the")
    words.append(obj)
    if rng.random() < 0.3:
        words.append(_ADVERBS[int(rng.integers(len(_ADVERBS)))])
    return (SENTINEL, *words)


def generate_clean_corpus(count: int,
                          rng: np.random.Generator) -> list[TokenSeq]:
    return [generate_clean_sentence(rng) for _ in range(count)]
