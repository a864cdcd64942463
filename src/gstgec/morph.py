"""Word-level rewrite rules backing the parameterized edit labels.

Four rule families live here: case changes and hyphen splits (purely
algorithmic), noun-number toggling (suffix rules plus an irregular
lexicon), and verb-form mapping (an explicit irregular table plus
regular suffix rules over a list of common lemmas).  Every applier
returns ``None`` when no rule fires, and also detects its rule and lists
a token's alternatives: label extraction applies and compares, falling
back to a plain replacement (``$REP``), and corruption takes the
distinct rewrites.  Only detect_case stands apart, for its ASCII guard.
Label application keeps a token no rule rewrites, and warns.
"""

from __future__ import annotations

CASE_RULES = ("UP_FIRST", "LOW_FIRST", "ALL_UP", "ALL_LOW")

VERB_TAGS = ("BASE", "3SG", "PAST", "PASTPART", "GERUND")

# ---------------------------------------------------------------------------
# Case and hyphens
# ---------------------------------------------------------------------------


def apply_case(word: str, rule: str) -> str | None:
    if not word:
        return None
    if rule == "UP_FIRST":
        out = word[0].upper() + word[1:]
    elif rule == "LOW_FIRST":
        out = word[0].lower() + word[1:]
    elif rule == "ALL_UP":
        out = word.upper()
    elif rule == "ALL_LOW":
        out = word.lower()
    else:
        return None
    return out


def detect_case(src: str, tgt: str) -> str | None:
    """First case rule (in declared order) turning src into tgt, if any."""
    if src == tgt:
        return None
    # every rule maps an ASCII word to one with the same lower case
    if src.isascii() and src.lower() != tgt.lower():
        return None
    for rule in CASE_RULES:
        if apply_case(src, rule) == tgt:
            return rule
    return None


def split_hyphen(word: str) -> list[str] | None:
    """The parts of word at its hyphens; None unless it has one and no
    part is empty."""
    if "-" not in word:  # the common case, first: extraction tries every sub
        return None
    parts = word.split("-")
    return parts if all(parts) else None


# ---------------------------------------------------------------------------
# Noun number
# ---------------------------------------------------------------------------

_IRREGULAR_PLURALS = {
    "man": "men", "woman": "women", "child": "children", "person": "people",
    "foot": "feet", "tooth": "teeth", "goose": "geese", "mouse": "mice",
    "louse": "lice", "ox": "oxen", "leaf": "leaves", "loaf": "loaves",
    "wife": "wives", "knife": "knives", "life": "lives", "wolf": "wolves",
    "shelf": "shelves", "thief": "thieves", "half": "halves", "calf": "calves",
    "scarf": "scarves", "elf": "elves", "potato": "potatoes",
    "tomato": "tomatoes", "hero": "heroes", "echo": "echoes",
    "veto": "vetoes", "torpedo": "torpedoes", "analysis": "analyses",
    "basis": "bases", "crisis": "crises", "thesis": "theses",
    "hypothesis": "hypotheses", "oasis": "oases", "phenomenon": "phenomena",
    "criterion": "criteria", "datum": "data", "medium": "media",
    "curriculum": "curricula", "bacterium": "bacteria",
    "memorandum": "memoranda", "stimulus": "stimuli", "focus": "foci",
    "fungus": "fungi", "nucleus": "nuclei", "radius": "radii",
    "syllabus": "syllabi", "cactus": "cacti", "alumnus": "alumni",
    "index": "indices", "appendix": "appendices", "matrix": "matrices",
    "vertex": "vertices", "axis": "axes",
}
_IRREGULAR_SINGULARS = {v: k for k, v in _IRREGULAR_PLURALS.items()}

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")
_VOWELS = "aeiou"


def _pluralize_regular(word: str) -> str:
    if word.endswith(_SIBILANT_ENDINGS):
        return word + "es"
    if len(word) > 1 and word.endswith("y") and word[-2] not in _VOWELS:
        return word[:-1] + "ies"
    return word + "s"


def _singularize_regular(word: str) -> str | None:
    if word.endswith("ies") and len(word) > 3:
        return word[:-3] + "y"
    if word.endswith("es") and word[:-2].endswith(_SIBILANT_ENDINGS):
        return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 1:
        return word[:-1]
    return None


def toggle_number(word: str) -> str | None:
    """Singular -> plural or plural -> singular; None when neither applies."""
    if word in _IRREGULAR_PLURALS:
        return _IRREGULAR_PLURALS[word]
    if word in _IRREGULAR_SINGULARS:
        return _IRREGULAR_SINGULARS[word]
    if not word.isalpha():
        return None
    singular = _singularize_regular(word)
    if singular is not None:
        return singular
    return _pluralize_regular(word)


# ---------------------------------------------------------------------------
# Verb forms
# ---------------------------------------------------------------------------

# lemma -> (BASE, 3SG, PAST, PASTPART, GERUND)
_IRREGULAR_VERBS = {
    "be": ("be", "is", "was", "been", "being"),
    "have": ("have", "has", "had", "had", "having"),
    "do": ("do", "does", "did", "done", "doing"),
    "go": ("go", "goes", "went", "gone", "going"),
    "say": ("say", "says", "said", "said", "saying"),
    "get": ("get", "gets", "got", "gotten", "getting"),
    "make": ("make", "makes", "made", "made", "making"),
    "know": ("know", "knows", "knew", "known", "knowing"),
    "think": ("think", "thinks", "thought", "thought", "thinking"),
    "take": ("take", "takes", "took", "taken", "taking"),
    "see": ("see", "sees", "saw", "seen", "seeing"),
    "come": ("come", "comes", "came", "come", "coming"),
    "find": ("find", "finds", "found", "found", "finding"),
    "give": ("give", "gives", "gave", "given", "giving"),
    "tell": ("tell", "tells", "told", "told", "telling"),
    "feel": ("feel", "feels", "felt", "felt", "feeling"),
    "become": ("become", "becomes", "became", "become", "becoming"),
    "leave": ("leave", "leaves", "left", "left", "leaving"),
    "put": ("put", "puts", "put", "put", "putting"),
    "mean": ("mean", "means", "meant", "meant", "meaning"),
    "keep": ("keep", "keeps", "kept", "kept", "keeping"),
    "let": ("let", "lets", "let", "let", "letting"),
    "begin": ("begin", "begins", "began", "begun", "beginning"),
    "run": ("run", "runs", "ran", "run", "running"),
    "write": ("write", "writes", "wrote", "written", "writing"),
    "sit": ("sit", "sits", "sat", "sat", "sitting"),
    "stand": ("stand", "stands", "stood", "stood", "standing"),
    "lose": ("lose", "loses", "lost", "lost", "losing"),
    "pay": ("pay", "pays", "paid", "paid", "paying"),
    "meet": ("meet", "meets", "met", "met", "meeting"),
    "set": ("set", "sets", "set", "set", "setting"),
    "lead": ("lead", "leads", "led", "led", "leading"),
    "understand": ("understand", "understands", "understood", "understood",
                   "understanding"),
    "speak": ("speak", "speaks", "spoke", "spoken", "speaking"),
    "read": ("read", "reads", "read", "read", "reading"),
    "spend": ("spend", "spends", "spent", "spent", "spending"),
    "grow": ("grow", "grows", "grew", "grown", "growing"),
    "win": ("win", "wins", "won", "won", "winning"),
    "buy": ("buy", "buys", "bought", "bought", "buying"),
    "send": ("send", "sends", "sent", "sent", "sending"),
    "build": ("build", "builds", "built", "built", "building"),
    "fall": ("fall", "falls", "fell", "fallen", "falling"),
    "cut": ("cut", "cuts", "cut", "cut", "cutting"),
    "eat": ("eat", "eats", "ate", "eaten", "eating"),
    "drink": ("drink", "drinks", "drank", "drunk", "drinking"),
    "sing": ("sing", "sings", "sang", "sung", "singing"),
    "swim": ("swim", "swims", "swam", "swum", "swimming"),
    "drive": ("drive", "drives", "drove", "driven", "driving"),
    "break": ("break", "breaks", "broke", "broken", "breaking"),
    "choose": ("choose", "chooses", "chose", "chosen", "choosing"),
    "teach": ("teach", "teaches", "taught", "taught", "teaching"),
    "catch": ("catch", "catches", "caught", "caught", "catching"),
    "throw": ("throw", "throws", "threw", "thrown", "throwing"),
    "fly": ("fly", "flies", "flew", "flown", "flying"),
    "wear": ("wear", "wears", "wore", "worn", "wearing"),
    "ride": ("ride", "rides", "rode", "ridden", "riding"),
    "hold": ("hold", "holds", "held", "held", "holding"),
    "bring": ("bring", "brings", "brought", "brought", "bringing"),
    "hear": ("hear", "hears", "heard", "heard", "hearing"),
    "sleep": ("sleep", "sleeps", "slept", "slept", "sleeping"),
    "sell": ("sell", "sells", "sold", "sold", "selling"),
    "forget": ("forget", "forgets", "forgot", "forgotten", "forgetting"),
}

_REGULAR_LEMMAS = (
    "want", "look", "use", "work", "call", "try", "ask", "need", "help",
    "talk", "turn", "start", "show", "play", "move", "like", "live",
    "believe", "happen", "provide", "include", "continue", "learn",
    "change", "watch", "follow", "stop", "create", "allow", "add",
    "open", "walk", "offer", "remember", "love", "consider", "appear",
    "wait", "serve", "expect", "stay", "reach", "remain", "chase",
    "jump", "bark", "laugh", "smile", "dance", "cook", "clean", "paint",
    "visit", "enjoy", "study", "carry", "hurry", "answer", "repair",
    "travel", "climb", "push", "pull", "wash", "fix", "miss", "plan",
)


def _regular_forms(lemma: str) -> tuple[str, str, str, str, str]:
    third = _pluralize_regular(lemma)
    if lemma.endswith("e"):
        past = lemma + "d"
        gerund = lemma[:-1] + "ing"
    elif len(lemma) > 1 and lemma.endswith("y") and lemma[-2] not in _VOWELS:
        past = lemma[:-1] + "ied"
        gerund = lemma + "ing"
    else:
        past = lemma + "ed"
        gerund = lemma + "ing"
    return (lemma, third, past, past, gerund)


VERB_FORMS: dict[str, tuple[str, str, str, str, str]] = dict(_IRREGULAR_VERBS)
for _lemma in _REGULAR_LEMMAS:
    VERB_FORMS[_lemma] = _regular_forms(_lemma)

# form -> the first lemma, in VERB_FORMS order, that realizes it
_FORM_LEMMA: dict[str, str] = {}
for _lemma, _forms in VERB_FORMS.items():
    for _form in _forms:
        _FORM_LEMMA.setdefault(_form, _lemma)


def apply_verb_form(word: str, tag: str) -> str | None:
    """Map a verb token to the requested form of its lemma."""
    lemma = _FORM_LEMMA.get(word)
    if lemma is None or tag not in VERB_TAGS:
        return None
    return VERB_FORMS[lemma][VERB_TAGS.index(tag)]

