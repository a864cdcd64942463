import numpy as np
import pytest

from gstgec.corpus import SENTINEL, SentencePair
from gstgec.corruption import corrupt_corpus, generate_clean_corpus
from gstgec.model import AdamState, GecModel
from gstgec.training import TrainingConfig, build_dataset, build_vocabs, \
    train_epoch


@pytest.fixture(scope="session")
def toy_pairs():
    rng = np.random.default_rng(7)
    clean = generate_clean_corpus(300, rng)
    return corrupt_corpus(clean, rate=0.25, rng=rng)


@pytest.fixture(scope="session")
def toy_model(toy_pairs):
    """A lightly trained small model over the toy corrupted corpus."""
    token_vocab, label_vocab = build_vocabs(toy_pairs)
    model = GecModel.create(token_vocab, label_vocab, seed=11, dim=32,
                            layers=2, heads=2, max_len=32)
    examples = build_dataset(toy_pairs, token_vocab, label_vocab)
    cfg = TrainingConfig(lr=2e-3, batch_size=16, seed=11)
    opt = AdamState()
    rng = np.random.default_rng(11)
    for _ in range(4):
        train_epoch(model, examples, cfg, opt, rng)
    return model


@pytest.fixture(scope="session")
def long_toy_pair(toy_pairs):
    """Toy pairs joined after one sentinel until the source holds more
    than twice toy_model's 32-token window."""
    source, target = [SENTINEL], [SENTINEL]
    for pair in toy_pairs:
        if len(source) > 64:
            break
        source += pair.source[1:]
        target += pair.target[1:]
    return SentencePair(tuple(source), tuple(target))
