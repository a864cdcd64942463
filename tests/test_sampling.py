import numpy as np
import pytest
from scipy import stats

from gstgec.errors import ConfigError
from gstgec.sampling import SamplingConfig, SamplingMode, keep_biased_ids, \
    relax_with_noise, sample_gumbel, sample_ids, sample_label


def hard_sample(probs, noise):
    """The Gumbel-max draw of each noise row: argmax of log-probs plus
    noise, ties to the lowest index."""
    with np.errstate(divide="ignore"):
        return np.argmax(np.log(probs) + noise, axis=-1)


def test_gumbel_closed_form_points():
    # g = -log(-log(u)); u = 1/e gives 0, u = e^{-e} gives -1
    u = np.array([1 / np.e, np.exp(-np.e)])
    g = -np.log(-np.log(u))
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert g[1] == pytest.approx(-1.0, abs=1e-12)


def test_gumbel_mean_is_euler_mascheroni():
    rng = np.random.default_rng(0)
    g = sample_gumbel(10**6, rng)
    assert g.mean() == pytest.approx(0.5772156649, abs=0.01)


def test_gumbel_max_degenerate():
    noise = sample_gumbel((50, 3), np.random.default_rng(1))
    assert (hard_sample([1.0, 0.0, 0.0], noise) == 0).all()


def test_gumbel_max_rejects_zero_mass():
    # and negative or non-finite entries; random draws from the row's
    # length alone, so only Gumbel reads it
    for row in ([0.0, 0.0], [0.5, -0.1], [0.5, np.nan], [0.5, np.inf]):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            sample_ids(np.array([[0.5, 0.5], row]), SamplingConfig(), 0.0,
                       rng)


def test_gumbel_max_fixed_noise():
    # the draw sample_ids makes for this noise; the tie goes to index 0
    for noise in ([1.0, 0.0], [0.0, 0.0]):
        relaxed = relax_with_noise([0.5, 0.5], np.array(noise), 1.0)
        assert keep_biased_ids(relaxed, 0.0) == 0


def categorical_oracle(probs, count, rng):
    """Independent inverse-CDF sampler used as the frequency oracle."""
    cdf = np.cumsum(np.asarray(probs) / np.sum(probs))
    return np.searchsorted(cdf, rng.random(count), side="right")


def test_gumbel_max_frequencies_match_oracle():
    probs = [0.5, 0.3, 0.2]
    n = 100_000
    draws = hard_sample(probs, sample_gumbel((n, 3), np.random.default_rng(2)))
    freq = np.bincount(draws, minlength=3) / n
    oracle = np.bincount(
        categorical_oracle(probs, n, np.random.default_rng(3)),
        minlength=3) / n
    assert np.allclose(freq, probs, atol=0.01)
    assert np.allclose(freq, oracle, atol=0.02)


def test_gumbel_softmax_high_tau_uniform():
    noise = sample_gumbel(3, np.random.default_rng(4))
    row = relax_with_noise([0.7, 0.2, 0.1], noise, 1e4)
    assert np.allclose(row, 1 / 3, atol=1e-3)


def test_gumbel_softmax_low_tau_one_hot():
    noise = sample_gumbel(3, np.random.default_rng(5))
    row = relax_with_noise([0.7, 0.2, 0.1], noise, 1e-4)
    assert row.max() > 0.999


def test_gumbel_softmax_valid_distribution():
    # one row per tau, each divided by its own tau
    taus = np.array([[0.1], [1.0], [10.0]])
    noise = sample_gumbel((3, 4), np.random.default_rng(6))
    rows = relax_with_noise([0.4, 0.3, 0.2, 0.1], noise, taus)
    assert (rows >= 0).all()
    assert rows.sum(axis=-1) == pytest.approx(np.ones(3), abs=1e-9)


def test_shared_noise_argmax_consistency():
    probs = [0.5, 0.25, 0.15, 0.1]
    noise = sample_gumbel((10_000, 4), np.random.default_rng(7))
    hard = hard_sample(probs, noise)
    for tau in (0.1, 1.0, 10.0):
        relaxed = relax_with_noise(probs, noise, tau)
        assert np.array_equal(relaxed.argmax(axis=-1), hard), tau


def test_sample_label_random_uniform():
    cfg = SamplingConfig(mode=SamplingMode.RANDOM)
    rng = np.random.default_rng(8)
    n = 100_000
    draws = sample_ids(np.tile([0.9, 0.05, 0.03, 0.02], (n, 1)), cfg, 0.0,
                       rng)
    freq = np.bincount(draws, minlength=4) / n
    assert np.allclose(freq, 0.25, atol=0.01)


def test_sample_label_gumbel_exactness():
    rng = np.random.default_rng(10)
    n = 100_000
    for tau in (0.1, 1.0, 10.0):
        cfg = SamplingConfig(mode=SamplingMode.GUMBEL_SOFTMAX, tau=tau)
        draws = sample_ids(np.tile([0.9, 0.1], (n, 1)), cfg, 0.0, rng)
        assert (draws == 0).mean() == pytest.approx(0.9, abs=0.01)


def test_gumbel_max_chi_square_goodness_of_fit():
    probs = np.array([0.5, 0.3, 0.2])
    n = 100_000
    draws = hard_sample(probs,
                        sample_gumbel((n, 3), np.random.default_rng(11)))
    counts = np.bincount(draws, minlength=3)
    _, p = stats.chisquare(counts, probs * n)
    assert p > 0.001


def test_seeded_determinism():
    cfg = SamplingConfig(mode=SamplingMode.GUMBEL_SOFTMAX, tau=0.7)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(42)
        runs.append(sample_ids(np.tile([0.5, 0.3, 0.2], (100, 1)), cfg,
                               0.0, rng).tolist())
    assert runs[0] == runs[1]


def test_sampler_normalizes_unnormalized_rows():
    rng = np.random.default_rng(12)
    n = 50_000
    draws = sample_ids(np.tile([1.8, 0.2], (n, 1)), SamplingConfig(), 0.0,
                       rng)
    assert (draws == 0).mean() == pytest.approx(0.9, abs=0.01)


def test_tau_must_be_positive():
    for tau in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ConfigError):
            SamplingConfig(tau=tau)


@pytest.mark.parametrize("mode", list(SamplingMode))
def test_mode_given_by_value_draws_as_the_member(mode):
    probs = np.random.default_rng(22).dirichlet(np.ones(9), size=40)
    by_value = SamplingConfig(mode=mode.value, tau=0.7)
    assert by_value.mode is mode
    want = sample_ids(probs, SamplingConfig(mode=mode, tau=0.7), 0.3,
                      np.random.default_rng(23))
    got = sample_ids(probs, by_value, 0.3, np.random.default_rng(23))
    assert got.tobytes() == want.tobytes()


def test_unknown_mode_is_rejected():
    with pytest.raises(ConfigError, match="'bogus'"):
        SamplingConfig(mode="bogus")


def test_relax_with_noise_rows_equal_row_by_row():
    rng = np.random.default_rng(13)
    probs = rng.dirichlet(np.ones(37), size=9)
    probs[2, 5:] = 0.0  # rows with impossible classes
    noise = sample_gumbel(probs.shape, np.random.default_rng(14))
    for tau in (0.3, 1.0, 4.0):
        batched = relax_with_noise(probs, noise, tau)
        for row, n, got in zip(probs, noise, batched):
            assert got.tobytes() == relax_with_noise(row, n, tau).tobytes()
    # so is every mode's draw; sample_label is the one-row case at beta 0
    for mode in SamplingMode:
        cfg = SamplingConfig(mode=mode, tau=0.7)
        rng = np.random.default_rng(16)
        want = [sample_label(row, cfg, rng) for row in probs]
        got = sample_ids(probs, cfg, 0.0, np.random.default_rng(16))
        assert got.tolist() == want, mode
        rng = np.random.default_rng(17)
        want = [int(sample_ids(row, cfg, 0.3, rng)) for row in probs]
        got = sample_ids(probs, cfg, 0.3, np.random.default_rng(17))
        assert got.tolist() == want, mode


def test_gumbel_tau_acts_only_through_the_keep_bias():
    probs = np.random.default_rng(20).dirichlet(np.ones(30), size=400)

    def ids(tau, beta):
        cfg = SamplingConfig(tau=tau)
        return sample_ids(probs, cfg, beta, np.random.default_rng(21))

    taus = (0.3, 1.0, 3.0)
    # at beta 0 the relaxed argmax is the Gumbel-max draw for every tau
    assert len({ids(tau, 0.0).tobytes() for tau in taus}) == 1
    assert len({ids(tau, 0.3).tobytes() for tau in taus}) == 3


def test_sample_gumbel_matrix_is_the_row_stream():
    a = sample_gumbel((6, 11), np.random.default_rng(15))
    rng = np.random.default_rng(15)
    b = np.stack([sample_gumbel(11, rng) for _ in range(6)])
    assert a.tobytes() == b.tobytes()


def test_relax_with_noise_rejects_any_zero_row():
    probs = np.array([[0.5, 0.5], [0.0, 0.0]])
    with pytest.raises(ValueError):
        relax_with_noise(probs, np.zeros_like(probs), 1.0)
