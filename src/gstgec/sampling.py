"""Categorical sampling over label probability rows.

The exact sampler perturbs log-probabilities with standard Gumbel noise
and takes the argmax; its temperature-controlled softmax relaxation
shares the same noise, so the relaxed row's argmax always equals the
hard sample.  Plain multinomial and uniform-random draws are kept as
baselines; ``sample_ids`` is the one draw that branches on the mode.

The functions take rows of shape (..., V) and reduce over the last
axis; a matrix call equals row-by-row calls bit for bit, since the
generator draws a matrix as the same stream as its rows in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError

U_EPS = 1e-12


class SamplingMode(str, Enum):
    GUMBEL_SOFTMAX = "gumbel"
    MULTINOMIAL = "multinomial"
    RANDOM = "random"


@dataclass(frozen=True)
class SamplingConfig:
    mode: SamplingMode = SamplingMode.GUMBEL_SOFTMAX
    tau: float = 1.0
    seed: int = 0

    def __post_init__(self):
        # NaN fails the comparison; a non-finite tau keeps every token
        if not 0 < self.tau < np.inf:
            raise ConfigError("tau must be finite and positive")


def sample_gumbel(count, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard Gumbel variates via inverse transform; count is a
    length or a shape."""
    u = np.clip(rng.random(count), U_EPS, 1.0 - U_EPS)
    return -np.log(-np.log(u))


def _normalized(probs) -> np.ndarray:
    """Rows of (..., V) validated and scaled to sum to one."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and non-negative")
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("probabilities sum to zero")
    return p / total


def _log_probs(probs) -> np.ndarray:
    p = _normalized(probs)
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(p), -np.inf)


def argmax_with_noise(probs, noise: np.ndarray) -> int:
    """Hard sample for a fixed noise realization (ties to lowest index)."""
    return int(np.argmax(_log_probs(probs) + noise))


def gumbel_max(probs, rng: np.random.Generator) -> int:
    """Exact categorical draw: argmax of noise-perturbed log-probs."""
    return argmax_with_noise(probs, sample_gumbel(len(probs), rng))


def relax_with_noise(probs, noise: np.ndarray, tau: float) -> np.ndarray:
    logits = (_log_probs(probs) + noise) / tau
    # all-(-inf) rows are excluded by _log_probs, so the max is finite
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def gumbel_softmax(probs, tau: float, rng: np.random.Generator) -> np.ndarray:
    """Temperature-tau relaxed sample; a valid probability row."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return relax_with_noise(probs, sample_gumbel(len(probs), rng), tau)


def multinomial(probs, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF categorical draw, one index per row of (..., V)."""
    cdf = np.cumsum(_normalized(probs), axis=-1)
    # the count of CDF entries <= u is searchsorted(cdf, u, side="right")
    hits = (cdf <= rng.random(cdf.shape[:-1])[..., None]).sum(axis=-1)
    return np.minimum(hits, cdf.shape[-1] - 1)


def _keep_biased(rows, beta: float) -> np.ndarray:
    """A float64 copy of rows (..., V) with beta added to column 0."""
    rows = np.array(rows, dtype=np.float64)
    rows[..., 0] += beta
    return rows


def keep_biased_ids(rows, beta: float) -> np.ndarray:
    """Per-row argmax over the last axis after adding beta to the keep
    entry (only the argmax is consumed, so the unnormalized sum is
    harmless)."""
    return _keep_biased(rows, beta).argmax(axis=-1)


def sample_ids(rows, config: SamplingConfig, beta: float,
               rng: np.random.Generator) -> np.ndarray:
    """One label id per row of (..., V) with keep bias beta: Gumbel-Softmax
    adds it to the relaxed rows (each a distribution, so beta >= 1 always
    keeps), multinomial to the rows it draws from; random ignores both."""
    if config.mode is SamplingMode.GUMBEL_SOFTMAX:
        noise = sample_gumbel(np.shape(rows), rng)
        return keep_biased_ids(relax_with_noise(rows, noise, config.tau), beta)
    if config.mode is SamplingMode.MULTINOMIAL:
        return multinomial(_keep_biased(rows, beta), rng)
    if config.mode is SamplingMode.RANDOM:
        return rng.integers(np.shape(rows)[-1], size=np.shape(rows)[:-1])
    raise ValueError(f"unknown sampling mode {config.mode!r}")


def sample_label(probs, config: SamplingConfig,
                 rng: np.random.Generator) -> int:
    """One class index under the configured sampling mode."""
    return int(sample_ids(probs, config, 0.0, rng))
