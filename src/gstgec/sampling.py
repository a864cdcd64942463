"""Categorical sampling over label probability rows.

``sample_ids`` is the one draw: it returns one label id per row and is
the only code that branches on the mode.  Gumbel-Softmax perturbs the
log-probabilities with standard Gumbel noise and relaxes them with a
temperature-controlled softmax; the relaxed row's argmax is the
Gumbel-max sample, an exact categorical draw, so tau acts only through
the keep bias.  The uniform-random draw is kept as a baseline.

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
    RANDOM = "random"


@dataclass(frozen=True)
class SamplingConfig:
    mode: SamplingMode = SamplingMode.GUMBEL_SOFTMAX
    tau: float = 1.0
    # Nothing reads it; the field stays only because the benchmark's gst
    # workload still passes it by name.
    seed: int = 0

    def __post_init__(self):
        try:
            mode = SamplingMode(self.mode)
        except ValueError:
            raise ConfigError(f"unknown sampling mode {self.mode!r}") from None
        # a value such as "gumbel" becomes the member, which sample_ids
        # compares by identity
        object.__setattr__(self, "mode", mode)
        # NaN fails the comparison; a non-finite tau keeps every token
        if not 0 < self.tau < np.inf:
            raise ConfigError("tau must be finite and positive")


def sample_gumbel(count, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. standard Gumbel variates via inverse transform; count is a
    length or a shape."""
    u = np.clip(rng.random(count), U_EPS, 1.0 - U_EPS)
    return -np.log(-np.log(u))


def _log_probs(probs) -> np.ndarray:
    """The log of rows (..., V), validated and scaled to sum to one."""
    p = np.asarray(probs, dtype=np.float64)
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite and non-negative")
    total = p.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("probabilities sum to zero")
    p = p / total
    with np.errstate(divide="ignore"):
        return np.log(p)


def relax_with_noise(probs, noise: np.ndarray, tau: float) -> np.ndarray:
    logits = _log_probs(probs) + noise
    # all-(-inf) rows are excluded by _log_probs, so the max is finite;
    # subtracted before the division, it maps to 0 at any tau, and the
    # other entries overflow at most to -inf, which exp maps to 0
    z = logits - logits.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):
        z /= tau
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def keep_biased_ids(rows, beta: float) -> np.ndarray:
    """Per-row argmax over the last axis after adding beta to the keep
    entry (only the argmax is consumed, so the unnormalized sum is
    harmless)."""
    rows = np.array(rows, dtype=np.float64)
    rows[..., 0] += beta
    return rows.argmax(axis=-1)


def sample_ids(rows, config: SamplingConfig, beta: float,
               rng: np.random.Generator) -> np.ndarray:
    """One label id per row of (..., V) with keep bias beta: Gumbel-Softmax
    adds it to the relaxed rows (each a distribution, so beta >= 1 always
    keeps); random reads only the row length and ignores beta."""
    if config.mode is SamplingMode.GUMBEL_SOFTMAX:
        noise = sample_gumbel(np.shape(rows), rng)
        return keep_biased_ids(relax_with_noise(rows, noise, config.tau), beta)
    return rng.integers(np.shape(rows)[-1], size=np.shape(rows)[:-1])


# Nothing in the pipeline calls this one-row wrapper; it stays only
# because the benchmark's tracer wraps it by name.
def sample_label(probs, config: SamplingConfig,
                 rng: np.random.Generator) -> int:
    """One class index under the configured sampling mode: sample_ids
    on a single row at keep bias 0."""
    return int(sample_ids(probs, config, 0.0, rng))
