"""Sequence-labeling grammatical error correction toolkit.

Correction is cast as per-token edit-label classification over a small
trainable transformer encoder with separate error-detection and
error-labeling heads.  Inference is iterative with a keep-confidence
bias and a sentence-level stopping gate.  Training can run in stages,
where each stage synthesizes fresh errorful training sentences by
sampling from the model's own label distribution.
"""

__version__ = "0.1.0"
