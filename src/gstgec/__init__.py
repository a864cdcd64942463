"""Sequence-labeling grammatical error correction toolkit.

Correction is cast as per-token edit-label classification over a small
trainable transformer encoder with separate error-detection and
error-labeling heads.  Inference is iterative with a keep-confidence
bias and a sentence-level stopping gate.  Training can run in stages,
where each stage synthesizes fresh errorful training sentences by
sampling from the model's own label distribution.
"""

__version__ = "0.1.0"

from .corpus import SENTINEL, SentencePair, TokenVocab, detokenize, \
    read_parallel_tsv, tokenize, write_parallel_tsv
from .errors import GstError
from .inference import CorrectionTrace, InferenceConfig, correct
from .labels import Kind, LabelSequence, LabelVocab, TransformLabel, \
    apply_labels, extract_labels, format_label, \
    measure_error_rate, parse_label
from .model import GecModel, ModelConfig, TokenDistributions
from .sampling import SamplingConfig, SamplingMode, sample_gumbel, \
    sample_ids
from .scoring import ScoreReport, extract_edits, f_beta, score_corpus
from .training import TrainingConfig, run_gst, synthesize_example

__all__ = [
    "SENTINEL", "SentencePair", "TokenVocab", "detokenize",
    "read_parallel_tsv", "tokenize", "write_parallel_tsv",
    "GstError", "CorrectionTrace", "InferenceConfig", "correct",
    "Kind", "LabelSequence", "LabelVocab",
    "TransformLabel", "apply_labels", "extract_labels",
    "format_label", "measure_error_rate", "parse_label", "GecModel",
    "ModelConfig", "TokenDistributions", "SamplingConfig", "SamplingMode",
    "sample_gumbel", "sample_ids",
    "ScoreReport", "extract_edits", "f_beta", "score_corpus",
    "TrainingConfig", "run_gst", "synthesize_example",
]
