"""Print one sha256 digest per pipeline output, to check that a source
tree computes the same numbers bit for bit as the one that wrote
``scripts/digests.txt``.

Each line is ``name sha256``.  The digests cover label extraction,
application and iterative correction over fixed corrupted pairs; the
weights, stage losses and held-out F0.5 of small staged runs (Gumbel
and random sampling, seeds 1 and 2, dim 16, 3 stages of 2 epochs); a
synthetic set from each of those models; and ``correct`` on fixed
inputs with the committed ``perfbench/correct_model.gst``.  They digest
numbers and tokens, not report text, so a change to an output format
does not move them.

Float results depend on the BLAS build and on the SIMD loops numpy
dispatches its ufuncs to, so the output starts with a ``#`` header
naming the numpy build, the BLAS build and the SIMD extensions, and
only the alignment digests, which are pure Python, hold on any machine.
The script pins OpenBLAS to one thread.  Run it from any directory; it
imports the package from the ``src/`` next to it:

    python3 scripts/digests.py > scripts/digests.txt   # record
    python3 scripts/digests.py --check  # exit 1 naming each moved line
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from gstgec.checkpoint import load_checkpoint
from gstgec.corruption import corrupt_corpus, \
    generate_clean_corpus
from gstgec.inference import InferenceConfig, correct
from gstgec.labels import apply_labels, correct_iteratively, \
    extract_labels, format_label
from gstgec.model import GecModel
from gstgec.sampling import SamplingConfig, SamplingMode
from gstgec.training import TrainingConfig, build_vocabs, run_gst, \
    synthesize_dataset

CHECKPOINT = ROOT / "perfbench" / "correct_model.gst"
RECORDED = Path(__file__).with_name("digests.txt")


def digest(*parts) -> str:
    """sha256 over arrays' dtype and bytes and other values' repr (exact
    for floats, which repr round-trips)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(part.dtype.str.encode() + part.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def corpus(count: int, seed: int, rate: float = 0.3):
    rng = np.random.default_rng(seed)
    return corrupt_corpus(generate_clean_corpus(count, rng), rate=rate,
                          rng=rng)


def alignment_lines():
    pairs = corpus(400, 20240817)
    labels = [extract_labels(p) for p in pairs]
    yield "extract_labels", digest([[format_label(lab) for lab in seq]
                                    for seq in labels])
    yield "apply_labels", digest([apply_labels(p.source, seq)
                                  for p, seq in zip(pairs, labels)])
    yield "correct_iteratively", digest(
        [correct_iteratively(p.source, p.target) for p in pairs])


def staged_run_lines():
    pairs = corpus(600, 7)
    train, heldout = pairs[:480], pairs[480:]
    gold = [extract_labels(p) for p in train]
    token_vocab, label_vocab = build_vocabs(train)
    for mode in (SamplingMode.GUMBEL_SOFTMAX, SamplingMode.RANDOM):
        for seed in (1, 2):
            model = GecModel.create(token_vocab, label_vocab, seed=seed,
                                    dim=16, layers=2, heads=2, max_len=32)
            cfg = TrainingConfig(stages=3, epochs_per_stage=2, gamma=0.2,
                                 beta=0.3, sampling=SamplingConfig(mode=mode),
                                 lr=5e-3, seed=seed)
            model, metrics = run_gst(model, train, cfg, heldout_pairs=heldout)
            name = f"run_gst.{mode.value}.seed{seed}"
            yield f"{name}.weights", digest(*model.params.values())
            yield f"{name}.losses", digest([m.epoch_losses for m in metrics])
            yield f"{name}.f_half", digest([m.eval.f_half for m in metrics])
            synthetic = synthesize_dataset(model, train, gold, cfg.stages,
                                           cfg, seed)
            yield f"{name}.synthesize_dataset", digest(
                [(s.origin_index, s.source,
                  [format_label(lab) for lab in s.labels])
                 for s in synthetic])


def correct_lines():
    model, _ = load_checkpoint(CHECKPOINT)
    sources = [p.source for p in corpus(200, 11, rate=0.25)]
    for gamma, beta in ((0.5, 0.0), (0.2, 0.3)):
        cfg = InferenceConfig(gamma=gamma, beta=beta)
        yield f"correct.gamma{gamma}.beta{beta}", digest(
            [correct(model, s, cfg).final for s in sources])


def header():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    build = " ".join(blas.get("openblas configuration", "").split())
    yield f"# numpy {np.__version__}"
    yield f"# BLAS {blas['name']} {blas['version']} {build}".rstrip()
    simd = np.__config__.CONFIG["SIMD Extensions"]
    yield f"# SIMD {' '.join(simd['baseline'] + simd['found'])}"


def recorded() -> dict[str, str]:
    """The digests in digests.txt, by name."""
    lines = RECORDED.read_text(encoding="utf-8").splitlines()
    return dict(line.split() for line in lines
                if line and not line.startswith("#"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with digests.txt instead of printing, "
                             "and exit 1 naming each line that moved")
    check = parser.parse_args().check
    lines = [line for group in (alignment_lines, staged_run_lines,
                                correct_lines) for line in group()]
    if not check:
        print(*header(), *(f"{name} {value}" for name, value in lines),
              sep="\n")
        return 0
    expected = recorded()
    moved = [f"{name}: {was} -> {value}" for name, value in lines
             if (was := expected.pop(name, "absent")) != value]
    moved += [f"{name}: {was} -> absent" for name, was in expected.items()]
    for line in moved:
        print("moved:", line)
    print(f"{len(moved)} moved of the lines in {RECORDED.name}" if moved
          else f"every digest equals {RECORDED.name}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
