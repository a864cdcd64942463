"""Train the checkpoint that the correct workload loads.

    python3 perfbench/make_checkpoint.py

Run from the root of a source checkout.  It trains a desk-shape tagger
(dim 32, 2 layers, 2 heads, max_len 40) for 10 epochs on 3,000 pairs of
the correct workload's own length mix (1-6 joined generated sentences,
corruption rate 0.25, over-length pairs left out) and writes
perfbench/correct_model.gst.  Training is seeded, so the file comes out
byte for byte the same.  The checkpoint is committed so that a parent
commit and a change correct with the same weights: a speed change then
cannot hide behind a change in correction rounds.  Regenerate it only
when the checkpoint format changes, and reset CORRECT_F05_FLOOR in
workloads.py from the new F0.5.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 0
PAIRS = 3000
EPOCHS = 10


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))

    import numpy as np

    from gstgec.checkpoint import save_checkpoint
    from gstgec.inference import correct
    from gstgec.model import AdamState, GecModel
    from gstgec.scoring import score_corpus
    from gstgec.training import TrainingConfig, build_dataset, \
        build_vocabs, train_epoch
    from workloads import CORRECT_CHECKPOINT, CORRECT_CONFIG, \
        CORRECT_PARTS, CORRECT_WINDOW, joined_pairs

    rng = np.random.default_rng((SEED, 0xC))
    pairs = [p for p in joined_pairs(rng, PAIRS, CORRECT_PARTS, 0.25)
             if len(p.source) <= CORRECT_WINDOW]
    token_vocab, label_vocab = build_vocabs(pairs)
    examples = build_dataset(pairs, token_vocab, label_vocab)
    model = GecModel.create(token_vocab, label_vocab, seed=SEED, dim=32,
                            layers=2, heads=2, max_len=CORRECT_WINDOW)
    cfg = TrainingConfig(lr=2e-3, batch_size=16, seed=SEED)
    opt_state = AdamState()
    epoch_rng = np.random.default_rng((SEED, 0xE))
    # held-out check on a stream the benchmark runs never draw
    heldout = [p for p in joined_pairs(np.random.default_rng((SEED, 0xD)),
                                       300, CORRECT_PARTS, 0.25)
               if len(p.source) <= CORRECT_WINDOW]
    for epoch in range(1, EPOCHS + 1):
        t0 = time.perf_counter()
        loss = train_epoch(model, examples, cfg, opt_state, epoch_rng)
        traces = [correct(model, p.source, CORRECT_CONFIG) for p in heldout]
        report = score_corpus([p.source for p in heldout],
                              [t.final for t in traces],
                              [p.target for p in heldout])
        at_max = sum(len(t.rounds) == CORRECT_CONFIG.max_iters
                     and t.rounds[-1].applied for t in traces)
        print(f"epoch {epoch}: loss {loss:.4f} held-out {report.text()} "
              f"at max_iters {at_max}/{len(traces)} "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    save_checkpoint(model, CORRECT_CHECKPOINT,
                    extra={"seed": SEED, "pairs": len(pairs),
                           "epochs": EPOCHS})
    print(f"wrote {CORRECT_CHECKPOINT} "
          f"({CORRECT_CHECKPOINT.stat().st_size} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
