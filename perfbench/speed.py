"""Machine-speed probe: scales wall-clock times to a fixed reference speed.

On a shared 2-vCPU machine the speed of the same code flips between
regimes at millisecond scale (about 1.6x apart), the share of time in
each drifts over seconds, and the whole machine can run twice as fast or
slow from one quarter hour to the next.  Raw wall-clock rates of one
workload therefore spread by 10-30% from run to run.  The benchmark
measures that slowdown alongside the work: every PERIOD_S a timer signal
runs one of three fixed reference computations, in turn, between two
bytecodes of the workload and records how long it took.  The references
imitate the library's hot paths without calling it:

- ``python``: a token-level edit-distance table in pure Python (the
  alignment DP, label parsing and the per-call overhead around numpy);
- ``large``: products at width 128 and 512 (the CLI-default encoder's
  forward and backward pass);
- ``memory``: an Adam-like in-place update of 512 KB arrays (the
  optimizer step, bound by memory traffic).

A phase's times are divided by the weighted mean of each reference's
time over NOMINAL_S[kind], with weights the workload states, and so read
as the times on a machine that runs the references in NOMINAL_S.  The
reference times and the workload's unit times are both averaged with
``low_mean``.  The probe's own time is subtracted from the times the
workload measures (``timed``).  Raw times are reported next to the
scaled ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
KINDS = ("python", "large", "memory")
# Median reference times, interleaved with the workloads, over the runs
# made when the benchmark was introduced; a typical run scales by about 1.
NOMINAL_S = {"python": 120e-6, "large": 440e-6, "memory": 200e-6}

_rng = np.random.default_rng(0)
_TOKENS_A = tuple(f"w{i % 7}" for i in range(24))
_TOKENS_B = tuple(f"w{i % 5}" for i in range(24))
_X_LARGE = _rng.random((8, 128))
_W_LARGE_UP = _rng.random((128, 512)) / 128
_W_LARGE_DOWN = _rng.random((512, 128)) / 512
_M = np.zeros(1 << 17, dtype=np.float32)
_G = _rng.random(1 << 17).astype(np.float32)


def _python_reference() -> int:
    a, b = _TOKENS_A, _TOKENS_B
    prev = list(range(len(b) + 1))
    for i, ta in enumerate(a, start=1):
        row = [i] + [0] * len(b)
        for j, tb in enumerate(b, start=1):
            best = prev[j - 1] + (0 if ta == tb else 1)
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if row[j - 1] + 1 < best:
                best = row[j - 1] + 1
            row[j] = best
        prev = row
    return prev[-1]


def _large_reference() -> None:
    h = _X_LARGE @ _W_LARGE_UP
    y = np.maximum(h, 0) @ _W_LARGE_DOWN
    dh = y @ _W_LARGE_DOWN.T
    _X_LARGE.T @ dh


def _memory_reference() -> None:
    _M.__imul__(0.9)
    _M.__iadd__(0.1 * _G)


_REFERENCES = (_python_reference, _large_reference, _memory_reference)


class SpeedProbe:
    """Context manager: runs a reference every PERIOD_S while active."""

    def __init__(self):
        self.samples: list[float] = []
        self._spans: list[tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        for reference in _REFERENCES * 3:  # first calls pay one-off costs
            reference()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a stall outlasted the period; skip this tick
            return
        self._busy = True
        reference = _REFERENCES[len(self.samples) % len(_REFERENCES)]
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._spans.append((t0, t1))
        self._busy = False

    def timed(self, fn, *args):
        """(fn(*args), its wall-clock seconds minus probe time inside)."""
        first = len(self._spans)
        t0 = time.perf_counter()
        result = fn(*args)
        t1 = time.perf_counter()
        # a probe can fire between any two of these lines; only the part
        # of each recent probe that overlaps [t0, t1] is subtracted
        inside = sum(max(0.0, min(end, t1) - max(start, t0))
                     for start, end in self._spans[first:])
        return result, t1 - t0 - inside

    def mark(self) -> int:
        return len(self.samples)

    def slowdowns(self, since: int) -> dict[str, float]:
        """Mean time of each reference over NOMINAL_S, over the samples
        taken since mark() returned since; 1.0 for a kind not sampled."""
        out = {}
        for k, kind in enumerate(KINDS):
            first = since + (k - since) % len(KINDS)
            times = self.samples[first::len(KINDS)]
            out[kind] = (low_mean(times) / NOMINAL_S[kind]
                         if times else 1.0)
        return out


def low_mean(values, keep: float = 0.8) -> float:
    """Mean of the lowest share keep of values.  A stall of the virtual
    CPU adds milliseconds to whichever call it hits; dropping the top
    fifth removes such outliers, where the mean would let one of them
    dominate a short call's time."""
    ordered = sorted(values)
    return float(np.mean(ordered[:max(1, round(keep * len(ordered)))]))


def factor(slowdowns: dict[str, float], weights: dict[str, float]) -> float:
    """Weighted slowdown; weights are the workload's time shares."""
    return sum(w * slowdowns[kind] for kind, w in weights.items())
