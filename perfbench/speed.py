"""Host-speed calibration for timings on a shared machine.

On a shared host the same single-threaded Python code runs up to about
1.7 times slower in phases that last from milliseconds to minutes, because
other tenants contend for the core, its caches and its clock.  A phase that
outlasts a run moves every timing of that run, and no estimator over the
run's own timings removes it.

A ``Meter`` therefore runs a fixed reference computation, which belongs to
the benchmark and never to the program, between the pieces of work it
times: before the first piece, after every ``REF_EVERY_S`` seconds of
timed work and after the last piece.  Each piece is scaled by the
reference's nominal time over the mean of the two reference samples that
bracket it:

    scaled = measured * REF_NOMINAL_S / mean(reference before, reference after)

Scaled times read as seconds on the host at the speed where the reference
takes ``REF_NOMINAL_S``.  A change to the program moves its pieces and not
the reference, so it still shows in full; a change in host speed moves
both, and cancels out.
"""

from __future__ import annotations

import random
import time

clock = time.perf_counter

# A reference sample takes about 2.5 ms at the nominal speed, and one is
# taken per 25 ms of timed work, so calibration adds about a tenth to a run.
REF_NOMINAL_S = 0.0025
REF_EVERY_S = 0.025


def _reference_graph(n: int = 24, p: float = 0.3, seed: int = 20250615) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


_ADJ = _reference_graph()
_RNG = random.Random(7)
_MASKS = [_RNG.getrandbits(len(_ADJ)) for _ in range(400)]


def reference_work() -> int:
    """Count the components left after deleting each of a fixed set of
    vertex subsets: bitset graph search with Python ints, lists and calls,
    the same kind of work the program does."""
    adj, full, total = _ADJ, (1 << len(_ADJ)) - 1, 0
    for mask in _MASKS:
        alive = full & ~mask
        left = alive
        while left:
            seen = front = left & -left
            while front:
                v = front.bit_length() - 1
                front &= front - 1
                new = adj[v] & alive & ~seen
                seen |= new
                front |= new
            left &= ~seen
            total += 1
    return total


def reference_sample() -> float:
    started = clock()
    reference_work()
    return clock() - started


class Meter:
    """Times consecutive pieces of work and scales each to the nominal
    host speed (see the module docstring).

    ``start()`` opens the first piece, ``lap()`` closes the current piece
    and opens the next, and ``stop()`` closes the last one and returns the
    scaled durations in order.  Reference samples run inside ``lap`` and
    are not part of any piece.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.pieces: list[tuple[float, int]] = []   # (measured, refs before it)
        self.raw_total = 0.0
        self._since_ref = 0.0
        self._started = 0.0

    def start(self) -> None:
        self.refs.append(reference_sample())
        self._started = clock()

    def lap(self) -> None:
        now = clock()
        took = now - self._started
        self.pieces.append((took, len(self.refs)))
        self.raw_total += took
        self._since_ref += took
        if self._since_ref >= REF_EVERY_S:
            self.refs.append(reference_sample())
            self._since_ref = 0.0
            now = clock()
        self._started = now

    def stop(self) -> list[float]:
        if self._since_ref > 0.0 or len(self.refs) < 2:
            self.refs.append(reference_sample())
        refs = self.refs
        return [took * 2.0 * REF_NOMINAL_S / (refs[k - 1] + refs[k])
                for took, k in self.pieces]
