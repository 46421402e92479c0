"""Machine-speed probes used to scale measured times to a reference speed.

On a shared host the same work runs up to 1.5x slower for stretches of
tens of seconds to minutes, and process CPU time slows with it (the vCPU
itself runs slower; nothing is descheduled).  The benchmark therefore
times a fixed probe right before and right after every op (or chunk of
replicates, or set-up sample) and reports each measured time multiplied by
``ref_s / probe``, with ``probe`` the mean of the two.  Neither probe runs
qsts code, so no change to the package can move them.  Raw times are
reported beside the scaled ones.

Each workload uses the probe that matches its dominant work.  ``LOOP``, a
pure-Python loop, tracks interpreter-bound work: the per-block loop of
``mc_blocked``, set-up and the CLI commands.  ``EIGH``, a Hermitian
eigensolve at n=160, tracks LAPACK-bound work: ``dense_symbols``.  Over
200 s of drift, the spread of the n=1025 sampler item fell from 0.17
measured to 0.085 with ``LOOP`` and 0.047 with ``EIGH``.
"""

import time


class Probe:
    """A fixed piece of work, timed as the faster of two tries."""

    def __init__(self, work, ref_s: float):
        self.work = work
        self.ref_s = ref_s

    def take(self) -> float:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        """Factor that maps a time measured between two probes to the reference speed."""
        return self.ref_s / (0.5 * (before + after))


def _loop():
    s = 0
    for i in range(200_000):
        s += i


_MATRIX = []


def _eigh():
    import numpy as np

    if not _MATRIX:
        rng = np.random.default_rng(0)
        h = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        _MATRIX.append(h + h.conj().T)
    np.linalg.eigh(_MATRIX[0])


# reference times: medians on a 2-vCPU Intel Xeon VM at 2.0 GHz, BLAS at 1 thread
LOOP = Probe(_loop, 0.010)
EIGH = Probe(_eigh, 0.0085)
