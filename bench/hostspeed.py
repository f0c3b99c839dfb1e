"""A fixed probe of the host's speed, run between timed reps.

The benchmark shares a host whose speed drifts by 20-40% over minutes, in
the slow periods as well as the fast ones of other tenants' load. ``probe``
runs the same small amount of work every time: a few thousand SGD steps of a
relu-128 MLP on batches of 10 rows, in plain numpy, so it mixes interpreter
overhead and tiny BLAS calls as gafsim's steps do. It imports nothing from
gafsim, so no change to gafsim changes what it measures.

``PROBE_REF_WALL_S`` and ``PROBE_REF_CPU_S`` are the probe's wall and
process CPU times at the reference speed: its medians on the machine in
``bench/README.md`` (CPU exceeds wall there, as OpenBLAS's second thread
spins). A run's host factors are its mean probe times over these; the
benchmark scales each timing metric by the factor of the same kind, so it
reads as if the host ran at the reference speed throughout.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_ITERS = 3000
PROBE_REF_WALL_S = 0.26
PROBE_REF_CPU_S = 0.36

_rng = np.random.default_rng(20241224)
_X = _rng.standard_normal((1000, 32))
_Y = _rng.integers(0, 10, 1000)
_ROWS = np.arange(10)


def probe() -> tuple[float, float]:
    """(wall seconds, process CPU seconds) of one fixed block of work."""
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal((32, 128)) * 0.1
    w2 = rng.standard_normal((128, 10)) * 0.1
    t0, c0 = time.perf_counter(), time.process_time()
    for _ in range(PROBE_ITERS):
        idx = rng.integers(0, 1000, 10)
        x, y = _X[idx], _Y[idx]
        h = np.maximum(x @ w1, 0.0)
        z = h @ w2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[_ROWS, y] -= 1.0
        g2 = h.T @ p
        g1 = x.T @ ((p @ w2.T) * (h > 0))
        w1 -= 0.01 * g1
        w2 -= 0.01 * g2
        float(g1.ravel() @ g1.ravel())
    return time.perf_counter() - t0, time.process_time() - c0
