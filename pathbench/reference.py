"""Reference kernel: fixed work that does not depend on pathtsp.

The host this benchmark runs on is shared, and its speed wanders by 10-20%
over minutes. A run cannot average that out, so the timed loop also times
this kernel before every operation, and ``scale`` turns the run's median
kernel time into a factor for its operation times. A change to pathtsp moves
only the operations, never the kernel.

The kernel is an augmenting-path max-flow in plain Python over numpy
capacity matrices read one scalar at a time: the same kind of work as
``pathtsp.maxflow``, which takes most of the time of every workload. It is
all interpreter work, while the workloads also spend time in HiGHS and in
vectorised numpy, so it slows down more than they do when the machine is
busy. Over fresh processes, each timing one fixed operation and the kernel
in turn, the logarithm of the operation time rose by 0.70 (certify) and
0.68 (pc) times the logarithm of the kernel time. ``ELASTICITY`` is that
slope.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

N = 18
ROUNDS = 30  # max-flows per kernel call, about 20 ms on the VM below
# Median kernel time in seconds on an idle 2-vCPU Intel Xeon VM. Scaled
# times read as wall times on a machine where the kernel takes this long.
NOMINAL_S = 0.020
ELASTICITY = 0.6

_CAP = np.random.default_rng(20111020).uniform(0.0, 1.0, (N, N))
np.fill_diagonal(_CAP, 0.0)


def _max_flow(cap: np.ndarray, s: int, t: int) -> float:
    n = cap.shape[0]
    flow = np.zeros((n, n))
    total = 0.0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue and parent[t] < 0:
            u = queue.popleft()
            for v in range(n):
                if parent[v] < 0 and cap[u, v] - flow[u, v] > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            return total
        push, v = float("inf"), t
        while v != s:
            u = parent[v]
            push = min(push, cap[u, v] - flow[u, v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            flow[u, v] += push
            flow[v, u] -= push
            v = u
        total += push


def kernel() -> float:
    """One unit of reference work; returns its summed flow value.

    Each max-flow runs on a fresh copy of a leading block of the matrix, so
    the work allocates as the workloads do, not on one fixed array.
    """
    total = 0.0
    for k in range(ROUNDS):
        m = N - k % 5
        total += _max_flow(_CAP[:m, :m].copy(), k % m, m - 1 - k % m)
    return total


def timed() -> float:
    """Wall time of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_times: list[float]) -> float:
    """Factor that takes a run's operation times to the nominal machine:
    ``(NOMINAL_S / median kernel time) ** ELASTICITY``."""
    return (NOMINAL_S / statistics.median(kernel_times)) ** ELASTICITY
