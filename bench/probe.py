"""Fixed work that runs no package code, timed after every operation of a
workload to follow the speed of the host (see workloads.py).

    python3 bench/probe.py N    # import numpy, then run compute() N times
"""

import sys

import numpy as np

# fixed, whatever the workload seed: the probe must not depend on the inputs
_STACK = np.random.default_rng(0).normal(size=(50, 6, 6))
MATRICES = _STACK + _STACK.transpose(0, 2, 1)


def compute():
    """Interpreted arithmetic and 6x6 symmetric eigensolves, the size of a
    two-mode Hopfield matrix: the kind of work of a scan or a fit."""
    total = 0
    for i in range(20000):
        total += i * i % 7
    for matrix in MATRICES:
        np.linalg.eigh(matrix)
    return total


if __name__ == "__main__":
    for _ in range(int(sys.argv[1])):
        compute()
