"""A fixed reference computation that uses no chevperm code.

    python3 perfbench/calibrate.py      # prints the seconds of one round

The harness times one round before every configuration it runs.  A change to
chevperm cannot move this figure; a change in the speed of the machine
moves it together with `verdict_s`.  When two runs differ in both, the
machine changed speed, not the program.

The round is the same mix of work as chevperm's: row reduction of small
matrices over GF(3) with numpy, and Python loops over dicts and tuples.
"""

import time

import numpy as np


def _row_reduce(M, p):
    """Reduced row echelon form of M over GF(p), in place; returns the rank."""
    rank = 0
    rows, cols = M.shape
    for c in range(cols):
        pivots = np.flatnonzero(M[rank:, c])
        if not len(pivots):
            continue
        r = rank + int(pivots[0])
        if r != rank:
            M[[rank, r]] = M[[r, rank]]
        M[rank] = (M[rank] * pow(int(M[rank, c]), p - 2, p)) % p
        others = np.flatnonzero(M[:, c])
        others = others[others != rank]
        if len(others):
            M[others] = (M[others] - np.outer(M[others, c], M[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def work(rounds=60):
    """The reference computation; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(12345)
    check = 0
    for i in range(rounds):
        M = rng.integers(0, 3, size=(48, 64), dtype=np.int64)
        check += _row_reduce(M, 3)
        table = {}
        for j in range(2000):
            key = (j % 97, (j * i) % 89)
            table[key] = table.get(key, 0) + j
        check += len(table)
    return check


EXPECTED = work(1)

# seconds of one round on the machine the benchmark's bounds were set on
# (2 shared cores of an Intel Xeon, CPython 3.11.7, numpy 2.4.6) while it
# ran fast: the speed that the benchmark's verdict_s and setup_s are given at
REFERENCE_S = 0.13


def calibration_s():
    """Seconds of one round of the reference computation."""
    assert work(1) == EXPECTED
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


if __name__ == "__main__":
    print("%.6f" % calibration_s())
