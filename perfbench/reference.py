"""The reference task timed next to every benchmark pass.

    python3 perfbench/reference.py

Prints the wall time, in seconds, of a fixed task that uses only the
standard library: dict churn over tuple keys, a sort, and sparse column
reductions over Q (Fraction entries) and over F2 (int sets), the kinds of
work gfsheaf's passes do.
It does not depend on gfsheaf, so no change to gfsheaf moves it; run.py
times it in its own process after every pass, and the pass's time over the
reference time around it tracks the program's speed whatever speed the host
gives the benchmark at that moment.
"""

from __future__ import annotations

import time
from fractions import Fraction


def task():
    # Dict churn over tuple keys, then a sort of the table.
    table = {}
    for i in range(100000):
        key = (i % 977, i // 977, i & 7)
        table[key] = table.get(key, 0) ^ i
    sorted(table.items(), key=lambda kv: (kv[1] & 1023, kv[0]))
    # Sparse column reduction over Q: columns {row: Fraction} with small
    # entries, like the boundary matrices gfsheaf ranks.
    for x in (12345, 67890, 13579):
        pivots = {}
        for j in range(800):
            col = {}
            for _ in range(5):
                x = (x * 1103515245 + 12345) % 2147483648
                col[x % 3000] = Fraction(1 if x & 1 else -1, 1 + (x >> 8) % 3)
            while col:
                top = max(col)
                if top not in pivots:
                    pivots[top] = col
                    break
                piv = pivots[top]
                f = col[top] / piv[top]
                for r, v in piv.items():
                    w = col.get(r, 0) - f * v
                    if w:
                        col[r] = w
                    else:
                        col.pop(r, None)
    # The same over F2 with int sets.
    pivots = {}
    for j in range(3000):
        col = set(range(j, j + 40, 3))
        while col:
            top = max(col)
            if top not in pivots:
                pivots[top] = col
                break
            col ^= pivots[top]


if __name__ == "__main__":
    start = time.perf_counter()
    task()
    print(time.perf_counter() - start)
