"""Fixed pure-Python work that measures the machine's speed.

On a shared host the CPU time of the same work moves with the load other
tenants put on the caches and cores: by a quarter within seconds, and by
more than that over an hour.  So the benchmark times fixed work next to
the program's and reports the program's CPU time scaled by the work's
nominal cost over its measured cost: a slower phase of the machine then
does not read as a slower program.  Two yardsticks:

- the *micro slice* (`micro`), a few milliseconds of integer row
  reduction with gcds, exact fractions, small lists, tuples and dicts,
  the kind of work orbkit does.  The worker times it from a profiling
  timer while an op runs, and between ops, so that an op and its
  yardstick share the same moments of the machine;
- the *reference process* (`python3 reference.py`), for work that is
  mostly interpreter start-up and import (set-up, one `orbkit` command):
  start, the standard-library imports orbkit makes, PROCESS_SLICES micro
  slices.

Nothing here imports orbkit, so no change to the program can change the
cost of either.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

# what each yardstick is taken to cost in CPU seconds: scaled times are
# seconds of a machine on which they cost exactly this
MICRO_NOMINAL_S = 0.003
PROCESS_NOMINAL_S = 0.15
PROCESS_SLICES = 20
PROCESS_ARGV = [sys.executable, str(Path(__file__).resolve())]


def _matrix(n: int, seed: int) -> list[list[int]]:
    x = seed
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append(x % 61 - 30)
        rows.append(row)
    return rows


def _reduce(a: list[list[int]]) -> int:
    """Echelon form by extended-gcd row operations; returns a checksum."""
    n = len(a)
    t = 0
    for c in range(n):
        for r in range(t + 1, n):
            x, y = a[t][c], a[r][c]
            if y == 0:
                continue
            if x == 0:
                a[t], a[r] = a[r], a[t]
                continue
            g = gcd(x, y)
            p, q = x // g, y // g
            a[r] = [p * b - q * e for e, b in zip(a[t], a[r])]
        if a[t][c]:
            t += 1
    return sum(abs(row[k]) % 1000003 for k, row in enumerate(a))


def _fractions(n: int) -> Fraction:
    s = Fraction(0)
    for k in range(1, n):
        s += Fraction((-1) ** k, k * k + 1)
    return s


def _tables(n: int) -> int:
    seen: dict[tuple[int, int], int] = {}
    for i in range(n):
        key = (i % 97, (i * 7) % 89)
        seen[key] = seen.get(key, 0) + i
    return len(seen) + sum(seen.values()) % 1009


def micro() -> int:
    """One micro slice; returns MICRO_CHECKSUM."""
    out = 0
    for seed in range(2):
        out += _reduce(_matrix(14, seed))
    out += _fractions(100).denominator % 1009
    out += _tables(5000)
    return out


# what micro() returns; a slice that returns anything else is refused
MICRO_CHECKSUM = 11537574


def main() -> int:
    """The reference process."""
    import argparse  # noqa: F401
    import collections  # noqa: F401
    import copy  # noqa: F401
    import dataclasses  # noqa: F401
    import itertools  # noqa: F401
    import json  # noqa: F401
    for _ in range(PROCESS_SLICES):
        if micro() != MICRO_CHECKSUM:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
