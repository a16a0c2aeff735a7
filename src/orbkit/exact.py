"""Exact integer and rational arithmetic.

Arbitrary-precision integers (Python ints), reduced rationals
(fractions.Fraction), modular inverses, bounded trial-division
factorization and Smith normal form of integer matrices.  Everything
downstream (homology, Chern classes, abelianizations) reduces to these
primitives.  An IntMatrix of any shape, identity and zero included, is
made from its entries: by the constructor, or by from_rows, which
checks that each is an integer.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .record import record


class NotCoprime(ValueError):
    """gcd(a, m) != 1 where an inverse mod m was requested."""


def mod_inverse(a: int, m: int) -> int:
    """Return b in [1, m) with a*b = 1 (mod m).

    Raises NotCoprime if gcd(a, m) != 1.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if gcd(a, m) != 1:
        raise NotCoprime(f"gcd({a}, {m}) != 1")
    return pow(a, -1, m)


# factorize tries divisors up to TRIAL_BOUND, at most 0.1 s of work
TRIAL_BOUND = 10 ** 6


class PrimalityUnknown(ValueError):
    """A cofactor above TRIAL_BOUND ** 2 with no prime factor up to
    TRIAL_BOUND: trial division cannot tell whether it is a prime."""


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ordered (prime, exponent) pairs.

    Trial division up to TRIAL_BOUND; a cofactor left at or above
    (TRIAL_BOUND + 1) ** 2 raises PrimalityUnknown, as trial division
    has not proved it prime.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if p > TRIAL_BOUND:
            raise PrimalityUnknown(
                f"{n} has no prime factor up to {TRIAL_BOUND} and is above "
                f"{TRIAL_BOUND ** 2}, so it cannot be factored")
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1)."""
    r = 1
    for p, _ in factorize(n):
        r *= p
    return r


def radical_quotient(d: int, j: int) -> int:
    """rad(d) / gcd(rad(d), rad(j)) for d, j >= 1."""
    rd = radical(d)
    return rd // gcd(rd, radical(j))


@record(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("column count mismatch")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "IntMatrix":
        """The matrix of these rows.  Each entry must be an integer (a
        bool reads as 0 or 1): a Fraction or a float raises TypeError
        rather than being truncated."""
        # both levels from lists: a tuple built from a generator is
        # resized, and a freed small tuple of that size is not reused
        return cls(len(rows), len(rows[0]) if rows else 0,
                   tuple([tuple([index(x) for x in r]) for r in rows]))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.entries else ())

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(a * b for a, b in zip(row, col))
                                     for col in ot)
                               for row in self.entries))

    def diagonal(self) -> list[int]:
        return [self.entries[i][i] for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


@record(frozen=True)
class SnfResult:
    """Smith normal form data: U @ A @ V == D, U and V unimodular."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> list[int]:
        return [d for d in self.D.diagonal() if d != 0]


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Diagonalize A over the integers.

    Classical pivot-and-reduce, always pivoting on a minimal-absolute-value
    nonzero entry to keep coefficients small: the first such entry in
    row-major order, so the search for it ends at the first entry of
    absolute value 1.  Returns D with a divisibility chain d1 | d2 | ...
    and unimodular transforms with U @ A @ V == D.

    D starts as a copy of A's rows and U, V as identity rows; every step
    acts on these lists of ints, and D, U and V are then built from them
    by the IntMatrix constructor, with no second pass over the entries
    (from_rows would check each one again).  A matrix with no rows or no
    columns gives the zero D and identity U and V of its shape.
    """
    m, n = A.rows, A.cols
    d = [list(r) for r in A.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst -= q * row src
        for k in range(n):
            d[dst][k] -= q * d[src][k]
        for k in range(m):
            u[dst][k] -= q * u[src][k]

    def add_col(dst, src, q):
        for row in d:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def min_pivot(t):
        # the first entry of least absolute value in row-major order; no
        # later entry beats a unit, so the search stops at the first one
        best, least = None, 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        if min_pivot(t) is None:
            break
        while True:
            # re-pick a minimal pivot each pass: every reduction strictly
            # shrinks the least absolute value, so this terminates
            pos = min_pivot(t)
            swap_rows(t, pos[0])
            swap_cols(t, pos[1])
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    add_row(i, t, d[i][t] // d[t][t])
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    add_col(j, t, d[t][j] // d[t][t])
                    dirty = dirty or d[t][j] != 0
            if dirty:
                continue
            # divisibility fix: pivot must divide the rest of the submatrix
            fixed = True
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % d[t][t] != 0:
                        add_row(t, i, -1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if d[t][t] < 0:
            for k in range(n):
                d[t][k] = -d[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1

    return SnfResult(D=IntMatrix(m, n, tuple([tuple(r) for r in d])),
                     U=IntMatrix(m, m, tuple([tuple(r) for r in u])),
                     V=IntMatrix(n, n, tuple([tuple(r) for r in v])))
