"""Exact integer and rational arithmetic.

Arbitrary-precision integers (Python ints), reduced rationals
(fractions.Fraction), modular inverses, bounded trial-division
factorization and one elimination per ring.  Everything downstream
(homology, Chern classes, abelianizations, the pairing's checks)
reduces to these primitives.  An IntMatrix of any shape, identity and
zero included, is made from its entries: by the constructor, or by
from_rows, which checks that each is an integer.

Over Z the elimination is the Smith normal form: one loop of row and
column moves on one list of rows, A bordered by two identities, so
that the same moves give D and both transforms U and V.  Over Q it is
congruence_diagonal, which diagonalises a symmetric matrix Q by
congruence, D = L^T Q L: the determinant of Q is the product of D and
its inertia is the signs of D.
"""

from __future__ import annotations

from fractions import Fraction
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


@record(frozen=True)
class SnfResult:
    """Smith normal form data: U @ A @ V == D, U and V unimodular."""

    D: IntMatrix
    U: IntMatrix
    V: IntMatrix

    def invariant_factors(self) -> list[int]:
        return [d for d in self.D.diagonal() if d != 0]


def smith_normal_form(A: IntMatrix) -> SnfResult:
    """Diagonalize A over the integers (Cohen, GTM 138, section 2.4).

    Classical pivot-and-reduce, always pivoting on a minimal-absolute-value
    nonzero entry to keep coefficients small: the first such entry in
    row-major order, so the search for it ends at the first entry of
    absolute value 1.  Returns D with a divisibility chain d1 | d2 | ...
    and unimodular transforms with U @ A @ V == D.

    Every move acts on one list of rows, the bordered matrix
    [[A, I_m], [I_n, 0]] of an m x n matrix A (its zero corner is left
    out, as no move reaches it).  A row move among the first m rows
    acts on D and U; a column move among the first n columns acts on D
    and V.  Each round swaps the pivot into place and clears its column,
    then its row.  If a remainder is left, or a lower row is not
    divisible by the pivot (that row is then added to the pivot's), the
    round is repeated: each repeat finds a smaller pivot, so this ends.
    Otherwise the pivot's sign is fixed and the next one is taken.  D, U
    and V are sliced out of the rows at the end and built by the IntMatrix
    constructor, with no second pass over the entries (from_rows would
    check each one again).  A matrix with no rows or no columns gives the
    zero D and identity U and V of its shape.
    """
    m, n = A.rows, A.cols
    b = [[*r] + [0] * m for r in A.entries] + [[0] * n for _ in range(n)]
    for i in range(m):
        b[i][n + i] = 1
    for j in range(n):
        b[m + j][j] = 1

    def min_pivot(t):
        # the first entry of least absolute value in row-major order; no
        # later entry beats a unit, so the search stops at the first one
        best, least = None, 0
        for i in range(t, m):
            row = b[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        return best
        return best

    t = 0
    while t < min(m, n):
        pos = min_pivot(t)
        if pos is None:
            break
        r, c = pos
        b[t], b[r] = b[r], b[t]
        if c != t:
            for row in b:
                row[t], row[c] = row[c], row[t]
        top = b[t]
        p = top[t]
        for i in range(t + 1, m):
            if b[i][t]:
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], top)]
        for j in range(t + 1, n):
            if top[j]:
                q = top[j] // p
                for row in b:
                    row[j] -= q * row[t]
        if any([row[t] for row in b[t + 1:m]]) or any(top[t + 1:n]):
            continue  # a remainder is left, smaller than the pivot
        for row in b[t + 1:m]:
            if any([x % p for x in row[t + 1:n]]):
                b[t] = [x + y for x, y in zip(top, row)]
                break
        else:  # the pivot divides every lower row
            if p < 0:
                b[t] = [-x for x in top]
            t += 1

    return SnfResult(D=IntMatrix(m, n, tuple([tuple(r[:n]) for r in b[:m]])),
                     U=IntMatrix(m, m, tuple([tuple(r[n:]) for r in b[:m]])),
                     V=IntMatrix(n, n, tuple([tuple(r) for r in b[m:]])))


def congruence_diagonal(rows) -> list:
    """The diagonal of D = L^T Q L, a congruence diagonalisation over Q
    of the square symmetric matrix Q with these rows (Fractions or ints).

    The product of D is det Q, the signs of D give the inertia of Q, and
    Q is degenerate exactly when D holds a 0.  Each step pivots on the
    first nonzero diagonal entry of what is left (symmetric pivoting):
    the pivot is D's next entry, and its row and column leave by a Schur
    complement, in which each other row with a nonzero entry in the
    pivot's column subtracts that multiple of the pivot's row.  When the
    diagonal left is all 0, the first row's first nonzero entry, in
    column j, makes a pivot: row and column j are added to row and
    column 0, whose diagonal entry becomes twice that entry.  A first
    row of zeros is a 0 pivot with nothing to subtract.  Raises
    ValueError unless Q is square and symmetric.
    """
    a = [list(r) for r in rows]
    if a != [list(c) for c in zip(*a)]:  # a non-square one differs too
        raise ValueError("not a square symmetric matrix")
    d = []
    while a:
        k = next((k for k, r in enumerate(a) if r[k]), None)
        if k is None:
            j = next((j for j, x in enumerate(a[0]) if x), 0)
            a[0] = [x + y for x, y in zip(a[0], a[j])]
            for r in a:
                r[0] += r[j]
            k = 0
        top = a.pop(k)
        p = top.pop(k)
        d.append(p)
        for r in a:
            if c := r.pop(k):
                q = Fraction(c, p)  # exact for int entries too
                r[:] = [x - q * y for x, y in zip(r, top)]
    return d
