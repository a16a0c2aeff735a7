import random
from fractions import Fraction
from math import gcd, prod

import pytest

from orbkit.exact import (
    IntMatrix,
    NotCoprime,
    PrimalityUnknown,
    congruence_diagonal,
    factorize,
    mod_inverse,
    radical,
    radical_quotient,
    smith_normal_form,
)
from orbkit.surgery import build_block_Y, build_Z


class TestModInverse:
    def test_examples(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(1, 5) == 1
        assert mod_inverse(2, 9) == 5

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(2, 4)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 1)

    def test_random_pairs(self):
        rng = random.Random(20240817)
        for _ in range(2000):
            m = rng.randrange(2, 10**6)
            a = rng.randrange(1, m)
            if gcd(a, m) != 1:
                with pytest.raises(NotCoprime):
                    mod_inverse(a, m)
                continue
            b = mod_inverse(a, m)
            assert 0 < b < m
            assert (a * b) % m == 1


class TestFactorize:
    def test_examples(self):
        assert factorize(1) == []
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(729) == [(3, 6)]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_trial_division_is_bounded(self):
        # 10**12 + 39 is a prime; its square root is the last divisor tried
        assert factorize(10 ** 12 + 39) == [(10 ** 12 + 39, 1)]
        assert factorize(2 * (10 ** 12 + 39)) == [(2, 1), (10 ** 12 + 39, 1)]
        assert factorize(97 ** 16) == [(97, 16)]
        for n in (10 ** 30 + 57, 3 * 1000003 * 1000033):
            with pytest.raises(PrimalityUnknown, match="no prime factor up "
                                                       "to 1000000"):
                factorize(n)

    def test_roundtrip(self):
        rng = random.Random(7)
        for n in list(range(1, 300)) + [rng.randrange(1, 10**6)
                                        for _ in range(200)]:
            prod = 1
            prev = 0
            for p, e in factorize(n):
                assert p > prev and e >= 1
                prev = p
                prod *= p ** e
            assert prod == n


def test_radical_quotient():
    assert radical(360) == 30
    assert radical_quotient(2, 1) == 2
    assert radical_quotient(1, 17) == 1
    assert radical_quotient(12, 6) == 1
    assert radical_quotient(12, 35) == 6


def _random_matrix(rng, max_dim=8, lo=-20, hi=20):
    m = rng.randrange(1, max_dim + 1)
    n = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)])


def _random_unimodular(rng, n, steps=12):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randrange(-3, 4)
        for k in range(n):
            rows[i][k] += q * rows[j][k]
    return IntMatrix.from_rows(rows)


class TestFromRows:
    def test_refuses_non_integers(self):
        # int() would truncate these to (0, 2) and 3
        for x in (Fraction(1, 2), Fraction(7, 2), Fraction(4, 2), 2.9, 3.0,
                  "3", None):
            with pytest.raises(TypeError):
                IntMatrix.from_rows([[1, x]])

    def test_bools_read_as_ints(self):
        a = IntMatrix.from_rows([[True, False], [2, -1]])
        assert a.entries == ((1, 0), (2, -1))
        assert {type(x) for r in a.entries for x in r} == {int}

    def test_empty(self):
        assert IntMatrix.from_rows([]) == IntMatrix(0, 0, ())
        assert IntMatrix.from_rows([[], []]) == IntMatrix(2, 0, ((), ()))


def _inertia(d):
    """(positive, negative) counts of a diagonal form."""
    return sum(x > 0 for x in d), sum(x < 0 for x in d)


def _unimodular(m: IntMatrix) -> bool:
    """|det m| == 1, read off det(m^T m) = det(m)^2 as the product of
    congruence_diagonal: a check that shares no code with the SNF."""
    return prod(congruence_diagonal((m.transpose() @ m).entries)) == 1


class TestCongruenceDiagonal:
    def test_empty_and_one_by_one(self):
        assert congruence_diagonal([]) == []
        assert congruence_diagonal([[Fraction(-7, 2)]]) == [Fraction(-7, 2)]
        assert congruence_diagonal([[0]]) == [0]

    def test_zero_first_row_and_column(self):
        """A zero first row and column give a 0; the rest is pivoted as
        it stands, with or without a nonzero diagonal entry left."""
        d = congruence_diagonal([[0, 0, 0], [0, 1, 2], [0, 2, 3]])
        assert d == [1, -1, 0]
        d = congruence_diagonal([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        assert d == [0, 2, Fraction(-1, 2)]

    def test_hyperbolic_plane_adds_a_row(self):
        """[[0, 1], [1, 0]] has no nonzero diagonal entry: row and column
        1 are added to row and column 0, whose corner becomes 2."""
        d = congruence_diagonal([[0, 1], [1, 0]])
        assert d == [2, Fraction(-1, 2)]
        assert prod(d) == -1 and _inertia(d) == (1, 1)
        d = congruence_diagonal([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
        assert prod(d) == 0 and _inertia(d) == (1, 1)

    def test_zero_matrix(self):
        assert congruence_diagonal([[0] * 3] * 3) == [0, 0, 0]

    def test_refuses_non_square_or_non_symmetric(self):
        for rows in ([[1, 2]], [[1, 2], [2]], [[1], [1, 2]], [[1, 2], [3, 4]],
                     [[0, 1, 0], [1, 0, 0]]):
            with pytest.raises(ValueError):
                congruence_diagonal(rows)

    def test_the_input_is_left_alone(self):
        rows = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        congruence_diagonal(rows)
        assert rows == [[0, 1], [1, 0]]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_builtin_pairings(self, p):
        """glued_Z's pairing on V1..V16 is already diagonal; block_Y's
        det -1/4 makes its pairing scaled by 2 (6 x 6) have det -16."""
        d = congruence_diagonal(build_Z(p).pairing_matrix())
        half = Fraction(1, 2)
        assert d == [half, -half] + [-1] * 12 + [1, 1]
        assert prod(d) == Fraction(-1, 4) and _inertia(d) == (3, 13)
        d = congruence_diagonal(build_block_Y().pairing_matrix())
        assert prod(d) == Fraction(-1, 4) and _inertia(d) == (3, 3)


class TestCongruenceOracle:
    """The product and signs of congruence_diagonal against sympy's
    determinant and characteristic polynomial over QQ."""

    @staticmethod
    def _random_symmetric(rng):
        n = rng.randrange(0, 9)
        shape = rng.choice(("dense", "zero diagonal", "zero first column",
                            "singular"))
        if shape == "singular":
            # M S M^T with M n x k, k < n, has rank at most k
            k = rng.randrange(0, n) if n else 0
            m = [[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)]
            s = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                  for _ in range(k)] for _ in range(k)]
            s = [[s[i][j] + s[j][i] for j in range(k)] for i in range(k)]
            return [[sum((m[i][u] * s[u][v] * m[j][v] for u in range(k)
                          for v in range(k)), Fraction(0))
                     for j in range(n)] for i in range(n)]
        a = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.6:
                    a[i][j] = a[j][i] = Fraction(rng.randrange(-5, 6),
                                                 rng.randrange(1, 5))
        for i in range(n):
            if shape == "zero diagonal":
                a[i][i] = Fraction(0)
            elif shape == "zero first column":
                a[i][0] = a[0][i] = Fraction(0)
        return a

    @staticmethod
    def _oracle(a):
        """(det, (positive, negative)) by sympy.  A real symmetric
        matrix has real eigenvalues only, so Descartes' rule of signs on
        its characteristic polynomial counts them exactly: sign changes
        of p(x) for the positive ones and of p(-x) for the negative ones,
        once the factor x^z of the zero eigenvalues is divided out."""
        pytest.importorskip("sympy")
        matrices = pytest.importorskip("sympy.polys.matrices")
        from sympy import QQ
        n = len(a)
        dm = matrices.DomainMatrix(
            [[QQ(x.numerator, x.denominator) for x in r] for r in a],
            (n, n), QQ)
        coeffs = list(dm.charpoly())
        while coeffs[-1] == 0:
            coeffs.pop()

        def changes(cs):
            signs = [c > 0 for c in cs if c]
            return sum(u != v for u, v in zip(signs, signs[1:]))

        top = len(coeffs) - 1
        negated = [c if (top - i) % 2 == 0 else -c
                   for i, c in enumerate(coeffs)]
        det = Fraction(1) if n == 0 else dm.det()
        return Fraction(int(det.numerator), int(det.denominator)), \
            (changes(coeffs), changes(negated))

    def test_random_symmetric_matrices(self):
        rng = random.Random(2024)
        for _ in range(1000):
            a = self._random_symmetric(rng)
            d = congruence_diagonal(a)
            assert len(d) == len(a)
            assert (prod(d), _inertia(d)) == self._oracle(a), a


class TestSmithNormalForm:
    def test_identity(self):
        snf = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert snf.D.entries == ((1, 0), (0, 1))

    def test_spec_example(self):
        snf = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
        assert snf.invariant_factors() == [2, 4]

    def test_zero(self):
        snf = smith_normal_form(IntMatrix.from_rows([[0, 0]] * 3))
        assert snf.invariant_factors() == []

    def test_transform_identity(self):
        rng = random.Random(1234)
        for _ in range(200):
            a = _random_matrix(rng)
            snf = smith_normal_form(a)
            assert snf.U @ a @ snf.V == snf.D
            assert _unimodular(snf.U) and _unimodular(snf.V)
            facs = snf.invariant_factors()
            for x, y in zip(facs, facs[1:]):
                assert y % x == 0 and x > 0

    def test_the_unimodularity_check_rejects_det_2(self):
        assert _unimodular(IntMatrix.from_rows([[0, -1], [1, 0]]))
        assert not _unimodular(IntMatrix.from_rows([[1, 0], [0, 2]]))

    def test_unimodular_invariance(self):
        rng = random.Random(99)
        for _ in range(60):
            a = _random_matrix(rng, max_dim=5)
            p = _random_unimodular(rng, a.rows)
            q = _random_unimodular(rng, a.cols)
            assert (smith_normal_form(p @ a @ q).invariant_factors()
                    == smith_normal_form(a).invariant_factors())


class TestSympyOracle:
    """Invariant factors against sympy's Smith normal form over ZZ."""

    @staticmethod
    def _oracle(a: IntMatrix) -> list[int]:
        sympy = pytest.importorskip("sympy")
        normalforms = pytest.importorskip("sympy.matrices.normalforms")
        facs = normalforms.invariant_factors(
            sympy.Matrix([list(r) for r in a.entries]), domain=sympy.ZZ)
        return [abs(int(d)) for d in facs if d != 0]

    def test_random_matrices(self):
        rng = random.Random(7)
        for _ in range(60):
            a = _random_matrix(rng, max_dim=6)
            if rng.random() < 0.3:
                # a product through a thin middle has zero factors
                k = rng.randrange(1, 3)
                b = IntMatrix.from_rows([[rng.randrange(-4, 5)
                                          for _ in range(a.cols)]
                                         for _ in range(k)])
                c = IntMatrix.from_rows([[rng.randrange(-4, 5)
                                          for _ in range(k)]
                                         for _ in range(a.rows)])
                a = c @ b
            assert smith_normal_form(a).invariant_factors() == \
                self._oracle(a)

    @pytest.mark.parametrize("p", [2, 3])
    def test_glued_lattice_matrix(self, p):
        # [P^T | diag p^i], the matrix of the surjectivity check
        z = build_Z(p)
        pt = z.integral_pairing.transpose()
        a = IntMatrix.from_rows(
            [list(pt.entries[k]) + [p ** (i + 1) if i == k else 0
                                    for i in range(16)]
             for k in range(16)])
        assert smith_normal_form(a).invariant_factors() == self._oracle(a)


def test_rational_field_laws():
    rng = random.Random(5)
    for _ in range(300):
        a, b, c = (Fraction(rng.randrange(-50, 51), rng.randrange(1, 30))
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert Fraction(a.numerator, a.denominator) == a
        assert gcd(a.numerator, a.denominator) == 1
