import random
from fractions import Fraction
from math import gcd

import pytest

from orbkit.exact import (
    IntMatrix,
    NotCoprime,
    PrimalityUnknown,
    factorize,
    mod_inverse,
    radical,
    radical_quotient,
    smith_normal_form,
)
from orbkit.surgery import build_Z


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


class TestDet:
    def test_zero_column_before_the_last_pivot(self):
        """Kills the mutant of IntMatrix.det that returns 1, not 0, when
        a column has no pivot: column 0 of [[0, 1], [0, 2]] has none,
        and its pivot search comes before the last one."""
        assert IntMatrix.from_rows([[0, 1], [0, 2]]).det() == 0
        assert IntMatrix.from_rows([[1, 2, 3], [2, 4, 5], [3, 6, 7]]).det() \
            == 0

    def test_a_swap_flips_the_sign(self):
        assert IntMatrix.from_rows([[0, 1], [1, 0]]).det() == -1
        assert IntMatrix.from_rows([[0, 2, 1], [3, 0, 0], [0, 0, 5]]).det() \
            == -30


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
            assert abs(snf.U.det()) == 1
            assert abs(snf.V.det()) == 1
            facs = snf.invariant_factors()
            for x, y in zip(facs, facs[1:]):
                assert y % x == 0 and x > 0

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
