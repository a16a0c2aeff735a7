import json
import os
import subprocess
import sys
import tracemalloc
from math import gcd, prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import letter_words
import orbkit
from letter_words import syllables
from orbkit import fpgroup
from orbkit.abelian import AbelianGroup
from orbkit.exact import IntMatrix, smith_normal_form
from orbkit.fpgroup import (
    Complete,
    Exhausted,
    NotApplicable,
    Presentation,
    _fixed_relators,
    _plan,
    abelianize,
    build_pi1_orb_presentation,
    commutator,
    coset_enumerate,
    cyclic_reduce,
    free_reduce,
    inverse_word,
    simply_connected_decision,
    tietze_simplify,
)


def _presentation(gens, *relators) -> Presentation:
    """The presentation on the generator names gens whose relators are
    these letter words, cyclically reduced."""
    return Presentation(tuple(gens), tuple(cyclic_reduce(syllables(r))
                                           for r in relators))


KLEIN4 = _presentation("xy", (1, 1), (2, 2), (1, 2, 1, 2))
S3 = _presentation("rs", (1, 1, 1), (2, 2), (2, 1, 2, 1))
Q8 = _presentation("ij", (1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1))
D4 = _presentation("rs", (1, 1, 1, 1), (2, 2), (2, 1, 2, 1))
A4 = _presentation("xy", (1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2))
FREE2 = _presentation("ab")


class TestWords:
    def test_free_reduce(self):
        assert free_reduce(((1, 1), (1, -1), (2, 1))) == ((2, 1),)
        assert free_reduce(((1, 1), (2, 1), (2, -1), (1, -1))) == ()
        assert free_reduce(((1, 1), (2, 1), (2, -1), (1, 1))) == ((1, 2),)

    def test_cyclic_reduce(self):
        assert cyclic_reduce(((1, 1), (2, 1), (1, -1))) == ((2, 1),)
        assert cyclic_reduce(((1, 1), (2, 1), (3, 1))) \
            == ((1, 1), (2, 1), (3, 1))

    def test_cyclic_reduce_long_conjugate(self):
        # u r u^-1 with |u| = 100,000: the ends are cut in one slice; cut
        # one pair at a time, this test took about a minute
        u = ((1, 1), (2, 1), (3, -1), (2, 1)) * 25_000
        core = ((3, 1), (1, 1), (3, 1), (2, -1))
        assert cyclic_reduce(u + core + inverse_word(u)) == core
        assert cyclic_reduce(((1, 100_000), (2, 1), (1, -100_000))) \
            == ((2, 1),)
        assert cyclic_reduce(((1, 100_000), (1, -100_000))) == ()

    def test_inverse(self):
        w = ((1, 1), (2, 1), (3, -1))
        assert inverse_word(w) == ((3, 1), (2, -1), (1, -1))
        assert free_reduce(w + inverse_word(w)) == ()

    def test_commutator_of_commuting_letters(self):
        assert commutator(((1, 1),), ((1, 1),)) == ()

    def test_out_of_range_relator(self):
        with pytest.raises(ValueError):
            Presentation(("a",), (((2, 1),),))

    @pytest.mark.parametrize("relators", [(((1, 1), (0, 1)),),
                                          (((1, 1),), ((1, 1), (2, -1)))])
    def test_each_out_of_range_letter_is_refused(self, relators):
        with pytest.raises(ValueError, match="out of range"):
            Presentation(("a",), relators)

    @pytest.mark.parametrize("bad", [0, 2, -2])
    def test_bad_letter_in_a_long_power_is_refused(self, bad):
        # the check reads the generator of every syllable, so it may not
        # miss one next to powers of 50,000
        k = 50_000
        for r in ((1,) * k + (bad,) + (1,) * k, (bad,) * (2 * k + 1)):
            with pytest.raises(ValueError, match="out of range"):
                Presentation(("a",), (syllables(r),))

    @pytest.mark.parametrize("r", [((1, 1), (2, 1), (3, 1), (1, -1)),
                                   ((3, 2), (2, -1)), ((3, -4),)])
    def test_prepared_word_is_checked_for_each_presentation(self, r):
        # the syllables' generators are checked against each presentation's
        # own count: a word in range for three generators is not for two
        assert Presentation(("a", "b", "c"), (r,)).relators == (r,)
        with pytest.raises(ValueError, match="out of range"):
            Presentation(("a", "b"), (r,))


def test_importing_fpgroup_loads_only_its_layers():
    # the pi1 certificate needs words, the SNF and the records, nothing
    # of the configuration layers
    src = Path(orbkit.__file__).resolve().parents[1]
    code = ("import sys, orbkit.fpgroup; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'orbkit'))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert out.stdout.split() == ["orbkit", "orbkit.abelian", "orbkit.exact",
                                  "orbkit.fpgroup", "orbkit.record"]


class TestAbelianize:
    def test_klein_four(self):
        assert abelianize(KLEIN4) == AbelianGroup(0, (2, 2))

    def test_cyclic_six(self):
        p = _presentation("a", (1,) * 6)
        assert abelianize(p) == AbelianGroup(0, (6,))

    def test_free_group(self):
        assert abelianize(FREE2) == AbelianGroup(rank=2)

    def test_perfect_quotient(self):
        # S3 abelianizes to Z_2, A4 to Z_3
        assert abelianize(S3) == AbelianGroup(0, (2,))
        assert abelianize(A4) == AbelianGroup(0, (3,))


@st.composite
def _mixed_presentations(draw, max_gens=4, identify=False):
    """Relators on 1 to max_gens generators: commutators, empty words,
    other words of exponent sum zero, powers, random words and repeats
    of earlier relators, not necessarily reduced; drawn as letters and
    written in syllables.  With identify, there are at least two
    generators, and one to three relators x^+-1 y^+-1 on two of them
    follow, which may join a pair twice."""
    n = draw(st.integers(2 if identify else 1, max_gens))
    letters = st.integers(1, n).flatmap(lambda g: st.sampled_from((g, -g)))
    words = st.lists(letters, max_size=5).map(tuple)
    rels: list[tuple] = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(
            ("commutator", "empty", "zero", "power", "word", "repeat")))
        if kind == "commutator":
            r = letter_words.commutator(draw(words), draw(words))
        elif kind == "empty":
            r = ()
        elif kind == "zero":  # w, then the inverses of its letters shuffled
            w = draw(words)
            r = w + tuple(-g for g in draw(st.permutations(w)))
        elif kind == "power":
            r = (draw(letters),) * draw(st.integers(1, 9))
        elif kind == "repeat" and rels:
            r = draw(st.sampled_from(rels))
        else:
            r = draw(words)
        rels.append(r)
    for _ in range(draw(st.integers(1, 3)) if identify else 0):
        x, y = draw(st.permutations(range(1, n + 1)))[:2]
        rels.append((draw(st.sampled_from((x, -x))),
                     draw(st.sampled_from((y, -y)))))
    return Presentation(tuple("abcd"[:n]), tuple(map(syllables, rels)))


def _with_and_without_identifications(max_gens=4):
    return st.one_of(_mixed_presentations(max_gens),
                     _mixed_presentations(max_gens, identify=True))


def _finite_closure(draw, pres: Presentation) -> Presentation:
    """pres with every commutator of generators and a power of each added:
    an abelian group of order at most 4^n, so enumeration completes."""
    n = len(pres.generators)
    powers = [((g, draw(st.integers(1, 4))),) for g in range(1, n + 1)]
    commutators = [commutator(((g, 1),), ((h, 1),))
                   for g in range(1, n + 1) for h in range(g + 1, n + 1)]
    return Presentation(pres.generators,
                        pres.relators + tuple(commutators + powers))


def _full_matrix_abelianization(pres: Presentation) -> AbelianGroup:
    """Z^n over the Smith normal form of every exponent-sum row, zero
    rows included."""
    n = len(pres.generators)
    if not pres.relators:
        return AbelianGroup(rank=n)
    rows = [[sum(e for g, e in r if g == h) for h in range(1, n + 1)]
            for r in pres.relators]
    factors = smith_normal_form(IntMatrix.from_rows(rows)).invariant_factors()
    return AbelianGroup(n - len(factors), tuple(d for d in factors if d > 1))


def _primary_invariants(group: AbelianGroup) -> list[int]:
    """The torsion as sorted prime powers, sympy's abelian_invariants form."""
    return sorted(p ** e for (p, e), count in group.primary_counts().items()
                  for _ in range(count))


GOLDENS = Path(__file__).parent / "goldens"


class TestAbelianizeDifferential:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(pres=_with_and_without_identifications())
    def test_equals_snf_of_full_exponent_matrix(self, pres):
        assert abelianize(pres) == _full_matrix_abelianization(pres)

    @pytest.mark.parametrize("golden, count",
                             [("coset_enumerate_random.json", 150),
                              ("coset_enumerate_identified.json", 160)])
    def test_equals_snf_of_full_exponent_matrix_on_coset_goldens(
            self, golden, count):
        # the identified golden joins generators in chains and in cycles,
        # and some pairs twice: the second relator on a pair joins nothing,
        # stays a relator and may fold to a row that is not zero
        cases = json.loads((GOLDENS / golden).read_text(encoding="utf-8"))
        assert len(cases) == count
        for case in cases:
            pres = Presentation(tuple(case["generators"]),
                                tuple(map(syllables, case["relators"])))
            assert abelianize(pres) == _full_matrix_abelianization(pres), case

    # sympy builds a permutation group first, which takes 0.3 to 2 s for a
    # group on three or four generators, so this draws at most two; its
    # FpGroup fails on a relator that reduces to the empty word, so those
    # are left out of its copy
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data(), pres=_with_and_without_identifications(2))
    def test_equals_sympy_abelian_invariants(self, data, pres):
        finite = _finite_closure(data.draw, pres)
        group = _sympy_group(Presentation(
            finite.generators,
            tuple(r for r in finite.relators if free_reduce(r))))
        ab = abelianize(finite)
        assert ab.rank == 0
        assert _primary_invariants(ab) == sorted(group.abelian_invariants())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data(), pres=_mixed_presentations())
    def test_conjugated_relators_enumerate_the_same_index(self, data, pres):
        finite = _finite_closure(data.draw, pres)
        letters = st.integers(1, len(finite.generators)).flatmap(
            lambda g: st.sampled_from((g, -g)))
        conjugates = []
        for r in finite.relators:
            u = syllables(data.draw(st.lists(letters, max_size=4)))
            conjugates.append(free_reduce(u + r + inverse_word(u)))
        conjugated = Presentation(finite.generators, tuple(conjugates))
        reduced = Presentation(finite.generators,
                               tuple(map(cyclic_reduce, finite.relators)))
        order = prod(abelianize(finite).invariant_factors)  # it is abelian
        assert coset_enumerate(conjugated).status \
            == coset_enumerate(reduced).status == Complete(order)


class TestTietze:
    def test_eliminates_defined_generator(self):
        # b is defined to equal a, so the group is cyclic on one generator
        p = _presentation("ab", (1, -2), (1,) * 4)
        out = tietze_simplify(p)
        assert len(out.generators) == 1
        assert abelianize(out) == AbelianGroup(0, (4,))

    def test_idempotent(self):
        once = tietze_simplify(KLEIN4)
        assert tietze_simplify(once) == once

    def test_preserves_abelianization(self):
        for p in (KLEIN4, S3, Q8, D4, A4):
            assert abelianize(tietze_simplify(p)) == abelianize(p)

    def test_drops_trivial_relators(self):
        p = Presentation(("a",), ((), ((1, 1), (1, -1))))
        assert tietze_simplify(p).relators == ()


class TestCosetEnumeration:
    def test_known_orders(self):
        for p, order in ((KLEIN4, 4), (S3, 6), (Q8, 8), (D4, 8), (A4, 12)):
            res = coset_enumerate(p)
            assert res.status == Complete(order)
            # every coset defined is either live or found equal to another
            assert res.defined - res.coincidences == order

    def test_free_group_exhausts(self):
        res = coset_enumerate(FREE2, max_cosets=100)
        assert res.status == Exhausted(100)
        assert not res.is_complete()
        assert res.defined == 100 and res.coincidences == 0

    def test_table_is_consistent_action(self):
        res = coset_enumerate(S3)
        seen = set()
        for row in res.table:
            for c in row:
                assert 0 <= c < 6
            seen.add(tuple(row))
        # columns are permutations: inverse columns undo each other
        for k, row in enumerate(res.table):
            for x in range(0, len(row), 2):
                assert res.table[row[x]][x + 1] == k

    def test_trivial_group(self):
        p = _presentation("a", (1,))
        assert coset_enumerate(p).status == Complete(1)

    @pytest.mark.parametrize("gens", [["a"], ["a", "b"]])
    def test_one_letter_relators_need_no_second_coset(self, gens):
        # each relator closes at coset 0, so a budget of one coset suffices
        p = _presentation(gens, *((g,) for g in range(1, len(gens) + 1)))
        res = coset_enumerate(p, max_cosets=1)
        assert res.status == Complete(1)
        assert res.defined == 1 and res.coincidences == 0

    # <a, b | a^(ms), a^(mt), b^n, [a, b]> with gcd(s, t) = 1 is
    # Z_m x Z_n.  The long power has up to 60,000 letters and is traced
    # round a's cycles; s stays small, since Felsch needs a chain of
    # m * min(s, t) cosets before the first a-cycle closes
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(m=st.integers(1, 12), n=st.integers(1, 12),
           s=st.integers(1, 12), t=st.integers(1, 5000),
           long_first=st.booleans())
    def test_long_powers_against_closed_form(self, m, n, s, t, long_first):
        assume(gcd(s, t) == 1)
        powers = (((1, m * s),), ((1, m * t),))
        pres = Presentation(("a", "b"), powers[::-1 if long_first else 1]
                            + (((2, n),), ((1, 1), (2, 1), (1, -1), (2, -1))))
        assert coset_enumerate(pres).status == Complete(m * n)


def _sympy_group(pres: Presentation):
    """sympy's FpGroup of pres.

    sympy enumerates cosets with its own code, so it is an independent
    oracle for coset_enumerate; the tests using it skip without sympy.
    """
    fp_groups = pytest.importorskip("sympy.combinatorics.fp_groups")
    free_groups = pytest.importorskip("sympy.combinatorics.free_groups")
    F, *gens = free_groups.free_group(" ".join(pres.generators))

    def word(w):
        out = F.identity
        for g, e in w:
            out *= gens[g - 1] ** e
        return out

    return fp_groups.FpGroup(F, [word(r) for r in pres.relators])


def _rotated(w: tuple, k: int, invert: bool) -> tuple:
    """Letter word w rotated by k letters, and inverted or not, in
    syllables."""
    k %= len(w)
    w = w[k:] + w[:k]
    return syllables(letter_words.inverse_word(w) if invert else w)


class TestSympyOracle:
    @pytest.mark.parametrize("pres", [KLEIN4, S3, Q8, D4, A4],
                             ids=["KLEIN4", "S3", "Q8", "D4", "A4"])
    def test_order(self, pres):
        group = _sympy_group(pres)
        assert coset_enumerate(pres).status.index == group.order()

    # <a | a^n> and <r, s | r^n, s^2, (sr)^2>, each relator rotated by
    # k letters and inverted or not
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), dihedral=st.booleans(),
           forms=st.lists(st.tuples(st.integers(0, 7), st.booleans()),
                          min_size=3, max_size=3))
    def test_small_cyclic_and_dihedral(self, n, dihedral, forms):
        words = [(1,) * n, (2, 2), (2, 1, 2, 1)] if dihedral else [(1,) * n]
        pres = Presentation(("r", "s") if dihedral else ("a",),
                            tuple(_rotated(w, k, invert)
                                  for w, (k, invert) in zip(words, forms)))
        group = _sympy_group(pres)
        assert coset_enumerate(pres).status.index == group.order() \
            == (2 * n if dihedral else n)


def _cycles(lists) -> list:
    """The cycles of a plan's items or conjugates as one list per column
    would hold them: (x, cycle, power), a word being w[i - 1..j], from
    the letter before the one its scan starts at, and a power x^n being
    (x, n)."""
    return [(x, w[i - 1:j + 1], False)
            for x, (words, powers) in enumerate(lists) for w, i, j in words] \
        + [(x, (x, n), True)
           for x, (words, powers) in enumerate(lists) for n in powers]


def _spell(names, w) -> str:
    return " ".join(names[g - 1] + ("" if e == 1 else f"^{e}") for g, e in w)


# the 45 relators of build_pi1_orb_presentation that do not depend on p
FIXED_RELATORS = [
    "g1 a g1^-1 a^-1",
    "g1 b g1^-1 b^-1",
    "g1 x1 g1^-1 x1^-1",
    "g1 y1 g1^-1 y1^-1",
    "g1 z1 g1^-1 z1^-1",
    "g1 x2 g1^-1 x2^-1",
    "g1 y2 g1^-1 y2^-1",
    "g1 z2 g1^-1 z2^-1",
    "g1 g2 g1^-1 g2^-1",
    "g1 U g1^-1 U^-1",
    "g2 a g2^-1 a^-1",
    "g2 b g2^-1 b^-1",
    "g2 x1 g2^-1 x1^-1",
    "g2 y1 g2^-1 y1^-1",
    "g2 z1 g2^-1 z1^-1",
    "g2 x2 g2^-1 x2^-1",
    "g2 y2 g2^-1 y2^-1",
    "g2 z2 g2^-1 z2^-1",
    "g2 g1 g2^-1 g1^-1",
    "g2 U g2^-1 U^-1",
    "U a U^-1 a^-1",
    "U b U^-1 b^-1",
    "U x1 U^-1 x1^-1",
    "U y1 U^-1 y1^-1",
    "U z1 U^-1 z1^-1",
    "U x2 U^-1 x2^-1",
    "U y2 U^-1 y2^-1",
    "U z2 U^-1 z2^-1",
    "U g1 U^-1 g1^-1",
    "U g2 U^-1 g2^-1",
    "a b a^-1 b^-1 U",
    "a b a^-1 b^-1 x2 y2 z2 g2^-2",
    "x1^2 g1^-1",
    "y1^2 g1^-1",
    "z1^2 g1^-1",
    "x2^2 g2^-1",
    "y2^2 g2^-1",
    "z2^2 g2^-1",
    "a b a^-1 b^-1 a b a^-1 b^-1 x1 y1 z1 g1^-1",
    "a y2 x2 g2^-2",
    "b x2 z2 g2^-2",
    "x1 x2^-1",
    "y1 y2^-1",
    "z1 z2^-1",
    "U^8 g1^5 g2^3",
]


class TestOrbifoldGroup:
    def test_p3_completes_with_small_index(self):
        pres = build_pi1_orb_presentation(3)
        res = coset_enumerate(pres, max_cosets=10000)
        assert res.is_complete()
        assert 4 % res.status.index == 0

    def test_p3_abelianization_is_elementary_two_group(self):
        ab = abelianize(build_pi1_orb_presentation(3))
        assert ab == AbelianGroup(0, (2, 2))

    def test_odd_prime_no_odd_torsion(self):
        for p in (3, 5, 7, 11, 13):
            pres = build_pi1_orb_presentation(p)
            assert abelianize(pres) == AbelianGroup(0, (2, 2))
            res = coset_enumerate(pres)
            assert res.status == Complete(4)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_every_prime_completes_within_64_cosets(self, p):
        res = coset_enumerate(build_pi1_orb_presentation(p), max_cosets=64)
        assert res.status == Complete(8 if p == 2 else 4)
        assert res.defined == {2: 37, 3: 41}.get(p, 42)

    def test_relators_not_depending_on_p(self):
        pres = build_pi1_orb_presentation(2)
        fixed = pres.relators[:-3]
        assert [_spell(pres.generators, r) for r in fixed] \
            == FIXED_RELATORS
        for p in (3, 5, 7, 11, 13):
            pres = build_pi1_orb_presentation(p)
            assert pres.relators[:-3] == fixed
            assert pres.relators[-3:] == (((9, p),), ((10, p ** 2),),
                                          ((11, p ** 3),))

    @pytest.mark.parametrize("p, letters",
                             [(2, 210), (3, 235), (5, 351), (7, 595)])
    def test_power_family_folds_to_its_first_member(self, p, letters):
        # U^(p^i) = (U^(p^3))^(p^(i-3)): one relator stands for the family,
        # so neither the group nor the letter count depends on max_power
        folded = build_pi1_orb_presentation(p, max_power=3)
        assert sum(abs(e) for r in folded.relators for _, e in r) == letters
        for k in range(4, 9):
            assert build_pi1_orb_presentation(p, max_power=k) == folded
        u_power = ((len(folded.generators), p ** 3),)
        assert build_pi1_orb_presentation(p, max_power=2).relators \
            == tuple(r for r in folded.relators if r != u_power)

    def test_no_relator_grows_with_p(self):
        # each torsion power is one syllable, so p = 97 writes as many
        # syllables per relator as p = 2
        def shape(p):
            return [len(r) for r in build_pi1_orb_presentation(p).relators]
        assert shape(97) == shape(2)

    def test_certificate_at_p97_stays_small(self):
        # build, abelianization and enumeration from cold caches; a
        # certificate that spelled U^(p^3) out held 7 MiB at once
        _plan.cache_clear()
        _fixed_relators.cache_clear()
        tracemalloc.start()
        try:
            pres = build_pi1_orb_presentation(97)
            assert abelianize(pres) == AbelianGroup(0, (2, 2))
            assert coset_enumerate(pres).status == Complete(4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_plan_fills_the_columns_no_relator_identifies(self):
        # x2 = x1, y2 = y1 and z2 = z1 are relators, so the table fills 16
        # of the 22 columns; [g1,g2], [g1,U] and [g2,U] are each stated
        # twice, once inverted, and each is scanned once
        pres = build_pi1_orb_presentation(3)
        names = pres.generators
        width, columns, items, conjugates, checks, _ = _plan(
            len(names), pres.relators)
        assert width == len(set(columns)) == 16
        for first, second in (("x1", "x2"), ("y1", "y2"), ("z1", "z2")):
            g, h = names.index(first), names.index(second)
            assert columns[2 * h:2 * h + 2] == columns[2 * g:2 * g + 2]
        assert len(checks) == len(pres.relators) == 48
        assert len(_cycles(items)) == 33
        assert len(_cycles(conjugates)) == 145

        def spelled(w):
            return tuple(columns[2 * g - 2 + (e < 0)]
                         for g, e in w for _ in range(abs(e)))

        def rotations(w):
            return {w[s:] + w[:s] for s in range(len(w))}

        for first, second in (("g1", "g2"), ("g1", "U"), ("g2", "U")):
            word = commutator(((names.index(first) + 1, 1),),
                              ((names.index(second) + 1, 1),))
            both = (rotations(spelled(word))
                    | rotations(spelled(inverse_word(word))))
            assert sum(spelled(r) in both for r in pres.relators) == 2
            assert sum(w in both for _, w, power in _cycles(items)
                       if not power) == 1
            assert sum(w in both for _, w, power in _cycles(conjugates)
                       if not power) == 4

    @pytest.mark.parametrize("p", [2, 3, 97])
    def test_plan_lists_each_cycle_once_under_its_first_letter(self, p):
        # every word in column x's lists, read from one letter before
        # where the scan starts it, starts with x; and the words and
        # powers together are the cycles of the relators that do not
        # identify two generators, each once up to the same cycle read
        # backwards (from coset 0, or through the same edge)
        pres = build_pi1_orb_presentation(p)
        width, columns, items, conjugates, _, _ = _plan(
            len(pres.generators), pres.relators)
        for lists in (items, conjugates):
            assert len(lists) == width
            for x, (words, powers) in enumerate(lists):
                assert all(w[i - 1] == x and i <= j for w, i, j in words)
                assert all(n > 0 for n in powers)

        def inverse(w):
            return tuple(x ^ 1 for x in reversed(w))

        powers, words = set(), set()
        for r in pres.relators:  # each written cyclically reduced
            if len(r) == 1:
                (g, e), = r
                powers.add((columns[2 * g - 2 + (e < 0)], abs(e)))
                continue
            w = tuple(columns[2 * g - 2 + (e < 0)]
                      for g, e in r for _ in range(abs(e)))
            if w != (w[0], w[0] ^ 1):  # x1 x2^-1 reads x1 x1^-1
                words.add(w)
        # 42 words, 9 of them a commutator that reads another's columns
        assert len(powers) == 3 and len(words) == 33

        def once(cycles, back, want):
            kept = [w for _, w, power in cycles if not power]
            seen = set(kept) | {back(w) for w in kept}
            assert len(seen) == 2 * len(kept)
            assert seen == want

        once(_cycles(items), inverse, words | {inverse(w) for w in words})
        once(_cycles(conjugates),
             lambda w: (w[0] ^ 1,) + inverse(w[1:]),
             {w[s:] + w[:s] for v in words for w in (v, inverse(v))
              for s in range(len(w))})
        for cycles in (_cycles(items), _cycles(conjugates)):
            kept = [w for _, w, power in cycles if power]
            assert len(kept) == len(powers)
            assert set(kept) | {(x ^ 1, n) for x, n in kept} \
                == powers | {(x ^ 1, n) for x, n in powers}

    @pytest.mark.parametrize("p", [2, 3, 13, 97])
    def test_abelianization_reduces_the_classes_the_plan_joins(self, p):
        # of the 18 relators with a nonzero exponent sum, x1 x2^-1,
        # y1 y2^-1 and z1 z2^-1 vanish once x2, y2 and z2 read x1, y1 and
        # z1, so the Smith normal form is of 15 rows over 8 classes
        with mock.patch.object(fpgroup, "smith_normal_form",
                               wraps=smith_normal_form) as snf:
            ab = abelianize(build_pi1_orb_presentation(p))
        (a,), _ = snf.call_args
        assert snf.call_count == 1
        assert (a.rows, a.cols) == (15, 8)
        assert ab == AbelianGroup(0, (2, 2))

    def test_enumeration_matches_abelianization_order(self):
        # the finite group surjects onto its abelianization, so the
        # certified order is a multiple of the abelianization's: a table
        # that collapsed too far, which the replay cannot see, fails here
        for p in (2, 3, 5, 7):
            pres = build_pi1_orb_presentation(p)
            res = coset_enumerate(pres, max_cosets=10000)
            ab = abelianize(pres)
            assert ab.rank == 0
            assert res.status.index % prod(ab.invariant_factors) == 0

    def test_simply_connected_decision(self):
        pres = build_pi1_orb_presentation(3)
        res = coset_enumerate(pres, max_cosets=10000)
        assert simply_connected_decision(res, h1_zero=True) is True
        assert simply_connected_decision(res, h1_zero=False) is False

    def test_decision_refuses_incomplete(self):
        from orbkit.fpgroup import CosetTable
        with pytest.raises(NotApplicable):
            simply_connected_decision(CosetTable(Exhausted(100)), True)

    def test_decision_refuses_large_index(self):
        from orbkit.fpgroup import CosetTable
        with pytest.raises(NotApplicable):
            simply_connected_decision(CosetTable(Complete(3)), True)
