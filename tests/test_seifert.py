import itertools
import random
from fractions import Fraction

import pytest

from orbkit import seifert
from orbkit.exact import IntMatrix
from orbkit.model import OrbifoldConfig, SurfaceData
from orbkit.record import replace
from orbkit.seifert import (
    H1NotZero,
    Lattice,
    MissingIntegralPairing,
    NonIntegralEntry,
    RationalClass,
    SeifertSpec,
    chern_class,
    compute_b_residues,
    h1_zero_decision,
    h2_of_M,
    is_primitive,
    scaled_chern_class,
    search_background_class,
    surface_class,
    total_multiplicity,
)
from orbkit.spin import smale_barden_report, spin_decision
from orbkit.surgery import build_block_Y, build_Z

# the integral pairing that block_Y is given, where one is needed
IDENTITY_6 = IntMatrix.from_rows([[int(i == k) for i in range(6)]
                                  for k in range(6)])


def _glued_spec(p=3, c1B=None):
    z = build_Z(p)
    return SeifertSpec(z, compute_b_residues(z),
                       tuple(c1B) if c1B else (0,) * 16)


def _disjoint_config(mults, pairing_rows, genus=None):
    return OrbifoldConfig(
        tuple(SurfaceData(f"D{k}", genus[k] if genus else 1, multiplicity=m,
                          local_j=1 if m > 1 else 0,
                          qclass=tuple(Fraction(1 if i == k else 0)
                                       for i in range(len(pairing_rows))))
              for k, m in enumerate(mults)),
        b1=0, b2=len(pairing_rows),
        integral_pairing=IntMatrix.from_rows(pairing_rows))


class TestResidues:
    def test_examples(self):
        cfg = _disjoint_config([3], [[1]])
        assert compute_b_residues(cfg) == {"D0": 1}
        cfg = replace(cfg, surfaces=(
            replace(cfg.surface("D0"), multiplicity=9, local_j=2),))
        assert compute_b_residues(cfg) == {"D0": 5}

    def test_glued_b16(self):
        z = build_Z(3)
        assert compute_b_residues(z)["V16"] == 1

    def test_multiplicity_one_omitted(self):
        cfg = _disjoint_config([1, 3], [[1, 0], [0, 1]])
        assert set(compute_b_residues(cfg)) == {"D1"}


class TestChernClass:
    def test_linearity_example(self):
        cfg = replace(_disjoint_config([3], [[1], [0]][:1]), b2=1)
        spec = SeifertSpec(cfg, {"D0": 1}, (0,))
        assert chern_class(spec).entries == (Fraction(1, 3),)

    def test_background_shift(self):
        cfg = _disjoint_config([3], [[1]])
        spec = SeifertSpec(cfg, {"D0": 1}, (2,))
        assert chern_class(spec).entries == (Fraction(7, 3),)

    def test_scaled_class_is_integral(self):
        for p in (2, 3, 5):
            spec = _glued_spec(p)
            sc = scaled_chern_class(spec)
            assert all(type(x) is int for x in sc.entries)
            m = total_multiplicity(spec.base)
            assert sc.entries == tuple(m * x
                                       for x in chern_class(spec).entries)

    def test_surface_class_is_the_integer_column(self):
        z = build_Z(3)
        for i, s in enumerate(z.surfaces):
            col = surface_class(z, s.id)
            assert all(type(x) is int for x in col)
            assert col == tuple(z.integral_pairing.entries[r][i]
                                for r in range(z.integral_pairing.rows))
        with pytest.raises(ValueError):
            surface_class(z, "no such surface")

    def test_glued_unit_entry(self):
        spec = _glued_spec(3)
        m = total_multiplicity(spec.base)
        assert m == 3 ** 16
        assert scaled_chern_class(spec).integer_entries()[-1] == 1

    def test_total_multiplicity_of_no_surfaces_is_one(self):
        """Kills the mutant of total_multiplicity that reads `else 2`
        for `else 1`: a configuration tracking no surface has m = 1."""
        assert total_multiplicity(OrbifoldConfig(())) == 1

    def test_missing_pairing(self):
        cfg = replace(_disjoint_config([3], [[1]]), integral_pairing=None)
        with pytest.raises(MissingIntegralPairing):
            chern_class(SeifertSpec(cfg, {"D0": 1}, (0,)))


class TestPrimitivity:
    def test_gcd_two(self):
        assert not is_primitive(RationalClass(
            tuple(Fraction(x) for x in (2, 4, 6))))

    def test_unit_vector(self):
        assert is_primitive(RationalClass(
            tuple(Fraction(x) for x in (1, 0, 0))))

    def test_zero_vector(self):
        assert not is_primitive(RationalClass((Fraction(0),) * 3))

    def test_non_integral(self):
        with pytest.raises(NonIntegralEntry):
            is_primitive(RationalClass((Fraction(1, 2),)))

    def test_invariant_under_unimodular_basis_change(self):
        rng = random.Random(11)
        z = build_Z(3)
        base_spec = SeifertSpec(z, compute_b_residues(z), (0,) * 16)
        want = is_primitive(scaled_chern_class(base_spec))
        for _ in range(10):
            # random unimodular change of the integral basis
            u = [[1 if i == j else 0 for j in range(16)] for i in range(16)]
            for _ in range(25):
                i, j = rng.randrange(16), rng.randrange(16)
                if i != j:
                    q = rng.choice((-2, -1, 1, 2))
                    for k in range(16):
                        u[i][k] += q * u[j][k]
            conj = replace(z, integral_pairing=(IntMatrix.from_rows(u)
                                                @ z.integral_pairing))
            spec = SeifertSpec(conj, compute_b_residues(conj), (0,) * 16)
            assert is_primitive(scaled_chern_class(spec)) == want


def _brute_force_surjective(cfg):
    """Enumerate the image subgroup of the product of Z_m's."""
    iso = [s for s in cfg.surfaces if s.multiplicity > 1]
    mods = [s.multiplicity for s in iso]
    all_ids = [s.id for s in cfg.surfaces]
    P = cfg.integral_pairing
    gens = []
    for r in range(P.rows):
        gens.append(tuple(P.entries[r][all_ids.index(s.id)] % s.multiplicity
                          for s in iso))
    reached = {tuple([0] * len(iso))}
    frontier = [tuple([0] * len(iso))]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = tuple((c + d) % m for c, d, m in zip(cur, g, mods))
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    total = 1
    for m in mods:
        total *= m
    return len(reached) == total


class TestSurjectivity:
    def test_generator_hits(self):
        cfg = _disjoint_config([3], [[1]])
        assert Lattice.of(cfg).surjective

    def test_zero_pairings(self):
        cfg = _disjoint_config([3], [[3]])
        assert not Lattice.of(cfg).surjective

    def test_two_surfaces(self):
        cfg = _disjoint_config([2, 4], [[1, 0], [0, 1]])
        assert Lattice.of(cfg).surjective

    def test_no_isotropy(self):
        cfg = _disjoint_config([1], [[1]])
        assert Lattice.of(cfg).surjective

    def test_agrees_with_brute_force(self):
        rng = random.Random(77)
        cases = 0
        while cases < 40:
            n = rng.randrange(1, 4)
            mults = [rng.choice((2, 3, 4, 5, 6, 8, 9)) for _ in range(n)]
            prod = 1
            for m in mults:
                prod *= m
            if prod > 10**4:
                continue
            b2 = rng.randrange(1, 4)
            rows = [[rng.randrange(-4, 5) for _ in range(n)]
                    for _ in range(b2)]
            cfg = replace(_disjoint_config(mults, rows), b2=b2)
            assert (Lattice.of(cfg).surjective
                    == _brute_force_surjective(cfg))
            cases += 1


class TestH1H2:
    def test_glued_spec_holds(self):
        dec = h1_zero_decision(_glued_spec(3))
        assert dec.holds and dec.b1_zero and dec.surjective and dec.primitive

    def test_doubled_class_not_primitive(self):
        z = build_Z(3)
        res = compute_b_residues(z)
        base = scaled_chern_class(SeifertSpec(z, res, (0,) * 16))
        doubled = RationalClass(tuple(2 * x for x in base.entries))
        assert not is_primitive(doubled)

    def test_block_Y_fails_b1(self):
        y = replace(build_block_Y(), integral_pairing=IDENTITY_6)
        spec = SeifertSpec(y, compute_b_residues(y), (0,) * 6)
        dec = h1_zero_decision(spec)
        assert not dec.b1_zero and not dec.holds

    def test_h1_decided_once_per_spec(self, monkeypatch):
        made = []

        class Counting(seifert.H1Decision):
            def __init__(self, *args, **kwargs):
                made.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(seifert, "H1Decision", Counting)
        spec = _glued_spec(3)
        dec = h1_zero_decision(spec)
        verdicts = [spin_decision(spec, {"a1": a1, "a2": a2})
                    for a1 in (0, 1) for a2 in (0, 1)]
        h2_of_M(spec)
        smale_barden_report(spec, verdicts[0])
        assert len(made) == 1
        assert h1_zero_decision(spec) is dec and dec.holds

    def test_h1_primitivity_is_the_lattice_test(self):
        from orbkit.seifert import _graded_vectors
        # m c1(M) = 2 c1(B) + 1: primitive at c1(B) = 0, -1 only
        lattice = Lattice.of(_disjoint_config([2], [[1]]))
        seen = set()
        for c1B in _graded_vectors(1, max_l1=2):
            spec = lattice.spec(c1B)
            want = is_primitive(scaled_chern_class(spec))
            assert lattice.primitive(c1B) == want
            assert h1_zero_decision(spec).primitive == want
            seen.add(want)
        assert seen == {True, False}

    def test_h2_of_glued_spec(self):
        h2 = h2_of_M(_glued_spec(3))
        assert h2.rank == 15
        genus = [2] + [1] * 13 + [2, 2]
        want = {}
        for i, g in enumerate(genus, start=1):
            want[(3, i)] = 2 * g
        assert h2.primary_counts() == want

    def test_h2_rank_is_b2_minus_one(self):
        for p in (2, 3, 5):
            assert h2_of_M(_glued_spec(p)).rank == 15

    def test_h2_requires_h1_zero(self):
        y = replace(build_block_Y(), integral_pairing=IDENTITY_6)
        with pytest.raises(H1NotZero):
            h2_of_M(SeifertSpec(y, compute_b_residues(y), (0,) * 6))

    def test_genus_zero_no_torsion(self):
        cfg = _disjoint_config([4], [[1]], genus=[0])
        spec = SeifertSpec(cfg, {"D0": 1}, (0,))
        h2 = h2_of_M(spec)
        assert h2.invariant_factors == ()

    def test_genus_two_m4(self):
        cfg = _disjoint_config([4], [[1]], genus=[2])
        h2 = h2_of_M(SeifertSpec(cfg, {"D0": 1}, (0,)))
        assert h2.primary_counts() == {(2, 2): 4}


def _search(lattice, accept):
    """The one-key walk: the spec of the first class accept admits."""
    found = search_background_class(
        lattice, ["only"], lambda spec, key: accept(spec))
    return None if found is None else found[0]


def _any(spec):
    return True


class TestSearch:
    def test_glued_search_succeeds(self):
        z = build_Z(3)
        spec = _search(Lattice.of(z), _any)
        assert h1_zero_decision(spec).holds

    def test_parity_excluded(self):
        z = build_Z(3)
        alpha = (1,) * 16
        spec = _search(Lattice.of(z), lambda spec: any(
            (c - a) % 2 for c, a in zip(spec.c1B, alpha)))
        assert any((c - a) % 2 for c, a in zip(spec.c1B, alpha))

    def test_impossible_constraint(self, monkeypatch):
        z = build_Z(3)
        # at MAX_L1 = 0 the only candidate is the zero vector
        monkeypatch.setattr(seifert, "MAX_L1", 0)
        assert _search(
            Lattice.of(z), lambda spec: any(c % 2 for c in spec.c1B)) is None

    def test_an_exhausted_walk_stops_at_norm_two(self):
        """Kills the mutant MAX_L1 = 3, which changes no glued_Z report
        (test_a_larger_search_bound_changes_no_glued_report): a search
        that nothing serves offers each primitive class of L1 norm at
        most 2 once, and no class of norm 3."""
        lattice = Lattice.of(build_Z(3))
        offered = []
        assert _search(lattice, offered.append) is None

        def unit(i, x):
            return tuple(x if k == i else 0 for k in range(16))

        # norm 0, 1 and 2: 0, +-e_i, +-2e_i and +-e_i +- e_j
        norm_two = {(0,) * 16} | {
            unit(i, x) for i in range(16) for x in (-2, -1, 1, 2)} | {
            tuple(a + b for a, b in zip(unit(i, x), unit(j, y)))
            for i, j in itertools.combinations(range(16), 2)
            for x in (-1, 1) for y in (-1, 1)}
        assert len(norm_two) == 545
        offered = [spec.c1B for spec in offered]
        assert len(set(offered)) == len(offered)
        assert set(offered) == {c for c in norm_two if lattice.primitive(c)}

    def test_deterministic_first_hit(self):
        z = build_Z(3)
        a = _search(Lattice.of(z), _any)
        b = _search(Lattice.of(z), _any)
        assert a.c1B == b.c1B

    def test_one_lattice_and_one_snf_per_search(self, monkeypatch):
        z = build_Z(3)
        snf_calls, seen = [], []
        snf = seifert.smith_normal_form
        monkeypatch.setattr(seifert, "smith_normal_form",
                            lambda A: snf_calls.append(A) or snf(A))

        def accept(spec):
            seen.append(spec)
            return len(seen) == 3

        lattice = Lattice.of(z)
        spec = _search(lattice, accept)
        assert spec is seen[-1] and spec.lattice is lattice
        assert all(asked.lattice is lattice for asked in seen)
        assert _search(lattice, lambda spec: False) is None
        assert len(snf_calls) == 1  # 545 more candidates, no further SNF
        for asked in seen:  # accept is asked about primitive classes only
            assert is_primitive(scaled_chern_class(
                SeifertSpec(z, compute_b_residues(z), asked.c1B)))

    def test_one_walk_serves_every_key(self):
        # each key gets, in the order of wanted, the class its own one-key
        # walk finds, and a key no class serves leaves the whole walk None
        lattice = Lattice.of(build_Z(3))
        tests = {"second": lambda spec: spec.c1B[1] < 0, "any": _any,
                 "odd": lambda spec: any(c % 2 for c in spec.c1B)}
        found = search_background_class(
            lattice, list(tests), lambda spec, key: tests[key](spec))
        assert [spec.c1B for spec in found] == [
            _search(lattice, accept).c1B for accept in tests.values()]
        assert len({spec.c1B for spec in found}) == 3
        assert search_background_class(
            lattice, ["any", "never"],
            lambda spec, key: key == "any") is None


def test_graded_enumeration_order():
    from orbkit.seifert import _graded_vectors
    seq = list(_graded_vectors(2, max_l1=2))
    assert seq[0] == (0, 0)
    norms = [abs(x) + abs(y) for x, y in seq]
    assert norms == sorted(norms)
    assert len(seq) == len(set(seq)) == 1 + 4 + 8


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_graded_vectors_match_a_brute_force_list(dim, k):
    # every vector of [-k, k]^dim with L1 norm <= k, sorted by (norm,
    # tuple): the walk's order, lex part included, from first principles
    from orbkit.seifert import _graded_vectors
    box = itertools.product(range(-k, k + 1), repeat=dim)
    want = sorted((v for v in box if sum(map(abs, v)) <= k),
                  key=lambda v: (sum(map(abs, v)), v))
    assert list(_graded_vectors(dim, k)) == want
