"""Z/2 linear algebra, the spin decision and the background-class walk
against a tuple oracle.

orbkit holds a Z/2 vector as an int, bit r holding coordinate r.  The
oracle here holds it as a tuple of 0/1 and shares no code with
orbkit.seifert, orbkit.spin or orbkit.report: it reads the
configuration's records and works the spin decision out from the
definitions, H_1 = 0 included, and finds each spin assignment's
background class by brute force.  Every system and configuration is
drawn from a seeded generator.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod

import pytest

from orbkit import seifert
from orbkit.exact import IntMatrix
from orbkit.model import OrbifoldConfig, SingularPointData, SurfaceData
from orbkit.report import run_pipeline
from orbkit.scenario import Scenario, SeifertRequest
from orbkit.seifert import (
    H1NotZero,
    Lattice,
    SeifertSpec,
    UnresolvedUnknown,
    _echelon,
    _mod2,
    _reduce,
)
from orbkit.spin import spin_decision, spin_sweep
from orbkit.surgery import build_Z

# -- the tuple oracle ---------------------------------------------------


def _xor(a, b):
    return tuple(x ^ y for x, y in zip(a, b))


def _reduce_t(pivots, v):
    for col, pv in pivots:
        if v[col]:
            v = _xor(v, pv)
    return tuple(v)


def _echelon_t(vectors):
    """(leading column, row) pairs of an echelon basis of the Z/2 span."""
    pivots = []
    for v in vectors:
        v = _reduce_t(pivots, v)
        if any(v):
            pivots.append((v.index(1), v))
    return pivots


def in_span_mod2(vectors, target):
    """Gaussian elimination membership test over Z/2."""
    return not any(_reduce_t(_echelon_t(vectors), target))


def _mod2_t(vec):
    return tuple(x % 2 for x in vec)


def _to_int(bits):
    return sum(b << r for r, b in enumerate(bits))


def _surjective(mods, gens):
    """Do the vectors gens generate the group of residues mod mods?"""
    seen = {(0,) * len(mods)}
    todo = list(seen)
    while todo:
        v = todo.pop()
        for g in gens:
            w = tuple((x + y) % q for x, y, q in zip(v, g, mods))
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == prod(mods)


def oracle_unknowns(cfg):
    """The names of w2's unknowns: a1, a2, ... for the surfaces through
    singular points, in listing order."""
    through = [s for s in cfg.surfaces
               if any(s.id in p.incident for p in cfg.points)]
    return [f"a{k}" for k in range(1, len(through) + 1)]


def _oracle_lattice(cfg):
    """(pairing columns by surface id, isotropy surfaces, residues b_i)."""
    P = cfg.integral_pairing.entries
    col = {s.id: tuple(row[i] for row in P)
           for i, s in enumerate(cfg.surfaces)}
    iso = [s for s in cfg.surfaces if s.multiplicity > 1]
    return col, iso, {s.id: pow(s.local_j, -1, s.multiplicity) for s in iso}


def oracle_primitive(cfg, c1B):
    """Is m c1(B) + sum_i (m/m_i) b_i [D_i] primitive, m the lcm of the
    multiplicities?"""
    col, iso, b = _oracle_lattice(cfg)
    m = lcm(*(s.multiplicity for s in cfg.surfaces))
    return gcd(*(m * c + sum(m // s.multiplicity * b[s.id] * col[s.id][r]
                             for s in iso)
                 for r, c in enumerate(c1B))) == 1


def oracle_spin(cfg, c1B, assignment):
    """None when H_1 of the total space is not 0, else whether it is
    spin for the given 0/1 values of w2's unknowns."""
    col, iso, b = _oracle_lattice(cfg)
    mods = [s.multiplicity for s in iso]
    gens = [tuple(col[s.id][r] % s.multiplicity for s in iso)
            for r in range(cfg.integral_pairing.rows)]
    if (cfg.b1 != 0 or not _surjective(mods, gens)
            or not oracle_primitive(cfg, c1B)):
        return None
    w2 = (0,) * cfg.integral_pairing.rows
    k = 0
    for s in cfg.surfaces:
        if any(s.id in p.incident for p in cfg.points):
            k += 1
            if assignment[f"a{k}"]:
                w2 = _xor(w2, _mod2_t(col[s.id]))
        elif s.self_intersection % 2:
            w2 = _xor(w2, _mod2_t(col[s.id]))
    twist = _mod2_t(c1B)
    for s in iso:
        if b[s.id] % 2:
            twist = _xor(twist, _mod2_t(col[s.id]))
    even = [_mod2_t(col[s.id]) for s in iso if s.multiplicity % 2 == 0]
    return in_span_mod2(even or [twist], _xor(w2, twist))


def oracle_walk(cfg, want):
    """{sorted (name, bit) pairs: c1B}, giving each 0/1 assignment of w2's
    unknowns the first class, by (L1 norm, lex) among the primitive ones
    of norm at most MAX_L1, that gives the spin type want asks for (True
    spin, False nonspin, None either) or fails H_1 = 0; None when some
    assignment has no such class."""
    bound = seifert.MAX_L1
    candidates = sorted(
        (c for c in product(range(-bound, bound + 1), repeat=cfg.b2)
         if sum(map(abs, c)) <= bound and oracle_primitive(cfg, c)),
        key=lambda c: (sum(map(abs, c)), c))
    names = oracle_unknowns(cfg)
    out = {}
    for bits in product((0, 1), repeat=len(names)):
        assignment = dict(zip(names, bits))
        out[tuple(sorted(assignment.items()))] = hit = next(
            (c for c in candidates if want is None
             or oracle_spin(cfg, c, assignment) in (None, want)), None)
        if hit is None:
            return None
    return out


# -- random inputs ------------------------------------------------------


def _random_system(rng):
    """(rows, target): 0/1 tuples of 0-20 coordinates, the rows drawn
    from a basis of low rank, with zero rows and duplicates."""
    n = rng.randint(0, 20)
    basis = [tuple(rng.randint(0, 1) for _ in range(n))
             for _ in range(rng.randint(0, min(n, 6)))]

    def combination():
        v = (0,) * n
        for row in basis:
            if rng.randint(0, 1):
                v = _xor(v, row)
        return v

    rows = []
    for _ in range(rng.randint(0, 8)):
        pick = rng.random()
        if pick < 0.15:
            rows.append((0,) * n)
        elif pick < 0.3 and rows:
            rows.append(rng.choice(rows))
        else:
            rows.append(combination())
    if rng.randint(0, 1):
        return rows, combination()
    return rows, tuple(rng.randint(0, 1) for _ in range(n))


EVEN, ODD = (2, 4, 6), (3, 5, 9)


def _random_config(rng, mixed):
    """A small configuration with an integral pairing; mixed puts an
    even and an odd multiplicity on its first two surfaces, otherwise
    every multiplicity is odd."""
    n, k = rng.randint(1, 4), rng.randint(2, 4)
    firsts = [rng.choice(EVEN), rng.choice(ODD)] if mixed else []
    surfaces, points = [], []
    for i in range(k):
        if i < len(firsts):
            mult = firsts[i]
        else:
            mult = rng.choice((1,) + (EVEN + ODD if mixed else ODD))
        units = [j for j in range(1, mult) if gcd(j, mult) == 1]
        surfaces.append(SurfaceData(
            f"S{i}", 0, mult, rng.choice(units) if units else 0,
            Fraction(rng.randint(-4, 4)), (Fraction(0),) * n))
        if rng.random() < 0.35:
            points.append(SingularPointData(f"x{i}", 2, (1, 1), (f"S{i}",)))
    return OrbifoldConfig(
        tuple(surfaces), tuple(points), b1=0, b2=n,
        integral_pairing=IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]))


def _unknowns_config(rng, k, n):
    """k surfaces, each through a singular point, so w2 has k unknowns:
    one of even and one of odd multiplicity, the others plain."""
    mults = [rng.choice(EVEN), rng.choice(ODD)] + [1] * (k - 2)
    surfaces = tuple(
        SurfaceData(f"S{i}", 0, mult,
                    rng.choice([j for j in range(1, mult) if gcd(j, mult) == 1]
                               or [0]),
                    Fraction(rng.randint(-4, 4)), (Fraction(0),) * n)
        for i, mult in enumerate(mults))
    return OrbifoldConfig(
        surfaces,
        tuple(SingularPointData(f"x{i}", 2, (1, 1), (f"S{i}",))
              for i in range(k)),
        b1=0, b2=n, integral_pairing=IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)]))


# -- the tests ----------------------------------------------------------


def test_mod2_rows():
    rng = random.Random(1)
    for _ in range(500):
        vec = [rng.randint(-9, 9) for _ in range(rng.randint(0, 20))]
        assert _mod2(vec) == _to_int(_mod2_t(vec))


def test_echelon_and_membership_against_tuples():
    rng = random.Random(2)
    in_span = 0
    for _ in range(2500):
        rows, target = _random_system(rng)
        pivots = _echelon([_to_int(v) for v in rows])
        assert len(pivots) == len(_echelon_t(rows))  # the rank
        assert len({bit for bit, _ in pivots}) == len(pivots)
        assert all(bit == row.bit_length() - 1 for bit, row in pivots)
        assert all(not _reduce(pivots, _to_int(v)) for v in rows)
        member = not _reduce(pivots, _to_int(target))
        assert member == in_span_mod2(rows, target)
        in_span += member
    assert 500 < in_span < 2000  # both answers are exercised


@pytest.mark.parametrize("mixed", [True, False],
                         ids=["even_and_odd", "all_odd"])
def test_spin_decision_against_oracle(mixed):
    rng = random.Random(3 if mixed else 4)
    verdicts = []
    for _ in range(120):
        cfg = _random_config(rng, mixed)
        names = oracle_unknowns(cfg)
        residues = {s.id: pow(s.local_j, -1, s.multiplicity)
                    for s in cfg.surfaces if s.multiplicity > 1}
        for _ in range(4):
            c1B = tuple(rng.randint(-2, 2) for _ in range(cfg.b2))
            spec = SeifertSpec(cfg, residues, c1B)
            if oracle_spin(cfg, c1B, dict.fromkeys(names, 0)) is None:
                with pytest.raises(H1NotZero):
                    spin_decision(spec, {})
                continue
            if names:
                with pytest.raises(UnresolvedUnknown):
                    spin_decision(spec, {})
            sweep = spin_sweep(spec)
            for bits in product((0, 1), repeat=len(names)):
                assignment = dict(zip(names, bits))
                want = oracle_spin(cfg, c1B, assignment)
                assert spin_decision(spec, assignment) is want
                assert sweep[tuple(sorted(assignment.items()))] is want
                verdicts.append(want)
    # enough configurations pass H_1 = 0, with both verdicts among them
    assert len(verdicts) > 200
    assert 0.1 < sum(verdicts) / len(verdicts) < 0.9


def test_spin_decision_makes_no_echelon_call(monkeypatch):
    calls = []
    echelon = seifert._echelon

    def counted(rows):
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(seifert, "_echelon", counted)
    mixed = _random_config(random.Random(5), mixed=True)
    decisions = 0
    for cfg, c1Bs in ((build_Z(2), [(0,) * 16]), (build_Z(3), [(0,) * 16]),
                      (mixed, product((-1, 0, 1), repeat=mixed.b2))):
        lattice = Lattice.of(cfg)
        built = len(calls)
        for c1B in c1Bs:
            spec = lattice.spec(c1B)
            if spec.h1.holds:
                decisions += len(spin_sweep(spec))
        assert len(calls) == built
    assert decisions > 8
    # the even-multiplicity lattices each echeloned their kernel once
    assert len(calls) == 2


def test_one_walk_against_the_brute_force_oracle(monkeypatch):
    # the pipeline's one walk gives each assignment the first class the
    # oracle accepts, and leaves the whole walk None when one has none
    walks = []
    walk = seifert.search_background_class

    def recorded(lattice, wanted, serves):
        walks.append((wanted, walk(lattice, wanted, serves)))
        return walks[-1][1]

    monkeypatch.setattr(seifert, "search_background_class", recorded)
    configs = [_random_config(rng, mixed)
               for rng, mixed in ((random.Random(6), True),
                                  (random.Random(7), False))
               for _ in range(40)]
    configs.append(_unknowns_config(random.Random(1), 9, 4))
    assert max(len(oracle_unknowns(cfg)) for cfg in configs) == 9
    outcomes = []
    for cfg in configs:
        for want, target in ((None, "any"), (True, "spin"),
                             (False, "nonspin")):
            walks.clear()
            rep = run_pipeline(Scenario(
                config=cfg, seifert=SeifertRequest(spin_target=target)))
            ((wanted, found),) = walks
            expected = oracle_walk(cfg, want)
            if expected is None:
                assert found is None
                assert ("background_class", "inconclusive") in rep.verdicts
            else:
                assert dict(zip(wanted, (spec.c1B for spec in found))) \
                    == expected
            outcomes.append(expected and len(set(expected.values())))
    # exhausted walks, and walks that serve assignments different classes
    assert outcomes.count(None) > 5
    assert sum(1 for n in outcomes if n and n > 1) > 5
