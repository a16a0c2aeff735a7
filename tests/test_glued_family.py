"""The paper's base claims for glued_Z, at every prime from 2 to 97.

For each p, build_Z(p) has b1 = 0 and b2 = 16; its isotropy surfaces
have multiplicities p, p^2, ..., p^16 and genera 2, then 1 thirteen
times, then 2 and 2; no intersection event joins two of them; and the
pairing of its declared basis is nondegenerate, so the basis spans
H2(X; Q).  The pairing is read off the surfaces and events here and
eliminated over Fractions here: nothing comes from the seifert or spin
modules, nor from the validation rule that checks the same pairing.
The H_2 of the total space and its Smale-Barden data are written out
here in closed form too; seifert and spin give only the values checked.
"""

from fractions import Fraction

import pytest

from orbkit import seifert, spin
from orbkit.surgery import build_Z

PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
GENERA = (2,) + (1,) * 13 + (2, 2)


def _pairing(cfg) -> list[list[Fraction]]:
    """The basis pairing: self-intersections on the diagonal, and off it
    1 for each smooth event and 1/d for each at a point of order d."""
    order = {pt.id: pt.order for pt in cfg.points}
    rows = []
    for a in cfg.basis:
        row = []
        for b in cfg.basis:
            if a == b:
                row.append(Fraction(cfg.surface(a).self_intersection))
                continue
            row.append(sum((Fraction(1, order.get(e.location, 1))
                            for e in cfg.events if {e.a, e.b} == {a, b}),
                           Fraction(0)))
        rows.append(row)
    return rows


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", PRIMES)
def test_base_claims(p):
    z = build_Z(p)
    assert (z.b1, z.b2) == (0, 16)
    isotropy = [s for s in z.surfaces if s.multiplicity > 1]
    assert [s.multiplicity for s in isotropy] == [p ** i for i in range(1, 17)]
    assert tuple(s.genus for s in isotropy) == GENERA
    ids = {s.id for s in isotropy}
    assert not [e for e in z.events if e.a in ids and e.b in ids]
    assert len(z.basis) == z.b2
    assert _rank(_pairing(z)) == z.b2


def test_rank_sees_a_singular_pairing():
    # the elimination itself: [[1, 1], [1, 1]] and a 1/2-scaled copy are
    # singular, [[1/2, 1], [1, 1/2]] is not
    one, half = Fraction(1), Fraction(1, 2)
    assert _rank([[one, one], [one, one]]) == 1
    assert _rank([[half, half], [half, half]]) == 1
    assert _rank([[half, one], [one, half]]) == 2


def _h2_exponents() -> list[int]:
    """i of each Z_{p^i} summand of H2(M), ascending: Z_p^4, Z_{p^i}^2
    for 2 <= i <= 14, Z_{p^15}^4 and Z_{p^16}^4."""
    return ([1] * 4 + [i for i in range(2, 15) for _ in range(2)]
            + [15] * 4 + [16] * 4)


# conditional on H1(M) = 0, which ROADMAP item 10 may overturn: h2_of_M
# and smale_barden_report assume it, and so do these closed forms
@pytest.mark.parametrize("p", PRIMES)
def test_h2_of_the_total_space_in_closed_form(p):
    lattice = seifert.Lattice.of(build_Z(p))
    (spec,) = seifert.search_background_class(
        lattice, [None], lambda spec, key: True)
    h2 = seifert.h2_of_M(spec)
    # one prime, so the invariant factors are the summands in order
    assert h2.rank == 15
    assert h2.invariant_factors == tuple(p ** i for i in _h2_exponents())
    data = spin.smale_barden_report(spec, True)
    assert data.k == 15
    assert data.torsion_profile == (((p, 1), 2),
                                    *(((p, i), 1) for i in range(2, 15)),
                                    ((p, 15), 2), ((p, 16), 2))
    # t(p) = 16 = k + 1: gk_check's bound holds with equality
    assert data.t == ((p, 16),)
    assert (data.t_max, data.c_max) == (16, 2)
    assert spin.gk_check(data)
