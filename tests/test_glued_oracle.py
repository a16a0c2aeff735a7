"""Closed-form oracle for the Seifert invariants of glued_Z, drawn at
the 25 primes from 2 to 97, each of which is also one explicit example.

glued_Z carries sixteen disjoint surfaces V1..V16 of multiplicity p^1 ..
p^16 with j = 1 (so every b residue is 1), whose integral pairing
columns are d_r times the r-th unit vector.  Hence, with m = p^16,

    m * c1(M) = p^16 * c1(B) + p^(15 - r) * d_r       (r = 0 .. 15)

and the total space is spin for every background class at p = 2 (all
multiplicities are even, so every class dies under pullback), while at
odd p it is spin exactly when c1(B) = (1 - a1, 1 - a2, 0, ..., 0) mod 2.
The expectations below are plain integer arithmetic; nothing is taken
from the seifert or spin modules.
"""

from itertools import product
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbkit.seifert import (
    SeifertSpec,
    compute_b_residues,
    h1_zero_decision,
    scaled_chern_class,
)
from orbkit.spin import spin_decision
from orbkit.surgery import build_Z
from test_glued_family import PRIMES

D = (1, -1) + (-1,) * 12 + (1, 1)
BACKGROUND = st.tuples(*[st.integers(-4, 4)] * 16)


def _at_every_prime(test):
    """test with one example per prime of PRIMES, whose c1B has the
    parity (p mod 2, p // 2 mod 2) in its first two entries."""
    for p in PRIMES:
        test = example(p=p, c1B=(p % 2, p // 2 % 2) + (0,) * 14)(test)
    return test


@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), c1B=BACKGROUND)
@example(p=3, c1B=(1, 0) + (0,) * 14)
@example(p=5, c1B=(-1, 3) + (2, -4) * 7)
@example(p=2, c1B=(1, 1) + (0,) * 14)
@_at_every_prime
def test_glued_Z_closed_form(p, c1B):
    z = build_Z(p)
    spec = SeifertSpec(z, compute_b_residues(z), c1B)
    want = tuple(p ** 16 * c + p ** (15 - r) * d
                 for r, (c, d) in enumerate(zip(c1B, D)))
    assert scaled_chern_class(spec).entries == want
    primitive = gcd(*want) == 1
    assert h1_zero_decision(spec).holds == primitive
    if not primitive:
        return  # the spin decision needs H_1 = 0
    parity = tuple(c % 2 for c in c1B)
    for a1, a2 in product((0, 1), repeat=2):
        expected = p == 2 or parity == (1 - a1, 1 - a2) + (0,) * 14
        assert spin_decision(spec, {"a1": a1, "a2": a2}) == expected
