"""smith_normal_form must keep the recorded D, U and V, byte for byte.

The golden maps each case to the sha256 of its input A and of the D, U
and V that smith_normal_form returns for it (the repr of rows, columns
and entries).  The cases are 390 seeded matrices with 0 to 12 rows and
0 to 12 columns (dense, with zero rows and columns, with repeated rows
and their multiples, with entries sharing prime factors, sparse with
+-1 pivots), four fixed empty and zero matrices, the [P^T | diag m_i]
matrix of glued_Z that the H_1 decision reduces at p = 2, 3, 5, and
for the orbifold presentation at p = 2, 3, 13, 97 both the exponent
sums of its relators over its 11 generators (the nonzero rows, 18x11)
and the matrix abelianize reduces, which folds those sums onto the 8
classes of generators its relators x^+-1 y^+-1 identify (15x8).
Invariant factors alone do not pin the transforms; this does, so a
change to the pivot order or to the way the result is built shows up
here.  Regenerate it only for an intended change of output; the script
prints the name of each entry it adds, removes or changes:

    PYTHONPATH=src python tests/test_snf_digests.py
"""

import hashlib
import json
import random
from functools import cache
from pathlib import Path
from unittest import mock

import pytest

from golden_changes import print_changes
from orbkit import fpgroup
from orbkit.exact import IntMatrix, smith_normal_form
from orbkit.seifert import isotropy_surfaces, surface_class
from orbkit.surgery import build_Z

GOLDEN = Path(__file__).parent / "goldens" / "snf_digests.json"
SEED = 13
RANDOM_CASES = 390
MAX_DIM = 12
KINDS = ("dense", "zero_rows", "repeated_rows", "shared_primes",
         "unit_pivots")
GLUED_PRIMES = (2, 3, 5)
PI1_PRIMES = (2, 3, 13, 97)


def _entry(rng: random.Random, kind: str, primes: tuple) -> int:
    if kind == "shared_primes":
        if rng.random() < 0.2:
            return 0
        x = rng.choice((1, -1))
        for q in primes:
            x *= q ** rng.randint(0, 3)
        return x
    if kind == "unit_pivots":
        return rng.choice((0, 0, 0, 1, -1, rng.randint(-30, 30)))
    return rng.randint(-20, 20)


def _random_case(rng: random.Random, kind: str) -> IntMatrix:
    m, n = rng.randint(0, MAX_DIM), rng.randint(0, MAX_DIM)
    primes = tuple(rng.sample((2, 3, 5, 7), 2))
    rows = [[_entry(rng, kind, primes) for _ in range(n)] for _ in range(m)]
    if kind == "zero_rows":
        for i in rng.sample(range(m), rng.randint(0, m)):
            rows[i] = [0] * n
        for j in rng.sample(range(n), rng.randint(0, n // 2)):
            for row in rows:
                row[j] = 0
    elif kind == "repeated_rows":
        for i in range(1, m):
            if rng.random() < 0.5:
                c = rng.choice((1, 1, -1, 2, -3))
                rows[i] = [c * x for x in rows[rng.randrange(i)]]
    return IntMatrix(m, n, tuple(map(tuple, rows)))


def _glued_matrix(p: int) -> IntMatrix:
    """[P^T | diag m_i] of glued_Z: one row per isotropy surface, its
    pairing column then its multiplicity on the diagonal."""
    cfg = build_Z(p)
    iso = isotropy_surfaces(cfg)
    rows = [list(surface_class(cfg, s.id))
            + [s.multiplicity if t == k else 0 for t in range(len(iso))]
            for k, s in enumerate(iso)]
    return IntMatrix.from_rows(rows)


def _exponent_sum_matrix(p: int) -> IntMatrix:
    """The exponent sums of the orbifold presentation's relators, one
    column per generator, the rows that are not zero in relator order."""
    pres = fpgroup.build_pi1_orb_presentation(p)
    gens = range(1, len(pres.generators) + 1)
    rows = [[sum(e for g, e in r if g == h) for h in gens]
            for r in pres.relators]
    return IntMatrix.from_rows([row for row in rows if any(row)])


def _abelianize_matrix(p: int) -> IntMatrix:
    """The exponent-sum matrix abelianize hands to smith_normal_form."""
    with mock.patch.object(fpgroup, "smith_normal_form",
                           wraps=smith_normal_form) as snf:
        fpgroup.abelianize(fpgroup.build_pi1_orb_presentation(p))
    (a,), _ = snf.call_args
    return a


RANDOM_KINDS = [KINDS[i % len(KINDS)] for i in range(RANDOM_CASES)]
NAMES = ([f"{kind}_{i}" for i, kind in enumerate(RANDOM_KINDS)]
         + ["empty_0x0", "empty_0x7", "empty_7x0", "zero_5x4"]
         + [f"glued_Z_p{p}" for p in GLUED_PRIMES]
         + [f"abelianize_p{p}" for p in PI1_PRIMES]
         + [f"exponent_sums_p{p}" for p in PI1_PRIMES])


@cache
def cases() -> dict:
    """case name -> input matrix, in the order of NAMES."""
    rng = random.Random(SEED)
    out = {name: _random_case(rng, kind)
           for name, kind in zip(NAMES, RANDOM_KINDS)}
    out["empty_0x0"] = IntMatrix(0, 0, ())
    out["empty_0x7"] = IntMatrix(0, 7, ())
    out["empty_7x0"] = IntMatrix(7, 0, ((),) * 7)
    out["zero_5x4"] = IntMatrix(5, 4, ((0,) * 4,) * 5)
    for p in GLUED_PRIMES:
        out[f"glued_Z_p{p}"] = _glued_matrix(p)
    for p in PI1_PRIMES:
        out[f"abelianize_p{p}"] = _abelianize_matrix(p)
    for p in PI1_PRIMES:
        out[f"exponent_sums_p{p}"] = _exponent_sum_matrix(p)
    return out


def _sha(a: IntMatrix) -> str:
    return hashlib.sha256(
        repr((a.rows, a.cols, a.entries)).encode()).hexdigest()


def digests(a: IntMatrix) -> dict:
    snf = smith_normal_form(a)
    return {"A": _sha(a), "D": _sha(snf.D), "U": _sha(snf.U),
            "V": _sha(snf.V)}


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_shape_and_case():
    golden = _golden()
    assert list(cases()) == NAMES
    assert sorted(golden) == sorted(NAMES)
    shapes = {(a.rows, a.cols) for a in list(cases().values())[:RANDOM_CASES]}
    assert {m for m, _ in shapes} == set(range(MAX_DIM + 1))
    assert {n for _, n in shapes} == set(range(MAX_DIM + 1))
    glued = cases()["glued_Z_p3"]
    assert (glued.rows, glued.cols) == (16, 32)
    for p in PI1_PRIMES:
        full, folded = (cases()[f"{name}_p{p}"]
                        for name in ("exponent_sums", "abelianize"))
        assert (full.rows, full.cols) == (18, 11)
        assert (folded.rows, folded.cols) == (15, 8)


@pytest.mark.parametrize("name", NAMES)
def test_snf_matches_digest(name):
    assert digests(cases()[name]) == _golden()[name]


if __name__ == "__main__":
    new = {name: digests(a) for name, a in cases().items()}
    print_changes(GOLDEN.name, _golden() if GOLDEN.exists() else {}, new)
    GOLDEN.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
