"""Acceptance gate: one criterion per test, one PASS/FAIL line each."""

import math
import random
from collections import Counter
from fractions import Fraction
from math import gcd

from letter_words import syllables
from orbkit.abelian import AbelianGroup
from orbkit.exact import (
    IntMatrix,
    congruence_diagonal,
    mod_inverse,
    smith_normal_form,
)
from orbkit.fpgroup import (
    Presentation,
    abelianize,
    build_pi1_orb_presentation,
    coset_enumerate,
    cyclic_reduce,
    simply_connected_decision,
)
from orbkit.model import (
    OrbifoldConfig,
    SingularPointData,
    SurfaceData,
    assign_local_invariants,
    check_compatibility,
    validate_config,
)
from orbkit.seifert import (
    Lattice,
    SeifertSpec,
    compute_b_residues,
    h1_zero_decision,
    h2_of_M,
    is_primitive,
    scaled_chern_class,
    _graded_vectors,
)
from orbkit.spin import gk_check, smale_barden_report, spin_decision, spin_sweep
from orbkit.surgery import SurgeryLog, build_block_W, build_block_Y, build_Z
from test_surgery import block_W_stages


def _verdict(n, label, ok):
    print(f"[ACCEPTANCE {n}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({label}) failed"


def _glued_spec(p, c1B=(0,) * 16):
    z = build_Z(p)
    return SeifertSpec(z, compute_b_residues(z), tuple(c1B))


def test_acceptance_1_building_blocks():
    y = build_block_Y()
    ok = (y.euler, y.b1, y.b2) == (4, 2, 6)
    ok &= len(y.points) == 8 and all(p.order == 2 for p in y.points)
    w = build_block_W()
    wp = dict(block_W_stages())["Wp"]
    ok &= (wp.b2, wp.euler) == (2, 4)
    ok &= (w.b2, w.euler) == (10, 12)
    ok &= w.surface("C").self_intersection == 0
    ok &= w.surface("A1").self_intersection == Fraction(1, 2)
    ok &= w.surface("A2").self_intersection == -Fraction(1, 2)
    ok &= validate_config(y) == [] and validate_config(w) == []
    _verdict(1, "building blocks Y and W", ok)


def test_acceptance_2_glued_configuration():
    log = SurgeryLog()
    z = build_Z(3, log=log)
    sums = [e for e in log.entries if e.op == "gompf_fiber_sum"]
    ok = len(sums) == 1 and sums[0].after == (16, 0, 14)
    ok &= (z.euler, z.b1, z.b2) == (18, 0, 16)
    ok &= Counter(s.genus for s in z.surfaces) == {1: 13, 2: 3}
    squares = [z.surface(f"V{i}").self_intersection for i in range(1, 17)]
    ok &= squares == [Fraction(1, 2), Fraction(-1, 2)] + [-1] * 12 + [1, 1]
    ok &= z.events == ()  # the sixteen surfaces are pairwise disjoint
    ok &= validate_config(z) == []
    _verdict(2, "glued 16-surface configuration", ok)


def test_acceptance_3_self_intersection_trajectory():
    got = [(label, cfg.surface("C").self_intersection)
           for label, cfg in block_W_stages()]
    ok = got == [("P2", 9), ("X1", 8), ("X2", 8),
                 ("X3", Fraction(17, 2)), ("X4", Fraction(15, 2)),
                 ("Wp", 8), ("W", 0)]
    _verdict(3, "central-surface square trajectory", ok)


def test_acceptance_4_local_invariants():
    ok = True
    for p in (3, 5):
        z = build_Z(p)
        invariants = assign_local_invariants(z)
        ok &= len(invariants) == 6
        for pli in invariants.values():
            ok &= pli.violations() == []
            ok &= all(check_compatibility(pli, z.surface(sid))
                      for sid in pli.incident)
    rng = random.Random(20240817)
    produced = 0
    while produced < 100:
        d = rng.randrange(2, 51)
        e1, e2 = rng.randrange(1, d), rng.randrange(1, d)
        n = rng.randrange(2, 40)
        j = rng.randrange(1, n)
        if gcd(e1, d) != 1 or gcd(e2, d) != 1 or gcd(j, n) != 1:
            continue
        cfg = OrbifoldConfig(
            (SurfaceData("D", 1, multiplicity=n, local_j=j),),
            (SingularPointData("x", d, (e1, e2), ("D",)),), b1=0, b2=1)
        pli = assign_local_invariants(cfg)["x"]
        ok &= pli.violations() == []
        ok &= check_compatibility(pli, cfg.surface("D"))
        produced += 1
    _verdict(4, "local invariant assignment and compatibility", ok)


def _brute_force_surjective(cfg):
    iso = [s for s in cfg.surfaces if s.multiplicity > 1]
    mods = [s.multiplicity for s in iso]
    ids = [s.id for s in cfg.surfaces]
    P = cfg.integral_pairing
    gens = [tuple(P.entries[r][ids.index(s.id)] % s.multiplicity for s in iso)
            for r in range(P.rows)]
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


def test_acceptance_5_homology_of_bundle():
    spec = _glued_spec(3)
    ok = compute_b_residues(spec.base)["V16"] == 1
    dec = h1_zero_decision(spec)
    ok &= dec.holds and dec.b1_zero and dec.surjective and dec.primitive
    genus = [2] + [1] * 13 + [2, 2]
    want = AbelianGroup.from_prime_powers(
        15, {(3, i): 2 * g for i, g in enumerate(genus, start=1)})
    ok &= h2_of_M(spec) == want
    # surjectivity test agrees with subgroup enumeration on small cases
    rng = random.Random(5150)
    cases = 0
    while cases < 25:
        n = rng.randrange(1, 4)
        mults = [rng.choice((2, 3, 4, 5, 7, 8, 9)) for _ in range(n)]
        prod = 1
        for m in mults:
            prod *= m
        if prod > 10**4:
            continue
        b2 = rng.randrange(1, 4)
        cfg = OrbifoldConfig(
            tuple(SurfaceData(f"D{k}", 1, multiplicity=m, local_j=1)
                  for k, m in enumerate(mults)),
            b1=0, b2=b2, integral_pairing=IntMatrix.from_rows(
                [[rng.randrange(-4, 5) for _ in range(n)]
                 for _ in range(b2)]))
        ok &= (Lattice.of(cfg).surjective
               == _brute_force_surjective(cfg))
        cases += 1
    _verdict(5, "H1 = 0 criteria and H2 of the bundle", ok)


def test_acceptance_6_spin_dichotomy():
    # p = 2: spin for every primitive background class in the search
    # range, under every assignment of the unknown coefficients
    z2 = build_Z(2)
    res2 = compute_b_residues(z2)
    ok = True
    checked = 0
    for cand in _graded_vectors(16, max_l1=2):
        spec = SeifertSpec(z2, res2, cand)
        if not is_primitive(scaled_chern_class(spec)):
            continue
        ok &= all(spin_sweep(spec).values())
        checked += 1
    ok &= checked > 0
    # p = 3: for each of the four assignments, some background class in
    # range gives spin and some gives non-spin
    z3 = build_Z(3)
    res3 = compute_b_residues(z3)
    for a1 in (0, 1):
        for a2 in (0, 1):
            seen = set()
            for cand in _graded_vectors(16, max_l1=2):
                spec = SeifertSpec(z3, res3, cand)
                if not is_primitive(scaled_chern_class(spec)):
                    continue
                seen.add(spin_decision(spec, {"a1": a1, "a2": a2}))
                if seen == {True, False}:
                    break
            ok &= seen == {True, False}
    _verdict(6, "spin dichotomy (p=2 always spin; p=3 both)", ok)


def test_acceptance_7_classifying_data():
    spec = _glued_spec(3)
    ok = True
    for spin in (True, False):
        data = smale_barden_report(spec, spin)
        ok &= data.k == 15
        ok &= data.t_max == 16 == data.k + 1
        ok &= data.c_max == 2
        ok &= data.i_M in (0, None)
        ok &= gk_check(data)
    _verdict(7, "classifying data t = b2(M)+1 = 16, c = 2", ok)


def test_acceptance_8_fundamental_group():
    # cross-validate the coset enumerator on standard finite groups, each
    # relator a letter word (a nonzero signed generator index per letter)
    known = [
        ("xy", [(1, 1), (2, 2), (1, 2, 1, 2)], 4),
        ("rs", [(1, 1, 1), (2, 2), (2, 1, 2, 1)], 6),
        ("ij", [(1, 1, 1, 1), (1, 1, -2, -2), (2, 1, -2, 1)], 8),
        ("rs", [(1, 1, 1, 1), (2, 2), (2, 1, 2, 1)], 8),
        ("xy", [(1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2)], 12),
        ("a", [(1,) * 6], 6),
    ]
    ok = all(coset_enumerate(Presentation(tuple(gens), tuple(
        cyclic_reduce(syllables(r)) for r in relators))).status.index == order
        for gens, relators, order in known)
    pres = build_pi1_orb_presentation(3)
    result = coset_enumerate(pres, max_cosets=10000)
    ok &= result.is_complete()
    ok &= 4 % result.status.index == 0
    ab = abelianize(pres)
    ok &= ab.rank == 0 and math.prod(ab.invariant_factors) in (1, 2, 4)
    ok &= all(d in (2, 4) for d in ab.invariant_factors)
    ok &= simply_connected_decision(result, h1_zero=True) is True
    _verdict(8, "orbifold fundamental group certified small", ok)


def test_acceptance_9_exact_arithmetic():
    rng = random.Random(90210)
    ok = True
    for _ in range(500):
        m = rng.randrange(1, 9)
        n = rng.randrange(1, 9)
        A = IntMatrix.from_rows([[rng.randrange(-20, 21) for _ in range(n)]
                                 for _ in range(m)])
        res = smith_normal_form(A)
        ok &= res.U @ A @ res.V == res.D
        # |det U| = 1 iff det(U^T U) = det(U)^2 = 1, and so for V
        ok &= all(math.prod(congruence_diagonal((m.transpose() @ m).entries))
                  == 1 for m in (res.U, res.V))
        diag = res.D.diagonal()
        ok &= all(diag[i + 1] % diag[i] == 0
                  for i in range(len(diag) - 1) if diag[i])
        ok &= all(res.D.entries[i][j] == 0
                  for i in range(res.D.rows)
                  for j in range(res.D.cols) if i != j)
    count = 0
    while count < 10**4:
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if gcd(a, m) != 1:
            continue
        ok &= (a * mod_inverse(a, m)) % m == 1
        count += 1
    _verdict(9, "exact arithmetic foundations", ok)
