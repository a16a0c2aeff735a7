import random
from fractions import Fraction
from math import gcd

import pytest

from orbkit.exact import IntMatrix
from orbkit.model import (
    IntersectionEvent,
    OrbifoldConfig,
    PointLocalInvariant,
    SingularPointData,
    SurfaceData,
    NotIncident,
    UnsupportedGeometry,
    assign_local_invariants,
    check_compatibility,
    check_even_point_bound,
    validate_config,
)
from orbkit.record import replace
from orbkit.report import run_pipeline
from orbkit.scenario import Scenario
from orbkit.surgery import build_Z


def _single_point_config(n, j, d, e1, e2):
    return OrbifoldConfig(
        (SurfaceData("D", genus=1, multiplicity=n, local_j=j),),
        (SingularPointData("x", d, (e1, e2), ("D",)),), b1=0, b2=1)


def test_fresh_id_is_the_first_free_number():
    assert OrbifoldConfig.fresh_id("ev", []) == "ev1"
    assert OrbifoldConfig.fresh_id("ev", ["ev1", "ev3", "e2"]) == "ev2"
    assert OrbifoldConfig.fresh_id("dp", {"dp1", "dp2"}) == "dp3"
    # range(1, len(taken) + 2) holds len(taken) + 1 candidates, so one is
    # free; a longer range (the + 3 mutant) finds the same first one


def test_betti_numbers_default_to_zero():
    """Kills the mutants of OrbifoldConfig's defaults b1 = 0 -> 1 and
    b2 = 0 -> 1: a config given neither has chi = 2."""
    cfg = OrbifoldConfig()
    assert (cfg.b1, cfg.b2, cfg.euler) == (0, 0, 2)


class TestValidate:
    def test_glued_config_clean(self):
        assert validate_config(build_Z(3)) == []

    @pytest.mark.parametrize("kind", ["surfaces", "points", "events"])
    def test_repeated_id(self, kind):
        """The message names the kind in the singular, which also kills
        the mutant that cuts kind[:-2], not kind[:-1]: it would read
        "surfac ids repeat"."""
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0), SurfaceData("B", 0)),
            (SingularPointData("x", 2, (1, 1), ("A", "B")),),
            (IntersectionEvent("e", "A", "B"),
             IntersectionEvent("f", "A", "B", "x")), b2=2)
        assert validate_config(cfg) == []
        records = getattr(cfg, kind)
        cfg = replace(cfg, **{kind: records + (replace(records[0], id="y"),
                                               replace(records[0], id="y"))})
        singular = {"surfaces": "surface", "points": "point",
                    "events": "event"}[kind]
        assert [(v.kind, v.locus, v.message) for v in validate_config(cfg)] \
            == [("DuplicateId", kind, f"{singular} ids repeat")]

    def test_intersecting_non_coprime(self):
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0, multiplicity=2, local_j=1),
             SurfaceData("B", 0, multiplicity=4, local_j=1)),
            events=(IntersectionEvent("e", "A", "B"),), b2=2)
        kinds = [v.kind for v in validate_config(cfg)]
        assert "CoprimalityViolation" in kinds

    def test_local_invariant_not_coprime(self):
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0, multiplicity=6, local_j=3),))
        kinds = [v.kind for v in validate_config(cfg)]
        assert kinds == ["LocalInvariantNotCoprime"]

    @pytest.mark.parametrize("b1, b2, bad", [(-1, 0, ["b1"]), (0, -4, ["b2"]),
                                             (-2, -3, ["b1", "b2"])])
    def test_negative_betti_numbers(self, b1, b2, bad):
        cfg = OrbifoldConfig((SurfaceData("C", genus=1),), b1=b1, b2=b2)
        violations = validate_config(cfg)
        assert [(v.kind, v.locus) for v in violations] \
            == [("NegativeBetti", name) for name in bad]
        assert validate_config(OrbifoldConfig(b1=0, b2=0)) == []

    def test_multiplicity_one_needs_zero_j(self):
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0, multiplicity=1, local_j=2),))
        assert [v.kind for v in validate_config(cfg)] \
            == ["LocalInvariantNotZero"]

    def test_event_at_point_requires_incidence(self):
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0), SurfaceData("B", 0)),
            (SingularPointData("x", 2, (1, 1), ("A",)),),
            (IntersectionEvent("e", "A", "B", "x"),), b2=2)
        assert "NotIncidentAtEvent" in [v.kind for v in validate_config(cfg)]

    def test_qclass_consistency(self):
        cfg = OrbifoldConfig((SurfaceData(
            "A", 0, self_intersection=Fraction(4),
            qclass=(Fraction(2),)),), b2=1, basis=("A",))
        # A.A must equal q^T M q = 4 * A.A -> only consistent if wrong
        assert "SelfIntersectionMismatch" in \
            [v.kind for v in validate_config(cfg)]

    @pytest.mark.parametrize("self_int, at, degenerate", [
        (Fraction(1), "smooth", True),  # [[1, 1], [1, 1]]
        (Fraction(1, 2), "x", True),  # [[1/2, 1/2], [1/2, 1/2]]
        (Fraction(2), "smooth", False),  # [[2, 1], [1, 2]]
        (Fraction(1, 2), "smooth", False),  # [[1/2, 1], [1, 1/2]]
    ])
    def test_degenerate_pairing_fails_config_valid(self, self_int, at,
                                                   degenerate):
        # A and B meet once, smoothly or at a point of order 2; a basis
        # whose pairing is singular does not span H2(X; Q)
        # a smooth crossing has no location
        cfg = OrbifoldConfig(
            tuple(SurfaceData(sid, 0, self_intersection=self_int)
                  for sid in ("A", "B")),
            (SingularPointData("x", 2, (1, 1), ("A", "B")),),
            (IntersectionEvent("ev1", "A", "B",
                               None if at == "smooth" else at),),
            b2=2, basis=("A", "B"))
        assert [v.kind for v in validate_config(cfg)] \
            == ["DegeneratePairing"] * degenerate
        rep = run_pipeline(Scenario(config=cfg))
        assert ("config_valid", "fail" if degenerate else "pass") \
            in rep.verdicts

    def test_self_intersection_check_matches_dense_reference(self):
        # random pairings on bases up to 6x6 (smooth crossings and shared
        # points of order d give 1 and 1/d); the reference sums q.M.q
        # over every pair of coordinates, zero or not
        rng = random.Random(2024)
        shapes = set()
        for _ in range(300):
            n = rng.randrange(1, 7)
            basis = [f"B{i}" for i in range(n)]
            m = [[Fraction(0)] * n for _ in range(n)]
            surfaces, points, events = [], [], []
            for i, sid in enumerate(basis):
                m[i][i] = Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))
                surfaces.append(SurfaceData(
                    sid, 0, self_intersection=m[i][i]))
            for i in range(n):
                for j in range(i):
                    for _ in range(rng.randrange(3)):
                        d = rng.choice((1, 2, 3, 5))
                        at = None
                        if d > 1:
                            at = f"dp{len(points) + 1}"
                            points.append(SingularPointData(
                                at, d, (1, 1), (basis[i], basis[j])))
                        events.append(IntersectionEvent(
                            f"ev{len(events) + 1}", basis[i], basis[j], at))
                        m[i][j] += Fraction(1, d)
                        m[j][i] += Fraction(1, d)
            extra = {f"Q{k}" for k in range(rng.randrange(4))}
            surfaces += [SurfaceData(sid, 1) for sid in sorted(extra)]
            want = {}
            for k, s in enumerate(surfaces):
                shape = rng.choice(("dense", "sparse", "zero", None))
                if shape is None:
                    continue
                q = [Fraction(0)] * n
                if shape == "dense":
                    q = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                  rng.choice((1, 2))) for _ in range(n)]
                elif shape == "sparse":
                    for i in rng.sample(range(n), rng.randrange(1, n + 1)):
                        q[i] = Fraction(rng.choice((-2, -1, 1, 2)))
                shapes.add(shape)
                ref = sum(q[i] * m[i][j] * q[j]
                          for i in range(n) for j in range(n))
                s = surfaces[k] = replace(s, qclass=tuple(q))
                if s.id in extra:
                    s = surfaces[k] = replace(s, self_intersection=rng.choice(
                        (ref, ref, ref + 1, ref - Fraction(1, 2))))
                if ref != s.self_intersection:
                    want[s.id] = (f"qclass gives {ref}, "
                                  f"stored {s.self_intersection}")
            cfg = OrbifoldConfig(tuple(surfaces), tuple(points),
                                 tuple(events), b2=n, basis=tuple(basis))
            got = {v.locus: v.message for v in validate_config(cfg)
                   if v.kind == "SelfIntersectionMismatch"}
            assert got == want
        assert shapes == {"dense", "sparse", "zero"}

    @pytest.mark.parametrize("kind, locus, edit", [
        ("NegativeGenus", "A", lambda cfg: _edit_surface(cfg, "A", genus=-1)),
        ("BadMultiplicity", "A",
         lambda cfg: _edit_surface(cfg, "A", multiplicity=0)),
        ("ExponentNotCoprime", "x", lambda cfg: _add(
            cfg, points=SingularPointData("x", 4, (2, 1), ("A",)))),
        ("TooManyIncidentSurfaces", "x", lambda cfg: _add(
            cfg, points=SingularPointData("x", 2, (1, 1), ("A", "B", "C")))),
        ("UnknownSurface", "x", lambda cfg: _add(
            cfg, points=SingularPointData("x", 2, (1, 1), ("nope",)))),
        ("UnknownSurface", "e", lambda cfg: _add(
            cfg, events=IntersectionEvent("e", "A", "nope"))),
        ("UnknownSurface", "basis",
         lambda cfg: replace(cfg, basis=("nope",))),
        ("CoprimalityViolation", "x", lambda cfg: _add(
            cfg, points=SingularPointData("x", 3, (1, 1), ("A", "D")))),
        ("SelfTangency", "e", lambda cfg: _add(
            cfg, events=IntersectionEvent("e", "A", "A"))),
        ("UnknownPoint", "e", lambda cfg: _add(
            cfg, events=IntersectionEvent("e", "A", "B", "nowhere"))),
        ("BasisDimension", "basis",
         lambda cfg: replace(cfg, basis=("A", "B"))),
        ("QClassDimension", "A", lambda cfg: _edit_surface(
            replace(cfg, basis=("A",)), "A", qclass=(Fraction(1), 0))),
        ("IntegralPairingShape", "integral_pairing", lambda cfg: replace(
            cfg, integral_pairing=IntMatrix.from_rows([[1, 0]] * 2))),
    ], ids=["negative_genus", "bad_multiplicity", "exponent_not_coprime",
            "too_many_incident", "unknown_surface_at_point",
            "unknown_surface_at_event", "unknown_surface_in_basis",
            "coprimality_at_point", "self_tangency", "unknown_point",
            "basis_dimension", "qclass_dimension",
            "integral_pairing_shape"])
    def test_each_violation_alone(self, kind, locus, edit):
        # A, B, C meet nothing and pair to 1; D has multiplicity 4, so a
        # point on D and on A (multiplicity 2) breaks coprimality
        cfg = OrbifoldConfig((
            SurfaceData("A", 1, multiplicity=2, local_j=1,
                        self_intersection=Fraction(1)),
            *(SurfaceData(sid, 1, self_intersection=Fraction(1))
              for sid in ("B", "C")),
            SurfaceData("D", 1, multiplicity=4, local_j=1)), b1=0, b2=1)
        assert validate_config(cfg) == []
        cfg = edit(cfg)
        assert [(v.kind, v.locus) for v in validate_config(cfg)] \
            == [(kind, locus)]

    def test_order_independent_and_idempotent(self):
        cfg = build_Z(5)
        first = validate_config(cfg)
        assert validate_config(cfg) == first
        surfaces = list(cfg.surfaces)
        rng = random.Random(3)
        rng.shuffle(surfaces)
        shuffled = replace(cfg, surfaces=tuple(surfaces))
        assert [v for v in validate_config(shuffled)
                if v.kind != "BasisDimension"] == []


def _add(cfg, **records):
    """cfg with one more record of each kind named."""
    return replace(cfg, **{kind: getattr(cfg, kind) + (rec,)
                           for kind, rec in records.items()})


def _edit_surface(cfg, sid, **changes):
    """cfg with the fields of surface sid changed."""
    return replace(cfg, surfaces=tuple(
        replace(s, **changes) if s.id == sid else s for s in cfg.surfaces))


class TestAssignLocalInvariants:
    def test_worked_example(self):
        cfg = _single_point_config(n=3, j=1, d=2, e1=1, e2=1)
        pli = assign_local_invariants(cfg)["x"]
        assert (pli.m, pli.j1, pli.j2) == (6, 3, 1)
        assert pli.violations() == []

    def test_passthrough_isolated_point(self):
        cfg = OrbifoldConfig(points=(SingularPointData("x", 2, (1, 1)),))
        pli = assign_local_invariants(cfg)["x"]
        assert (pli.m, pli.j1, pli.j2) == (2, 1, 1)

    def test_even_j_example(self):
        cfg = _single_point_config(n=9, j=2, d=2, e1=1, e2=1)
        pli = assign_local_invariants(cfg)["x"]
        assert pli.j2 % pli.m == 11
        assert gcd(11, 18) == 1
        assert pli.violations() == []

    @pytest.mark.parametrize("j", [-1, 2, 5, 17])
    def test_j_is_a_residue_mod_the_multiplicity(self, j):
        # j = 5 gave (15, 9, 8), the same action up to the unit 4 mod 15;
        # j = -1 failed with "factorize needs n >= 1, got -1"
        cfg = _single_point_config(n=3, j=j, d=5, e1=1, e2=1)
        assert cfg.surface("D").local_j == 2
        pli = assign_local_invariants(cfg)["x"]
        assert (pli.m, pli.j1, pli.j2) == (15, 6, 2)
        assert check_compatibility(pli, cfg.surface("D"))

    def test_two_isotropy_surfaces_refused(self):
        cfg = OrbifoldConfig(
            (SurfaceData("A", 0, multiplicity=3, local_j=1),
             SurfaceData("B", 0, multiplicity=5, local_j=1)),
            (SingularPointData("x", 2, (1, 1), ("A", "B")),))
        with pytest.raises(UnsupportedGeometry):
            assign_local_invariants(cfg)

    def test_e2_prime_is_j_plus_n_x(self):
        """Kills the mutant e2' = j - n*x, not j + n*x.  The two differ by
        2*n*x, which vanishes mod n*d whenever d divides 2*x, as at the
        points orbkit builds (d = 2, j = 1).  Here d = 9, n = 2, j = 1 and
        (e1, e2) = (2, 1): e = 2, x = rad(9) = 3, e2' = 1 + 2*3 = 7 and
        e1' = 2*7 = 14 = 5 mod 9, so (m1, m2, d, e1', e2') = (2, 1, 9,
        5, 7) and (m, j1, j2) = (18, 10, 7); the mutant gives e2' = -5
        and (18, 16, 13)."""
        cfg = _single_point_config(n=2, j=1, d=9, e1=2, e2=1)
        pli = assign_local_invariants(cfg)["x"]
        assert pli.derived == (2, 1, 9, 5, 7)
        assert (pli.m, pli.j1, pli.j2) == (18, 10, 7)

    def test_random_inputs_valid_and_compatible(self):
        rng = random.Random(424242)
        produced = 0
        while produced < 150:
            d = rng.randrange(2, 51)
            e1 = rng.randrange(1, d)
            e2 = rng.randrange(1, d)
            if gcd(e1, d) != 1 or gcd(e2, d) != 1:
                continue
            n = rng.randrange(2, 40)
            j = rng.randrange(1, n)
            if gcd(j, n) != 1:
                continue
            cfg = _single_point_config(n, j, d, e1, e2)
            pli = assign_local_invariants(cfg)["x"]
            assert pli.violations() == []
            assert gcd(pli.j1, pli.m) * gcd(pli.j2, pli.m) * d == pli.m
            assert check_compatibility(pli, cfg.surface("D"))
            produced += 1


class TestCompatibility:
    PLI = PointLocalInvariant("x", (3, 1, 2, 1, 1), ("D",))  # m 6 j1 3 j2 1

    def test_matching_surface(self):
        assert check_compatibility(
            self.PLI, SurfaceData("D", 1, multiplicity=3, local_j=1))

    def test_wrong_residue(self):
        assert not check_compatibility(
            self.PLI, SurfaceData("D", 1, multiplicity=3, local_j=2))

    def test_wrong_multiplicity(self):
        assert not check_compatibility(
            self.PLI, SurfaceData("D", 1, multiplicity=9, local_j=1))

    def test_multiplicity_one_restricts_to_any_point(self):
        """Kills the mutant that returns True early for n == 2, not
        n == 1: a multiplicity-1 surface through a point whose slots are
        3 and 5 holds, and a multiplicity-2 surface there does not."""
        pli = PointLocalInvariant("x", (3, 5, 1, 1, 1), ("D",))
        assert check_compatibility(pli, SurfaceData("D", 1))
        assert not check_compatibility(
            pli, SurfaceData("D", 1, multiplicity=2, local_j=1))

    def test_not_incident(self):
        with pytest.raises(NotIncident):
            check_compatibility(
                self.PLI, SurfaceData("Z", 1, multiplicity=3, local_j=1))

    @pytest.mark.parametrize("j, holds", [(2, True), (3, False), (7, True)])
    def test_m2_slot_of_order_five(self, j, holds):
        """Kills the mutant that reads the m2 slot as (j1 + j) % m2, not
        (j1 - j) % m2: the two agree mod 2, but with m2 = 5, j1 = 2 the
        surface j = 2 holds where j1 + j = 4, and j = 3 fails where
        j1 + j = 5."""
        pli = PointLocalInvariant("x", (2, 5, 1, 1, 1), ("D",))
        assert (pli.m, pli.j1, pli.j2) == (10, 2, 5)
        assert check_compatibility(
            pli, SurfaceData("D", 1, multiplicity=5, local_j=j)) is holds


class TestSurfaceData:
    @pytest.mark.parametrize("n, j, want", [(2, 3, 1), (2, -1, 1), (3, 7, 1),
                                            (1, 0, 0)])
    def test_local_j_is_stored_mod_the_multiplicity(self, n, j, want):
        """Kills the mutant that reduces local_j only above multiplicity
        2: at multiplicity 2, local_j = 3 must read 1."""
        assert SurfaceData("D", 0, multiplicity=n, local_j=j).local_j == want


class TestEvenPointBound:
    def test_glued_config(self):
        assert check_even_point_bound(build_Z(2), 2)

    def test_empty(self):
        assert check_even_point_bound(OrbifoldConfig(), 2)

    def test_violated(self):
        cfg = OrbifoldConfig(points=tuple(
            SingularPointData(f"x{k}", 2, (1, 1)) for k in range(3)), b2=2)
        assert not check_even_point_bound(cfg, 2)

    def test_count_equal_to_b2_holds(self):
        """Kills the mutant that counts each point twice, sum(2 ...), not
        sum(1 ...): two points of even order with b2 = 2 are allowed, and
        only the odd-order third is not counted."""
        cfg = OrbifoldConfig(points=tuple(
            SingularPointData(f"x{k}", d, (1, 1)) for k, d in
            enumerate((2, 4, 3))), b2=2)
        assert check_even_point_bound(cfg, 2)


def test_pairing_uses_point_order():
    cfg = OrbifoldConfig(
        (SurfaceData("A", 0), SurfaceData("B", 0)),
        (SingularPointData("x", 4, (1, 3), ("A", "B")),),
        (IntersectionEvent("e1", "A", "B", "x"),
         IntersectionEvent("e2", "A", "B")), b2=2)
    assert cfg.pairing_of("A", "B") == Fraction(5, 4)


def test_replace_keeps_the_fraction_coordinates_it_reads():
    # a surface's qclass coordinates are Fractions: a Fraction passes
    # through unchanged, so a replace shares each coordinate object, and
    # any other number is converted to an equal Fraction
    s = SurfaceData("A", 0, qclass=(Fraction(1, 2), 3, Fraction(-2)))
    assert s.qclass == (Fraction(1, 2), Fraction(3), Fraction(-2))
    assert all(type(x) is Fraction for x in s.qclass)
    t = replace(s, genus=1)
    assert t.genus == 1
    assert all(x is y for x, y in zip(t.qclass, s.qclass))


def test_replace_keeps_the_fraction_self_intersection_it_reads():
    # as a coordinate is: a Fraction is kept, any other number converted
    s = SurfaceData("A", 0, self_intersection=Fraction(-1, 2))
    assert replace(s, genus=1).self_intersection is s.self_intersection
    t = SurfaceData("B", 0, self_intersection=3)
    assert type(t.self_intersection) is Fraction
    assert t.self_intersection == 3


def test_the_glued_lattice_shares_two_coordinate_objects():
    # every coordinate of build_Z's unit vectors is one shared 0 or 1
    z = build_Z(3)
    coordinates = [x for s in z.surfaces for x in s.qclass]
    assert len(coordinates) == 16 * 16
    assert len({id(x) for x in coordinates}) == 2
